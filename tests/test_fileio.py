"""The file layer: atomic outputs, and no writer that bypasses them."""

import ast
import os
from pathlib import Path

import pytest

from synvec import fileio
from synvec.corpus import write_tokens

SRC = Path(fileio.__file__).resolve().parent


def test_failed_block_leaves_existing_target_untouched(tmp_path):
    target = tmp_path / "out.txt"
    target.write_bytes(b"previous\ncontents\n")
    with pytest.raises(RuntimeError):
        with fileio.output(target, "w", encoding="utf-8") as f:
            f.write("half of the new file")
            f.flush()
            raise RuntimeError("stage failed mid-write")
    assert target.read_bytes() == b"previous\ncontents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_failed_block_leaves_no_new_file(tmp_path):
    with pytest.raises(RuntimeError):
        with fileio.output(tmp_path / "new.bin", "wb") as f:
            f.write(b"\x00" * 64)
            raise RuntimeError("stage failed mid-write")
    assert list(tmp_path.iterdir()) == []


def test_write_tokens_failing_mid_corpus_keeps_old_file(tmp_path):
    path = tmp_path / "corpus.txt"
    write_tokens(path, [["old", "corpus"]])
    before = path.read_bytes()

    def sentences():
        yield ["first", "sentence"]
        raise ValueError("tokenizer failed")

    with pytest.raises(ValueError, match="tokenizer failed"):
        write_tokens(path, sentences())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.txt"]


def test_missing_directory_is_reported_by_the_target_name(tmp_path):
    target = tmp_path / "nodir" / "out.txt"
    with pytest.raises(FileNotFoundError) as exc:
        with fileio.output(target, "w", encoding="utf-8"):
            pytest.fail("opened a file in a missing directory")
    assert exc.value.filename == str(target) and ".tmp" not in str(exc.value)


def test_symlinked_target_is_replaced_not_written_through(tmp_path):
    elsewhere = tmp_path / "elsewhere.txt"
    elsewhere.write_text("kept\n")
    link = tmp_path / "out.txt"
    link.symlink_to(elsewhere)
    with fileio.output(link, "w", encoding="utf-8") as f:
        f.write("new\n")
    assert not link.is_symlink() and link.read_text() == "new\n"
    assert elsewhere.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["elsewhere.txt", "out.txt"]


def test_new_file_mode_matches_plain_open(tmp_path):
    """An output gets the mode `open(path, "w")` gives under the same umask,
    not the owner-only mode of a `tempfile.mkstemp` file."""
    old = os.umask(0o022)
    try:
        with open(tmp_path / "plain.txt", "w"):
            pass
        with fileio.output(tmp_path / "atomic.txt", "w") as f:
            f.write("x")
    finally:
        os.umask(old)
    assert (tmp_path / "atomic.txt").stat().st_mode == (tmp_path / "plain.txt").stat().st_mode


def test_records_skip_comments_only_when_asked(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text("#x v1\n#tag\t3\n\n  \nword\t2\n")
    with open(path, encoding="utf-8") as f:
        assert fileio.read_header(f, path, "x") == {}
        assert list(fileio.records(f, path, "<w>\t<n>", "\t")) == [
            (2, ["#tag", "3"]), (5, ["word", "2"])]
    with open(path, encoding="utf-8") as f:
        fileio.read_header(f, path, "x")
        assert list(fileio.records(f, path, "<w>\t<n>", "\t", comments=True)) == [
            (5, ["word", "2"])]


def _writes_outside_file_layer(path: Path) -> list[str]:
    """`open(...)` calls with a write, append or create mode and
    `.write_text`/`.write_bytes` calls in one module. A call on one of the
    package's own modules (`embed_io.write_text`) is that module's function."""
    modules = {p.stem for p in SRC.glob("*.py")}
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        receiver = getattr(getattr(func, "value", None), "id", None)
        if name == "open":
            modes = [a.value for a in node.args + [k.value for k in node.keywords]
                     if isinstance(a, ast.Constant) and isinstance(a.value, str)]
            if any(set(m) & set("wax+") and set(m) <= set("rwaxbt+") for m in modes):
                found.append(f"{path.name}:{node.lineno}: open(..., {modes})")
        elif name in ("write_text", "write_bytes") and receiver not in modules:
            found.append(f"{path.name}:{node.lineno}: .{name}(...)")
    return found


def test_every_writer_goes_through_the_file_layer():
    sources = [p for p in SRC.glob("*.py") if p.name != "fileio.py"]
    assert len(sources) >= 10
    found = [hit for p in sorted(sources) for hit in _writes_outside_file_layer(p)]
    assert found == [], "write through fileio.output instead: " + "; ".join(found)


def test_guard_sees_a_bypassing_writer(tmp_path):
    rogue = tmp_path / "rogue.py"
    rogue.write_text('with open(p, "w") as f: pass\nopen(p, mode="ab")\n'
                     'Path(p).write_text("x")\nembed_io.write_text(p, w, m)\n'
                     'open(p, encoding="utf-8")\n')
    lines = sorted(hit.split(":")[1] for hit in _writes_outside_file_layer(rogue))
    assert lines == ["1", "2", "3"]
