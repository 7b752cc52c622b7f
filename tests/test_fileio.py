"""The file layer: atomic outputs, and no writer that bypasses them."""

import ast
import os
from pathlib import Path

import pytest

from synvec import fileio
from synvec.corpus import write_tokens
from synvec.errors import ParseError

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


def _string_args(call: ast.Call) -> list[str]:
    return [a.value for a in call.args + [k.value for k in call.keywords]
            if isinstance(a, ast.Constant) and isinstance(a.value, str)]


def _write_mode(modes: list[str]) -> bool:
    return any(set(m) & set("wax+") and set(m) <= set("rwaxbt+") for m in modes)


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
            modes = _string_args(node)
            if _write_mode(modes):
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


def _reads_outside_file_layer(path: Path) -> list[tuple[str, str]]:
    """`(function, hit)` for each `open(...)` call without a write mode, each
    `.read_text`/`.read_bytes` call and each `.decode(...)` call in one module.
    A call on one of the package's own modules (`embed_io.read_text`) is that
    module's function."""
    modules = {p.stem for p in SRC.glob("*.py")}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = {}  # node -> innermost enclosing function; ast.walk visits outer ones first
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((node, function.name) for node in ast.walk(function))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        receiver = getattr(getattr(func, "value", None), "id", None)
        if (name == "open" and not _write_mode(_string_args(node))
                or name in ("read_text", "read_bytes") and receiver not in modules
                or name == "decode"):
            found.append((owner.get(node, "<module>"), f"{path.name}:{node.lineno}: {name}"))
    return found


# word2vec binary holds raw float bytes; its per-word decode raises its own
# ParseError. The native layer hashes its C sources' bytes to name its library.
BINARY_READERS = {("embed_io.py", "read_binary"), ("_native.py", "_library")}


def test_every_text_read_goes_through_the_file_layer():
    sources = [p for p in SRC.glob("*.py") if p.name != "fileio.py"]
    assert len(sources) >= 10
    found = [hit for p in sorted(sources) for function, hit in _reads_outside_file_layer(p)
             if (p.name, function) not in BINARY_READERS]
    assert found == [], "read through fileio.open_text instead: " + "; ".join(found)
    assert _reads_outside_file_layer(SRC / "embed_io.py")  # the guard sees read_binary


def test_guard_sees_a_bypassing_reader(tmp_path):
    rogue = tmp_path / "rogue.py"
    rogue.write_text('with open(p, encoding="utf-8") as f: pass\n'
                     'def load(p):\n    return Path(p).read_bytes().decode("utf-8")\n'
                     'Path(p).read_text()\nopen(p, "rb")\nopen(p, "w")\n'
                     'embed_io.read_text(p)\nfileio.open_text(p)\n')
    assert sorted(_reads_outside_file_layer(rogue), key=lambda hit: hit[1]) == [
        ("<module>", "rogue.py:1: open"), ("load", "rogue.py:3: decode"),
        ("load", "rogue.py:3: read_bytes"), ("<module>", "rogue.py:4: read_text"),
        ("<module>", "rogue.py:5: open")]


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
def test_byte_not_utf8_names_its_line(tmp_path, end):
    """The line is counted as the readers count it, whatever ends it."""
    path = tmp_path / "rows.tsv"
    path.write_bytes(b"#x v1" + end + b"word\t2" + end + b"w\xc3rd\t3" + end)
    offset = 12 + 2 * len(end)
    with pytest.raises(ParseError, match=r"rows.tsv:3: 'utf-8' codec can't decode byte 0xc3 "
                                         rf"in position {offset}") as err:
        with fileio.open_text(path) as f:
            list(f)
    assert err.value.line == 3 and err.value.__cause__.start == offset


def test_decode_error_from_elsewhere_passes_through(tmp_path):
    """Only the file's own bytes are blamed on the file."""
    path = tmp_path / "rows.tsv"
    path.write_text("fine\n")
    with pytest.raises(UnicodeDecodeError) as err:
        with fileio.open_text(path):
            b"\xff".decode("utf-8")
    assert not isinstance(err.value, ParseError)
