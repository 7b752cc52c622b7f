"""The file layer: atomic output files, UTF-8 text inputs, the `#<tag> v1` line formats
and the field checks every reader shares."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

from .errors import ParseError


@contextmanager
def output(path: str | Path, mode: str, **open_kwargs):
    """Write `path` through `<path>.<pid>.tmp`, renamed onto it when the block
    completes and removed when it raises, so a failed run leaves the previous
    file or none. No fsync: durability against power loss is not promised."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        f = open(tmp, mode, **open_kwargs)
    except OSError as exc:  # name the file asked for, not the temp
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


@contextmanager
def open_text(path: str | Path, newline: str | None = None):
    """`path` opened to read as UTF-8 text. A byte that is not UTF-8 raises a
    ParseError naming its line (ended by `\\n`, `\\r\\n` or `\\r`, as the
    readers count them), found from the file's bytes only after the decode
    has failed, so a well-formed file pays nothing."""
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            yield f
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as first:
            before = data[:first.start]
            line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
            raise ParseError(path, line, str(first)) from first
        raise  # the file decodes: the error came from elsewhere in the block


def header(tag: str, meta: dict | None = None) -> str:
    """The header line `#<tag> v1 k=v ...`, newline included."""
    fields = " ".join(f"{k}={v}" for k, v in (meta or {}).items())
    return f"#{tag} v1 {fields}".rstrip() + "\n"


def read_header(f, path: str | Path, tag: str) -> dict[str, str]:
    """The `k=v` fields of a `#<tag> v1` first line; other fields are ignored."""
    line = f.readline()
    if line.split()[:2] != [f"#{tag}", "v1"]:
        raise ParseError(path, 1, f"expected '#{tag} v1' header, got {line.rstrip()!r}")
    return dict(item.split("=", 1) for item in line.split()[2:] if "=" in item)


def records(f, path: str | Path, layout: str, sep: str | None = None, start: int = 2,
            comments: bool = False):
    """Yield `(lineno, fields)` per line of `f` from line `start`, split on `sep`
    (None: runs of whitespace) after stripping. Blank lines, and `#` lines if
    `comments`, are skipped; a field count other than `layout`'s raises ParseError."""
    width = len(layout.split(sep))
    for lineno, line in enumerate(f, start=start):
        fields = line.split() if sep is None else line.strip().split(sep)
        if len(fields) == width and not (comments and fields[0].startswith("#")):
            yield lineno, fields
        elif line.strip() and not (comments and line.lstrip().startswith("#")):
            raise ParseError(path, lineno, f"expected {layout!r}, got {line.strip()!r}")


def int64(field: str, path: str | Path, lineno: int, what: str) -> int:
    """`field`, the `what` field of line `lineno`, as an integer. One that does
    not parse, or lies outside int64, raises a ParseError naming the line."""
    try:
        value = int(field)
    except ValueError:
        raise ParseError(path, lineno, f"non-integer {what} field {field!r}") from None
    if not -2**63 <= value < 2**63:
        raise ParseError(path, lineno, f"{what} {field} does not fit in int64")
    return value


def first_lines(path: str | Path, keyed, what: str) -> dict[str, int]:
    """`{word: line}` from `(line, word)` pairs, in their order. A word given
    twice raises a ParseError naming the `what` and both its lines."""
    lines: dict[str, int] = {}
    for lineno, word in keyed:
        if word in lines:
            raise ParseError(path, lineno, f"duplicate {what} {word!r} (first on line "
                             f"{lines[word]})")
        lines[word] = lineno
    return lines
