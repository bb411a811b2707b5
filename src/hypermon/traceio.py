"""Trace file format.

UTF-8 text, ``#`` starts a line comment.  Each remaining non-blank line is
one step: a comma-separated list of the propositions that hold, or the
literal ``{}`` for a step where nothing holds.  A file with no steps is the
empty trace.  One trace per file; the trace is named after the file stem.

The canonical rendering sorts propositions within a step and ends every line
with a newline; parse-then-print is byte-identical on canonical files.

Each distinct line text is parsed once per process, through a cache bounded
by ``PARSE_CACHE_SIZE``: equal lines in any file share one ``frozenset``.
Errors are not cached; each occurrence gets its own line number and path.

Intake holds plain ``str`` paths, spelled as ``pathlib`` spells them: a
directory is listed once, and a file is read with one ``os.read``.
"""

import errno
import functools
import json
import os
import re
import stat
from pathlib import Path

from .errors import TraceFormatError
from .semantics import Trace

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
PARSE_CACHE_SIZE = 4096  # distinct line texts kept by _parse_line


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def _parse_line(raw: str):
    """The step a line states, or None for a blank or comment line."""
    line = raw.split("#", 1)[0].strip()
    if not line:
        return None
    if line == "{}":
        return frozenset()
    props = [tok.strip() for tok in line.split(",")]
    for tok in props:
        if not _IDENT.match(tok):
            raise TraceFormatError(f"invalid proposition {tok!r}")
    return frozenset(props)


def parse_trace(text: str, name: str = "t") -> Trace:
    lines = text.splitlines()
    try:
        steps = list(map(_parse_line, lines))
    except TraceFormatError:
        # again one line at a time, only to number the failing line
        for lineno, raw in enumerate(lines, start=1):
            try:
                _parse_line(raw)
            except TraceFormatError as exc:
                raise TraceFormatError(f"line {lineno}: {exc}") from None
        raise
    return Trace(tuple([step for step in steps if step is not None]), name)


def print_trace(trace: Trace) -> str:
    lines = []
    for s in trace.steps:
        lines.append(",".join(sorted(s)) if s else "{}")
    return "".join(line + "\n" for line in lines)


def _stem(path: str) -> str:
    """The trace name of a file path: ``PurePath.stem`` of its last part."""
    name = path.rpartition("/")[2]
    dot = name.rfind(".")
    return name[:dot] if 0 < dot < len(name) - 1 else name


def _read(path: str) -> bytes:
    """The file's bytes, as ``Path.read_bytes`` gives them and with the same
    errors; a regular file takes one read."""
    fd = os.open(path, os.O_RDONLY)
    try:
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        # a read shorter than asked for is the end of a regular file; one
        # that fills the buffer (a file that grew, a pipe) reads on to the end
        want = info.st_size + 1
        data = os.read(fd, want)
        if len(data) == want:
            chunks = [data]
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
            data = b"".join(chunks)
        return data
    finally:
        os.close(fd)


def load_trace(path) -> Trace:
    path = os.fspath(path)
    try:
        # splitlines() ends lines at \r\n and \r as read_text() would; a
        # leading byte-order mark is not part of the first line
        text = _read(path).decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: not valid UTF-8 ({exc.reason})") from exc
    try:
        return parse_trace(text, _stem(path))
    except TraceFormatError as exc:
        raise TraceFormatError(f"{path}: {exc}") from None


def save_trace(trace: Trace, path) -> None:
    Path(path).write_text(print_trace(trace), encoding="utf-8")


def collect_trace_paths(paths):
    """Expand directories to their *.trace files in name order, as ``str``
    paths spelled as ``str(Path(directory) / name)``.

    A directory's listing matches ``Path.glob("*.trace")``: hidden names and
    subdirectories count, and one that cannot be read lists nothing.
    Raises TraceFormatError when two files share a stem, i.e. a trace name.
    """
    out = []
    for p in paths:
        p = Path(p)  # one per argument, for its spelling and is_dir()
        if not p.is_dir():
            out.append(str(p))
            continue
        base = str(p)
        prefix = "" if base == "." else os.path.join(base, "")
        try:
            names = os.listdir(base)
        except PermissionError:
            names = []
        # one parent, so the name orders them as the paths do
        out.extend(prefix + name for name in sorted(names) if name.endswith(".trace"))
    first = {}
    for i, path in enumerate(out):
        j = first.setdefault(_stem(path), i)
        if j != i:
            raise TraceFormatError(
                f"duplicate trace name {_stem(path)!r}: {out[j]} and {path}"
            )
    return out


def write_manifest(path, **fields) -> None:
    Path(path).write_text(
        json.dumps(fields, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
