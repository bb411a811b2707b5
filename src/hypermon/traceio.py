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
"""

import functools
import json
import re
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
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            step = _parse_line(raw)
        except TraceFormatError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from None
        if step is not None:
            steps.append(step)
    return Trace(tuple(steps), name)


def print_trace(trace: Trace) -> str:
    lines = []
    for s in trace.steps:
        lines.append(",".join(sorted(s)) if s else "{}")
    return "".join(line + "\n" for line in lines)


def load_trace(path) -> Trace:
    if not isinstance(path, Path):
        path = Path(path)
    try:
        # splitlines() ends lines at \r\n and \r as read_text() would; a
        # leading byte-order mark is not part of the first line
        text = path.read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: not valid UTF-8 ({exc.reason})") from exc
    try:
        return parse_trace(text, path.stem)
    except TraceFormatError as exc:
        raise TraceFormatError(f"{path}: {exc}") from None


def save_trace(trace: Trace, path) -> None:
    Path(path).write_text(print_trace(trace), encoding="utf-8")


def collect_trace_paths(paths):
    """Expand directories to their *.trace files in name order.

    Raises TraceFormatError when two files share a stem, i.e. a trace name.
    """
    out = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            # one parent, so the name orders them as the paths do
            out.extend(sorted(p.glob("*.trace"), key=lambda path: path.name))
        else:
            out.append(p)
    first = {}
    for path in out:
        other = first.setdefault(path.stem, path)
        if other is not path:
            raise TraceFormatError(
                f"duplicate trace name {path.stem!r}: {other} and {path}"
            )
    return out


def write_manifest(path, **fields) -> None:
    Path(path).write_text(
        json.dumps(fields, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
