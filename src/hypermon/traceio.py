"""Trace file format.

UTF-8 text, ``#`` starts a line comment.  Each remaining non-blank line is
one step: a comma-separated list of the propositions that hold, or the
literal ``{}`` for a step where nothing holds.  A file with no steps is the
empty trace.  One trace per file; the trace is named after the file stem.

The canonical rendering sorts propositions within a step and ends every line
with a newline; parse-then-print is byte-identical on canonical files.
"""

import json
import re
from pathlib import Path

from .errors import TraceFormatError
from .semantics import Trace

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def parse_trace(text: str, name: str = "t") -> Trace:
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "{}":
            steps.append(frozenset())
            continue
        props = [tok.strip() for tok in line.split(",")]
        for tok in props:
            if not _IDENT.match(tok):
                raise TraceFormatError(
                    f"line {lineno}: invalid proposition {tok!r}"
                )
        steps.append(frozenset(props))
    return Trace(tuple(steps), name)


def print_trace(trace: Trace) -> str:
    lines = []
    for s in trace.steps:
        lines.append(",".join(sorted(s)) if s else "{}")
    return "".join(line + "\n" for line in lines)


def load_trace(path) -> Trace:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
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
            out.extend(sorted(p.glob("*.trace")))
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
