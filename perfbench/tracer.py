"""In-memory spans recorded around layer boundaries, and self times from them.

A span is (name, start, end, parent); the parent is the index of the span
that was open when this one started, or -1.  Spans live in flat arrays while
the run is going and are written to one file when it ends.
"""

import json
from array import array
from time import perf_counter

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open = [NO_PARENT]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call; nested wrapped calls become children."""
        nid = self.name_id(name)
        names, parents, starts, ends, open_spans = (
            self.name, self.parent, self.start, self.end, self._open
        )

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(open_spans[-1])
            ends.append(0.0)
            open_spans.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                open_spans.pop()

        return traced

    def leaf(self, nid: int, begin: float, finish: float) -> None:
        """Record a finished span that opened no spans of its own."""
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.start.append(begin)
        self.end.append(finish)

    def dump(self, path) -> None:
        header = {"names": self.names, "count": len(self.start)}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(out)


def load(path):
    """Read a span file back as (names, name ids, parents, starts, ends)."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        columns = []
        for code in ("H", "q", "d", "d"):
            column = array(code)
            column.fromfile(src, header["count"])
            columns.append(column)
    return (header["names"], *columns)


def self_times(path) -> dict:
    """{span name: (calls, self seconds)}; self time excludes child spans."""
    names, name_ids, parents, starts, ends = load(path)
    count = len(starts)
    durations = [ends[i] - starts[i] for i in range(count)]
    in_children = [0.0] * count
    for i in range(count):
        parent = parents[i]
        if parent != NO_PARENT:
            in_children[parent] += durations[i]
    calls = [0] * len(names)
    seconds = [0.0] * len(names)
    for i in range(count):
        nid = name_ids[i]
        calls[nid] += 1
        seconds[nid] += durations[i] - in_children[i]
    return {name: (calls[nid], seconds[nid]) for nid, name in enumerate(names)}
