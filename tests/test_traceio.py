import random
import re
from pathlib import Path

import pytest

from hypermon import traceio
from hypermon.cli import main
from hypermon.errors import TraceFormatError
from hypermon.semantics import Trace
from hypermon.traceio import (
    PARSE_CACHE_SIZE,
    collect_trace_paths,
    load_trace,
    parse_trace,
    print_trace,
    read_manifest,
    save_trace,
    write_manifest,
)

from conftest import random_trace

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def reference_parse(text: str, name: str = "t") -> Trace:
    """The trace format parsed line by line, with no cache."""
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


def _outcome(parse, text):
    try:
        return parse(text, "x")
    except TraceFormatError as exc:
        return str(exc)


def _random_line(rng) -> str:
    kind = rng.random()
    if kind < 0.1:
        return rng.choice(["", "   ", "# a comment", "  # indented, with a", "\t"])
    if kind < 0.2:
        return rng.choice(["{}", " {} ", "{} # nothing holds"])
    toks = [rng.choice(["a", "b", "c", "_d", "x1"]) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.05:
        toks.insert(rng.randrange(len(toks) + 1),
                    rng.choice(["", "1a", "@", "a-b", "{}", "a b"]))
    pad = lambda: " " * rng.randint(0, 2)
    line = ",".join(pad() + tok + pad() for tok in toks)
    return line + rng.choice(["", "", " # tail", "#"])


def test_parse_basic():
    t = parse_trace("a,b\n{}\nb\n", "x")
    assert t.steps == (frozenset({"a", "b"}), frozenset(), frozenset({"b"}))
    assert t.name == "x"


def test_comments_and_blank_lines_ignored():
    t = parse_trace("# header\n\na\n  # indented comment\nb # tail\n", "x")
    assert t.steps == (frozenset({"a"}), frozenset({"b"}))


def test_empty_file_is_empty_trace():
    assert parse_trace("", "x").steps == ()
    assert parse_trace("# only a comment\n", "x").steps == ()


def test_duplicate_props_collapse():
    assert parse_trace("a,a,b\n", "x").steps == (frozenset({"a", "b"}),)


def test_bad_proposition_rejected():
    with pytest.raises(TraceFormatError):
        parse_trace("a,@bad\n", "x")
    with pytest.raises(TraceFormatError):
        parse_trace("a,,b\n", "x")


def test_print_canonical_sorted():
    t = Trace.of([{"b", "a"}, set(), {"c"}], "x")
    assert print_trace(t) == "a,b\n{}\nc\n"


def test_roundtrip_byte_identical_on_canonical():
    text = "a,b\n{}\nc\n"
    assert print_trace(parse_trace(text, "x")) == text


def test_file_roundtrip(tmp_path):
    t = Trace.of([{"a"}, set()], "mytrace")
    path = tmp_path / "mytrace.trace"
    save_trace(t, path)
    back = load_trace(path)
    assert back == t  # name taken from the file stem


def test_cached_parse_equals_reference(tmp_path):
    rng = random.Random(2019)
    failures = 0
    for _ in range(400):
        lines = [_random_line(rng) for _ in range(rng.randint(0, 12))]
        text = "\n".join(lines) + rng.choice(["", "\n"])
        expected = _outcome(reference_parse, text)
        assert _outcome(parse_trace, text) == expected
        assert _outcome(parse_trace, text) == expected  # now from the cache
        failures += isinstance(expected, str)
    assert 0 < failures < 400


def test_same_bad_line_reports_each_files_line(tmp_path, capsys):
    spec = tmp_path / "spec.hm"
    spec.write_text("forall p. forall q. G (a@p <-> a@q)\n")
    first, second = tmp_path / "first.trace", tmp_path / "second.trace"
    first.write_text("a\na,@x\n")
    second.write_text("a\n# note\n\na,@x\n")
    for path, lineno in ((first, 2), (second, 4), (first, 2)):
        with pytest.raises(TraceFormatError) as info:
            load_trace(path)
        assert str(info.value) == f"{path}: line {lineno}: invalid proposition '@x'"
        assert main(["monitor", str(spec), str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: line {lineno}: invalid proposition '@x'\n"


def test_crlf_and_cr_line_ends(tmp_path):
    path = tmp_path / "t.trace"
    path.write_bytes(b"a,b\r\n{}\r\rb\r\n")
    assert load_trace(path).steps == (frozenset({"a", "b"}), frozenset(), frozenset({"b"}))
    path.write_bytes(b"a\r\n\r\nb\ra,,b\n")
    with pytest.raises(TraceFormatError) as info:
        load_trace(str(path))
    assert str(info.value) == f"{path}: line 4: invalid proposition ''"


def test_leading_byte_order_mark_is_dropped(tmp_path):
    text = "a,b\n# comment\n{}\nb\n"
    plain, marked = tmp_path / "plain.trace", tmp_path / "marked.trace"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_trace(marked).steps == load_trace(plain).steps
    # a mark anywhere else is still part of its line
    marked.write_bytes(b"a\n\xef\xbb\xbfb\n")
    with pytest.raises(TraceFormatError) as info:
        load_trace(marked)
    assert str(info.value) == f"{marked}: line 2: invalid proposition '\\ufeffb'"


def test_parse_cache_stays_bounded():
    lines = [f"p{i},q" for i in range(PARSE_CACHE_SIZE + 100)]
    trace = parse_trace("\n".join(lines))
    assert len(trace) == len(lines)
    assert traceio._parse_line.cache_info().currsize <= PARSE_CACHE_SIZE
    assert parse_trace(lines[0]).steps == (frozenset({"p0", "q"}),)


def test_equal_lines_share_one_step():
    one = parse_trace("b,a\n{}\n", "one")
    two = parse_trace("# other\nb,a\n{}\nb,a\n", "two")
    assert two.steps[0] is one.steps[0] and two.steps[2] is one.steps[0]
    assert two.steps[1] is one.steps[1]


def test_loaded_traces_share_one_object_per_distinct_step(tmp_path):
    rng = random.Random(8)
    traces = [random_trace(rng, f"t{i}", 6, ("a", "b", "c")) for i in range(200)]
    for t in traces:
        save_trace(t, tmp_path / f"{t.name}.trace")
    loaded = [load_trace(tmp_path / f"{t.name}.trace") for t in traces]
    assert loaded == traces
    steps = [step for t in loaded for step in t.steps]
    assert len({id(step) for step in steps}) == len(set(steps))


def test_collect_paths_expands_directories(tmp_path):
    (tmp_path / "b.trace").write_text("a\n")
    (tmp_path / "a.trace").write_text("a\n")
    (tmp_path / "manifest.json").write_text("{}")
    got = collect_trace_paths([tmp_path])
    assert got == [str(p) for p in sorted(tmp_path.glob("*.trace"))]
    assert got == [str(tmp_path / "a.trace"), str(tmp_path / "b.trace")]


def test_collect_paths_sorted_as_paths(tmp_path):
    names = ["b", "B", "a_1", "a1", "A_", "_x", "t10", "t9", "t_2", "T2", "a", "Z_"]
    for name in names:
        (tmp_path / f"{name}.trace").write_text("a\n")
    got = collect_trace_paths([tmp_path])
    assert got == [str(p) for p in sorted(tmp_path.glob("*.trace"))]
    assert len(got) == len(names)


def test_collect_paths_rejects_duplicate_stems_unread(tmp_path):
    first, second = tmp_path / "d1" / "t.trace", tmp_path / "d2" / "t.trace"
    with pytest.raises(TraceFormatError) as info:
        collect_trace_paths([first, tmp_path / "u.trace", second])  # none exist
    assert str(info.value) == f"duplicate trace name 't': {first} and {second}"


# names a directory may hold: odd stems, non-ASCII, names that are not traces
_ODD_NAMES = [".trace", "a..trace", "a.b.trace", ".hidden.trace", "é.trace",
              "日本.trace", "t 1.trace", "T.trace", "trace", "a.TRACE",
              "notes.txt", "x.trace.bak"]


def _random_file(rng) -> bytes:
    """A trace file's bytes: random lines, sometimes a planted bad line, a
    byte-order mark, CRLF or CR line ends or invalid UTF-8."""
    lines = [_random_line(rng) for _ in range(rng.randint(0, 8))]
    if lines and rng.random() < 0.2:
        lines[rng.randrange(len(lines))] = rng.choice(["a,,b", "é", "x y", "1a"])
    text = rng.choice(["\n", "\r\n", "\r"]).join(lines) + rng.choice(["", "\n"])
    data = text.encode("utf-8")
    if rng.random() < 0.2:
        data = b"\xef\xbb\xbf" + data
    if rng.random() < 0.1:
        cut = rng.randint(0, len(data))
        data = data[:cut] + rng.choice([b"\xff", b"\xc3", b"\xed\xa0\x80"]) + data[cut:]
    return data


def _reference_collect(paths):
    """``collect_trace_paths`` with pathlib: glob, sort, stems."""
    out = []
    for p in paths:
        p = Path(p)
        out.extend(sorted(p.glob("*.trace")) if p.is_dir() else [p])
    first = {}
    for path in out:
        other = first.setdefault(path.stem, path)
        if other is not path:
            return f"duplicate trace name {path.stem!r}: {other} and {path}"
    return [str(path) for path in out]


def _reference_load(path: Path):
    """``load_trace`` with ``read_bytes`` and the uncached reference parse."""
    try:
        text = path.read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        return f"{path}: not valid UTF-8 ({exc.reason})"
    except OSError as exc:
        return type(exc), str(exc)
    try:
        return reference_parse(text, path.stem)
    except TraceFormatError as exc:
        return f"{path}: {exc}"


def _collect(paths):
    try:
        return collect_trace_paths(paths)
    except TraceFormatError as exc:
        return str(exc)


def _load(path):
    try:
        return load_trace(path)
    except TraceFormatError as exc:
        return str(exc)
    except OSError as exc:
        return type(exc), str(exc)


def test_intake_equals_pathlib_reference(tmp_path, monkeypatch):
    rng = random.Random(2027)
    monkeypatch.chdir(tmp_path)
    kinds = set()
    for case in range(40):
        d = tmp_path / f"d{case}"
        d.mkdir()
        for name in rng.sample(_ODD_NAMES, 5) + [f"t{i}.trace" for i in range(4)]:
            (d / name).write_bytes(_random_file(rng))
        (d / "x.trace").mkdir()  # listed by the glob, unreadable as a trace
        (d / "e.trace").write_bytes(b"")
        other = tmp_path / f"o{case}.trace"
        other.write_bytes(_random_file(rng))
        spellings = [d.name, d.name + "/", f"./{d.name}", str(d), str(d) + "/", d]
        args = [rng.choice(spellings)]
        if rng.random() < 0.5:  # explicit files, as str and as Path
            args.append(rng.choice([str(other), other, other.name, f"./{other.name}"]))
        if rng.random() < 0.3:
            args.append(rng.choice([tmp_path / "missing.trace", "missing.trace"]))
        if rng.random() < 0.2:  # the directory twice: duplicate stems
            args.append(rng.choice(spellings))
        expected = _reference_collect(args)
        got = _collect(args)
        assert got == expected, args
        if isinstance(got, str):
            kinds.add("duplicate")
            continue
        assert all(type(path) is str for path in got)
        for path in got:
            want = _reference_load(Path(path))
            assert _load(path) == want, path
            assert _load(Path(path)) == want, path
            if isinstance(want, tuple):
                kinds.add(want[0].__name__)
            elif isinstance(want, str):
                kinds.add("UTF-8" if "not valid UTF-8" in want else "line")
            else:
                kinds.add("empty" if not want.steps else "steps")
        # "." lists the working directory, spelled without a "./"
        monkeypatch.chdir(d)
        assert _collect(["."]) == _reference_collect(["."]) == [
            str(Path(".") / p.name) for p in sorted(d.glob("*.trace"))]
        monkeypatch.chdir(tmp_path)
    # every kind of outcome was compared
    assert kinds == {"steps", "empty", "line", "UTF-8", "IsADirectoryError",
                     "FileNotFoundError", "duplicate"}


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "manifest.json"
    write_manifest(path, kind="xor4", n=3, seed=1)
    assert read_manifest(path) == {"kind": "xor4", "n": 3, "seed": 1}
