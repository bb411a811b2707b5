import pytest

from hypermon.errors import TraceFormatError
from hypermon.semantics import Trace
from hypermon.traceio import (
    collect_trace_paths,
    load_trace,
    parse_trace,
    print_trace,
    read_manifest,
    save_trace,
    write_manifest,
)


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


def test_collect_paths_expands_directories(tmp_path):
    (tmp_path / "b.trace").write_text("a\n")
    (tmp_path / "a.trace").write_text("a\n")
    (tmp_path / "manifest.json").write_text("{}")
    got = collect_trace_paths([tmp_path])
    assert [p.name for p in got] == ["a.trace", "b.trace"]


def test_collect_paths_rejects_duplicate_stems_unread(tmp_path):
    first, second = tmp_path / "d1" / "t.trace", tmp_path / "d2" / "t.trace"
    with pytest.raises(TraceFormatError) as info:
        collect_trace_paths([first, tmp_path / "u.trace", second])  # none exist
    assert str(info.value) == f"duplicate trace name 't': {first} and {second}"


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "manifest.json"
    write_manifest(path, kind="xor4", n=3, seed=1)
    assert read_manifest(path) == {"kind": "xor4", "n": 3, "seed": 1}
