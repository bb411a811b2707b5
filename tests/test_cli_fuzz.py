"""Seeded fuzzing of the command line.

Whatever the input, ``cli.main`` returns 0, 1, 2 or 3 and raises nothing.
Exit 1 comes only with a violation report and exit 0 only with a clean one;
exits 2 and 3 end stderr with their one ``error:`` or ``resource limit:``
line and print nothing on stdout.  The inputs,
all drawn from fixed seeds, are specs nested around ``MAX_DEPTH``, wide
specs, mutated spec texts (truncations, byte flips, invalid UTF-8 and the
like) and mutated trace files.  A long ``<->`` chain, whose residuals blow
up, runs once in a fresh process under a 1 GB address-space limit.
"""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hypermon
from hypermon.cli import main
from hypermon.parser import MAX_DEPTH

CASES = 60  # inputs per kind

PROPS = ("a", "b", "i", "o", "overflow", "decr")
OPTIONS = (
    [],
    ["--no-trace-analysis"],
    ["--no-spec-analysis"],
    ["--no-spec-analysis", "--no-trace-analysis"],
    ["--continue-after-violation"],
    ["--state-limit", "3"],
)
PREFIXES = ("forall p.", "exists p.", "forall p. exists q.", "exists p. forall q.",
            "forall p. forall q.")

# (text around an operand, the levels it opens); each result is a unary
# operand again, so the levels of nested templates add up
NEST = (
    ("({})", 1), ("!{}", 1), ("X {}", 1), ("G {}", 1), ("F {}", 1),
    ("a@p U {}", 1), ("b@p W {}", 1), ("a@p R {}", 1),
    ("(b@p -> {})", 2), ("(a@p <-> {})", 2), ("(b@p ^ {})", 2),
    ("(a@p | {})", 1), ("({} & b@p)", 1),
)

SPECS = (
    "forall p. forall q. G (a@p <-> a@q)\n",
    "forall p. forall q. (o@p <-> o@q) W !(i@p <-> i@q)\n",
    "forall p. forall q. (overflow@p <-> overflow@q) W !(decr@p <-> decr@q)\n",
    "forall p. exists q. G (a@p -> F b@q)\n",
    "exists p. forall q. (a@p ^ b@q) | X (a@q U b@p)\n",
    "# every operator\nforall p. forall q. (a@p ^ b@q) -> X (a@p U b@q) | F !a@q & "
    "(true W false) & (b@p R a@q)\n",
)
INVALID_UTF8 = (b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80", b"\x80abc")
STRUCTURE = b"()@.!&|^<->#{},\n\r\t XGFUWRpq01_\x00"
# tokens that can stand in for each other, so that a swap often still parses
TOKENS = (
    (b" <-> ", b" -> ", b" ^ ", b" | ", b" & ", b" U ", b" W ", b" R "),
    (b"X ", b"G ", b"F ", b"!"),
    (b"forall", b"exists"),
    (b"@p", b"@q"),
    (b"true", b"false"),
)


def deep_body(rng, levels):
    """A unary body nested exactly ``levels`` levels deep."""
    body, depth = rng.choice(("a@p", "b@p", "true")), 0
    while depth < levels:
        text, opens = rng.choice(NEST)
        if depth + opens <= levels:
            body, depth = text.format(body), depth + opens
    return body


def wide_spec(rng):
    """Many equivalences over many propositions, and many variables."""
    variables = [f"v{k}" for k in range(rng.randint(2, 4))]
    terms = [
        f"(w{k}@{rng.choice(variables)} <-> w{k}@{rng.choice(variables)})"
        for k in range(rng.randint(6, 24))
    ]
    body = "(" + f" {rng.choice('&|')} ".join(terms) + ")"
    body = rng.choice(("G {}", "{} W !(w0@v0 <-> w0@v1)", "X {}", "{}")).format(body)
    prefix = " ".join(f"{rng.choice(('forall', 'forall', 'exists'))} {v}." for v in variables)
    return f"{prefix} {body}\n"


def mutate(rng, data: bytes) -> bytes:
    """``data`` after one to three seeded edits, half of them token swaps."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(data) + 1)
        edit = rng.randrange(12)
        if edit > 5:
            old, new = rng.sample(rng.choice(TOKENS), 2)
            spots = [m.start() for m in re.finditer(re.escape(old), data)]
            if spots:
                at = rng.choice(spots)
                data = data[:at] + new + data[at + len(old):]
        elif edit == 0:
            data = data[:at]
        elif edit == 1 and at < len(data):
            data = data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1:]
        elif edit == 2:
            data = data[:at] + rng.choice(INVALID_UTF8) + data[at:]
        elif edit == 3:
            data = data[:at] + data[at + rng.randint(1, 8):]
        elif edit == 4:
            data = data[:at] + data[at:at + rng.randint(1, 12)] * 2 + data[at:]
        else:
            data = data[:at] + bytes([rng.choice(STRUCTURE)]) + data[at:]
    return data


def trace_text(rng) -> str:
    steps = [",".join(rng.sample(PROPS, rng.randint(0, 3))) or "{}"
             for _ in range(rng.randint(0, 4))]
    return "".join(step + "\n" for step in steps)


def write_traces(rng, tmp_path, count=3):
    paths = []
    for k in range(count):
        path = tmp_path / f"t{k}.trace"
        path.write_text(trace_text(rng), encoding="utf-8")
        paths.append(str(path))
    return paths


def run(capsys, argv, case):
    """``main(argv)`` with the exit-code contract checked; the exit code."""
    try:
        code = main(argv)
    except (Exception, SystemExit) as exc:
        pytest.fail(f"{case}: {exc!r} escaped main")
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), (case, code)
    assert "Traceback" not in err, (case, err)
    if code in (2, 3):
        # warnings about the traces may come first
        prefix = "error: " if code == 2 else "resource limit: "
        assert err.endswith("\n") and err.splitlines()[-1].startswith(prefix), (case, err)
        assert sum(line.startswith(("error: ", "resource limit: "))
                   for line in err.splitlines()) == 1, (case, err)
        assert out == "", case
    elif argv[0] == "monitor":
        if "--stats-format" in argv:
            verdict = json.loads(out)["verdict"]
        else:
            verdict = re.search(r"^verdict: (\w+)", out, re.MULTILINE).group(1)
        assert verdict == ("violation" if code == 1 else "clean"), (case, out)
    return code


def monitor(capsys, rng, spec, traces, case, options=None):
    if options is None:
        options = rng.choice(OPTIONS)
    if rng.random() < 0.3:
        options = [*options, "--stats-format", "json"]
    return run(capsys, ["monitor", spec, *traces, *options], case)


def test_deep_specs_around_the_limit(tmp_path, capsys):
    rng = random.Random(1)
    traces = write_traces(rng, tmp_path)
    spec = tmp_path / "deep.hm"
    for case in range(CASES):
        levels = MAX_DEPTH + rng.choice((-1, 0, 1))
        prefix = rng.choice(PREFIXES)
        spec.write_text(f"{prefix} {deep_body(rng, levels)}\n", encoding="utf-8")
        code = monitor(capsys, rng, str(spec), traces, case)
        if levels > MAX_DEPTH:
            assert code == 2, case
        else:
            assert code in (0, 1, 3), case


def test_wide_specs(tmp_path, capsys):
    rng = random.Random(2)
    spec = tmp_path / "wide.hm"
    for case in range(CASES):
        text = wide_spec(rng)
        spec.write_text(text, encoding="utf-8")
        traces = []
        for k in range(3):
            path = tmp_path / f"t{k}.trace"
            steps = [",".join(f"w{j}" for j in range(24) if rng.random() < 0.5) or "{}"
                     for _ in range(rng.randint(0, 4))]
            path.write_text("".join(s + "\n" for s in steps), encoding="utf-8")
            traces.append(str(path))
        monitor(capsys, rng, str(spec), traces, (case, text))


def test_mutated_specs(tmp_path, capsys):
    rng = random.Random(3)
    spec = tmp_path / "mutated.hm"
    for case in range(CASES):
        data = mutate(rng, rng.choice(SPECS).encode())
        spec.write_bytes(data)
        command = rng.choice(("monitor", "monitor", "analyze", "template"))
        if command == "monitor":
            monitor(capsys, rng, str(spec), write_traces(rng, tmp_path), (case, data))
        else:
            run(capsys, [command, str(spec)], (case, data))


def test_mutated_traces(tmp_path, capsys):
    rng = random.Random(4)
    spec = tmp_path / "spec.hm"
    for case in range(CASES):
        spec.write_text(rng.choice(SPECS), encoding="utf-8")
        traces = write_traces(rng, tmp_path)
        bad = Path(rng.choice(traces))
        data = mutate(rng, bad.read_bytes() or trace_text(rng).encode())
        bad.write_bytes(data)
        monitor(capsys, rng, str(spec), traces, (case, data))


def test_iff_chain_hits_the_term_cap_in_bounded_memory(tmp_path):
    """Desugaring ``<->`` shares both operands, so a chain of 41 doubles
    its residual per operand: it must stop at the term cap with exit 3, not
    run out of memory."""
    chain = " <-> ".join(f"a{k}@p" for k in range(41))
    spec = tmp_path / "chain.hm"
    spec.write_text(f"forall p. {chain}\n", encoding="utf-8")
    traces = []
    for k in range(2):
        traces.append(tmp_path / f"t{k}.trace")
        traces[-1].write_text(f"a{k}\n", encoding="utf-8")

    def limit_memory():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(hypermon.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "hypermon.cli", "monitor", str(spec), *map(str, traces)],
        env={**os.environ, "PYTHONPATH": src}, preexec_fn=limit_memory,
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert proc.stderr.startswith("resource limit: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""
