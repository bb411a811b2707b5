"""hypermon benchmark: seeded circuit workloads through `hypermon monitor`.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repeat generates a seeded corpus, then makes one
``hypermon.cli.main(["monitor", ...])`` call on it in a fresh child process.
The corpus is replayed as a batch in a closed loop (the monitor takes the
next trace after it returns the verdict for the previous one), one process,
no threads.  Repeats run one at a time until ``--seconds`` is used up (at
least ``MIN_REPEATS``).  Each figure is a median over the repeats, or over
the per-trace latencies of all of them.  Every time is scaled to a reference
machine speed, probed by a fixed calibration task right before and after each
monitor run (see ``calibration_s``).

Every repeat is checked against a reference that does not come from the
monitor: clean workloads are clean by construction of their circuit, and
each counterexample on a violating workload must be rejected by
``semantics.eval_body`` on the generated traces.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced repeats and prints the per-layer metrics.  The last line of
standard output is one JSON object.
"""

import argparse
import gc
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import tracer
from workloads import ROOT, WORKLOADS, import_hypermon, percentile, write_inputs

HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench-work"
MIN_REPEATS = 3
CORPUS_STRIDE = 1000  # corpus seeds of one run: CORPUS_STRIDE * seed + repeat
RUN_BUDGET_S = 170.0  # a run must end within 180 s
# seconds calibration_s() takes on the machine the bounds were set on
# (2 shared cores, Python 3.11.7); times are reported at this speed
CALIBRATION_REF_S = 0.085

# layers measured by spans in the traced run (see child.install_spans), and
# whether their call count is reported (the others run once per monitor run
# or once per trace)
SPAN_LAYERS = (
    ("traceio.load_trace", True),
    ("engine.setup", False),
    ("template.build", False),
    ("spec_analysis.analyze", False),
    ("engine.process_trace", False),
    ("template.miss", True),
    ("template.materialize", True),
    ("template.rejecting_position", True),
    ("automata.minimize", True),
    ("automata.language_included", True),
    ("trace_analysis.dominates", True),
    ("semantics.eval_quantified", True),
)
COUNTS = (
    "template.step.calls",
    "template.states",
    "template.transitions",
    "spec_analysis.not_detected",
    "engine.instances_run",
    "engine.inclusion_checks",
    "engine.traces_stored",
    "engine.traces_dropped",
)


def reference_failures(workload, traces, result, report) -> int:
    """Traces of one repeat whose verdict fails the reference check.

    ``traces`` maps names to the generated traces; ``result`` is the child's
    record and ``report`` the monitor's JSON report (None if none was written).
    """
    from hypermon.semantics import eval_body

    expected_exit = 1 if workload.expect_violation else 0
    expected_verdict = "violation" if workload.expect_violation else "clean"
    if (
        result is None
        or result["exit_code"] != expected_exit
        or report is None
        or report["verdict"] != expected_verdict
    ):
        return workload.n
    body = workload.formula().body

    def rejected(assignment) -> bool:
        if not set(assignment.values()) <= traces.keys():
            return False
        return not eval_body({v: traces[t] for v, t in assignment.items()}, body)

    if workload.expect_violation and not rejected(report["counterexample"]):
        return workload.n
    failed = workload.n - len(result["latencies"])  # traces never checked
    for _, assignment in result["violations"]:
        if not (workload.expect_violation and rejected(assignment)):
            failed += 1
    return failed


def calibration_s() -> float:
    """Wall time of a fixed pure-Python task, a probe of the machine's speed.

    The task hashes, allocates and inserts into a dict, as the monitor does.
    The cyclic garbage collector is off meanwhile, so that the size of this
    process's heap does not enter into it.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        begin = perf_counter()
        table = {}
        for i in range(80000):
            table[frozenset((i, i >> 3, i & 7))] = (i, str(i))
        sorted(table.values(), key=lambda v: -v[0])
        return perf_counter() - begin
    finally:
        if collecting:
            gc.enable()


class Runner:
    """Runs the repeats of one workload; each repeat has its own corpus.

    Repeat i of a run with seed s monitors the corpus generated with seed
    ``CORPUS_STRIDE * s + i``, so a run averages over several corpora and the
    same seed always gives the same inputs.
    """

    def __init__(self, workload, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.corpora = 0
        self.monitor_runs = 0
        self.attempted = 0
        self.failed = 0
        self.calibrations = []

    def sample(self, with_traced: bool):
        """Generate the next corpus and monitor it untraced, then traced if asked.

        Returns (untraced result, traced result); a result is None when the
        child produced none.
        """
        directory = self.work / f"corpus{self.corpora}"
        directory.mkdir()
        inputs = write_inputs(
            self.workload, CORPUS_STRIDE * self.seed + self.corpora, directory
        )
        self.corpora += 1
        try:
            untraced = self._monitor(inputs, directory / "untraced", traced=False)
            traced = None
            if with_traced:
                traced = self._monitor(inputs, directory / "traced", traced=True)
        finally:
            shutil.rmtree(directory)
        return untraced, traced

    def _monitor(self, inputs, outdir: Path, traced: bool):
        spec, corpus, traces = inputs
        outdir.mkdir()
        self.monitor_runs += 1
        stderr_path = outdir / "stderr.txt"
        command = [
            sys.executable, str(HERE / "child.py"), self.workload.name,
            str(spec), str(corpus), str(outdir), "1" if traced else "0",
        ]
        before = calibration_s()
        with open(stderr_path, "wb") as stderr:
            try:
                proc = subprocess.run(
                    command, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=stderr,
                    timeout=max(1.0, self.deadline - perf_counter()),
                )
                ok = proc.returncode == 0
            except subprocess.TimeoutExpired:
                ok = False
        calibration = (before + calibration_s()) / 2
        self.calibrations.append(calibration)
        result = json.loads((outdir / "result.json").read_text(encoding="utf-8")) if ok else None
        report = None
        try:
            report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            pass  # no report, or not JSON: the reference check fails the run
        failed = reference_failures(self.workload, traces, result, report)
        self.attempted += self.workload.n
        self.failed += failed
        if failed:
            tail = stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"monitor run {self.monitor_runs}: {failed} traces failed the "
                  f"reference check\n{tail}", file=sys.stderr)
        if result is None or result["setup_s"] is None or not result["latencies"]:
            return None  # nothing to time
        result["scale"] = CALIBRATION_REF_S / calibration
        if traced:
            result["spans"] = tracer.self_times(outdir / "spans.bin")
        return result


def repeat(step, seconds: float, minimum: int):
    """Call ``step`` until ``seconds`` would be exceeded (at least ``minimum`` times)."""
    begin = perf_counter()
    out = []
    longest = 0.0
    while True:
        start = perf_counter()
        out.append(step())
        longest = max(longest, perf_counter() - start)
        if len(out) >= minimum and perf_counter() - begin + longest > seconds:
            return out


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def scaled_median(results, key):
    """Median over monitor runs of a time, each scaled to the reference speed."""
    return statistics.median(r[key] * r["scale"] for r in results)


def end_to_end(workload, results) -> dict:
    latencies_ms = [1e3 * t * r["scale"] for r in results for t in r["latencies"]]
    return {
        "verdict_s": (scaled_median(results, "verdict_s"), "s"),
        "setup_s": (scaled_median(results, "setup_s"), "s"),
        "trace_ms_p50": (statistics.median(latencies_ms), "ms"),
        "trace_ms_tail": (percentile(latencies_ms, workload.tail_percentile()), "ms"),
        "peak_rss_mb": (median_of(results, "peak_rss_mb"), "MB"),
    }


def per_layer(untraced, traced) -> dict:
    """Per-layer metrics, each the median over the traced monitor runs."""
    out = {}
    for name, report_calls in SPAN_LAYERS:
        spans = [r["spans"].get(name, (0, 0.0)) for r in traced]
        if report_calls:
            out[f"{name}.calls"] = (statistics.median(c for c, _ in spans), "count")
        out[f"{name}.s"] = (
            statistics.median(s * r["scale"] for (_, s), r in zip(spans, traced)), "s"
        )
    for name in COUNTS:
        out[name] = (statistics.median(r["counts"][name] for r in traced), "count")

    def hit_ratio(result):
        calls = result["spans"].get("trace_analysis.dominates", (0, 0.0))[0]
        return result["counts"]["trace_analysis.dominates.true"] / calls if calls else 0.0

    out["trace_analysis.dominates.hit_ratio"] = (
        statistics.median(hit_ratio(r) for r in traced), "ratio"
    )
    out["trace.verdict_s"] = (scaled_median(traced, "verdict_s"), "s")
    out["trace.overhead_ratio"] = (
        scaled_median(traced, "verdict_s") / scaled_median(untraced, "verdict_s"),
        "ratio",
    )
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload, seed: int, seconds: float, traced: bool):
    """Returns (metrics {name: (value, unit)}, the Runner with its tallies)."""
    deadline = perf_counter() + RUN_BUDGET_S
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        runner = Runner(workload, seed, work, deadline)
        samples = repeat(lambda: runner.sample(traced), seconds,
                         1 if traced else MIN_REPEATS)
        untraced = [u for u, _ in samples if u is not None]
        traced_results = [t for _, t in samples if t is not None]
        metrics = {}
        if traced and untraced and traced_results:
            metrics = per_layer(untraced, traced_results)
        elif not traced and untraced:
            metrics = end_to_end(workload, untraced)
        return metrics, runner
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it


def main(argv=None) -> int:
    args = parse_args(argv)
    import_hypermon()
    workload = WORKLOADS[args.workload]
    metrics, runner = run(workload, args.seed, args.seconds, bool(args.trace))
    if not metrics:
        print("perfbench: no monitor run produced a result", file=sys.stderr)
        return 1
    print(f"{workload.name} seed {args.seed}: {runner.corpora} corpora, "
          f"{runner.monitor_runs} monitor runs of {workload.n} traces")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  calibration = {statistics.median(runner.calibrations):.6g} s "
          f"(times above are scaled to {CALIBRATION_REF_S} s)")
    print(f"  failed_share = {runner.failed / runner.attempted:.6g} ratio")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
