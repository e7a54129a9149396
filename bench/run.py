"""costlens benchmark: one closed-loop caller, in process, no threads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is
imported from ``src/``. Workloads (see ``BENCHMARK.json`` for why each
was chosen):

* ``profile_sweep``: ``costlens profile <file> --format json`` through
  ``costlens.cli.main`` on builder references and random inline trees;
* ``deep_stack``: ``compute_profile`` on specs that execute thousands of
  layers;
* ``compare_sweep``: ``costlens compare --records <csv>`` on tie-heavy
  record sets.

A run repeats the workload's whole operation list until ``--seconds``
have passed, checks every output against references costlens did not
compute, and prints one JSON object as the last line of stdout. With
``--trace 0`` it reports the end-to-end metrics:

* ``setup_s``: median over fresh processes of the time to import
  ``costlens`` and ``costlens.cli`` and load every shipped hardware
  preset, interpreter start-up excluded. The processes run between
  passes, spread evenly over the run, so that set-up is timed under the
  same conditions as the operations rather than in one short spell;
* ``latency_p50_ms``, ``latency_p90_ms``: percentiles over the
  operation list of each operation's wall time, taken as the fastest of
  its samples across the run's passes. On a shared machine the other
  tenants only ever add time, in spells that cover from a few per cent
  to most of a run, so an operation's median sample moves with them by
  up to a third between runs while its fastest sample moves little;
* ``ops_per_s``: the operation count over the sum of those fastest
  times, that is one pass through the list in a closed loop, counting
  only time spent inside costlens (the caller's checking is excluded);
* ``peak_rss_mb``: ``ru_maxrss`` of this process.

``failed / attempted`` is the error ratio: operations that raised or
whose check failed, over operations attempted (including the check that
one fixed operation run twice prints identical bytes).

With ``--trace 1`` the run alternates untraced and traced passes and
reports the per-layer metrics of ``BENCHMARK.json``, per operation, from
the traced passes, plus ``trace.overhead_ratio`` (traced over untraced
``ops_per_s``). Spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh processes timed for ``setup_s`` (after one warm-up that may
#: write bytecode caches).
SETUP_RUNS = 25
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import costlens, costlens.cli
for name in costlens.preset_names():
    costlens.load_hardware(name)
print(time.perf_counter() - t0)
"""

#: Per-layer metric -> (field, spans summed). Fields: calls, self_ms, or
#: work (the count each span recorded, see WORK).
LAYER_METRICS = {
    "trace.execution_steps.calls": ("calls", ["trace.execution_steps"]),
    "trace.execution_steps.steps": ("work", ["trace.execution_steps"]),
    "trace.execution_steps.self_ms": ("self_ms", ["trace.execution_steps"]),
    "indicators.count_params.calls": ("calls", ["indicators.count_params"]),
    **{f"indicators.{f}.self_ms": ("self_ms", [f"indicators.{f}"])
       for f in ("count_params", "count_flops", "activation_size",
                 "memory_access_cost", "training_memory", "inference_memory")},
    "latency.estimate_latency.self_ms": ("self_ms", ["latency.estimate_latency"]),
    "latency.estimate_latency.per_layer_entries": ("work", ["latency.estimate_latency"]),
    "latency.load_hardware.calls": ("calls", ["latency.load_hardware"]),
    "latency.load_hardware.self_ms": ("self_ms", ["latency.load_hardware"]),
    "archspec.validate.calls": ("calls", ["archspec.validate"]),
    "archspec.validate.self_ms": ("self_ms", ["archspec.validate"]),
    "archspec.spec_from_dict.self_ms": ("self_ms", ["archspec.spec_from_dict"]),
    "archlib.build_from_reference.self_ms": ("self_ms", ["archlib.build_from_reference"]),
    "profiles.compute_profile.self_ms": ("self_ms", ["profiles.compute_profile"]),
    "footprint.self_ms": ("self_ms", ["footprint.carbon_footprint", "footprint.monetary_cost"]),
    "analysis.rank_disagreement.calls": ("calls", ["analysis.rank_disagreement"]),
    "analysis.rank_disagreement.self_ms": ("self_ms", ["analysis.rank_disagreement"]),
    "analysis.rank_disagreement.pairs_listed": ("work", ["analysis.rank_disagreement"]),
    "analysis.pareto_frontier.self_ms": ("self_ms", ["analysis.pareto_frontier"]),
    "analysis.misnomer_report.self_ms": ("self_ms", ["analysis.misnomer_report"]),
    "cli.build_parser.self_ms": ("self_ms", ["cli.build_parser"]),
    "cli.load_spec_file.self_ms": ("self_ms", ["cli.load_spec_file"]),
    "cli.read_records_csv.self_ms": ("self_ms", ["cli.read_records_csv"]),
    "cli.main.self_ms": ("self_ms", ["cli.main"]),
}
TRACED = sorted({span for _, spans in LAYER_METRICS.values() for span in spans})
WORK = {
    "trace.execution_steps": len,
    "latency.estimate_latency": lambda r: len(r.per_layer),
    "analysis.rank_disagreement": lambda r: len(r.inverted_pairs),
}


def use_source() -> None:
    """Import costlens from this checkout's ``src``; raise if absent."""
    if not (SRC / "costlens" / "__init__.py").is_file():
        raise FileNotFoundError(f"no costlens source under {SRC}")
    sys.path.insert(0, str(SRC))
    import costlens.cli  # noqa: F401


def time_setup() -> float:
    """Set-up time of one fresh process."""
    # -I ignores PYTHON* variables, so bytecode caches are always used
    # (and written by the warm-up) whatever the caller's environment.
    proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout)


@dataclass
class Tally:
    samples_ns: dict[int, list[int]] = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    stdout_bytes: int = 0
    setup_s: list[float] = field(default_factory=list)
    #: Every distinct failure line, with how many times it occurred.
    failures: Counter[str] = field(default_factory=Counter)

    def fail(self, label: str, reasons: list[str]) -> None:
        self.failed += 1
        self.failures[f"{label}: {'; '.join(reasons)}"] += 1

    @property
    def timed(self) -> int:
        return sum(map(len, self.samples_ns.values()))

    def op_best_ms(self) -> list[float]:
        return sorted(min(v) / 1e6 for v in self.samples_ns.values())

    @property
    def ops_per_s(self) -> float:
        best = self.op_best_ms()
        return len(best) / (sum(best) / 1e3)


def run_pass(ops, tally: Tally, tracer=None) -> None:
    for index, op in enumerate(ops):
        run_op(op, index, tally, tracer)


def run_op(op, index: int, tally: Tally, tracer=None) -> None:
    """Time one call, then check and measure its output untimed."""
    if tracer is not None:
        tracer.op = tally.attempted
    start = time.perf_counter_ns()
    try:
        out = op.call()
    except Exception as exc:  # a failed operation is counted, not fatal
        out = exc
    tally.samples_ns[index].append(time.perf_counter_ns() - start)
    tally.attempted += 1
    if isinstance(out, Exception):
        tally.fail(op.label, [f"raised {type(out).__name__}: {out}"])
        return
    try:
        reasons = op.check(out)
    except Exception as exc:  # output too malformed for the check: a failure
        reasons = [f"output check raised {type(exc).__name__}: {exc}"]
    if reasons:
        tally.fail(op.label, reasons)
    stdout = getattr(out, "stdout", "")     # only CLI operations print
    tally.stdout_bytes += len(stdout) if stdout.isascii() else len(stdout.encode())


def check_deterministic(ops, tally: Tally) -> None:
    """Acceptance criterion 12: the first operation twice, same bytes."""
    op = ops[0]
    tally.attempted += 1
    try:
        first, second = op.render(op.call()), op.render(op.call())
    except Exception as exc:  # counted as a failed check
        tally.fail(f"determinism {op.label}", [f"raised {type(exc).__name__}: {exc}"])
        return
    if first != second:
        tally.fail(f"determinism {op.label}", ["two runs printed different bytes"])


def timed_run(ops, seconds: float, setup_runs: int = 0) -> Tally:
    """Repeat whole passes for ``seconds``; after each pass, time as many
    set-up processes as are due for ``setup_runs`` spread over the run."""
    tally = Tally()
    check_deterministic(ops, tally)
    start = time.perf_counter()
    while True:
        run_pass(ops, tally)
        elapsed = time.perf_counter() - start
        done = elapsed >= seconds
        due = setup_runs if done else int(setup_runs * elapsed / seconds)
        while len(tally.setup_s) < due:
            tally.setup_s.append(time_setup())
        if done:
            return tally


def traced_run(ops, seconds: float, tracer) -> tuple[Tally, Tally]:
    """Alternate whole untraced and traced passes; return both tallies."""
    plain, traced = Tally(), Tally()
    check_deterministic(ops, plain)
    deadline = time.perf_counter() + seconds
    while True:
        run_pass(ops, plain)
        with tracer:
            run_pass(ops, traced, tracer)
        if time.perf_counter() >= deadline:
            return plain, traced


def layer_metrics(tracer, plain: Tally, traced: Tally) -> dict:
    totals = tracer.totals()
    ops = traced.attempted
    metrics = {}
    for name, (kind, spans) in LAYER_METRICS.items():
        if kind == "self_ms":
            value, unit = sum(totals[s].self_ns for s in spans) / 1e6 / ops, "ms"
        else:
            value, unit = sum(getattr(totals[s], kind) for s in spans) / ops, "count"
        metrics[name] = {"value": value, "unit": unit}
    metrics["cli.stdout_bytes"] = {"value": traced.stdout_bytes / ops, "unit": "bytes"}
    metrics["trace.overhead_ratio"] = {"value": traced.ops_per_s / plain.ops_per_s,
                                       "unit": "ratio"}
    return metrics


def end_to_end_metrics(tally: Tally) -> dict:
    lat = tally.op_best_ms()
    return {
        "setup_s": {"value": statistics.median(tally.setup_s), "unit": "s"},
        "ops_per_s": {"value": tally.ops_per_s, "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
        "latency_p90_ms": {"value": statistics.quantiles(lat, n=10)[-1], "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["profile_sweep", "deep_stack", "compare_sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        use_source()
    except (FileNotFoundError, ImportError) as exc:
        print(f"bench: cannot import costlens: {exc}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        try:
            if not args.trace:
                time_setup()        # warm-up, may write bytecode caches
            ops = WORKLOADS[args.workload](args.seed, Path(tmp))
            tally = None if args.trace else timed_run(ops, args.seconds, SETUP_RUNS)
        except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
            print(f"bench: set-up failed: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            tracer = Tracer(TRACED, WORK)
            plain, tally = traced_run(ops, args.seconds, tracer)
            metrics = layer_metrics(tracer, plain, tally)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            tally.attempted += plain.attempted
            tally.failed += plain.failed
            tally.failures += plain.failures
        else:
            metrics = end_to_end_metrics(tally)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {tally.timed} timed "
          f"samples of {len(ops)} ops, error ratio {tally.failed}/{tally.attempted}"
          + (f", spans in {spans_path.relative_to(ROOT)}" if args.trace else ""))
    for line, times in tally.failures.items():
        print(f"FAIL {line}" + (f" ({times} times)" if times > 1 else ""))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
