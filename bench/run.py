"""Benchmark of the dihedral-parity ``batch`` command.

    python3 bench/run.py --workload batch --seed 1 --seconds 30 --trace 0

Runs whole rounds of a workload (see ``workloads.py``) for ``--seconds``
seconds. Each round writes one tower config and one curve CSV per job and
calls ``dihedral_parity.cli.main(["batch", csv, config, "--jobs", "1"])``
in this process and thread, with standard output captured. Every report is
checked (``checks.py``). The last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every round
twice, untraced and then traced on the same files, and prints the
per-layer metrics of ``tracing.py`` with the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, perf_counter_ns

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_ANALYSES = 100      # so that at least ten samples lie beyond the p90
MAX_SECONDS = 120       # stop waiting for MIN_ANALYSES after this long
SETUP_STARTS = 40       # fresh interpreters per run; setup_s is their median
STARTS_PER_ROUND = 2    # taken after each round until SETUP_STARTS are done

_IMPORT_TIMER = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import dihedral_parity.cli
print(time.perf_counter() - t)
"""


def fresh_import_s() -> float:
    """Time for a fresh interpreter to import dihedral_parity.cli."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


@contextlib.contextmanager
def timed_analyze(cli, samples: list[int]):
    """Time each analyze call the batch command makes; a call that raises is
    a failed analysis and is not timed."""
    original = cli.analyze

    def timed(*args, **kwargs):
        t0 = perf_counter_ns()
        result = original(*args, **kwargs)
        samples.append(perf_counter_ns() - t0)
        return result

    cli.analyze = timed
    try:
        yield
    finally:
        cli.analyze = original


class Pass:
    """Totals of one way of running the rounds (untraced or traced)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.batch_ns = 0
        self.latencies_ns: list[int] = []

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def analyses_per_s(self) -> float:
        return self.completed / (self.batch_ns / 1e9)


class Bench:
    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.workdir = workdir
        self.frobenius = checks.FrobeniusReference()
        self.problems: list[str] = []
        self.errors_seen: set[str] = set()

    def write_job(self, job: workloads.Job, name: str) -> tuple[str, str]:
        config = self.workdir / f"{name}.json"
        curves = self.workdir / f"{name}.csv"
        config.write_text(json.dumps(job.tower), encoding="utf-8")
        with open(curves, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["label", "a1", "a2", "a3", "a4", "a6"])
            w.writerows([f"{name}c{i}", *a] for i, a in enumerate(job.curves))
        return str(curves), str(config)

    def run_round(self, files, jobs, totals: Pass) -> None:
        """Run the batch command once per job and check its reports before the
        next call, so that only one captured output is held at a time."""
        with timed_analyze(self.cli, totals.latencies_ns):
            for (curves, config), job in zip(files, jobs):
                buf = io.StringIO()
                t0 = perf_counter_ns()
                with contextlib.redirect_stdout(buf):
                    code = self.cli.main(["batch", curves, config, "--jobs", "1"])
                totals.batch_ns += perf_counter_ns() - t0
                self.check_batch(job, code, buf.getvalue(), totals)

    def check_batch(self, job: workloads.Job, code: int, text: str, totals: Pass) -> None:
        totals.attempted += len(job.curves)
        if code not in (0, 3):
            totals.failed += len(job.curves)
            self.problems.append(f"batch exited {code}: {text.strip()[:200]}")
            return
        reports = json.loads(text)["reports"]
        if len(reports) != len(job.curves):
            self.problems.append(f"{len(reports)} reports for {len(job.curves)} curves")
        frobenius = self.frobenius if job.check_frobenius else None
        for curve, rep in zip(job.curves, reports):
            if "error" in rep:
                totals.failed += 1
                message = rep["error"]
                if job.expected_error is None or job.expected_error not in message:
                    self.problems.append(f"{rep['label']}: analysis failed: {message}")
                elif message not in self.errors_seen:
                    self.errors_seen.add(message)
                    print(f"failed analysis {rep['label']}: {message}", file=sys.stderr)
                continue
            self.problems += checks.check_report(rep, curve, job.tower, frobenius)


def percentiles_ms(samples_ns: list[int]) -> tuple[float, float]:
    deciles = statistics.quantiles(samples_ns, n=10)
    return statistics.median(samples_ns) / 1e6, deciles[-1] / 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dihedral_parity" / "cli.py").is_file():
        sys.exit(f"no dihedral_parity sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from dihedral_parity import cli

    # The machine's speed drifts within seconds, so the fresh starts are spread
    # over the run, a few after each round; a first start writes the bytecode
    # caches and is not counted.
    setup_times: list[float] = []
    if not args.trace:
        fresh_import_s()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        bench = Bench(cli, workdir)
        plain, traced = Pass(), Pass()
        tracer = tracing.LayerTracer()
        round0_calls = round0_attempted = None
        start = perf_counter()
        index = 0
        while True:
            elapsed = perf_counter() - start
            if index and elapsed >= args.seconds and (
                    plain.completed >= MIN_ANALYSES or elapsed >= MAX_SECONDS):
                break
            jobs = workloads.round_jobs(args.workload, args.seed, index)
            files = [bench.write_job(job, f"r{index}j{j}") for j, job in enumerate(jobs)]
            bench.run_round(files, jobs, plain)
            if args.trace:
                with tracer.installed():
                    bench.run_round(files, jobs, traced)
                if index == 0:
                    round0_calls, round0_attempted = dict(tracer.calls), traced.attempted
            else:
                for _ in range(min(STARTS_PER_ROUND, SETUP_STARTS - len(setup_times))):
                    setup_times.append(fresh_import_s())
            index += 1
        while not args.trace and len(setup_times) < SETUP_STARTS:
            setup_times.append(fresh_import_s())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in bench.problems[:20]:
        print("check failed:", problem, file=sys.stderr)
    if plain.completed < MIN_ANALYSES:
        sys.exit(f"only {plain.completed} analyses completed; a p90 needs {MIN_ANALYSES}")

    if args.trace:
        totals = traced
        metrics = {"tracing_overhead": (plain.analyses_per_s() / traced.analyses_per_s(), "ratio")}
        for name in tracing.LAYER_NAMES:
            metrics[f"{name}.calls"] = (round0_calls.get(name, 0) / round0_attempted,
                                        "calls/analysis")
            metrics[f"{name}.self_ms"] = (tracer.self_ns[name] / traced.attempted / 1e6,
                                          "ms/analysis")
    else:
        totals = plain
        p50, p90 = percentiles_ms(plain.latencies_ns)
        metrics = {
            "analyses_per_s": (plain.analyses_per_s(), "1/s"),
            "latency_p50_ms": (p50, "ms"),
            "latency_p90_ms": (p90, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    print(f"{args.workload} seed {args.seed}: {index} rounds, {totals.attempted} analyses, "
          f"{totals.failed} failed, {len(bench.problems)} check failures", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
