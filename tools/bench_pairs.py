"""Alternating before/after runs of the benchmark, summarised in one JSON file.

    python3 tools/bench_pairs.py --base HEAD~1 --first-seed 9401 --out BENCH_9.json

Extracts the commit ``--base`` (with ``git archive``, so nothing is added to
the repository's git metadata) into a temporary directory, then for each
workload named in ``BENCHMARK.json`` runs ``bench/run.py`` for 30 seconds on
that commit ("base") and on this working tree ("change") in alternating pairs.
Pair i of every workload uses seed ``--first-seed`` + i on both sides, and the
order within a pair alternates, so that drift of the machine's speed falls on
both sides alike.  Only the standard library is used.

For every end-to-end metric the output holds both sides' per-run values,
medians and quartiles, the ratio of the medians (change / base), the number
of pairs in which the change was better, and the metric's ``bound`` from
``BENCHMARK.json`` with ``within_bound``: whether the change's median is
worse than the base's by no more than that fraction of it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 30


def extract(rev: str, dest: Path) -> str:
    """Write the files of commit rev under dest; return its full hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            cwd=ROOT, capture_output=True, text=True,
                            check=True).stdout.strip()
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                       stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        # the "data" filter where tarfile has it: 3.12 and 3.13 warn without a
        # filter and 3.14 changes the default; a 3.10 without one takes no argument
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    archive.unlink()
    return commit


def machine() -> dict:
    """The Python and the machine a measurement ran on."""
    return {"python": platform.python_version(), "system": platform.platform(),
            "processor": platform.processor() or platform.machine(), "cpus": os.cpu_count()}


def tree_state() -> dict:
    """This tree's HEAD commit and whether its tracked files differ from it."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True).stdout.strip()
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": git("status", "--porcelain", "--untracked-files=no") != ""}


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run in tree: the JSON object of its last output line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(base: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name = m["name"]
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        sign = 1 if m["better"] == "higher" else -1
        mb, mc = statistics.median(b), statistics.median(c)
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "base": summary(b),
            "change": summary(c),
            "ratio": mc / mb,
            "change_better_pairs": sum(sign * (y - x) > 0 for x, y in zip(b, c)),
            "bound": m["bound"],
            "within_bound": sign * (mc - mb) >= -m["bound"] * mb,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="commit to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, required=True,
                    help="pair i of every workload uses seed first-seed + i")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    result = {
        "command": "python3 bench/run.py --workload W --seed S "
                   f"--seconds {SECONDS} --trace 0",
        "machine": machine(),
        "pairs": args.pairs,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_tree = Path(tmp) / "base"
        result["base"] = extract(args.base, base_tree)
        for workload in workloads:
            runs = {"base": [], "change": []}
            seeds = [args.first_seed + i for i in range(args.pairs)]
            for i, seed in enumerate(seeds):
                order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
                for side in order:
                    tree = base_tree if side == "base" else ROOT
                    runs[side].append(run_once(tree, workload, seed))
                print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}) done",
                      file=sys.stderr)
            result["workloads"][workload] = {
                "seeds": seeds,
                "correct": all(r["correct"] for side in runs.values() for r in side),
                "failed_share": {side: [r["failed"] / r["attempted"] for r in rs]
                                 for side, rs in runs.items()},
                "metrics": compare(runs["base"], runs["change"], spec["end_to_end"]),
            }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
