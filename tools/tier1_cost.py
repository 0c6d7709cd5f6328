"""Tier-1 cost: the CPU seconds the Tier-1 test command takes, three times over.

    python3 tools/tier1_cost.py

Runs the Tier-1 command of ``ROADMAP.md``,

    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors

with ``--durations=20`` added, from the root of this tree in a child process,
three times in turn.  For each run it records the CPU seconds the child and
the processes it waited for used (user plus system, the change in
``resource.getrusage(RUSAGE_CHILDREN)`` across the run), the wall seconds, the
exit code and the counts of pytest's summary line.  It prints one JSON line:
those runs, the median CPU and wall seconds, the 20 slowest test phases of
the last run, the commit (``git rev-parse HEAD``, and whether tracked files
differ from it) and the Python version.  Exits 1 if a run fails, else 0.
Only the standard library is used.
"""

from __future__ import annotations

import json
import os
import platform
import re
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402

RUNS = 3
SLOWEST = 20
COMMAND = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           f"--durations={SLOWEST}"]

# "1.68s call     tests/test_tower.py::test_validate" under the durations header
_DURATION = re.compile(r"^(\d+(?:\.\d+)?)s\s+(setup|call|teardown)\s+(\S.*?)\s*$")
# "2 failed, 883 passed, 1 error in 19.73s", with or without "=" around it
_SUMMARY = re.compile(r"^=*\s*((?:\d+ \w+(?:, )?)+) in \d+(?:\.\d+)?s")


def parse_durations(text: str) -> list[dict]:
    """The test phases pytest's ``--durations`` section lists, slowest first."""
    lines = text.splitlines()
    start = next((i for i, line in enumerate(lines) if "slowest" in line and "durations" in line),
                 len(lines))
    found = []
    for line in lines[start + 1:]:
        m = _DURATION.match(line)
        if m is None:
            break
        found.append({"seconds": float(m[1]), "phase": m[2], "test": m[3]})
    return found


def parse_counts(text: str) -> dict[str, int]:
    """The counts of pytest's last summary line, keyed by outcome: passed, failed, ..."""
    for line in reversed(text.splitlines()):
        m = _SUMMARY.match(line.strip())
        if m is not None:
            return {word: int(n) for n, word in (part.split() for part in m[1].split(", "))}
    return {}


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once() -> tuple[dict, str]:
    """One Tier-1 run's figures, and its output."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": "src" + (f":{path}" if path else "")}
    cpu, wall = _children_cpu_s(), perf_counter()
    proc = subprocess.run(COMMAND, cwd=ROOT, env=env, capture_output=True, text=True)
    wall, cpu = perf_counter() - wall, _children_cpu_s() - cpu
    return {"cpu_s": round(cpu, 3), "wall_s": round(wall, 3), "returncode": proc.returncode,
            "counts": parse_counts(proc.stdout)}, proc.stdout


def main() -> int:
    runs, out = [], ""
    for _ in range(RUNS):
        figures, out = run_once()
        runs.append(figures)
    print(json.dumps({
        **bench_pairs.tree_state(),
        "python": platform.python_version(),
        "command": ["python", *COMMAND[1:]],
        "runs": runs,
        "cpu_s_median": median(r["cpu_s"] for r in runs),
        "wall_s_median": median(r["wall_s"] for r in runs),
        "slowest": parse_durations(out),
    }))
    return 0 if all(r["returncode"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
