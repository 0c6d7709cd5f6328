"""In-process A/B of the ``batch`` command: a base commit against this working tree.

    python3 tools/ab_inprocess.py --base HEAD~1 --workload batch large_disc large_p \\
        --seed 23 --rounds 6 --passes 10

Extracts the commit ``--base`` with ``bench_pairs.extract`` and imports its
``src/dihedral_parity`` and this tree's under two package names in one
process, then each of them a second time: the base as an A/A control, the
change as a C/C control.  The sides are imported in the order base, change,
A/A, C/C, so each control runs the code of its side from a later import.
For each workload in turn, the rounds ``0 .. --rounds - 1`` of
``bench/workloads.round_jobs`` are written to files once, as ``bench/run.py``
writes them.  Each pass runs every side over all of them through
``cli.main(["batch", csv, config, "--jobs", "1"])``, in an order that cycles
through the 24 orders of the four sides from pass to pass, so that over 24
passes each side runs in each position, and follows each other side,
equally often, and the machine's drift falls on each side alike.
Only the standard library is used.

Exits 1 if in any pass the output or exit code of a side differs from the
base's.  Otherwise it prints one JSON line: the command line, this tree's
``HEAD`` (``commit``) and whether its tracked files differ from it
(``dirty``), the machine (as ``tools/bench_pairs.py`` records it), the base
commit, and an
object keyed by workload, each value holding each side's seconds per pass,
and the median and quartiles over the passes of four ratios: change/base,
A/A (the second import of the base over the first), C/C (the second import
of the change over the first) and the second import of the change over the
base (``cc_over_base``, change/base from the later import), each on two
clocks: ``wall`` (``time.perf_counter``) and ``cpu`` (``time.thread_time``,
this thread's CPU time alone).  A change whose change/base quartiles do not
lie outside both the A/A and the C/C quartiles is not resolved.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter, thread_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402

SIDES = ("base", "change", "aa", "cc")  # in the order they are imported
ORDERS = tuple(itertools.permutations(SIDES))  # a pass's order of the sides
CLOCKS = ("wall", "cpu")  # perf_counter and thread_time
_IMPORTS = itertools.count()  # each import of a package takes a name of its own


def import_cli(name: str, src: Path):
    """The ``cli`` module of the package under src, imported as package name."""
    init = src / "dihedral_parity" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def write_rounds(workload: str, seed: int, rounds: int, workdir: Path) -> list[tuple[str, str]]:
    """The (csv, config) files of every job of the rounds, as bench/run.py writes them."""
    writer = bench_run.Bench(None, workdir)
    return [writer.write_job(job, f"r{i}j{j}") for i in range(rounds)
            for j, job in enumerate(workloads.round_jobs(workload, seed, i))]


def run_side(cli, files: list[tuple[str, str]]) -> tuple[tuple[float, float], list[str]]:
    """Wall and CPU seconds spent in cli.main over the files, and a digest of
    each call's exit code and output."""
    wall = cpu = 0.0
    digests = []
    gc.collect()
    for curves, config in files:
        buf = io.StringIO()
        w0, c0 = perf_counter(), thread_time()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["batch", curves, config, "--jobs", "1"])
        cpu += thread_time() - c0
        wall += perf_counter() - w0
        digests.append(hashlib.sha256(f"{code}\n{buf.getvalue()}".encode()).hexdigest())
    return (wall, cpu), digests


def compare(clis: dict, workload: str, seed: int, rounds: int, passes: int,
            workdir: Path) -> dict | None:
    """The summary of passes of each side's cli over the rounds, or None if
    any output differs."""
    files = write_rounds(workload, seed, rounds, workdir)
    seconds = {clock: {side: [] for side in SIDES} for clock in CLOCKS}
    for i in range(passes):
        digests = {}
        for side in ORDERS[i % len(ORDERS)]:
            spent, digests[side] = run_side(clis[side], files)
            for clock, s in zip(CLOCKS, spent):
                seconds[clock][side].append(s)
        for side in SIDES[1:]:
            if digests[side] != digests["base"]:
                job = next(j for j, (a, b) in enumerate(zip(digests["base"], digests[side]))
                           if a != b)
                print(f"{workload} pass {i}: {side} differs from base at {files[job][0]}",
                      file=sys.stderr)
                return None

    def over(side: str, reference: str) -> dict:
        return {clock: bench_pairs.summary([s / r for r, s in zip(by_side[reference],
                                                                    by_side[side])])
                for clock, by_side in seconds.items()}

    return {
        "workload": workload, "seed": seed, "rounds": rounds, "passes": passes,
        "calls_per_pass": len(files),
        "seconds": seconds,
        "change_over_base": over("change", "base"),
        "aa_over_base": over("aa", "base"),
        "cc_over_change": over("cc", "change"),
        "cc_over_base": over("cc", "base"),
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="commit to compare against")
    ap.add_argument("--workload", required=True, nargs="+", choices=sorted(workloads.ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.passes < 2:
        ap.error("--rounds must be at least 1 and --passes at least 2 (for quartiles)")
    with tempfile.TemporaryDirectory(prefix="ab-inprocess-") as tmp:
        base_tree = Path(tmp) / "base"
        results = {"command": ["python3", "tools/ab_inprocess.py", *argv],
                   **bench_pairs.tree_state(), "machine": bench_pairs.machine(),
                   "base": bench_pairs.extract(args.base, base_tree), "workloads": {}}
        clis = {side: import_cli(f"ab{next(_IMPORTS)}_{side}", src)
                for side, src in zip(SIDES, (base_tree / "src", ROOT / "src") * 2)}
        for workload in dict.fromkeys(args.workload):
            work = Path(tmp) / workload
            work.mkdir()
            result = compare(clis, workload, args.seed, args.rounds, args.passes, work)
            if result is None:
                return 1
            results["workloads"][workload] = result
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
