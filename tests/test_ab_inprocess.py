import importlib.util
import json
import shutil
from collections import Counter
from itertools import pairwise, permutations, product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_inprocess", ROOT / "tools" / "ab_inprocess.py")
ab_inprocess = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_inprocess)

ARGV = ["--base", "BASE", "--workload", "batch", "--seed", "1", "--rounds", "1", "--passes", "2"]


def _extract_as(monkeypatch, edit=None):
    """Make the tool's base this tree's sources, edited by edit(parity.py text)."""
    def extract(rev, dest):
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
        if edit is not None:
            parity = dest / "src" / "dihedral_parity" / "parity.py"
            parity.write_text(edit(parity.read_text(encoding="utf-8")), encoding="utf-8")
        return "0" * 40
    monkeypatch.setattr(ab_inprocess.bench_pairs, "extract", extract)


def test_the_summary_holds_each_pass_and_its_quartiles(monkeypatch, capsys):
    _extract_as(monkeypatch)
    assert ab_inprocess.main(ARGV) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    line = json.loads(out)
    assert list(line) == ["command", "commit", "dirty", "machine", "base", "workloads"]
    assert line["command"] == ["python3", "tools/ab_inprocess.py", *ARGV]
    assert {"commit": line["commit"], "dirty": line["dirty"]} == \
        ab_inprocess.bench_pairs.tree_state()
    assert line["base"] == "0" * 40
    assert line["machine"] == ab_inprocess.bench_pairs.machine()
    assert set(line["machine"]) == {"python", "system", "processor", "cpus"}
    results = line["workloads"]
    assert list(results) == ["batch"]
    result = results["batch"]
    assert (result["workload"], result["passes"]) == ("batch", 2)
    assert result["calls_per_pass"] == 4  # one batch call per tower of the round
    seconds = result["seconds"]
    assert set(seconds) == {"wall", "cpu"}
    for side in ab_inprocess.SIDES:
        assert len(seconds["wall"][side]) == len(seconds["cpu"][side]) == 2
        # one thread's CPU time is never more than the wall time it ran in
        assert all(0 < c <= w for w, c in zip(seconds["wall"][side], seconds["cpu"][side]))
    for key, clock in product(("change_over_base", "aa_over_base"), ("wall", "cpu")):
        s = result[key][clock]
        assert len(s["runs"]) == 2 and s["q1"] <= s["median"] <= s["q3"]
        assert s["runs"] == [x / b for b, x in zip(seconds[clock]["base"],
                                                   seconds[clock][key.split("_")[0]])]


def test_one_run_covers_every_workload_named(monkeypatch, capsys):
    _extract_as(monkeypatch)
    assert ab_inprocess.main([*ARGV[:4], "large_p", "batch", "large_p", *ARGV[4:]]) == 0
    results = json.loads(capsys.readouterr().out)["workloads"]
    assert list(results) == ["batch", "large_p"]  # in the order named, each once
    assert {w: r["workload"] for w, r in results.items()} == {w: w for w in results}
    assert all(r["passes"] == 2 for r in results.values())


def test_over_six_passes_each_side_follows_each_other_side_equally_often(monkeypatch, tmp_path):
    runs = []

    def run_side(cli, files):  # each side's cli is its name here
        runs.append(cli)
        return (1.0, 1.0), []
    monkeypatch.setattr(ab_inprocess, "run_side", run_side)
    monkeypatch.setattr(ab_inprocess, "write_rounds", lambda *args: [])
    sides = ab_inprocess.SIDES
    assert ab_inprocess.compare(dict(zip(sides, sides)), "batch", 1, 1, 6, tmp_path)
    passes = [tuple(runs[i:i + 3]) for i in range(0, 18, 3)]
    assert sorted(passes) == sorted(permutations(sides))
    follows = Counter(pair for order in passes for pair in pairwise(order))
    assert follows == {pair: 2 for pair in permutations(sides, 2)}


def test_differing_outputs_exit_1(monkeypatch, capsys):
    _extract_as(monkeypatch, lambda text: text.replace("SCHEMA_VERSION = 1", "SCHEMA_VERSION = 2"))
    assert ab_inprocess.main(ARGV) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "batch pass 0: change differs from base" in captured.err
