import importlib.util
import json
import tarfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def runs(values: dict) -> list[dict]:
    """Benchmark outputs, one per run, from {metric: [value per run]}."""
    n = len(next(iter(values.values())))
    return [{"metrics": {k: {"value": v[i]} for k, v in values.items()}} for i in range(n)]


METRICS = [
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "rss", "unit": "MiB", "better": "lower", "bound": 0.05},
]


def test_compare_records_each_bound_and_the_margin():
    base = runs({"rate": [10, 11, 12], "rss": [20, 20, 20]})
    at_bound = bench_pairs.compare(
        base, runs({"rate": [8, 8.25, 9], "rss": [21, 21, 22]}), METRICS)
    assert [at_bound[m]["bound"] for m in ("rate", "rss")] == [0.25, 0.05]
    # 25% fewer per second and 5% more memory are still within the bounds
    assert at_bound["rate"]["within_bound"] and at_bound["rss"]["within_bound"]
    beyond = bench_pairs.compare(
        base, runs({"rate": [8, 8.2, 9], "rss": [21, 21.01, 22]}), METRICS)
    assert not beyond["rate"]["within_bound"] and not beyond["rss"]["within_bound"]
    better = bench_pairs.compare(
        base, runs({"rate": [100, 100, 100], "rss": [1, 1, 1]}), METRICS)
    assert better["rate"]["change_better_pairs"] == 3 and better["rss"]["within_bound"]


def test_every_end_to_end_metric_has_a_bound():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert all(0 < m["bound"] < 1 for m in spec["end_to_end"])


def test_extract_writes_the_commit_with_the_data_filter(tmp_path, monkeypatch):
    calls = []
    extractall = tarfile.TarFile.extractall
    monkeypatch.setattr(tarfile.TarFile, "extractall",
                        lambda tar, *args, **kwargs: calls.append(kwargs)
                        or extractall(tar, *args, **kwargs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        commit = bench_pairs.extract("HEAD", tmp_path / "tree")
    assert len(commit) == 40 and (tmp_path / "tree" / "BENCHMARK.json").is_file()
    assert bench_pairs.tree_state()["commit"] == commit
    assert calls == [{"filter": "data"} if hasattr(tarfile, "data_filter") else {}]
