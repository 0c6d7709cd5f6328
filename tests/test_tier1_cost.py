"""tools/tier1_cost.py reads pytest's output: its parsers, on canned text."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("tier1_cost", ROOT / "tools" / "tier1_cost.py")
tier1_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tier1_cost)

OUTPUT = """\
........................................................................ [ 97%]
.....F...............                                                    [100%]
=================================== FAILURES ===================================
______________________________ test_a_failure _________________________________
E   assert 1.5s call == 2
============================= slowest 20 durations =============================
1.68s call     tests/test_tower.py::test_validate_tower_never_raises_on_a_tower_that_constructs
1.04s call     tests/test_curves.py::test_count_points_matches_enumeration
0.51s setup    tests/test_cli.py::test_batch[a b-c]
0.02s teardown bench/test_reference.py::test_trace_of_frobenius_11a1

(16 durations < 0.005s hidden.  Use -vv to show these durations.)
=========================== short test summary info ============================
FAILED tests/test_x.py::test_a_failure - assert 1.5s call == 2
1 failed, 884 passed, 2 warnings in 19.73s
"""


def test_durations_are_read_from_their_section_alone():
    assert tier1_cost.parse_durations(OUTPUT) == [
        {"seconds": 1.68, "phase": "call", "test": "tests/test_tower.py::"
         "test_validate_tower_never_raises_on_a_tower_that_constructs"},
        {"seconds": 1.04, "phase": "call",
         "test": "tests/test_curves.py::test_count_points_matches_enumeration"},
        {"seconds": 0.51, "phase": "setup", "test": "tests/test_cli.py::test_batch[a b-c]"},
        {"seconds": 0.02, "phase": "teardown",
         "test": "bench/test_reference.py::test_trace_of_frobenius_11a1"},
    ]
    assert tier1_cost.parse_durations("885 passed in 19.73s\n") == []


def test_counts_are_read_from_the_last_summary_line():
    assert tier1_cost.parse_counts(OUTPUT) == {"failed": 1, "passed": 884, "warnings": 2}
    assert tier1_cost.parse_counts("== 885 passed in 79.73s (0:01:19) ==\n") == {"passed": 885}
    assert tier1_cost.parse_counts("no tests ran in 0.01s\n") == {}


def test_the_command_is_tier1_with_durations():
    assert tier1_cost.COMMAND[1:] == ["-m", "pytest", "-q", "--continue-on-collection-errors",
                                      "--durations=20"]
