import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"op_ms_p50": "lower", "env_steps_per_s": "higher"}


def _side(op_ms, steps, correct=True, attempted=10, failed=0):
    metrics = {"op_ms_p50": {"value": op_ms}, "env_steps_per_s": {"value": steps}}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _runs():
    return [
        {"seed": 1, "first": "base", "base": _side(10.0, 100.0), "change": _side(9.0, 110.0)},
        {"seed": 2, "first": "change", "base": _side(12.0, 90.0), "change": _side(12.0, 80.0, correct=False, failed=3)},
        {"seed": 3, "first": "base", "base": _side(11.0, 95.0), "change": _side(10.0, 99.0)},
    ]


def test_summary_counts_operations_and_incorrect_runs():
    ops = bench_pairs.summarize(_runs(), BETTER)["operations"]
    assert ops["base"] == {"attempted": 30, "failed": 0, "incorrect_runs": 0}
    assert ops["change"] == {"attempted": 30, "failed": 3, "incorrect_runs": 1}


def test_summary_medians_and_pairs_won():
    summary = bench_pairs.summarize(_runs(), BETTER)
    op = summary["op_ms_p50"]
    assert op["base"]["median"] == 11.0 and op["change"]["median"] == 10.0
    assert op["change_better_pairs"] == 2  # the tie at 12.0 counts for neither side
    assert op["median_change_pct"] == pytest.approx(100.0 * (10.0 / 11.0 - 1.0))
    assert summary["env_steps_per_s"]["change_better_pairs"] == 2


def test_unsound_workloads_names_wrong_or_failed_runs():
    runs = _runs()
    clean = [r for r in runs if r["seed"] != 2]
    result = {"workloads": {
        "clean": {"summary": bench_pairs.summarize(clean, BETTER)},
        "faulty": {"summary": bench_pairs.summarize(runs, BETTER)},
    }}
    assert bench_pairs.unsound_workloads(result) == ["faulty"]
