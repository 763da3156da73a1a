import importlib.util
import os
import platform

import numpy as np
import pytest

from maie import autodiff as ad

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = {"op_ms_p50": {"better": "lower", "bound": 0.25}, "env_steps_per_s": {"better": "higher", "bound": 0.25}}


def _side(op_ms, steps, correct=True, attempted=10, failed=0, cpu_ms=None):
    cpu_ms = 1e3 / steps if cpu_ms is None else cpu_ms  # one busy thread: CPU time equals wall time
    metrics = {"op_ms_p50": {"value": op_ms}, "env_steps_per_s": {"value": steps},
               "cpu_ms_per_env_step": {"value": cpu_ms}}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _runs():
    return [
        {"seed": 1, "first": "base", "base": _side(10.0, 100.0), "change": _side(9.0, 110.0)},
        {"seed": 2, "first": "change", "base": _side(12.0, 90.0), "change": _side(12.0, 80.0, correct=False, failed=3)},
        {"seed": 3, "first": "base", "base": _side(11.0, 95.0), "change": _side(10.0, 99.0)},
    ]


def test_summary_counts_operations_and_incorrect_runs():
    ops = bench_pairs.summarize(_runs(), METRICS)["operations"]
    assert ops["base"] == {"attempted": 30, "failed": 0, "incorrect_runs": 0}
    assert ops["change"] == {"attempted": 30, "failed": 3, "incorrect_runs": 1}


def test_summary_medians_and_pairs_won():
    summary = bench_pairs.summarize(_runs(), METRICS)
    op = summary["op_ms_p50"]
    assert op["base"]["median"] == 11.0 and op["change"]["median"] == 10.0
    assert op["change_better_pairs"] == 2  # the tie at 12.0 counts for neither side
    assert op["median_change_pct"] == pytest.approx(100.0 * (10.0 / 11.0 - 1.0))
    assert summary["env_steps_per_s"]["change_better_pairs"] == 2


def test_unsound_workloads_names_wrong_or_failed_runs():
    runs = _runs()
    clean = [r for r in runs if r["seed"] != 2]
    result = {"workloads": {
        "clean": {"summary": bench_pairs.summarize(clean, METRICS)},
        "faulty": {"summary": bench_pairs.summarize(runs, METRICS)},
    }}
    assert bench_pairs.unsound_workloads(result) == ["faulty"]


def _pairs(base_steps, change_steps):
    return [
        {"seed": i, "first": "base", "base": _side(10.0, b), "change": _side(10.0, c)}
        for i, (b, c) in enumerate(zip(base_steps, change_steps))
    ]


def test_gain_shown_needs_nine_pairs_in_ten_and_a_gain_beyond_the_base_iqr():
    base = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]  # IQR 4.5
    won_all = bench_pairs.summarize(_pairs(base, [b + 10.0 for b in base]), METRICS)["env_steps_per_s"]
    assert won_all["change_better_pairs"] == 10 and won_all["gain_shown"]
    nine = [b + 10.0 for b in base[:9]] + [base[9] - 1.0]
    assert bench_pairs.summarize(_pairs(base, nine), METRICS)["env_steps_per_s"]["gain_shown"]
    eight = [b + 10.0 for b in base[:8]] + [base[8] - 1.0, base[9] - 1.0]
    assert not bench_pairs.summarize(_pairs(base, eight), METRICS)["env_steps_per_s"]["gain_shown"]
    within_iqr = bench_pairs.summarize(_pairs(base, [b + 4.0 for b in base]), METRICS)["env_steps_per_s"]
    assert within_iqr["change_better_pairs"] == 10 and not within_iqr["gain_shown"]


def test_gain_shown_reads_the_direction_of_lower_is_better_metrics():
    runs = [
        {"seed": i, "first": "base", "base": _side(10.0 + 0.1 * i, 100.0), "change": _side(8.0 + 0.1 * i, 100.0)}
        for i in range(10)
    ]
    summary = bench_pairs.summarize(runs, METRICS)
    assert summary["op_ms_p50"]["gain_shown"] and not summary["op_ms_p50"]["worse_beyond_bound"]
    assert not summary["env_steps_per_s"]["gain_shown"]  # all ties


def test_worse_beyond_bound_compares_the_medians_against_the_metric_bound():
    base = [100.0] * 5
    summary = bench_pairs.summarize(_pairs(base, [76.0] * 5), METRICS)
    assert not summary["env_steps_per_s"]["worse_beyond_bound"]  # 24% worse, bound 25%
    summary = bench_pairs.summarize(_pairs(base, [74.0] * 5), METRICS)
    assert summary["env_steps_per_s"]["worse_beyond_bound"] and not summary["env_steps_per_s"]["gain_shown"]
    slower = [
        {"seed": i, "first": "base", "base": _side(10.0, 100.0), "change": _side(12.6, 100.0)} for i in range(5)
    ]
    summary = bench_pairs.summarize(slower, METRICS)
    assert summary["op_ms_p50"]["worse_beyond_bound"]  # 26% slower
    assert not summary["env_steps_per_s"]["worse_beyond_bound"]


def test_cpu_wall_ratio_is_the_median_of_cpu_ms_per_step_times_steps_per_second():
    # base: two busy threads (2 ms of CPU per step at 1000 steps/s is 2 s of CPU per wall second); change: one
    runs = [
        {"seed": i, "first": "base", "base": _side(10.0, steps, cpu_ms=cpu_ms), "change": _side(10.0, 500.0 + i)}
        for i, (steps, cpu_ms) in enumerate([(1000.0, 2.0), (800.0, 2.25), (1250.0, 1.44)])
    ]
    ratio = bench_pairs.summarize(runs, METRICS)["cpu_wall_ratio"]
    assert ratio["base"] == pytest.approx(1.8)  # the median of 2.0, 1.8 and 1.8
    assert ratio["change"] == pytest.approx(1.0)


def test_machine_names_the_blas_kernels_and_versions():
    # files written under other kernels or versions are not comparable bit for bit or in speed
    entry = bench_pairs.machine()
    assert entry == {"blas_core": ad.blas_core(), "numpy": np.__version__, "python": platform.python_version(),
                     "cpu_count": os.cpu_count()}
    assert entry["cpu_count"] >= 1


def test_unresolved_when_the_base_spread_exceeds_the_bound_and_not_every_change_run_is_better():
    # as setup_s on hetero_nav in BENCH_26.json, whose base quartiles 0.159-0.259 s about a median of 0.216 s
    # lie 46% of it apart, wider than its 25% bound
    metrics = {"env_steps_per_s": {"better": "higher", "bound": 0.25}}
    wide = [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0]  # IQR 40 about a median of 100
    within = bench_pairs.summarize(_pairs(wide, [w + 1.0 for w in wide]), metrics)["env_steps_per_s"]
    assert within["unresolved"] and not within["worse_beyond_bound"]  # a close median shows nothing
    above_all = bench_pairs.summarize(_pairs(wide, [141.0 + i for i in range(9)]), metrics)["env_steps_per_s"]
    assert not above_all["unresolved"] and above_all["gain_shown"]  # every change run beats every base run
    one_short = [141.0 + i for i in range(8)] + [139.0]
    assert bench_pairs.summarize(_pairs(wide, one_short), metrics)["env_steps_per_s"]["unresolved"]
    tight = [100.0 + 0.5 * i for i in range(9)]  # IQR 2, within the bound
    assert not bench_pairs.summarize(_pairs(tight, [t - 1.0 for t in tight]), metrics)["env_steps_per_s"]["unresolved"]
    lower = {"op_ms_p50": {"better": "lower", "bound": 0.25}}
    runs = [{"seed": i, "first": "base", "base": _side(b, 100.0), "change": _side(c, 100.0)}
            for i, (b, c) in enumerate(zip(wide, [59.0 - i for i in range(9)]))]
    assert not bench_pairs.summarize(runs, lower)["op_ms_p50"]["unresolved"]  # every change run is faster
    runs[0]["change"] = _side(61.0, 100.0)
    assert bench_pairs.summarize(runs, lower)["op_ms_p50"]["unresolved"]
