import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "update_peak.py")
_spec = importlib.util.spec_from_file_location("update_peak", _PATH)
update_peak = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(update_peak)


@pytest.mark.parametrize("env, method", update_peak.WORKLOADS)
def test_a_warmed_update_stays_under_its_memory_bound(env, method):
    # tracemalloc's figures repeat exactly for a seed. Peak, then live before the last backward:
    # hetero_nav/maie 6.67 and 2.46 MB, mining_plus/concat 6.61 and 2.68 MB. Each conv layer's
    # pre-ReLU output beside its relu node's, the patch matrices of maie's recomputed replay and a
    # second, stacked copy of acting's recorded conv outputs made them 10.13 / 6.77 and 8.50 / 4.25 MB
    peak, live = update_peak.update_peak(env, method)
    assert len(live) == (2 if method == "maie" else 1)  # maie's alignment backward, then the actor-critic one
    assert peak < 7.5 and live[-1] < 3.5, (peak, live)
