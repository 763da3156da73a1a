import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "update_peak.py")
_spec = importlib.util.spec_from_file_location("update_peak", _PATH)
update_peak = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(update_peak)


def test_a_warmed_full_method_update_stays_under_its_memory_bound():
    # tracemalloc's figures repeat exactly for a seed: 10.1 MB peak and 6.8 MB live before the
    # actor-critic backward, where the alignment graph kept alive through that backward and a grad
    # buffer on every recorded node made them 16.2 and 14.7 MB
    peak, live = update_peak.update_peak("hetero_nav", "maie")
    assert len(live) == 2  # the alignment backward, then the actor-critic one
    assert peak < 12.0 and live[1] < 10.0, (peak, live)
