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
    # hetero_nav/maie 5.34 and 2.47 MB, mining_plus/concat 5.31 and 2.69 MB, both peaking in the audio
    # conv layer 1's weight adjoint. Forming the conv input adjoint and the weight adjoint's patch matrix
    # whole, and Adam's per-operation temporaries, made them 6.68 and 6.62 MB, peaking in audio conv
    # layer 2's input adjoint; each conv layer's pre-ReLU output beside its relu node's, the patch
    # matrices of maie's recomputed replay and a second, stacked copy of acting's recorded conv outputs
    # made them 10.13 / 6.77 and 8.50 / 4.25 MB before that
    peak, live, where, kinds = update_peak.update_peak(env, method)
    assert len(live) == (2 if method == "maie" else 1)  # maie's alignment backward, then the actor-critic one
    assert peak < 6.0 and live[-1] < 3.5, (peak, live)
    assert {"conv2d", "lstm_cell", "matmul"} <= kinds
    assert isinstance(where, tuple) and where[0] in kinds, where  # an adjoint the walk ran


@pytest.mark.parametrize("env, method", update_peak.WORKLOADS)
def test_saving_a_checkpoint_holds_a_bound_that_does_not_grow_with_the_largest_parameter(env, method):
    # save peak, load peak, file: hetero_nav/maie 0.20, 13.34 and 5.87 MB, mining_plus/concat 0.20, 14.76
    # and 6.48 MB (its largest parameter holds 24,576 floats). The stream encodes SLICE_FLOATS (1536) values at
    # a time, never an entry, the payload or its whole text, so the save holds less than a tenth of the file.
    # 768 values a time with per-value repr text made the save's peak 0.12 MB, and encoding each entry whole
    # 2.19 and 3.24 MB; the load parses the whole file. The digit rows write 0.9944 and 0.9926 of the
    # parameters' values; the rest are in arrays of fewer than cli._FAST_MIN values (0.44% and 0.63%), are
    # 0, powers of two or outside [1e-4, 1), or round at a tie
    save, load, size, share = update_peak.checkpoint_peaks(env, method)
    assert save < 0.5 < size / 10, (save, load, size)
    assert share >= 0.99, share  # a change that sent every value to the per-value text would read about 0


def test_a_trainer_that_only_acts_holds_little_more_than_its_parameters():
    # av_nav/maie, seed 1: held once built 1.14 MB, peak over 10 evaluation episodes 1.67-1.81 MB,
    # parameters 1.11 MB. A zero grad buffer per parameter from construction made them 2.25 and 2.86 MB.
    # The episodes share one acting span, whose visual memo, about 0.2 MB at 51 entries, outlives each of
    # them: the peak stood 0.06 MB lower with a span per episode, which computed 287 visual drives, not 51
    held, peak, params, computed = update_peak.acting_memory(*update_peak.EVAL_WORKLOAD)
    assert params < held < 1.3, (held, params)
    assert held <= peak < 2.5, (held, peak)
    assert computed == 51, computed  # exact for the seed and the BLAS kernel set
