"""Peak memory of one warmed training update, where it fell, and the live memory before each of its backward passes;
and the memory of a trainer that only acts.

    PYTHONPATH=src python tools/update_peak.py

For each training workload of the benchmark (the env and method pairs in
``WORKLOADS``) the script builds a trainer with that env and method, seed
``SEED`` and the default config, runs ``WARMUP`` updates
(``Trainer.train_step``: a rollout, then the update), and traces the next one
with tracemalloc, started just before it. It prints the peak of the memory
allocated during that update, and the part of it still held when each
``autodiff.backward`` began, in MB of 2**20 bytes. numpy reports its array
buffers to tracemalloc, so both count every array the update made. The
figures repeat exactly on one numpy version: a deterministic proxy beside the
benchmark's ``peak_rss_mb``, which also counts the interpreter, the
libraries and the checkpoint writes.

It also names where the peak fell: the op kind, operand index and operand
shape of the adjoint the backward walk was running (the walk adds each
adjoint through ``_accum`` right after computing it, so a span runs from one
``_accum`` to the end of the next), ``Adam.step``, or ``elsewhere``: the
rollout, the forward passes and the losses. It wraps the walk, ``_accum``
and ``Adam.step`` for the traced update only, and prints the runs (see
``autodiff.Adam``) that update's ``Adam.step`` calls stepped, a count that
holds for every update of a config.

For the same workloads it prints the traced peak of ``cli.save_checkpoint``
of a trainer after ``WARMUP`` updates, the peak of ``cli.load_checkpoint`` of
that file into a new trainer, the file's size, and the share of the
parameters' values whose text ``cli._digit_rows`` wrote rather than the
per-value ``repr``, counted over an untraced save before the traced one (it
also builds the digit tables, so the traced peak does not hang on which save
of the process ran first). The save writes each array a slice at a time, so
its peak does not grow with the largest parameter; the load parses the whole
file.

For the benchmark's evaluation workload (``EVAL_WORKLOAD``, built as
perfbench builds it, with seed ``SEED``) it prints the memory a trainer holds
once built, the peak while it then plays ``EVAL_EPISODES`` evaluation
episodes one ``run_eval(1)`` at a time, both traced from just before it is
built, and the bytes of its parameters' arrays. A first trainer plays one
episode untraced, so what the process keeps for any trainer (lazy imports,
``gather_index``'s cache) is not counted. The held figure then repeats
exactly whatever ran before in the process; the peak moves by a few
hundredths of a MB from run to run. It also prints how many LSTM input
drives those episodes computed for the modalities with a memo (those not in
``envs.NOISY_MODALITIES``): the memo's misses, counted as calls of the
extractor's ``_conv_input``, which ``forward`` makes on a miss only. The
count is exact for a seed and a BLAS kernel set.
"""

from __future__ import annotations

import os
import sys
import tempfile
import tracemalloc

from maie import agent, cli, envs
from maie import autodiff as ad

WORKLOADS = (("hetero_nav", "maie"), ("mining_plus", "concat"))  # the benchmark's train workloads
EVAL_WORKLOAD = ("av_nav", "maie")  # the benchmark's evaluation workload
EVAL_EPISODES = 10
SEED = 1
WARMUP = 3  # updates run before the traced one
MB = float(1 << 20)
ELSEWHERE = "elsewhere"


class _Spans:
    """The highest tracemalloc peak of the spans of one traced update, and the name of the span it fell in."""

    def __init__(self):
        self.peak, self.where, self.name = 0, ELSEWHERE, ELSEWHERE

    def enter(self, name):
        """End the running span, keeping its peak if it is the highest so far, and start one called ``name``."""
        peak = tracemalloc.get_traced_memory()[1]
        if peak > self.peak:
            self.peak, self.where = peak, self.name
        tracemalloc.reset_peak()
        self.name = name


def _adjoints(graph, kinds: set):
    """``(op kind, operand index, operand shape)`` of each adjoint ``graph.run_backward`` runs, in its order."""
    for node in reversed(graph.nodes):
        kinds.add(node._op)
        for i, p in enumerate(node._parents):
            if p.requires_grad:
                yield node._op, i, p.data.shape


def _trainer(env: str, method: str, updates: int = 0) -> agent.Trainer:
    """A trainer of the workload's config with seed ``SEED``, after ``updates`` updates."""
    trainer = agent.Trainer(envs.make_env(env, SEED), cli.RunConfig(env=env, method=method, seed=SEED).train_config())
    for _ in range(updates):
        trainer.train_step()
    return trainer


def update_peak(env: str, method: str) -> tuple:
    """(peak MB of one update after ``WARMUP`` updates, [MB live as each of its backward passes began],
    where the peak fell, the op kinds its backward walks ran, the runs its ``Adam.step`` calls stepped).

    ``where`` is ``(op kind, operand index, operand shape)`` of an adjoint,
    ``"Adam.step"`` or ``ELSEWHERE``.
    """
    trainer = _trainer(env, method, WARMUP)
    live, kinds, spans, runs = [], set(), _Spans(), []
    backward, walk, accum, step = ad.backward, ad.Graph.run_backward, ad._accum, ad.Adam.step
    adjoints = iter(())

    def measured(loss):
        live.append(tracemalloc.get_traced_memory()[0] / MB)
        spans.enter("the walk's start")  # tracing the graph and seeding the loss's gradient
        try:
            return backward(loss)
        finally:
            spans.enter(ELSEWHERE)

    def walked(graph, root):
        nonlocal adjoints
        adjoints = _adjoints(graph, kinds)
        return walk(graph, root)

    def accumulated(p, g):
        accum(p, g)
        spans.enter(next(adjoints, ELSEWHERE))

    def stepped(opt, params):
        spans.enter("Adam.step")
        try:
            runs.append(step(opt, params))
            return runs[-1]
        finally:
            spans.enter(ELSEWHERE)

    ad.backward, ad.Graph.run_backward, ad._accum, ad.Adam.step = measured, walked, accumulated, stepped
    tracemalloc.start()
    try:
        trainer.train_step()
        spans.enter(ELSEWHERE)
    finally:
        tracemalloc.stop()
        ad.backward, ad.Graph.run_backward, ad._accum, ad.Adam.step = backward, walk, accum, step
    return spans.peak / MB, live, spans.where, kinds, sum(runs)


def _traced_peak(fn, *args) -> float:
    """The tracemalloc peak, in MB, of ``fn(*args)``, traced from just before the call."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def _digit_rows_share(path: str, trainer: agent.Trainer) -> float:
    """Save ``trainer`` to ``path``; return the share of its parameters' values that ``cli._digit_rows`` wrote."""
    rows, written = cli._digit_rows, 0

    def counted(values, *args):
        nonlocal written
        out = rows(values, *args)
        written += values.size - int(out[1].sum())  # less the values it left to the per-value text
        return out

    cli._digit_rows = counted
    try:
        cli.save_checkpoint(path, trainer)
    finally:
        cli._digit_rows = rows
    return written / sum(p.data.size for p in trainer.named_parameters().values())


def checkpoint_peaks(env: str, method: str) -> tuple:
    """(peak MB of saving a trainer after ``WARMUP`` updates, peak MB of loading the file into a new trainer,
    MB of the file, share of the parameters' values the digit rows wrote)."""
    trainer, fresh = _trainer(env, method, WARMUP), _trainer(env, method)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "checkpoint.json")
        share = _digit_rows_share(path, trainer)
        save = _traced_peak(cli.save_checkpoint, path, trainer)
        load = _traced_peak(cli.load_checkpoint, path, fresh)
        return save, load, os.path.getsize(path) / MB, share


def _count_drives(trainer: agent.Trainer) -> list:
    """Count in the returned one-item list the input drives ``trainer`` computes for its modalities with a memo."""
    computed = [0]
    for m, ex in trainer.extractors.items():
        if m not in envs.NOISY_MODALITIES:
            def counted(obs, conv_input=ex._conv_input):
                computed[0] += 1
                return conv_input(obs)

            ex._conv_input = counted
    return computed


def acting_memory(env: str, method: str) -> tuple:
    """(MB held by a trainer once built, peak MB over it and ``EVAL_EPISODES`` evaluation episodes, MB of its parameters,
    input drives those episodes computed for the modalities with a memo)."""
    def build():
        return agent.Trainer(envs.make_env(env, SEED), agent.TrainConfig(method=method, seed=SEED))

    build().run_eval(1)
    tracemalloc.start()
    try:
        trainer = build()
        held = tracemalloc.get_traced_memory()[0]
        computed = _count_drives(trainer)
        for _ in range(EVAL_EPISODES):
            trainer.run_eval(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    params = sum(p.data.nbytes for p in trainer.named_parameters().values())
    return held / MB, peak / MB, params / MB, computed[0]


def main() -> int:
    for env, method in WORKLOADS:
        peak, live, where, _, runs = update_peak(env, method)
        if isinstance(where, tuple):  # printed as ``conv2d operand 1 (32, 32, 3, 3)``
            where = "{} operand {} {}".format(*where)
        before = " ".join(f"{mb:.2f}" for mb in live)
        print(f"{env:<14} {method:<14} peak {peak:6.2f} MB at {where}  live before each backward {before} MB  "
              f"Adam runs {runs}")
        save, load, size, share = checkpoint_peaks(env, method)
        print(f"{env:<14} {method:<14} checkpoint: save peak {save:.2f} MB, load peak {load:.2f} MB, file {size:.2f} MB, "
              f"digit rows wrote {share:.4f} of the parameters' values")
    held, peak, params, computed = acting_memory(*EVAL_WORKLOAD)
    print(f"{EVAL_WORKLOAD[0]:<14} {EVAL_WORKLOAD[1]:<14} acting only: held once built {held:.2f} MB, "
          f"peak over {EVAL_EPISODES} evaluation episodes {peak:.2f} MB, parameters {params:.2f} MB, "
          f"input drives computed {computed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
