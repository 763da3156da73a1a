"""Peak memory of one warmed training update, and the live memory before each of its backward passes.

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
"""

from __future__ import annotations

import sys
import tracemalloc

from maie import agent, cli, envs
from maie import autodiff as ad

WORKLOADS = (("hetero_nav", "maie"), ("mining_plus", "concat"))  # the benchmark's train workloads
SEED = 1
WARMUP = 3  # updates run before the traced one
MB = float(1 << 20)


def update_peak(env: str, method: str) -> tuple:
    """(peak MB of one update after ``WARMUP`` updates, [MB live as each of its backward passes began])."""
    trainer = agent.Trainer(envs.make_env(env, SEED), cli.RunConfig(env=env, method=method, seed=SEED).train_config())
    for _ in range(WARMUP):
        trainer.train_step()
    live, backward = [], ad.backward

    def measured(loss):
        live.append(tracemalloc.get_traced_memory()[0] / MB)
        return backward(loss)

    ad.backward = measured
    tracemalloc.start()
    try:
        trainer.train_step()
        peak = tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()
        ad.backward = backward
    return peak, live


def main() -> int:
    for env, method in WORKLOADS:
        peak, live = update_peak(env, method)
        before = " ".join(f"{mb:.2f}" for mb in live)
        print(f"{env:<14} {method:<14} peak {peak:6.2f} MB  live before each backward {before} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
