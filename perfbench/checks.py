"""Output checks of the benchmark workloads.

Every check compares the program's output with a property the method must
have, computed here from the raw output rather than through the program's
own readers. Each returns a list of human-readable faults; an empty list
means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import math

import numpy as np

EPISODE_CAP = 100  # every gridworld ends an episode after at most 100 steps
REPLAY_ATOL = 1e-12  # batched replay vs single-step acting features


def read_metrics(path: str) -> list:
    """Rows of a metrics.csv as dicts of floats."""
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def episode_lengths(rows: list) -> list:
    """Length of each training episode from consecutive cumulative env_steps."""
    lengths, prev = [], 0.0
    for row in rows:
        lengths.append(row["env_steps"] - prev)
        prev = row["env_steps"]
    return lengths


def _lambda_columns(rows: list) -> list:
    return [k for k in rows[0] if k.startswith("lambda_")] if rows else []


def check_train_run(rows: list, updates: int, rollout_length: int, env_steps: int) -> list:
    """Properties every training run has, whatever the env and method."""
    faults = []
    if env_steps != updates * rollout_length:
        faults.append(f"env steps {env_steps} != {updates} updates x rollout {rollout_length}")
    if not rows:
        faults.append("metrics.csv has no episode rows")
    for i, (row, length) in enumerate(zip(rows, episode_lengths(rows))):
        if not 1 <= length <= EPISODE_CAP:
            faults.append(f"episode {i}: length {length} outside [1, {EPISODE_CAP}]")
        if row["success"] not in (0.0, 1.0):
            faults.append(f"episode {i}: success flag {row['success']}")
        for k in ("loss_actor", "loss_critic", "loss_sim", "loss_td"):
            if not math.isfinite(row[k]):
                faults.append(f"episode {i}: {k} is {row[k]}")
    if rows and rows[-1]["env_steps"] > env_steps:
        faults.append(f"last episode ends at step {rows[-1]['env_steps']} after the run's {env_steps}")
    return faults


def check_unit_step_returns(returns: list, lengths: list, successes: list) -> list:
    """hetero_nav and av_nav pay -1 a step and +1 on reaching the goal.

    So an episode of L steps returns 2 - L on success and -L otherwise.
    """
    faults = []
    for i, (ret, length, success) in enumerate(zip(returns, lengths, successes)):
        want = 2.0 - length if success else -float(length)
        if ret != want:
            faults.append(f"episode {i}: return {ret} != {want} for length {length}, success {success}")
    return faults


def check_hetero_nav_maie(rows: list) -> list:
    """Returns follow the step rewards; importance weights partition unity."""
    lengths = episode_lengths(rows)
    faults = check_unit_step_returns([r["return"] for r in rows], lengths, [r["success"] for r in rows])
    cols = _lambda_columns(rows)
    if len(cols) < 2:
        faults.append(f"expected one lambda column per modality, got {cols}")
    for i, row in enumerate(rows):
        total = sum(row[c] for c in cols)
        if abs(total - 1.0) > 1e-9:
            faults.append(f"episode {i}: lambda columns sum to {total!r}, not 1")
    return faults


def check_mining_plus_concat(rows: list) -> list:
    """concat weights every modality by exactly 1; returns follow the rewards.

    A mining_plus step pays -1, -10, +10 or -100, so each step adds 0, -9,
    +11 or -99 to return + L, and at most one (+11) comes from a successful
    pick. return + L - 11 * success is therefore a non-positive multiple of 9.
    """
    faults = []
    cols = _lambda_columns(rows)
    if len(cols) != 3:
        faults.append(f"expected three lambda columns, got {cols}")
    for i, (row, length) in enumerate(zip(rows, episode_lengths(rows))):
        for c in cols:
            if row[c] != 1.0:
                faults.append(f"episode {i}: {c} is {row[c]!r}, not exactly 1")
        rest = row["return"] + length - 11.0 * row["success"]
        if rest > 0 or rest % 9 != 0:
            faults.append(f"episode {i}: return + L - 11 success = {rest}, not a non-positive multiple of 9")
    return faults


def check_eval_rows(rows: list) -> list:
    """Evaluation episodes: step counts within the cap, returns from the rewards."""
    faults = []
    for i, row in enumerate(rows):
        if not 1 <= row["steps"] <= EPISODE_CAP:
            faults.append(f"eval episode {i}: {row['steps']} steps outside [1, {EPISODE_CAP}]")
    return faults + check_unit_step_returns(
        [r["return"] for r in rows], [r["steps"] for r in rows], [r["success"] for r in rows]
    )


def state_digest(arrays: dict) -> str:
    """SHA-256 over the names, shapes and float64 bits of named arrays."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype=np.float64)
        h.update(f"{name}:{arr.shape};".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def check_same_state(want: str, got: str, what: str) -> list:
    """Two digests of ``state_digest`` agree, so the arrays are bit-identical."""
    return [] if want == got else [f"{what}: parameters or statistics differ"]


def check_replay(acting: list, replayed: list, modality: str) -> list:
    """The batched replay of a rollout reproduces its acting-time features."""
    if len(acting) != len(replayed):
        return [f"{modality}: replayed {len(replayed)} steps of a {len(acting)}-step rollout"]
    gap = max(float(np.max(np.abs(a - r))) for a, r in zip(acting, replayed))
    if not gap <= REPLAY_ATOL:
        return [f"{modality}: replayed features differ from acting-time ones by {gap:.3g}"]
    return []


def check_counters(first: dict, again: dict) -> list:
    """Deterministic counters of two traced executions of the same seed."""
    return [
        f"counter {k}: {first.get(k)} then {again.get(k)}"
        for k in sorted(first.keys() | again.keys())
        if first.get(k) != again.get(k)
    ]
