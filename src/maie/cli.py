"""Command-line harness: seeded runs, method sweeps, and analysis artifacts.

Every run writes to its output directory:

    config.json       fully resolved configuration (reloadable via --config)
    metrics.csv       one row per completed training episode
    lambda_trace.csv  per-step mean importance per modality, with audio class
    embeddings.csv    per-modality feature vectors sampled every few steps
    eval.csv          per-episode evaluation results (when --eval-episodes > 0)
    checkpoint.json   extractor/head parameters, modality stats, Adam moments
    run_info.json     wall-clock and CPU totals, the seconds spent evaluating
                      and writing the artifacts and the checkpoint, the BLAS
                      thread count, and counters (kept out of metrics.csv so
                      identical configs produce byte-identical metrics)

``checkpoint.json`` (format ``maie-checkpoint-v2``) keeps the parameters and
the stats as JSON number lists, and stores each of Adam's moments as base64
of its raw little-endian float64 bytes next to its shape: the moments are two
thirds of the floats, and float text is the slow part of saving them.

All files are written atomically (temp file + rename). Exit codes:
0 success, 1 configuration error, 2 numerical abort (a NaN dump is written).
"""

from __future__ import annotations

import argparse
import base64
import dataclasses
import io
import json
import math
import multiprocessing as mp
import os
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import envs
from .agent import LOSS_COLUMNS, METHODS, NumericalError, TrainConfig, Trainer
from .alignment import DISTANCE_KINDS
from .enhancement import ModalityStats
from .extractors import FEATURE_DIM

METRICS_SCHEMA = "maie-metrics-v1"
CHECKPOINT_FORMAT = "maie-checkpoint-v2"


@dataclass
class RunConfig(TrainConfig):
    """A TrainConfig plus the environment and where the run's artifacts go."""

    env: str = "hetero_nav"
    out: str = "runs/out"
    eval_episodes: int = 0
    max_env_steps: int | None = None

    def __post_init__(self):
        super().__post_init__()  # checks the types of these fields too
        if self.env not in envs.ENV_NAMES:
            raise ValueError(f"env must be one of {envs.ENV_NAMES}, got {self.env!r}")
        if self.eval_episodes < 0:
            raise ValueError("eval_episodes must be >= 0")
        if self.max_env_steps is not None and self.max_env_steps < 1:
            raise ValueError(f"max_env_steps must be >= 1 or unset, got {self.max_env_steps}")

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in dataclasses.fields(TrainConfig)})


def _atomic_write(path: str, text: str):
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: str, header: list, rows) -> None:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    _atomic_write(path, buf.getvalue())


def write_metrics_csv(path: str, rows: list, modalities: list):
    header = ["episode", "env_steps", "return", "success", *LOSS_COLUMNS] + [f"lambda_{m}" for m in modalities]
    _write_csv(path, header, ([r[h] for h in header] for r in rows))


def read_metrics_csv(path: str) -> dict:
    """Columns of metrics.csv as float arrays keyed by header name."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        cols = {h: [] for h in header}
        for line in fh:
            for h, v in zip(header, line.strip().split(",")):
                cols[h].append(float(v))
    return {h: np.asarray(v) for h, v in cols.items()}


def _write_lambda_trace(path: str, rows: list, modalities: list):
    header = ["phase", "episode", "step", "audio_class"] + [f"lambda_{m}" for m in modalities]
    _write_csv(path, header, ((phase, ep, st, ac, *lams) for phase, ep, st, ac, lams in rows))


def _write_embeddings(path: str, rows: list):
    header = ["phase", "episode", "step", "modality"] + [f"f{i}" for i in range(FEATURE_DIM)]
    _write_csv(path, header, ((phase, ep, st, mod, *vec.tolist()) for phase, ep, st, mod, vec in rows))


def _array_payload(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}


def _moment_text(arr: np.ndarray) -> str:
    return base64.b64encode(arr.astype("<f8", copy=False).tobytes()).decode("ascii")


def _moment_array(text: str, shape: tuple, what: str) -> np.ndarray:
    """Decode ``_moment_text`` strictly into a fresh writable array of the stored shape."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as e:
        raise ValueError(f"checkpoint {what}: not base64 ({e})") from None
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"checkpoint {what}: {len(raw)} bytes do not hold float64 shape {shape}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def _numbers(values, what: str) -> np.ndarray:
    """A JSON list of finite numbers as a float64 array; a string, a bool or a non-finite entry is a ValueError."""
    if type(values) is not list or not set(map(type, values)) <= {int, float}:
        raise ValueError(f"checkpoint {what}: not a list of JSON numbers")
    try:
        arr = np.array(values, dtype=np.float64)
    except OverflowError:  # an integer beyond float64
        raise ValueError(f"checkpoint {what}: a value beyond float64") from None
    if not np.isfinite(arr).all():
        raise ValueError(f"checkpoint {what}: a non-finite value")
    return arr


def _object(value, what: str) -> dict:
    """A JSON object of the checkpoint, or a ValueError naming ``what``."""
    if type(value) is not dict:
        raise ValueError(f"checkpoint {what}: not a JSON object")
    return value


def _shape(value, what: str) -> tuple:
    """A stored shape, a JSON list of integers >= 0, as a tuple."""
    if type(value) is not list or not all(type(d) is int and d >= 0 for d in value):
        raise ValueError(f"checkpoint {what}: shape {value!r} is not a list of integers >= 0")
    return tuple(value)


def _checked(values, shape: tuple, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"checkpoint {what}: shape {arr.shape} != {shape}")
    return arr


def save_checkpoint(path: str, trainer: Trainer):
    """Write the parameters, the modality stats and Adam's moments as one JSON file.

    Each stats entry records the xi and stats_eps it ran at; Adam's [m, v, t]
    are keyed by ``str`` of the parameter's position in
    ``trainer.named_parameters()``, with the moments' shape once and each
    moment as ``_moment_text``.
    """
    cfg, opt, params = trainer.cfg, trainer.opt, trainer.named_parameters()
    payload = {
        "format": CHECKPOINT_FORMAT,
        "params": {k: _array_payload(v.data) for k, v in params.items()},
        "stats": {m: {"mu": st.mu.tolist(), "var": st.var.tolist(), "xi": cfg.xi, "eps": cfg.stats_eps}
                  for m, st in trainer.stats.items()},
        "adam": {str(i): {"shape": list(st[0].shape), "t": st[2], "m": _moment_text(st[0]), "v": _moment_text(st[1])}
                 for i, p in enumerate(params.values()) if (st := opt.state.get(p)) is not None},
    }
    _atomic_write(path, json.dumps(payload, separators=(",", ":")))


def load_checkpoint(path: str, trainer: Trainer):
    """Restore a ``save_checkpoint`` file into a trainer of the same env and config.

    Raises ValueError on another format, a file, table or entry that is not
    a JSON object, a stored shape that is not a list of integers >= 0, a
    parameter or stats entry that is not a finite JSON number (a string or a
    bool included), a negative stats variance, a stored shape that differs
    from its parameter's, an Adam key other than ``str`` of a position in
    ``trainer.named_parameters()`` (``"01"`` and ``"+1"`` included), an Adam
    moment that is not base64, whose byte count does not fit its stored shape
    or that holds a NaN or an infinity, an Adam ``v`` with a negative entry,
    an Adam step count ``t`` that is not an integer >= 1 (a float or a bool
    included), or stats saved at another xi or stats_eps, and KeyError on a
    missing entry. The file is checked whole first, so a rejected one changes
    nothing.
    """
    with open(path) as fh:
        payload = _object(json.load(fh), "file")
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"checkpoint format {payload.get('format')!r} is not {CHECKPOINT_FORMAT!r}")
    cfg, opt = trainer.cfg, trainer.opt
    params = trainer.named_parameters()
    arrays, saved = {}, _object(payload["params"], "params")
    for name, p in params.items():
        what = f"parameter {name}"
        entry = _object(saved[name], what)
        data = _numbers(entry["data"], what).reshape(_shape(entry["shape"], what))
        arrays[name] = _checked(data, p.data.shape, what)
    stats, saved = {}, _object(payload["stats"], "stats")
    for m in trainer.modalities:
        entry = _object(saved[m], f"stats {m}")
        if (entry["xi"], entry["eps"]) != (cfg.xi, cfg.stats_eps):
            raise ValueError(f"checkpoint stats {m}: saved at xi={entry['xi']}, stats_eps={entry['eps']}, "
                             f"but the trainer has xi={cfg.xi}, stats_eps={cfg.stats_eps}")
        mu, var = (_checked(_numbers(entry[k], f"stats {m} {k}"), (FEATURE_DIM,), f"stats {m} {k}")
                   for k in ("mu", "var"))
        if (var < 0.0).any():  # a negative variance gives NaN scales
            raise ValueError(f"checkpoint stats {m} var: a negative entry")
        stats[m] = ModalityStats(mu=mu, var=var)
    by_position = {str(i): p for i, p in enumerate(params.values())}
    state = {}
    for key, entry in _object(payload["adam"], "adam").items():
        p = by_position.get(key)
        if p is None:
            raise ValueError(f"checkpoint adam {key}: no parameter at that position")
        entry = _object(entry, f"adam {key}")
        shape = _shape(entry["shape"], f"adam {key}")
        m, v = (_checked(_moment_array(entry[k], shape, f"adam {key} {k}"), p.data.shape, f"adam {key} {k}")
                for k in ("m", "v"))
        if not (np.isfinite(m).all() and np.isfinite(v).all() and (v >= 0.0).all()):  # the next step takes sqrt(v)
            raise ValueError(f"checkpoint adam {key}: a NaN or an infinity in m or v, or a negative v")
        t = entry["t"]
        if type(t) is not int or t < 1:  # a step count below 1 divides by zero in the bias correction
            raise ValueError(f"checkpoint adam {key}: step count t={t!r} is not an integer >= 1")
        state[p] = [m, v, t]
    for name, p in params.items():
        p.data[...] = arrays[name]
    trainer.stats.update(stats)
    opt.state.update(state)


def run(cfg: RunConfig) -> int:
    """Execute one seeded training run and write its artifacts."""
    try:
        env = envs.make_env(cfg.env, cfg.seed)
        trainer = Trainer(env, cfg.train_config())
        os.makedirs(cfg.out, exist_ok=True)
    except (ValueError, OSError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 1

    config_payload = dataclasses.asdict(cfg)
    config_payload["metrics_schema"] = METRICS_SCHEMA
    _atomic_write(os.path.join(cfg.out, "config.json"), json.dumps(config_payload, indent=2, sort_keys=True))

    t0, c0 = time.perf_counter(), time.process_time()
    try:
        trainer.run(max_env_steps=cfg.max_env_steps)
        t_eval = time.perf_counter()
        eval_rows = trainer.run_eval(cfg.eval_episodes) if cfg.eval_episodes else []
    except NumericalError as e:
        dump_path = os.path.join(cfg.out, "nan_dump.json")
        _atomic_write(dump_path, json.dumps({"error": str(e), **e.dump}, indent=2))
        print(f"numerical abort: {e}; rollout dump at {dump_path}", file=sys.stderr)
        return 2
    t1, c1 = time.perf_counter(), time.process_time()
    mods = trainer.modalities
    write_metrics_csv(os.path.join(cfg.out, "metrics.csv"), trainer.metrics_rows, mods)
    _write_lambda_trace(os.path.join(cfg.out, "lambda_trace.csv"), trainer.lambda_rows, mods)
    _write_embeddings(os.path.join(cfg.out, "embeddings.csv"), trainer.embedding_rows)
    if eval_rows:
        _write_csv(
            os.path.join(cfg.out, "eval.csv"),
            ["episode", "return", "success", "steps"],
            ([r["episode"], r["return"], r["success"], r["steps"]] for r in eval_rows),
        )
    t2 = time.perf_counter()
    save_checkpoint(os.path.join(cfg.out, "checkpoint.json"), trainer)
    t3 = time.perf_counter()
    info = {
        "wall_seconds": t1 - t0,
        "cpu_seconds": c1 - c0,
        "blas_threads": ad.blas_threads(),
        "eval_seconds": t1 - t_eval,
        "artifacts_seconds": t2 - t1,
        "checkpoint_seconds": t3 - t2,
        "env_steps": trainer.env_steps,
        "episodes": trainer.episode,
        "ms_per_env_step": 1e3 * (t_eval - t0) / max(trainer.env_steps, 1),
    }
    _atomic_write(os.path.join(cfg.out, "run_info.json"), json.dumps(info, indent=2))
    return 0


def final_window_stats(path, window_fraction: float = 0.1) -> dict:
    """Mean return/success over the last fraction of the episodes in a metrics.csv.

    Raises ValueError when the run finished no episode.
    """
    cols = read_metrics_csv(path)
    returns, successes = cols["return"], cols["success"]
    n = len(returns)
    if n == 0:
        raise ValueError("no finished episode")
    k = max(1, int(np.ceil(window_fraction * n)))
    return {"return": float(returns[-k:].mean()), "success": float(successes[-k:].mean()), "episodes": n}


def _sweep_worker(args) -> dict:
    cfg_dict, method, seed = args
    out = os.path.join(cfg_dict["out"], f"{method}_seed{seed}")
    result = {"method": method, "seed": seed, "status": 1}
    try:
        result["status"] = run(RunConfig(**{**cfg_dict, "method": method, "seed": seed, "out": out}))
        if result["status"] == 0:
            result.update(final_window_stats(os.path.join(out, "metrics.csv")))
    except Exception as e:  # one failed run is reported, and the sweep goes on
        result["error"] = f"{type(e).__name__}: {e}"
    return result


def sweep(base: RunConfig, seeds: list, methods: list, jobs: int = 1) -> int:
    """Run the method x seed cross product and summarize final-window returns.

    A run that fails or finishes no episode is reported on stderr and left
    out of the summary; the sweep exits 1 when no run is left. With jobs > 1
    the runs go to spawned worker processes. Each imports maie and so runs BLAS
    on one thread (see ``autodiff``): the runs do not oversubscribe the cores.

    Raises ValueError, before any directory is made, on an empty seed or
    method list, a seed or method listed twice (its runs would share one
    directory), a method its ``RunConfig`` rejects, or jobs below 1.
    """
    if not seeds or not methods:
        raise ValueError("sweep needs nonempty seed and method lists")
    for what, items in (("method", methods), ("seed", seeds)):
        if len(set(items)) < len(items):
            raise ValueError(f"sweep lists a {what} twice: {items}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    for m in methods:
        dataclasses.replace(base, method=m)  # the method's RunConfig checks its name
    os.makedirs(base.out, exist_ok=True)
    base_dict = dataclasses.asdict(base)
    tasks = [(base_dict, m, s) for m in methods for s in seeds]
    if jobs > 1:
        with mp.get_context("spawn").Pool(processes=jobs) as pool:
            results = pool.map(_sweep_worker, tasks)
    else:
        results = [_sweep_worker(t) for t in tasks]

    ok = [r for r in results if "return" in r]
    for r in results:
        if "return" not in r:
            print(f"run failed: method={r['method']} seed={r['seed']} status={r['status']} {r.get('error', '')}".rstrip(),
                  file=sys.stderr)

    rows = []
    for method in sorted(set(methods)):
        per = [r for r in ok if r["method"] == method]
        if not per:
            continue
        rets = np.asarray([r["return"] for r in per])
        succ = np.asarray([r["success"] for r in per])
        rows.append(
            [
                base.env,
                method,
                len(per),
                float(rets.mean()),
                float(rets.std()),
                float(succ.mean()),
                float(succ.std()),
            ]
        )
    _write_csv(
        os.path.join(base.out, "summary.csv"),
        ["env", "method", "seeds", "final_return_mean", "final_return_std", "final_success_mean", "final_success_std"],
        rows,
    )
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="maie", description="Multimodal RL training harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        # one --field-name flag per RunConfig field; sweep takes --methods in place of --method
        choices = {"env": envs.ENV_NAMES, "distance": DISTANCE_KINDS}
        for f in dataclasses.fields(RunConfig):
            if f.name != "method":
                kind = int if f.default is None else type(f.default)
                p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=kind,
                               choices=choices.get(f.name), default=None)

    p_run = sub.add_parser("run", help="train one configuration")
    add_common(p_run)
    p_run.add_argument("--method", choices=METHODS, default=None)
    p_run.add_argument("--config", default=None, help="load a saved config.json, then apply explicit flags")

    p_sweep = sub.add_parser("sweep", help="run a method x seed cross product")
    add_common(p_sweep)
    p_sweep.add_argument("--methods", default="maie", help="comma-separated method list")
    p_sweep.add_argument("--seeds", default="0", help="comma-separated seed list")
    p_sweep.add_argument("--jobs", type=int, default=1)
    return parser


def _merge_config(args, base: dict | None = None) -> dict:
    merged = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    if base:
        merged.update({k: v for k, v in base.items() if k in merged})
    for key in merged:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits on bad flags; map to the config error code
        return 0 if e.code in (0, None) else 1
    try:
        if args.command == "run":
            base = None
            if args.config:
                with open(args.config) as fh:
                    base = json.load(fh)
            cfg = RunConfig(**_merge_config(args, base))
            return run(cfg)
        if args.command == "sweep":
            cfg = RunConfig(**{**_merge_config(args), "method": "maie"})
            seeds = [int(s) for s in str(args.seeds).split(",") if s != ""]
            methods = [m for m in str(args.methods).split(",") if m]
            return sweep(cfg, seeds, methods, jobs=args.jobs)
    except ValueError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
