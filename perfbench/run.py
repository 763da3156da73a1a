"""Benchmark of maie training and acting, measured from outside the program.

    python3 perfbench/run.py --workload train-hetero_nav-maie --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in one process as a closed loop of whole rounds; a round
starts only after the previous one returned. A training round is one
``maie.cli.run`` with a fixed env-step budget, ending with its artifact
writes; an evaluation round builds a fresh agent and runs evaluation
episodes with ``Trainer.run_eval``. Rounds repeat until ``--seconds`` have
passed. The last line of standard output is one JSON object with the counts
of operations attempted and failed and the metrics: the end-to-end ones with
``--trace 0``, the per-layer ones with ``--trace 1``. perfbench/README.md
describes the workloads and metrics.
"""

import argparse
import functools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import checks
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

if not os.path.isfile(os.path.join(SRC, "maie", "__init__.py")):
    raise SystemExit(f"perfbench: no maie source tree at {SRC}")
sys.path.insert(0, SRC)

from maie import agent, alignment, autodiff, cli, enhancement, envs, extractors  # noqa: E402

MAX_MEASURE_S = 100.0  # the run must end within 180 s even on a slow machine
IMPORT_PROBES = 5  # fresh interpreters whose import time enters setup_s
IMPORT_PROBE = "import time; t = time.perf_counter(); import maie.cli; print(time.perf_counter() - t)"
# Timed figures are scaled to a machine on which the reference loop of
# REFERENCE_LOOPS iterations takes REFERENCE_S; both stay fixed so that
# figures of different commits compare.
REFERENCE_LOOPS = 30_000
REFERENCE_S = 0.003
NODE_KINDS = ("slice", "add", "reshape", "lstm_cell", "conv2d", "matmul", "concat")


@dataclass(frozen=True)
class Workload:
    kind: str  # "train" or "eval"
    env: str
    method: str
    round_size: int  # env-step budget of a training round, episodes of an evaluation round
    check: object = None  # workload-specific check of a training run's metrics.csv rows


WORKLOADS = {
    "train-hetero_nav-maie": Workload("train", "hetero_nav", "maie", 1024, checks.check_hetero_nav_maie),
    "train-mining_plus-concat": Workload("train", "mining_plus", "concat", 1024, checks.check_mining_plus_concat),
    "eval-av_nav-maie": Workload("eval", "av_nav", "maie", 10),
}


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop, which tracks the machine's current speed.

    It calls neither the program nor numpy, so no change to the program can
    alter it; only the machine's load can.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import the program, scaled."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(IMPORT_PROBES):
        slowdown = reference_seconds() / REFERENCE_S
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, check=True)
        times.append(float(proc.stdout) / slowdown)
    return statistics.median(times)


def round_seed(seed: int, r: int) -> int:
    return seed * 1000 + r


@dataclass
class Round:
    planned_ops: int
    ops: list = field(default_factory=list)  # wall seconds of each operation
    setup_s: float = 0.0
    wall_s: float = 0.0  # first operation to the end of the round
    cpu_s: float = 0.0  # process CPU time over the same interval
    env_steps: int = 0
    faults: list = field(default_factory=list)
    deferred: object = None  # checks run after measuring, so their memory stays out of peak_rss_mb
    tracer: Tracer = None
    counters: dict = None
    probes: list = field(default_factory=list)  # reference loop times before each operation
    slowdown: float = 1.0  # mean reference loop time in and around the round over REFERENCE_S


class OpTimer:
    """Wall time of every call of one method, and the object of the first call.

    Before each call it times the reference loop, so that the machine's speed
    is sampled throughout the round. ``probe_wall`` and ``probe_cpu`` hold the
    time those samples took after the first call began, which the round's
    intervals leave out.
    """

    def __init__(self, owner, attr: str):
        self.owner, self.attr = owner, attr
        self.durations = []
        self.probes = []
        self.probe_wall = self.probe_cpu = 0.0
        self.start = None  # (wall, cpu) when the first call began
        self.target = None

    def __enter__(self):
        self._orig = orig = getattr(self.owner, self.attr)

        @functools.wraps(orig)
        def timed(target, *args, **kwargs):
            p0, c0 = time.perf_counter(), time.process_time()
            self.probes.append(reference_seconds())
            t0 = time.perf_counter()
            if self.start is not None:
                self.probe_wall += t0 - p0
                self.probe_cpu += time.process_time() - c0
            else:
                self.start = (t0, time.process_time())
                self.target = target
            try:
                return orig(target, *args, **kwargs)
            finally:
                self.durations.append(time.perf_counter() - t0)

        setattr(self.owner, self.attr, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self._orig)
        return False


def trainer_state(trainer) -> dict:
    arrays = {k: v.data for k, v in trainer.named_parameters().items()}
    for m, st in trainer.stats.items():
        arrays[f"stats.{m}.mu"] = st.mu
        arrays[f"stats.{m}.var"] = st.var
    return arrays


# -- rounds -------------------------------------------------------------------


def train_round(wl: Workload, seed: int, out_dir: str) -> Round:
    t0 = time.perf_counter()
    cfg = cli.RunConfig(env=wl.env, method=wl.method, seed=seed, episodes=10**9,
                        max_env_steps=wl.round_size, out=out_dir)
    rnd = Round(planned_ops=-(-wl.round_size // cfg.rollout_length))
    with OpTimer(agent.Trainer, "train_step") as op:
        try:
            code = cli.run(cfg)
        except Exception as e:  # an operation raised: the round failed
            code = f"{type(e).__name__}: {e}"
        t1, c1 = time.perf_counter(), time.process_time()
    rnd.ops = op.durations
    if op.start is None:
        rnd.faults.append(f"maie.cli.run ran no training step ({code})")
        return rnd
    rnd.setup_s = op.start[0] - t0 - op.probes[0]
    rnd.wall_s, rnd.cpu_s = t1 - op.start[0] - op.probe_wall, c1 - op.start[1] - op.probe_cpu
    rnd.probes = op.probes
    if code != 0:
        rnd.faults.append(f"maie.cli.run failed: {code}")
        return rnd
    trainer = op.target
    rnd.env_steps = trainer.env_steps
    digest = checks.state_digest(trainer_state(trainer))
    updates = len(op.durations)

    def deferred() -> list:
        with open(os.path.join(out_dir, "run_info.json")) as fh:
            env_steps = json.load(fh)["env_steps"]
        rows = checks.read_metrics(os.path.join(out_dir, "metrics.csv"))
        faults = checks.check_train_run(rows, updates, cfg.rollout_length, env_steps)
        faults += wl.check(rows)
        fresh = agent.Trainer(envs.make_env(wl.env, seed), cfg.train_config())
        cli.load_checkpoint(os.path.join(out_dir, "checkpoint.json"), fresh)
        faults += checks.check_same_state(digest, checks.state_digest(trainer_state(fresh)), "checkpoint reload")
        return faults

    rnd.deferred = deferred
    return rnd


def eval_round(wl: Workload, seed: int, out_dir: str) -> Round:
    rnd = Round(planned_ops=wl.round_size)
    t0 = time.perf_counter()
    trainer = agent.Trainer(envs.make_env(wl.env, seed), agent.TrainConfig(method=wl.method, seed=seed))
    rnd.setup_s = time.perf_counter() - t0
    before = checks.state_digest(trainer_state(trainer))
    rows = []
    with OpTimer(agent.Trainer, "run_eval") as op:
        for _ in range(wl.round_size):
            try:
                rows += trainer.run_eval(1)
            except Exception as e:  # an operation raised: the round failed
                rnd.faults.append(f"run_eval raised {type(e).__name__}: {e}")
        t1, c1 = time.perf_counter(), time.process_time()
    rnd.ops = op.durations
    rnd.wall_s, rnd.cpu_s = t1 - op.start[0] - op.probe_wall, c1 - op.start[1] - op.probe_cpu
    rnd.probes = op.probes
    rnd.env_steps = sum(r["steps"] for r in rows)
    rnd.faults += checks.check_eval_rows(rows)
    rnd.faults += checks.check_same_state(before, checks.state_digest(trainer_state(trainer)), "evaluation")
    return rnd


# -- tracing ------------------------------------------------------------------


def traced_round(wl: Workload, seed: int, out_dir: str) -> Round:
    """One round with spans around the program's public functions."""
    tracer = Tracer()
    nodes = {}
    acting, replayed, replay_faults = {}, set(), []

    def count_nodes(args, _result):
        for node in autodiff.Graph.trace(args[0]).nodes:
            nodes[node._op] = nodes.get(node._op, 0) + 1

    def keep_acting_features(_args, buf):
        acting.clear()
        acting.update(buf.features)
        replayed.clear()

    def check_first_replay(args, result):
        m = args[0].name  # the first replay after acting runs on unchanged parameters
        if m in acting and m not in replayed:
            replayed.add(m)
            replay_faults.extend(checks.check_replay(acting[m], [f.data for f in result[0]], m))

    patch = tracer.patch
    patch(agent.Trainer, "train_step", "agent.update")
    patch(agent.Trainer, "collect_rollout", "agent.act", after=keep_acting_features)
    patch(agent.Trainer, "run_eval", "agent.act")
    patch(agent.Trainer, "__init__", "agent.init")
    patch(agent.Trainer, "run", "agent.run")
    for attr in ("logits_array", "value_array", "actor_logits", "critic_values"):
        patch(agent.PolicyValueHead, attr, "agent.heads")
    for cls in (extractors.ConvLstmExtractor, extractors.TextExtractor):
        patch(cls, "forward", "extractors.forward")
        patch(cls, "forward_sequence", "extractors.replay", after=check_first_replay)
    patch(autodiff, "conv2d", "autodiff.conv2d")
    patch(autodiff, "lstm_cell", "autodiff.lstm_cell")
    patch(autodiff, "backward", "autodiff.backward", after=count_nodes)
    patch(autodiff.Adam, "step", "autodiff.adam")
    patch(autodiff, "clip_grad_norm", "autodiff.clip")
    patch(alignment, "srl_loss", "alignment.srl")
    patch(enhancement, "importance", "enhancement.importance")
    patch(enhancement.ModalityStats, "update", "enhancement.stats_update")
    patch(enhancement.ModalityStats, "normalize_array", "enhancement.normalize")
    patch(envs.GridEnv, "step", "envs.step")
    patch(envs.GridEnv, "reset", "envs.reset")
    patch(envs, "make_env", "envs.make")
    patch(cli, "run", "cli.run")
    patch(cli, "save_checkpoint", "cli.checkpoint")
    try:
        rnd = (train_round if wl.kind == "train" else eval_round)(wl, seed, out_dir)
    finally:
        tracer.restore()
    rnd.tracer = tracer
    rnd.faults += replay_faults
    if wl.kind == "train" and not acting:
        rnd.faults.append("traced training round recorded no rollout")
    counters = {f"calls.{k}": v for k, v in tracer.calls.items()}
    counters.update({f"autodiff.graph_nodes.{k}": v for k, v in nodes.items()})
    counters["ops"] = len(rnd.ops)
    if wl.kind == "train" and os.path.exists(os.path.join(out_dir, "checkpoint.json")):
        counters["cli.checkpoint_bytes"] = os.path.getsize(os.path.join(out_dir, "checkpoint.json"))
        # config.json and run_info.json hold the output path and wall times,
        # so only the training records count as deterministic artifact bytes
        counters["cli.artifact_bytes"] = sum(
            os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir) if f.endswith(".csv")
        )
    rnd.counters = counters
    return rnd


def layer_metrics(tracer: Tracer, counters: dict, ops: int, overhead_pct: float) -> dict:
    """Per-layer figures: per operation, or per call for names ending in _us."""

    def ms(name, attr="total"):
        return 1e3 * getattr(tracer, attr)[name] / ops

    def us_per_call(name):
        calls = tracer.calls[name]
        return 1e6 * tracer.total[name] / calls if calls else 0.0

    def per_op(key):
        return counters.get(key, 0) / ops

    runs = counters.get("calls.cli.run", 0)
    total_nodes = sum(v for k, v in counters.items() if k.startswith("autodiff.graph_nodes."))
    out = {
        "agent.act_ms": (ms("agent.act"), "ms"),
        "agent.act_self_ms": (ms("agent.act", "self_time"), "ms"),
        "agent.update_self_ms": (ms("agent.update", "self_time"), "ms"),
        "agent.heads_ms": (ms("agent.heads"), "ms"),
        "extractors.forward_us": (us_per_call("extractors.forward"), "us"),
        "extractors.forward_calls": (per_op("calls.extractors.forward"), "count"),
        "extractors.replay_ms": (ms("extractors.replay"), "ms"),
        "extractors.replay_calls": (per_op("calls.extractors.replay"), "count"),
        "autodiff.conv2d_ms": (ms("autodiff.conv2d"), "ms"),
        "autodiff.conv2d_calls": (per_op("calls.autodiff.conv2d"), "count"),
        "autodiff.lstm_cell_ms": (ms("autodiff.lstm_cell"), "ms"),
        "autodiff.lstm_cell_calls": (per_op("calls.autodiff.lstm_cell"), "count"),
        "autodiff.backward_ms": (ms("autodiff.backward"), "ms"),
        "autodiff.graph_nodes": (total_nodes / ops, "count"),
    }
    for kind in NODE_KINDS:
        out[f"autodiff.graph_nodes.{kind}"] = (per_op(f"autodiff.graph_nodes.{kind}"), "count")
    out.update({
        "autodiff.adam_ms": (ms("autodiff.adam"), "ms"),
        "autodiff.clip_ms": (ms("autodiff.clip"), "ms"),
        "alignment.srl_ms": (ms("alignment.srl"), "ms"),
        "enhancement.importance_us": (us_per_call("enhancement.importance"), "us"),
        "enhancement.stats_update_ms": (ms("enhancement.stats_update"), "ms"),
        "envs.step_us": (us_per_call("envs.step"), "us"),
        "envs.steps": (per_op("calls.envs.step"), "count"),
        "cli.checkpoint_ms": (1e3 * tracer.total["cli.checkpoint"] / runs if runs else 0.0, "ms"),
        "cli.checkpoint_bytes": (counters.get("cli.checkpoint_bytes", 0) / runs if runs else 0.0, "bytes"),
        "cli.artifacts_ms": (1e3 * tracer.self_time["cli.run"] / runs if runs else 0.0, "ms"),
        "cli.artifact_bytes": (counters.get("cli.artifact_bytes", 0) / runs if runs else 0.0, "bytes"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return out


# -- one workload -------------------------------------------------------------


def completed(rounds: list) -> list:
    done = [r for r in rounds if r.env_steps]
    if not done:
        raise SystemExit("perfbench: no round ran to its end")
    return done


def scaled_op_median(rounds: list) -> float:
    """Median over rounds of each round's median operation time, scaled, in seconds."""
    return statistics.median(statistics.median(r.ops) / r.slowdown for r in completed(rounds))


def measure(wl: Workload, seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    """Run whole rounds for ``seconds``, check every round, and report."""
    rounds, traced, untraced = [], [], []
    import_s = 0.0 if trace else import_seconds()
    start = time.perf_counter()
    ref_before = reference_seconds()
    run_round = train_round if wl.kind == "train" else eval_round
    while True:
        i = len(rounds)
        out_dir = os.path.join(work_dir, f"round{i:03d}")
        if trace:
            # alternate untraced and traced copies of one round, so counters
            # repeat exactly and the overhead compares equal work
            rnd = (traced_round if i % 2 else run_round)(wl, round_seed(seed, 0), out_dir)
            (traced if i % 2 else untraced).append(rnd)
        else:
            rnd = run_round(wl, round_seed(seed, i), out_dir)
        ref_after = reference_seconds()
        rnd.slowdown = statistics.fmean([ref_before, *rnd.probes, ref_after]) / REFERENCE_S
        ref_before = ref_after
        rounds.append(rnd)
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_MEASURE_S:
            break
        if trace and i % 2 and i >= 3 and elapsed >= seconds:
            break
        if not trace and elapsed >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for r in rounds:
        if r.deferred is not None:
            r.faults += r.deferred()
    for r in traced[1:]:
        r.faults += checks.check_counters(traced[0].counters, r.counters)

    attempted = sum(r.planned_ops for r in rounds)
    failed = sum(r.planned_ops for r in rounds if r.faults)
    for i, r in enumerate(rounds):
        for fault in r.faults:
            print(f"round {i}: {fault}", file=sys.stderr)

    if trace:
        tracer = Tracer()
        for r in traced:
            tracer.merge(r.tracer)
        ops = sum(len(r.ops) for r in traced)
        counters = {}
        for r in traced:
            for k, v in r.counters.items():
                counters[k] = counters.get(k, 0) + v
        overhead = scaled_op_median(traced) / scaled_op_median(untraced) - 1.0
        metrics = layer_metrics(tracer, counters, ops, 100.0 * overhead)
    else:
        # Other tenants of the machine slow it down by up to half for seconds
        # to minutes at a time, so raw figures of identical runs differ by a
        # quarter. Each round's figures are scaled by the reference loop timed
        # before each of its operations and around it, and the run reports
        # the median over its rounds.
        done = completed(rounds)
        metrics = {
            "env_steps_per_s": (statistics.median(r.env_steps / r.wall_s * r.slowdown for r in done), "steps/s"),
            "op_ms_p50": (1e3 * scaled_op_median(done), "ms"),
            "cpu_ms_per_env_step": (1e3 * statistics.median(r.cpu_s / r.env_steps / r.slowdown for r in done), "ms"),
            "setup_s": (import_s + statistics.median(r.setup_s / r.slowdown for r in done), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"machine: reference loop took {1e3 * REFERENCE_S * statistics.median(r.slowdown for r in done):.2f} ms "
              f"(figures scaled to {1e3 * REFERENCE_S:g} ms); unscaled env_steps_per_s "
              f"{statistics.median(r.env_steps / r.wall_s for r in done):.1f}")
    return {
        "correct": not any(r.faults for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_one(args) -> int:
    wl = WORKLOADS[args.workload]
    runs_dir = os.path.join(HERE, ".runs")
    os.makedirs(runs_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir)
    try:
        result = measure(wl, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(runs_dir)
        except OSError:
            pass  # another benchmark process is still using it
    print(f"{args.workload} seed {args.seed}: {result['attempted']} operations attempted, "
          f"{result['failed']} failed, outputs {'correct' if result['correct'] else 'WRONG'}")
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:>14.4f} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: benchmark process exited with code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        default_seconds = json.load(fh)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=default_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
