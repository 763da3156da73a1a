"""Tests of the benchmark itself: each output check rejects a corrupted output.

Run from the repository root with ``python3 -m pytest perfbench -q``. The
outputs are real ones from short runs of the program; each test corrupts one
property and expects the matching check to report it.
"""

from __future__ import annotations

import copy
import json
import os

import numpy as np
import pytest

import checks
import run
from run import agent, cli, envs, extractors
from spans import BOOKKEEPING, Tracer

ROLLOUT = 32


def _train(tmp_path_factory, env: str, method: str, steps: int):
    out = str(tmp_path_factory.mktemp(f"{env}-{method}"))
    cfg = cli.RunConfig(env=env, method=method, seed=3, episodes=10**9, max_env_steps=steps, out=out)
    assert cli.run(cfg) == 0
    return cfg, checks.read_metrics(os.path.join(out, "metrics.csv"))


@pytest.fixture(scope="module")
def hetero(tmp_path_factory):
    return _train(tmp_path_factory, "hetero_nav", "maie", 640)


@pytest.fixture(scope="module")
def mining(tmp_path_factory):
    return _train(tmp_path_factory, "mining_plus", "concat", 640)


def _faults_after(rows, check, mutate) -> list:
    bad = copy.deepcopy(rows)
    mutate(bad)
    return check(bad)


def test_real_training_outputs_pass(hetero, mining):
    for (cfg, rows), check in ((hetero, checks.check_hetero_nav_maie), (mining, checks.check_mining_plus_concat)):
        assert len(rows) >= 2
        assert checks.check_train_run(rows, 20, ROLLOUT, 640) == []
        assert check(rows) == []


def test_train_run_check_rejects_corruption(hetero):
    _, rows = hetero
    assert checks.check_train_run(rows, 19, ROLLOUT, 640)  # steps != updates x rollout
    check = lambda r: checks.check_train_run(r, 20, ROLLOUT, 640)  # noqa: E731
    assert _faults_after(rows, check, lambda r: r[1].update(env_steps=r[0]["env_steps"]))  # L = 0
    assert _faults_after(rows, check, lambda r: r[0].update(env_steps=r[0]["env_steps"] + 101))  # L > 100
    assert _faults_after(rows, check, lambda r: r[0].update(loss_critic=float("nan")))
    assert _faults_after(rows, check, lambda r: r[0].update(loss_sim=float("inf")))
    assert _faults_after(rows, check, lambda r: r[0].update(success=0.5))


def test_hetero_nav_check_rejects_corruption(hetero):
    _, rows = hetero
    check = checks.check_hetero_nav_maie
    assert _faults_after(rows, check, lambda r: r[0].update({"return": r[0]["return"] - 1.0}))
    assert _faults_after(rows, check, lambda r: r[0].update(success=1.0 - r[0]["success"]))
    assert _faults_after(rows, check, lambda r: r[0].update(lambda_audio=r[0]["lambda_audio"] + 1e-6))


def test_mining_plus_concat_check_rejects_corruption(mining):
    _, rows = mining
    check = checks.check_mining_plus_concat
    assert _faults_after(rows, check, lambda r: r[0].update(lambda_text=0.999))
    assert _faults_after(rows, check, lambda r: r[0].update({"return": r[0]["return"] + 1.0}))  # not a multiple of 9
    assert _faults_after(rows, check, lambda r: r[0].update({"return": 50.0}))  # positive remainder
    assert _faults_after(rows, check, lambda r: r[0].update(success=1.0 - r[0]["success"]))


def test_checkpoint_reload_check_rejects_corruption(hetero):
    cfg, _ = hetero
    path = os.path.join(cfg.out, "checkpoint.json")

    def reloaded_digest(p):
        fresh = agent.Trainer(envs.make_env(cfg.env, cfg.seed), cfg.train_config())
        cli.load_checkpoint(p, fresh)
        return checks.state_digest(run.trainer_state(fresh))

    want = reloaded_digest(path)
    untrained = agent.Trainer(envs.make_env(cfg.env, cfg.seed), cfg.train_config())
    assert checks.check_same_state(want, checks.state_digest(run.trainer_state(untrained)), "reload")
    with open(path) as fh:
        payload = json.load(fh)
    first = next(iter(payload["params"].values()))
    first["data"][0] = np.nextafter(first["data"][0], np.inf)  # one bit off
    bad = os.path.join(cfg.out, "corrupt.json")
    with open(bad, "w") as fh:
        json.dump(payload, fh)
    assert checks.check_same_state(want, reloaded_digest(bad), "reload")
    assert checks.check_same_state(want, reloaded_digest(path), "reload") == []


def test_eval_checks_reject_corruption():
    trainer = agent.Trainer(envs.make_env("av_nav", 1), agent.TrainConfig(method="maie", seed=1))
    before = checks.state_digest(run.trainer_state(trainer))
    rows = trainer.run_eval(3)
    after = checks.state_digest(run.trainer_state(trainer))
    assert checks.check_eval_rows(rows) == []
    assert checks.check_same_state(before, after, "eval") == []
    assert _faults_after(rows, checks.check_eval_rows, lambda r: r[0].update(steps=101))
    assert _faults_after(rows, checks.check_eval_rows, lambda r: r[0].update({"return": r[0]["return"] + 1.0}))
    assert _faults_after(rows, checks.check_eval_rows, lambda r: r[0].update(success=1 - r[0]["success"]))
    trainer.stats["audio"].mu[0] += 1e-12
    assert checks.check_same_state(before, checks.state_digest(run.trainer_state(trainer)), "eval")


def test_replay_check_rejects_corruption():
    trainer = agent.Trainer(envs.make_env("mining_plus", 2), agent.TrainConfig(method="concat", seed=2))
    initial = {m: trainer._states[m].detached() for m in trainer.modalities}
    buf = trainer.collect_rollout()
    for m in trainer.modalities:
        obs = [o.modalities()[m] for o in buf.observations]
        feats, _ = trainer.extractors[m].forward_sequence(obs, buf.episode_starts, initial[m])
        replayed = [f.data for f in feats]
        assert checks.check_replay(buf.features[m], replayed, m) == []
        replayed[5] = replayed[5] + 1e-9
        assert checks.check_replay(buf.features[m], replayed, m)
        assert checks.check_replay(buf.features[m], replayed[:-1], m)


def test_traced_rounds_repeat_their_counters(tmp_path):
    wl = run.Workload("train", "hetero_nav", "maie", 64, checks.check_hetero_nav_maie)
    first = run.traced_round(wl, 5, str(tmp_path / "a"))
    again = run.traced_round(wl, 5, str(tmp_path / "b"))
    assert first.faults == [] and again.faults == []
    assert first.counters["calls.agent.update"] == 2
    assert first.counters["autodiff.graph_nodes.lstm_cell"] > 0
    assert checks.check_counters(first.counters, again.counters) == []
    changed = dict(again.counters, **{"autodiff.graph_nodes.slice": again.counters["autodiff.graph_nodes.slice"] + 1})
    assert checks.check_counters(first.counters, changed)
    assert checks.check_counters(first.counters, {k: v for k, v in again.counters.items() if k != "ops"})


def test_eval_trace_reads_zero_for_bypassed_layers(tmp_path):
    rnd = run.traced_round(run.Workload("eval", "av_nav", "maie", 2), 1, str(tmp_path))
    assert rnd.faults == []
    metrics = run.layer_metrics(rnd.tracer, rnd.counters, len(rnd.ops), 0.0)
    for name in ("autodiff.backward_ms", "autodiff.adam_ms", "autodiff.graph_nodes", "alignment.srl_ms",
                 "extractors.replay_calls", "cli.checkpoint_ms", "cli.artifact_bytes"):
        assert metrics[name][0] == 0.0, name
    for name in ("agent.act_ms", "extractors.forward_us", "autodiff.conv2d_calls", "enhancement.importance_us"):
        assert metrics[name][0] > 0.0, name
    assert "forward" not in vars(extractors.ConvLstmExtractor)  # the inherited method is back


def test_tracer_self_time_excludes_children():
    class Toy:
        def inner(self):
            return sum(range(2000))

        def outer(self):
            return self.inner() + self.inner()

    tracer = Tracer()
    tracer.patch(Toy, "inner", "inner", after=lambda args, result: None)
    tracer.patch(Toy, "outer", "outer")
    Toy().outer()
    tracer.restore()
    assert tracer.calls["outer"] == 1 and tracer.calls["inner"] == 2 and tracer.calls[BOOKKEEPING] == 2
    covered = tracer.total["inner"] + tracer.total[BOOKKEEPING]
    assert tracer.self_time["outer"] == pytest.approx(tracer.total["outer"] - covered, abs=1e-12)
    assert tracer.self_time["inner"] == tracer.total["inner"]
    assert Toy.outer.__name__ == "outer" and not hasattr(Toy.outer, "__wrapped__")
