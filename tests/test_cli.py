import base64
import dataclasses
import hashlib
import json
import math
import os
import platform
import re
import shutil
import resource
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maie import autodiff as ad
from maie import cli, envs
from maie.agent import LOSS_COLUMNS, Trainer
from maie.cli import RunConfig, final_window_stats, read_metrics_csv
from method_oracles import checkpoint_text, modality_step, zero_state


_NUMPY_HAS_OPENBLAS = "openblas" in np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]


def _run_args(tmp_path, **kw):
    base = dict(env="hetero_nav", method="concat", seed=1, episodes=2, out=str(tmp_path / "run"),
                rollout_length=8)
    base.update(kw)
    return RunConfig(**base)


def test_run_writes_artifacts(tmp_path):
    cfg = _run_args(tmp_path)
    assert cli.run(cfg) == 0
    out = tmp_path / "run"
    for name in ("config.json", "metrics.csv", "lambda_trace.csv", "embeddings.csv", "checkpoint.json", "run_info.json"):
        assert (out / name).exists(), name
    cols = read_metrics_csv(out / "metrics.csv")
    assert len(cols["episode"]) >= 2
    np.testing.assert_array_equal(cols["lambda_visual"], 1.0)  # concat fixes lambda at 1
    np.testing.assert_array_equal(cols["lambda_audio"], 1.0)


def test_metrics_schema(tmp_path):
    cfg = _run_args(tmp_path)
    cli.run(cfg)
    path = tmp_path / "run" / "metrics.csv"
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == [
        "episode", "env_steps", "return", "success",
        "loss_actor", "loss_critic", "loss_sim", "loss_td",
        "lambda_visual", "lambda_audio",
    ]
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(header)
        [float(c) for c in cells]  # every cell numeric


def test_run_determinism_bitwise(tmp_path):
    cfg1 = _run_args(tmp_path, method="maie", out=str(tmp_path / "a"))
    cfg2 = _run_args(tmp_path, method="maie", out=str(tmp_path / "b"))
    assert cli.run(cfg1) == 0
    assert cli.run(cfg2) == 0
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a == b
    a_tr = (tmp_path / "a" / "lambda_trace.csv").read_bytes()
    b_tr = (tmp_path / "b" / "lambda_trace.csv").read_bytes()
    assert a_tr == b_tr


def test_config_round_trip(tmp_path):
    cfg = _run_args(tmp_path, method="no_align", out=str(tmp_path / "orig"))
    assert cli.run(cfg) == 0
    rc = cli.main(["run", "--config", str(tmp_path / "orig" / "config.json"), "--out", str(tmp_path / "replay")])
    assert rc == 0
    assert (tmp_path / "orig" / "metrics.csv").read_bytes() == (tmp_path / "replay" / "metrics.csv").read_bytes()
    with open(tmp_path / "replay" / "config.json") as fh:
        replay_cfg = json.load(fh)
    assert replay_cfg["method"] == "no_align"
    assert replay_cfg["metrics_schema"] == cli.METRICS_SCHEMA


def test_invalid_env_rejected_before_work(tmp_path):
    rc = cli.main(["run", "--env", "labyrinth", "--out", str(tmp_path / "x")])
    assert rc != 0
    assert not (tmp_path / "x").exists()


def test_out_of_range_xi_rejected_before_work(tmp_path):
    # the alignment constants are checked when the trainer is built, the rest by RunConfig
    for i, flags in enumerate((["--xi", "2.0"], ["--c-sim", "-1"], ["--c-td", "-1"],
                               ["--max-env-steps", "0"], ["--max-env-steps", "-5"])):
        out = tmp_path / f"x{i}"
        assert cli.main(["run", *flags, "--out", str(out)]) == 1, flags
        assert not out.exists(), flags


@pytest.mark.parametrize("field, value", [
    ("episodes", 2.5), ("lr", "1e-3"), ("seed", "3"), ("rollout_length", True), ("xi", None),
    ("gamma", False), ("eval_episodes", 1.0), ("max_env_steps", "320"), ("distance", 1),
])
def test_mistyped_config_field_is_a_configuration_error(field, value, tmp_path, capsys):
    # one field of a valid config.json edited: exit 1 and no output directory, never a traceback
    valid = json.loads(json.dumps(dataclasses.asdict(_run_args(tmp_path))))
    RunConfig(**valid)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**valid, field: value}))
    out = tmp_path / "x"
    assert cli.main(["run", "--config", str(bad), "--out", str(out)]) == 1
    declared = {f.name: f.type for f in dataclasses.fields(RunConfig)}[field]
    err = capsys.readouterr().err
    assert f"configuration error: {field} must be {declared}, got {value!r}" in err  # the type check, not a range check
    assert not out.exists()


@pytest.mark.parametrize("content, match", [
    ("null", "config {path}: holds NoneType, not a JSON object"),
    ("[1]", "config {path}: holds list, not a JSON object"),
    ("misspelt", "config {path}: unknown keys ['lrr']"),
    ("old_schema", "config {path}: metrics_schema 'maie-metrics-v0' is not 'maie-metrics-v1'"),
    (None, "config {path}: cannot read it: No such file or directory"),
    ("negative_seed", "seed must be >= 0, got -1"),
], ids=["null", "list", "misspelt_key", "other_metrics_schema", "missing_file", "negative_seed"])
def test_unusable_config_file_is_a_configuration_error(content, match, tmp_path, capsys):
    # never the default config, a traceback or a dropped key: exit 1 and no output directory
    path = tmp_path / "cfg.json"
    if content == "misspelt":
        content = json.dumps({**dataclasses.asdict(_run_args(tmp_path)), "lrr": 0.5})
    if content == "old_schema":  # a run of another metrics.csv layout does not replay as this one
        content = json.dumps({**dataclasses.asdict(_run_args(tmp_path)), "metrics_schema": "maie-metrics-v0"})
    if content == "negative_seed":  # a valid file with a value its RunConfig rejects
        content = json.dumps({**dataclasses.asdict(_run_args(tmp_path)), "seed": -1})
    if content is not None:
        path.write_text(content)
    out = tmp_path / "x"
    assert cli.main(["run", "--config", str(path), "--max-env-steps", "8", "--out", str(out)]) == 1
    assert "configuration error: " + match.format(path=path) in capsys.readouterr().err
    assert not out.exists()


FLOAT_FIELDS = [f.name for f in dataclasses.fields(RunConfig) if f.type == "float"]


@pytest.mark.parametrize("field, value", [(f, v) for f in FLOAT_FIELDS for v in (math.nan, math.inf, -math.inf)]
                         + [("grad_clip", 0.0), ("grad_clip", -1.0)])
def test_non_finite_float_or_clip_off_is_a_configuration_error(field, value, tmp_path, capsys):
    # as a flag and in a config.json: exit 1 and no output directory; a clip of 0 or less would switch clipping off
    out = tmp_path / "flag"
    assert cli.main(["run", f"--{field.replace('_', '-')}={value!r}", "--out", str(out)]) == 1
    assert not out.exists()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**dataclasses.asdict(_run_args(tmp_path)), field: value}))
    out = tmp_path / "file"
    assert cli.main(["run", "--config", str(bad), "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.count(f"configuration error: {field} must be") == 2


def _flag_value(f) -> tuple:
    """A command-line value for RunConfig field ``f`` other than its default, and that value parsed."""
    choices = {"env": "mining", "distance": "squared_euclidean", "method": "no_ie"}
    if f.name in choices:
        return choices[f.name], choices[f.name]
    if f.default is None or isinstance(f.default, int):
        return "7", 7
    if isinstance(f.default, float):
        return "0.25", 0.25
    return "elsewhere", "elsewhere"


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_every_config_field_has_a_flag(command):
    parser = cli._build_parser()
    assert ("method" in vars(parser.parse_args([command]))) == (command == "run")  # --method is run-only
    for f in dataclasses.fields(RunConfig):
        if f.name == "method" and command == "sweep":
            continue
        text, expected = _flag_value(f)
        args = parser.parse_args([command, "--" + f.name.replace("_", "-"), text])
        cfg = RunConfig(**cli._merge_config(args))
        assert getattr(cfg, f.name) == expected != f.default, f.name


def test_invalid_method_exit_code(capsys):
    rc = cli.main(["run", "--method", "attention"])
    assert rc == 1
    assert "invalid choice" in capsys.readouterr().err


def test_unknown_method_in_sweep(tmp_path, capsys):
    rc = cli.main(["sweep", "--methods", "maie,attention", "--out", str(tmp_path / "s")])
    assert rc == 1
    assert "configuration error: method must be one of" in capsys.readouterr().err  # RunConfig's check
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("flags,match", [
    (["--methods", "concat,concat"], "sweep lists a method twice"),
    (["--seeds", "1,1"], "sweep lists a seed twice"),
    (["--seeds", "1,01"], "sweep lists a seed twice"),
    (["--jobs", "0"], "jobs must be >= 1, got 0"),
    (["--jobs", "-2"], "jobs must be >= 1, got -2"),
    (["--seeds", "1,-1"], "seed must be >= 0, got -1"),
], ids=["method_twice", "seed_twice", "same_seed_spelt_twice", "jobs_0", "jobs_-2", "negative_seed"])
def test_sweep_input_is_a_configuration_error_before_any_run(flags, match, tmp_path, capsys):
    # a repeated method or seed would run into one directory and count each run again in summary.csv
    out = tmp_path / "sw"
    rc = cli.main(["sweep", "--env", "hetero_nav", "--methods", "concat", "--seeds", "1", "--max-env-steps", "64",
                   "--out", str(out), *flags])
    assert rc == 1
    assert f"configuration error: {match}" in capsys.readouterr().err
    assert not out.exists()


def test_eval_episodes_written(tmp_path):
    cfg = _run_args(tmp_path, method="maie", eval_episodes=2, out=str(tmp_path / "ev"))
    assert cli.run(cfg) == 0
    eval_path = tmp_path / "ev" / "eval.csv"
    assert eval_path.exists()
    lines = eval_path.read_text().strip().split("\n")
    assert len(lines) == 3  # header + 2 episodes
    trace = (tmp_path / "ev" / "lambda_trace.csv").read_text()
    assert ",eval," not in trace.split("\n")[0]
    assert any(line.startswith("eval,") for line in trace.split("\n")[1:])


def test_lambda_trace_schema(tmp_path):
    cfg = _run_args(tmp_path, env="mining", method="maie", out=str(tmp_path / "mine"))
    assert cli.run(cfg) == 0
    lines = (tmp_path / "mine" / "lambda_trace.csv").read_text().strip().split("\n")
    assert lines[0] == "phase,episode,step,audio_class,lambda_visual,lambda_audio"
    # audio classes restricted to {-1, 0, 1} for mining
    classes = {line.split(",")[3] for line in lines[1:]}
    assert classes <= {"-1", "0", "1"}


@pytest.mark.parametrize("env,method", [("hetero_nav", "maie"), ("mining_plus", "concat")])
def test_metrics_lambda_is_the_mean_of_the_episode_trace(tmp_path, env, method):
    # the λ trace is the one record of λ: each metrics row averages its episode's rows in step order
    cfg = _run_args(tmp_path, env=env, method=method, seed=3, episodes=3, rollout_length=32)
    assert cli.run(cfg) == 0
    with open(tmp_path / "run" / "lambda_trace.csv") as fh:
        header = fh.readline().strip().split(",")
        trace = [line.strip().split(",") for line in fh]
    cols = read_metrics_csv(tmp_path / "run" / "metrics.csv")
    assert len(cols["episode"]) == 3
    prev_steps = 0.0
    for i, ep in enumerate(cols["episode"]):
        rows = [r for r in trace if r[0] == "train" and float(r[1]) == ep]
        assert [int(r[2]) for r in rows] == list(range(len(rows)))
        assert len(rows) == cols["env_steps"][i] - prev_steps
        prev_steps = cols["env_steps"][i]
        for j, name in enumerate(header):
            if name.startswith("lambda_"):
                total = 0.0
                for r in rows:
                    total += float(r[j])
                assert cols[name][i] == total / len(rows), (ep, name)


def test_embeddings_schema(tmp_path):
    cfg = _run_args(tmp_path)
    cli.run(cfg)
    lines = (tmp_path / "run" / "embeddings.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[:4] == ["phase", "episode", "step", "modality"]
    assert len(header) == 4 + 32
    assert len(lines) > 1


@pytest.fixture(scope="module")
def trained_runs(tmp_path_factory):
    """Per config (maie unless ``method`` is given), a trainer after two episodes and the checkpoint it saved,
    trained once per module."""
    saved = {}

    def get(**kw):
        key = tuple(sorted(kw.items()))
        if key not in saved:
            root = tmp_path_factory.mktemp("trained")
            cfg = _run_args(root, **{"method": "maie", **kw})
            trainer = Trainer(envs.make_env(cfg.env, cfg.seed), cfg.train_config())
            trainer.run()
            cli.save_checkpoint(str(root / "checkpoint.json"), trainer)
            saved[key] = trainer, root / "checkpoint.json"
        return saved[key]

    return get


@pytest.fixture
def trained_checkpoint(trained_runs, tmp_path):
    """``(trainer, path)``: the module's trained maie trainer and a copy of its checkpoint in ``tmp_path``.

    The trainer is shared by the module's tests, which only read it; each
    test loads its own copy of the file into its own fresh trainer.
    """

    def get(**kw):
        trainer, saved = trained_runs(**kw)
        path = tmp_path / "checkpoint.json"
        shutil.copyfile(saved, path)
        return trainer, path

    return get


def _fresh_trainer(tmp_path, seed=1, method="maie", **kw):
    cfg = _run_args(tmp_path, method=method, seed=seed, **kw)
    return Trainer(envs.make_env(cfg.env, cfg.seed), cfg.train_config())


def _rewrite(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    bad = path.with_name("edited.json")
    bad.write_text(json.dumps(payload))
    return str(bad)


def test_checkpoint_round_trip(tmp_path, trained_checkpoint):
    trainer, path = trained_checkpoint()
    fresh = _fresh_trainer(tmp_path)
    assert not np.array_equal(fresh.head.params["actor1.w"].data, trainer.head.params["actor1.w"].data)
    cli.load_checkpoint(str(path), fresh)

    want, got = trainer.named_parameters(), fresh.named_parameters()
    assert list(got) == list(want)
    for name in want:
        np.testing.assert_array_equal(got[name].data, want[name].data, err_msg=name)
    for m in trainer.modalities:
        assert trainer.stats[m].mu.any()
        np.testing.assert_array_equal(fresh.stats[m].mu, trainer.stats[m].mu)
        np.testing.assert_array_equal(fresh.stats[m].var, trainer.stats[m].var)
    assert len(fresh.opt.state) == len(trainer.opt.state) == len(want)
    for name in want:
        m_want, v_want, t_want = trainer.opt.state[want[name]]
        m_got, v_got, t_got = fresh.opt.state[got[name]]
        np.testing.assert_array_equal(m_got, m_want)
        np.testing.assert_array_equal(v_got, v_want)
        assert t_got == t_want > 0


def test_checkpoint_load_restores_features(tmp_path, trained_checkpoint):
    # a trainer seeded differently computes the saved trainer's features after loading
    trainer, path = trained_checkpoint()
    other = _fresh_trainer(tmp_path, seed=99)
    obs = envs.make_env("hetero_nav", 5).reset().modalities()["visual"]
    before, _ = modality_step(other.extractors["visual"], obs, zero_state())
    cli.load_checkpoint(str(path), other)
    want, _ = modality_step(trainer.extractors["visual"], obs, zero_state())
    got, _ = modality_step(other.extractors["visual"], obs, zero_state())
    assert not np.array_equal(before, want)
    np.testing.assert_array_equal(got, want)


def test_checkpoint_load_replaces_the_adam_state_whole(tmp_path):
    # a trainer that has stepped loads a file saved before any update: it keeps no moments of its own
    path = tmp_path / "before_any_update.json"
    cli.save_checkpoint(str(path), _fresh_trainer(tmp_path))
    assert json.loads(path.read_text())["adam"] == {}
    trainer = _fresh_trainer(tmp_path, seed=2)
    for _ in range(3):
        trainer.train_step()
    state = trainer.opt.state
    assert len(state) == len(trainer.named_parameters())

    def unknown_position(payload):
        payload["adam"]["999"] = {}

    before = {k: p.data.copy() for k, p in trainer.named_parameters().items()}
    with pytest.raises(ValueError, match="no parameter at that position"):
        cli.load_checkpoint(_rewrite(path, unknown_position), trainer)
    assert trainer.opt.state is state and len(state) == len(before)  # a rejected file changes nothing
    for name, p in trainer.named_parameters().items():
        np.testing.assert_array_equal(p.data, before[name])

    cli.load_checkpoint(str(path), trainer)
    fresh = _fresh_trainer(tmp_path, seed=3)
    cli.load_checkpoint(str(path), fresh)
    assert trainer.opt.state == fresh.opt.state == {}
    for name, p in fresh.named_parameters().items():
        np.testing.assert_array_equal(trainer.named_parameters()[name].data, p.data)


def test_checkpoint_rejects_parameter_shape_mismatch(tmp_path, trained_checkpoint):
    _, path = trained_checkpoint()

    def wrong_shape(payload):
        payload["params"]["visual.conv1.w"] = {"shape": [2, 2], "data": [0.0] * 4}

    with pytest.raises(ValueError, match="shape"):
        cli.load_checkpoint(_rewrite(path, wrong_shape), _fresh_trainer(tmp_path))


def test_checkpoint_rejects_unknown_format(tmp_path, trained_checkpoint):
    _, path = trained_checkpoint()

    def other_format(payload):
        payload["format"] = "maie-checkpoint-v0"

    with pytest.raises(ValueError, match="format"):
        cli.load_checkpoint(_rewrite(path, other_format), _fresh_trainer(tmp_path))


def _assert_rejected_unchanged(bad_path, match, tmp_path, **kw):
    """Loading ``bad_path`` raises ValueError matching ``match`` and leaves a fresh trainer (of config ``kw``) as it was."""
    fresh = _fresh_trainer(tmp_path, **kw)
    before = {k: v.data.copy() for k, v in fresh.named_parameters().items()}
    stats_before = {m: (st.mu.copy(), st.var.copy()) for m, st in fresh.stats.items()}
    with pytest.raises(ValueError, match=match):
        cli.load_checkpoint(bad_path, fresh)
    assert fresh.opt.state == {}  # a rejected file changes nothing, bit for bit
    for name, p in fresh.named_parameters().items():
        assert p.data.tobytes() == before[name].tobytes(), name
    for m, (mu, var) in stats_before.items():
        assert (fresh.stats[m].mu.tobytes(), fresh.stats[m].var.tobytes()) == (mu.tobytes(), var.tobytes()), m


def _adam_key(trainer, name):
    """The checkpoint's Adam key of a parameter: its position in ``named_parameters()``."""
    return str(list(trainer.named_parameters()).index(name))


def test_checkpoint_stores_adam_moments_as_float64_bytes(tmp_path, trained_checkpoint):
    trainer, path = trained_checkpoint()
    key = _adam_key(trainer, "visual.lstm.w_hh")
    entry = json.loads(path.read_text())["adam"][key]
    m, v, t = trainer.opt.state[trainer.named_parameters()["visual.lstm.w_hh"]]
    assert entry["shape"] == [128, 32] and entry["t"] == t
    assert base64.b64decode(entry["m"]) == m.astype("<f8").tobytes()
    assert base64.b64decode(entry["v"]) == v.astype("<f8").tobytes()


def test_checkpoint_rejects_transposed_adam_moment(tmp_path, trained_checkpoint):
    trainer, path = trained_checkpoint()
    key = _adam_key(trainer, "visual.lstm.w_hh")

    def transposed(payload):
        entry = payload["adam"][key]
        m = np.frombuffer(base64.b64decode(entry["m"]), dtype="<f8").reshape(entry["shape"])
        entry["m"] = base64.b64encode(np.ascontiguousarray(m.T).tobytes()).decode("ascii")
        entry["shape"] = entry["shape"][::-1]

    _assert_rejected_unchanged(_rewrite(path, transposed), r"adam .*\(32, 128\)", tmp_path)


def test_checkpoint_rejects_adam_moment_one_float_short(tmp_path, trained_checkpoint):
    trainer, path = trained_checkpoint()
    key = _adam_key(trainer, "visual.lstm.w_hh")

    def cut(payload):
        entry = payload["adam"][key]
        entry["v"] = base64.b64encode(base64.b64decode(entry["v"])[:-8]).decode("ascii")

    _assert_rejected_unchanged(_rewrite(path, cut), rf"adam {key} v: 32760 bytes .*\(128, 32\)", tmp_path)


def test_checkpoint_rejects_adam_moment_that_is_not_base64(tmp_path, trained_checkpoint):
    trainer, path = trained_checkpoint()
    key = _adam_key(trainer, "visual.lstm.w_hh")

    def garbled(payload):
        payload["adam"][key]["m"] = "*" + payload["adam"][key]["m"][1:]

    _assert_rejected_unchanged(_rewrite(path, garbled), rf"adam {key} m: not base64", tmp_path)


def test_checkpoint_rejects_v1_format(tmp_path, trained_checkpoint):
    _, path = trained_checkpoint()

    def v1(payload):
        payload["format"] = "maie-checkpoint-v1"

    _assert_rejected_unchanged(_rewrite(path, v1), "format 'maie-checkpoint-v1'", tmp_path)


def test_checkpoint_rejects_adam_entry_for_no_parameter(tmp_path, trained_checkpoint):
    # "-1" would otherwise index the last parameter, head.critic3.b
    trainer, path = trained_checkpoint()
    last = str(len(trainer.named_parameters()) - 1)

    def moved(payload):
        payload["adam"]["-1"] = payload["adam"].pop(last)

    with pytest.raises(ValueError, match="adam -1"):
        cli.load_checkpoint(_rewrite(path, moved), _fresh_trainer(tmp_path))


@pytest.mark.parametrize("key", ["01", "+1", " 1", "1_0", "visual.lstm.w_hh"])
def test_checkpoint_rejects_adam_key_not_written_as_a_position(key, tmp_path, trained_checkpoint):
    # int() reads the first four as 1; an extra entry there must not overwrite position 1's moments
    _, path = trained_checkpoint()

    def extra(payload):
        payload["adam"][key] = dict(payload["adam"]["1"], t=999)

    _assert_rejected_unchanged(_rewrite(path, extra), re.escape(f"adam {key}: no parameter"), tmp_path)


@pytest.mark.parametrize("t", [2.7, 0, -1, True])
def test_checkpoint_rejects_adam_step_count_that_is_not_a_positive_integer(t, tmp_path, trained_checkpoint):
    # int() would read 2.7 as 2 and accept 0 and -1; a count below 1 divides by zero at the next step
    _, path = trained_checkpoint()

    def miscounted(payload):
        payload["adam"]["1"]["t"] = t

    _assert_rejected_unchanged(_rewrite(path, miscounted), re.escape(f"adam 1: step count t={t!r}"), tmp_path)


@pytest.mark.parametrize("value", ["0.25", True, math.nan, math.inf, -math.inf, 10**400],
                         ids=["string", "bool", "nan", "inf", "-inf", "huge_int"])
@pytest.mark.parametrize("section", ["params", "stats"])
def test_checkpoint_rejects_an_entry_that_is_not_a_finite_number(section, value, tmp_path, trained_checkpoint):
    # np.asarray would read "0.25" as 0.25 and true as 1.0; the last parameter, so nothing before it is assigned
    _, path = trained_checkpoint()

    def edit(payload):
        entries = payload["params"]["head.critic3.b"]["data"] if section == "params" else payload["stats"]["audio"]["mu"]
        entries[0] = value

    match = {str: "not a list of JSON numbers", bool: "not a list of JSON numbers", int: "beyond float64"}.get(
        type(value), "non-finite")
    _assert_rejected_unchanged(_rewrite(path, edit), match, tmp_path)


def _set(*path, value):
    """An edit that sets ``payload[k1][k2]...`` to ``value`` and returns the payload."""

    def edit(payload):
        node = payload
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = value
        return payload

    return edit


STRUCTURE_FAULTS = {
    "file_a_list": (lambda payload: [], "file: not a JSON object"),
    "params_a_list": (_set("params", value=[]), "params: not a JSON object"),
    "params_entry_a_list": (_set("params", "head.critic3.b", value=[0.0]), "parameter head.critic3.b: not a JSON object"),
    "params_shape_of_text": (_set("params", "head.critic3.b", "shape", value=["a"]),
                             re.escape("parameter head.critic3.b: shape ['a'] is not a list of integers >= 0")),
    "stats_null": (_set("stats", value=None), "stats: not a JSON object"),
    "stats_entry_a_number": (_set("stats", "audio", value=3), "stats audio: not a JSON object"),
    "adam_a_list": (_set("adam", value=[]), "adam: not a JSON object"),
    "adam_shape_a_number": (_set("adam", "1", "shape", value=7), "adam 1: shape 7 is not a list of integers >= 0"),
    "adam_entry_null": (_set("adam", "1", value=None), "adam 1: not a JSON object"),
}


@pytest.mark.parametrize("fault", sorted(STRUCTURE_FAULTS))
def test_checkpoint_rejects_a_structurally_wrong_file(fault, tmp_path, trained_checkpoint):
    # a wrong JSON type is a ValueError like every other rejection, not an AttributeError or a TypeError
    _, path = trained_checkpoint()
    edit, match = STRUCTURE_FAULTS[fault]
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(edit(json.loads(path.read_text()))))
    _assert_rejected_unchanged(str(bad), match, tmp_path)


def test_checkpoint_rejects_a_negative_variance(tmp_path, trained_checkpoint):
    # 1/sqrt(var + eps) of a negative var is NaN
    _, path = trained_checkpoint()

    def negative(payload):
        payload["stats"]["visual"]["var"][5] = -0.5

    _assert_rejected_unchanged(_rewrite(path, negative), "stats visual var: a negative entry", tmp_path)


@pytest.mark.parametrize("moment,value", [("m", math.nan), ("m", -math.inf), ("v", math.inf), ("v", -1.0)],
                         ids=["nan_m", "-inf_m", "inf_v", "negative_v"])
def test_checkpoint_rejects_an_adam_moment_the_next_step_cannot_use(moment, value, tmp_path, trained_checkpoint):
    # the right length and shape, so only the values are wrong: a NaN or an infinity spreads into the
    # parameter at the next step, and a negative v makes its square root NaN
    trainer, path = trained_checkpoint()
    key = _adam_key(trainer, "head.critic3.b")  # the last parameter, so nothing before it is assigned

    def edit(payload):
        entry = payload["adam"][key]
        arr = np.frombuffer(base64.b64decode(entry[moment]), dtype="<f8").copy()
        arr[0] = value
        entry[moment] = base64.b64encode(arr.tobytes()).decode("ascii")

    _assert_rejected_unchanged(_rewrite(path, edit), rf"adam {key}: a NaN or an infinity in m or v, or a negative v",
                               tmp_path)


def test_checkpoint_loads_a_one_ulp_change(tmp_path, trained_checkpoint):
    trainer, path = trained_checkpoint()
    want = np.nextafter(trainer.named_parameters()["visual.conv1.w"].data.reshape(-1)[0], np.inf)

    def nudge(payload):
        payload["params"]["visual.conv1.w"]["data"][0] = float(want)

    fresh = _fresh_trainer(tmp_path)
    cli.load_checkpoint(_rewrite(path, nudge), fresh)
    assert fresh.named_parameters()["visual.conv1.w"].data.reshape(-1)[0] == want


def test_adam_state_and_checkpoint_keys_follow_the_registry(tmp_path):
    trainer = _fresh_trainer(tmp_path)
    trainer.train_step()
    params = trainer.named_parameters()
    assert trainer.opt.state.keys() == set(params.values())  # one entry per parameter, keyed by the Value
    path = tmp_path / "checkpoint.json"
    cli.save_checkpoint(str(path), trainer)
    adam = json.loads(path.read_text())["adam"]
    assert list(adam) == [str(i) for i in range(len(params))]
    for i, p in enumerate(params.values()):
        m, _, t = trainer.opt.state[p]
        assert adam[str(i)]["t"] == t > 0
        assert base64.b64decode(adam[str(i)]["m"]) == m.astype("<f8").tobytes()


def _assert_same_text(got: str, want: str):
    """``got == want``, compared by length and sha256 so that a mismatch of megabytes reports in moments.

    On a mismatch the message names the first offset at which the texts differ.
    """
    if (len(got), hashlib.sha256(got.encode()).digest()) != (len(want), hashlib.sha256(want.encode()).digest()):
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"texts of {len(got)} and {len(want)} characters first differ at offset {at}: "
                    f"{got[at : at + 40]!r} != {want[at : at + 40]!r}")


@pytest.mark.parametrize("method, trained", [("maie", True), ("concat", True), ("maie", False)],
                         ids=["maie", "concat", "before_any_update"])
def test_checkpoint_streams_the_bytes_of_the_whole_payload(method, trained, tmp_path, trained_runs):
    # the file is what one json.dumps of the whole payload writes, and saving what it loads writes it again
    trainer = trained_runs(method=method)[0] if trained else _fresh_trainer(tmp_path, method=method)
    path, again = tmp_path / "checkpoint.json", tmp_path / "again.json"
    cli.save_checkpoint(str(path), trainer)
    text = path.read_text()
    _assert_same_text(text, checkpoint_text(trainer))
    assert text.endswith(',"adam":{}}') != trained
    fresh = _fresh_trainer(tmp_path, seed=2, method=method)
    assert checkpoint_text(fresh) != text
    cli.load_checkpoint(str(path), fresh)
    cli.save_checkpoint(str(again), fresh)
    _assert_same_text(again.read_text(), text)


K = cli.SLICE_FLOATS


def _floats(n: int) -> np.ndarray:
    """``n`` floats of many magnitudes and signs, -0.0 and whole numbers included."""
    rng = np.random.default_rng(n)
    arr = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    arr[::7] = np.round(arr[::7] * 1e-290)
    arr[::11] = -0.0
    return arr


@pytest.mark.parametrize("n", [0, 1, K // 2 - 1, K // 2, K // 2 + 1, K - 1, K, K + 1, 2 * K + 1])
def test_a_float_list_written_in_slices_is_the_text_of_the_whole_list(n):
    arr = _floats(n)
    chunks = list(cli._json_chunks(cli._Floats(arr)))
    assert "".join(chunks) == json.dumps(arr.tolist(), separators=(",", ":"))
    assert len(chunks) == 2 + -(-n // K)  # the brackets, then one chunk per slice
    shaped = arr[: n - n % 6].reshape(2, 3, -1)  # written row-major, as a parameter's data is stored
    assert "".join(cli._json_chunks(cli._Floats(shaped))) == json.dumps(shaped.reshape(-1).tolist(),
                                                                        separators=(",", ":"))


@pytest.mark.parametrize("n", [1, 2, 3, K // 2 + 1, K + 1, K + 2, 2 * K + 2])
def test_a_moment_written_in_slices_is_the_base64_of_the_whole_array(n):
    # K is a multiple of 3 floats, 24 bytes, so no slice but the last ends in base64 padding
    assert K % 3 == 0
    arr = _floats(n)
    chunks = list(cli._json_chunks(cli._Floats(arr, as_base64=True)))
    assert "".join(chunks) == json.dumps(base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii"))
    assert len(chunks) == 2 + -(-n // K)  # the quotes, then one chunk per slice


def _assert_float_text(values):
    """``cli._float_text`` of the values is ``_dumps`` of their list, brackets stripped; a mismatch names its value."""
    values = np.asarray(values, dtype=np.float64)
    got = cli._float_text(values).split(",")
    want = json.dumps(values.tolist(), separators=(",", ":"))[1:-1].split(",")
    wrong = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert wrong is None, f"value {wrong}, {values[wrong]!r}: {got[wrong]!r} != {want[wrong]!r}"
    assert len(got) == len(want)


def _within_the_digit_rows(value: float, n: int = cli._FAST_MIN) -> np.ndarray:
    """``n`` values of the digit rows' range with ``value`` first, in the middle and last."""
    arr = np.random.default_rng(0).uniform(-1.0, 1.0, n) * 10.0 ** -(np.arange(n) % 4)
    arr[[0, n // 2, -1]] = value
    return arr


_EDGES = [np.nextafter(b, to).item() for b in (1e-4, 1e-3, 0.01, 0.1, 1.0) for to in (0.0, 2.0)]
_SHORTEST = {0.12345678901234: 14, -0.000999999999999999: 15, 0.123456789012345: 15, 0.1234567890123456: 16,
             0.0001234567890123457: 16, 0.12345678901234568: 17, 0.30000000000000004: 17, 0.3: 1, 0.001: 1,
             0.20223617553710938: 17, 0.6206016540527344: 16}  # the last two, j / 2**18, are ties at 17 digits


@pytest.mark.parametrize("value", [*_EDGES, 1e-4, 1e-3, 0.01, 0.1, 0.0625, -0.5, 2.0**-14, *_SHORTEST,
                                   0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0, -1e16])
def test_the_digit_rows_write_each_hard_case_as_repr_does(value):
    # a decade's edges both ways, powers of two, shortest forms of 1 to 17 digits, and values left out
    if value in _SHORTEST:
        assert len(repr(abs(value)).split(".")[1].lstrip("0")) == _SHORTEST[value]
    _assert_float_text(_within_the_digit_rows(value))
    _assert_float_text(-_within_the_digit_rows(value))


@pytest.mark.parametrize("n", [cli._FAST_MIN - 1, cli._FAST_MIN, cli._FAST_MIN + 1, K - 1, K, K + 1])
def test_an_array_around_the_cutoff_and_the_slice_size_is_written_as_repr_does(n):
    arr = _within_the_digit_rows(0.1, n)
    _assert_float_text(arr)
    assert "".join(cli._json_chunks(cli._Floats(arr))) == json.dumps(arr.tolist(), separators=(",", ":"))


@pytest.mark.parametrize("value", [1.0, 0.5, 0.0, math.nan])
def test_an_array_of_mostly_left_out_values_is_written_as_repr_does(value):
    # concat's λ trace is all 1.0 and fixed_weights' mostly 0.5: every value, or most, is left to the per-value text
    arr = np.full(K, value)
    _assert_float_text(arr)
    arr[::3] = 0.25 + np.arange(arr[::3].size) * 1e-5
    _assert_float_text(arr)
    assert cli._float_text(arr, cli._repr_text) == ",".join(map(repr, arr.tolist()))


_BITS = st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, np.uint64).view(np.float64)))
_IN_RANGE = st.floats(1e-4, 1.0, exclude_max=True) | st.floats(-1.0, -1e-4, exclude_min=True)
_SHORT = st.integers(1, 10**6).flatmap(lambda i: st.sampled_from([i / 10**k for k in range(7, 11)]))


@settings(max_examples=150, deadline=None)
@given(st.lists(_BITS | _IN_RANGE | _SHORT | st.floats(), min_size=1, max_size=64), st.integers(0, 2**32 - 1))
def test_any_float64_is_written_as_repr_does(drawn, seed):
    # arbitrary bit patterns (NaN, infinities, zeros, subnormals, powers of two), the digit rows' range and
    # short decimals, placed at random among uniform draws of that range so that the digit rows run
    rng = np.random.default_rng(seed)
    arr = rng.uniform(-1.0, 1.0, cli._FAST_MIN + len(drawn))
    arr[rng.choice(arr.size, len(drawn), replace=False)] = drawn
    _assert_float_text(arr)


@pytest.mark.parametrize("width", [1, 3, 32])
@pytest.mark.parametrize("n_rows", [0, 1, 2, cli.SLICE_FLOATS // 32 + 1, cli.SLICE_FLOATS // 3 + 1])
def test_the_trace_and_embedding_lines_are_those_of_repr(width, n_rows, tmp_path):
    # the float text goes a block of rows at a time through the digit rows, and a non-finite value keeps
    # repr's nan and inf (json writes NaN and Infinity), against the per-value _write_csv the writers replace
    rng = np.random.default_rng(width * 1000 + n_rows)
    floats = rng.uniform(-1.0, 1.0, (n_rows, width)) * 10.0 ** -rng.integers(0, 6, (n_rows, width))
    special = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 0.5, 5e-324, 1e300, 0.1]
    floats.flat[rng.choice(floats.size, min(floats.size, len(special)), replace=False)] = special[: floats.size]
    for write, columns, vec in ((cli._write_lambda_trace, ("eval", 3, 17, -1), tuple),
                                (cli._write_embeddings, ("train", 0, 5, "visual"), np.array)):
        rows = [(*columns[:2], i, columns[3], vec(f.tolist())) for i, f in enumerate(floats)]
        want = [["h"] * 5] + [[*r[:-1], *np.asarray(r[-1]).tolist()] for r in rows]
        cli._write_csv(str(tmp_path / "want.csv"), want[0], want[1:])
        if write is cli._write_lambda_trace:
            write(str(tmp_path / "got.csv"), rows, [f"m{i}" for i in range(width)])
        elif width == 32:
            write(str(tmp_path / "got.csv"), rows)
        else:
            continue
        got, want = ((tmp_path / f).read_text().split("\n")[1:] for f in ("got.csv", "want.csv"))
        wrong = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
        assert wrong is None, (wrong, got[wrong], want[wrong])
        assert len(got) == len(want) == n_rows + 1  # the last line's newline, then nothing


def _bogus_parameter(payload):
    payload["params"]["bogus.w"] = {"shape": [1], "data": [0.0]}


def _extra_modality(payload):
    payload["stats"]["smell"] = dict(payload["stats"]["audio"])


def _extra_table(payload):
    payload["notes"] = {}


def _extra_field(payload):
    payload["params"]["head.critic3.b"]["grad"] = [0.0]


@pytest.mark.parametrize("edit, match", [
    (_bogus_parameter, "checkpoint params: an entry 'bogus.w'"),
    (_extra_modality, "checkpoint stats: an entry 'smell'"),
    (_extra_table, "checkpoint file: an entry 'notes'"),
    (_extra_field, "checkpoint parameter head.critic3.b: an entry 'grad'"),
], ids=["params_entry", "stats_modality", "table", "entry_field"])
def test_checkpoint_rejects_an_entry_a_save_would_not_write_again(edit, match, tmp_path, trained_checkpoint):
    # a load that ignored it would leave a file that a save of the loaded trainer does not write again
    _, path = trained_checkpoint()
    _assert_rejected_unchanged(_rewrite(path, edit), match, tmp_path)


@pytest.mark.parametrize("existing", [False, True], ids=["new_target", "existing_target"])
def test_a_write_whose_chunks_raise_leaves_no_temp_file_and_the_target_as_it_was(existing, tmp_path):
    path = tmp_path / "out.json"
    if existing:
        path.write_text("before")

    def chunks():
        yield "part of a file"
        raise RuntimeError("no more chunks")

    with pytest.raises(RuntimeError, match="no more chunks"):
        cli._atomic_write(str(path), chunks())
    assert os.listdir(tmp_path) == (["out.json"] if existing else [])
    if existing:
        assert path.read_text() == "before"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator setting is glibc's mallopt")
def test_a_warmed_update_reuses_the_memory_it_freed():
    # importing maie keeps freed buffers in the heap; with glibc's defaults each update page-faulted its
    # temporaries of 128 KiB or more, such as the conv patch matrices, in again (about 800 faults here)
    assert ad.keep_freed_buffers()
    cfg = RunConfig(env="mining_plus", method="concat", seed=1)
    trainer = Trainer(envs.make_env(cfg.env, cfg.seed), cfg.train_config())
    for _ in range(3):
        trainer.train_step()
    faults = []
    for _ in range(5):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        trainer.train_step()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert max(faults) < 100, faults


def test_checkpoint_rejects_stats_of_another_xi(tmp_path, trained_checkpoint):
    _, path = trained_checkpoint(xi=0.2)
    with pytest.raises(ValueError, match="xi=0.2"):
        cli.load_checkpoint(str(path), _fresh_trainer(tmp_path))


@pytest.mark.parametrize("key, field", [("xi", "xi"), ("eps", "stats_eps")])
def test_checkpoint_rejects_a_stats_setting_stored_as_true(key, field, tmp_path, trained_checkpoint):
    # true == 1.0, so a check by value alone would load it into a trainer at 1.0, whose save writes 1.0, not true
    _, path = trained_checkpoint(**{field: 1.0})
    cli.load_checkpoint(str(path), _fresh_trainer(tmp_path, **{field: 1.0}))  # the file as saved loads

    def as_true(payload):
        payload["stats"]["visual"][key] = True

    _assert_rejected_unchanged(_rewrite(path, as_true), f"stats visual {key}: True is not a JSON number", tmp_path,
                               **{field: 1.0})


def test_run_info_splits_out_the_write_seconds(tmp_path):
    for eval_episodes in (0, 2):
        out = tmp_path / f"eval{eval_episodes}"
        assert cli.run(_run_args(tmp_path, eval_episodes=eval_episodes, out=str(out))) == 0
        info = json.loads((out / "run_info.json").read_text())
        for key in ("wall_seconds", "cpu_seconds", "eval_seconds", "artifacts_seconds", "checkpoint_seconds"):
            assert isinstance(info[key], float) and info[key] >= 0.0, key
        assert info["eval_seconds"] < info["wall_seconds"]
        # one BLAS thread and no other: the process cannot spend more CPU time than wall time
        assert info["blas_threads"] == ad.blas_threads() == (1 if _NUMPY_HAS_OPENBLAS else None)
        # the kernel set and numpy's version, without which the artifacts' bits cannot be compared
        assert info["numpy_version"] == np.__version__
        assert info["blas_core"] == ad.blas_core()
        assert (type(info["blas_core"]) is str and info["blas_core"] != "") if _NUMPY_HAS_OPENBLAS else info["blas_core"] is None
        assert 0.0 < info["cpu_seconds"] <= 1.05 * info["wall_seconds"] + 0.01
        # episodes and env_steps count training only, so ms_per_env_step leaves the evaluation seconds out
        assert info["episodes"] == len(read_metrics_csv(out / "metrics.csv")["episode"])
        train_seconds = info["wall_seconds"] - info["eval_seconds"]
        assert info["ms_per_env_step"] == pytest.approx(1e3 * train_seconds / info["env_steps"], rel=1e-9)
        # the run's memory: the process's peak so far, and the page faults of training and the writes
        assert isinstance(info["max_rss_mb"], float) and 0.0 < info["max_rss_mb"] <= cli._max_rss_mb()
        assert type(info["minor_faults"]) is int and info["minor_faults"] >= 0
    assert (out / "eval.csv").exists()


def test_a_second_run_into_one_directory_is_refused_and_writes_nothing(tmp_path, capsys):
    # it would replace the first run's files one by one and leave that run's eval.csv beside its own
    out = tmp_path / "run"
    assert cli.run(_run_args(tmp_path, eval_episodes=1)) == 0
    first = {f: (out / f).read_bytes() for f in os.listdir(out)}
    assert "eval.csv" in first
    assert cli.run(_run_args(tmp_path, env="mining", method="maie")) == 1
    assert f"configuration error: output directory {out} already holds" in capsys.readouterr().err
    assert {f: (out / f).read_bytes() for f in os.listdir(out)} == first


def test_rerunning_a_saved_config_without_out_leaves_the_source_run_as_it_was(tmp_path, capsys):
    # config.json names the run's own directory, so without --out the re-run would write into it
    out = tmp_path / "run"
    assert cli.run(_run_args(tmp_path)) == 0
    first = {f: (out / f).read_bytes() for f in os.listdir(out)}
    assert cli.main(["run", "--config", str(out / "config.json"), "--episodes", "3"]) == 1
    assert "configuration error: output directory" in capsys.readouterr().err
    assert {f: (out / f).read_bytes() for f in os.listdir(out)} == first


def test_a_second_sweep_into_one_directory_is_refused_before_any_run(tmp_path, capsys):
    # its runs would each be refused, and it would replace the first sweep's summary.csv with an empty one
    out = tmp_path / "sw"
    flags = ["sweep", "--env", "hetero_nav", "--methods", "concat", "--seeds", "1", "--max-env-steps", "300",
             "--out", str(out)]
    assert cli.main(flags) == 0
    first = (out / "summary.csv").read_bytes()
    assert cli.main(flags) == 1
    assert f"configuration error: output directory {out} already holds summary.csv" in capsys.readouterr().err
    assert (out / "summary.csv").read_bytes() == first


def test_run_trains_into_an_empty_existing_directory(tmp_path):
    out = tmp_path / "made"
    out.mkdir()
    assert cli.run(_run_args(tmp_path, out=str(out))) == 0
    assert (out / "checkpoint.json").exists()


def test_no_temp_files_left_behind(tmp_path):
    cfg = _run_args(tmp_path)
    cli.run(cfg)
    leftovers = [f for f in os.listdir(tmp_path / "run") if f.endswith(".tmp")]
    assert leftovers == []


def test_sweep_single_seed_zero_std(tmp_path):
    cfg = _run_args(tmp_path, out=str(tmp_path / "sw"))
    rc = cli.sweep(cfg, seeds=[3], methods=["concat"], jobs=1)
    assert rc == 0
    lines = (tmp_path / "sw" / "summary.csv").read_text().strip().split("\n")
    assert lines[0].startswith("env,method,seeds,final_return_mean,final_return_std")
    cells = lines[1].split(",")
    assert cells[1] == "concat"
    assert float(cells[4]) == 0.0


def test_sweep_summary_ordering_and_std(tmp_path):
    cfg = _run_args(tmp_path, out=str(tmp_path / "sw2"), episodes=2)
    rc = cli.sweep(cfg, seeds=[1, 2, 3], methods=["maie", "concat"], jobs=1)
    assert rc == 0
    lines = (tmp_path / "sw2" / "summary.csv").read_text().strip().split("\n")
    methods = [line.split(",")[1] for line in lines[1:]]
    assert methods == sorted(methods)  # lexicographic ordering

    # hand-check the std over per-seed final windows
    finals = []
    for seed in (1, 2, 3):
        stats = final_window_stats(str(tmp_path / "sw2" / f"concat_seed{seed}" / "metrics.csv"))
        finals.append(stats["return"])
    row = [line for line in lines[1:] if line.split(",")[1] == "concat"][0]
    assert float(row.split(",")[4]) == pytest.approx(np.std(finals))


def test_sweep_fails_when_no_run_finishes_an_episode(tmp_path, capsys):
    out = tmp_path / "sw"
    rc = cli.main(["sweep", "--env", "hetero_nav", "--methods", "maie,concat", "--seeds", "1,2",
                   "--max-env-steps", "64", "--out", str(out)])
    assert rc == 1
    lines = (out / "summary.csv").read_text().strip().split("\n")
    assert lines == ["env,method,seeds,final_return_mean,final_return_std,final_success_mean,final_success_std"]
    assert capsys.readouterr().err.count("no finished episode") == 4


def test_sweep_carries_on_past_a_failed_run(tmp_path, capsys):
    out = tmp_path / "sw"
    (out / "maie_seed1" / "metrics.csv").mkdir(parents=True)  # the maie run cannot write its metrics
    rc = cli.main(["sweep", "--env", "hetero_nav", "--methods", "maie,concat", "--seeds", "1",
                   "--max-env-steps", "300", "--out", str(out)])
    assert rc == 0
    rows = [line.split(",")[1] for line in (out / "summary.csv").read_text().strip().split("\n")[1:]]
    assert rows == ["concat"]
    assert "run failed: method=maie seed=1 status=1 IsADirectoryError" in capsys.readouterr().err


def test_parallel_sweep_workers_each_run_a_single_blas_thread(tmp_path, monkeypatch):
    # the workers inherit a three-thread setting, and importing maie still pins them to one
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    before = dict(os.environ)
    spawn = cli.mp.get_context("spawn")
    seen = []

    def pool(processes):  # the real spawn pool, asked first how many BLAS threads its workers run
        workers = spawn.Pool(processes=processes)
        seen.append(workers.starmap(ad.blas_threads, [()] * processes))
        return workers

    monkeypatch.setattr(cli, "mp", types.SimpleNamespace(get_context=lambda method: types.SimpleNamespace(Pool=pool)))
    cfg = _run_args(tmp_path, out=str(tmp_path / "sw"))
    assert cli.sweep(cfg, seeds=[1, 2], methods=["concat"], jobs=2) == 0  # two runs, so two workers
    one = 1 if _NUMPY_HAS_OPENBLAS else None
    assert seen == [[one, one]]
    assert json.loads((tmp_path / "sw" / "concat_seed1" / "run_info.json").read_text())["blas_threads"] == one
    assert dict(os.environ) == before
    assert cli.run(_run_args(tmp_path, out=str(tmp_path / "solo"))) == 0
    assert (tmp_path / "sw" / "concat_seed1" / "metrics.csv").read_bytes() == \
        (tmp_path / "solo" / "metrics.csv").read_bytes()


@pytest.mark.parametrize("jobs, seeds, workers", [(4, [1], 1), (3, [1, 2], 2), (2, [1, 2, 3], 2)])
def test_sweep_starts_no_more_workers_than_runs(jobs, seeds, workers, tmp_path, monkeypatch):
    sizes, mapped = [], []

    class Pool:  # records its size and the tasks it is given, and starts no process
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            mapped.extend(tasks)
            return [{"method": m, "seed": s, "status": 1} for _, m, s in tasks]

    monkeypatch.setattr(cli, "mp", types.SimpleNamespace(get_context=lambda method: types.SimpleNamespace(Pool=Pool)))
    assert cli.sweep(_run_args(tmp_path, out=str(tmp_path / "sw")), seeds=seeds, methods=["concat"], jobs=jobs) == 1
    assert sizes == [workers]
    assert [s for _, _, s in mapped] == seeds


@pytest.mark.skipif(not _NUMPY_HAS_OPENBLAS, reason="numpy is built without OpenBLAS")
def test_importing_maie_pins_blas_to_a_single_thread_whatever_the_environment():
    # no flag, config field or environment variable selects the thread count: a fresh interpreter told
    # to use two threads runs one once it imports maie, and the variable itself is left as it was
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": src}
    code = "import os, maie.cli; print(maie.autodiff.blas_threads(), os.environ['OPENBLAS_NUM_THREADS'])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "2"]


def test_pinning_blas_a_second_time_changes_nothing():
    a, b = np.random.default_rng(0).standard_normal((2, 256, 256))
    before = a @ b
    assert ad.one_blas_thread() == ad.one_blas_thread() == ad.blas_threads() == (1 if _NUMPY_HAS_OPENBLAS else None)
    np.testing.assert_array_equal(a @ b, before)


def test_final_window_stats_fraction(tmp_path):
    rows = [{"episode": i, "env_steps": i, "return": float(i), "success": 1,
             **dict.fromkeys(LOSS_COLUMNS, 0.0), "lambda_visual": 1.0} for i in range(20)]
    cli.write_metrics_csv(str(tmp_path / "metrics.csv"), rows, ["visual"])
    stats = final_window_stats(str(tmp_path / "metrics.csv"), window_fraction=0.1)
    assert stats["return"] == pytest.approx(np.mean([18.0, 19.0]))
