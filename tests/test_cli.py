import base64
import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

from maie import autodiff as ad
from maie import cli, envs
from maie.agent import LOSS_COLUMNS, Trainer
from maie.cli import RunConfig, final_window_stats, read_metrics_csv


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
], ids=["method_twice", "seed_twice", "same_seed_spelt_twice", "jobs_0", "jobs_-2"])
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
    """Per config, a maie trainer after two episodes and the checkpoint it saved, trained once per module."""
    saved = {}

    def get(**kw):
        key = tuple(sorted(kw.items()))
        if key not in saved:
            root = tmp_path_factory.mktemp("trained")
            cfg = _run_args(root, method="maie", **kw)
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


def _fresh_trainer(tmp_path, seed=1):
    cfg = _run_args(tmp_path, method="maie", seed=seed)
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
    before, _ = other.extractors["visual"].forward(obs, other.extractors["visual"].initial_state())
    cli.load_checkpoint(str(path), other)
    want, _ = trainer.extractors["visual"].forward(obs, trainer.extractors["visual"].initial_state())
    got, _ = other.extractors["visual"].forward(obs, other.extractors["visual"].initial_state())
    assert not np.array_equal(before, want)
    np.testing.assert_array_equal(got, want)


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


def _assert_rejected_unchanged(bad_path, match, tmp_path):
    """Loading ``bad_path`` raises ValueError matching ``match`` and leaves a fresh trainer as it was."""
    fresh = _fresh_trainer(tmp_path)
    before = {k: v.data.copy() for k, v in fresh.named_parameters().items()}
    stats_before = {m: (st.mu.copy(), st.var.copy()) for m, st in fresh.stats.items()}
    with pytest.raises(ValueError, match=match):
        cli.load_checkpoint(bad_path, fresh)
    assert fresh.opt.state == {}  # a rejected file changes nothing
    for name, p in fresh.named_parameters().items():
        np.testing.assert_array_equal(p.data, before[name])
    for m, (mu, var) in stats_before.items():
        np.testing.assert_array_equal(fresh.stats[m].mu, mu)
        np.testing.assert_array_equal(fresh.stats[m].var, var)


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


def test_checkpoint_rejects_stats_of_another_xi(tmp_path, trained_checkpoint):
    _, path = trained_checkpoint(xi=0.2)
    with pytest.raises(ValueError, match="xi=0.2"):
        cli.load_checkpoint(str(path), _fresh_trainer(tmp_path))


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
        assert 0.0 < info["cpu_seconds"] <= 1.05 * info["wall_seconds"] + 0.01
        # env_steps counts training steps only, so ms_per_env_step leaves the evaluation seconds out
        train_seconds = info["wall_seconds"] - info["eval_seconds"]
        assert info["ms_per_env_step"] == pytest.approx(1e3 * train_seconds / info["env_steps"], rel=1e-9)
    assert (out / "eval.csv").exists()


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
    assert cli.sweep(cfg, seeds=[1], methods=["concat"], jobs=2) == 0
    one = 1 if _NUMPY_HAS_OPENBLAS else None
    assert seen == [[one, one]]
    assert json.loads((tmp_path / "sw" / "concat_seed1" / "run_info.json").read_text())["blas_threads"] == one
    assert dict(os.environ) == before
    assert cli.run(_run_args(tmp_path, out=str(tmp_path / "solo"))) == 0
    assert (tmp_path / "sw" / "concat_seed1" / "metrics.csv").read_bytes() == \
        (tmp_path / "solo" / "metrics.csv").read_bytes()


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
