import itertools

import numpy as np
import pytest

from maie import envs
from maie.envs import base as envbase
from maie.envs.mining import MESSAGES, VOCAB, encode_text

from env_oracles import PLANS, run_plan

ALL_ENVS = list(envs.ENV_NAMES)


# -- hetero_nav -------------------------------------------------------------


def test_hetero_nav_layout():
    env = envs.make_env("hetero_nav", 0)
    env.reset()
    assert env.agent == (0, 0)
    assert env.GOAL == (9, 9)


def test_hetero_nav_step_cost():
    env = envs.make_env("hetero_nav", 0)
    env.reset()
    _, reward, done = env.step(3)  # right
    assert env.agent == (0, 1)
    assert reward == -1.0
    assert not done


def test_hetero_nav_goal_reward():
    env = envs.make_env("hetero_nav", 0)
    env.reset()
    total, success, _ = run_plan(env, PLANS["hetero_nav"](env))
    assert success
    assert total == -16.0  # 18-step shortest path: 17 costs then +1


def test_hetero_nav_bearing_classes():
    env = envs.make_env("hetero_nav", 1)
    env.reset()
    env.agent = (5, 5)
    env._observe()
    assert env.last_audio_class == 3  # goal is down-right: SE
    env.agent = (9, 0)
    env._observe()
    assert env.last_audio_class == 2  # goal due east


# -- target_select ----------------------------------------------------------


def test_target_select_audio_line():
    env = envs.make_env("target_select", 3)
    env.reset()
    assert env.agent[1] != env.LINE_COL
    assert env.last_audio_class == -1  # off the line: noise only
    env.agent = (4, env.LINE_COL)
    env._observe()
    assert env.last_audio_class == env.target_type - 1


def test_target_select_same_seed_same_target_sequence():
    seq = []
    for _ in range(2):
        env = envs.make_env("target_select", 17)
        types = []
        for _ in range(10):
            env.reset()
            types.append(env.target_type)
        seq.append(types)
    assert seq[0] == seq[1]
    assert len(set(seq[0])) == 2  # both targets appear


def test_target_select_rewards():
    env = envs.make_env("target_select", 5)
    env.reset()
    correct = env.TARGET_1 if env.target_type == 1 else env.TARGET_2
    wrong = env.TARGET_2 if env.target_type == 1 else env.TARGET_1

    env.agent = (wrong[0], wrong[1] - 1)
    _, reward, done = env.step(3)
    assert reward == -1.0 and done and not env.last_success

    env.reset()
    correct = env.TARGET_1 if env.target_type == 1 else env.TARGET_2
    env.agent = (correct[0], correct[1] - 1)
    _, reward, done = env.step(3)
    assert reward == 1.0 and done and env.last_success


def test_target_select_targets_visually_identical():
    env = envs.make_env("target_select", 7)
    obs1 = env.reset()
    while env.target_type != 1:
        obs1 = env.reset()
    obs2 = env.reset()
    while env.target_type != 2:
        obs2 = env.reset()
    np.testing.assert_array_equal(obs1.visual[1], obs2.visual[1])


# -- av_nav -------------------------------------------------------------


def test_av_nav_audio_convention():
    env = envs.make_env("av_nav", 0)
    env.reset()
    env.agent = (env.GOAL[0], 7)  # right room, level with source
    env._observe()
    assert env.last_audio_class == env.STEREO
    env.agent = (env.GOAL[0] + 3, 7)  # source above agent
    env._observe()
    assert env.last_audio_class == env.LEFT
    env.agent = (env.GOAL[0] - 2, 7)  # source below agent
    env._observe()
    assert env.last_audio_class == env.RIGHT


def test_av_nav_left_room_source_is_corridor():
    env = envs.make_env("av_nav", 0)
    env.reset()
    env.agent = (env.CORRIDOR[0], 2)
    env._observe()
    assert env.last_audio_class == env.STEREO  # level with the corridor mouth


def test_av_nav_wall_blocks():
    env = envs.make_env("av_nav", 0)
    env.reset()
    env.agent = (3, 4)
    env.step(3)  # into the wall column: stays
    assert env.agent == (3, 4)
    env.agent = (5, 4)
    env.step(3)  # through the corridor
    assert env.agent == (5, 5)


def test_av_nav_goal():
    env = envs.make_env("av_nav", 0)
    env.reset()
    total, success, steps = run_plan(env, PLANS["av_nav"](env))
    assert success and steps < env.max_steps


# -- mining -------------------------------------------------------------


def test_mining_audio_cue_near_ore():
    env = envs.make_env("mining", 2)
    env.reset()
    env.agent = (env.ORE[0] - 1, env.ORE[1])
    env._observe()
    assert env.last_audio_class == env.ore_type
    env.agent = (0, 0)
    env._observe()
    assert env.last_audio_class == -1


def test_mining_ore_blocks_movement():
    env = envs.make_env("mining", 2)
    env.reset()
    env.agent = (env.ORE[0] - 1, env.ORE[1])
    env.step(1)  # down into the ore: blocked
    assert env.agent == (env.ORE[0] - 1, env.ORE[1])


def test_mining_wrong_tool_penalty():
    env = envs.make_env("mining", 2)
    env.reset()
    env.agent = (env.ORE[0] - 1, env.ORE[1])
    _, reward, done = env.step(4)  # mine with no tool
    assert reward == -10.0 and not done


def test_mining_success_reward():
    for seed in range(4):
        env = envs.make_env("mining", seed)
        env.reset()
        total, success, _ = run_plan(env, PLANS["mining"](env))
        assert success
        assert total >= env.MINE_REWARD - 20  # short plan, mostly step costs


def test_mining_tool_swap_returns_held_tool():
    env = envs.make_env("mining", 0)
    env.reset()
    env.agent = env.TOOL_HOME["ax"]
    env.step(4)
    assert env.held == "ax" and env.tools["ax"] is None
    env.agent = env.TOOL_HOME["stove"]
    env.step(4)
    assert env.held == "stove"
    assert env.tools["ax"] == env.TOOL_HOME["ax"]


def test_mining_plus_monster_hit():
    env = envs.make_env("mining_plus", 3)
    env.reset()
    env.agent = (7, 5)
    _, reward, done = env.step(3)  # step next to the monster; it pursues
    assert reward == -100.0 and done and not env.last_success
    obs = env._observe()
    np.testing.assert_array_equal(obs.text, encode_text(MESSAGES["hurt"]))


def test_mining_plus_text_events():
    env = envs.make_env("mining_plus", 1)
    obs = env.reset()
    np.testing.assert_array_equal(obs.text, encode_text(MESSAGES["task"]))

    correct_tool = env.TOOL_FOR[env.ore_type]
    env.agent = env.TOOL_HOME[correct_tool]
    obs, _, _ = env.step(4)
    np.testing.assert_array_equal(obs.text, encode_text(MESSAGES["got_tool"]))

    obs, _, _ = env.step(0)  # ordinary move: padding
    np.testing.assert_array_equal(obs.text, np.zeros(12, dtype=np.int64))


def test_got_ax_message_tokens():
    ids = encode_text("You get the ax, go to mine gold.")
    words = [VOCAB[i] for i in ids if i != 0]
    assert words == ["you", "get", "the", "ax", "go", "to", "mine", "gold"]


def test_vocab_closure():
    assert VOCAB[0] == "<pad>"
    assert VOCAB[1] == "<noise>"
    assert len(VOCAB) == len(set(VOCAB))
    for msg in MESSAGES.values():
        ids = encode_text(msg)
        assert (ids < len(VOCAB)).all()


_AUDIO = {"audio": (1, 16, 16)}
MODALITY_SHAPES = {
    "hetero_nav": {"visual": (2, 10, 10), **_AUDIO},
    "target_select": {"visual": (3, 10, 10), **_AUDIO},
    "av_nav": {"visual": (3, 10, 10), **_AUDIO},
    "mining": {"visual": (4, 8, 8), **_AUDIO},
    "mining_plus": {"visual": (5, 8, 8), **_AUDIO, "text": (12,)},
}


@pytest.mark.parametrize("name", ALL_ENVS)
def test_modality_shapes(name):
    assert envs.make_env(name, seed=0).modality_shapes == MODALITY_SHAPES[name]


def test_make_env_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown environment"):
        envs.make_env("maze", 0)


# -- generic contract properties -----------------------------------------


@pytest.mark.parametrize("name", ALL_ENVS)
def test_determinism_bitwise(name):
    def collect(seed):
        env = envs.make_env(name, seed)
        obs = env.reset()
        rng = np.random.default_rng(99)
        stream = [obs]
        rewards = []
        for _ in range(60):
            a = int(rng.integers(env.n_actions))
            obs, r, done = env.step(a)
            stream.append(obs)
            rewards.append((r, done))
            if done:
                obs = env.reset()
                stream.append(obs)
        return stream, rewards

    s1, r1 = collect(123)
    s2, r2 = collect(123)
    assert r1 == r2
    for o1, o2 in zip(s1, s2):
        np.testing.assert_array_equal(o1.visual, o2.visual)
        np.testing.assert_array_equal(o1.audio, o2.audio)
        if o1.text is not None:
            np.testing.assert_array_equal(o1.text, o2.text)


@pytest.mark.parametrize("name", ALL_ENVS)
def test_observation_shapes_stable(name):
    env = envs.make_env(name, seed=5)
    obs = env.reset()
    shapes = env.modality_shapes
    rng = np.random.default_rng(0)
    for _ in range(30):
        for mod, arr in obs.modalities().items():
            assert tuple(arr.shape) == tuple(shapes[mod])
        obs, _, done = env.step(int(rng.integers(env.n_actions)))
        if done:
            obs = env.reset()


@pytest.mark.parametrize("name", ALL_ENVS)
def test_visual_channels_are_binary(name):
    env = envs.make_env(name, seed=5)
    obs = env.reset()
    assert set(np.unique(obs.visual)) <= {0.0, 1.0}


@pytest.mark.parametrize("name", ALL_ENVS)
def test_reachability_oracle(name):
    env = envs.make_env(name, seed=11)
    for episode in range(3):
        env.reset()
        _, success, steps = run_plan(env, PLANS[name](env))
        assert success, f"{name} oracle failed on episode {episode}"
        assert steps <= env.max_steps


@pytest.mark.parametrize("name", ALL_ENVS)
def test_invalid_action_rejected(name):
    env = envs.make_env(name, seed=0)
    env.reset()
    with pytest.raises(ValueError, match="invalid action"):
        env.step(env.n_actions)


def test_step_after_done_rejected():
    env = envs.make_env("hetero_nav", 0)
    env.reset()
    env.agent = (9, 8)
    env.step(3)
    with pytest.raises(RuntimeError, match="reset"):
        env.step(0)


def test_episode_cap():
    env = envs.make_env("hetero_nav", 0)
    env.reset()
    done = False
    for i in range(env.max_steps):
        _, reward, done = env.step(0)  # bump against the top wall forever
        if done:
            break
    assert done and i == env.max_steps - 1
    assert reward == -1.0  # no bonus at the cap


def test_audio_patterns_distinguishable():
    # mean pairwise RMS distance between noiseless patterns > 5x noise std
    for n_classes in (2, 3, 8):
        renderer = envs.AudioRenderer(n_classes)
        patterns = [renderer.pattern(k) for k in range(n_classes)] + [renderer.pattern(-1)]
        dists = [
            np.sqrt(np.mean((a - b) ** 2))
            for a, b in itertools.combinations(patterns, 2)
        ]
        assert np.mean(dists) > 5 * envbase.AUDIO_NOISE_STD
