"""Advantage actor-critic over the fused multimodal state.

Each update processes one rollout in two backpropagation steps. First the
representation loss (similarity + temporal discrimination) runs backward
into the extractor parameters only, and those are updated. Then the
modality statistics absorb the rollout's features, the features are
recomputed under the updated extractors, and the actor-critic losses run
backward through the lambda-weighted fusion into the heads and extractors.

Acting is graph-free: one ``_act_step`` serves training rollouts and
evaluation, computing features, importance weights, and policy logits as
plain arrays while stepping the environment. Only the LSTM input drive is
computed per modality (``_ExtractorBase.forward``: the observation check,
the memo, the conv stack and the input projection); everything after it
runs once per step on (M, ·) stacks. The recurrent state is one
``RecurrentState`` of (M, 32) ``h`` and ``c``, one ``autodiff.lstm_step``
steps all M rows, and the normalization, ``importance``, the fusion and the
λ-trace means each run once on the (M, L) stack. Neither the parameters
nor the modality statistics change within an acting span, so
``_acting_span`` takes once per span what depends only on them (an
``ActingSpan``): each extractor's ``acting_arrays``, the (M, 4H, H) stack of
the recurrent weights, the statistics' μ and scale stacks (``_norm``) and
the actor's three (w, b) pairs. Each modality whose observations can repeat
gets a fresh memo of LSTM input drives keyed by observation bytes; a
modality in ``envs.NOISY_MODALITIES`` gets none, since its fresh noise never
repeats. A training span is one ``collect_rollout``, whose memo holds at
most ``rollout_length`` entries and is dropped with it. Evaluation keeps one
span, memos included, across episodes and ``run_eval`` calls, until
``drop_eval_span`` forgets it: ``_apply`` calls it before the Adam step,
``train_step`` before the statistics update, and ``cli.load_checkpoint``
once a file is accepted. An evaluation memo keeps the drive alone, and one
that holds ``EPISODE_CAP`` entries when an episode starts is emptied, so it
stays below 2 × ``EPISODE_CAP``. An update takes the statistics' stacks
once, after its statistics update, for its λ; the bootstrap value steps
once under an acting span of its own.
Both backward passes replay the rollout in batch form
(``_ExtractorBase.forward_sequence``), each modality's features as one
(T, 32) matrix. Acting records its forward in the buffer
(``RolloutBuffer.recorded``, whose LSTM h rows are the features), and the
first replay, which runs before any parameter changes, is built from that
record: the statistics update, λ, the SRL loss and the gradient all read
the forward that chose the actions. maie's second replay, after the SRL
step, recomputes the forward. One λ rule, ``_weights``,
takes one step's (M, L) feature stack or a rollout's (M, T, L) one, and
gives each row of the rollout the λ it gives that step alone.

Each episode fact is stored once. The step count is the environment's
``steps`` and the audio class its ``last_audio_class``; the λ trace
(``lambda_rows``, one row of per-modality means per step) is the one
record of λ, and a metrics row's λ is the mean of its episode's trace
rows. Both backward passes go through one update step, ``Trainer._apply``.

An update holds each array only while something still reads it. The SRL
step runs in its own method, ``Trainer._srl_step``, so its graph (the first
replay's nodes, their gradients and the loss) is freed when the step
returns, before the second replay builds the actor-critic graph.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import alignment as al
from . import enhancement as en
from .autodiff import Value
from .envs import NOISY_MODALITIES
from .envs.base import EPISODE_CAP
from .extractors import FEATURE_DIM, ActingRecord, RecurrentState, build_extractor, uniform_init

METHODS = ("maie", "concat", "fixed_weights", "no_align", "no_ie")
LOSS_COLUMNS = ("loss_actor", "loss_critic", "loss_sim", "loss_td")  # the losses each metrics row carries

LOG_EPS = 1e-12  # guards log of saturated softmax entries
EMBEDDING_EVERY = 5  # embeddings.csv samples every this many steps of an episode

# what a value of each declared config field type must be; a bool is neither an int nor a float
_FIELD_TYPES = {
    "int": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "None": lambda v: v is None,
}


class NumericalError(RuntimeError):
    """A loss went non-finite; carries a diagnostic dump of the rollout."""

    def __init__(self, message: str, dump: dict = None):
        super().__init__(message)
        self.dump = dump or {}


@dataclass
class TrainConfig:
    """Every hyperparameter, declared and checked here once; the modules take them as arguments."""

    gamma: float = 0.99
    rollout_length: int = 32
    lr: float = 1e-4
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    c_sim: float = 0.1
    c_td: float = 0.01
    xi: float = 0.05
    stats_eps: float = 1e-5
    distance: str = "cosine"
    method: str = "maie"
    seed: int = 0
    episodes: int = 100
    grad_clip: float = 5.0
    fixed_weight: float = 0.5

    def __post_init__(self):
        # every field's type and finiteness first, subclass fields included, so each range check compares numbers
        for f in fields(self):
            value = getattr(self, f.name)
            if not any(_FIELD_TYPES[kind](value) for kind in f.type.split(" | ")):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.rollout_length < 2:
            raise ValueError("rollout_length must be >= 2")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.c_sim < 0 or self.c_td < 0:
            raise ValueError(f"c_sim and c_td must be >= 0, got {self.c_sim} and {self.c_td}")
        if self.distance not in al.DISTANCE_KINDS:
            raise ValueError(f"distance must be one of {al.DISTANCE_KINDS}, got {self.distance!r}")
        if not 0.0 <= self.fixed_weight <= 1.0:
            raise ValueError("fixed_weight must lie in [0, 1]")
        if not 0.0 < self.xi <= 1.0:
            raise ValueError(f"xi must be in (0, 1], got {self.xi}")
        if not self.stats_eps > 0.0:
            raise ValueError(f"stats_eps must be > 0, got {self.stats_eps}")
        if not self.lr > 0.0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not self.grad_clip > 0.0:
            raise ValueError(f"grad_clip must be > 0, got {self.grad_clip}")


def _affine_params(rng, sizes, prefix):
    params = {}
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:]), start=1):
        params[f"{prefix}{i}.w"] = Value(uniform_init(rng, (n_in, n_out), n_in), requires_grad=True)
        params[f"{prefix}{i}.b"] = Value(uniform_init(rng, (n_out,), n_in), requires_grad=True)
    return params


class PolicyValueHead:
    """Actor and critic MLPs (256 then 64 units, ReLU) over the fused state."""

    def __init__(self, input_dim: int, n_actions: int, seed: int):
        rng = np.random.default_rng(seed)
        self.params = _affine_params(rng, (input_dim, 256, 64, n_actions), "actor")
        self.params.update(_affine_params(rng, (input_dim, 256, 64, 1), "critic"))

    def _mlp(self, fused: Value, prefix: str) -> Value:
        h = ad.matmul(fused, self.params[f"{prefix}1.w"]) + self.params[f"{prefix}1.b"]
        h = h.relu()
        h = ad.matmul(h, self.params[f"{prefix}2.w"]) + self.params[f"{prefix}2.b"]
        h = h.relu()
        return ad.matmul(h, self.params[f"{prefix}3.w"]) + self.params[f"{prefix}3.b"]

    def actor_logits(self, fused: Value) -> Value:
        """(T, D) fused states -> (T, |A|) logits."""
        return self._mlp(fused, "actor")

    def critic_values(self, fused: Value) -> Value:
        """(T, D) fused states -> (T,) value estimates."""
        out = self._mlp(fused, "critic")
        return out.reshape((out.data.shape[0],))

    def array_layers(self, prefix: str) -> tuple:
        """The three (w, b) array pairs of the ``"actor"`` or ``"critic"`` MLP; they hold while no parameter changes."""
        p = self.params
        return tuple((p[f"{prefix}{i}.w"].data, p[f"{prefix}{i}.b"].data) for i in (1, 2, 3))

    @staticmethod
    def _mlp_np(x: np.ndarray, layers: tuple) -> np.ndarray:
        """``_mlp`` on plain arrays over ``array_layers``, each layer's bias and ReLU applied in place."""
        for i, (w, b) in enumerate(layers, start=1):
            x = x @ w
            x += b
            if i < len(layers):
                np.maximum(x, 0.0, out=x)
        return x

    def logits_array(self, fused: np.ndarray, actor: tuple) -> np.ndarray:
        """Graph-free actor forward for acting (one (D,) state), over the actor's ``array_layers``."""
        return self._mlp_np(fused, actor)

    def value_array(self, fused: np.ndarray) -> float:
        return float(self._mlp_np(fused, self.array_layers("critic"))[0])


def sample_action(logits: np.ndarray, rng: np.random.Generator) -> int:
    """Draw from the categorical softmax(logits) distribution."""
    if not np.isfinite(logits).all():
        raise NumericalError(f"non-finite policy logits: {logits}")
    p = ad.softmax_array(logits)
    # the inverse-CDF draw of Generator.choice(len(p), p=p), without its
    # per-call validation: the same uniform gives the same action
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def greedy_action(logits: np.ndarray) -> int:
    """Deterministic argmax mode for evaluation."""
    if not np.isfinite(logits).all():
        raise NumericalError(f"non-finite policy logits: {logits}")
    return int(np.argmax(logits))


def log_probs_and_entropy(logits: Value, actions) -> tuple:
    """Per-step log pi(a_t|s_t) and policy entropy from (T, |A|) logits."""
    p = ad.softmax(logits, axis=1)
    logp_all = (p + LOG_EPS).log()
    t = logits.data.shape[0]
    logp = logp_all[(np.arange(t), np.asarray(actions, dtype=np.intp))]
    entropy = -(p * logp_all).sum(axis=1)
    return logp, entropy


def compute_returns(rewards, dones, gamma: float, bootstrap: float) -> np.ndarray:
    """Discounted return targets by backward recursion, bootstrapping the tail."""
    if len(rewards) == 0:
        raise ValueError("cannot compute returns for an empty buffer")
    out = np.empty(len(rewards))
    acc = float(bootstrap)
    for t in range(len(rewards) - 1, -1, -1):
        if dones[t]:
            acc = 0.0
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def critic_loss(values: Value, returns: np.ndarray) -> Value:
    """Half mean squared error between return targets and value estimates."""
    return 0.5 * (values - Value(returns)).square().mean()


def actor_loss(logp: Value, advantages: np.ndarray, entropy: Value, entropy_coef: float) -> Value:
    """Negative advantage-weighted log-likelihood minus the entropy bonus."""
    pg = -(logp * Value(advantages)).mean()
    if entropy_coef:
        return pg - entropy_coef * entropy.mean()
    return pg


@dataclass
class RolloutBuffer:
    """Time-ordered record of one rollout; cleared after each update."""

    observations: list = field(default_factory=list)
    episode_starts: list = field(default_factory=list)
    actions: list = field(default_factory=list)
    rewards: list = field(default_factory=list)
    dones: list = field(default_factory=list)
    recorded: dict = field(default_factory=dict)  # modality -> the ActingRecord of acting's forward

    @property
    def features(self) -> dict:
        """Modality -> list of the (L,) acting features: the recorded LSTM ``h`` rows themselves."""
        return {m: r.h for m, r in self.recorded.items()}


class ActingSpan(NamedTuple):
    """What a span of acting reads of the parameters and statistics, taken once: neither changes within it.

    ``inputs`` holds, per modality in order, ``(name, extractor, its
    acting_arrays(), its memo)``, the memo being a fresh dict of LSTM input
    drives or None for a modality in ``NOISY_MODALITIES``. ``w_hh`` is the
    (M, 4H, H) stack of the recurrent weights, ``norm`` the statistics'
    (μ, scale) stacks under importance enhancement (``Trainer._norm``), and
    ``actor`` the actor's ``array_layers``.
    """

    inputs: tuple
    w_hh: np.ndarray
    norm: tuple | None
    actor: tuple


class Trainer:
    """One environment, one agent, one thread; reentrant across seeded runs."""

    def __init__(self, env, cfg: TrainConfig):
        self.env = env
        self.cfg = cfg
        self.modalities = list(env.modality_shapes.keys())
        seeds = np.random.SeedSequence(cfg.seed).spawn(len(self.modalities) + 2)
        self.extractors = {}
        for m, ss in zip(self.modalities, seeds):
            shape = env.modality_shapes[m]
            vocab = getattr(env, "vocab_size", None)
            self.extractors[m] = build_extractor(m, shape, seed=int(ss.generate_state(1)[0]), vocab_size=vocab)
        self.head = PolicyValueHead(
            len(self.modalities) * FEATURE_DIM, env.n_actions, seed=int(seeds[-2].generate_state(1)[0])
        )
        self.action_rng = np.random.default_rng(seeds[-1])
        self.stats = {m: en.ModalityStats(mu=np.zeros(FEATURE_DIM), var=np.ones(FEATURE_DIM)) for m in self.modalities}

        # the one parameter registry: each extractor's in modality order, then the head's
        self._params = {f"{m}.{k}": p for m in self.modalities for k, p in self.extractors[m].params.items()}
        self.phi_params = list(self._params.values())
        self._params.update({f"head.{k}": p for k, p in self.head.params.items()})
        self.opt = ad.Adam(cfg.lr)

        self.use_align = cfg.method in ("maie", "no_ie")
        self.use_ie = cfg.method in ("maie", "no_align")

        self._obs = None
        self._states = self._initial_states()
        self._eval_span = None  # run_eval's ActingSpan, held until drop_eval_span
        self.episode = 0
        self.env_steps = 0
        self._ep_return = 0.0
        self._last_losses = dict.fromkeys(LOSS_COLUMNS, 0.0)

        self.metrics_rows: list = []
        self.lambda_rows: list = []
        self.embedding_rows: list = []

    # -- acting ------------------------------------------------------------

    def _initial_states(self) -> RecurrentState:
        """The zero (M, 32) state of every modality, one row each in modality order."""
        shape = (len(self.modalities), FEATURE_DIM)
        return RecurrentState(np.zeros(shape), np.zeros(shape), tuple(self.modalities))

    def _features(self, obs, states: RecurrentState, span: ActingSpan, records: dict | None) -> RecurrentState:
        """One graph-free step of every modality from ``states``; returns the new state, whose h rows are the features.

        Each modality's extractor computes its LSTM input drive
        (``_ExtractorBase.forward``) through its memo in ``span``; one
        ``autodiff.lstm_step`` then steps the (M, 4H) drives and the (M, 32)
        state of all modalities. ``records``, when given, maps each modality
        to the ``ActingRecord`` the step is appended to.
        """
        obs_arrays = obs.modalities()
        sx = np.array([ex.forward(obs_arrays[m], arrays, memo, None if records is None else records[m])
                       for m, ex, arrays, memo in span.inputs])
        h, c, gates = ad.lstm_step(sx, span.w_hh, states.h, states.c)
        if records is not None:
            for i, m in enumerate(states.names):
                records[m].append_state(gates[i], h[i], c[i])
        return RecurrentState(h, c, states.names)

    def _norm(self) -> tuple | None:
        """The statistics' μ and ``ModalityStats.scale`` as (M, L) stacks; None without importance enhancement."""
        if not self.use_ie:
            return None
        stats = [self.stats[m] for m in self.modalities]
        return np.array([s.mu for s in stats]), np.array([s.scale(self.cfg.stats_eps) for s in stats])

    def _weights(self, feats: np.ndarray, norm: tuple | None) -> np.ndarray:
        """λ of an (M, L) feature stack, or of an (M, T, L) one, as a stack of the same shape; ``norm`` is ``_norm()``.

        Each row of an (M, T, L) stack gets the λ that step gets alone.
        """
        if self.use_ie:
            mu, scale = norm
            if feats.ndim == 3:
                mu, scale = mu[:, None], scale[:, None]
            return en.importance(en.normalize(feats, mu, scale))
        if self.cfg.method != "fixed_weights":
            return np.ones(feats.shape)
        m = len(self.modalities)
        lams = np.full(feats.shape, (1.0 - self.cfg.fixed_weight) / (m - 1) if m > 1 else 1.0)
        lams[0] = self.cfg.fixed_weight
        return lams

    @staticmethod
    def _fuse_array(feats: np.ndarray, lams: np.ndarray) -> np.ndarray:
        """The fused (M*L,) state of one step: each modality's λ-weighted features, in modality order."""
        return (lams * feats).reshape(-1)

    def _begin_episode(self):
        self._obs = self.env.reset()
        self._states = self._initial_states()
        self._ep_return = 0.0

    def _finish_episode(self, phase: str) -> dict:
        """Close the episode and return its row: a metrics row in training, else an eval row.

        A metrics row's λ per modality is the mean of the episode's λ-trace
        rows, which are the last ``env.steps`` of ``lambda_rows``.
        """
        if phase == "train":
            row = {
                "episode": self.episode,
                "env_steps": self.env_steps,
                "return": self._ep_return,
                "success": int(self.env.last_success),
                **self._last_losses,
            }
            # np.mean along axis 0 adds the rows one by one in step order; the builtin
            # sum compensates its float additions from Python 3.12 on and gives other bits
            lam_means = np.mean([r[-1] for r in self.lambda_rows[-self.env.steps :]], axis=0)
            for m, lam in zip(self.modalities, lam_means):
                row[f"lambda_{m}"] = float(lam)
            self.metrics_rows.append(row)
        else:
            row = {
                "episode": self.episode,
                "return": self._ep_return,
                "success": int(self.env.last_success),
                "steps": self.env.steps,
            }
        self.episode += 1
        self._obs = None
        return row

    def _acting_span(self) -> ActingSpan:
        """What a span of acting reads, taken once, with fresh memos; it holds only while no parameter or statistic changes.

        ``collect_rollout`` and ``_bootstrap_value`` take one per call and
        hold none; ``run_eval`` keeps one in ``_eval_span`` until
        ``drop_eval_span``.
        """
        exs = self.extractors
        inputs = tuple((m, exs[m], exs[m].acting_arrays(), None if m in NOISY_MODALITIES else {}) for m in self.modalities)
        w_hh = np.array([exs[m].params["lstm.w_hh"].data for m in self.modalities])
        return ActingSpan(inputs, w_hh, self._norm(), self.head.array_layers("actor"))

    def _act_step(self, phase: str, span: ActingSpan, buf: RolloutBuffer | None = None) -> dict | None:
        """Take one graph-free step, recording it into ``buf`` in training.

        ``span`` is the ``_acting_span`` of the span this step belongs to.
        Returns the episode's row when this step ended the episode, else
        None.
        """
        new_episode = self._obs is None
        if new_episode:
            self._begin_episode()
        self._states = self._features(self._obs, self._states, span, None if buf is None else buf.recorded)
        feats = self._states.h
        lams = self._weights(feats, span.norm)
        action = sample_action(self.head.logits_array(self._fuse_array(feats, lams), span.actor), self.action_rng)
        self._record_step_traces(feats, lams, phase)
        next_obs, reward, done = self.env.step(action)
        if buf is not None:
            buf.observations.append(self._obs)
            buf.episode_starts.append(new_episode)
            buf.actions.append(action)
            buf.rewards.append(reward)
            buf.dones.append(done)
            self.env_steps += 1
        self._ep_return += reward
        if done:
            return self._finish_episode(phase)
        self._obs = next_obs
        return None

    def collect_rollout(self) -> RolloutBuffer:
        """Act for T steps (graph-free), recording everything the updates need."""
        buf = RolloutBuffer(recorded={m: ActingRecord() for m in self.modalities})
        span = self._acting_span()  # no parameter or statistic changes during a rollout
        for _ in range(self.cfg.rollout_length):
            self._act_step("train", span, buf)
        return buf

    def _record_step_traces(self, feats: np.ndarray, lams: np.ndarray, phase: str):
        """Record the step's λ means, in modality order, and every few steps its embeddings."""
        step = self.env.steps
        # each row's bits of .mean(), without its Python-level wrapper
        lam_means = tuple((lams.sum(axis=-1) / lams.shape[-1]).tolist())
        self.lambda_rows.append((phase, self.episode, step, self.env.last_audio_class, lam_means))
        if step % EMBEDDING_EVERY == 0:
            for m, f in zip(self.modalities, feats):
                self.embedding_rows.append((phase, self.episode, step, m, f.copy()))

    # -- updating ------------------------------------------------------------

    def _replay_features(self, buf: RolloutBuffer, initial_states, recorded: dict | None = None):
        """Each modality's (T, 32) feature node over the rollout, and the (M, 32) state after it.

        ``initial_states[m]`` is each modality's state before the rollout.
        ``recorded`` is ``buf.recorded`` while no parameter has changed since
        acting: the replay is then built from acting's forward. Without it the
        forward is recomputed.
        """
        feats, h, c = {}, [], []
        for m in self.modalities:
            obs_list = [o.modalities()[m] for o in buf.observations]
            feats[m], final = self.extractors[m].forward_sequence(
                obs_list, buf.episode_starts, initial_states[m], None if recorded is None else recorded[m]
            )
            h.append(final.h)
            c.append(final.c)
        return feats, RecurrentState(np.array(h), np.array(c), tuple(self.modalities))

    def _bootstrap_value(self, final_states: RecurrentState) -> float:
        """Value of the observation after a rollout that ended mid-episode, under an acting span of its own."""
        span = self._acting_span()
        feats = self._features(self._obs, final_states, span, None).h
        return self.head.value_array(self._fuse_array(feats, self._weights(feats, span.norm)))

    def _numerical_dump(self, buf: RolloutBuffer, extra: dict) -> dict:
        return {
            "episode": self.episode,
            "env_steps": self.env_steps,
            "actions": list(map(int, buf.actions)),
            "rewards": list(map(float, buf.rewards)),
            "dones": list(map(bool, buf.dones)),
            **extra,
        }

    def train_step(self) -> dict:
        """Collect one rollout and apply the two-step update; returns its losses, keyed by ``LOSS_COLUMNS``."""
        cfg = self.cfg
        initial_states = self._states.detached()
        buf = self.collect_rollout()

        sim_val, td_val = self._srl_step(buf, initial_states) if self.use_align else (0.0, 0.0)

        if self.use_ie:
            self.drop_eval_span()
            # the rollout is the statistics mini-batch
            for m in self.modalities:
                self.stats[m].update(np.stack(buf.features[m]), cfg.xi)

        # step two: the features under the extractors as they are now
        norm = self._norm()
        # acting's forward is the replay's until a parameter changes
        feats, finals = self._replay_features(buf, initial_states, None if self.use_align else buf.recorded)
        lams = self._weights(np.array([feats[m].data for m in self.modalities]), norm)
        fused = en.fuse([feats[m] for m in self.modalities], list(lams))

        logits = self.head.actor_logits(fused)
        values = self.head.critic_values(fused)
        if not (np.isfinite(logits.data).all() and np.isfinite(values.data).all()):
            raise NumericalError("non-finite policy or value outputs", self._numerical_dump(buf, {}))
        logp, entropy = log_probs_and_entropy(logits, buf.actions)

        bootstrap = self._bootstrap_value(finals) if not buf.dones[-1] else 0.0
        returns = compute_returns(buf.rewards, buf.dones, cfg.gamma, bootstrap)
        advantages = returns - values.data  # constants to the actor loss

        closs = critic_loss(values, returns)
        aloss = actor_loss(logp, advantages, entropy, cfg.entropy_coef)
        total = aloss + cfg.value_coef * closs
        if not np.isfinite(total.data):
            raise NumericalError(
                "actor-critic loss is non-finite",
                self._numerical_dump(buf, {"loss_actor": float(aloss.data), "loss_critic": float(closs.data)}),
            )
        self._apply(total, self._params.values())

        # recurrent state for the next rollout keeps flowing from acting time
        self._last_losses = dict(zip(LOSS_COLUMNS, (float(aloss.data), float(closs.data), sim_val, td_val)))
        return dict(self._last_losses)

    def _srl_step(self, buf: RolloutBuffer, initial_states: dict) -> tuple:
        """Step one: the representation loss over acting's features, backward into the extractors only.

        Returns the loss's (sim, td) parts. Its graph is referenced only from
        here, so it is freed on return, before the second replay builds the
        next one.
        """
        cfg = self.cfg
        feats, _ = self._replay_features(buf, initial_states, buf.recorded)
        parts = al.srl_loss([feats[m] for m in self.modalities], cfg.c_sim, cfg.c_td, cfg.distance,
                            episode_starts=buf.episode_starts)
        if not np.isfinite(parts.total.data):
            raise NumericalError("representation loss is non-finite", self._numerical_dump(buf, {"loss_srl": float(parts.total.data)}))
        self._apply(parts.total, self.phi_params)
        return parts.sim, parts.td

    def _apply(self, loss: Value, params):
        """The one update step: backward, clip the global grad norm to grad_clip, Adam, zero the grads."""
        ad.backward(loss)
        ad.clip_grad_norm(params, self.cfg.grad_clip)
        self.drop_eval_span()
        self.opt.step(params)
        ad.zero_grads(params)

    def run(self, max_env_steps: int | None = None) -> list:
        """Train until ``cfg.episodes`` episodes have finished (or the step cap is reached)."""
        while self.episode < self.cfg.episodes:
            self.train_step()
            if max_env_steps is not None and self.env_steps >= max_env_steps:
                break
        return self.metrics_rows

    def run_eval(self, episodes: int) -> list:
        """Roll episodes with frozen parameters and statistics; returns episode rows.

        Every episode, of this call and of later ones, acts under one held
        ``ActingSpan``, built on first use, so a memo keeps the drives of
        observations seen in earlier episodes; one that holds ``EPISODE_CAP``
        entries when an episode starts is emptied first. The span lives
        until ``drop_eval_span``, which ``_apply``, ``train_step`` and
        ``cli.load_checkpoint`` call before they change what it read. Code
        that writes a parameter's ``Value.data`` or a ``ModalityStats``
        directly must call ``drop_eval_span`` too, or the next evaluation
        acts on what the span took before the write.
        """
        if self._eval_span is None:
            self._eval_span = self._acting_span()
        span = self._eval_span
        rows = []
        for _ in range(episodes):
            self._obs = None  # every evaluation episode starts fresh
            for *_, memo in span.inputs:  # an episode adds at most EPISODE_CAP entries
                if memo is not None and len(memo) >= EPISODE_CAP:
                    memo.clear()
            while (row := self._act_step("eval", span)) is None:
                pass
            rows.append(row)
        return rows

    def drop_eval_span(self):
        """Forget ``run_eval``'s held span and its memos; call it before a parameter or a statistic changes."""
        self._eval_span = None

    # -- parameters ----------------------------------------------------------

    def named_parameters(self) -> dict:
        """The one parameter registry, name -> Value: extractors by modality, then the head."""
        return self._params

