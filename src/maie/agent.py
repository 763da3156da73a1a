"""Advantage actor-critic over the fused multimodal state.

Each update processes one rollout in two backpropagation steps. First the
representation loss (similarity + temporal discrimination) runs backward
into the extractor parameters only, and those are updated. Then the
modality statistics absorb the rollout's features, the features are
recomputed under the updated extractors, and the actor-critic losses run
backward through the lambda-weighted fusion into the heads and extractors.

Acting is graph-free: one ``_act_step`` serves training rollouts and
evaluation, computing features, importance weights, and policy logits as
plain arrays while stepping the environment. An acting span is one
``collect_rollout`` or one ``run_eval`` episode; neither the parameters nor
the modality statistics change within it, so ``_acting_span`` pays once per
span for what depends only on them. Each modality's ``ModalityStats.scale``
is computed there (``_scales``) and handed to ``_weights``. Each modality
whose observations can repeat gets a fresh memo of LSTM input drives keyed
by observation bytes, which holds at most ``rollout_length`` or
``EPISODE_CAP`` entries; a modality in ``envs.NOISY_MODALITIES`` gets none,
since its fresh noise never repeats. An update computes the scales once,
after its statistics update, for its λ and for the bootstrap value, which
takes the per-step path with no memo. The recorded observations are
replayed in batch form for both backward passes, each modality's features
as one (T, 32) matrix. Acting records its forward in the buffer
(``RolloutBuffer.recorded``, whose LSTM h rows are the features), and the
first replay, which runs before any parameter changes, builds its nodes from
that record, taking the conv outputs out of it, since nothing else reads
them: its features are acting's, bit for bit, and the statistics
update, λ, the SRL loss and the gradient all read the forward that chose
the actions. maie's second replay, after the SRL step, recomputes the
forward; recomputed under unchanged parameters, it reproduces the acting
features to within 1e-12. One λ rule,
``_weights``, takes one step's (L,) features or a rollout's (T, L) stack,
and gives each row of the stack the λ it gives that step alone.

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
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import alignment as al
from . import enhancement as en
from .autodiff import Value
from .envs import NOISY_MODALITIES
from .extractors import FEATURE_DIM, ActingRecord, build_extractor, uniform_init

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

    def _mlp_np(self, x: np.ndarray, prefix: str) -> np.ndarray:
        """``_mlp`` on plain arrays, each layer's bias and ReLU applied in place."""
        p = self.params
        for i in (1, 2, 3):
            x = x @ p[f"{prefix}{i}.w"].data
            x += p[f"{prefix}{i}.b"].data
            if i < 3:
                np.maximum(x, 0.0, out=x)
        return x

    def logits_array(self, fused: np.ndarray) -> np.ndarray:
        """Graph-free actor forward for acting (one (D,) state)."""
        return self._mlp_np(fused, "actor")

    def value_array(self, fused: np.ndarray) -> float:
        return float(self._mlp_np(fused, "critic")[0])


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
        self._states = {m: self.extractors[m].initial_state() for m in self.modalities}
        self.episode = 0
        self.env_steps = 0
        self._ep_return = 0.0
        self._last_losses = dict.fromkeys(LOSS_COLUMNS, 0.0)

        self.metrics_rows: list = []
        self.lambda_rows: list = []
        self.embedding_rows: list = []

    # -- acting ------------------------------------------------------------

    def _features(self, obs, states: dict, drives: dict, records: dict | None) -> tuple:
        """Graph-free forward of one observation; returns (features, new states).

        ``drives`` maps each modality to its memo of LSTM input drives, or to
        None for no memo; ``records``, when given, maps each modality to the
        ``ActingRecord`` the step is appended to (see
        ``_ExtractorBase.forward``).
        """
        obs_arrays = obs.modalities()
        feats, new_states = {}, {}
        for m in self.modalities:
            record = None if records is None else records[m]
            feats[m], new_states[m] = self.extractors[m].forward(obs_arrays[m], states[m], drives[m], record)
        return feats, new_states

    def _scales(self) -> dict | None:
        """Each modality's ``ModalityStats.scale`` at the current statistics; None without importance enhancement."""
        return {m: self.stats[m].scale(self.cfg.stats_eps) for m in self.modalities} if self.use_ie else None

    def _weights(self, feats: dict, scales: dict | None) -> dict:
        """λ per modality for (L,) feature arrays or (T, L) stacks of them, under ``_scales()``."""
        if self.use_ie:
            normalized = [self.stats[m].normalize_array(feats[m], scales[m]) for m in self.modalities]
            return dict(zip(self.modalities, en.importance(normalized)))
        shape = feats[self.modalities[0]].shape
        if self.cfg.method == "fixed_weights":
            w = self.cfg.fixed_weight
            rest = (1.0 - w) / (len(self.modalities) - 1) if len(self.modalities) > 1 else 1.0
            return {m: np.full(shape, w if i == 0 else rest) for i, m in enumerate(self.modalities)}
        return {m: np.ones(shape) for m in self.modalities}

    def _fuse_array(self, feats: dict, lams: dict) -> np.ndarray:
        return np.concatenate([lams[m] * feats[m] for m in self.modalities])

    def _begin_episode(self):
        self._obs = self.env.reset()
        self._states = {m: self.extractors[m].initial_state() for m in self.modalities}
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

    def _acting_span(self) -> tuple:
        """What a span of acting computes once: (input-drive memos, stats scales).

        The memos map each modality to a fresh dict, or to None for a
        modality in ``NOISY_MODALITIES``; the scales are ``_scales()``. Both
        hold only while no parameter or statistic changes.
        """
        return {m: None if m in NOISY_MODALITIES else {} for m in self.modalities}, self._scales()

    def _act_step(self, phase: str, span: tuple, buf: RolloutBuffer | None = None) -> dict | None:
        """Take one graph-free step, recording it into ``buf`` in training.

        ``span`` is the ``_acting_span`` of the span this step belongs to.
        Returns the episode's row when this step ended the episode, else
        None.
        """
        drives, scales = span
        new_episode = self._obs is None
        if new_episode:
            self._begin_episode()
        feats, self._states = self._features(self._obs, self._states, drives, None if buf is None else buf.recorded)
        lams = self._weights(feats, scales)
        action = sample_action(self.head.logits_array(self._fuse_array(feats, lams)), self.action_rng)
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

    def _record_step_traces(self, feats: dict, lams: dict, phase: str):
        """Record the step's λ means, in modality order, and every few steps its embeddings."""
        step = self.env.steps
        # the bits of .mean(), without its Python-level wrapper
        lam_means = tuple(float(lams[m].sum() / lams[m].size) for m in self.modalities)
        self.lambda_rows.append((phase, self.episode, step, self.env.last_audio_class, lam_means))
        if step % EMBEDDING_EVERY == 0:
            for m in self.modalities:
                self.embedding_rows.append((phase, self.episode, step, m, feats[m].copy()))

    # -- updating ------------------------------------------------------------

    def _replay_features(self, buf: RolloutBuffer, initial_states: dict, recorded: dict | None = None):
        """Each modality's (T, 32) feature node over the rollout, and the state after it.

        ``recorded`` is ``buf.recorded`` while no parameter has changed since
        acting: the replay is then built from acting's forward. Without it the
        forward is recomputed.
        """
        feats = {}
        finals = {}
        for m in self.modalities:
            obs_list = [o.modalities()[m] for o in buf.observations]
            feats[m], finals[m] = self.extractors[m].forward_sequence(
                obs_list, buf.episode_starts, initial_states[m], None if recorded is None else recorded[m]
            )
        return feats, finals

    def _bootstrap_value(self, final_states: dict, scales: dict | None) -> float:
        """Value of the observation after a rollout that ended mid-episode, with no memo."""
        feats, _ = self._features(self._obs, final_states, dict.fromkeys(self.modalities), None)
        return self.head.value_array(self._fuse_array(feats, self._weights(feats, scales)))

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
        """Collect one rollout and apply the two-step update; returns metrics."""
        cfg = self.cfg
        t0 = time.perf_counter()
        initial_states = {m: self._states[m].detached() for m in self.modalities}
        buf = self.collect_rollout()

        sim_val, td_val = self._srl_step(buf, initial_states) if self.use_align else (0.0, 0.0)

        if self.use_ie:
            # the rollout is the statistics mini-batch
            for m in self.modalities:
                self.stats[m].update(np.stack(buf.features[m]), cfg.xi)

        # step two: the features under the extractors as they are now
        scales = self._scales()
        # acting's forward is the replay's until a parameter changes
        feats, finals = self._replay_features(buf, initial_states, None if self.use_align else buf.recorded)
        lams = self._weights({m: feats[m].data for m in self.modalities}, scales)
        fused = en.fuse([feats[m] for m in self.modalities], [lams[m] for m in self.modalities])

        logits = self.head.actor_logits(fused)
        values = self.head.critic_values(fused)
        if not (np.isfinite(logits.data).all() and np.isfinite(values.data).all()):
            raise NumericalError("non-finite policy or value outputs", self._numerical_dump(buf, {}))
        logp, entropy = log_probs_and_entropy(logits, buf.actions)

        bootstrap = self._bootstrap_value(finals, scales) if not buf.dones[-1] else 0.0
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
        metrics = {
            "loss_actor": float(aloss.data),
            "loss_critic": float(closs.data),
            "loss_sim": sim_val,
            "loss_td": td_val,
            "mean_return_target": float(returns.mean()),
            "wall_ms": (time.perf_counter() - t0) * 1e3,
        }
        self._last_losses = {k: metrics[k] for k in LOSS_COLUMNS}
        return metrics

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
        """Roll episodes with frozen parameters and statistics; returns episode rows."""
        rows = []
        for _ in range(episodes):
            self._obs = None  # every evaluation episode starts fresh
            span = self._acting_span()  # a memo holds at most one entry per step of the episode
            while (row := self._act_step("eval", span)) is None:
                pass
            rows.append(row)
        return rows

    # -- parameters ----------------------------------------------------------

    def named_parameters(self) -> dict:
        """The one parameter registry, name -> Value: extractors by modality, then the head."""
        return self._params

