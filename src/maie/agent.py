"""Advantage actor-critic over the fused multimodal state.

Each update processes one rollout in two backpropagation steps. First the
representation loss (similarity + temporal discrimination) runs backward
into the extractor parameters only, and those are updated. Then the
modality statistics absorb the rollout's features, the features are
recomputed under the updated extractors, and the actor-critic losses run
backward through the lambda-weighted fusion into the heads and extractors.

Acting is graph-free: features, importance weights, and policy logits are
computed as plain arrays while stepping the environment; the recorded
observations are replayed in batch form for both backward passes, each
modality's features as one (T, 32) matrix (the first replay reproduces the
acting-time features to within 1e-12, since parameters do not change in
between).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from . import alignment as al
from . import enhancement as en
from .autodiff import Value
from .extractors import FEATURE_DIM, build_extractor

METHODS = ("maie", "concat", "fixed_weights", "no_align", "no_ie")

LOG_EPS = 1e-12  # guards log of saturated softmax entries


class NumericalError(RuntimeError):
    """A loss went non-finite; carries a diagnostic dump of the rollout."""

    def __init__(self, message: str, dump: dict = None):
        super().__init__(message)
        self.dump = dump or {}


@dataclass
class TrainConfig:
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
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.rollout_length < 2:
            raise ValueError("rollout_length must be >= 2")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0.0 <= self.fixed_weight <= 1.0:
            raise ValueError("fixed_weight must lie in [0, 1]")


def _affine_params(rng, sizes, prefix):
    params = {}
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:]), start=1):
        params[f"{prefix}{i}.w"] = Value(_uniform(rng, (n_in, n_out), n_in), requires_grad=True)
        params[f"{prefix}{i}.b"] = Value(_uniform(rng, (n_out,), n_in), requires_grad=True)
    return params


def _uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class PolicyValueHead:
    """Actor and critic MLPs (256 then 64 units, ReLU) over the fused state."""

    def __init__(self, input_dim: int, n_actions: int, seed: int):
        self.input_dim = input_dim
        self.n_actions = n_actions
        rng = np.random.default_rng(seed)
        self.params = {}
        self.params.update(_affine_params(rng, (input_dim, 256, 64, n_actions), "actor"))
        self.params.update(_affine_params(rng, (input_dim, 256, 64, 1), "critic"))

    def parameters(self) -> list:
        return list(self.params.values())

    def named_parameters(self) -> dict:
        return {f"head.{k}": v for k, v in self.params.items()}

    def actor_parameters(self) -> list:
        return [v for k, v in self.params.items() if k.startswith("actor")]

    def critic_parameters(self) -> list:
        return [v for k, v in self.params.items() if k.startswith("critic")]

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
        p = self.params
        h = np.maximum(x @ p[f"{prefix}1.w"].data + p[f"{prefix}1.b"].data, 0.0)
        h = np.maximum(h @ p[f"{prefix}2.w"].data + p[f"{prefix}2.b"].data, 0.0)
        return h @ p[f"{prefix}3.w"].data + p[f"{prefix}3.b"].data

    def logits_array(self, fused: np.ndarray) -> np.ndarray:
        """Graph-free actor forward for acting (one (D,) state)."""
        return self._mlp_np(fused, "actor")

    def value_array(self, fused: np.ndarray) -> float:
        return float(self._mlp_np(fused, "critic")[0])


def sample_action(logits: np.ndarray, rng: np.random.Generator) -> int:
    """Draw from the categorical softmax(logits) distribution."""
    if not np.isfinite(logits).all():
        raise NumericalError(f"non-finite policy logits: {logits}")
    p = np.exp(logits - logits.max())
    p /= p.sum()
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
    features: dict = field(default_factory=dict)  # modality -> list of (L,) arrays
    lambdas: dict = field(default_factory=dict)  # modality -> list of (L,) arrays
    values: list = field(default_factory=list)
    audio_classes: list = field(default_factory=list)

    def __len__(self):
        return len(self.actions)


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
        self.stats = {m: en.ModalityStats.create(FEATURE_DIM, xi=cfg.xi, eps=cfg.stats_eps) for m in self.modalities}

        self.phi_params = [p for m in self.modalities for p in self.extractors[m].parameters()]
        self.head_params = self.head.parameters()
        self.opt = ad.Adam(self.phi_params + self.head_params, lr=cfg.lr)

        self.align_cfg = al.AlignmentConfig(c_sim=cfg.c_sim, c_td=cfg.c_td, distance_kind=cfg.distance)
        self.use_align = cfg.method in ("maie", "no_ie")
        self.use_ie = cfg.method in ("maie", "no_align")

        self._obs = None
        self._obs_audio_class = -1
        self._states = {m: self.extractors[m].initial_state() for m in self.modalities}
        self.episode = 0
        self.env_steps = 0
        self._ep_return = 0.0
        self._ep_steps = 0
        self._ep_lambda_sums = {m: 0.0 for m in self.modalities}
        self._last_losses = {"loss_actor": 0.0, "loss_critic": 0.0, "loss_sim": 0.0, "loss_td": 0.0}

        self.metrics_rows: list = []
        self.lambda_rows: list = []
        self.embedding_rows: list = []
        self.embedding_every = 5

    # -- acting ------------------------------------------------------------

    def _lambda_arrays(self, feats: dict) -> dict:
        if self.use_ie:
            normalized = [self.stats[m].normalize_array(feats[m]) for m in self.modalities]
            lams = en.importance(normalized)
            return dict(zip(self.modalities, lams))
        if self.cfg.method == "fixed_weights":
            return dict(zip(self.modalities, self._fixed_weights()))
        return {m: np.ones(FEATURE_DIM) for m in self.modalities}

    def _fixed_weights(self) -> list:
        w = self.cfg.fixed_weight
        m = len(self.modalities)
        rest = (1.0 - w) / (m - 1) if m > 1 else 1.0
        return [np.full(FEATURE_DIM, w if i == 0 else rest) for i in range(m)]

    def _fuse_array(self, feats: dict, lams: dict) -> np.ndarray:
        return np.concatenate([lams[m] * feats[m] for m in self.modalities])

    def _begin_episode(self):
        self._obs = self.env.reset()
        self._obs_audio_class = self.env.last_audio_class
        self._states = {m: self.extractors[m].initial_state() for m in self.modalities}
        self._ep_return = 0.0
        self._ep_steps = 0
        self._ep_lambda_sums = {m: 0.0 for m in self.modalities}

    def _finish_episode(self, phase: str):
        mean_lams = {
            m: (self._ep_lambda_sums[m] / max(self._ep_steps, 1)) for m in self.modalities
        }
        row = {
            "episode": self.episode,
            "env_steps": self.env_steps,
            "return": self._ep_return,
            "success": int(self.env.last_success),
            **self._last_losses,
        }
        for m in self.modalities:
            row[f"lambda_{m}"] = mean_lams[m]
        if phase == "train":
            self.metrics_rows.append(row)
        self.episode += 1
        self._obs = None

    def collect_rollout(self) -> RolloutBuffer:
        """Act for T steps (graph-free), recording everything the updates need."""
        cfg = self.cfg
        buf = RolloutBuffer()
        buf.features = {m: [] for m in self.modalities}
        buf.lambdas = {m: [] for m in self.modalities}
        with ad.no_grad():
            for _ in range(cfg.rollout_length):
                new_episode = self._obs is None
                if new_episode:
                    self._begin_episode()
                obs_arrays = self._obs.modalities()
                feats = {}
                for m in self.modalities:
                    f, self._states[m] = self.extractors[m].forward(obs_arrays[m], self._states[m])
                    feats[m] = f.data
                lams = self._lambda_arrays(feats)
                fused = self._fuse_array(feats, lams)
                logits = self.head.logits_array(fused)
                action = sample_action(logits, self.action_rng)

                buf.observations.append(self._obs)
                buf.episode_starts.append(new_episode)
                buf.actions.append(action)
                buf.audio_classes.append(self._obs_audio_class)
                for m in self.modalities:
                    buf.features[m].append(feats[m])
                    buf.lambdas[m].append(lams[m])

                lam_means = self._record_step_traces(feats, lams, phase="train")

                next_obs, reward, done = self.env.step(action)
                buf.rewards.append(reward)
                buf.dones.append(done)
                self.env_steps += 1
                self._ep_return += reward
                self._ep_steps += 1
                for m, mean in zip(self.modalities, lam_means):
                    self._ep_lambda_sums[m] += mean
                if done:
                    self._finish_episode(phase="train")
                else:
                    self._obs = next_obs
                    self._obs_audio_class = self.env.last_audio_class
        return buf

    def _record_step_traces(self, feats: dict, lams: dict, phase: str) -> tuple:
        """Record the step's λ means and embeddings; returns the means in modality order."""
        lam_means = tuple(float(lams[m].mean()) for m in self.modalities)
        self.lambda_rows.append((phase, self.episode, self._ep_steps, self._obs_audio_class, lam_means))
        if self._ep_steps % self.embedding_every == 0:
            for m in self.modalities:
                self.embedding_rows.append((phase, self.episode, self._ep_steps, m, feats[m].copy()))
        return lam_means

    # -- updating ------------------------------------------------------------

    def _replay_features(self, buf: RolloutBuffer, initial_states: dict):
        feats = {}
        finals = {}
        for m in self.modalities:
            obs_list = [o.modalities()[m] for o in buf.observations]
            feats[m], finals[m] = self.extractors[m].forward_sequence(
                obs_list, buf.episode_starts, initial_states[m]
            )
        return feats, finals

    def _lambda_matrices(self, mats: dict) -> dict:
        t = next(iter(mats.values())).data.shape[0]
        if self.use_ie:
            normalized = [self.stats[m].normalize_array(mats[m].data) for m in self.modalities]
            return dict(zip(self.modalities, en.importance(normalized)))
        if self.cfg.method == "fixed_weights":
            fixed = self._fixed_weights()
            return {m: np.broadcast_to(w, (t, FEATURE_DIM)) for m, w in zip(self.modalities, fixed)}
        return {m: np.ones((t, FEATURE_DIM)) for m in self.modalities}

    def _bootstrap_value(self, final_states: dict) -> float:
        if self._obs is None:
            return 0.0
        with ad.no_grad():
            obs_arrays = self._obs.modalities()
            feats = {}
            for m in self.modalities:
                f, _ = self.extractors[m].forward(obs_arrays[m], final_states[m])
                feats[m] = f.data
            lams = self._lambda_arrays(feats)
            return self.head.value_array(self._fuse_array(feats, lams))

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

        sim_val, td_val = 0.0, 0.0
        if self.use_align:
            # step one: representation loss into the extractors only
            feats, _ = self._replay_features(buf, {m: s.detached() for m, s in initial_states.items()})
            parts = al.srl_loss(
                [feats[m] for m in self.modalities], self.align_cfg, episode_starts=buf.episode_starts
            )
            sim_val, td_val = parts.sim, parts.td
            if not np.isfinite(parts.total.data):
                raise NumericalError("representation loss is non-finite", self._numerical_dump(buf, {"loss_srl": float(parts.total.data)}))
            if parts.total.requires_grad:
                ad.backward(parts.total)
                ad.clip_grad_norm(self.phi_params, cfg.grad_clip)
                self.opt.step(self.phi_params)
                ad.zero_grads(self.phi_params)

        if self.use_ie:
            # the rollout is the statistics mini-batch
            for m in self.modalities:
                self.stats[m].update(np.stack(buf.features[m]))

        # step two: recompute features under the updated extractors
        feats, finals = self._replay_features(buf, {m: s.detached() for m, s in initial_states.items()})
        lam_mats = self._lambda_matrices(feats)
        fused = ad.concat([feats[m] * Value(np.asarray(lam_mats[m])) for m in self.modalities], axis=1)

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
        ad.backward(total)
        all_params = self.phi_params + self.head_params
        ad.clip_grad_norm(all_params, cfg.grad_clip)
        self.opt.step(all_params)
        ad.zero_grads(all_params)

        # recurrent state for the next rollout keeps flowing from acting time
        metrics = {
            "loss_actor": float(aloss.data),
            "loss_critic": float(closs.data),
            "loss_sim": sim_val,
            "loss_td": td_val,
            "mean_return_target": float(returns.mean()),
            "wall_ms": (time.perf_counter() - t0) * 1e3,
        }
        self._last_losses = {k: metrics[k] for k in ("loss_actor", "loss_critic", "loss_sim", "loss_td")}
        return metrics

    def run(self, episodes: int | None = None, max_env_steps: int | None = None) -> list:
        """Train until the episode budget (or step cap) is reached."""
        target = episodes if episodes is not None else self.cfg.episodes
        while self.episode < target:
            self.train_step()
            if max_env_steps is not None and self.env_steps >= max_env_steps:
                break
        return self.metrics_rows

    def run_eval(self, episodes: int) -> list:
        """Roll episodes with frozen parameters and statistics; returns episode rows."""
        rows = []
        with ad.no_grad():
            for _ in range(episodes):
                self._begin_episode()
                done = False
                while not done:
                    obs_arrays = self._obs.modalities()
                    feats = {}
                    for m in self.modalities:
                        f, self._states[m] = self.extractors[m].forward(obs_arrays[m], self._states[m])
                        feats[m] = f.data
                    lams = self._lambda_arrays(feats)
                    logits = self.head.logits_array(self._fuse_array(feats, lams))
                    action = sample_action(logits, self.action_rng)
                    lam_means = self._record_step_traces(feats, lams, phase="eval")
                    next_obs, reward, done = self.env.step(action)
                    self._ep_return += reward
                    self._ep_steps += 1
                    for m, mean in zip(self.modalities, lam_means):
                        self._ep_lambda_sums[m] += mean
                    if not done:
                        self._obs = next_obs
                        self._obs_audio_class = self.env.last_audio_class
                rows.append(
                    {
                        "episode": self.episode,
                        "return": self._ep_return,
                        "success": int(self.env.last_success),
                        "steps": self._ep_steps,
                    }
                )
                self._finish_episode(phase="eval")
        self._obs = None  # next training rollout starts a fresh episode
        return rows

    # -- checkpointing -------------------------------------------------------

    def named_parameters(self) -> dict:
        out = {}
        for m in self.modalities:
            out.update(self.extractors[m].named_parameters())
        out.update(self.head.named_parameters())
        return out

    def stats_payload(self) -> dict:
        return {
            m: {"mu": self.stats[m].mu.tolist(), "var": self.stats[m].var.tolist(),
                "xi": self.stats[m].xi, "eps": self.stats[m].eps}
            for m in self.modalities
        }

    def load_stats_payload(self, payload: dict):
        for m, entry in payload.items():
            self.stats[m] = en.ModalityStats(
                mu=np.asarray(entry["mu"], dtype=np.float64),
                var=np.asarray(entry["var"], dtype=np.float64),
                xi=float(entry["xi"]),
                eps=float(entry["eps"]),
            )

    def config_dict(self) -> dict:
        return asdict(self.cfg)
