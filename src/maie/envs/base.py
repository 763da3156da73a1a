"""Gridworld plumbing shared by all benchmark environments.

Environments are deterministic given (seed, action sequence): every random
draw (audio noise, episode setup) comes from the instance's seeded
generator. Audio is rendered as a 16x16 image: one fixed sinusoidal
pattern per audio class plus Gaussian noise, so the CNN extractor sees a
continuous signal whose class structure dominates the noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

AUDIO_SIZE = 16
AUDIO_NOISE_STD = 0.1
EPISODE_CAP = 100


@dataclass
class MultimodalObservation:
    """One timestep's observation: a binary object grid, an audio image, optional text ids."""

    visual: np.ndarray
    audio: np.ndarray
    text: np.ndarray | None = None

    def modalities(self) -> dict:
        out = {"visual": self.visual, "audio": self.audio}
        if self.text is not None:
            out["text"] = self.text
        return out


class AudioRenderer:
    """Class-specific stripe patterns plus Gaussian noise on a 16x16 canvas."""

    _FREQS = [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (2, 2), (3, 0), (0, 3), (1, 2)]

    def __init__(self, n_classes: int):
        if n_classes > len(self._FREQS):
            raise ValueError(f"at most {len(self._FREQS)} audio classes supported")
        grid = np.arange(AUDIO_SIZE)
        yy, xx = np.meshgrid(grid, grid, indexing="ij")
        self._patterns = np.stack(
            [
                np.sin(2.0 * np.pi * (fy * yy + fx * xx) / AUDIO_SIZE)
                for fy, fx in self._FREQS[:n_classes]
            ]
        )

    def pattern(self, class_id: int) -> np.ndarray:
        """Noiseless class pattern (the zero image for the noise class -1)."""
        if class_id < 0:
            return np.zeros((AUDIO_SIZE, AUDIO_SIZE))
        return self._patterns[class_id]

    def render(self, class_id: int, rng: np.random.Generator) -> np.ndarray:
        base = self.pattern(class_id)
        return (base + rng.normal(0.0, AUDIO_NOISE_STD, size=base.shape))[None]


class GridEnv:
    """Base class: bounded moves, step cap, seeded determinism.

    Subclasses pass the grid ``size`` and the visual ``channels`` and define
    ``_reset_state``, ``_transition`` (returning (reward, done)) and
    ``_observe``, which draws on ``_blank_visual()``; they update
    ``last_audio_class`` (-1 means noise) and ``last_success`` on terminal
    steps.
    """

    action_names: tuple = ("up", "down", "left", "right")
    MOVES = {0: (-1, 0), 1: (1, 0), 2: (0, -1), 3: (0, 1)}
    max_steps = EPISODE_CAP

    def __init__(self, seed: int, size: int, channels: int):
        self.size = size
        self.channels = channels
        self.rng = np.random.default_rng(seed)
        self.steps = 0
        self.last_audio_class = -1
        self.last_success = False
        self._done = True

    @property
    def n_actions(self) -> int:
        return len(self.action_names)

    @property
    def modality_shapes(self) -> dict:
        return {"visual": (self.channels, self.size, self.size), "audio": (1, AUDIO_SIZE, AUDIO_SIZE)}

    def _blank_visual(self) -> np.ndarray:
        return np.zeros((self.channels, self.size, self.size))

    def reset(self) -> MultimodalObservation:
        self.steps = 0
        self._done = False
        self.last_success = False
        self._reset_state()
        return self._observe()

    def step(self, action: int):
        """Returns (observation, reward, done)."""
        if not isinstance(action, (int, np.integer)) or not 0 <= int(action) < self.n_actions:
            raise ValueError(f"invalid action {action!r}; expected id in [0, {self.n_actions})")
        if self._done:
            raise RuntimeError("episode finished; call reset() first")
        reward, done = self._transition(int(action))
        self.steps += 1
        if not done and self.steps >= self.max_steps:
            done = True  # cap reached, no bonus
        self._done = done
        obs = self._observe()
        return obs, float(reward), bool(done)

    def _bounded(self, pos, action):
        dr, dc = self.MOVES[action]
        r = min(max(pos[0] + dr, 0), self.size - 1)
        c = min(max(pos[1] + dc, 0), self.size - 1)
        return (r, c)

    def _reset_state(self):
        raise NotImplementedError

    def _transition(self, action: int):
        raise NotImplementedError

    def _observe(self) -> MultimodalObservation:
        raise NotImplementedError
