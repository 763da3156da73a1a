"""Navigation gridworlds: heterogeneity, target selection, two-room audio-visual.

hetero_nav: redundant modalities. The grid image shows agent and goal; the
audio encodes the compass bearing from agent to goal (8 classes), so either
modality alone suffices.

target_select: dynamic importance. Two visually identical targets; only the
audio heard while standing on the marked line (and noise elsewhere) reveals
which target pays +1. Entering the wrong target ends the episode at -1.

av_nav: two rooms joined by a single corridor cell. Audio class encodes the
sound source's row relative to the agent (above -> left channel, below ->
right channel, level -> stereo). Inside the left room the effective source
is the corridor mouth, since sound only passes through the corridor.
"""

from __future__ import annotations

import numpy as np

from .base import AudioRenderer, GridEnv, MultimodalObservation


class HeteroNavEnv(GridEnv):
    """10x10 corner-to-corner navigation with bearing audio."""

    START = (0, 0)
    GOAL = (9, 9)
    # signs of the goal's offset (row, column) -> bearing class N, NE, E, SE, S, SW, W, NW
    BEARINGS = {
        (-1, 0): 0, (-1, 1): 1, (0, 1): 2, (1, 1): 3,
        (1, 0): 4, (1, -1): 5, (0, -1): 6, (-1, -1): 7,
    }

    def __init__(self, seed: int):
        super().__init__(seed, size=10, channels=2)
        self.audio = AudioRenderer(len(self.BEARINGS))

    def _reset_state(self):
        self.agent = self.START

    def _bearing(self) -> int:
        dr = self.GOAL[0] - self.agent[0]
        dc = self.GOAL[1] - self.agent[1]
        return self.BEARINGS.get((int(np.sign(dr)), int(np.sign(dc))), 2)

    def _transition(self, action: int):
        self.agent = self._bounded(self.agent, action)
        if self.agent == self.GOAL:
            self.last_success = True
            return 1.0, True
        return -1.0, False

    def _observe(self) -> MultimodalObservation:
        vis = self._blank_visual()
        vis[0][self.agent] = 1.0
        vis[1][self.GOAL] = 1.0
        self.last_audio_class = -1 if self.agent == self.GOAL else self._bearing()
        return MultimodalObservation(vis, self.audio.render(self.last_audio_class, self.rng))


class TargetSelectEnv(GridEnv):
    """Two identical-looking targets; the audio line reveals which one pays."""

    LINE_COL = 2
    TARGET_1 = (9, 9)  # right-bottom
    TARGET_2 = (0, 9)  # right-top
    START = (4, 0)

    def __init__(self, seed: int):
        super().__init__(seed, size=10, channels=3)
        self.audio = AudioRenderer(2)

    def _reset_state(self):
        self.agent = self.START
        self.target_type = int(self.rng.integers(1, 3))

    def _transition(self, action: int):
        self.agent = self._bounded(self.agent, action)
        correct = self.TARGET_1 if self.target_type == 1 else self.TARGET_2
        wrong = self.TARGET_2 if self.target_type == 1 else self.TARGET_1
        if self.agent == correct:
            self.last_success = True
            return 1.0, True
        if self.agent == wrong:
            return -1.0, True
        return -1.0, False

    def _observe(self) -> MultimodalObservation:
        vis = self._blank_visual()
        vis[0][self.agent] = 1.0
        vis[1][self.TARGET_1] = 1.0
        vis[1][self.TARGET_2] = 1.0  # targets render identically
        vis[2][:, self.LINE_COL] = 1.0
        on_line = self.agent[1] == self.LINE_COL
        self.last_audio_class = (self.target_type - 1) if on_line else -1
        return MultimodalObservation(vis, self.audio.render(self.last_audio_class, self.rng))


class AvNavEnv(GridEnv):
    """Two rooms, one corridor; stereo/left/right audio guides the row."""

    WALL_COL = 5
    CORRIDOR = (5, 5)
    START = (8, 1)
    GOAL = (2, 8)

    # audio classes: 0 left channel (source above), 1 right channel (source below), 2 stereo (level)
    LEFT, RIGHT, STEREO = 0, 1, 2

    def __init__(self, seed: int):
        super().__init__(seed, size=10, channels=3)
        self.audio = AudioRenderer(3)

    def _is_wall(self, pos) -> bool:
        return pos[1] == self.WALL_COL and pos != self.CORRIDOR

    def _reset_state(self):
        self.agent = self.START

    def _transition(self, action: int):
        nxt = self._bounded(self.agent, action)
        if not self._is_wall(nxt):
            self.agent = nxt
        if self.agent == self.GOAL:
            self.last_success = True
            return 1.0, True
        return -1.0, False

    def _source(self):
        # sound reaches the left room only through the corridor mouth
        return self.CORRIDOR if self.agent[1] < self.WALL_COL else self.GOAL

    def _transition_audio_class(self) -> int:
        src = self._source()
        if src[0] < self.agent[0]:
            return self.LEFT
        if src[0] > self.agent[0]:
            return self.RIGHT
        return self.STEREO

    def _observe(self) -> MultimodalObservation:
        vis = self._blank_visual()
        vis[0][self.agent] = 1.0
        vis[1][:, self.WALL_COL] = 1.0
        vis[1][self.CORRIDOR] = 0.0
        vis[2][self.GOAL] = 1.0
        self.last_audio_class = self._transition_audio_class()
        return MultimodalObservation(vis, self.audio.render(self.last_audio_class, self.rng))
