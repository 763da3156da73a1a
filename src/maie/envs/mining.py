"""Mining gridworld: ore type is audible but not visible; tools gate mining.

The ore renders in the same visual channel whichever type it is; standing
next to it plays the ore's audio cue (gold or iron pattern), which tells
the agent whether the pickaxe or the stove is the right tool. ``pick`` on a
tool tile takes that tool (swapping any held one back to its home tile);
``pick`` next to the ore attempts to mine. The plus variant adds a pursuing
monster and a text channel carrying short event messages.
"""

from __future__ import annotations

import numpy as np

from .base import AudioRenderer, GridEnv, MultimodalObservation

TEXT_LEN = 12

MESSAGES = {
    "task": "You should find gold and mine gold.",
    "no_tool": "You do not have ax.",
    "got_tool": "You get the ax, go to mine gold.",
    "mined": "You get gold.",
    "hurt": "You hurt by tiger.",
}

PAD_TOKEN = "<pad>"
NOISE_TOKEN = "<noise>"


def _words(message: str) -> list:
    return [w.strip(".,!?").lower() for w in message.split() if w.strip(".,!?")]


def build_vocab() -> list:
    """Pad and noise tokens, then the sorted closure of the message words."""
    words = sorted({w for msg in MESSAGES.values() for w in _words(msg)})
    return [PAD_TOKEN, NOISE_TOKEN] + words


VOCAB = build_vocab()
_WORD_ID = {w: i for i, w in enumerate(VOCAB)}


def encode_text(message: str | None, length: int = TEXT_LEN) -> np.ndarray:
    """Token ids, padded/truncated to a fixed length. None encodes as all padding."""
    ids = [] if message is None else [_WORD_ID[w] for w in _words(message)]
    ids = ids[:length] + [0] * (length - len(ids))
    return np.asarray(ids, dtype=np.int64)


class MiningEnv(GridEnv):
    """8x8 tool-then-ore task; ``plus`` adds the monster and the text channel."""

    action_names = ("up", "down", "left", "right", "pick")

    GOLD, IRON = 0, 1  # audio cue classes; -1 is noise
    TOOL_FOR = {GOLD: "ax", IRON: "stove"}

    ORE = (3, 3)
    TOOL_HOME = {"ax": (0, 6), "stove": (6, 0)}
    START = (0, 0)
    MONSTER_START = (7, 7)
    MONSTER_RADIUS = 2
    MINE_REWARD = 10.0
    WRONG_TOOL_PENALTY = -10.0
    MONSTER_PENALTY = -100.0

    def __init__(self, seed: int, plus: bool = False):
        super().__init__(seed, size=8, channels=5 if plus else 4)
        self.plus = plus
        self.audio = AudioRenderer(2)
        # takes the seeded stream's first draw (an ore type that reset() then
        # redraws); without it every later draw, and so every run, would shift
        self._reset_state()

    @property
    def modality_shapes(self) -> dict:
        shapes = super().modality_shapes
        if self.plus:
            shapes["text"] = (TEXT_LEN,)
        return shapes

    @property
    def vocab_size(self) -> int:
        return len(VOCAB)

    def _reset_state(self):
        self.agent = self.START
        self.ore_type = int(self.rng.integers(0, 2))
        self.tools = dict(self.TOOL_HOME)  # tool name -> ground position (None if held)
        self.held = None
        self.monster = self.MONSTER_START if self.plus else None
        self.event = "task"

    def _ore_adjacent(self) -> bool:
        return max(abs(self.agent[0] - self.ORE[0]), abs(self.agent[1] - self.ORE[1])) <= 1

    def _monster_turn(self) -> bool:
        """Monster pursues when the agent is close; returns True on contact."""
        if self.monster is None:
            return False
        dist = abs(self.agent[0] - self.monster[0]) + abs(self.agent[1] - self.monster[1])
        if dist <= self.MONSTER_RADIUS:
            mr, mc = self.monster
            dr, dc = self.agent[0] - mr, self.agent[1] - mc
            if abs(dr) >= abs(dc) and dr != 0:
                mr += int(np.sign(dr))
            elif dc != 0:
                mc += int(np.sign(dc))
            self.monster = (mr, mc)
        return self.monster == self.agent

    def _transition(self, action: int):
        self.event = None
        if action == 4:
            reward, done = self._pick()
        else:
            nxt = self._bounded(self.agent, action)
            if nxt != self.ORE:  # the ore blocks movement; mining is explicit
                self.agent = nxt
            reward, done = -1.0, False
        if not done and self._monster_turn():
            self.event = "hurt"
            return self.MONSTER_PENALTY, True
        return reward, done

    def _pick(self):
        for tool, pos in self.tools.items():
            if pos == self.agent:
                if self.held is not None:
                    self.tools[self.held] = self.TOOL_HOME[self.held]
                self.tools[tool] = None
                self.held = tool
                if tool == self.TOOL_FOR[self.ore_type]:
                    self.event = "got_tool"
                return -1.0, False
        if self._ore_adjacent():
            if self.held == self.TOOL_FOR[self.ore_type]:
                self.event = "mined"
                self.last_success = True
                return self.MINE_REWARD, True
            self.event = "no_tool"
            return self.WRONG_TOOL_PENALTY, False
        return -1.0, False

    def _observe(self) -> MultimodalObservation:
        vis = self._blank_visual()
        vis[0][self.agent] = 1.0
        vis[1][self.ORE] = 1.0  # both ore types use the same channel
        for i, tool in enumerate(("ax", "stove")):
            if self.tools[tool] is not None:
                vis[2 + i][self.tools[tool]] = 1.0
        if self.plus and self.monster is not None:
            vis[4][self.monster] = 1.0
        self.last_audio_class = self.ore_type if self._ore_adjacent() else -1
        audio = self.audio.render(self.last_audio_class, self.rng)
        text = None
        if self.plus:
            text = encode_text(MESSAGES[self.event] if self.event else None)
        return MultimodalObservation(vis, audio, text)
