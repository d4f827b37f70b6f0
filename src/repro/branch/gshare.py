"""Gshare direction predictor (McFarling-style).

A table of 2-bit saturating counters indexed by PC XOR global branch
history.  The speculative history is updated at prediction time and repaired
on a misprediction, matching how a real front end keeps its history aligned
with the fetch stream.
"""

from __future__ import annotations

from repro.errors import ConfigError

_TAKEN_THRESHOLD = 2  # counters 2,3 predict taken
_COUNTER_MAX = 3


class GsharePredictor:
    """2-bit-counter gshare predictor with speculative global history."""

    def __init__(self, entries: int = 2048, history_bits: int = 10) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ConfigError("gshare entries must be a positive power of two")
        self._entries = entries
        self._mask = entries - 1
        self._history_mask = (1 << history_bits) - 1
        # Weakly taken start: avoids a cold-start bias toward not-taken loops.
        self._table = bytearray([_TAKEN_THRESHOLD] * entries)
        self._history = 0
        self.lookups = 0
        self.correct = 0

    def _index(self, pc: int, history: int) -> int:
        return ((pc >> 2) ^ history) & self._mask

    def predict(self, pc: int) -> tuple[bool, int]:
        """Predict direction for the branch at ``pc``.

        Returns ``(taken, history_checkpoint)``; the checkpoint restores the
        speculative history if this branch turns out mispredicted.
        """
        checkpoint = self._history
        taken = self._table[self._index(pc, self._history)] >= _TAKEN_THRESHOLD
        self._history = ((self._history << 1) | int(taken)) & self._history_mask
        self.lookups += 1
        return taken, checkpoint

    def resolve(self, pc: int, taken: bool, predicted: bool,
                history_checkpoint: int) -> None:
        """Train the counter and repair speculative history on a mispredict."""
        idx = self._index(pc, history_checkpoint)
        ctr = self._table[idx]
        if taken:
            self._table[idx] = min(ctr + 1, _COUNTER_MAX)
        else:
            self._table[idx] = max(ctr - 1, 0)
        if predicted == taken:
            self.correct += 1
        else:
            self._history = ((history_checkpoint << 1) | int(taken)) & self._history_mask

    def fork(self) -> "GsharePredictor":
        clone = GsharePredictor.__new__(GsharePredictor)
        clone.__dict__.update(self.__dict__)
        clone._table = bytearray(self._table)
        return clone

    @property
    def history(self) -> int:
        """Current speculative global history register value."""
        return self._history

    @property
    def accuracy(self) -> float:
        """Fraction of resolved lookups predicted correctly."""
        return self.correct / self.lookups if self.lookups else 0.0
