"""Time-windowed AVF: vulnerability phase behaviour.

The same group's companion study (Fu, Poe, Li & Fortes, MASCOTS 2006 — the
paper's reference [8]) observes that a structure's AVF moves through
*phases* during execution and asks how predictable they are.  This module
adds that lens to the SMT framework: the engine's ledgers are snapshotted
every ``window`` cycles, yielding a per-structure AVF time series, plus the
simple statistics the phase study reports (variability, and the accuracy of
a last-value phase predictor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

from repro.avf.structures import PRIVATE_STRUCTURES, Structure
from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from repro.avf.engine import AvfEngine


@dataclass
class PhaseSeries:
    """Per-window AVF values for every structure."""

    window: int
    avf: Dict[Structure, List[float]] = field(default_factory=dict)

    def windows(self) -> int:
        return len(next(iter(self.avf.values()))) if self.avf else 0


@dataclass
class PhaseStatistics:
    """Variability and last-value predictability of one structure's series."""

    mean: float
    std: float
    coefficient_of_variation: float
    last_value_mae: float
    """Mean absolute error of predicting each window's AVF with the previous
    window's value — the baseline predictor of the phase study."""


class PhaseTracker:
    """Snapshots an engine's ledgers on window boundaries."""

    def __init__(self, engine: "AvfEngine", window: int) -> None:
        if window <= 0:
            raise ConfigError("phase window must be positive")
        self.engine = engine
        self.window = window
        self._last_boundary = 0
        self._prev_totals: Dict[Structure, float] = {
            s: 0.0 for s in Structure
        }
        self.series = PhaseSeries(window=window,
                                  avf={s: [] for s in Structure})

    def _total_ace(self, structure: Structure) -> float:
        if structure in PRIVATE_STRUCTURES:
            return sum(acct.total_ace()
                       for acct in self.engine.private_accounts[structure].values())
        return self.engine.account(structure).total_ace()

    def _capacity(self, structure: Structure) -> int:
        if structure in PRIVATE_STRUCTURES:
            per_thread = self.engine.account(structure, 0).capacity
            return per_thread * self.engine.num_threads
        return self.engine.account(structure).capacity

    def tick(self, cycle: int) -> None:
        """Call once per cycle; emits a sample at each window boundary.

        Note: structures accrue residency at *deallocation*, so a window's
        sample includes intervals that ended inside it even if they started
        earlier — the standard trade-off of deallocation-time accounting.
        """
        if cycle - self._last_boundary < self.window:
            return
        self._emit(cycle)

    def _emit(self, cycle: int) -> None:
        span = cycle - self._last_boundary
        if span <= 0:
            return
        for s in Structure:
            total = self._total_ace(s)
            delta = total - self._prev_totals[s]
            self._prev_totals[s] = total
            avf = min(max(delta / (self._capacity(s) * span), 0.0), 1.0)
            self.series.avf[s].append(avf)
        self._last_boundary = cycle

    def finalize(self, cycle: int) -> PhaseSeries:
        """Emit the trailing partial window (if any) and return the series."""
        if cycle > self._last_boundary:
            self._emit(cycle)
        return self.series

    # -- probe-bus lifecycle hooks ---------------------------------------------

    def on_cycle(self, core) -> None:
        self.tick(core.cycle)

    def next_wake(self, cycle: int) -> int:
        return self._last_boundary + self.window

    def on_finalize(self, core) -> None:
        self.finalize(core.cycle)


def phase_statistics(series: PhaseSeries, structure: Structure) -> PhaseStatistics:
    """Variability and last-value predictability of one structure's AVF."""
    values = series.avf.get(structure, [])
    if not values:
        return PhaseStatistics(0.0, 0.0, 0.0, 0.0)
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    std = var ** 0.5
    cov = std / mean if mean > 0 else 0.0
    if n > 1:
        mae = sum(abs(values[i] - values[i - 1]) for i in range(1, n)) / (n - 1)
    else:
        mae = 0.0
    return PhaseStatistics(mean=mean, std=std, coefficient_of_variation=cov,
                           last_value_mae=mae)
