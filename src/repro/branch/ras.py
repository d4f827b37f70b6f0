"""Return address stack: a bounded circular stack of return addresses.

Overflow overwrites the oldest entry (as in real hardware); underflow
returns None and the front end falls back to the BTB.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ConfigError


class ReturnAddressStack:
    """Fixed-capacity return address stack."""

    def __init__(self, entries: int = 32) -> None:
        if entries <= 0:
            raise ConfigError("RAS entries must be positive")
        self._capacity = entries
        self._stack: List[int] = []
        self.overflows = 0
        self.underflows = 0

    def push(self, return_address: int) -> None:
        if len(self._stack) >= self._capacity:
            del self._stack[0]
            self.overflows += 1
        self._stack.append(return_address)

    def pop(self) -> Optional[int]:
        if not self._stack:
            self.underflows += 1
            return None
        return self._stack.pop()

    def snapshot(self) -> List[int]:
        """Checkpoint for squash recovery."""
        return list(self._stack)

    def restore(self, snapshot: List[int]) -> None:
        self._stack = list(snapshot)

    def fork(self) -> "ReturnAddressStack":
        clone = ReturnAddressStack.__new__(ReturnAddressStack)
        clone.__dict__.update(self.__dict__)
        clone._stack = list(self._stack)
        return clone

    def __len__(self) -> int:
        return len(self._stack)
