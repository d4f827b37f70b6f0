"""Shared fixtures: small, fast configurations for unit/integration tests."""

from __future__ import annotations

import re

import pytest

from repro.config import MachineConfig, SimConfig


@pytest.fixture
def config() -> MachineConfig:
    """The Table 1 machine."""
    return MachineConfig()


@pytest.fixture
def tiny_sim() -> SimConfig:
    """A very short run for pipeline integration tests."""
    return SimConfig(max_instructions=800, max_cycles=2_000_000)


@pytest.fixture
def small_sim() -> SimConfig:
    """A short-but-meaningful run for behavioural assertions."""
    return SimConfig(max_instructions=4000, max_cycles=5_000_000)


@pytest.fixture
def flip_digit():
    """``flip(path, field)``: change the first digit of the number stored
    under ``"<field>":`` in a JSON file, which still parses afterwards —
    the kind of corruption only a checksum catches."""
    def flip(path, field: str) -> None:
        data = path.read_bytes()
        match = re.search(rb'"%s": ?\d' % field.encode(), data)
        assert match, f"no number under {field!r} in {path}"
        i = match.end() - 1
        digit = data[i] - ord("0")
        new = digit + 1 if digit < 9 else 8
        path.write_bytes(data[:i] + bytes([ord("0") + new]) + data[i + 1:])
    return flip
