"""Latency model for the simulated persistent-memory device.

The paper injects a fixed delay after every cacheline read and write to
emulate persistent memory on top of DRAM (Section 4, "Methodology"):
10 ns per cacheline read and 150 ns per cacheline write, with a
sensitivity sweep over 50-200 ns write latencies (Figure 11).

The write/read cost ratio ``lambda = w / r`` is the single parameter the
algorithmic cost models of Section 2 depend on, so the model exposes it
directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError

#: Default read latency per cacheline, in nanoseconds (paper Section 4).
DEFAULT_READ_LATENCY_NS = 10.0

#: Default write latency per cacheline, in nanoseconds (paper Section 4).
DEFAULT_WRITE_LATENCY_NS = 150.0


@dataclass(frozen=True)
class LatencyModel:
    """Per-cacheline access latencies of the simulated device.

    Attributes:
        read_ns: cost of reading one cacheline from persistent memory.
        write_ns: cost of writing one cacheline to persistent memory.

    DRAM accesses are free: the paper prices persistent memory only.
    """

    read_ns: float = DEFAULT_READ_LATENCY_NS
    write_ns: float = DEFAULT_WRITE_LATENCY_NS

    def __post_init__(self) -> None:
        if self.read_ns <= 0:
            raise ConfigurationError(f"read_ns must be positive, got {self.read_ns}")
        if self.write_ns <= 0:
            raise ConfigurationError(f"write_ns must be positive, got {self.write_ns}")

    @property
    def write_read_ratio(self) -> float:
        """The asymmetry ratio ``lambda = w / r`` used by all cost models."""
        return self.write_ns / self.read_ns

    def read_cost_ns(self, cachelines: float) -> float:
        """Simulated time to read ``cachelines`` cachelines."""
        if cachelines < 0:
            raise ConfigurationError("cannot read a negative number of cachelines")
        return cachelines * self.read_ns

    def write_cost_ns(self, cachelines: float) -> float:
        """Simulated time to write ``cachelines`` cachelines."""
        if cachelines < 0:
            raise ConfigurationError("cannot write a negative number of cachelines")
        return cachelines * self.write_ns
