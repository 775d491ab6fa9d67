"""A fixed amount of work that does not touch the program under test.

``python -m perfbench.calibrate`` runs it once in a fresh interpreter.
``run.py`` times it between the workload runs: its wall time tracks how
fast the shared machine runs at that moment, whatever the program does.
It mixes the kinds of work the workloads do: a toy population protocol
stepped one interaction at a time in plain Python, many small objects, and
array work.
"""

from __future__ import annotations

import random

import numpy


class _Agent:
    __slots__ = ("rank", "phase", "count")

    def __init__(self, rank: int, phase: int, count: int):
        self.rank = rank
        self.phase = phase
        self.count = count

    def interact(self, other: "_Agent") -> None:
        if self.phase == other.phase:
            other.phase = (other.phase + 1) % 3
        if self.rank == other.rank:
            other.rank = (other.rank + 1) % 64
        self.count += 1


def work() -> int:
    rng = random.Random(12345)
    population = [_Agent(index, index % 3, 0) for index in range(64)]
    for _ in range(40_000):
        initiator, responder = rng.sample(population, 2)
        initiator.interact(responder)
    agents = [_Agent(index % 64, index % 3, index) for index in range(150_000)]
    total = sum(agent.rank for agent in agents if agent.phase == 1)
    generator = numpy.random.default_rng(12345)
    values = generator.integers(0, 1 << 20, size=1 << 19)
    for _ in range(3):
        values = numpy.sort(values[generator.permutation(values.size)])
    return total + sum(agent.count for agent in population) + int(values[-1])


if __name__ == "__main__":
    work()
