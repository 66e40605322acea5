"""Seeded input generator for the benchmark.

``random_circuit`` copies the draw order of ``tests/conftest.random_circuit``
(``selftest.py`` checks that both give the same circuits) but emits circuit
text, so the program under test receives only generated inputs and parses
them itself. The plain stage list kept beside the text lets the checks replay
the circuit without going through the package. ``rc(n, K)`` is that recipe
with ``max_clifford = 3n``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ONE_QUBIT = ("H", "P", "PDG", "X", "Z")
CNOT_PROB = 0.3


@dataclass(frozen=True)
class Circ:
    n: int
    text: str
    # One (gates, t_layer) pair per stage; a gate is (kind, qubits).
    stages: tuple[tuple[tuple[tuple[str, tuple[int, ...]], ...], tuple[int, ...]], ...]

    @property
    def k(self) -> int:
        return len(self.stages)


def random_circuit(rng: np.random.Generator, n: int, k: int, max_clifford: int,
                   allow_empty_final: bool = True) -> Circ:
    lines = [f"QUBITS {n}"]
    stages = []
    for i in range(k):
        gates = []
        for _ in range(int(rng.integers(0, max_clifford + 1))):
            if n >= 2 and rng.random() < CNOT_PROB:
                c, t = rng.choice(n, size=2, replace=False)
                gates.append(("CNOT", (int(c), int(t))))
            else:
                kind = ONE_QUBIT[int(rng.integers(len(ONE_QUBIT)))]
                gates.append((kind, (int(rng.integers(n)),)))
        if i == k - 1 and allow_empty_final and rng.random() < 0.3:
            t_layer: tuple[int, ...] = ()
        else:
            size = int(rng.integers(1, n + 1))
            t_layer = tuple(sorted(int(q) for q in rng.choice(n, size=size, replace=False)))
        lines.extend(" ".join([kind, *map(str, qs)]) for kind, qs in gates)
        lines.extend(f"T {q}" for q in t_layer)
        lines.append("---")
        stages.append((tuple(gates), t_layer))
    return Circ(n, "\n".join(lines) + "\n", tuple(stages))


def rc(rng: np.random.Generator, n: int, k: int) -> Circ:
    return random_circuit(rng, n, k, max_clifford=3 * n)


def input_rng(seed: int, *slot: int) -> np.random.Generator:
    """Independent stream for one input, fixed by the workload seed and its slot."""
    return np.random.default_rng([seed, *slot])


def random_amplitudes(rng: np.random.Generator, n: int) -> np.ndarray:
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return amps / np.linalg.norm(amps)


def random_bits(rng: np.random.Generator, names) -> dict[str, int]:
    return {name: int(bit) for name, bit in zip(names, rng.integers(0, 2, size=len(names)))}
