"""Shared test helpers: an independent matrix oracle, random generators, and
hypothesis strategies. The matrix helpers are built from literal 2x2 gates and
basis permutations so they never route through the package's own tables."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from tlink.circuits import Gate, GateKind, LayeredCircuit, Stage, flatten
from tlink.compiler import CompiledProgram, Instruction, InstrOp
from tlink.frames import (
    KeyPoly,
    OutcomeVar,
    Owner,
    PauliMask,
    apply_tableau,
    commute_through_t_layer,
    poly_eval,
    tableau_from_stage,
)
from tlink.oracle import StateVector, init_state

settings.register_profile(
    "default", max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

_S = 1 / np.sqrt(2)
MAT_1Q = {
    "H": np.array([[_S, _S], [_S, -_S]], dtype=complex),
    "P": np.diag([1.0, 1.0j]),
    "PDG": np.diag([1.0, -1.0j]),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]),
    "T": np.diag([1.0, np.exp(1j * np.pi / 4)]),
}


def embed_1q(mat: np.ndarray, q: int, n: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for i in range(n):
        out = np.kron(out, mat if i == q else np.eye(2))
    return out


def cnot_matrix(control: int, target: int, n: int) -> np.ndarray:
    dim = 2 ** n
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        bits = [(i >> (n - 1 - k)) & 1 for k in range(n)]
        if bits[control]:
            bits[target] ^= 1
        j = sum(b << (n - 1 - k) for k, b in enumerate(bits))
        out[j, i] = 1
    return out


def gate_matrix(g: Gate, n: int) -> np.ndarray:
    if g.kind is GateKind.CNOT:
        return cnot_matrix(g.targets[0], g.targets[1], n)
    return embed_1q(MAT_1Q[g.kind.value], g.targets[0], n)


def gates_matrix(gates, n: int) -> np.ndarray:
    u = np.eye(2 ** n, dtype=complex)
    for g in gates:
        u = gate_matrix(g, n) @ u
    return u


def circuit_matrix(c: LayeredCircuit) -> np.ndarray:
    return gates_matrix(flatten(c), c.n)


def apply_gates(amps: np.ndarray, gates, n: int) -> np.ndarray:
    """Apply gates to an n-qubit amplitude vector one qubit axis at a time,
    with the literal 2x2 matrices above and CNOT as a basis permutation: the
    matrix oracle for registers too wide for full 2^n x 2^n matrices. The
    amplitudes stay one contiguous copy of the input: a 2x2 matrix multiplies
    the (before, qubit, after) view, a diagonal one scales the qubit's two
    halves in place, and a CNOT flips its target within the control's 1 half
    in place."""
    out = np.array(amps, dtype=complex).reshape(-1)
    for g in gates:
        if g.kind is GateKind.CNOT:
            c, t = g.targets
            on = [slice(None)] * n
            on[c] = 1
            half = out.reshape((2,) * n)[tuple(on)]
            half[...] = np.flip(half, axis=t - (t > c)).copy()
        else:
            q = g.targets[0]
            mat = MAT_1Q[g.kind.value]
            view = out.reshape(2 ** q, 2, -1)
            if mat[0, 1] == 0 and mat[1, 0] == 0:
                view[:, 0] *= mat[0, 0]
                view[:, 1] *= mat[1, 1]
            else:
                out = np.matmul(mat, view).reshape(-1)
    return out


def project(amps: np.ndarray, n: int, bits: dict[int, int]) -> np.ndarray:
    """Zero every amplitude where some qubit q does not read ``bits[q]``."""
    out = np.zeros((2,) * n, dtype=complex)
    idx = [slice(None)] * n
    for q, b in bits.items():
        idx[q] = b
    out[tuple(idx)] = np.asarray(amps).reshape((2,) * n)[tuple(idx)]
    return out.reshape(-1)


def factor_state(amps: np.ndarray, n: int, front) -> StateVector:
    """The normalized state on the qubits ``front`` of a product state whose
    other qubits are in one basis state: its largest column."""
    rest = [q for q in range(n) if q not in front]
    mat = np.transpose(np.asarray(amps).reshape((2,) * n), list(front) + rest)
    mat = mat.reshape(2 ** len(front), -1)
    vec = mat[:, int(np.argmax(np.linalg.norm(mat, axis=0)))]
    return StateVector(len(front), vec / np.linalg.norm(vec))


def sigma(mask: PauliMask) -> np.ndarray:
    """Tensor product of X^a Z^b per qubit."""
    out = np.eye(1, dtype=complex)
    for j in range(mask.n):
        m = np.linalg.matrix_power(MAT_1Q["X"], mask.a[j]) @ \
            np.linalg.matrix_power(MAT_1Q["Z"], mask.b[j])
        out = np.kron(out, m)
    return out


def mats_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    idx = np.unravel_index(int(np.argmax(np.abs(b))), b.shape)
    if abs(b[idx]) < tol:
        return bool(np.allclose(a, b, atol=tol))
    phase = a[idx] / b[idx]
    if abs(abs(phase) - 1.0) > 1e-9:
        return False
    return bool(np.allclose(a, phase * b, atol=tol))


def random_state(rng: np.random.Generator, n: int) -> StateVector:
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return init_state(n, amps / np.linalg.norm(amps))


_ONE_QUBIT_KINDS = (GateKind.H, GateKind.P, GateKind.PDG, GateKind.X, GateKind.Z)


def random_circuit(rng: np.random.Generator, n: int, k: int, max_clifford: int = 5,
                   allow_empty_final: bool = True,
                   kinds=_ONE_QUBIT_KINDS, cnot_prob: float = 0.3) -> LayeredCircuit:
    stages = []
    for i in range(k):
        gates = []
        for _ in range(int(rng.integers(0, max_clifford + 1))):
            if n >= 2 and rng.random() < cnot_prob:
                c, t = rng.choice(n, size=2, replace=False)
                gates.append(Gate(GateKind.CNOT, (int(c), int(t))))
            else:
                gates.append(Gate(kinds[int(rng.integers(len(kinds)))],
                                  (int(rng.integers(n)),)))
        if i == k - 1 and allow_empty_final and rng.random() < 0.3:
            t_layer = frozenset()
        else:
            size = int(rng.integers(1, n + 1))
            t_layer = frozenset(int(q) for q in rng.choice(n, size=size, replace=False))
        stages.append(Stage(tuple(gates), t_layer))
    return LayeredCircuit(n, tuple(stages))


_CLASSICAL_KINDS = (GateKind.X, GateKind.Z, GateKind.P, GateKind.PDG)


def random_classical_circuit(rng: np.random.Generator, n: int, k: int) -> LayeredCircuit:
    """Stages built from basis-preserving gates only (no H)."""
    return random_circuit(rng, n, k, allow_empty_final=False,
                          kinds=_CLASSICAL_KINDS, cnot_prob=0.4 if n >= 2 else 0.0)


def assert_frame_coherence(circuit: LayeredCircuit, program, outcomes: dict[str, int]) -> int:
    """Replay the frame with concrete bits and compare, at these outcomes,
    every key the program's COND_PDG/COND_X/COND_Z instructions carry on the
    stage carriers (a missing instruction is the key 0): each pending T-layer
    bit and the final X and Z bits. Returns the number of compared bits."""
    n = circuit.n
    conds = {(ins.op, ins.qubits[0]): ins.cond for ins in program.instructions
             if ins.cond is not None}

    def emitted(op: InstrOp, i: int, j: int) -> int:
        key = conds.get((op, j if i == 1 else n + 2 * n * (i - 2) + n + j))
        return 0 if key is None else poly_eval(key, outcomes)

    mask = PauliMask.zero(n)
    var_idx = 0
    checked = 0
    k = len(circuit.stages)
    for i, st_ in enumerate(circuit.stages, start=1):
        mask = apply_tableau(tableau_from_stage(st_.clifford, n), mask)
        mask, pending = commute_through_t_layer(mask, st_.t_layer)
        for j, bit in pending.items():
            assert emitted(InstrOp.COND_PDG, i, j) == bit
            checked += 1
        if i < k:
            a, b = list(mask.a), list(mask.b)
            for j in range(n):
                a[j] ^= outcomes[f"m{var_idx}x"]
                b[j] ^= outcomes[f"m{var_idx}z"]
                var_idx += 1
            mask = PauliMask(tuple(a), tuple(b))
    for j in range(n):
        assert emitted(InstrOp.COND_X, k, j) == mask.a[j]
        assert emitted(InstrOp.COND_Z, k, j) == mask.b[j]
        checked += 2
    return checked


# -- hypothesis strategies -----------------------------------------------------

def gate_strategy(n: int):
    one_q = st.builds(
        lambda kind, q: Gate(kind, (q,)),
        st.sampled_from(_ONE_QUBIT_KINDS), st.integers(0, n - 1))
    if n < 2:
        return one_q
    two_q = st.builds(
        lambda c, d: Gate(GateKind.CNOT, (c, d if d < c else d + 1)),
        st.integers(0, n - 1), st.integers(0, n - 2))
    return st.one_of(one_q, two_q)


def rotation_twin(p: CompiledProgram) -> CompiledProgram:
    """``p`` with ``X s`` inserted twice right before each ``BELL r s``. The
    pair is the identity, but s is no longer untouched since its EPR, so
    every BELL of the twin takes the rotation path (a rotation, then a
    two-qubit Z measurement) instead of a teleport step."""
    instrs = []
    for ins in p.instructions:
        if ins.op is InstrOp.BELL:
            x = Gate(GateKind.X, ins.qubits[1:])
            instrs += [Instruction(InstrOp.GATE, x.targets, x)] * 2
        instrs.append(ins)
    return CompiledProgram(p.total_qubits, p.logical_outputs, tuple(instrs))


@st.composite
def layered_circuits(draw, max_n: int = 3, max_k: int = 3):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    stages = []
    for i in range(k):
        gates = tuple(draw(st.lists(gate_strategy(n), max_size=4)))
        if i == k - 1 and draw(st.booleans()):
            t_layer: frozenset[int] = frozenset()
        else:
            t_layer = frozenset(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
        stages.append(Stage(gates, t_layer))
    return LayeredCircuit(n, tuple(stages))


_POLY_VARS = (
    OutcomeVar("p", Owner.BOB),
    OutcomeVar("q", Owner.ALICE),
    OutcomeVar("u", Owner.LOCAL),
    OutcomeVar("w", Owner.BOB),
)

monomials = st.frozensets(st.sampled_from(_POLY_VARS), min_size=1, max_size=3)
keypolys = st.builds(KeyPoly.from_monomials, st.frozensets(monomials, max_size=4), st.integers(0, 1))
assignments = st.fixed_dictionaries({v.name: st.integers(0, 1) for v in _POLY_VARS})


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
