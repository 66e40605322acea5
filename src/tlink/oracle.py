"""
Dense statevector oracle: brute-force ground truth for every transformation.

Qubit q is tensor axis q, so basis strings read left-to-right as qubit
0..n-1 and the flat amplitude index is big-endian in qubit 0. States are
capped at 14 qubits (desk scale).

Bell measurement convention: measuring (r, s) rotates with CNOT(r, s) then
H(r) and reads z from r, x from s. If s was half of an EPR pair whose partner
carried a teleported state psi, the partner afterwards holds X^x Z^z psi.
Measured qubits are retained, collapsed to the matching Bell state, so qubit
indices stay stable. Each Bell measurement consumes exactly one uniform draw
from the supplied generator.

The Register class runs the same simulation over a dynamically allocated
window of named qubits, factoring measured Bell pairs out of the state so
long programs stay within the size cap. Distinct states and registers may be
processed in parallel; none of these objects is shared-mutable.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .circuits import Gate, GateKind, LayeredCircuit, ValidationError, flatten
from .frames import PauliMask

MAX_QUBITS = 14
_NORM_TOL = 1e-12

_S = 1 / sqrt(2)
GATE_MATRICES = {
    GateKind.H: np.array([[_S, _S], [_S, -_S]], dtype=complex),
    GateKind.P: np.diag([1, 1j]).astype(complex),
    GateKind.PDG: np.diag([1, -1j]).astype(complex),
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Z: np.diag([1, -1]).astype(complex),
    GateKind.T: np.diag([1, np.exp(1j * pi / 4)]).astype(complex),
}

# Outcome order for the single uniform draw per Bell measurement.
_BELL_OUTCOMES = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass
class StateVector:
    n: int
    amps: np.ndarray

    def shaped(self) -> np.ndarray:
        return self.amps.reshape((2,) * self.n)

    def __str__(self) -> str:
        lines = []
        for i, amp in enumerate(self.amps):
            if abs(amp) > 1e-12:
                lines.append(f"{i:0{self.n}b}: {amp:.6g}")
        return "\n".join(lines) or "0"


@dataclass(frozen=True)
class MeasRecord:
    """One Bell measurement: variable names, realized bits, measured qubits."""

    var_x: str
    var_z: str
    bits: tuple[int, int]
    measured: tuple[int, int]


def _check_state(n: int, amps: np.ndarray) -> StateVector:
    if n > MAX_QUBITS:
        raise ValidationError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit cap")
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > 1e-6:
        raise ValidationError(f"state norm {norm} is not 1")
    return StateVector(n, amps / norm)


def init_state(n: int, basis) -> StateVector:
    """Build a state from a basis bitstring or an amplitude sequence."""
    if isinstance(basis, str):
        if len(basis) != n or set(basis) - {"0", "1"}:
            raise ValidationError(f"basis string must be {n} bits")
        amps = np.zeros(2 ** n, dtype=complex)
        amps[int(basis, 2)] = 1.0
        return _check_state(n, amps)
    amps = np.asarray(basis, dtype=complex).ravel()
    if amps.shape[0] != 2 ** n:
        raise ValidationError(f"expected {2 ** n} amplitudes, got {amps.shape[0]}")
    return _check_state(n, amps.copy())


def random_state(n: int, rng: np.random.Generator) -> StateVector:
    """Random n-qubit state: 2^n real normal draws, then 2^n imaginary ones."""
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return init_state(n, amps / np.linalg.norm(amps))


def basis_bits(state: StateVector, context: str) -> tuple[int, ...]:
    """The bits of a computational basis state (up to phase); raises otherwise."""
    probs = np.abs(state.amps) ** 2
    idx = int(np.argmax(probs))
    if probs[idx] < 1.0 - 1e-9:
        raise ValidationError(f"{context}: state is not a basis state (circuit is not classical here)")
    return tuple((idx >> (state.n - 1 - j)) & 1 for j in range(state.n))


_DIAG_VECS = {
    kind: np.array([mat[0, 0], mat[1, 1]]).reshape(1, 2, 1)
    for kind, mat in GATE_MATRICES.items()
    if mat[0, 1] == 0 and mat[1, 0] == 0
}


def _apply_1q(shaped: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    pre = 1 << axis
    v = shaped.reshape(pre, 2, -1)
    out = np.empty_like(v)
    a0, a1 = v[:, 0, :], v[:, 1, :]
    out[:, 0, :] = mat[0, 0] * a0 + mat[0, 1] * a1
    out[:, 1, :] = mat[1, 0] * a0 + mat[1, 1] * a1
    return out.reshape(shaped.shape)


def _apply_cnot(shaped: np.ndarray, control: int, target: int) -> np.ndarray:
    out = shaped.copy()
    idx10 = [slice(None)] * shaped.ndim
    idx11 = [slice(None)] * shaped.ndim
    idx10[control], idx10[target] = 1, 0
    idx11[control], idx11[target] = 1, 1
    out[tuple(idx10)] = shaped[tuple(idx11)]
    out[tuple(idx11)] = shaped[tuple(idx10)]
    return out


def _apply_kind(shaped: np.ndarray, kind: GateKind, qubits: tuple[int, ...]) -> np.ndarray:
    if kind is GateKind.CNOT:
        return _apply_cnot(shaped, *qubits)
    axis = qubits[0]
    diag = _DIAG_VECS.get(kind)
    if diag is not None:
        return (shaped.reshape(1 << axis, 2, -1) * diag).reshape(shaped.shape)
    if kind is GateKind.X:
        return shaped.reshape(1 << axis, 2, -1)[:, ::-1, :].reshape(shaped.shape)
    return _apply_1q(shaped, GATE_MATRICES[kind], axis)


def apply_gate(state: StateVector, g: Gate) -> StateVector:
    for q in g.targets:
        if not 0 <= q < state.n:
            raise ValidationError(f"qubit index {q} out of range")
    out = _apply_kind(state.shaped(), g.kind, g.targets)
    return StateVector(state.n, out.reshape(-1))


def apply_circuit(state: StateVector, c: LayeredCircuit) -> StateVector:
    """Direct unitary reference: apply the flattened circuit gate by gate."""
    if c.n != state.n:
        raise ValidationError("circuit and state qubit counts differ")
    for g in flatten(c):
        state = apply_gate(state, g)
    return state


def prepare_epr(state: StateVector, q1: int, q2: int) -> StateVector:
    """Turn two fresh |0> qubits into (|00> + |11>)/sqrt(2)."""
    if q1 == q2:
        raise ValidationError("EPR qubits must be distinct (qubit collision)")
    shaped = state.shaped()
    marg = np.abs(shaped) ** 2
    axes = tuple(i for i in range(state.n) if i not in (q1, q2))
    probs = marg.sum(axis=axes) if axes else marg
    if abs(float(probs[0, 0]) - 1.0) > 1e-9:
        raise ValidationError("EPR target qubits are not fresh |00> ancillas")
    out = _apply_1q(shaped, GATE_MATRICES[GateKind.H], q1)
    out = _apply_cnot(out, q1, q2)
    return StateVector(state.n, out.reshape(-1))


def apply_mask(state: StateVector, m: PauliMask) -> StateVector:
    """Apply the correction Z^b X^a per qubit; undoes X^a Z^b up to phase."""
    if m.n != state.n:
        raise ValidationError("mask and state qubit counts differ")
    shaped = state.shaped()
    for q in range(state.n):
        if m.a[q]:
            shaped = _apply_1q(shaped, GATE_MATRICES[GateKind.X], q)
    for q in range(state.n):
        if m.b[q]:
            shaped = _apply_1q(shaped, GATE_MATRICES[GateKind.Z], q)
    return StateVector(state.n, shaped.reshape(-1))


def fidelity_up_to_phase(u: StateVector, v: StateVector) -> float:
    if u.n != v.n:
        raise ValidationError("states have different qubit counts")
    return float(abs(np.vdot(u.amps, v.amps)) ** 2)


def _bell_rotate(shaped: np.ndarray, r: int, s: int) -> np.ndarray:
    out = _apply_cnot(shaped, r, s)
    return _apply_1q(out, GATE_MATRICES[GateKind.H], r)


def _bell_unrotate(shaped: np.ndarray, r: int, s: int) -> np.ndarray:
    out = _apply_1q(shaped, GATE_MATRICES[GateKind.H], r)
    return _apply_cnot(out, r, s)


def _bell_probs(shaped: np.ndarray, r: int, s: int) -> np.ndarray:
    """2x2 outcome probabilities indexed [z, x] after rotation."""
    marg = np.abs(shaped) ** 2
    axes = tuple(i for i in range(shaped.ndim) if i not in (r, s))
    probs = marg.sum(axis=axes)
    if r > s:
        probs = probs.T
    return probs


def _project_pair(shaped: np.ndarray, r: int, s: int, zv: int, xv: int) -> np.ndarray:
    idx = [slice(None)] * shaped.ndim
    idx[r], idx[s] = zv, xv
    out = np.zeros_like(shaped)
    out[tuple(idx)] = shaped[tuple(idx)]
    return out


def draw_bell_outcome(probs: np.ndarray, rng: np.random.Generator) -> tuple[int, int]:
    """Pick (x, z) from a [z, x] probability table with one uniform draw."""
    u = rng.random()
    acc = 0.0
    for x, zv in _BELL_OUTCOMES:
        acc += probs[zv, x]
        if u < acc:
            return x, zv
    return _BELL_OUTCOMES[-1]


def bell_measure(state: StateVector, r: int, s: int, rng: np.random.Generator,
                 var_x: str = "mx", var_z: str = "mz") -> tuple[StateVector, MeasRecord]:
    """Measure (r, s) in the Bell basis; the pair collapses to a Bell state."""
    if r == s:
        raise ValidationError("Bell measurement qubits must be distinct")
    for q in (r, s):
        if not 0 <= q < state.n:
            raise ValidationError(f"qubit index {q} out of range")
    rot = _bell_rotate(state.shaped(), r, s)
    probs = _bell_probs(rot, r, s)
    x, zv = draw_bell_outcome(probs, rng)
    proj = _project_pair(rot, r, s, zv, x)
    proj /= np.sqrt(probs[zv, x])
    out = _bell_unrotate(proj, r, s)
    return (StateVector(state.n, out.reshape(-1)),
            MeasRecord(var_x, var_z, (x, zv), (r, s)))


def bell_branches(state: StateVector, r: int, s: int,
                  cutoff: float = 1e-12) -> list[tuple[int, int, float, StateVector]]:
    """All Bell outcomes (x, z) with positive probability and collapsed states."""
    if r == s:
        raise ValidationError("Bell measurement qubits must be distinct")
    rot = _bell_rotate(state.shaped(), r, s)
    probs = _bell_probs(rot, r, s)
    out = []
    for x, zv in _BELL_OUTCOMES:
        prob = float(probs[zv, x])
        if prob <= cutoff:
            continue
        proj = _project_pair(rot, r, s, zv, x) / np.sqrt(prob)
        collapsed = _bell_unrotate(proj, r, s)
        out.append((x, zv, prob, StateVector(state.n, collapsed.reshape(-1))))
    return out


class Register:
    """Statevector over a dynamic window of named (integer) qubits.

    Fresh qubits are allocated on demand; Bell-measured pairs collapse to a
    computational product in the rotated frame and are dropped, so the live
    window stays small even for programs addressing many physical qubits.
    A dropped qubit is retired: loading or allocating it again raises, and so
    does an EPR pair on a qubit that is retired or already in the window.
    """

    def __init__(self) -> None:
        self._amps = np.ones((), dtype=complex)
        self._axis: dict[int, int] = {}
        self._retired: set[int] = set()

    @property
    def width(self) -> int:
        return len(self._axis)

    @property
    def qubits(self) -> set[int]:
        return set(self._axis)

    def clone(self) -> "Register":
        reg = Register()
        reg._amps = self._amps.copy()
        reg._axis = dict(self._axis)
        reg._retired = set(self._retired)
        return reg

    def _require(self, *qubits: int) -> None:
        for q in qubits:
            if q not in self._axis:
                raise ValidationError(f"qubit {q} is not allocated in the register")

    def load(self, state: StateVector, qubits: list[int]) -> None:
        """Tensor an input state onto fresh named qubits."""
        if len(qubits) != state.n:
            raise ValidationError("qubit name count must match state size")
        if set(qubits) & set(self._axis):
            raise ValidationError("qubit collision on load")
        if not self._retired.isdisjoint(qubits):
            q = min(self._retired.intersection(qubits))
            raise ValidationError(f"qubit {q} was already measured and cannot be reused")
        if self.width + state.n > MAX_QUBITS:
            raise ValidationError("register window exceeds the qubit cap")
        base = self.width
        self._amps = np.tensordot(self._amps, state.shaped(), axes=0)
        for i, q in enumerate(qubits):
            self._axis[q] = base + i

    def alloc(self, qubit: int) -> None:
        self.load(init_state(1, "0"), [qubit])

    def prepare_epr(self, q1: int, q2: int) -> None:
        if q1 == q2:
            raise ValidationError("EPR qubits must be distinct (qubit collision)")
        for q in (q1, q2):
            if q in self._axis:
                raise ValidationError(f"EPR qubit {q} is already in use")
            self.alloc(q)
        shaped = self._amps
        shaped = _apply_1q(shaped, GATE_MATRICES[GateKind.H], self._axis[q1])
        self._amps = _apply_cnot(shaped, self._axis[q1], self._axis[q2])

    def apply(self, kind: GateKind, qubits: tuple[int, ...]) -> None:
        self._require(*qubits)
        axes = tuple(self._axis[q] for q in qubits)
        self._amps = _apply_kind(self._amps, kind, axes)

    def apply_gate(self, g: Gate) -> None:
        self.apply(g.kind, g.targets)

    def _drop_qubits(self, *qubits: int) -> None:
        # Called after the amplitude array has already lost these qubits' axes;
        # the remaining qubits keep their order and close up the gaps.
        for q in qubits:
            del self._axis[q]
        self._retired.update(qubits)
        self._axis = {q: ax for ax, q in enumerate(sorted(self._axis, key=self._axis.get))}

    def bell_probs(self, r: int, s: int) -> np.ndarray:
        self._require(r, s)
        rot = _bell_rotate(self._amps, self._axis[r], self._axis[s])
        return _bell_probs(rot, self._axis[r], self._axis[s])

    def project_bell(self, r: int, s: int, x: int, zv: int) -> float:
        """Collapse (r, s) onto Bell outcome (x, z), drop the pair, return its probability."""
        self._require(r, s)
        ar, as_ = self._axis[r], self._axis[s]
        rot = _bell_rotate(self._amps, ar, as_)
        probs = _bell_probs(rot, ar, as_)
        prob = float(probs[zv, x])
        if prob <= 0.0:
            raise ValidationError(f"Bell outcome ({x},{zv}) has zero probability")
        idx = [slice(None)] * rot.ndim
        idx[ar], idx[as_] = zv, x
        self._amps = rot[tuple(idx)] / np.sqrt(prob)
        self._drop_qubits(r, s)
        return prob

    def bell_measure(self, r: int, s: int, rng: np.random.Generator) -> tuple[int, int]:
        x, zv = draw_bell_outcome(self.bell_probs(r, s), rng)
        self.project_bell(r, s, x, zv)
        return x, zv

    def measure_probs(self, q: int) -> np.ndarray:
        self._require(q)
        marg = np.abs(self._amps) ** 2
        axes = tuple(i for i in range(self._amps.ndim) if i != self._axis[q])
        return marg.sum(axis=axes)

    def project_qubit(self, q: int, bit: int) -> float:
        """Collapse one qubit in the computational basis and drop it."""
        probs = self.measure_probs(q)
        prob = float(probs[bit])
        if prob <= 0.0:
            raise ValidationError(f"outcome {bit} on qubit {q} has zero probability")
        ax = self._axis[q]
        idx = [slice(None)] * self._amps.ndim
        idx[ax] = bit
        self._amps = self._amps[tuple(idx)] / np.sqrt(prob)
        self._drop_qubits(q)
        return prob

    def extract(self, qubits: list[int], tol: float = 1e-8) -> StateVector:
        """Pull out the pure state on the given qubits.

        The remaining window qubits must be in tensor product with them;
        anything else is a compilation bug and raises.
        """
        self._require(*qubits)
        front = [self._axis[q] for q in qubits]
        rest = [ax for ax in range(self._amps.ndim) if ax not in front]
        arranged = np.transpose(self._amps, front + rest)
        mat = arranged.reshape(2 ** len(qubits), -1)
        if mat.shape[1] == 1:
            vec = mat[:, 0]
            return StateVector(len(qubits), vec / np.linalg.norm(vec))
        col = int(np.argmax(np.linalg.norm(mat, axis=0)))
        vec = mat[:, col]
        vec = vec / np.linalg.norm(vec)
        residual = mat - np.outer(vec, vec.conj() @ mat)
        if np.linalg.norm(residual) > tol:
            raise ValidationError("extraction target is entangled with the rest of the register")
        return StateVector(len(qubits), vec)
