"""
Dense statevector oracle: brute-force ground truth for every transformation.

Qubit q is tensor axis q, so basis strings read left-to-right as qubit
0..n-1 and the flat amplitude index is big-endian in qubit 0. States are
capped at 14 qubits (desk scale); init_state and random_state check the cap
before anything of size 2^n is allocated or drawn, so an oversized input is
a ValidationError, never an allocation failure.

Bell measurement convention (compiler._bell_rotation, its one
implementation): measuring (r, s) rotates with CNOT(r, s) then H(r), then
Z-measures both and reads z from r, x from s. If s was half of an EPR pair
whose partner carried a teleported state psi, the partner afterwards holds
X^x Z^z psi. The compiler reads both outcomes at one step and draws them
with one uniform per Bell measurement: against a fresh pair, a teleport
step (compiler._teleport), each outcome having probability 1/4, whose Pauli
a sampled shot keeps in its Pauli frame and an exhaustive run applies on the
teleported slot's axis (Z with the Z kernel's diagonal, X by reversing it);
otherwise a branch step (compiler._branch) that puts (s, r) first, so that
row k = 2x + z is one outcome.

The gate kernels (gate_kernel) and extraction (_extract) also serve the
compiler's execution plan: it runs every program, the garden-hose gadget,
the protocol and the grouped speculative runs included, over a window of
qubits from which measured pairs are factored out, so long runs stay within
the size cap, with every live branch as one entry of a leading batch axis.
The plan uses the gate kernels only for its conditioned steps, gates on
windows wider than 8 qubits and a sampled shot's Pauli frame there; on
narrower windows it fuses runs of gates into gather steps of its own
(compiler._gather), and at every width it composes allocations into them,
so the executor no longer shares those with this oracle, and the tests
compare the two. The allocation helpers _grow and _grow_epr serve only as
the tests' reference for the plan's allocation maps. Extraction is always
shared.
Distinct states may be processed in parallel; none of these objects is
shared-mutable.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .circuits import Gate, GateKind, LayeredCircuit, ValidationError, flatten
from .frames import PauliMask

MAX_QUBITS = 14
_FACTOR_TOL = 1e-8  # the residual norm _extract accepts as factoring out
_TIE_TOL = 1e-9  # columns whose norms are this close, relatively, tie in _extract

_S = 1 / sqrt(2)
GATE_MATRICES = {
    GateKind.H: np.array([[_S, _S], [_S, -_S]], dtype=complex),
    GateKind.P: np.diag([1, 1j]).astype(complex),
    GateKind.PDG: np.diag([1, -1j]).astype(complex),
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Z: np.diag([1, -1]).astype(complex),
    GateKind.T: np.diag([1, np.exp(1j * pi / 4)]).astype(complex),
}


@dataclass(slots=True)
class StateVector:
    n: int
    amps: np.ndarray

    def shaped(self) -> np.ndarray:
        return self.amps.reshape((2,) * self.n)


def _check_qubits(n: int) -> None:
    """The size cap, checked before anything of size 2^n is allocated or drawn."""
    if n > MAX_QUBITS:
        raise ValidationError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit cap")


def init_state(n: int, basis) -> StateVector:
    """Build a state from a basis bitstring or an amplitude sequence."""
    _check_qubits(n)
    if isinstance(basis, str):
        if len(basis) != n or set(basis) - {"0", "1"}:
            raise ValidationError(f"basis string must be {n} bits")
        amps = np.zeros(2 ** n, dtype=complex)
        amps[int(basis, 2)] = 1.0
    else:
        amps = np.asarray(basis, dtype=complex).ravel()
        if amps.shape[0] != 2 ** n:
            raise ValidationError(f"expected {2 ** n} amplitudes, got {amps.shape[0]}")
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > 1e-6:
        raise ValidationError(f"state norm {norm} is not 1")
    return StateVector(n, amps / norm)


def random_state(n: int, rng: np.random.Generator) -> StateVector:
    """Random n-qubit state: 2^n real normal draws, then 2^n imaginary ones."""
    _check_qubits(n)
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return init_state(n, amps / np.linalg.norm(amps))


def basis_bits(state: StateVector, context: str) -> tuple[int, ...]:
    """The bits of a computational basis state (up to phase); raises otherwise."""
    probs = np.abs(state.amps) ** 2
    idx = int(np.argmax(probs))
    if probs[idx] < 1.0 - 1e-9:
        raise ValidationError(f"{context}: state is not a basis state (circuit is not classical here)")
    return tuple((idx >> (state.n - 1 - j)) & 1 for j in range(state.n))


# The gate kernels below take an amplitude array of any shape whose trailing
# axes are qubits; leading axes, such as the execution plan's batch of
# branches, ride along. A kernel is resolved once per gate by gate_kernel.
# The X kernel (_flip) may return a reversed-stride view of its input; the
# others return a new array.

_PHASES = tuple(
    (kind, np.array([mat[0, 0], mat[1, 1]]).reshape(1, 2, 1))
    for kind, mat in GATE_MATRICES.items()
    if mat[0, 1] == 0 and mat[1, 0] == 0
)


def _hadamard(shaped: np.ndarray, post: int) -> np.ndarray:
    """H on the axis followed by ``post`` amplitudes: the sum and the
    difference of its halves, scaled by 1/sqrt(2) in place."""
    v = shaped.reshape(-1, 2, post)
    out = np.empty_like(v)
    a0, a1 = v[:, 0, :], v[:, 1, :]
    np.add(a0, a1, out=out[:, 0, :])
    np.subtract(a0, a1, out=out[:, 1, :])
    out *= _S
    return out.reshape(shaped.shape)


def _phase(shaped: np.ndarray, vec: np.ndarray, post: int) -> np.ndarray:
    """A diagonal gate, as its (1, 2, 1) diagonal."""
    return (shaped.reshape(-1, 2, post) * vec).reshape(shaped.shape)


def _flip(shaped: np.ndarray, post: int) -> np.ndarray:
    """X: swap the halves of the axis."""
    return shaped.reshape(-1, 2, post)[:, ::-1, :].reshape(shaped.shape)


def _swap(shaped: np.ndarray, idx10: tuple, idx11: tuple) -> np.ndarray:
    """CNOT: exchange the slices where control reads 1 and target 0 or 1."""
    out = shaped.copy()
    out[idx10] = shaped[idx11]
    out[idx11] = shaped[idx10]
    return out


def gate_kernel(kind: GateKind, axes: tuple[int, ...], ndim: int) -> tuple:
    """``(kernel, args)`` applying ``kind`` on array ``axes`` of an
    ``ndim``-axis array, for ``kernel(array, *args)``. Kinds are told apart
    by identity, so no gate pays for hashing an Enum."""
    if kind is GateKind.CNOT:
        control, target = axes
        idx10 = [slice(None)] * (max(axes) + 1)
        idx11 = list(idx10)
        idx10[control], idx10[target] = 1, 0
        idx11[control], idx11[target] = 1, 1
        return _swap, (tuple(idx10), tuple(idx11))
    post = 1 << (ndim - 1 - axes[0])
    if kind is GateKind.X:
        return _flip, (post,)
    if kind is GateKind.H:
        return _hadamard, (post,)
    for diag_kind, vec in _PHASES:
        if diag_kind is kind:
            return _phase, (vec, post)
    raise ValidationError(f"no kernel for gate {kind.value}")


def _apply_kind(shaped: np.ndarray, kind: GateKind, qubits: tuple[int, ...]) -> np.ndarray:
    kernel, args = gate_kernel(kind, qubits, shaped.ndim)
    return kernel(shaped, *args)


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


def apply_mask(state: StateVector, m: PauliMask) -> StateVector:
    """Apply the correction Z^b X^a per qubit; undoes X^a Z^b up to phase."""
    if m.n != state.n:
        raise ValidationError("mask and state qubit counts differ")
    shaped = state.shaped()
    for q in range(state.n):
        if m.a[q]:
            shaped = _apply_kind(shaped, GateKind.X, (q,))
    for q in range(state.n):
        if m.b[q]:
            shaped = _apply_kind(shaped, GateKind.Z, (q,))
    return StateVector(state.n, shaped.reshape(-1))


def fidelity_up_to_phase(u: StateVector, v: StateVector) -> float:
    if u.n != v.n:
        raise ValidationError("states have different qubit counts")
    return float(abs(np.vdot(u.amps, v.amps)) ** 2)


# -- axis-level helpers --------------------------------------------------------
# Helpers on an amplitude array that carries one leading batch axis (one
# entry per live branch) before the window's qubit axes, as the compiler's
# execution plan does. The plan composes allocations into its gather steps
# (compiler._alloc_map); _grow and _grow_epr are the tests' reference for
# those maps, and _extract is the plan's extraction. Each returns a new array.

def _grow(amps: np.ndarray) -> np.ndarray:
    """Append one fresh |0> axis."""
    out = np.zeros(amps.shape + (2,), dtype=complex)
    out[..., 0] = amps
    return out


def _grow_epr(amps: np.ndarray) -> np.ndarray:
    """Append two axes holding (|00> + |11>)/sqrt(2): H then CNOT on fresh qubits."""
    out = np.zeros(amps.shape + (2, 2), dtype=complex)
    half = amps * _S
    out[..., 0, 0] = half
    out[..., 1, 1] = half
    return out


def _extract(amps: np.ndarray, front: list[int]) -> np.ndarray:
    """For each batch entry of ``amps`` (batch axis first, then qubit axes),
    the normalized pure state on the qubit axes ``front``, one row each; the
    other axes must factor out of every entry.

    When they do, every column of the (front, rest) matrix is a multiple of
    the state, and the largest one is taken. Columns whose norms are within
    a relative _TIE_TOL of the largest tie, and the lowest-index one wins,
    so that rounding in the amplitudes cannot change the state's global
    phase: the two halves of an unused pair, for one, are columns of equal
    norm."""
    width = amps.ndim - 1
    rest = [ax for ax in range(width) if ax not in front]
    mats = np.transpose(amps, [0] + [ax + 1 for ax in front + rest])
    mats = mats.reshape(amps.shape[0], 2 ** len(front), -1)
    if mats.shape[2] == 1:
        vecs = mats[:, :, 0]
        return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    norms = np.linalg.norm(mats, axis=1)
    cols = np.argmax(norms >= norms.max(axis=1, keepdims=True) * (1 - _TIE_TOL), axis=1)
    vecs = mats[np.arange(mats.shape[0]), :, cols]
    vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    overlap = np.einsum("bf,bfr->br", vecs.conj(), mats)
    residual = mats - vecs[:, :, None] * overlap[:, None, :]
    if mats.shape[0] and np.linalg.norm(residual, axis=(1, 2)).max() > _FACTOR_TOL:
        raise ValidationError("extraction target is entangled with the rest of the register")
    return vecs
