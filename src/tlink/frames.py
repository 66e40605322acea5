"""
GF(2) Pauli-frame algebra.

Per-qubit corrections are tracked as exponent pairs (a, b) of X^a Z^b, either
as concrete bits (PauliMask) or as multilinear GF(2) polynomials in
party-tagged measurement-outcome variables (SymbolicMask / KeyPoly). A
Clifford stage moves the exponents gate by gate with the rules below, using
only XOR, so one push serves both mask kinds; a T layer leaves exponents
fixed but emits a pending phase-correction key per touched qubit. Global
phases are discarded throughout: masks are only ever applied as physical
corrections, where phases are unobservable.

Key update rules, pushed left-to-right through a gate:

    H:      (a, b) -> (b, a)
    P, P†:  (a, b) -> (a, a xor b)        (sign dropped)
    X, Z:   identity
    CNOT:   (a1, b1, a2, b2) -> (a1, b1 xor b2, a1 xor a2, b2)
    T:      mask unchanged, pending key g = a on each T-layer qubit
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from .circuits import Gate, GateKind, ValidationError


class Owner(Enum):
    ALICE = "alice"
    BOB = "bob"
    LOCAL = "local"


@dataclass(frozen=True)
class OutcomeVar:
    """A named measurement-outcome bit tagged with the party that knows it."""

    name: str
    owner: Owner = Owner.LOCAL


Monomial = frozenset  # frozenset[OutcomeVar]


def _mono_key(m: Monomial) -> tuple[str, ...]:
    return tuple(sorted(v.name for v in m))


@dataclass(frozen=True)
class KeyPoly:
    """Multilinear polynomial over GF(2) in outcome variables.

    Monomials are nonempty sets of distinct variables (x^2 = x); the empty
    monomial is the separate constant bit. Stored sets are canonical, so
    equality is syntactic.
    """

    monomials: frozenset = frozenset()
    constant: int = 0

    @staticmethod
    def zero() -> "KeyPoly":
        return KeyPoly()

    @staticmethod
    def one() -> "KeyPoly":
        return KeyPoly(constant=1)

    @staticmethod
    def of(var: OutcomeVar) -> "KeyPoly":
        return KeyPoly(frozenset({frozenset({var})}))

    @staticmethod
    def from_bit(bit: int) -> "KeyPoly":
        return KeyPoly(constant=bit & 1)

    @property
    def is_zero(self) -> bool:
        return not self.monomials and self.constant == 0

    @property
    def degree(self) -> int:
        return max((len(m) for m in self.monomials), default=0)

    def variables(self) -> set[OutcomeVar]:
        out: set[OutcomeVar] = set()
        for m in self.monomials:
            out |= m
        return out

    def __xor__(self, other: "KeyPoly") -> "KeyPoly":
        return KeyPoly(self.monomials ^ other.monomials, self.constant ^ other.constant)

    def __mul__(self, other: "KeyPoly") -> "KeyPoly":
        parity: dict[Monomial, int] = {}

        def flip(m: Monomial) -> None:
            parity[m] = parity.get(m, 0) ^ 1

        for m1 in self.monomials:
            for m2 in other.monomials:
                flip(m1 | m2)
        if other.constant:
            for m1 in self.monomials:
                flip(m1)
        if self.constant:
            for m2 in other.monomials:
                flip(m2)
        monos = frozenset(m for m, c in parity.items() if c)
        return KeyPoly(monos, self.constant & other.constant)

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        return poly_eval(self, assignment)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        # '*' sorts below every identifier character, so sorting the joined
        # terms gives the same order as sorting by the tuple of names.
        parts = sorted([next(iter(m)).name if len(m) == 1 else "*".join(sorted(v.name for v in m))
                        for m in self.monomials])
        if self.constant:
            parts.append("1")
        return " ^ ".join(parts)


def poly_eval(p: KeyPoly, assignment: Mapping[str, int]) -> int:
    """Evaluate at a bit assignment keyed by variable name."""
    acc = p.constant
    for m in p.monomials:
        term = 1
        for v in m:
            if v.name not in assignment:
                raise ValidationError(f"unbound outcome variable {v.name!r}")
            term &= assignment[v.name] & 1
        acc ^= term
    return acc


def cross_terms(p: KeyPoly) -> list[Monomial]:
    """Monomials of degree >= 2 whose variables span more than one owner."""
    out = [m for m in p.monomials if len(m) >= 2 and len({v.owner for v in m}) >= 2]
    return sorted(out, key=_mono_key)


@dataclass(frozen=True)
class PauliMask:
    """Concrete X/Z exponent bits per qubit; phases not represented."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    @staticmethod
    def zero(n: int) -> "PauliMask":
        return PauliMask((0,) * n, (0,) * n)

    @property
    def n(self) -> int:
        return len(self.a)

    def __xor__(self, other: "PauliMask") -> "PauliMask":
        return PauliMask(tuple(x ^ y for x, y in zip(self.a, other.a)),
                         tuple(x ^ y for x, y in zip(self.b, other.b)))


@dataclass(frozen=True)
class SymbolicMask:
    """Per-qubit X/Z exponent polynomials."""

    a: tuple[KeyPoly, ...]
    b: tuple[KeyPoly, ...]

    @staticmethod
    def zero(n: int) -> "SymbolicMask":
        return SymbolicMask((KeyPoly.zero(),) * n, (KeyPoly.zero(),) * n)

    @property
    def n(self) -> int:
        return len(self.a)

    def evaluate(self, assignment: Mapping[str, int]) -> PauliMask:
        return PauliMask(tuple(poly_eval(k, assignment) for k in self.a),
                         tuple(poly_eval(k, assignment) for k in self.b))

    def xor_at(self, qubit: int, da: KeyPoly, db: KeyPoly) -> "SymbolicMask":
        a = list(self.a)
        b = list(self.b)
        a[qubit] = a[qubit] ^ da
        b[qubit] = b[qubit] ^ db
        return SymbolicMask(tuple(a), tuple(b))


_CLIFFORD_KINDS = frozenset({GateKind.H, GateKind.P, GateKind.PDG, GateKind.CNOT,
                             GateKind.X, GateKind.Z})


def tableau_from_stage(clifford: Iterable[Gate], n: int) -> tuple[Gate, ...]:
    """Check that a stage's gates are Clifford and return them in gate order.

    The result is what apply_tableau pushes a mask through. ``n`` is unused;
    it is kept so that existing callers, the benchmark's frame push among
    them, keep their call shape.
    """
    gates = tuple(clifford)
    for g in gates:
        if g.kind not in _CLIFFORD_KINDS:
            raise ValidationError(f"non-Clifford gate {g.kind.value} in Clifford stage")
    return gates


def apply_tableau(gates: tuple[Gate, ...], mask: PauliMask | SymbolicMask):
    """Push a mask through checked Clifford gates by the per-gate update rules.

    Exponents are only swapped or combined with ``^``, so concrete bits and
    KeyPoly keys take the same path; X and Z leave the mask unchanged.
    """
    a, b = list(mask.a), list(mask.b)
    for g in gates:
        kind = g.kind
        if kind is GateKind.CNOT:
            c, tgt = g.targets
            a[tgt] ^= a[c]
            b[c] ^= b[tgt]
        elif kind is GateKind.H:
            (q,) = g.targets
            a[q], b[q] = b[q], a[q]
        elif kind is GateKind.P or kind is GateKind.PDG:
            (q,) = g.targets
            b[q] ^= a[q]
    return type(mask)(tuple(a), tuple(b))


def commute_through_t_layer(mask: PauliMask | SymbolicMask, t_layer: Iterable[int]):
    """Push a mask through a T layer.

    The exponents are unchanged; each T-layer qubit acquires a pending
    phase-correction key equal to its current X exponent.
    """
    pending = {q: mask.a[q] for q in sorted(t_layer)}
    return mask, pending
