"""
GF(2) Pauli-frame algebra.

Per-qubit corrections are tracked as exponent pairs (a, b) of X^a Z^b, either
as concrete bits (PauliMask) or as multilinear GF(2) polynomials in
party-tagged measurement-outcome variables (SymbolicMask / KeyPoly). The
per-gate rules below live in one place, push_gates, which updates two
exponent lists in place using only swaps and XOR, so any exponent type with
``^`` takes the same path. The compiler's one linked builder, behind
compile_measure and the speculative programs, pushes plain int masks (the
``linear`` bits of its keys, all of which are linear), and so do the
garden-hose protocol builder and cross-term analysis, whose degree-2
products ride along as lifted bits above the variable table (see
gardenhose); each builds a KeyPoly only for a condition it emits.
apply_tableau and tableau_from_stage wrap push_gates for PauliMask and
SymbolicMask; they serve the benchmark's frame replay and the tests. A T
layer leaves exponents fixed but emits a pending phase-correction key per
touched qubit. Global phases are discarded throughout: masks are only ever
applied as physical corrections, where phases are unobservable.

A KeyPoly is held as integer bitmasks, the packed GF(2) rows of
Aaronson-Gottesman (quant-ph/0406196): bit i stands for the i-th entry of
one process-wide variable table, which hands each distinct OutcomeVar
(name and owner) the next bit the first time a key or a BELL mentions it.
So the push is int XOR, a condition's support is one int, and a key prints
by walking its set bits. Keys are not evaluated against table bits at run
time: an execution plan numbers its own classical bits and compiles each
condition once into a test over them (compiler._plan_test). The table only
grows; it is shared by every program
in the process because keys are also built outside any program (the
garden-hose gadget keys and cross-term reports), and it is extended under a
lock, so keys may be built from several threads. table_size() bounds every
bit assigned so far, which is where the garden-hose frame starts its lifted
product bits.

Key update rules, pushed left-to-right through a gate:

    H:      (a, b) -> (b, a)
    P, P†:  (a, b) -> (a, a xor b)        (sign dropped)
    X, Z:   identity
    CNOT:   (a1, b1, a2, b2) -> (a1, b1 xor b2, a1 xor a2, b2)
    T:      mask unchanged, pending key g = a on each T-layer qubit
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import compress
from operator import or_
from typing import Iterable, Mapping

import numpy as np

from .circuits import CLIFFORD_KINDS, Gate, GateKind, ValidationError


class Owner(Enum):
    ALICE = "alice"
    BOB = "bob"
    LOCAL = "local"


@dataclass(frozen=True)
class OutcomeVar:
    """A named measurement-outcome bit tagged with the party that knows it.
    It hashes by the owner's value, a str, without calling Enum.__hash__."""

    name: str
    owner: Owner = Owner.LOCAL

    def __hash__(self) -> int:
        return hash((self.name, self.owner._value_))


Monomial = frozenset  # frozenset[OutcomeVar]


# -- the variable table ---------------------------------------------------------
#
# Bit i of a key mask is _VARS[i]. _BITS is keyed by (name, owner value), plain
# strings, which hash and compare without calling back into Python. Readers go
# without the lock; an entry is appended to the lists before its bit is
# published in the dict.

_VARS: list[OutcomeVar] = []
_NAMES: list[str] = []
_BITS: dict[tuple[str, str], int] = {}
_TABLE_LOCK = threading.Lock()


def var_bit(var: OutcomeVar) -> int:
    """The bit of ``var`` in the variable table, assigned on first use."""
    key = (var.name, var.owner._value_)
    bit = _BITS.get(key)
    if bit is None:
        with _TABLE_LOCK:
            bit = _BITS.get(key)
            if bit is None:
                bit = len(_VARS)
                _VARS.append(var)
                _NAMES.append(var.name)
                _BITS[key] = bit
    return bit


def outcome_bit(name: str, owner: Owner = Owner.LOCAL) -> int:
    """The bit of OutcomeVar(name, owner) in the variable table, added on first use."""
    bit = _BITS.get((name, owner._value_))
    return var_bit(OutcomeVar(name, owner)) if bit is None else bit


def outcome_var(name: str, owner: Owner = Owner.LOCAL) -> OutcomeVar:
    """The table's own instance of OutcomeVar(name, owner), added on first use."""
    return _VARS[outcome_bit(name, owner)]


def table_size() -> int:
    """The number of variables in the table: every bit assigned so far is below it."""
    return len(_VARS)


_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _flags(mask: int) -> bytes:
    """One byte per bit of ``mask``, lowest bit first: 1 where set, else 0."""
    return bin(mask)[:1:-1].encode().translate(_TO_FLAGS)


def mask_of(bits: list[int]) -> int:
    """The mask with bit b set for each b that occurs an odd number of times.

    Shifting and XORing one bit at a time costs a pass over the growing mask
    per bit, so a long list is counted with numpy and packed in one pass.
    """
    if len(bits) < 64:
        mask = 0
        for b in bits:
            mask ^= 1 << b
        return mask
    odd = np.bincount(np.fromiter(bits, np.intp, len(bits))).astype(np.uint8) & 1
    return int.from_bytes(np.packbits(odd, bitorder="little").tobytes(), "little")


def _names(mask: int) -> Iterable[str]:
    return compress(_NAMES, _flags(mask))


def _set_bits(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``, lowest first, peeled off one
    at a time: for masks with few bits."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _term_vars(term: int) -> list[OutcomeVar]:
    """The variables of a term of degree >= 2; it has few bits."""
    return [_VARS[i] for i in _set_bits(term)]


def _mono_key(m: Monomial) -> tuple[str, ...]:
    return tuple(sorted(v.name for v in m))


@dataclass(frozen=True)
class KeyPoly:
    """Multilinear polynomial over GF(2) in outcome variables, as bitmasks.

    ``linear`` has one bit per degree-1 term, ``nonlinear`` holds one mask per
    term of degree >= 2 (x^2 = x, so a term is a set of variables), and
    ``constant`` is the degree-0 bit. Bits index the module's variable table.
    The representation is canonical: a one-bit term always sits in
    ``linear``, so equality is syntactic. ``monomials`` gives the terms back
    as frozensets of OutcomeVar.
    """

    linear: int = 0
    nonlinear: frozenset = frozenset()
    constant: int = 0

    @staticmethod
    def zero() -> "KeyPoly":
        return KeyPoly()

    @staticmethod
    def one() -> "KeyPoly":
        return KeyPoly(constant=1)

    @staticmethod
    def of(var: OutcomeVar) -> "KeyPoly":
        return KeyPoly(1 << var_bit(var))

    @staticmethod
    def from_bit(bit: int) -> "KeyPoly":
        return KeyPoly(constant=bit & 1)

    @staticmethod
    def from_monomials(monomials: Iterable[Monomial], constant: int = 0) -> "KeyPoly":
        """The sum of the given terms (sets of variables) plus ``constant``."""
        return KeyPoly._from_terms([mask_of([var_bit(v) for v in m]) for m in monomials],
                                   constant)

    @staticmethod
    def _from_terms(terms: Iterable[int], constant: int) -> "KeyPoly":
        """The sum of term masks, repeated ones cancelling; the empty term
        (mask 0) is the constant 1."""
        linear = 0
        nonlinear: set[int] = set()
        for m in terms:
            if m & (m - 1):
                nonlinear ^= {m}
            elif m:
                linear ^= m
            else:
                constant ^= 1
        return KeyPoly(linear, frozenset(nonlinear), constant & 1)

    def __reduce__(self):
        # Bits are numbered per process, so a pickled key names its variables.
        return KeyPoly.from_monomials, (self.monomials, self.constant)

    def _terms(self) -> list[int]:
        """Every term as a mask, the linear bits one by one."""
        terms = list(self.nonlinear)
        linear = self.linear
        while linear:
            low = linear & -linear
            terms.append(low)
            linear ^= low
        return terms

    @property
    def monomials(self) -> frozenset:
        singles = [frozenset((v,)) for v in compress(_VARS, _flags(self.linear))]
        return frozenset(singles + [frozenset(_term_vars(m)) for m in self.nonlinear])

    @property
    def support(self) -> int:
        """The mask of every variable the key mentions."""
        return reduce(or_, self.nonlinear, self.linear)

    @property
    def is_zero(self) -> bool:
        return not (self.linear or self.nonlinear or self.constant)

    @property
    def degree(self) -> int:
        return max((m.bit_count() for m in self.nonlinear), default=1 if self.linear else 0)

    def variables(self) -> set[OutcomeVar]:
        return set(compress(_VARS, _flags(self.support)))

    def __xor__(self, other: "KeyPoly") -> "KeyPoly":
        nonlinear = self.nonlinear ^ other.nonlinear if other.nonlinear else self.nonlinear
        return KeyPoly(self.linear ^ other.linear, nonlinear, self.constant ^ other.constant)

    def __mul__(self, other: "KeyPoly") -> "KeyPoly":
        if not (other.linear or other.nonlinear):
            return self if other.constant else KeyPoly()
        if not (self.linear or self.nonlinear):
            return other if self.constant else KeyPoly()
        mine, theirs = self._terms(), other._terms()
        products = [m1 | m2 for m1 in mine for m2 in theirs]
        if other.constant:
            products += mine
        if self.constant:
            products += theirs
        return KeyPoly._from_terms(products, self.constant & other.constant)

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        return poly_eval(self, assignment)

    def __str__(self) -> str:
        # '*' sorts below every identifier character, so sorting the joined
        # terms gives the same order as sorting by the tuple of names.
        parts = list(_names(self.linear))
        if self.nonlinear:
            parts += ["*".join(sorted(v.name for v in _term_vars(m))) for m in self.nonlinear]
        parts.sort()
        if self.constant:
            parts.append("1")
        return " ^ ".join(parts) if parts else "0"


def poly_eval(p: KeyPoly, assignment: Mapping[str, int]) -> int:
    """Evaluate at a bit assignment keyed by variable name."""
    try:
        acc = p.constant
        for name in _names(p.linear):
            acc ^= assignment[name] & 1
        for m in p.nonlinear:
            term = 1
            for v in _term_vars(m):
                term &= assignment[v.name] & 1
            acc ^= term
        return acc
    except KeyError as exc:
        raise ValidationError(f"unbound outcome variable {exc.args[0]!r}") from None


def cross_terms(p: KeyPoly) -> list[Monomial]:
    """Monomials of degree >= 2 whose variables span more than one owner."""
    out = []
    for m in p.nonlinear:
        vs = _term_vars(m)
        if any(v.owner is not vs[0].owner for v in vs):
            out.append(frozenset(vs))
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


def tableau_from_stage(clifford: Iterable[Gate], n: int) -> tuple[Gate, ...]:
    """Check that a stage's gates are Clifford and return them in gate order.

    The result is what apply_tableau pushes a mask through; the two serve
    the benchmark's frame replay and the tests, while the builders push int
    masks through push_gates. ``n`` is unused; it is kept so that existing
    callers, the benchmark's frame push among them, keep their call shape.
    """
    gates = tuple(clifford)
    for g in gates:
        if g.kind not in CLIFFORD_KINDS:
            raise ValidationError(f"non-Clifford gate {g.kind.value} in Clifford stage")
    return gates


def push_gates(gates: Iterable[Gate], a: list, b: list) -> None:
    """Push X/Z exponents through checked Clifford gates, in place, by the
    per-gate update rules. ``a[q]`` and ``b[q]`` are qubit q's exponents;
    they are only swapped or combined with ``^``, so bits, int masks and
    KeyPoly keys all take this path. X and Z leave them unchanged."""
    for kind, targets in gates:
        if kind is GateKind.CNOT:
            c, tgt = targets
            a[tgt] ^= a[c]
            b[c] ^= b[tgt]
        elif kind is GateKind.H:
            (q,) = targets
            a[q], b[q] = b[q], a[q]
        elif kind is GateKind.P or kind is GateKind.PDG:
            (q,) = targets
            b[q] ^= a[q]


def apply_tableau(gates: tuple[Gate, ...], mask: PauliMask | SymbolicMask):
    """Push a mask through checked Clifford gates (push_gates) and return
    the pushed mask, of the same type."""
    a, b = list(mask.a), list(mask.b)
    push_gates(gates, a, b)
    return type(mask)(tuple(a), tuple(b))


def commute_through_t_layer(mask: PauliMask | SymbolicMask, t_layer: Iterable[int]):
    """Push a mask through a T layer.

    The exponents are unchanged; each T-layer qubit acquires a pending
    phase-correction key equal to its current X exponent.
    """
    pending = {q: mask.a[q] for q in sorted(t_layer)}
    return mask, pending
