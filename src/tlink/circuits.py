"""
Layered Clifford+T circuit IR: parsing, validation, layering, serialization,
and depth metrics.

A circuit is a sequence of stages; each stage is an ordered Clifford gate list
followed by one layer of T gates (a set of distinct qubits). Only the final
stage may have an empty T layer. The text format is line-based UTF-8:

    QUBITS 2
    H 0
    CNOT 0 1
    T 1
    ---

``---`` closes a stage, ``#`` starts a comment line, blank lines are ignored.
In canonical form the T lines of a stage come after its Clifford lines.

Where each invariant is checked: malformed text raises ParseError in
parse_circuit, with its line number. Integers in the text (the qubit count
and qubit indices) are an optional ``-`` followed by ASCII digits (_int);
other text int() would take, such as ``1_0`` or ``+3``, is malformed. A
built circuit raises ValidationError from validate: every gate goes through
the one per-gate check, _check_gate (arity from the _ARITY table, distinct
CNOT qubits, indices in range), and validate adds the stage rules (no T in a
Clifford block, T-layer indices in range, a T layer on every stage but the
last). layerize calls _check_gate on the T gates it packs and validate on
the circuit it builds, so each gate is checked once there too.

parse_circuit parses each distinct gate line once per process: a line that
_parse_gate_line accepted, with no comment and no surrounding whitespace, is
kept in one process-wide dict (_GATE_LINES) from the raw line to its Gate and
highest qubit index, up to a fixed 4,096 lines; later lines are parsed but
not kept. A kept line is reused only after the header, and only when its
highest qubit is below the file's qubit count. Everything else the cold parse
checks (known kind, arity, integer form, distinct CNOT qubits) does not
depend on the qubit count, so a reused line passes exactly the checks a
cold parse would, and a line that does not fit takes the cold parse and its
errors. parse_program does not use it: program lines name carrier qubits
that differ from program to program, so a bounded memo would thrash.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


class ParseError(ValueError):
    """Malformed text input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class ValidationError(ValueError):
    """Well-formed input that violates an IR invariant."""


class GateKind(Enum):
    H = "H"
    P = "P"
    PDG = "PDG"
    X = "X"
    Z = "Z"
    CNOT = "CNOT"
    T = "T"

    # Members are singletons that compare by identity, so the identity hash
    # agrees with ==, and a dict keyed by kind (_ARITY) is looked up without
    # running Enum.__hash__, which is Python code.
    __hash__ = object.__hash__


# Per-gate lookups are plain dict lookups, not Enum properties or
# GateKind(text) calls, which run Python code on every gate.
_ARITY = {kind: 2 if kind is GateKind.CNOT else 1 for kind in GateKind}
_KINDS = {kind.value: kind for kind in GateKind}

# A tuple: membership tests identity first, so no gate pays for Enum.__hash__.
CLIFFORD_KINDS = tuple(k for k in GateKind if k is not GateKind.T)


class Gate(NamedTuple):
    """One gate application; CNOT targets are (control, target).

    A NamedTuple, not a dataclass: compiled programs and unitary circuits
    hold one per gate, and a tuple record is cheaper to build than a frozen
    dataclass. Its fields are read-only, and ``kind, targets = g`` unpacks it.
    """

    kind: GateKind
    targets: tuple[int, ...]

    def __str__(self) -> str:
        return " ".join([self.kind._value_, *map(str, self.targets)])


def h(q: int) -> Gate:
    return Gate(GateKind.H, (q,))


def p(q: int) -> Gate:
    return Gate(GateKind.P, (q,))


def pdg(q: int) -> Gate:
    return Gate(GateKind.PDG, (q,))


def x(q: int) -> Gate:
    return Gate(GateKind.X, (q,))


def z(q: int) -> Gate:
    return Gate(GateKind.Z, (q,))


def t(q: int) -> Gate:
    return Gate(GateKind.T, (q,))


def cnot(c: int, tgt: int) -> Gate:
    return Gate(GateKind.CNOT, (c, tgt))


@dataclass(frozen=True)
class Stage:
    """A Clifford sub-circuit plus its trailing T layer."""

    clifford: tuple[Gate, ...]
    t_layer: frozenset[int]


@dataclass(frozen=True)
class LayeredCircuit:
    n: int
    stages: tuple[Stage, ...]

    @property
    def t_depth(self) -> int:
        return sum(1 for st in self.stages if st.t_layer)


@dataclass(frozen=True)
class DepthMetrics:
    total_depth: int
    t_depth: int
    t_count: int
    gate_count: int


def _check_gate(g: Gate, n: int) -> None:
    """The one per-gate invariant check: arity, distinct CNOT qubits, indices."""
    targets = g.targets
    arity = _ARITY[g.kind]
    if len(targets) != arity:
        raise ValidationError(f"{g.kind.value} takes {arity} target(s), got {len(targets)}")
    if arity == 2 and targets[0] == targets[1]:
        raise ValidationError("CNOT control and target must be distinct")
    for q in targets:
        if not 0 <= q < n:
            raise ValidationError(f"qubit index {q} out of range for {n} qubits")


def validate(c: LayeredCircuit) -> LayeredCircuit:
    """Check all IR invariants; returns the circuit for chaining."""
    if c.n < 1:
        raise ValidationError("qubit count must be positive")
    if len(c.stages) < 1:
        raise ValidationError("circuit needs at least one stage")
    for i, st in enumerate(c.stages):
        for g in st.clifford:
            if g.kind not in CLIFFORD_KINDS:
                raise ValidationError("T gate inside a Clifford block; use layerize")
            _check_gate(g, c.n)
        for q in st.t_layer:
            if not 0 <= q < c.n:
                raise ValidationError(f"T-layer qubit {q} out of range for {c.n} qubits")
        if not st.t_layer and i != len(c.stages) - 1:
            raise ValidationError("only the final stage may have an empty T layer")
    return c


def flatten(c: LayeredCircuit) -> list[Gate]:
    """Canonical flat gate order: per stage, Clifford gates then sorted T gates."""
    gates: list[Gate] = []
    for st in c.stages:
        gates.extend(st.clifford)
        gates.extend(t(q) for q in sorted(st.t_layer))
    return gates


def layerize(gates: list[Gate], n: int) -> LayeredCircuit:
    """Greedily pack a flat gate list into stages.

    Clifford gates accumulate; T gates on fresh qubits join the open T layer.
    A Clifford gate, or a second T on a qubit already in the layer, closes the
    stage immediately before itself. Gates sharing a qubit are never reordered,
    so flattening the result is circuit-equivalent to the input. T gates are
    checked here, the Clifford gates by validate.
    """
    stages: list[Stage] = []
    cliff: list[Gate] = []
    t_layer: set[int] = set()
    for g in gates:
        if g.kind is GateKind.T:
            _check_gate(g, n)
            q = g.targets[0]
            if q in t_layer:
                stages.append(Stage(tuple(cliff), frozenset(t_layer)))
                cliff, t_layer = [], {q}
            else:
                t_layer.add(q)
        else:
            if t_layer:
                stages.append(Stage(tuple(cliff), frozenset(t_layer)))
                cliff, t_layer = [g], set()
            else:
                cliff.append(g)
    stages.append(Stage(tuple(cliff), frozenset(t_layer)))
    return validate(LayeredCircuit(n, tuple(stages)))


def clifford_depth(gates: tuple[Gate, ...] | list[Gate]) -> int:
    """ASAP layering depth of a gate list of 1- and 2-target gates; every
    gate costs one layer."""
    free: dict[int, int] = {}
    depth = 0
    for g in gates:
        targets = g.targets
        if len(targets) == 1:
            q = targets[0]
            layer = free.get(q, 0) + 1
            free[q] = layer
        else:
            a, b = targets
            layer = free.get(a, 0)
            later = free.get(b, 0)
            if later > layer:
                layer = later
            layer += 1
            free[a] = free[b] = layer
        if layer > depth:
            depth = layer
    return depth


def depth_metrics(c: LayeredCircuit) -> DepthMetrics:
    total = sum(clifford_depth(st.clifford) + (1 if st.t_layer else 0) for st in c.stages)
    t_count = sum(len(st.t_layer) for st in c.stages)
    gate_count = sum(len(st.clifford) for st in c.stages) + t_count
    return DepthMetrics(total, c.t_depth, t_count, gate_count)


# The short paths of the text parsers take an index of at most this many
# ASCII digits straight to int(), which converts any such token. Longer ones
# go through _int and its error handling, since int() refuses strings of more
# digits than the interpreter's limit (sys.get_int_max_str_digits).
_SHORT_DIGITS = 18


def _int(tok: str) -> int:
    """The value of a canonical integer token: an optional ``-`` followed by
    ASCII digits. Anything else raises ValueError, also text that int()
    would take (``1_0``, ``+3``, non-ASCII digits)."""
    digits = tok[1:] if tok[:1] == "-" else tok
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a canonical integer: {tok!r}")
    return int(tok)


def _parse_gate_line(tokens: list[str], n: int, lineno: int) -> Gate:
    """The one gate-line parser, for circuit and program text. A one-qubit
    gate on an in-range index of a few ASCII digits takes the short path;
    every other line goes through the full checks in order (known kind,
    arity, integers, range, distinct CNOT qubits), which raise on the
    first that fails."""
    kind = _KINDS.get(tokens[0])
    if kind is None:
        raise ParseError(f"unknown gate {tokens[0]!r}", lineno)
    if len(tokens) == 2 and kind is not GateKind.CNOT:
        tok = tokens[1]
        if tok.isascii() and tok.isdigit() and len(tok) <= _SHORT_DIGITS:
            q = int(tok)
            if q < n:
                return Gate(kind, (q,))
    args = tokens[1:]
    arity = _ARITY[kind]
    if len(args) != arity:
        raise ParseError(f"{kind.value} takes {arity} qubit argument(s)", lineno)
    try:
        targets = tuple(map(_int, args))
    except ValueError:
        raise ParseError("qubit arguments must be integers", lineno) from None
    for q in targets:
        if not 0 <= q < n:
            raise ParseError(f"qubit index {q} out of range", lineno)
    if kind is GateKind.CNOT and targets[0] == targets[1]:
        raise ParseError("CNOT control and target must be distinct", lineno)
    return Gate(kind, targets)


def _parse_header(tokens: list[str], lineno: int) -> int:
    """The qubit count of the ``QUBITS <n>`` line that opens circuit and
    program text."""
    if tokens[0] != "QUBITS" or len(tokens) != 2:
        raise ParseError("expected 'QUBITS <n>' header", lineno)
    try:
        n = _int(tokens[1])
    except ValueError:
        raise ParseError("qubit count must be an integer", lineno) from None
    if n < 1:
        raise ParseError("qubit count must be positive", lineno)
    return n


# Checked gate lines of circuit text: raw line -> (Gate, highest qubit index).
# The bound is fixed, not an option: lines past it are parsed but not kept.
# Readers go without the lock; a line is added under it, so that parses on
# several threads keep the bound.
_GATE_LINES: dict[str, tuple[Gate, int]] = {}
_GATE_LINES_MAX = 4096
_GATE_LINES_LOCK = threading.Lock()


def parse_circuit(text: str) -> LayeredCircuit:
    """Parse circuit text; inverse of serialize_circuit on canonical form.
    Gate lines seen before are taken from _GATE_LINES (see the module
    docstring)."""
    n: int | None = None
    stages: list[Stage] = []
    cliff: list[Gate] = []
    t_layer: set[int] = set()
    have_content = False
    memo = _GATE_LINES

    for lineno, raw in enumerate(text.splitlines(), 1):
        hit = memo.get(raw)
        if hit is not None and n is not None and hit[1] < n:
            g = hit[0]
        else:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if n is None:
                n = _parse_header(tokens, lineno)
                continue
            if line == "---":
                stages.append(Stage(tuple(cliff), frozenset(t_layer)))
                cliff, t_layer = [], set()
                have_content = False
                continue
            g = _parse_gate_line(tokens, n, lineno)
            if line == raw and len(memo) < _GATE_LINES_MAX:
                with _GATE_LINES_LOCK:
                    if len(memo) < _GATE_LINES_MAX:
                        memo[raw] = (g, max(g.targets))
        have_content = True
        if g.kind is GateKind.T:
            q = g.targets[0]
            if q in t_layer:
                raise ParseError(f"duplicate T on qubit {q} within a stage", lineno)
            t_layer.add(q)
        else:
            if t_layer:
                raise ParseError("T gate inside a Clifford block: Clifford gates "
                                 "must precede the stage's T layer", lineno)
            cliff.append(g)

    if n is None:
        raise ParseError("missing 'QUBITS <n>' header", 1)
    if have_content or not stages:
        stages.append(Stage(tuple(cliff), frozenset(t_layer)))
    return validate(LayeredCircuit(n, tuple(stages)))


def serialize_circuit(c: LayeredCircuit) -> str:
    """Canonical text form; parse_circuit round-trips it exactly."""
    lines = [f"QUBITS {c.n}"]
    for st in c.stages:
        lines.extend(str(g) for g in st.clifford)
        lines.extend(f"T {q}" for q in sorted(st.t_layer))
        lines.append("---")
    return "\n".join(lines) + "\n"
