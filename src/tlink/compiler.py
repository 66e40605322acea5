"""
Teleportation-linked compilation of layered Clifford+T circuits.

compile_measure turns a K-stage circuit on n qubits into a program whose
stages are pre-executed in parallel on the second halves of n(K-1) EPR pairs
and then linked sequentially by Bell measurements, so the sequential depth is
governed by the number of stages (the T-depth) rather than the total gate
depth. Pending phase corrections are applied physically at each link as
classically-conditioned P-dagger gates, and the run ends with conditioned
Pauli corrections from the tracked symbolic mask.

to_unitary rewrites a compiled program as a plain unitary circuit via the
deferred-measurement transform: each Bell measurement becomes a basis
rotation plus coherent copies onto two fresh ancillas, and each conditioned
correction becomes one gate controlled on a single qubit. It converts linear
conditions only, which is all compile_measure emits. The control is an
outcome ancilla when an X or Z waits on one outcome alone, and otherwise a
parity qubit from a reusable pool: each holds a known XOR of ancillas, is
moved onto the condition by one CNOT per differing term, and is never
uncomputed. A conditioned P-dagger is therefore 3 T gates however many terms
its condition has. _unitary_plan reads each Bell group as its BELL is read
and resolves the ancillas and parity qubits as classical bit masks, so they
never widen the execution window. The converted circuit is laid out into
stages as its gates are emitted, by layerize's rule (circuits._StageBuilder),
so no flat gate list is built or re-walked, and its gates are checked once,
by the LayeredCircuit constructor.

compile_speculative / execute_speculative implement the grouped extension
for circuits that act classically on basis states: stages are linked r at a
time. A stage that maps one basis state to a basis state maps all of them,
affinely, and a pending P-dagger is only a phase there, so each group runs
once on its teleported input. Both modes are built by one linked builder
(_linked), which takes the groups and the outcome names: compile_measure
links every stage, a SpeculativeProgram links its groups, and execute runs
either program. A grouped run's critical path is one step per group.

Programs store only what cannot be recomputed. A CompiledProgram is its
qubit count, its output wires and its instructions; its wire count n, its
declared depth and its execution plan are derived from them on first use,
so no program can carry a depth or a width that disagrees with its own
instructions. UnitaryProgram and SpeculativeProgram derive their sizes the
same way. A program's rules (qubit use, gate targets, outcome variables read
once, conditions bound, outputs) are checked once, on first use, by one walk
(CompiledProgram.outcome_vars) that the execution plan, to_unitary and
enumerate_branches all read first. Construction checks nothing, so building
a program costs only its tuples, and declared_depth and serialize_program
read the instructions as they are, without the walk; a BELL with no outcome
variables or a correction with no condition raises the walk's message from
them too, instead of a TypeError or text that does not parse. A run returns
its results and the outcomes it drew, nothing more: execute gives the
output state and the value of every outcome variable, execute_speculative
the output bits and the link outcomes.

Cost model for declared depth: every gate costs 1 layer, a Bell measurement
costs 3 (CNOT, H, readout), a conditioned single-qubit correction costs 1,
and EPR preparation is a layer-0 resource. Conditions wait for the readouts
of the variables they reference. compile_* functions are pure. Execution
runs from a plan built once per program on first use (see the execution
section); runs only read it, so they are safe to parallelize externally.
"""
from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .circuits import (
    _ARITY,
    _SHORT_DIGITS,
    DepthMetrics,
    Gate,
    GateKind,
    LayeredCircuit,
    ParseError,
    Stage,
    ValidationError,
    _check_gate,
    _int,
    _parse_gate_line,
    _parse_header,
    _StageBuilder,
    depth_metrics,
    flatten,
    serialize_circuit,
    t,
)
from .frames import (
    KeyPoly,
    OutcomeVar,
    Owner,
    _names,
    _set_bits,
    mask_of,
    outcome_var,
    push_gates,
    var_bit,
)
from .oracle import (
    GATE_MATRICES,
    MAX_QUBITS,
    _S,
    StateVector,
    _extract,
    _flip,
    _phase,
    apply_gate,
    basis_bits,
    gate_kernel,
    init_state,
)


class InstrOp(Enum):
    EPR = "EPR"
    GATE = "GATE"
    BELL = "BELL"
    COND_PDG = "PDG"
    COND_X = "X"
    COND_Z = "Z"


# The tables keyed on an instruction's op are keyed on its value, a str, as
# op._value_: a str hashes without calling back into Python, and an InstrOp
# would hash through the Python-level Enum.__hash__.
_COND_KINDS = {
    InstrOp.COND_PDG._value_: GateKind.PDG,
    InstrOp.COND_X._value_: GateKind.X,
    InstrOp.COND_Z._value_: GateKind.Z,
}
_COND_OPS = {value: InstrOp(value) for value in _COND_KINDS}

# Builds a NamedTuple record from all its fields, as _record(Gate, (kind,
# targets)), without the Python frame of the record's generated __new__:
# for the records the compiler makes in bulk.
_record = tuple.__new__


class Instruction(NamedTuple):
    """One program instruction. A NamedTuple, like Gate: a compiled program
    holds one per operation, and a tuple record is cheap to build. Its
    fields are read-only."""

    op: InstrOp
    qubits: tuple[int, ...]
    gate: Gate | None = None
    out_vars: tuple[OutcomeVar, OutcomeVar] | None = None
    cond: KeyPoly | None = None


@dataclass(frozen=True)
class CompiledProgram:
    """A program holds only its instructions, its qubit count and its
    output wires; everything else is derived from them on first use.

    The constructor checks nothing. ``outcome_vars`` checks every program
    rule, once, and everything that runs or converts the program reads it
    first; a program that breaks a rule raises ValidationError there."""

    total_qubits: int
    logical_outputs: tuple[int, ...]
    instructions: tuple[Instruction, ...]

    @property
    def n(self) -> int:
        return len(self.logical_outputs)

    @cached_property
    def declared_depth(self) -> DepthMetrics:
        """The ASAP depth of the instructions under the cost model."""
        return _schedule_depth(self.instructions)

    @cached_property
    def _walk(self) -> tuple[tuple[OutcomeVar, ...], tuple[int, ...]]:
        """One checked walk of the program (_checked_vars): the outcome
        variables in the order the BELLs read them, x then z of each, and
        their table bits (frames.var_bit)."""
        return _checked_vars(self)

    @property
    def outcome_vars(self) -> tuple[OutcomeVar, ...]:
        """The outcome variables in the order the BELLs read them, x then z
        of each, after one checked walk of the program."""
        return self._walk[0]

    @cached_property
    def plan(self) -> "ExecPlan":
        """The execution plan, built on first use and shared by every run."""
        return _measure_plan(self)


@dataclass(frozen=True)
class ResourceReport:
    epr_pairs: int
    total_qubits: int
    link_steps: int
    compiled_depth: int
    original_depth: int
    t_depth: int


@dataclass(slots=True)
class Branch:
    """One leaf of a run: its probability, its output state, and the
    classical bits it read, as the mask ``bits`` over the plan's
    ``(name, bit)`` pairs ``names``. ``outcomes`` is read off the mask when
    asked for, so a run builds no dict per leaf."""

    probability: float
    state: StateVector
    bits: int
    names: tuple[tuple[str, int], ...]

    @property
    def outcomes(self) -> dict[str, int]:
        """The value of every named outcome, in the order the run read them."""
        bits = self.bits
        return {name: 1 if bits & bit else 0 for name, bit in self.names}


def _schedule_depth(instructions: tuple[Instruction, ...]) -> DepthMetrics:
    """ASAP schedule under the declared cost model, honoring readout dependencies.

    A conditioned correction starts once its qubit is free and every variable
    of its condition has been read out. Readouts are kept as one variable
    mask per readout time: a BELL adds the bits of its two outcome variables
    (frames.var_bit) to the mask of the time it ends. A condition scans the
    readout times from the latest down, only while they are later than its
    qubit's free time, and waits for the first one whose mask meets the
    condition's support. That is its latest readout, found with a few int
    ANDs instead of one lookup per term.
    """
    qubit_free: dict[int, int] = {}
    read_at: dict[int, int] = {}  # readout time -> mask of the variables read then
    read_times: list[int] = []  # the keys of read_at, ascending
    total = 0
    t_layers: set[int] = set()
    gate_count = 0
    t_count = 0
    for op, qubits, gate, out_vars, cond in instructions:
        if op is InstrOp.EPR:
            continue
        start = 0
        for q in qubits:
            free = qubit_free.get(q, 0)
            if free > start:
                start = free
        if op is InstrOp.GATE:
            end = start + 1
            gate_count += 1
            if gate.kind is GateKind.T:
                t_count += 1
                t_layers.add(start)
        elif op is InstrOp.BELL:
            if out_vars is None:
                raise ValidationError("BELL instruction needs two outcome variables")
            end = start + 3
            read = 1 << var_bit(out_vars[0]) | 1 << var_bit(out_vars[1])
            if end not in read_at:
                read_at[end] = 0
                insort(read_times, end)
            read_at[end] |= read
        else:
            if cond is None:
                raise ValidationError(f"{op.value} instruction has no condition")
            support = cond.support
            for ready in reversed(read_times):
                if ready <= start:
                    break
                if read_at[ready] & support:
                    start = ready
                    break
            end = start + 1
        for q in qubits:
            qubit_free[q] = end
        if end > total:
            total = end
    return DepthMetrics(total, len(t_layers), t_count, gate_count)


_QUBIT_COUNT = {InstrOp.EPR._value_: 2, InstrOp.BELL._value_: 2, **dict.fromkeys(_COND_KINDS, 1)}


def _checked_vars(p: CompiledProgram) -> tuple[tuple[OutcomeVar, ...], tuple[int, ...]]:
    """The one check of a program's rules: walk the instructions once, in
    program order, checking each against the ones before it, and return the
    outcome variables in the order the BELLs read them with their table bits.

    Per instruction, in this order: its qubits are distinct and none was
    measured by an earlier BELL. Then a GATE acts on its gate's targets,
    with the gate's arity; an EPR or a BELL takes two qubits and a
    correction one; an EPR's qubits are fresh (no input wire, no qubit used
    before); a BELL reads two outcome variables that no earlier BELL read;
    and a correction has a condition whose every variable an earlier BELL
    read. Then no output was measured and none repeats. Last, every qubit
    used, outputs included, is in range; only the smallest and the largest
    are compared with total_qubits.
    """
    measured: set[int] = set()
    touched = set(range(p.n))  # the input wires and every qubit used so far
    read: list[OutcomeVar] = []
    read_bits: list[int] = []  # the table bit (frames.var_bit) of each of read
    bound = 0  # the mask of read_bits
    GATE, EPR, BELL = InstrOp.GATE, InstrOp.EPR, InstrOp.BELL  # locals: a third off the walk
    for op, qubits, gate, out_vars, cond in p.instructions:
        if len(qubits) > 1 and (qubits[0] == qubits[1] if len(qubits) == 2
                                else len(set(qubits)) != len(qubits)):
            raise ValidationError(f"{op.value} qubits must be distinct (qubit collision)")
        if measured and not measured.isdisjoint(qubits):
            _raise_measured(qubits, measured)
        if op is GATE:
            if gate is None:
                raise ValidationError("GATE instruction has no gate")
            if not (qubits is gate.targets or qubits == gate.targets):
                raise ValidationError(f"GATE qubits {qubits} differ from its gate's targets "
                                      f"{gate.targets}")
            if len(qubits) != _ARITY[gate.kind]:
                _check_gate(gate, p.total_qubits)
        elif len(qubits) != _QUBIT_COUNT[op._value_]:
            raise ValidationError(f"{op.value} takes {_QUBIT_COUNT[op._value_]} qubit(s), "
                                  f"got {len(qubits)}")
        elif op is EPR:
            if not touched.isdisjoint(qubits):
                raise ValidationError(f"EPR qubit {min(touched.intersection(qubits))} is already in use")
        elif op is BELL:
            if out_vars is None or len(out_vars) != 2:
                raise ValidationError("BELL instruction needs two outcome variables")
            for v in out_vars:
                b = var_bit(v)
                bit = 1 << b
                if bound & bit:
                    raise ValidationError(f"outcome variable {v.name!r} is read by two BELLs")
                bound |= bit
                read_bits.append(b)
            read += out_vars
            measured.update(qubits)
        else:
            if cond is None:
                raise ValidationError(f"{op.value} instruction has no condition")
            unbound = cond.support & ~bound
            if unbound:
                raise ValidationError(f"unbound outcome variable {min(_names(unbound))!r}")
        touched.update(qubits)
    outputs = p.logical_outputs
    if not measured.isdisjoint(outputs):
        _raise_measured(outputs, measured)
    if len(set(outputs)) != len(outputs):
        q = next(q for i, q in enumerate(outputs) if q in outputs[:i])
        raise ValidationError(f"qubit {q} is already an output")
    touched.update(outputs)
    if touched:
        for q in (min(touched), max(touched)):
            if not 0 <= q < p.total_qubits:
                raise ValidationError(f"qubit index {q} out of range for {p.total_qubits} qubits")
    return tuple(read), tuple(read_bits)


def _raise_measured(qubits, measured: set[int]) -> None:
    q = next(q for q in qubits if q in measured)
    raise ValidationError(f"qubit {q} was already measured and cannot be reused")


def _linked(n: int, groups: tuple[tuple[Stage, ...], ...], name) -> CompiledProgram:
    """Link ``groups`` of stages on n wires by teleportation: each group's
    gates are pre-executed as one piece, and consecutive groups are joined
    by Bell measurements.

    Qubit layout: inputs occupy 0..n-1; the pair block for group i >= 2
    occupies 2n indices starting at n + 2n(i-2), first halves before second
    halves. Group 1 runs on the inputs, group i on its second halves; link i
    applies the pending conditioned P-dagger corrections of group i's last T
    layer on its outputs and Bell-measures them against group i+1's first
    halves. The outcomes of link i on wire j are named name(i, j) + "x" /
    "z". The initial mask is zero, and the run ends with conditioned X and
    Z corrections. A P-dagger pending at a T layer inside a group is not
    corrected: that is exact only where it is a phase, on stages that map
    basis states to basis states (compile_speculative checks that).

    Every key here is linear (links only XOR in single variables), so the
    frame is pushed as plain int masks, the ``linear`` bits of a KeyPoly,
    through frames.push_gates; a KeyPoly is built only for a condition that
    is emitted.
    """
    k_groups = len(groups)

    def first_half(i: int, j: int) -> int:
        return n + 2 * n * (i - 2) + j

    def second_half(i: int, j: int) -> int:
        return n + 2 * n * (i - 2) + n + j

    def carrier(i: int, j: int) -> int:
        return j if i == 1 else second_half(i, j)

    GATE, T = InstrOp.GATE, GateKind.T
    instrs: list[Instruction] = []
    for i in range(2, k_groups + 1):
        for j in range(n):
            instrs.append(_record(Instruction, (InstrOp.EPR, (first_half(i, j), second_half(i, j)),
                                                None, None, None)))
    for i, group in enumerate(groups, start=1):
        off = carrier(i, 0)  # group 1 keeps its gates as they are
        for st in group:
            for g in st.clifford:
                kind, targets = g
                if off:
                    targets = ((targets[0] + off,) if len(targets) == 1
                               else (targets[0] + off, targets[1] + off))
                    g = _record(Gate, (kind, targets))
                instrs.append(_record(Instruction, (GATE, targets, g, None, None)))
            for q in sorted(st.t_layer):
                targets = (q + off,)
                instrs.append(_record(Instruction, (GATE, targets, _record(Gate, (T, targets)),
                                                    None, None)))

    a, b = [0] * n, [0] * n  # the frame's X and Z exponents as int masks
    for i, group in enumerate(groups, start=1):
        for st in group:
            push_gates(st.clifford, a, b)  # a LayeredCircuit's stage gates are Clifford
        for j in sorted(group[-1].t_layer):
            if a[j]:
                instrs.append(_record(Instruction, (InstrOp.COND_PDG, (carrier(i, j),), None, None,
                                                    KeyPoly(a[j]))))
        if i < k_groups:
            for j in range(n):
                prefix = name(i, j)
                vx, vz = outcome_var(prefix + "x"), outcome_var(prefix + "z")
                instrs.append(_record(Instruction, (InstrOp.BELL,
                                                    (carrier(i, j), first_half(i + 1, j)),
                                                    None, (vx, vz), None)))
                a[j] ^= 1 << var_bit(vx)
                b[j] ^= 1 << var_bit(vz)
        else:
            for j in range(n):
                out_q = (carrier(i, j),)
                if a[j]:
                    instrs.append(_record(Instruction, (InstrOp.COND_X, out_q, None, None,
                                                        KeyPoly(a[j]))))
                if b[j]:
                    instrs.append(_record(Instruction, (InstrOp.COND_Z, out_q, None, None,
                                                        KeyPoly(b[j]))))

    outputs = tuple(carrier(k_groups, j) for j in range(n))
    return CompiledProgram(n + 2 * n * (k_groups - 1), outputs, tuple(instrs))


def compile_measure(c: LayeredCircuit) -> CompiledProgram:
    """Compile a layered circuit into a teleportation-linked program.

    Each stage is its own group of _linked, which holds the qubit layout and
    the frame push: stage i is pre-executed on the second halves of its pair
    block, and link i corrects its pending P-daggers and Bell-measures its
    outputs into the next block. Outcome variables are named m<k>x / m<k>z
    in program order.
    """
    n = c.n
    return _linked(n, tuple((st,) for st in c.stages), lambda i, j: f"m{(i - 1) * n + j}")


def report(c: LayeredCircuit, p: CompiledProgram) -> ResourceReport:
    dm = depth_metrics(c)
    epr = sum(1 for ins in p.instructions if ins.op is InstrOp.EPR)
    return ResourceReport(
        epr_pairs=epr,
        total_qubits=p.total_qubits,
        link_steps=len(c.stages) - 1,
        compiled_depth=p.declared_depth.total_depth,
        original_depth=dm.total_depth,
        t_depth=dm.t_depth,
    )


# -- program text format -----------------------------------------------------

def _cond_from_text(text: str, lineno: int, linear_terms: dict[str, int]) -> KeyPoly:
    """Parse a condition (the text after ``IF``) straight into masks.

    The text is split at ``^`` with a space added at each end, so in the
    canonical form every term of a linear condition reads `` name ``.
    ``linear_terms`` maps that text to the variable's bit for every variable
    defined so far, so such a condition costs one dict lookup per term and
    one mask build. Any other condition is checked term by term
    (well-formed, variables defined: keys of ``linear_terms``).
    """
    if text == "0":
        return KeyPoly.zero()
    parts = f" {text} ".split("^")
    try:
        return KeyPoly(mask_of(list(map(linear_terms.__getitem__, parts))))
    except KeyError:
        pass
    terms: list[set[OutcomeVar]] = []
    constant = 0
    for part in parts:
        term = part.strip()
        if term == "1":
            constant ^= 1
            continue
        if not term:
            raise ParseError("empty condition term", lineno)
        names = [v.strip() for v in term.split("*")]
        if any(not name or not name.isidentifier() for name in names):
            raise ParseError(f"bad condition term {term!r}", lineno)
        for name in names:
            if f" {name} " not in linear_terms:
                raise ParseError(f"condition references undefined variable {name!r}", lineno)
        terms.append({OutcomeVar(name, Owner.LOCAL) for name in names})
    return KeyPoly.from_monomials(terms, constant)


def serialize_program(p: CompiledProgram) -> str:
    lines = [f"QUBITS {p.total_qubits}"]
    for op, qubits, gate, out_vars, cond in p.instructions:
        if op is InstrOp.GATE:
            lines.append(str(gate))
        elif op is InstrOp.EPR:
            lines.append(f"EPR {qubits[0]} {qubits[1]}")
        elif op is InstrOp.BELL:
            if out_vars is None:
                raise ValidationError("BELL instruction needs two outcome variables")
            lines.append(f"BELL {qubits[0]} {qubits[1]} -> {out_vars[0].name} {out_vars[1].name}")
        else:
            if cond is None:
                raise ValidationError(f"{op.value} instruction has no condition")
            lines.append(f"{op._value_} {qubits[0]} IF {cond}")
    for j, q in enumerate(p.logical_outputs):
        lines.append(f"OUT {j} {q}")
    return "\n".join(lines) + "\n"


def parse_program(text: str) -> CompiledProgram:
    total: int | None = None
    instrs: list[Instruction] = []
    outputs: dict[int, int] = {}
    out_lines: dict[int, int] = {}
    measured: set[int] = set()
    linear_terms: dict[str, int] = {}

    def q_index(tok: str, lineno: int) -> int:
        if tok.isascii() and tok.isdigit() and len(tok) <= _SHORT_DIGITS:
            q = int(tok)
            if q < total:
                return q
        try:
            q = _int(tok)
        except ValueError:
            raise ParseError("qubit index must be an integer", lineno) from None
        if not 0 <= q < total:
            raise ParseError(f"qubit index {q} out of range", lineno)
        return q

    def q_pair(tokens: list[str], lineno: int) -> tuple[int, int]:
        pair = (q_index(tokens[1], lineno), q_index(tokens[2], lineno))
        if pair[0] == pair[1]:
            raise ParseError(f"{tokens[0]} qubits must be distinct", lineno)
        return pair

    for lineno, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            line = line.split("#", 1)[0]
        # A condition can be long: split off its first three tokens only.
        tokens = line.split(None, 3)
        if len(tokens) > 3:
            if total is not None and tokens[2] == "IF" and tokens[0] in _COND_OPS:
                cond = _cond_from_text(tokens[3].rstrip(), lineno, linear_terms)
                instrs.append(Instruction(_COND_OPS[tokens[0]], (q_index(tokens[1], lineno),),
                                          None, None, cond))
                continue
            tokens = line.split()
        elif not tokens:
            continue
        if total is None:
            total = _parse_header(tokens, lineno)
            continue
        head = tokens[0]
        if head == "EPR":
            if len(tokens) != 3:
                raise ParseError("EPR takes two qubits", lineno)
            instrs.append(Instruction(InstrOp.EPR, q_pair(tokens, lineno)))
        elif head == "BELL":
            if len(tokens) != 6 or tokens[3] != "->":
                raise ParseError("expected 'BELL r s -> vx vz'", lineno)
            qubits = q_pair(tokens, lineno)
            vx, vz = tokens[4], tokens[5]
            for name in (vx, vz):
                if not name.isidentifier():
                    raise ParseError(f"outcome variable {name!r} is not an identifier", lineno)
            if vx == vz:
                raise ParseError("BELL outcome variables must be distinct", lineno)
            if f" {vx} " in linear_terms or f" {vz} " in linear_terms:
                raise ParseError("outcome variable redefined", lineno)
            out_vars = (outcome_var(vx), outcome_var(vz))
            linear_terms[f" {vx} "] = var_bit(out_vars[0])
            linear_terms[f" {vz} "] = var_bit(out_vars[1])
            measured.update(qubits)
            instrs.append(Instruction(InstrOp.BELL, qubits, None, out_vars))
        elif head == "OUT":
            if len(tokens) != 3:
                raise ParseError("expected 'OUT j q'", lineno)
            try:
                j = _int(tokens[1])
            except ValueError:
                raise ParseError("logical wire must be an integer", lineno) from None
            if j < 0:
                raise ParseError(f"logical wire {j} is negative", lineno)
            if j in outputs:
                raise ParseError(f"duplicate OUT for logical wire {j}", lineno)
            q = q_index(tokens[2], lineno)
            if q in out_lines:
                raise ParseError(f"qubit {q} is already an output", lineno)
            outputs[j] = q
            out_lines[q] = lineno
        elif "IF" in tokens:
            raise ParseError("expected '<PDG|X|Z> q IF <condition>'", lineno)
        else:
            g = _parse_gate_line(tokens, total, lineno)
            instrs.append(Instruction(InstrOp.GATE, g.targets, g))

    if total is None:
        raise ParseError("missing 'QUBITS <n>' header", 1)
    if not outputs:
        raise ParseError("program has no OUT lines", 1)
    if sorted(outputs) != list(range(len(outputs))):
        raise ParseError("OUT logical wires must be 0..n-1", 1)
    for q, lineno in out_lines.items():
        if q in measured:
            raise ParseError(f"output qubit {q} is Bell-measured", lineno)
    return CompiledProgram(total, tuple(outputs[j] for j in range(len(outputs))), tuple(instrs))


# -- execution ---------------------------------------------------------------
#
# A program runs from an execution plan built once per program by replaying
# its windowed schedule symbolically. EPR and gate instructions are deferred;
# a Bell measurement, a conditioned correction (whether or not it will fire)
# and the final extraction each flush only the backward light cone of their
# qubits (_Schedule.flush), so the next stage's pre-executed gates stay
# deferred. The cone is found through a per-qubit index: each deferred item
# links to the item deferred last on each of its qubits before it, and a
# flush walks those links back from its qubits' last items, stopping at
# items that have left the buffer, so a flush costs time in the items it
# emits, not in the length of the buffer. The plan records
# each step with its tensor axes and its numpy kernel resolved. The
# program's rules (qubit use, outcome variables, conditions, outputs) are
# checked before the plan is built, by the walk that lists its outcome
# variables (CompiledProgram.outcome_vars); the plan's own static check is
# the window cap, which raises when the plan is built.
#
# A Bell measurement takes one of two paths (_measure_plan). Against the
# untouched half s of an EPR pair whose other half t is still deferred (the
# last item deferred on s is that EPR, still in the buffer) it is one
# teleport step (_Schedule.teleport): by the teleportation identity each
# outcome k = 2x + z has probability exactly 1/4 and leaves X^x Z^z of the
# measured carrier on t, so the pair is never allocated, t takes the
# carrier's window slot, and the step reads no amplitude: all it leaves is
# that Pauli. Every link of a compiled program is one, so its window stays
# at n, the live carriers. Any other Bell measurement is planned as its
# rotation (_bell_rotation), two gate steps, then a branch point
# (_Schedule.branch), a Z measurement of the rotated pair (s, r). A unitary
# plan reads each Bell group the same way, right after the group's rotation
# (_unitary_plan). A branch point is one step at every window width: it
# moves s then r to the front and reads the frontier as a (batch, outcome,
# rest) array (_branch). That path is the only one that reads a live pair.
#
# Gate steps are fused while the window holds at most _FUSE_WIDTH = 8
# qubits, and allocations (|0> or EPR) at every width. Each is composed, when
# the plan is built, into a pending pull map over the flattened window, and
# the map is flushed as one gather step (_gather: a take, a multiply and,
# after an H, an add) before every branch point, the final extraction and
# any gate on a wider window. An allocation that makes the window wider than
# _FUSE_WIDTH is flushed at once, so the map never grows past the allocation
# that crosses the limit. A map holds at most two terms, so at most one H.
# On narrow windows a numpy call costs far more than its amplitude work, and
# one gather replaces a run of per-gate kernel calls. The limit is where that
# stops paying (timed on a 2-CPU x86-64 host): at 64-256 amplitudes composing
# a gate costs 1.5-3.2 us, about what one run of its kernel costs (1.0-6.4
# us), while at 1,024 it costs 5-8 us against 2-5 us for most kernels; and
# with no limit the protocol benchmark's peak memory rose by a third. Gates
# on wider windows keep the per-gate kernels (_cached_kernel), and
# conditioned steps always use them.
#
# A conditioned step (X, Z or P-dagger), a per-branch phase and a teleport
# step do not flush the map: each is held (_Schedule._hold) and emitted
# right after the gather that flushes it, the held steps in program order.
# Each acts on one window slot, or none for a phase. The map is flushed
# first before a gate on a held slot (the slot a held teleport step hands to
# its pair's other half among them) and before any allocation, since a held
# step's kernel and window bit are resolved at the current width. So every
# gate composed behind a held step leaves its slot alone and commutes with
# it, and the RNG draws keep their order: held steps stay in program order
# and a branch point flushes them first. A teleport step reads no amplitude,
# so an exhaustive run forks there after the gates composed behind it, once
# for all four children. In a compiled program each link's corrections and
# Bell measurements then wait behind one gather for the cones they flush,
# instead of cutting them into one gather per corrected wire.
#
# One runner (_run) executes a plan over a frontier: every live branch is
# one entry of a batch axis of the amplitude array, so each step is one numpy
# call for all branches at once instead of one per branch. The batch axis
# leads: the gate kernels address a qubit axis by the amplitudes after it, so
# they never see it; fresh qubit axes are appended after it; and with the
# measured qubits next, row (entry, outcome) of the flattened first two axes
# is one child, so the kept children of a branch point come out of one take
# already contiguous. A branch point replaces each entry by its kept
# outcomes, parent-major, which is the order a depth-first expansion visits
# them, and a teleport step by its four outcomes, each under its Pauli on
# the teleported slot's axis (_teleport), in the same order. A sampled shot
# is one row and draws each Bell outcome with one
# uniform: at a branch point from the same table of outcome probabilities
# as an exhaustive run keeps them from, its child one row of that layout;
# at a teleport step as the first k with u < (k + 1) / 4.
#
# A sampled shot carries a Pauli frame (Knill, quant-ph/0410199): its state
# is (-1)^sign X^x Z^z of its amplitudes, Z applied first, where x and z are
# masks over the flat window index (window slot a is bit width - 1 - a, the
# bit a teleport step holds) and sign is one bit. A teleport step, and a
# conditioned X or Z that fires, only update the frame, with no numpy call.
# The next gather on a window of at most _FUSE_WIDTH qubits takes the frame
# into its own pull map (_framed), so a shot touches its amplitudes only
# where a gate acts. A conditioned P-dagger commutes with the frame's Z and
# runs as it is unless the frame holds X on its qubit; then, and before any
# other step (a wide allocation's gather among them) and the final
# extraction, the frame is applied to the amplitudes (_unframe). Every
# factor the frame moves is +1 or -1, so a shot's amplitudes are bit for bit
# those it would get by applying each Pauli where it arises.
#
# Classical bits are numbered per plan, by one rule for both plans
# (_Schedule._read): the i-th Bell measurement read gives x bit 2i and z bit
# 2i + 1, and its outcome k = 2x + z sets them. Each condition is compiled
# once, when the plan is built, into a test over those bits, (linear mask,
# masks of the terms of degree >= 2, constant), so a plan does not depend on
# the process-wide variable table. An exhaustive run keeps its rows' bits as
# one int64 array (at most MAX_OUTCOME_BITS bits, which both enumerations
# check first), so a conditioned step is one vectorized test of every row,
# its parities from np.bitwise_count (_fires); a sampled shot keeps its one
# row's bits as a Python int, which any number of bits fits, and its
# probability as a float (_fires_one). A leaf keeps its mask, and its
# outcome dict is built only when read (Branch.outcomes).


# Plan step opcodes. (_APPLY, kernel, args) runs kernel(amps, *args) on the
# whole frontier; the kernel is a per-gate one or a fused _gather. (_COND,
# test, kernel, args) runs a per-gate kernel, or the phase _scale, on the
# entries whose mask of classical bits that read 1 passes ``test``, a
# compiled (linear, terms, constant) triple (_plan_test). (_BRANCH, bits,
# perm) is a branch point (_Schedule.branch): the frontier is transposed by
# ``perm``, which puts the measured pair first, and read as (batch,
# outcome, rest); outcome k sets the classical bits ``bits[k]``, and the
# children keep one axis per remaining qubit. (_TELEPORT, bits, bit) is a
# Bell measurement against an untouched EPR half (_Schedule.teleport): each
# outcome k = 2x + z has probability 1/4, sets ``bits[k]`` and leaves
# X^x Z^z on ``bit``, the flat window bit of the teleported slot; the
# frontier keeps its shape.
_APPLY, _COND, _BRANCH, _TELEPORT = range(4)


@dataclass(frozen=True)
class ExecPlan:
    """Flat steps over a tensor window, the axes of the logical outputs at
    the end, the largest window width, and each named outcome with its
    plan-local classical bit (_Schedule._read). A plan reads each Bell
    measurement at one step: a _TELEPORT step when a measure plan teleports
    a carrier onto an untouched EPR half, otherwise a _BRANCH step after its
    rotation, as a unitary plan reads every Bell group. A branch point is
    that one step at every window width, and an allocation is always part
    of a gather step. A conditioned, phase or teleport step that was held
    behind a fused map follows the gather that flushed it (_Schedule._hold).
    A read step holds only classical bits and axes or a window bit. A plan
    holds no per-run state: an exhaustive run stacks a _TELEPORT step's four
    Pauli children (_teleport), and a sampled shot folds the Pauli into its
    frame."""

    steps: tuple[tuple, ...]
    outputs: tuple[int, ...]
    peak_width: int
    names: tuple[tuple[str, int], ...]

    @property
    def n(self) -> int:
        return len(self.outputs)


class _Schedule:
    """Symbolic window replay: which qubit each tensor axis holds, the
    pending pull map of the gates and allocations not yet emitted, and the
    items deferred until a flush reaches their light cone. Array axis 0 is
    the frontier's batch axis, so the qubit on window slot i is array axis
    i + 1. A branch point removes its measured qubits from the window; a
    teleport step hands the measured carrier's slot to the other half of the
    pair it measured against. The window width decides only how a gate runs:
    composed into the pending map up to _FUSE_WIDTH qubits, a per-gate
    kernel step above; an allocation onto a window wider than that flushes
    the map it joined at once. While a map is pending, conditioned, phase
    and teleport steps are held behind it (``held``, on the window slots
    ``held_axes``) and emitted, in program order, right after its gather.

    The deferred items are indexed per qubit. Each is an entry [order,
    qubits, item, preds]: ``order`` is its place in program order, and
    ``preds`` holds, per qubit, the entry deferred last on that qubit before
    it, or None. ``last[q]`` is the entry deferred last on q. An entry that
    has left the buffer, emitted by a flush or dropped by a teleport step,
    has its preds set to None, and a walk of the links ends there."""

    def __init__(self, n: int):
        self.window = list(range(n))
        self.last: dict[int, list] = {}
        self.count = 0  # items deferred so far: the next one's place in program order
        self.steps: list[tuple] = []
        self.pending: tuple[np.ndarray, np.ndarray] | None = None  # (src, coef), see _gather
        self.held: list[tuple] = []  # steps after the pending map, emitted right after it
        self.held_axes: set[int] = set()  # the window slots the held steps act on
        self.names: list[tuple[str | None, int]] = []  # every classical bit read (_read)
        self.peak = n

    def _allocate(self, qubits: list[int]) -> None:
        """Append fresh qubits to the window, one |0> or two as an EPR pair,
        by composing their map into the pending one; on a window wider than
        _FUSE_WIDTH, where gates do not fuse, that map is flushed at once."""
        width = len(self.window) + len(qubits)
        if width > MAX_QUBITS:
            raise ValidationError("register window exceeds the qubit cap")
        if self.held:  # held steps are resolved at the current width
            self._flush_map()
        self.peak = max(self.peak, width)
        self._fuse(width, *_alloc_map(len(qubits), width))
        self.window += qubits
        if width > _FUSE_WIDTH:
            self._flush_map()

    def axes(self, qubits) -> tuple[int, ...]:
        """Array axes of ``qubits``, allocating fresh |0> ones as needed."""
        window = self.window
        for q in qubits:
            if q not in window:
                self._allocate([q])
        return tuple([window.index(q) + 1 for q in qubits])

    def epr(self, a: int, b: int) -> None:
        self._allocate([a, b])

    def gate(self, kind: GateKind, qubits: tuple[int, ...]) -> None:
        axes = self.axes(qubits)
        width = len(self.window)
        if width > _FUSE_WIDTH:
            self._flush_map()
            self.steps.append((_APPLY, *_cached_kernel(kind._value_, axes, width + 1)))
        else:
            if not self.held_axes.isdisjoint(axes):
                self._flush_map()
            self._fuse(width, *_gate_map(kind._value_, axes, width))

    def _fuse(self, width: int, src: np.ndarray | None, coef: np.ndarray | None) -> None:
        """Compose one gate's or allocation's pull map, onto a
        ``width``-qubit window, after the pending map. A map holds at most
        two terms, so one with two terms (from an H) is flushed before the
        next H."""
        if self.pending is None or (src is not None and src.ndim == 2 and self.pending[0].ndim == 2):
            self._flush_map()
            ident_src, ident_coef = _identity_map(width)
            self.pending = (ident_src if src is None else src, ident_coef if coef is None else coef)
            return
        psrc, pcoef = self.pending
        if src is not None:
            psrc = psrc.take(src, axis=-1)
            pcoef = pcoef.take(src, axis=-1)
        if coef is not None:
            pcoef = pcoef * coef
        self.pending = psrc, pcoef

    def _flush_map(self) -> None:
        """Emit the pending map, if any, as one gather step that leaves the
        frontier with one axis per window qubit, then the steps held behind
        it in program order."""
        if self.pending is not None:
            self.steps.append((_APPLY, _gather, (*self.pending, (-1,) + (2,) * len(self.window))))
            self.steps += self.held
            self.pending = None
            self.held.clear()
            self.held_axes.clear()

    def _hold(self, step: tuple, axes: tuple[int, ...]) -> None:
        """Emit a conditioned, phase or teleport step that acts on window
        slots ``axes`` (none for a phase): at once with no map pending, else
        held behind the map until its gather. A gate on a held slot flushes
        the map first (gate), and so does any allocation (_allocate), so
        every gate composed behind a held step leaves its slots alone."""
        if self.pending is None:
            self.steps.append(step)
        else:
            self.held.append(step)
            self.held_axes.update(axes)

    def cond(self, test, kind: GateKind, qubits: tuple[int, ...]) -> None:
        axes = self.axes(qubits)
        self._hold((_COND, test, *_cached_kernel(kind._value_, axes, len(self.window) + 1)), axes)

    def phase(self, test, phase: complex) -> None:
        """A per-branch phase, which commutes with every step of its branch,
        so it is held behind a pending map on no slot. Right after a phase
        step with the same test, the last step held or, with no map pending,
        the last step emitted, it folds into that step as the product phase."""
        steps = self.held if self.pending is not None else self.steps
        last = steps[-1] if steps else None
        if last is not None and last[0] is _COND and last[2] is _scale and last[1] == test:
            steps[-1] = (_COND, test, _scale, (last[3][0] * phase,))
        else:
            self._hold((_COND, test, _scale, (phase,)), ())

    def defer(self, qubits: tuple[int, ...], item) -> list:
        """Defer ``item`` on ``qubits``; returns its entry in the buffer."""
        last = self.last
        entry = [self.count, qubits, item, tuple(map(last.get, qubits))]
        self.count += 1
        for q in qubits:
            last[q] = entry
        return entry

    def flush(self, qubits, emit) -> None:
        """Emit, in program order, each deferred item in the backward light
        cone of ``qubits``: the items still deferred that are reached from
        the last one on each of ``qubits`` through the links to their
        predecessors. That is the cone a scan of the buffer from its end
        would find, keeping each item that shares a qubit with ``qubits`` or
        with an item already kept: a flush takes every earlier item on the
        qubits of each item it emits, so a link to an item that is gone ends
        a chain exactly where the scan finds nothing more."""
        stack = list(map(self.last.get, qubits))
        cone = []
        while stack:
            entry = stack.pop()
            if entry is not None and entry[3] is not None:
                stack += entry[3]
                entry[3] = None
                cone.append(entry)
        cone.sort()  # by order, which no two entries share
        for _, qs, item, _ in cone:
            emit(qs, item)

    def drop(self, entry: list) -> None:
        """Take a deferred item out of the buffer without emitting it. No
        earlier item on its qubits may still be deferred, as none is for an
        EPR, whose qubits are fresh: a walk then ends at the dropped item
        where a scan of the buffer without it finds nothing more."""
        entry[3] = None

    def branch(self, s: int, r: int, vx: str | None, vz: str | None) -> tuple[int, ...]:
        """Read the rotated Bell pair (s, r) (_bell_rotation) with a Z
        measurement, then drop both: x from s and z from r, named ``vx`` and
        ``vz`` (or None). Outcome k = 2x + z sets the classical bits
        ``bits[k]`` (_read), which are returned.

        It is one step, at every window width. The step carries only the
        bits and the axis permutation that puts s then r first and the others
        after them in window order; _branch reads the reordered frontier as
        (batch, 4, rest), so that row k of axis 1 is outcome k."""
        measured = self.axes((s, r))
        self._flush_map()
        rest = [ax for ax in range(1, len(self.window) + 1) if ax not in measured]
        self.window = [self.window[ax - 1] for ax in rest]
        bits = self._read(vx, vz)
        self.steps.append((_BRANCH, bits, (0, *measured, *rest)))
        return bits

    def teleport(self, r: int, s: int, pair: list, vx: str, vz: str) -> None:
        """Bell-measure (r, s), where ``pair`` is the deferred EPR entry of s
        and its other half t, as one teleport step: it drops the pair from
        the buffer and never allocates it, and t takes r's window slot. Each
        outcome k = 2x + z, named and numbered as in branch, has probability
        exactly 1/4 and leaves X^x Z^z of r's state on t (the teleportation
        identity), so the step reads no amplitudes. It sets the classical
        bits ``bits[k]`` and records where that Pauli acts as the flat window
        bit of r's slot: an exhaustive run makes the four children on that
        axis (_teleport), and a sampled shot sets that bit of its frame.
        Behind a pending map the step is held on that slot (_hold), so a
        gate on t flushes the map first."""
        self.drop(pair)
        a, b = pair[1]
        t = b if a == s else a
        (axis,) = self.axes((r,))
        self._hold((_TELEPORT, self._read(vx, vz), 1 << (len(self.window) - axis)), (axis,))
        self.window[axis - 1] = t

    def _read(self, vx: str | None, vz: str | None) -> tuple[int, ...]:
        """Number the classical bits of the next Bell measurement, the one
        rule of both plans: the i-th read gives x bit 2i and z bit 2i + 1,
        entries 2i and 2i + 1 of ``names`` with their names (or None).
        Returns the bits each outcome k = 2x + z sets."""
        x = 1 << len(self.names)
        z = x << 1
        self.names += [(vx, x), (vz, z)]
        return 0, z, x, x | z

    def plan(self, outputs) -> ExecPlan:
        axes = self.axes(outputs)  # allocates untouched outputs: before tuple(steps)
        self._flush_map()
        return ExecPlan(tuple(self.steps), tuple(ax - 1 for ax in axes), self.peak,
                        tuple(named for named in self.names if named[0] is not None))


@lru_cache(maxsize=None)
def _cached_kernel(kind: str, axes: tuple[int, ...], ndim: int) -> tuple:
    """gate_kernel for the gate kind of this value. Plans repeat a few
    layouts many times, so each is resolved once and its arguments shared;
    the window cap bounds how many there are."""
    return gate_kernel(GateKind(kind), axes, ndim)


# Gate fusion. On a window of at most _FUSE_WIDTH qubits a run of gate and
# allocation steps, and on a wider one an allocation with the run before it,
# is one pull map over the flattened window,
# y[i] = sum_t coef[t, i] * x[src[t, i]], with src and coef of one row (1-D)
# or two (after an H). The maps of single gates and allocations come from
# integer bit operations on the flat index i, big-endian in the window's
# slots; their src is None for a diagonal gate and their coef None for a
# permutation. The cached maps are shared by every plan and never written.
_FUSE_WIDTH = 8
_FRESH = {1: np.array([1, 0], dtype=complex),  # the amplitudes of fresh qubits: |0>,
          2: np.array([_S, 0, 0, _S], dtype=complex)}  # or an EPR pair (as _grow_epr)


@lru_cache(maxsize=None)
def _identity_map(width: int) -> tuple[np.ndarray, np.ndarray]:
    n = 1 << width
    return np.arange(n), np.ones(n, dtype=complex)


@lru_cache(maxsize=None)
def _gate_map(kind: str, axes: tuple[int, ...], width: int) -> tuple:
    """(src, coef) of one gate on array ``axes`` of a ``width``-qubit window."""
    i = np.arange(1 << width)
    bit = 1 << (width - axes[0])
    if kind == "CNOT":
        return i ^ ((i >> (width - axes[0]) & 1) << (width - axes[1])), None
    if kind == "X":
        return i ^ bit, None
    if kind == "H":
        high = (i & bit) != 0
        return (np.stack([i & ~bit, i | bit]),
                np.stack([np.full(i.shape, _S), np.where(high, -_S, _S)]).astype(complex))
    mat = GATE_MATRICES[GateKind(kind)]
    return None, np.where((i & bit) != 0, mat[1, 1], mat[0, 0])


@lru_cache(maxsize=None)
def _alloc_map(k: int, width: int) -> tuple:
    """(src, coef) appending ``k`` fresh qubits, |0> or an EPR pair, to make
    a ``width``-qubit window."""
    i = np.arange(1 << width)
    return i >> k, _FRESH[k][i & ((1 << k) - 1)]


def _gather(amps: np.ndarray, src: np.ndarray, coef: np.ndarray, shape: tuple) -> np.ndarray:
    """A fused step: the pull map (src, coef) on every frontier entry's
    flattened window, as one take, one in-place multiply and, for a map of
    two terms, one add."""
    out = amps.reshape(amps.shape[0], -1).take(src, axis=1)
    out *= coef
    if src.ndim == 2:
        out = out[:, 0] + out[:, 1]
    return out.reshape(shape)


def _bell_rotation(r: int, s: int) -> tuple[tuple[GateKind, tuple[int, ...]], ...]:
    """The Bell measurement convention, as (kind, qubits) gates: CNOT(r, s)
    then H(r) rotate the Bell basis of (r, s) onto the computational one, so
    that a Z measurement reads the outcome z from r and x from s."""
    return (GateKind.CNOT, (r, s)), (GateKind.H, (r,))


def _measure_plan(p: CompiledProgram) -> ExecPlan:
    """Replay a measure-mode program's schedule into an ExecPlan.

    The program's rules are checked first, by the walk that lists its
    outcome variables and their table bits (CompiledProgram.outcome_vars);
    the only check left here is the window cap. The schedule reads the i-th
    BELL's x and z into bits 2i and 2i + 1 (_Schedule._read), so the walk's
    i-th outcome variable gets bit i, and each condition is compiled into a
    test over those bits (_plan_test).

    A ``BELL r s`` is one teleport step (_Schedule.teleport) when s is the
    untouched half of a deferred EPR pair, as the buffer's index shows: the
    item deferred last on s is its EPR (no gate on s since), and it has not
    left the buffer (no flush emitted it, no teleport step dropped it),
    before and after r's light cone is flushed, so its other half t is not
    in the window. The EPR is never allocated: t takes r's window slot and
    holds X^x Z^z of r's state, and the items deferred on t stay deferred,
    since they commute with the measurement of (r, s). Every other BELL is
    its rotation (_bell_rotation) as two gate steps, then a Z measurement of
    (s, r). When r's cone reaches the EPR it holds every item the cone of
    (r, s) does (nothing after the EPR touched s), so flushing r alone first
    leaves the rotation path's plan as it was.
    """
    plan_bit = {b: i for i, b in enumerate(p._walk[1])}
    sched = _Schedule(p.n)
    GATE, EPR, BELL = InstrOp.GATE, InstrOp.EPR, InstrOp.BELL

    def emit(qs: tuple[int, ...], ins: Instruction) -> None:
        if ins.op is EPR:
            sched.epr(*qs)
        else:
            sched.gate(ins.gate.kind, qs)

    for ins in p.instructions:
        op, qs = ins.op, ins.qubits
        if op is GATE or op is EPR:
            sched.defer(qs, ins)
            continue
        if op is not BELL:
            sched.flush(qs, emit)
            sched.cond(_plan_test(ins.cond, plan_bit), _COND_KINDS[op._value_], qs)
            continue
        r, s = qs
        pair = sched.last.get(s)  # its EPR, if nothing has touched s since
        teleports = pair is not None and pair[3] is not None and pair[2].op is EPR
        sched.flush((r,) if teleports else qs, emit)
        vx, vz = ins.out_vars
        if teleports and pair[3] is not None:  # r's cone left the pair deferred
            sched.teleport(r, s, pair, vx.name, vz.name)
        else:
            sched.axes((s, r))  # a fresh s is allocated before a fresh r
            for kind, rotated in _bell_rotation(r, s):
                sched.gate(kind, rotated)
            sched.branch(s, r, vx.name, vz.name)
    sched.flush(p.logical_outputs, emit)
    return sched.plan(p.logical_outputs)


def _plan_test(cond: KeyPoly, plan_bit: dict[int, int]) -> tuple[int, tuple[int, ...], int]:
    """A condition compiled into a test over plan bits: (linear mask, one
    mask per term of degree >= 2, constant), with each table bit b of
    ``cond`` moved to plan bit ``plan_bit[b]``. Every variable of ``cond``
    has a plan bit: the program walk checks that an earlier BELL read it."""

    def local(mask: int) -> int:
        out = 0
        for b in _set_bits(mask):
            out |= 1 << plan_bit[b]
        return out

    return local(cond.linear), tuple(local(m) for m in cond.nonlinear), cond.constant


def _fires_one(test: tuple, ones: int) -> int:
    """Whether the one row of a sampled shot, whose set bits ``ones`` are the
    classical bits that read 1, passes ``test``: the parity of its linear
    bits set there, plus each term whose bits are all set, plus the constant."""
    linear, terms, constant = test
    acc = (ones & linear).bit_count() + constant
    for term in terms:
        acc += ones & term == term
    return acc & 1


def _fires(test: tuple, ones: np.ndarray) -> np.ndarray:
    """_fires_one for every row of an exhaustive frontier at once: ``ones``
    holds one int64 mask per row, and the result is a bool per row."""
    linear, terms, constant = test
    fire = np.bitwise_count(ones & linear) & 1 != constant
    for term in terms:
        fire ^= ones & term == term
    return fire


def _branch(step: tuple, amps: np.ndarray, probs, ones, rng: np.random.Generator | None) -> tuple:
    """One branch point, the Z measurement of a rotated Bell pair
    (_Schedule.branch): the frontier is reordered by the step's permutation,
    s then r leading, and read as (batch, outcome, rest), its layout
    derived from the frontier's own width; returns the children, reshaped
    to one axis per remaining qubit, their branch probabilities and their
    bit masks.

    The outcome marginals are one (batch, 4) table, k = 2x + z. With
    ``rng`` the frontier is one shot of a measure plan, its
    probability a float and its mask an int: its outcome is the first k at
    which the running sum of its row passes one uniform draw, else (the
    draw at or above the rounded sum) the last k above _CUTOFF, and its
    child is row k divided by the square root of its probability. Otherwise
    ``probs`` and ``ones`` are arrays with one entry per row, and every
    outcome above _CUTOFF is kept, parent-major and in outcome order, as the
    rows of the flattened (batch * outcome) axis that one take gathers.
    Either way a child is a new array, never a view of the caller's input.
    """
    _, bits, perm = step
    rest = amps.ndim - 3  # the qubits left once s and r are read
    shape = (-1,) + (2,) * rest
    amps = amps.transpose(perm).reshape(-1, 4, 1 << rest)
    table = np.abs(amps)
    table = np.square(table, out=table).sum(axis=2)
    if rng is not None:
        row = table[0].tolist()
        u = rng.random()
        for k, acc in enumerate(accumulate(row)):
            if u < acc:
                break
        else:
            k = max((j for j, p in enumerate(row) if p > _CUTOFF), default=k)
        prob = row[k]
        if prob <= 0.0:
            raise ValidationError(f"measurement outcome {(k & 1, k >> 1)} has zero probability")
        return (amps[0, k] / math.sqrt(prob)).reshape(shape), probs * prob, ones | bits[k]
    flat = table.reshape(-1)
    kept = np.flatnonzero(flat > _CUTOFF)
    prob = flat[kept]
    children = amps.reshape(flat.size, -1).take(kept, axis=0)
    children /= np.sqrt(prob)[:, None]
    parents, ks = np.divmod(kept, len(bits))
    ones = ones[parents] | np.array(bits, dtype=np.int64)[ks]
    return children.reshape(shape), probs[parents] * prob, ones


def _teleport(step: tuple, amps: np.ndarray, probs: np.ndarray, ones: np.ndarray) -> tuple:
    """One teleport step (_Schedule.teleport) on an exhaustive frontier;
    returns the children, their branch probabilities and their bit masks, as
    _branch does. Every outcome has probability 1/4, so no amplitude is
    read: every row becomes four children, parent-major and in outcome
    order, child k = 2x + z under X^x Z^z on the step's window bit: with
    that slot as axis 2 of a (batch, rest, 2, bit) view, Z is the Z kernel's
    multiply and X reverses the axis, and one stack makes a new array. A
    sampled shot takes the step into its Pauli frame instead (_run)."""
    _, bits, bit = step
    v = amps.reshape(len(amps), -1, 2, bit)
    z = v * _Z_DIAG
    children = np.stack([v, z, v[:, :, ::-1], z[:, :, ::-1]], axis=1)
    ones = ones[:, None] | np.array(bits, dtype=np.int64)
    return children.reshape((-1,) + amps.shape[1:]), np.repeat(probs * 0.25, 4), ones.reshape(-1)


_Z_DIAG = _cached_kernel("Z", (1,), 2)[1][0]  # the Z kernel's diagonal, as every Z step holds it


@lru_cache(maxsize=None)
def _frame_signs(width: int, z: int, sign: int) -> np.ndarray:
    """(-1)^(sign + popcount(j & z)) for every flat index j of a
    ``width``-qubit window: the factor the frame's Z^z and sign put on
    amplitude j. Frames are folded into gathers, and unframed through a
    gather, only on windows of at most _FUSE_WIDTH qubits (_run, _unframe),
    so the cache holds at most 2 * 2^w entries per width w there. The
    factors are complex, as a gather's coef is: numpy multiplies two
    complex arrays faster than a complex one by a float one."""
    odd = np.bitwise_count(np.arange(1 << width) & z) & 1 != sign
    return np.where(odd, -1.0, 1.0).astype(complex)


def _framed(src: np.ndarray, coef: np.ndarray, width: int, x: int, z: int, sign: int) -> tuple:
    """The pull map (src, coef) on a ``width``-qubit window taken after the
    frame (-1)^sign X^x Z^z: y[i] = coef[i] * s[src[i] ^ x] * a[src[i] ^ x],
    s being _frame_signs. Every factor it adds is +1 or -1."""
    if x:
        src = src ^ x
    if z or sign:
        coef = coef * _frame_signs(width, z, sign)[src]
    return src, coef


def _unframe(amps: np.ndarray, x: int, z: int, sign: int) -> np.ndarray:
    """A sampled shot's amplitudes with its frame (-1)^sign X^x Z^z applied:
    one gather on a window of at most _FUSE_WIDTH qubits, else the oracle's
    Z kernel on each bit of z, then its X kernel on each bit of x (``post``
    the bit itself), then the sign."""
    width = amps.ndim - 1
    if width <= _FUSE_WIDTH:
        return _gather(amps, *_framed(*_identity_map(width), width, x, z, sign), amps.shape)
    for b in _set_bits(z):
        amps = _phase(amps, _Z_DIAG, 1 << b)
    for b in _set_bits(x):
        amps = _flip(amps, 1 << b)
    return -amps if sign else amps


def _run(plan: ExecPlan, input_state: StateVector, rng: np.random.Generator | None) -> list[Branch]:
    """Run ``plan`` over a frontier that starts as the input state alone and
    return one Branch per leaf, in depth-first order.

    ``ones`` holds the mask of plan bits that read 1 (_Schedule._read): one
    int64 per row of an exhaustive frontier, a Python int for a sampled
    shot. A conditioned step tests every row at once (_fires, or _fires_one
    for a shot) and applies its kernel to the rows that pass, in one call
    when all or none of them do. A Bell measurement is a branch point (_branch) or a
    teleport step (_teleport); each takes one uniform draw in a sampled
    shot. A leaf keeps its mask; its outcome dict is built when read.

    A sampled shot also keeps its pending Pauli frame (-1)^sign X^x Z^z
    (see the execution section): a teleport step with outcome k = 2x' + z'
    on window bit b puts X^x' Z^z' on b after the frame, a fired X or Z puts
    its Pauli there, the next gather pulls through the frame (_framed), and
    any other step that needs the amplitudes, and the extraction, first
    apply it (_unframe).
    """
    if input_state.n != plan.n:
        raise ValidationError("input state size does not match program wires")
    amps = input_state.amps.reshape((1,) + (2,) * plan.n)
    if rng is None:
        probs, ones = np.ones(1), np.zeros(1, dtype=np.int64)
    else:
        probs, ones = 1.0, 0
    x = z = sign = 0  # a sampled shot's frame; an exhaustive run keeps it at 0
    for step in plan.steps:
        op = step[0]
        if op is _APPLY:
            kernel, args = step[1], step[2]
            if x | z | sign:
                # Frame signs are cached for narrow windows only, so the
                # gather of a wide allocation gets the frame applied first.
                if kernel is _gather and amps.ndim - 1 <= _FUSE_WIDTH:
                    src, coef, shape = args
                    args = (*_framed(src, coef, amps.ndim - 1, x, z, sign), shape)
                else:
                    amps = _unframe(amps, x, z, sign)
                x = z = sign = 0
            amps = kernel(amps, *args)
        elif op is _COND:
            _, test, kernel, args = step
            if rng is not None:
                if _fires_one(test, ones):
                    if kernel is _flip:
                        x ^= args[0]
                        continue
                    if kernel is _phase:  # a diagonal gate commutes with Z
                        bit = args[1]
                        if args[0] is _Z_DIAG:
                            sign ^= (x & bit) != 0  # Z X = -X Z
                            z ^= bit
                            continue
                        pending = x & bit
                    else:
                        pending = x | z | sign
                    if pending:
                        amps = _unframe(amps, x, z, sign)
                        x = z = sign = 0
                    amps = kernel(amps, *args)
                continue
            fire = _fires(test, ones)
            count = np.count_nonzero(fire)
            if count == len(fire):
                amps = kernel(amps, *args)
            elif count:
                # A partial selection needs two entries or more, and a frontier
                # that wide comes from the take of _branch or _teleport, so the
                # runner owns amps and may write into it (a kernel such as X
                # may return a view).
                amps[fire] = kernel(amps[fire], *args)
        elif op is _TELEPORT and rng is not None:
            k = int(rng.random() * 4)  # the first k with u < (k + 1) / 4: 4u is exact
            probs *= 0.25
            ones |= step[1][k]
            bit = step[2]
            if k & 1:
                sign ^= (x & bit) != 0
                z ^= bit
            if k & 2:
                x ^= bit
        elif op is _TELEPORT:
            amps, probs, ones = _teleport(step, amps, probs, ones)
        else:
            if x | z | sign:
                amps = _unframe(amps, x, z, sign)
                x = z = sign = 0
            amps, probs, ones = _branch(step, amps, probs, ones, rng)
    if x | z | sign:
        amps = _unframe(amps, x, z, sign)
    if rng is not None:
        probs, ones = [probs], [ones]
    else:
        probs, ones = probs.tolist(), ones.tolist()
    if not ones:
        return []
    states = _extract(amps, list(plan.outputs))
    del amps  # the branches keep only the rows
    n, names = plan.n, plan.names
    return [Branch(prob, StateVector(n, vec), m, names)
            for m, prob, vec in zip(ones, probs, states)]


def execute(p: CompiledProgram, input_state: StateVector,
            rng: np.random.Generator) -> tuple[StateVector, dict[str, int]]:
    """Run a compiled program, sampling Bell outcomes; returns the reduced
    state on the logical output wires and the outcome of every variable."""
    (leaf,) = _run(p.plan, input_state, rng)
    return leaf.state, leaf.outcomes


# Exhaustive enumeration keeps every branch live at once, so both enumerations
# refuse programs whose measurements carry more classical bits than this.
MAX_OUTCOME_BITS = 12
_CUTOFF = 1e-12  # exhaustive runs keep the outcomes of probability above this


def _check_branch_bits(bells: int, max_outcome_bits: int) -> None:
    if 2 * bells > max_outcome_bits:
        raise ValidationError(
            f"branch explosion: {bells} Bell measurements exceed {max_outcome_bits} outcome bits")


def enumerate_branches(p: CompiledProgram, input_state: StateVector,
                       max_outcome_bits: int = MAX_OUTCOME_BITS) -> list[Branch]:
    """Exhaustively expand every Bell outcome of positive probability.

    Branch probabilities partition 1. Refuses programs whose measurements
    carry more than max_outcome_bits classical bits (2 per Bell measurement).
    Every branch is live at once, so memory grows with the branch count, and
    max_outcome_bits may lower the MAX_OUTCOME_BITS cap but not raise it.
    """
    if max_outcome_bits > MAX_OUTCOME_BITS:
        raise ValidationError(
            f"max_outcome_bits {max_outcome_bits} exceeds the {MAX_OUTCOME_BITS}-bit cap")
    _check_branch_bits(len(p.outcome_vars) // 2, max_outcome_bits)
    return _run(p.plan, input_state, None)


# -- unitary conversion ------------------------------------------------------

@dataclass(frozen=True)
class BellGroup:
    """Bookkeeping for one converted Bell measurement: the flat-gate index
    just past its rotation, where _unitary_plan reads the pair (r, s), and
    the pair and the two ancillas that copy its z and x bits."""

    gate_end: int
    r: int
    s: int
    anc_z: int
    anc_x: int


@dataclass(frozen=True)
class UnitaryProgram:
    circuit: LayeredCircuit
    logical_outputs: tuple[int, ...]
    var_qubits: dict[str, int]
    bell_groups: tuple[BellGroup, ...]

    @property
    def n(self) -> int:
        return len(self.logical_outputs)

    @property
    def total_qubits(self) -> int:
        return self.circuit.n


def _cs_dag(out: _StageBuilder, a: int, q: int) -> None:
    """Controlled-P-dagger, diag(1,1,1,-i) on (control a, target q):
    P-dagger and T on a, P-dagger and T on q, then CNOT(a, q), T on q and
    CNOT(a, q) again."""
    cx = _record(Gate, (GateKind.CNOT, (a, q)))
    out.clifford((_record(Gate, (GateKind.PDG, (a,))),))
    out.t(a)
    out.clifford((_record(Gate, (GateKind.PDG, (q,))),))
    out.t(q)
    out.clifford((cx,))
    out.t(q)
    out.clifford((cx,))


def _cz(out: _StageBuilder, a: int, q: int) -> None:
    hq = _record(Gate, (GateKind.H, (q,)))
    out.clifford((hq, _record(Gate, (GateKind.CNOT, (a, q))), hq))


def _cx(out: _StageBuilder, a: int, q: int) -> None:
    out.clifford((_record(Gate, (GateKind.CNOT, (a, q))),))


_CONTROLLED = {InstrOp.COND_X._value_: _cx, InstrOp.COND_Z._value_: _cz,
               InstrOp.COND_PDG._value_: _cs_dag}


def to_unitary(p: CompiledProgram) -> UnitaryProgram:
    """Deferred-measurement transform of a measure-mode program.

    Each Bell measurement becomes its basis rotation (_bell_rotation)
    followed by coherent copies of its z (from r) and x (from s) onto fresh
    ancillas: the Z measurement that would read them is deferred, and the
    measured qubits are left in the rotated basis and never touched again.

    Each conditioned correction, which must be linear, becomes one
    controlled gate (_CONTROLLED). An X or Z conditioned on one outcome
    alone is controlled straight from its ancilla. Any other condition is
    first brought onto a parity qubit; so is every P-dagger's, because its
    controlled form puts P-dagger and T on the control, and the ancillas
    stay read-only (_unitary_plan). Each parity qubit holds a known XOR
    of ancillas plus a constant. The condition takes the one whose value
    differs from it in the fewest terms, the constant counting as one and
    ties going to the earliest, if that one is strictly nearer than a fresh
    qubit, which holds 0; otherwise it takes a fresh one, so the pool keeps
    more values to reuse. One CNOT per differing ancilla, in name order, and
    an X if the constants differ set it to the condition. Parity qubits are
    never uncomputed: like the ancillas, each holds a classical function of
    the outcomes and is discarded. Discarding both, the circuit acts on the
    logical wires exactly as the measured program does on every branch.

    The program's rules are checked first, by the same walk the plan reads
    (CompiledProgram.outcome_vars), so every variable is read once and every
    condition is bound before the conversion starts; a program that breaks
    a rule raises the plan's ValidationError. The conversion's own refusal
    is a condition of degree > 1.

    The circuit is laid out into stages as its gates are emitted, by the
    greedy rule layerize uses (circuits._StageBuilder), with no flat gate
    list. Every gate emitted is a program gate the walk has checked, or is
    built on program qubits, ancillas or parity qubits, all in range; the
    LayeredCircuit constructor is the one check of the result. A
    BellGroup's gate_end counts the gates emitted up to and including its
    rotation, the index in flatten's order just past it.
    """
    p.outcome_vars  # raises on a program that breaks a rule
    out = _StageBuilder()
    clifford, t_gate = out.clifford, out.t
    var_qubits: dict[str, int] = {}
    groups: list[BellGroup] = []
    next_q = p.total_qubits
    pool: dict[int, tuple[int, int]] = {}  # parity qubit -> (variable mask, constant)
    GATE, EPR, BELL, COND_PDG = InstrOp.GATE, InstrOp.EPR, InstrOp.BELL, InstrOp.COND_PDG
    H, X, T, CNOT = GateKind.H, GateKind.X, GateKind.T, GateKind.CNOT
    for op, qubits, gate, out_vars, cond in p.instructions:
        if op is GATE:
            if gate[0] is T:
                t_gate(qubits[0])
            else:
                clifford((gate,))
        elif op is EPR:
            clifford((_record(Gate, (H, qubits[:1])), _record(Gate, (CNOT, qubits))))
        elif op is BELL:
            r, s = qubits
            vx, vz = out_vars
            anc_z, anc_x = next_q, next_q + 1
            next_q += 2
            var_qubits[vz.name] = anc_z
            var_qubits[vx.name] = anc_x
            clifford([_record(Gate, g) for g in _bell_rotation(r, s)])
            groups.append(BellGroup(out.gate_count, r, s, anc_z, anc_x))
            clifford((_record(Gate, (CNOT, (r, anc_z))), _record(Gate, (CNOT, (s, anc_x)))))
        else:
            if cond.degree > 1:
                raise ValidationError("condition degree > 1 cannot be converted to controlled gates")
            mask, const = cond.linear, cond.constant
            controlled = _CONTROLLED[op._value_]
            if mask.bit_count() == 1 and not const and op is not COND_PDG:
                (name,) = _names(mask)
                controlled(out, var_qubits[name], qubits[0])
                continue
            a, distance = None, mask.bit_count() + const  # a fresh qubit holds 0
            for q, (m, c) in pool.items():
                d = (m ^ mask).bit_count() + (c ^ const)
                if d < distance:
                    a, distance = q, d
            if a is None:
                a, next_q = next_q, next_q + 1
                pool[a] = 0, 0
            m, c = pool[a]
            moves = [_record(Gate, (CNOT, (var_qubits[name], a)))
                     for name in sorted(_names(m ^ mask))]
            if c != const:
                moves.append(_record(Gate, (X, (a,))))
            if moves:
                clifford(moves)
            pool[a] = mask, const
            controlled(out, a, qubits[0])

    return UnitaryProgram(out.circuit(next_q), p.logical_outputs, var_qubits, tuple(groups))


def serialize_circuit_of_unitary(up: UnitaryProgram) -> str:
    """Circuit-file text of a converted program; output wires go in comments."""
    text = serialize_circuit(up.circuit)
    lines = [f"# OUT {j} {q}" for j, q in enumerate(up.logical_outputs)]
    return text + "\n".join(lines) + ("\n" if lines else "")


def _scale(amps: np.ndarray, phase: complex) -> np.ndarray:
    """A per-branch phase: the selected frontier entries times ``phase``."""
    return amps * phase


def _unitary_plan(up: UnitaryProgram) -> ExecPlan:
    """Replay a converted linear program's schedule into an ExecPlan.

    Right after each Bell group's rotation its pair is read as a measure
    plan reads a BELL (_Schedule.branch), its bits named after the ancillas
    that copy them, if var_qubits names them. From there on r and s are only
    controls of CNOTs, so reading them there commutes with the rest of the
    circuit. A measured qubit is read-only: any gate on it but a CNOT from
    it raises.

    ``classical`` holds the parity of every classical qubit, measured or
    parity, as (mask of classical bits, constant). A parity qubit is one
    that has never been a window axis, is neither an output nor a measured
    qubit of a Bell group, and is first written by a CNOT from a classical
    qubit, as each ancilla is by its copy from r or s. It never enters the
    window; its gates are resolved here, once. A CNOT from a classical
    qubit onto it XORs the control's parity into its own, and an X flips
    its constant, so neither adds a step. P, P-dagger, T or Z on it
    is a phase on the branches where it holds 1, and a CNOT from a classical
    qubit onto a window qubit an X on the branches where the control holds
    1: one conditioned step each, whose test is the parity's (mask, (),
    constant). Like a measure plan's corrections, these steps wait behind a
    pending fused map for its gather (_Schedule._hold), so they do not split
    a fused run of gates on other qubits. A phase right after another on the
    same parity, as a controlled P-dagger's P-dagger then T, folds into one
    step (_Schedule.phase). H on a parity qubit, or a CNOT from a window
    qubit onto one, raises. Gates left deferred at the end are outside the
    outputs' light cone and cannot affect them.
    """
    gates = flatten(up.circuit)
    var_of_qubit = {q: v for v, q in up.var_qubits.items()}
    sched = _Schedule(up.n)
    measured: set[int] = set()  # the Bell pairs read so far
    classical: dict[int, tuple[int, int]] = {}  # classical qubit -> (mask, constant)
    quantum = set(up.logical_outputs).union(  # qubits that are never parity qubits
        *((grp.r, grp.s) for grp in up.bell_groups))

    def emit(qs: tuple[int, ...], g: Gate) -> None:
        kind = g.kind
        if classical.keys().isdisjoint(qs):
            sched.gate(kind, qs)
        elif kind is not GateKind.CNOT:
            (q,) = qs
            if q in measured or kind is GateKind.H:
                role = "measured" if q in measured else "parity"
                raise ValidationError(f"{kind.value} on a {role} qubit")
            mask, constant = classical[q]
            if kind is GateKind.X:
                classical[q] = mask, constant ^ 1
            else:
                sched.phase((mask, (), constant), complex(GATE_MATRICES[kind][1, 1]))
        else:
            a, b = qs
            control = classical.get(a)
            if b in measured:
                source = "quantum" if control is None else "measured" if a in measured else "parity"
                raise ValidationError(f"CNOT from a {source} qubit onto a measured qubit")
            if control is None:
                raise ValidationError("CNOT from a quantum qubit onto a parity qubit")
            held = classical.get(b)
            if held is None and (b in quantum or b in sched.window):
                sched.cond((control[0], (), control[1]), GateKind.X, (b,))
            else:
                mask, constant = held or (0, 0)
                classical[b] = mask ^ control[0], constant ^ control[1]

    start = 0
    for grp in up.bell_groups:
        for g in gates[start:grp.gate_end]:
            sched.defer(g.targets, g)
        start = grp.gate_end
        r, s = grp.r, grp.s
        sched.flush((r, s), emit)
        _, z, x, _ = sched.branch(s, r, var_of_qubit.get(grp.anc_x), var_of_qubit.get(grp.anc_z))
        classical[r], classical[s] = (z, 0), (x, 0)
        measured.update((r, s))
    for g in gates[start:]:
        sched.defer(g.targets, g)
    sched.flush(up.logical_outputs, emit)
    return sched.plan(up.logical_outputs)


def enumerate_unitary_branches(up: UnitaryProgram, input_state: StateVector) -> list[Branch]:
    """Branch enumeration for a converted circuit: every outcome of its
    Bell groups (see _unitary_plan) of positive probability, through the
    same runner as measure-mode programs, so to_unitary(p) gives the
    branches of enumerate_branches(p) in the same order. Refuses,
    before any amplitude work, circuits whose Bell groups carry more than
    MAX_OUTCOME_BITS classical bits (2 per group)."""
    _check_branch_bits(len(up.bell_groups), MAX_OUTCOME_BITS)
    return _run(_unitary_plan(up), input_state, None)


# -- speculative grouped execution for classical circuits --------------------

@dataclass(frozen=True)
class SpeculativeProgram:
    """The classical input, the circuit and the group size r; its groups (one
    critical-path step each) and its program are derived on first use."""

    input_bits: tuple[int, ...]
    circuit: LayeredCircuit
    r: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValidationError("group size r must be at least 1")
        if len(self.input_bits) != self.n or any(b not in (0, 1) for b in self.input_bits):
            raise ValidationError(f"input must be a {self.n}-bit classical string")

    @property
    def n(self) -> int:
        return self.circuit.n

    @property
    def stage_count(self) -> int:
        return len(self.circuit.stages)

    @cached_property
    def groups(self) -> tuple[tuple[Stage, ...], ...]:
        return tuple(self.circuit.stages[g0:g0 + self.r] for g0 in range(0, self.stage_count, self.r))

    @cached_property
    def program(self) -> CompiledProgram:
        """The groups linked by teleportation (_linked), with the outcomes
        of link m on wire j named L<m>q<j>x / z."""
        return _linked(self.n, self.groups, lambda m, j: f"L{m}q{j}")


def compile_speculative(c: LayeredCircuit, r: int, input_bits: str | tuple[int, ...]) -> SpeculativeProgram:
    """Group stages r at a time.

    Requires a circuit whose stages map the realized basis input to basis
    outputs (up to phase); the oracle verifies this stage by stage. Such a
    stage maps every basis state to a basis state, so the linked program may
    run it on any teleported input.
    """
    bits = tuple(int(b) if str(b) in ("0", "1") else None for b in input_bits)  # None is refused
    sp = SpeculativeProgram(bits, c, r)
    state = init_state(c.n, "".join(map(str, sp.input_bits)))
    for i, st in enumerate(c.stages):
        for g in (*st.clifford, *map(t, sorted(st.t_layer))):
            state = apply_gate(state, g)
        basis_bits(state, f"stage {i + 1}")
    return sp


def execute_speculative(sp: SpeculativeProgram,
                        rng: np.random.Generator) -> tuple[str, dict[str, int]]:
    """Run the linked program on the classical input with execute and read
    the output bits. Each group runs once on its teleported input; its
    pending P-dagger corrections are phases on basis states, and the final
    conditioned X undoes the link frame. Returns the output bits and the
    link outcomes. Each link is a teleport step, in a window of the n wires:
    its outcome is uniform, and one draw u picks the first k = 2x + z with
    u < (k + 1) / 4."""
    out, outcomes = execute(sp.program, init_state(sp.n, "".join(map(str, sp.input_bits))), rng)
    return "".join(map(str, basis_bits(out, "speculative output"))), outcomes
