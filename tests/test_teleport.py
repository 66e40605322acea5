"""Teleport steps against the rotation path they replace.

A Bell measurement against the fresh half of an EPR pair is planned as one
teleport step: each outcome has probability 1/4 and leaves X^x Z^z of the
carrier on the pair's other half. rotation_twin inserts an X pair on s
before every BELL, which is the identity but keeps every BELL on the
rotation path (a rotation, then a two-qubit Z measurement of the
amplitudes). So a program and its twin must give the same branches in the
same order, and fixed-seed shots must draw the same outcomes and leave the
same RNG state.

A gadget or protocol program ends with qubits outside its outputs (a
gadget's unused halves), and extraction takes a column of the rest. Two
such columns can tie; the lowest-index one is taken, never the one that
rounding makes larger, so these states compare as a compiled program's do,
to 1e-12 with no global phase.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import layered_circuits, random_circuit, random_state, rotation_twin
from tlink.circuits import Gate, GateKind, ValidationError
from tlink.compiler import (
    _BRANCH,
    _COND_KINDS,
    _TELEPORT,
    _Z_DIAG,
    MAX_OUTCOME_BITS,
    CompiledProgram,
    ExecPlan,
    Instruction,
    InstrOp,
    _bell_rotation,
    _measure_plan,
    _plan_test,
    _Schedule,
    _teleport,
    _unitary_plan,
    compile_measure,
    enumerate_branches,
    execute,
    to_unitary,
)
from tlink.frames import KeyPoly
from tlink.gardenhose import ResourcePlan, gadget_program, protocol_program
from tlink.oracle import MAX_QUBITS, _flip, _phase

TOL = 1e-12


@st.composite
def programs(draw):
    """A compiled random circuit, a garden-hose gadget or a protocol program."""
    kind = draw(st.sampled_from(["measure", "gadget", "protocol"]), label="kind")
    if kind == "gadget":
        p, q = draw(st.integers(0, 1), label="p"), draw(st.integers(0, 1), label="q")
        return gadget_program(p, q)
    if kind == "measure":
        return compile_measure(draw(layered_circuits(max_n=3, max_k=4), label="circuit"))
    c = draw(layered_circuits(max_n=3, max_k=1), label="circuit")
    wires = st.lists(st.integers(0, c.n - 1), unique=True)
    plan = ResourcePlan(frozenset(draw(wires, label="alice")), tuple(draw(wires, label="ret")))
    return protocol_program(c, plan)[0]


def assert_same_state(got, want) -> None:
    assert np.abs(got.amps - want.amps).max() < TOL


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(p=programs(), seed=st.integers(0, 2 ** 32 - 1))
def test_teleport_steps_match_the_rotation_twin(p, seed):
    twin = rotation_twin(p)
    steps = [step[0] for step in p.plan.steps]
    assert not any(step[0] is _TELEPORT for step in twin.plan.steps)
    assert steps.count(_TELEPORT) + steps.count(_BRANCH) == len(p.outcome_vars) // 2
    assert p.plan.names == twin.plan.names
    psi = random_state(np.random.default_rng(seed), p.n)
    if len(p.outcome_vars) <= MAX_OUTCOME_BITS:
        got, want = enumerate_branches(p, psi), enumerate_branches(twin, psi)
        assert len(got) == len(want)
        for b, w in zip(got, want):
            assert b.outcomes == w.outcomes and list(b.outcomes) == list(w.outcomes)
            assert abs(b.probability - w.probability) < TOL
            assert_same_state(b.state, w.state)
    for shot in range(3):
        mine, theirs = np.random.default_rng(seed + shot), np.random.default_rng(seed + shot)
        (out, outcomes), (want_out, want_outcomes) = execute(p, psi, mine), execute(twin, psi, theirs)
        assert outcomes == want_outcomes and list(outcomes) == list(want_outcomes)
        assert_same_state(out, want_out)
        assert mine.bit_generator.state == theirs.bit_generator.state


def test_every_compiled_link_and_gadget_bell_teleports():
    # The property above must compare teleport steps, not two rotation paths.
    for p in [gadget_program(p, q) for p in (0, 1) for q in (0, 1)]:
        assert [step[0] for step in p.plan.steps].count(_TELEPORT) == 3


def ints(value) -> bool:
    """Whether ``value`` is an int or a tuple of them, nested to any depth."""
    return type(value) is int or type(value) is tuple and all(map(ints, value))


def test_read_steps_hold_only_ints():
    # A read step keeps what a run cannot derive: its classical bits and a
    # permutation of axes or one window bit, never an array built when the
    # plan is. Compiled programs up to the window cap, their rotation twins
    # (whose windows are two qubits wider), the gadgets, protocol programs
    # and converted programs' unitary plans.
    rng = np.random.default_rng(29)
    compiled = [compile_measure(random_circuit(rng, n, 3, max_clifford=3 * n))
                for n in range(1, MAX_QUBITS + 1)]
    twins = [rotation_twin(p) for p in compiled if p.n + 2 <= MAX_QUBITS]
    gadgets = [gadget_program(p, q) for p in (0, 1) for q in (0, 1)]
    protocols = []
    for n in (1, 2, 3):
        c = random_circuit(rng, n, 1, max_clifford=2 * n)
        alice = frozenset(q for q in range(n) if rng.random() < 0.5)
        protocols.append(protocol_program(c, ResourcePlan(alice, ()))[0])
    plans = [p.plan for p in compiled + twins + gadgets + protocols]
    plans += [_unitary_plan(to_unitary(p)) for p in compiled[:4]]
    kinds = set()
    for plan in plans:
        for step in plan.steps:
            if step[0] in (_TELEPORT, _BRANCH):
                kinds.add(step[0])
                assert ints(step), step  # no ndarray, no kernel
    assert kinds == {_TELEPORT, _BRANCH}
    assert max(plan.peak_width for plan in plans) == MAX_QUBITS


# The planner before it read teleport links off the buffer's index: a table
# of the EPR halves nothing has touched since their EPR, kept up to date at
# every GATE, EPR, emit and teleport step. _measure_plan must build the same
# plan from the buffer's own records.
def table_planner(p: CompiledProgram) -> ExecPlan:
    plan_bit = {b: i for i, b in enumerate(p._walk[1])}
    sched = _Schedule(p.n)
    fresh: dict[int, list] = {}
    GATE, EPR, BELL = InstrOp.GATE, InstrOp.EPR, InstrOp.BELL

    def emit(qs, ins):
        if ins.op is EPR:
            fresh.pop(qs[0], None)
            fresh.pop(qs[1], None)
            sched.epr(*qs)
        else:
            sched.gate(ins.gate.kind, qs)

    for ins in p.instructions:
        op, qs = ins.op, ins.qubits
        if op is GATE:
            sched.defer(qs, ins)
            for q in qs:
                fresh.pop(q, None)
            continue
        if op is EPR:
            fresh[qs[0]] = fresh[qs[1]] = sched.defer(qs, ins)
            continue
        if op is not BELL:
            sched.flush(qs, emit)
            sched.cond(_plan_test(ins.cond, plan_bit), _COND_KINDS[op._value_], qs)
            continue
        r, s = qs
        pair = fresh.get(s)
        sched.flush((r,) if pair is not None else qs, emit)
        vx, vz = ins.out_vars
        if pair is not None and fresh.get(s) is pair:
            for q in pair[1]:
                fresh.pop(q, None)
            sched.teleport(r, s, pair, vx.name, vz.name)
        else:
            sched.axes((s, r))
            for kind, rotated in _bell_rotation(r, s):
                sched.gate(kind, rotated)
            sched.branch(s, r, vx.name, vz.name)
    sched.flush(p.logical_outputs, emit)
    return sched.plan(p.logical_outputs)


def plain(value):
    """A plan value in comparable form: kernels by name, arrays by dtype,
    shape and bytes, tuples element by element."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple(map(plain, value))
    if callable(value):
        return value.__name__
    return value


def plan_or_error(build, p):
    try:
        plan = build(p)
    except ValidationError as exc:
        return str(exc)
    return plain(plan.steps), plan.n, plan.peak_width, plan.names


def gate(kind: GateKind, *qubits: int) -> Instruction:
    g = Gate(kind, qubits)
    return Instruction(InstrOp.GATE, g.targets, g)


def cond(op: InstrOp, q: int, constant: int) -> Instruction:
    return Instruction(op, (q,), cond=KeyPoly(constant=constant))


@st.composite
def mutated(draw, p: CompiledProgram) -> CompiledProgram:
    """``p`` with the cases the teleport test reads off the buffer: a gate on
    an EPR half after its EPR, and before a BELL on s, a gate on s or on
    its partner t, a pair emitted by a third qubit's cone (CNOT t q, then a
    correction on q) or a correction on t. Up to four extra EPR pairs, each
    pulled into an input wire's cone by a CNOT, widen the window past
    _FUSE_WIDTH; past the window cap both planners raise."""
    extra, kinds = [], st.sampled_from([GateKind.H, GateKind.X, GateKind.T, GateKind.Z])
    top = p.total_qubits
    for _ in range(draw(st.integers(0, 4), label="pairs") if p.n else 0):
        extra += [Instruction(InstrOp.EPR, (top, top + 1)),
                  gate(GateKind.CNOT, draw(st.integers(0, p.n - 1)), top)]
        top += 2
    partner, live, out = {}, set(range(p.n)), list(extra)
    for ins in p.instructions:
        if ins.op is InstrOp.BELL:
            r, s = ins.qubits
            t = partner.get(s)
            third = sorted(live - {r, s, t})
            choice = draw(st.sampled_from(["none", "gate s", "gate t", "third", "cond t"]))
            if choice == "gate s":
                out.append(gate(draw(kinds), s))
            elif t is not None and choice == "gate t":
                out.append(gate(draw(kinds), t))
            elif t is not None and choice == "third" and third:
                q = draw(st.sampled_from(third))
                out += [gate(GateKind.CNOT, t, q), cond(InstrOp.COND_Z, q, draw(st.integers(0, 1)))]
            elif t is not None and choice == "cond t":
                op = draw(st.sampled_from([InstrOp.COND_X, InstrOp.COND_Z, InstrOp.COND_PDG]))
                out.append(cond(op, t, draw(st.integers(0, 1))))
            live -= {r, s}
        out.append(ins)
        if ins.op is InstrOp.EPR:
            a, b = ins.qubits
            partner[a], partner[b] = b, a
            live.update(ins.qubits)
            if draw(st.booleans()):
                out.append(gate(draw(kinds), draw(st.sampled_from(ins.qubits))))
    return CompiledProgram(top, p.logical_outputs, tuple(out))


@st.composite
def planner_inputs(draw):
    kind = draw(st.sampled_from(["measure", "gadget", "protocol"]), label="kind")
    if kind == "gadget":
        p = gadget_program(draw(st.integers(0, 1), label="p"), draw(st.integers(0, 1), label="q"))
    elif kind == "measure":
        p = compile_measure(draw(layered_circuits(max_n=6, max_k=5), label="circuit"))
    else:
        c = draw(layered_circuits(max_n=3, max_k=1), label="circuit")
        wires = st.lists(st.integers(0, c.n - 1), unique=True)
        p = protocol_program(c, ResourcePlan(frozenset(draw(wires, label="alice")),
                                             tuple(draw(wires, label="ret"))))[0]
    return draw(mutated(p)) if draw(st.booleans(), label="mutate") else p


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(p=planner_inputs())
def test_plans_equal_the_fresh_table_planner(p):
    assert plan_or_error(_measure_plan, p) == plan_or_error(table_planner, p)


def pauli_children(amps: np.ndarray, bit: int) -> np.ndarray:
    """The four children of each row the runner made before the teleported
    slot was an axis: the oracle's Z kernel, then its X kernel, on ``bit``."""
    z = _phase(amps, _Z_DIAG, bit)
    children = np.stack([amps, z, _flip(amps, bit), _flip(z, bit)], axis=1)
    return children.reshape((-1,) + amps.shape[1:])


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(width=st.integers(1, 12), rows=st.integers(1, 16), seed=st.integers(0, 2 ** 32 - 1))
def test_teleport_children_equal_the_pauli_kernels(width, rows, seed):
    rng = np.random.default_rng(seed)
    shape = (rows,) + (2,) * width
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    probs, ones = rng.random(rows), rng.integers(0, 1 << 8, rows) << 8
    bits = (0, 1 << 1, 1 << 0, 3)
    for slot in range(width):
        bit = 1 << slot
        children, child_probs, child_ones = _teleport((_TELEPORT, bits, bit), amps, probs, ones)
        assert np.array_equal(children, pauli_children(amps, bit))
        assert not np.shares_memory(children, amps)
        assert np.array_equal(child_probs, np.repeat(probs * 0.25, 4))
        assert np.array_equal(child_ones, (ones[:, None] | np.array(bits)).reshape(-1))
