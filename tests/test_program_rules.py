"""A compiled program's rules are checked by one walk
(CompiledProgram.outcome_vars), which the execution plan, to_unitary and
enumerate_branches all read first. Hand-built programs that break a rule
raise ValidationError from every entry point, with one message; and on
mutated programs the plan and the unitary conversion agree."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import layered_circuits
from tlink.circuits import Gate, GateKind, ValidationError, h, parse_circuit, x
from tlink.compiler import (
    CompiledProgram,
    Instruction,
    InstrOp,
    compile_measure,
    enumerate_branches,
    execute,
    report,
    serialize_program,
    to_unitary,
)
from tlink.frames import KeyPoly, OutcomeVar
from tlink.gardenhose import gadget_program
from tlink.oracle import init_state

PA, PB = OutcomeVar("pa"), OutcomeVar("pb")
EPR_12 = Instruction(InstrOp.EPR, (1, 2))
BELL_01 = Instruction(InstrOp.BELL, (0, 1), out_vars=(PA, PB))
FIX_2 = [Instruction(InstrOp.COND_X, (2,), cond=KeyPoly.of(PA)),
         Instruction(InstrOp.COND_Z, (2,), cond=KeyPoly.of(PB))]


def teleport(*extra: Instruction) -> list[Instruction]:
    """Qubit 0 teleported onto qubit 2 of three, with ``extra`` between
    the pair and the Bell measurement."""
    return [EPR_12, *extra, BELL_01, *FIX_2]


# (total qubits, outputs, instructions, the message every entry point raises)
FAULTY = {
    "gate-qubits-not-targets": (2, (0,), [Instruction(InstrOp.GATE, (0,), x(1))],
                                "GATE qubits (0,) differ from its gate's targets (1,)"),
    "gate-arity": (2, (0,), [Instruction(InstrOp.GATE, (0, 1), Gate(GateKind.H, (0, 1)))],
                   "H takes 1 target(s), got 2"),
    "gate-missing": (1, (0,), [Instruction(InstrOp.GATE, (0,))], "GATE instruction has no gate"),
    "epr-arity": (4, (0,), [Instruction(InstrOp.EPR, (1, 2, 3))], "EPR takes 2 qubit(s), got 3"),
    # qubit 3 of 3 would share a wire with to_unitary's first outcome ancilla
    "qubit-above-range": (3, (2,), teleport(Instruction(InstrOp.GATE, (3,), h(3))),
                          "qubit index 3 out of range for 3 qubits"),
    "qubit-below-range": (3, (2,), teleport(Instruction(InstrOp.GATE, (-1,), x(-1))),
                          "qubit index -1 out of range for 3 qubits"),
    "output-repeated": (2, (1, 1), [], "qubit 1 is already an output"),
    "output-above-range": (1, (1,), [], "qubit index 1 out of range for 1 qubits"),
    "cond-missing": (3, (2,), [EPR_12, BELL_01, Instruction(InstrOp.COND_X, (2,))],
                     "X instruction has no condition"),
    "bell-vars-missing": (3, (2,), [EPR_12, Instruction(InstrOp.BELL, (0, 1))],
                          "BELL instruction needs two outcome variables"),
    "epr-on-live": (3, (2,), [Instruction(InstrOp.GATE, (1,), h(1)), *teleport()],
                    "EPR qubit 1 is already in use"),
    "gate-after-bell": (3, (2,), [EPR_12, BELL_01, Instruction(InstrOp.GATE, (1,), h(1)), *FIX_2],
                        "qubit 1 was already measured and cannot be reused"),
}


def run_execute(p):
    return execute(p, init_state(p.n, "1" * p.n), np.random.default_rng(0))


def run_branches(p):
    return enumerate_branches(p, init_state(p.n, "1" * p.n))


@pytest.mark.parametrize("run", [run_execute, run_branches, to_unitary],
                         ids=["execute", "enumerate_branches", "to_unitary"])
@pytest.mark.parametrize("total,outputs,instrs,message", FAULTY.values(), ids=FAULTY.keys())
def test_faulty_program_is_refused_by_every_entry_point(total, outputs, instrs, message, run):
    with pytest.raises(ValidationError) as info:
        run(CompiledProgram(total, outputs, tuple(instrs)))
    assert str(info.value) == message


@pytest.mark.parametrize("read", [lambda p: p.declared_depth,
                                  lambda p: report(parse_circuit("QUBITS 1\nT 0\n---\n"), p),
                                  serialize_program],
                         ids=["declared_depth", "report", "serialize_program"])
@pytest.mark.parametrize("case", ["bell-vars-missing", "cond-missing"])
def test_unchecked_readers_raise_the_walks_message(case, read):
    # declared_depth and serialize_program read the instructions without the
    # walk; a missing field raises the walk's message there too, not a
    # TypeError or a condition printed as None.
    total, outputs, instrs, message = FAULTY[case]
    with pytest.raises(ValidationError) as info:
        read(CompiledProgram(total, outputs, tuple(instrs)))
    assert str(info.value) == message


def test_outcome_vars_in_read_order():
    p = gadget_program(0, 1)
    bells = [ins.out_vars for ins in p.instructions if ins.op is InstrOp.BELL]
    assert p.outcome_vars == tuple(v for out_vars in bells for v in out_vars)
    assert p.plan.names == tuple((v.name, 1 << i) for i, v in enumerate(p.outcome_vars))


# The one message each side may raise alone: only the plan has a window, and
# only the conversion is limited to linear conditions.
CAP = "register window exceeds the qubit cap"
DEGREE = "condition degree > 1 cannot be converted to controlled gates"

sources = st.one_of(
    layered_circuits(max_n=2, max_k=3).map(compile_measure),
    st.tuples(st.integers(0, 1), st.integers(0, 1)).map(lambda pq: gadget_program(*pq)),
)


@st.composite
def mutated_programs(draw) -> CompiledProgram:
    """A source program with one edit: an instruction dropped, duplicated in
    place or moved, one qubit retargeted into [-1, total_qubits + 1], one
    outcome variable swapped between two BELLs, or an output replaced."""
    p = draw(sources)
    instrs, outputs = list(p.instructions), list(p.logical_outputs)
    qubit = st.integers(-1, p.total_qubits + 1)
    edit = draw(st.sampled_from(["drop", "duplicate", "move", "retarget", "swap", "output"]))
    i = draw(st.integers(0, len(instrs) - 1)) if instrs else None
    if edit == "drop" and instrs:
        del instrs[i]
    elif edit == "duplicate" and instrs:
        instrs.insert(i, instrs[i])
    elif edit == "move" and instrs:
        instrs.insert(draw(st.integers(0, len(instrs) - 1)), instrs.pop(i))
    elif edit == "retarget" and instrs:
        ins = instrs[i]
        k = draw(st.integers(0, len(ins.qubits) - 1))
        qubits = ins.qubits[:k] + (draw(qubit),) + ins.qubits[k + 1:]
        gate = ins.gate
        if gate is not None and draw(st.booleans()):  # else the gate keeps its targets
            gate = Gate(gate.kind, qubits)
        instrs[i] = ins._replace(qubits=qubits, gate=gate)
    elif edit == "swap":
        bells = [j for j, ins in enumerate(instrs) if ins.op is InstrOp.BELL]
        if len(bells) >= 2:
            a, b = draw(st.lists(st.sampled_from(bells), min_size=2, max_size=2, unique=True))
            ka, kb = draw(st.integers(0, 1)), draw(st.integers(0, 1))
            va, vb = list(instrs[a].out_vars), list(instrs[b].out_vars)
            va[ka], vb[kb] = vb[kb], va[ka]
            instrs[a] = instrs[a]._replace(out_vars=tuple(va))
            instrs[b] = instrs[b]._replace(out_vars=tuple(vb))
    elif edit == "output":
        outputs[draw(st.integers(0, len(outputs) - 1))] = draw(qubit)
    return CompiledProgram(p.total_qubits, tuple(outputs), tuple(instrs))


def refusal(build) -> str | None:
    """The ValidationError message of ``build()``, or None if it succeeds.
    Any other exception escapes and fails the test."""
    try:
        build()
    except ValidationError as e:
        return str(e)
    return None


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(mutated_programs())
def test_plan_and_unitary_conversion_agree(p):
    planned = refusal(lambda: p.plan)
    converted = refusal(lambda: to_unitary(p))
    if planned == CAP:
        assert converted is None
    elif converted == DEGREE:
        assert planned is None
    else:
        assert planned == converted
