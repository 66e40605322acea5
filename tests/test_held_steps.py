"""Held link steps against the schedule that flushed before each of them.

While a fused map is pending, _Schedule holds a conditioned step, a phase
and a teleport step behind it and emits them right after its gather.
EagerSchedule is the rule it replaced: the map is flushed before every such
step, so none is held. Plans from both rules must agree. Draws, final RNG
states and outcomes are equal bit for bit, and so are the probabilities of
branches that only teleport steps read, products of 1/4. States agree within
1e-12, because a fused map now composes its coefficients in another order,
and so the probabilities a branch point reads off them agree within 1e-15,
in a unitary plan or a rotation twin.
"""
import cmath
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import layered_circuits, random_circuit, random_state, rotation_twin
from test_runner import pdg_after_teleport
from tlink import compiler
from tlink.circuits import GateKind, parse_circuit
from tlink.compiler import (
    _APPLY,
    _BRANCH,
    _COND,
    _FUSE_WIDTH,
    _TELEPORT,
    _cached_kernel,
    _gather,
    _measure_plan,
    _run,
    _scale,
    _Schedule,
    _unitary_plan,
    compile_measure,
    parse_program,
    to_unitary,
)
from tlink.gardenhose import ResourcePlan, gadget_program, protocol_program

H, X, Z, T = GateKind.H, GateKind.X, GateKind.Z, GateKind.T
TEST = (1, (), 0)  # fires where plan bit 0 reads 1


class EagerSchedule(_Schedule):
    """_Schedule that flushes the pending map before every conditioned,
    phase and teleport step instead of holding it."""

    def _hold(self, step, axes):
        self._flush_map()
        self.steps.append(step)


def eager_plan(build, program):
    with mock.patch.object(compiler, "_Schedule", EagerSchedule):
        return build(program)


def opcodes(steps) -> str:
    """G for a gather, A for a per-gate kernel, C, B and T for a
    conditioned (or phase), branch and teleport step."""
    return "".join("G" if step[0] is _APPLY and step[1] is _gather else "ACBT"[step[0]]
                   for step in steps)


@st.composite
def programs(draw):
    """(plan builder, program, wires): a compiled random circuit, its
    rotation twin, a garden-hose gadget, a protocol program, a converted
    circuit (unitary plan), a compiled circuit on 9 or 10 wires, or a
    program with conditioned P-daggers on teleported X's."""
    kind = draw(st.sampled_from(["measure", "twin", "gadget", "protocol", "unitary", "wide",
                                 "pdg"]), label="kind")
    if kind == "gadget":
        p, q = draw(st.integers(0, 1), label="p"), draw(st.integers(0, 1), label="q")
        return _measure_plan, gadget_program(p, q), 1
    if kind == "wide":
        n = draw(st.integers(9, 10), label="n")
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="circuit"))
        return _measure_plan, compile_measure(random_circuit(rng, n, 2, max_clifford=3 * n)), n
    if kind == "pdg":
        n = draw(st.sampled_from([1, 9]), label="n")
        return _measure_plan, parse_program(pdg_after_teleport(n, draw(st.booleans()))), n
    if kind == "protocol":
        c = draw(layered_circuits(max_n=3, max_k=1), label="circuit")
        wires = st.lists(st.integers(0, c.n - 1), unique=True)
        plan = ResourcePlan(frozenset(draw(wires, label="alice")), tuple(draw(wires, label="ret")))
        return _measure_plan, protocol_program(c, plan)[0], c.n
    c = draw(layered_circuits(max_n=3, max_k=3), label="circuit")
    p = compile_measure(c)
    if kind == "unitary":
        return _unitary_plan, to_unitary(p), c.n
    return _measure_plan, rotation_twin(p) if kind == "twin" else p, c.n


def assert_agree(got, want, prob_tol: float = 0.0) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.bits == b.bits and a.outcomes == b.outcomes
        assert abs(a.probability - b.probability) <= prob_tol
        assert np.abs(a.state.amps - b.state.amps).max() <= 1e-12


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(built=programs(), seed=st.integers(0, 2 ** 32 - 1))
def test_held_plans_agree_with_the_eager_schedule(built, seed):
    build, program, n = built
    plan, eager = build(program), eager_plan(build, program)
    assert opcodes(plan.steps).count("G") <= opcodes(eager.steps).count("G")
    assert (plan.n, plan.peak_width, plan.names) == (eager.n, eager.peak_width, eager.names)
    measure = build is _measure_plan
    if measure:  # held steps keep their order among the steps that are not gathers
        assert [s for s in plan.steps if s[0] is not _APPLY] == [
            s for s in eager.steps if s[0] is not _APPLY]
    psi = random_state(np.random.default_rng(seed), n)
    prob_tol = 1e-15 if any(step[0] is _BRANCH for step in plan.steps) else 0.0
    if sum(step[0] in (_BRANCH, _TELEPORT) for step in plan.steps) <= 6:  # 4^6 branches
        assert_agree(_run(plan, psi, None), _run(eager, psi, None), prob_tol)
    if not measure:
        return
    for shot in range(3):
        mine, theirs = np.random.default_rng(seed + shot), np.random.default_rng(seed + shot)
        assert_agree(_run(plan, psi, mine), _run(eager, psi, theirs), prob_tol)
        assert mine.bit_generator.state == theirs.bit_generator.state


# -- what flushes the held steps -------------------------------------------------

def test_a_gate_on_a_held_qubit_flushes_first():
    sched = _Schedule(2)
    sched.gate(H, (0,))
    sched.cond(TEST, Z, (1,))
    sched.gate(X, (0,))  # another slot: composed behind the held Z
    assert sched.steps == [] and opcodes(sched.held) == "C" and sched.held_axes == {2}
    sched.gate(H, (1,))
    assert opcodes(sched.steps) == "GC" and sched.held == [] and not sched.held_axes
    assert opcodes(sched.plan((0, 1)).steps) == "GCG"


def test_a_gate_on_a_held_teleports_pair_half_flushes_first():
    sched = _Schedule(2)
    sched.gate(H, (0,))
    pair = sched.defer((2, 3), "EPR 2 3")
    sched.teleport(0, 2, pair, "a", "b")  # 3 takes 0's slot, window bit 2
    assert sched.window == [3, 1] and sched.steps == []
    assert sched.held == [(_TELEPORT, (0, 2, 1, 3), 2)]
    sched.gate(T, (1,))  # another slot: composed behind the held teleport step
    assert sched.steps == []
    sched.gate(H, (3,))
    assert opcodes(sched.steps) == "GT"
    assert opcodes(sched.plan((3, 1)).steps) == "GTG"


def test_an_allocation_flushes_the_held_steps_first():
    sched = _Schedule(1)
    sched.gate(H, (0,))
    sched.cond(TEST, X, (0,))
    sched.epr(1, 2)
    assert opcodes(sched.steps) == "GC"
    assert sched.steps[1] == (_COND, TEST, *_cached_kernel("X", (1,), 2))  # at width 1
    assert sched.steps[0][2][-1] == (-1, 2)
    plan = sched.plan((0,))
    assert opcodes(plan.steps) == "GCG" and plan.steps[-1][2][-1] == (-1, 2, 2, 2)


def test_a_branch_point_and_the_extraction_flush_the_held_steps():
    sched = _Schedule(3)
    sched.gate(H, (0,))
    sched.cond(TEST, Z, (2,))
    sched.branch(0, 1, "a", "b")
    assert opcodes(sched.steps) == "GCB"
    sched.gate(H, (2,))
    sched.cond(TEST, Z, (2,))
    assert opcodes(sched.steps) == "GCB" and opcodes(sched.held) == "C"
    assert opcodes(sched.plan((2,)).steps) == "GCBGCG"  # held steps come before the exit


def test_same_test_phases_fold_inside_held():
    sched = _Schedule(1)
    sched.gate(H, (0,))
    sched.phase(TEST, -1j)
    sched.gate(T, (0,))  # a phase holds no slot
    t_phase = cmath.exp(1j * cmath.pi / 4)
    sched.phase(TEST, t_phase)
    assert sched.steps == [] and sched.held == [(_COND, TEST, _scale, (-1j * t_phase,))]
    sched.phase((2, (), 0), -1)  # another test: a step of its own
    assert opcodes(sched.held) == "CC" and not sched.held_axes
    assert opcodes(sched.plan((0,)).steps) == "GCCG"


def test_stage_cones_flush_as_one_gather_ahead_of_their_teleport_steps():
    # Link 1's BELLs each flush their carrier's cone; both cones are one
    # gather and both teleport steps wait behind it. Stage 2's gates on
    # carrier 5 are the second gather, ahead of the five corrections, in
    # program order: PDG 5, X 4, Z 4, X 5, Z 5. The plan's exit, a gather
    # of its own, follows them.
    c = parse_circuit("QUBITS 2\nH 0\nCNOT 0 1\nT 0\nT 1\n---\nH 1\nT 1\n---\n")
    p = compile_measure(c)
    steps = p.plan.steps
    assert opcodes(steps) == "GTTGCCCCCG"
    assert opcodes(eager_plan(_measure_plan, p).steps) == "GTGTGCCCCCG"
    assert [step[2:] for step in steps[4:-1]] == [
        _cached_kernel(kind, (axis,), 3) for kind, axis in
        (("PDG", 2), ("X", 1), ("Z", 1), ("X", 2), ("Z", 2))]
    assert p.plan.peak_width == 2 <= _FUSE_WIDTH
