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
from tlink.compiler import (
    _BRANCH,
    _TELEPORT,
    MAX_OUTCOME_BITS,
    _unitary_plan,
    compile_measure,
    enumerate_branches,
    execute,
    to_unitary,
)
from tlink.gardenhose import ResourcePlan, gadget_program, protocol_program
from tlink.oracle import MAX_QUBITS

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
