"""The frontier runner against the runner it replaced.

reference_run is compiler._run as it was when every frontier row kept its
classical bits as a Python int in a list and each conditioned step tested
the rows one at a time in Python, plus a teleport step that treats each
row and each outcome on its own: the oracle's Z then X kernels on the
teleported axis. It runs the same plans as the new runner, whose rows share
one int64 array, whose tests are vectorized and whose teleport step is one
gather, so the two must agree bit for bit: the same branches, probabilities
and states, and for sampled shots the same draws and the same final RNG
state.
"""
import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import layered_circuits, random_state, rotation_twin
from test_compiler import PARTIAL
from tlink.circuits import GateKind
from tlink.compiler import (
    _APPLY,
    _BRANCH,
    _COND,
    _CUTOFF,
    _TELEPORT,
    _run,
    _unitary_plan,
    compile_measure,
    parse_program,
    to_unitary,
)
from tlink.gardenhose import gadget_program
from tlink.oracle import _extract, gate_kernel


def reference_fires(test, ones: int) -> int:
    """A compiled (linear, terms, constant) test at one row's bits."""
    linear, terms, constant = test
    value = constant ^ bin(ones & linear).count("1") & 1
    for term in terms:
        value ^= ones & term == term
    return value


def reference_branch(step, amps, probs, ones: list[int], rng):
    _, bits, shape = step
    table = np.abs(amps)
    table = np.square(table, out=table).sum(axis=2)
    if rng is not None:
        row = table[0].tolist()
        u = rng.random()
        for k, acc in enumerate(itertools.accumulate(row)):
            if u < acc:
                break
        prob = row[k]
        assert prob > 0.0
        return (amps[0, k] / math.sqrt(prob)).reshape(shape), probs * prob, [ones[0] | bits[k]]
    flat = table.reshape(-1)
    kept = np.flatnonzero(flat > _CUTOFF)
    prob = flat[kept]
    children = amps.reshape(flat.size, -1).take(kept, axis=0)
    children /= np.sqrt(prob)[:, None]
    parents, ks = np.divmod(kept, len(bits))
    ones = [ones[i] | bits[k] for i, k in zip(parents.tolist(), ks.tolist())]
    return children.reshape(shape), probs[parents] * prob, ones


def reference_teleport(step, amps, probs, ones: list[int], rng):
    """A teleport step row by row: outcome k = 2x + z of each row has
    probability 1/4 and applies Z^z, then X^x, to the teleported axis, the
    one whose bit the X rows of the step's map flip."""
    _, bits, src, _ = step
    width = amps.ndim - 1
    axis = width + 1 - int(src[2, 0]).bit_length()

    def pauli(rows, k):
        for kind, on in ((GateKind.Z, k & 1), (GateKind.X, k >> 1)):
            if on:
                kernel, args = gate_kernel(kind, (axis,), width + 1)
                rows = kernel(rows, *args)
        return rows

    if rng is not None:
        u = rng.random()
        k = next(k for k in range(4) if u < (k + 1) / 4)
        return pauli(amps, k), probs * 0.25, [ones[0] | bits[k]]
    children = [pauli(amps[i:i + 1], k) for i in range(len(ones)) for k in range(4)]
    return (np.concatenate(children), np.repeat(probs, 4) * 0.25,
            [m | bits[k] for m in ones for k in range(4)])


def reference_run(plan, psi, rng) -> list[tuple[dict[str, int], float, np.ndarray]]:
    """(outcomes, probability, output amplitudes) of every leaf, depth first."""
    amps = psi.amps.reshape((1,) + (2,) * plan.n)
    probs = np.ones(1)
    ones = [0]
    for step in plan.steps:
        if step[0] is _APPLY:
            amps = step[1](amps, *step[2])
        elif step[0] is _COND:
            _, test, kernel, args = step
            fire = [i for i, m in enumerate(ones) if reference_fires(test, m)]
            if len(fire) == len(ones):
                amps = kernel(amps, *args)
            elif fire:
                amps[fire] = kernel(amps[fire], *args)
        elif step[0] is _BRANCH:
            amps, probs, ones = reference_branch(step, amps, probs, ones, rng)
        else:
            assert step[0] is _TELEPORT
            amps, probs, ones = reference_teleport(step, amps, probs, ones, rng)
    if not ones:
        return []
    states = _extract(amps, list(plan.outputs))
    return [({name: 1 if m & bit else 0 for name, bit in plan.names}, prob, vec)
            for m, prob, vec in zip(ones, probs.tolist(), states)]


def assert_same_leaves(got, want) -> None:
    assert len(got) == len(want)
    for b, (outcomes, prob, vec) in zip(got, want):
        assert b.outcomes == outcomes and list(b.outcomes) == list(outcomes)
        assert b.probability == prob
        assert np.array_equal(b.state.amps, vec)


@st.composite
def plans(draw):
    """(plan, wires, is a measure plan): a compiled random circuit (teleport
    steps), its rotation twin (branch points), PARTIAL, a garden-hose gadget
    (conditions of degree 2) or a converted circuit."""
    kind = draw(st.sampled_from(["measure", "twin", "partial", "gadget", "unitary"]), label="kind")
    if kind == "partial":
        return parse_program(PARTIAL).plan, 2, True
    if kind == "gadget":
        p, q = draw(st.integers(0, 1), label="p"), draw(st.integers(0, 1), label="q")
        return gadget_program(p, q).plan, 1, True
    c = draw(layered_circuits(max_n=3, max_k=3), label="circuit")
    if kind == "measure":
        return compile_measure(c).plan, c.n, True
    if kind == "twin":
        return rotation_twin(compile_measure(c)).plan, c.n, True
    return _unitary_plan(to_unitary(compile_measure(c))), c.n, False


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(planned=plans(), seed=st.integers(0, 2 ** 32 - 1))
def test_runner_matches_the_per_row_reference(planned, seed):
    plan, n, measure = planned
    psi = random_state(np.random.default_rng(seed), n)
    assert_same_leaves(_run(plan, psi, None), reference_run(plan, psi, None))
    if not measure:
        return
    for shot in range(3):
        mine, theirs = np.random.default_rng(seed + shot), np.random.default_rng(seed + shot)
        (leaf,) = _run(plan, psi, mine)
        assert_same_leaves([leaf], reference_run(plan, psi, theirs))
        assert type(leaf.probability) is float and type(leaf.bits) is int
        assert mine.bit_generator.state == theirs.bit_generator.state
