"""The frontier runner against the runner it replaced.

reference_run is compiler._run as it was when every frontier row kept its
classical bits as a Python int in a list and each conditioned step tested
the rows one at a time in Python, plus a teleport step that treats each
row and each outcome on its own: the oracle's Z then X kernels on the
teleported axis, applied where the step stands. It runs the same plans as
the new runner, whose rows share one int64 array, whose tests are
vectorized, whose exhaustive teleport step makes every row's four children
at once and whose sampled shot carries its Paulis in a frame until a gather
pulls through them, so the two must agree bit for bit: the same branches,
probabilities and states, and for sampled shots the same draws and the same
final RNG state.
"""
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import layered_circuits, random_circuit, random_state, rotation_twin
from test_compiler import PARTIAL, Forced, branch_reference
from tlink.circuits import Gate, GateKind
from tlink.compiler import (
    _APPLY,
    _BRANCH,
    _COND,
    _CUTOFF,
    _FUSE_WIDTH,
    _TELEPORT,
    CompiledProgram,
    InstrOp,
    _branch,
    _fires,
    _fires_one,
    _framed,
    _gather,
    _identity_map,
    _run,
    _Schedule,
    _unframe,
    _unitary_plan,
    compile_measure,
    execute,
    parse_program,
    to_unitary,
)
from tlink.gardenhose import ResourcePlan, gadget_program, protocol_program
from tlink.oracle import (
    StateVector,
    _extract,
    _normalized,
    apply_gate,
    fidelity_up_to_phase,
    gate_kernel,
)


def reference_fires(test, ones: int) -> int:
    """A compiled (linear, terms, constant) test at one row's bits."""
    linear, terms, constant = test
    value = constant ^ bin(ones & linear).count("1") & 1
    for term in terms:
        value ^= ones & term == term
    return value


two_bit_terms = st.lists(st.integers(0, 61), min_size=2, max_size=2, unique=True).map(
    lambda bits: 1 << bits[0] | 1 << bits[1])


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(linear=st.integers(0, 2 ** 62 - 1), terms=st.lists(two_bit_terms, max_size=4),
       constant=st.integers(0, 1),
       rows=st.lists(st.integers(0, 2 ** 62 - 1), min_size=1, max_size=16))
def test_fires_matches_the_one_row_test(linear, terms, constant, rows):
    # Masks of up to 62 bits, terms of degree 2 and a constant: every row of
    # the vectorized test agrees with the one-row test and with the
    # reference, whatever bits the masks use.
    test = (linear, tuple(terms), constant)
    fire = _fires(test, np.array(rows, dtype=np.int64))
    assert fire.dtype == bool and fire.shape == (len(rows),)
    assert fire.tolist() == [bool(_fires_one(test, row)) for row in rows]
    assert fire.tolist() == [bool(reference_fires(test, row)) for row in rows]


def reference_branch(step, amps, probs, ones: list[int], rng):
    """A branch point: a draw at or above the row's rounded sum takes the
    last outcome above _CUTOFF, one an exhaustive run keeps. The layout is
    (batch, outcome, rest) and the children keep one axis per qubit left."""
    _, bits, perm = step
    shape = (-1,) + (2,) * (amps.ndim - 3)
    amps = amps.transpose(perm).reshape(-1, 4, 2 ** (amps.ndim - 3))
    table = np.abs(amps)
    table = np.square(table, out=table).sum(axis=2)
    if rng is not None:
        row = table[0].tolist()
        u = rng.random()
        for k, acc in enumerate(itertools.accumulate(row)):
            if u < acc:
                break
        else:
            k = max(j for j, p in enumerate(row) if p > _CUTOFF)
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
    one whose flat window bit the step holds."""
    _, bits, bit = step
    width = amps.ndim - 1
    axis = width + 1 - bit.bit_length()

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
    states = _extract(amps, plan.n)
    return [({name: 1 if m & bit else 0 for name, bit in plan.names}, prob, vec)
            for m, prob, vec in zip(ones, probs.tolist(), states)]


def assert_same_leaves(got, want) -> None:
    assert len(got) == len(want)
    for b, (outcomes, prob, vec) in zip(got, want):
        assert b.outcomes == outcomes and list(b.outcomes) == list(outcomes)
        assert b.probability == prob
        assert np.array_equal(b.state.amps, vec)


def without_last_cond_z(p: CompiledProgram) -> CompiledProgram:
    """``p`` with its last conditioned Z dropped: a final correction missing,
    so the frame a shot ends with holds whatever that Z would have undone."""
    instrs = list(p.instructions)
    last = max(i for i, ins in enumerate(instrs) if ins.op is InstrOp.COND_Z)
    del instrs[last]
    return CompiledProgram(p.total_qubits, p.logical_outputs, tuple(instrs))


@st.composite
def plans(draw):
    """(plan, wires, is a measure plan, enumerable): a compiled random
    circuit (teleport steps), its rotation twin (branch points), PARTIAL, a
    garden-hose gadget (conditions of degree 2), a converted circuit, or a
    compiled circuit on 9 or 10 wires, as compiled or with its last
    conditioned Z dropped. The wide ones run on the per-gate kernels, which
    then also apply a shot's frame; their 4^n branches are too many to
    enumerate, so they run sampled shots only."""
    kind = draw(st.sampled_from(["measure", "twin", "partial", "gadget", "unitary",
                                 "wide", "wide-broken"]), label="kind")
    if kind == "partial":
        return parse_program(PARTIAL).plan, 2, True, True
    if kind == "gadget":
        p, q = draw(st.integers(0, 1), label="p"), draw(st.integers(0, 1), label="q")
        return gadget_program(p, q).plan, 1, True, True
    if kind.startswith("wide"):
        n = draw(st.integers(9, 10), label="n")
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="circuit"))
        p = compile_measure(random_circuit(rng, n, 2, max_clifford=3 * n))
        if kind == "wide-broken":
            p = without_last_cond_z(p)
        assert p.plan.peak_width > _FUSE_WIDTH
        return p.plan, n, True, False
    c = draw(layered_circuits(max_n=3, max_k=3), label="circuit")
    if kind == "measure":
        return compile_measure(c).plan, c.n, True, True
    if kind == "twin":
        return rotation_twin(compile_measure(c)).plan, c.n, True, True
    return _unitary_plan(to_unitary(compile_measure(c))), c.n, False, True


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(planned=plans(), seed=st.integers(0, 2 ** 32 - 1))
def test_runner_matches_the_per_row_reference(planned, seed):
    plan, n, measure, enumerable = planned
    psi = random_state(np.random.default_rng(seed), n)
    if enumerable:
        assert_same_leaves(_run(plan, psi, None), reference_run(plan, psi, None))
    if not measure:
        return
    for shot in range(3):
        mine, theirs = np.random.default_rng(seed + shot), np.random.default_rng(seed + shot)
        (leaf,) = _run(plan, psi, mine)
        assert_same_leaves([leaf], reference_run(plan, psi, theirs))
        assert type(leaf.probability) is float and type(leaf.bits) is int
        assert mine.bit_generator.state == theirs.bit_generator.state


@st.composite
def sampled_plans(draw):
    """(plan, wires) run by sampled shots: a compiled random circuit of up to
    5 wires and 6 stages (teleport steps), its rotation twin (branch points
    on windows up to 7 qubits) or a protocol program (gadget and return
    windows wider than its outputs)."""
    kind = draw(st.sampled_from(["measure", "twin", "protocol"]), label="kind")
    if kind == "protocol":
        c = draw(layered_circuits(max_n=3, max_k=1), label="circuit")
        wires = st.lists(st.integers(0, c.n - 1), unique=True)
        plan = ResourcePlan(frozenset(draw(wires, label="alice")), tuple(draw(wires, label="ret")))
        return protocol_program(c, plan)[0].plan, c.n
    c = draw(layered_circuits(max_n=5, max_k=6), label="circuit")
    p = compile_measure(c)
    return (rotation_twin(p) if kind == "twin" else p).plan, c.n


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(planned=sampled_plans(), seed=st.integers(0, 2 ** 32 - 1))
def test_shots_drawn_in_one_call_match_the_per_read_draws(planned, seed):
    # Shots one after another from one generator, as tlink verify runs them.
    # Each shot draws all its uniforms in one call and folds its frame into
    # the plan's final gather; the reference draws one uniform per read and
    # applies each Pauli where it arises. The outcomes, the amplitude bytes
    # and the generator's final state are the same.
    plan, n = planned
    psi = random_state(np.random.default_rng(seed), n)
    mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(4):
        (leaf,) = _run(plan, psi, mine)
        ((outcomes, prob, vec),) = reference_run(plan, psi, theirs)
        assert leaf.outcomes == outcomes and leaf.probability == prob
        assert leaf.state.amps.tobytes() == vec.tobytes()
    assert mine.bit_generator.state == theirs.bit_generator.state


ALWAYS = (0, (), 1)  # a test every row passes


def exit_plan(n: int, leftovers: list[tuple[GateKind, ...]], outputs: tuple[int, ...],
              frame: tuple[int, int, int]):
    """A plan on n input wires that appends one product qubit per entry of
    ``leftovers`` (|0> under those gates), gives a sampled shot the frame
    (x, z, sign) over the whole window through conditioned steps that
    always fire, and ends on ``outputs``, a permutation of the input wires.
    The map of the leftovers is flushed before the frame is set, so the
    plan's last step is its exit alone, an identity or reordering gather."""
    sched = _Schedule(n)
    for q, gates in enumerate(leftovers, n):
        sched.axes((q,))
        for kind in gates:
            sched.gate(kind, (q,))
    sched._flush_map()
    x, z, sign = frame
    width = len(sched.window)

    def on(bits: int, kind: GateKind) -> None:
        for slot in range(width):  # window slot a is flat bit width - 1 - a
            if bits >> (width - 1 - slot) & 1:
                sched.cond(ALWAYS, kind, (sched.window[slot],))

    on(z, GateKind.Z)
    if sign:  # X Z X Z on one qubit leaves only the sign: Z X = -X Z
        for kind in (GateKind.X, GateKind.Z) * 2:
            sched.cond(ALWAYS, kind, (0,))
    on(x, GateKind.X)
    return sched.plan(outputs)


def parent_exit(amps: np.ndarray, slots: tuple[int, ...], x: int, z: int, sign: int):
    """The output state of a sampled shot as a plan left it before every
    plan ended on its outputs: a window of exactly its outputs, on at most
    _FUSE_WIDTH qubits, took one gather of the output map through the frame
    and normalized the row; any other applied its frame, by one gather on a
    narrow window and the X and Z kernels on a wide one, then moved the
    outputs' axes first and extracted them."""
    width, n = amps.ndim - 1, len(slots)
    framed = x | z | sign
    if width == n <= _FUSE_WIDTH:
        i = np.arange(1 << n)
        src = np.zeros_like(i)
        for k, slot in enumerate(slots):
            src |= (i >> (n - 1 - k) & 1) << (n - 1 - slot)
        if not framed:
            return _normalized(amps.reshape(1, -1).take(src, axis=1))[0]
        return _normalized(_gather(amps, *_framed(src, _identity_map(n)[1], n, x, z, sign),
                                   (1, -1)))[0]
    if framed and width <= _FUSE_WIDTH:
        amps = _gather(amps, *_framed(*_identity_map(width), width, x, z, sign), amps.shape)
    elif framed:
        amps = _unframe(amps, x, z, sign)
    rest = [a for a in range(width) if a not in slots]
    return _extract(amps.transpose([0] + [a + 1 for a in (*slots, *rest)]), n)[0]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(width=st.integers(1, 12), data=st.data())  # both sides of _FUSE_WIDTH
def test_folded_extraction_is_unframe_then_extract(width, data):
    # Any frame (-1)^sign X^x Z^z, the empty one included, any order of the
    # outputs and 0-2 product qubits left over: a shot that leaves through
    # the plan's final gather ends on the state the exit it replaced gave.
    # Some input amplitudes are exact zeros of either sign, as fresh qubits
    # leave them, and the gather's multiply by 1 may turn a -0.0 into +0.0,
    # so the values are equal, and the bytes too wherever both exits
    # multiply: through a frame, on a window of at most _FUSE_WIDTH qubits.
    gates = st.sampled_from([(), (GateKind.H,), (GateKind.H, GateKind.T), (GateKind.X,)])
    leftovers = data.draw(st.lists(gates, max_size=min(2, width - 1)), label="leftovers")
    n = width - len(leftovers)
    outputs = tuple(data.draw(st.permutations(range(n)), label="outputs"))
    frame = st.tuples(st.integers(0, 2 ** width - 1), st.integers(0, 2 ** width - 1),
                      st.integers(0, 1))
    x, z, sign = data.draw(st.one_of(st.just((0, 0, 0)), frame), label="frame")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps.real[rng.random(1 << n) < 0.2] = 0.0
    amps.imag[rng.random(1 << n) < 0.2] = -0.0
    psi = StateVector(n, amps / np.linalg.norm(amps))

    plan = exit_plan(n, leftovers, outputs, (x, z, sign))
    src, coef, shape = plan.steps[-1][2]
    assert plan.steps[-1][1] is _gather and shape == (-1,) + (2,) * width
    assert src.ndim == 1 and np.all(coef == 1)  # a permutation of the window
    (leaf,) = _run(plan, psi, np.random.default_rng(0))
    before = psi.amps.reshape((1,) + (2,) * n)  # the frontier the exit starts from
    for step in plan.steps[:-1]:
        if step[0] is _APPLY:
            before = step[1](before, *step[2])
    want = parent_exit(before, outputs, x, z, sign)
    assert np.array_equal(leaf.state.amps, want)
    if x | z | sign and width <= _FUSE_WIDTH:
        assert leaf.state.amps.tobytes() == want.tobytes()


def test_an_output_order_joins_the_pending_map():
    # With no step held, the plan's order composes into the pending map: H
    # on wire 0 with the outputs in reverse window order is one gather.
    sched = _Schedule(2)
    sched.gate(GateKind.H, (0,))
    plan = sched.plan((1, 0))
    (step,) = plan.steps
    assert step[:2] == (_APPLY, _gather) and sched.window == [1, 0]
    psi = random_state(np.random.default_rng(0), 2)
    (leaf,) = _run(plan, psi, None)
    want = apply_gate(psi, Gate(GateKind.H, (0,))).shaped().T.reshape(-1)
    assert np.abs(leaf.state.amps - want).max() < 1e-12


class NearlyOne:
    """An RNG stand-in whose every uniform is the largest float below 1: one,
    or an array of ``size``, as Generator.random returns them."""

    def random(self, size=None):
        u = float(np.nextafter(1.0, 0.0))
        return u if size is None else np.full(size, u)


def test_a_draw_above_the_rounded_sum_takes_the_last_live_outcome():
    # Qubit 0 in |0> and qubit 2 fresh: the Bell measurement reads x = 0 and
    # a uniform z, so outcomes 2 and 3 have probability 0. On about half of
    # these inputs the row's rounded sum is below the draw, which then
    # takes outcome 1, the last one above _CUTOFF, not outcome 3.
    prog = parse_program("QUBITS 4\nBELL 0 2 -> a b\nOUT 0 1\nOUT 1 3\n")
    rng = np.random.default_rng(27)
    for _ in range(40):
        psi = StateVector(2, np.kron([1.0, 0.0], random_state(rng, 1).amps))
        out, outcomes = execute(prog, psi, NearlyOne())
        assert outcomes == {"a": 0, "b": 1}
        prob, state = branch_reference(prog, psi, outcomes)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert fidelity_up_to_phase(out, state) >= 1 - 1e-12
        (leaf,) = _run(prog.plan, psi, NearlyOne())
        assert_same_leaves([leaf], reference_run(prog.plan, psi, NearlyOne()))


def test_a_draw_above_the_rounded_sum_skips_a_residue():
    # Outcome 3 holds a rounding residue of probability 1e-40 and the row sums
    # to 1 - 1.3e-15, so a draw just below 1 passes every running sum: the
    # shot takes outcome 1, not outcome 3 renormalized from noise.
    sched = _Schedule(2)
    sched.branch(0, 1, None, None)  # outcome k = 2x + z sets x's bit 1 and z's bit 2
    step, last = sched.plan(()).steps  # the branch point, then the plan's final gather
    assert step[0] is _BRANCH and last[:2] == (_APPLY, _gather)
    amps = np.array([[[0.6, 0.8 * (1 - 1e-15)], [0.0, 1e-20]]], dtype=complex)
    child, prob, ones = _branch(step, amps, 1.0, 0, NearlyOne().random())
    assert ones == 2 and prob == abs(amps[0, 0, 1]) ** 2
    assert child.shape == (1,) and child[0] == pytest.approx(1.0)


# Every function that reads or writes a frontier's amplitudes.
KERNELS = {"_gather", "_unframe", "_phase", "_flip", "_swap", "_hadamard", "_grow", "_grow_epr",
           "_scale"}


def amplitude_passes(plan, psi, rng) -> list[tuple[str, str]]:
    """(kernel, caller) of every amplitude kernel one sampled shot calls, in
    order; a P-dagger's diagonal kernel is named "PDG"."""
    calls = []

    def profile(frame, event, _):
        name = frame.f_code.co_name
        if event == "call" and name in KERNELS:
            if name == "_phase" and frame.f_locals["vec"].flat[1] == -1j:
                name = "PDG"
            calls.append((name, frame.f_back.f_code.co_name))

    sys.setprofile(profile)
    try:
        _run(plan, psi, rng)
    finally:
        sys.setprofile(None)
    return calls


def pdg_after_teleport(n: int, apart: bool) -> str:
    """A program with conditioned P-daggers on teleported X's: carrier 0 of
    n is teleported twice, and the last carrier gets a P-dagger conditioned
    on its link's X outcome, a Z and an X correction. With ``apart`` the
    first new carrier gets such a P-dagger and an H before the second link;
    without, the second teleport finds the first one's Pauli still pending,
    so its Z outcome meets the frame's X."""
    a, b, c, d = n, n + 1, n + 2, n + 3
    between = f"PDG {b} IF a\nH {b}\n" if apart else ""
    return (f"QUBITS {n + 4}\nH 0\nT 0\nEPR {a} {b}\nBELL 0 {a} -> a b\n{between}"
            f"EPR {c} {d}\nBELL {b} {c} -> c d\nPDG {d} IF c\nZ {d} IF b ^ d\nX {d} IF a ^ c\n"
            f"OUT 0 {d}\n" + "".join(f"OUT {j} {j}\n" for j in range(1, n)))


@pytest.mark.parametrize("apart", [True, False], ids=["apart", "back-to-back"])
@pytest.mark.parametrize("n", [1, 9])  # a fused window, and one of per-gate kernels
def test_pdg_on_a_pending_teleport_x(n, apart, rng):
    # Every outcome of both links, forced, against the reference runner. A
    # P-dagger fires when its link's x reads 1; when the frame then holds X
    # on its qubit, the shot applies its frame right before it.
    plan = parse_program(pdg_after_teleport(n, apart)).plan
    assert plan.peak_width == n
    psi = random_state(rng, n)
    for ks in itertools.product(range(4), repeat=2):
        (leaf,) = _run(plan, psi, Forced(ks))
        assert_same_leaves([leaf], reference_run(plan, psi, Forced(ks)))
        x1, x2 = leaf.outcomes["a"], leaf.outcomes["c"]
        assert (x1, x2) == (ks[0] >> 1, ks[1] >> 1)
        from_run = [kernel for kernel, caller in amplitude_passes(plan, psi, Forced(ks))
                    if caller == "_run"]
        fires, held = ([x1, x2], [x1, x2]) if apart else ([x2], [x1 ^ x2])  # held: the frame's X
        fired = [i for i, kernel in enumerate(from_run) if kernel == "PDG"]
        assert [from_run[i - 1] == "_unframe" for i in fired] == [
            bool(x) for fire, x in zip(fires, held) if fire]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(c=layered_circuits(max_n=4, max_k=4), seed=st.integers(0, 2 ** 32 - 1))
def test_a_shot_touches_its_amplitudes_only_at_gathers(c, seed):
    # On a fused window a sampled shot of a compiled program makes one
    # amplitude pass per gather step of its plan, the final one that puts
    # its outputs first included, and one per conditioned P-dagger that
    # fires, each after its frame is applied if the frame holds X on its
    # qubit: a teleport step or a conditioned X or Z makes none.
    plan = compile_measure(c).plan
    assert plan.peak_width <= _FUSE_WIDTH
    gathers = sum(step[0] is _APPLY and step[1] is _gather for step in plan.steps)
    psi = random_state(np.random.default_rng(seed), c.n)
    for shot in range(3):
        calls = amplitude_passes(plan, psi, np.random.default_rng(seed + shot))
        assert all(caller in ("_run", "_unframe") for _, caller in calls)
        from_run = [kernel for kernel, caller in calls if caller == "_run"]
        assert from_run.count("_gather") == gathers
        assert set(from_run) <= {"_gather", "PDG", "_unframe"}
        for i, kernel in enumerate(from_run):  # the frame applied only before a P-dagger
            if kernel == "_unframe":
                assert from_run[i + 1:i + 2] == ["PDG"]
