import dataclasses
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    apply_gates,
    factor_state,
    gates_matrix,
    layered_circuits,
    project,
    random_circuit,
    random_state,
)
from test_program_rules import FAULTY, mutated_programs, refusal
from tlink import cli
from tlink.circuits import (
    Gate,
    GateKind,
    LayeredCircuit,
    Stage,
    ValidationError,
    _StageBuilder,
    cnot,
    depth_metrics,
    flatten,
    h,
    layerize,
    parse_circuit,
    pdg,
    t,
    x,
)
from tlink.compiler import (
    BellGroup,
    CompiledProgram,
    Instruction,
    InstrOp,
    UnitaryProgram,
    _BRANCH,
    _COND,
    _Schedule,
    _bell_rotation,
    _cs_dag,
    _unitary_plan,
    compile_measure,
    enumerate_branches,
    enumerate_unitary_branches,
    serialize_circuit_of_unitary,
    to_unitary,
)
from tlink.frames import KeyPoly, OutcomeVar
from tlink.oracle import (
    MAX_QUBITS,
    StateVector,
    _extract,
    apply_circuit,
    fidelity_up_to_phase,
    init_state,
)


def make_program(total, outputs, instrs):
    return CompiledProgram(total, tuple(outputs), tuple(instrs))


def padded(psi: StateVector, total: int) -> np.ndarray:
    """The amplitudes of ``psi`` on the first wires and |0> on the rest."""
    amps = np.zeros(2 ** total, dtype=complex)
    amps[::2 ** (total - psi.n)] = psi.amps
    return amps


def coherent_state(up: UnitaryProgram, psi) -> StateVector:
    """Plain full-width simulation of the converted circuit, no measurements:
    the input on the logical wires, |0> on every other qubit."""
    return apply_circuit(init_state(up.total_qubits, padded(psi, up.total_qubits)), up.circuit)


def outputs_of(up: UnitaryProgram, shaped: np.ndarray) -> StateVector:
    """The state on the logical wires; every other qubit must factor out."""
    outputs = list(up.logical_outputs)
    order = outputs + [q for q in range(shaped.ndim) if q not in outputs]
    return StateVector(up.n, _extract(shaped.transpose(order)[None], up.n)[0])


def run_unitary_coherently(up: UnitaryProgram, psi):
    return outputs_of(up, coherent_state(up, psi).shaped())


def cond_pdg_count(prog: CompiledProgram) -> int:
    return sum(1 for ins in prog.instructions if ins.op is InstrOp.COND_PDG)


def held_parities(up: UnitaryProgram, first: int) -> dict[int, tuple[frozenset, int]]:
    """Each parity qubit of a converted program, a qubit from ``first`` up
    that is no outcome ancilla, with the parity it ends up holding: the
    variables of the ancillas that CNOT onto it and the parity of its X
    count. A parity qubit is written by nothing else."""
    var_of = {q: v for v, q in up.var_qubits.items()}
    held = {q: (frozenset(), 0) for q in range(first, up.total_qubits) if q not in var_of}
    for g in flatten(up.circuit):
        target = g.targets[-1]
        if target not in held:
            continue
        names, const = held[target]
        if g.kind is GateKind.CNOT:
            held[target] = names ^ {var_of[g.targets[0]]}, const
        elif g.kind is GateKind.X:
            held[target] = names, const ^ 1
        else:
            assert g.kind in (GateKind.PDG, GateKind.T), g
    return held


def assert_branches_match_the_matrix_oracle(up: UnitaryProgram, psi: StateVector) -> list:
    """enumerate_unitary_branches against the conftest matrix oracle: the
    whole converted circuit run coherently, then read on each branch's
    values of the outcome ancillas. Returns the branches."""
    total = up.total_qubits
    full = apply_gates(padded(psi, total), flatten(up.circuit), total)
    var_of = {q: v for v, q in up.var_qubits.items()}
    groups = [(var_of[g.anc_x], var_of[g.anc_z]) for g in up.bell_groups]
    ancillas = [up.var_qubits[v] for pair in groups for v in pair]
    rest = [q for q in range(total) if q not in ancillas]
    front = [rest.index(q) for q in up.logical_outputs]
    # one row per value of the ancillas, the first one's bit highest
    rows = np.moveaxis(full.reshape((2,) * total), ancillas, range(len(ancillas)))
    rows = rows.reshape(2 ** len(ancillas), -1)
    want = []
    # The plan reads each group as a measure plan reads a BELL, outcome
    # k = 2x + z: per group, branches come in lexicographic (x, z) order.
    for row, bits in enumerate(itertools.product((0, 1), repeat=len(ancillas))):
        amps = rows[row]
        prob = float(np.linalg.norm(amps) ** 2)
        if prob > 1e-12:
            outcomes = {var_of[q]: bit for q, bit in zip(ancillas, bits)}
            want.append((outcomes, prob, factor_state(amps, len(rest), front)))
    got = enumerate_unitary_branches(up, psi)
    assert [b.outcomes for b in got] == [w[0] for w in want]
    assert len(got) == 4 ** len(groups)
    for b, (_, prob, state) in zip(got, want):
        assert b.probability == pytest.approx(prob, abs=1e-12)
        assert fidelity_up_to_phase(b.state, state) >= 1 - 1e-10
    return got


# The controlled forms as gate lists, control a and target q.
REFERENCE_CONTROLLED = {
    InstrOp.COND_X: lambda a, q: [cnot(a, q)],
    InstrOp.COND_Z: lambda a, q: [h(q), cnot(a, q), h(q)],
    InstrOp.COND_PDG: lambda a, q: [pdg(a), t(a), pdg(q), t(q), cnot(a, q), t(q), cnot(a, q)],
}


def reference_layerize(gates: list[Gate], n: int) -> LayeredCircuit:
    """layerize's greedy rule written out on its own, without the shared
    stage builder: a Clifford gate, or a second T on a qubit of the open T
    layer, closes the stage before itself."""
    stages, cliff, t_layer = [], [], set()
    for g in gates:
        if g.kind is GateKind.T:
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
    return LayeredCircuit(n, tuple(stages))


def reference_to_unitary(p: CompiledProgram) -> UnitaryProgram:
    """The conversion as one flat gate list packed afterwards
    (reference_layerize): the same walk first, the same gates in the same
    order and the same parity-qubit rule as to_unitary, with each
    BellGroup's gate_end the index in the flat list just past its rotation.
    to_unitary lays out the stages while it emits."""
    p.outcome_vars
    gates: list[Gate] = []
    var_qubits: dict[str, int] = {}
    groups = []
    next_q = p.total_qubits
    pool: dict[int, tuple[frozenset, int]] = {}  # parity qubit -> (names, constant)
    for ins in p.instructions:
        if ins.op is InstrOp.EPR:
            a, b = ins.qubits
            gates += [h(a), cnot(a, b)]
        elif ins.op is InstrOp.GATE:
            gates.append(ins.gate)
        elif ins.op is InstrOp.BELL:
            r, s = ins.qubits
            vx, vz = ins.out_vars
            anc_z, anc_x = next_q, next_q + 1
            next_q += 2
            var_qubits[vz.name] = anc_z
            var_qubits[vx.name] = anc_x
            gates += [Gate(kind, qs) for kind, qs in _bell_rotation(r, s)]
            groups.append(BellGroup(len(gates), r, s, anc_z, anc_x))
            gates += [cnot(r, anc_z), cnot(s, anc_x)]
        else:
            if ins.cond.degree > 1:
                raise ValidationError("condition degree > 1 cannot be converted to controlled gates")
            names = frozenset(v.name for v in ins.cond.variables())
            const = ins.cond.constant
            controlled = REFERENCE_CONTROLLED[ins.op]
            if len(names) == 1 and not const and ins.op is not InstrOp.COND_PDG:
                (name,) = names
                gates += controlled(var_qubits[name], ins.qubits[0])
                continue
            a, distance = None, len(names) + const
            for q, (held, c) in pool.items():
                d = len(held ^ names) + (c ^ const)
                if d < distance:
                    a, distance = q, d
            if a is None:
                a, next_q = next_q, next_q + 1
                pool[a] = frozenset(), 0
            held, c = pool[a]
            gates += [cnot(var_qubits[name], a) for name in sorted(held ^ names)]
            if c != const:
                gates.append(x(a))
            pool[a] = names, const
            gates += controlled(a, ins.qubits[0])
    return UnitaryProgram(reference_layerize(gates, next_q), p.logical_outputs, var_qubits,
                          tuple(groups))


def assert_same_conversion(got: UnitaryProgram, want: UnitaryProgram) -> None:
    assert got.circuit.n == want.circuit.n
    assert got.circuit.stages == want.circuit.stages
    assert got.logical_outputs == want.logical_outputs
    assert got.var_qubits == want.var_qubits
    assert got.bell_groups == want.bell_groups  # gate_end included


class TestAgainstTheFlatListConversion:
    """to_unitary, which lays out stages as it emits gates, against the flat
    list packed afterwards (reference_to_unitary)."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(layered_circuits(max_n=4, max_k=5))
    def test_matches_the_reference(self, c):
        p = compile_measure(c)
        assert_same_conversion(to_unitary(p), reference_to_unitary(p))

    @pytest.mark.parametrize("total,outputs,instrs,message", FAULTY.values(), ids=FAULTY.keys())
    def test_faulty_programs_are_refused_alike(self, total, outputs, instrs, message):
        p = CompiledProgram(total, outputs, tuple(instrs))
        assert refusal(lambda: to_unitary(p)) == refusal(lambda: reference_to_unitary(p)) == message

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(mutated_programs())
    def test_mutated_programs_convert_alike(self, p):
        converted = []
        got = refusal(lambda: converted.append(to_unitary(p)))
        assert got == refusal(lambda: converted.append(reference_to_unitary(p)))
        if got is None:
            assert_same_conversion(*converted)


class TestDecompositions:
    def test_controlled_pdg_exact(self):
        out = _StageBuilder()
        _cs_dag(out, 0, 1)
        got = gates_matrix(flatten(out.circuit(2)), 2)
        assert np.allclose(got, np.diag([1, 1, 1, -1j]))


class TestConversionStructure:
    def test_no_measurements_passes_gates_through(self):
        c = parse_circuit("QUBITS 2\nH 0\nCNOT 0 1\nT 1\n---")
        prog = compile_measure(c)
        up = to_unitary(prog)
        assert flatten(up.circuit) == [ins.gate for ins in prog.instructions]
        assert up.total_qubits == prog.total_qubits

    def test_bell_becomes_rotation_and_copies(self):
        prog = make_program(3, [2], [
            Instruction(InstrOp.EPR, (1, 2)),
            Instruction(InstrOp.BELL, (0, 1), out_vars=(OutcomeVar("m0x"), OutcomeVar("m0z"))),
        ])
        up = to_unitary(prog)
        gates = flatten(up.circuit)
        assert [g.kind.value for g in gates] == ["H", "CNOT", "CNOT", "H", "CNOT", "CNOT"]
        assert gates[2:4] == [Gate(*g) for g in _bell_rotation(0, 1)] == [cnot(0, 1), h(0)]
        assert up.var_qubits == {"m0z": 3, "m0x": 4}
        assert len(up.bell_groups) == 1

    def test_condition_degree_guard(self):
        # a valid program: u, v and w are read by BELLs on in-range qubits
        u, v, w, y = (OutcomeVar(s) for s in ("u", "v", "w", "y"))
        cond = KeyPoly.from_monomials([{u, v, w}])
        prog = make_program(5, [4], [
            Instruction(InstrOp.EPR, (1, 2)),
            Instruction(InstrOp.EPR, (3, 4)),
            Instruction(InstrOp.BELL, (0, 1), out_vars=(u, v)),
            Instruction(InstrOp.BELL, (2, 3), out_vars=(w, y)),
            Instruction(InstrOp.COND_X, (4,), cond=cond),
        ])
        prog.plan  # the measured program runs
        with pytest.raises(ValidationError, match="degree > 1"):
            to_unitary(prog)

    def test_unmeasured_variable_is_named(self):
        # the first unbound variable in name order, as the plan names it
        m0x, m3z, m5x = (KeyPoly.of(OutcomeVar(name)) for name in ("m0x", "m3z", "m5x"))
        prog = make_program(3, [2], [
            Instruction(InstrOp.EPR, (1, 2)),
            Instruction(InstrOp.BELL, (0, 1), out_vars=(OutcomeVar("m0x"), OutcomeVar("m0z"))),
            Instruction(InstrOp.COND_Z, (2,), cond=m0x ^ m5x ^ m3z),
        ])
        for convert in (to_unitary, lambda p: p.plan):
            with pytest.raises(ValidationError, match="^unbound outcome variable 'm3z'$"):
                convert(prog)


    @pytest.mark.parametrize("names,repeated", [
        ("abac", "a"), ("abca", "a"), ("abcc", "c"),
    ], ids=["x-twice", "x-then-z", "one-bell"])
    def test_outcome_variable_read_twice_rejected(self, names, repeated):
        # Two readouts of one variable would share one ancilla name.
        a, b, c, d = map(OutcomeVar, names)
        prog = make_program(5, [4], [
            Instruction(InstrOp.EPR, (1, 2)),
            Instruction(InstrOp.EPR, (3, 4)),
            Instruction(InstrOp.BELL, (0, 1), out_vars=(a, b)),
            Instruction(InstrOp.BELL, (2, 3), out_vars=(c, d)),
        ])
        with pytest.raises(ValidationError,
                           match=f"^outcome variable '{repeated}' is read by two BELLs$"):
            to_unitary(prog)


class TestMeasuredQubitGates:
    """A CNOT from a measured qubit of a Bell group onto a live one becomes
    an X on the target if the qubit's bit is set; any other gate on a
    measured qubit is rejected. Qubit 5, never in the window, becomes a
    parity qubit when a CNOT from a measured qubit first writes it. The
    group reads z from r = 1 and x from s = 2 and names them through its
    ancillas 3 and 4, which no gate touches."""

    def program(self, after, var_qubits=(("vr", 3), ("vs", 4))):
        gates = [h(1), h(2), *after]
        up = UnitaryProgram(layerize(gates, 6), (0,), dict(var_qubits),
                            (BellGroup(2, 1, 2, 3, 4),))
        assert flatten(up.circuit) == gates
        return up

    def test_bit_steps(self, rng):
        # X^s X^r on the output: X^(vs ^ vr) overall.
        up = self.program([cnot(2, 0), cnot(1, 0)])
        psi = random_state(rng, 1)
        branches = enumerate_unitary_branches(up, psi)
        assert sorted((b.outcomes["vr"], b.outcomes["vs"]) for b in branches) == [
            (0, 0), (0, 1), (1, 0), (1, 1)]
        for b in branches:
            assert b.probability == pytest.approx(0.25)
            want = psi.amps[::-1] if b.outcomes["vs"] ^ b.outcomes["vr"] else psi.amps
            assert fidelity_up_to_phase(b.state, init_state(1, want)) >= 1 - 1e-10

    @pytest.mark.parametrize("after,match", [([cnot(0, 1)], "quantum qubit onto a measured"),
                                             ([h(2), cnot(2, 0)], "H on a measured qubit"),
                                             ([x(1), cnot(1, 0)], "X on a measured qubit"),
                                             ([t(1), cnot(1, 0)], "T on a measured qubit"),
                                             ([cnot(1, 2), cnot(2, 0)],
                                              "measured qubit onto a measured")])
    def test_unsupported_gate_on_measured_qubit(self, rng, after, match):
        with pytest.raises(ValidationError, match=match):
            enumerate_unitary_branches(self.program(after), random_state(rng, 1))

    def test_parity_steps(self, rng):
        # qubit 5 holds vr ^ vs ^ 1 and is never allocated: X^(vr ^ vs ^ 1)
        # and a T phase on the branches where it holds 1, in two steps
        up = self.program([cnot(1, 5), cnot(2, 5), x(5), t(5), cnot(5, 0)])
        plan = _unitary_plan(up)
        assert plan.peak_width == 3
        assert sum(1 for step in plan.steps if step[0] is _COND) == 2
        psi = random_state(rng, 1)
        for b in enumerate_unitary_branches(up, psi):
            flip = b.outcomes["vr"] ^ b.outcomes["vs"] ^ 1
            want = (psi.amps[::-1] if flip else psi.amps) * (np.exp(1j * np.pi / 4) if flip else 1)
            assert np.allclose(b.state.amps, want, atol=1e-12)

    def test_unnamed_ancillas_read_unnamed_bits(self, rng):
        # no name for either ancilla: the group is still read, with no outcome
        # names, and its bits still drive the CNOT from r
        up = self.program([cnot(1, 0)], var_qubits=())
        psi = random_state(rng, 1)
        branches = enumerate_unitary_branches(up, psi)
        assert [b.outcomes for b in branches] == [{}] * 4
        for b, flip in zip(branches, (0, 1, 0, 1)):  # outcome k = 2x + z, z from r
            want = psi.amps[::-1] if flip else psi.amps
            assert fidelity_up_to_phase(b.state, init_state(1, want)) >= 1 - 1e-10

    def test_an_output_is_never_a_parity_qubit(self, rng):
        # output 5 is first written by a CNOT from measured qubit 1: it is
        # allocated and flipped on the branches where vr = 1, not left at |0>
        up = self.program([cnot(1, 5)])
        up = dataclasses.replace(up, logical_outputs=(5,))
        for b in enumerate_unitary_branches(up, random_state(rng, 1)):
            assert np.allclose(np.abs(b.state.amps), np.eye(2)[b.outcomes["vr"]], atol=1e-12)

    PARITY_ERRORS = [([cnot(1, 5), h(5), cnot(5, 0)], "H on a parity qubit"),
                     ([cnot(1, 5), cnot(0, 5), cnot(5, 0)],
                      "CNOT from a quantum qubit onto a parity qubit")]

    @pytest.mark.parametrize("after,match", PARITY_ERRORS)
    def test_unsupported_gate_on_parity_qubit_exits_3(self, monkeypatch, capsys, rng,
                                                       after, match):
        up = self.program(after)
        with pytest.raises(ValidationError, match=match):
            enumerate_unitary_branches(up, random_state(rng, 1))
        # No command runs a unitary plan, so a stubbed one shows that the
        # CLI maps the plan's error to exit 3.
        monkeypatch.setattr(cli, "cmd_stats",
                            lambda args: enumerate_unitary_branches(up, random_state(rng, 1)))
        assert cli.main(["stats", "--in", "unused.txt"]) == cli.EXIT_VALIDATION
        assert f"validation error: {match}" in capsys.readouterr().err


class TestTeleportOnly:
    def test_acts_as_identity(self, rng):
        prog = make_program(3, [2], [
            Instruction(InstrOp.EPR, (1, 2)),
            Instruction(InstrOp.BELL, (0, 1), out_vars=(OutcomeVar("m0x"), OutcomeVar("m0z"))),
            Instruction(InstrOp.COND_X, (2,), cond=KeyPoly.of(OutcomeVar("m0x"))),
            Instruction(InstrOp.COND_Z, (2,), cond=KeyPoly.of(OutcomeVar("m0z"))),
        ])
        up = to_unitary(prog)
        psi = random_state(rng, 1)
        assert fidelity_up_to_phase(run_unitary_coherently(up, psi), psi) >= 1 - 1e-10
        for b in enumerate_unitary_branches(up, psi):
            assert fidelity_up_to_phase(b.state, psi) >= 1 - 1e-10


class TestAgainstDirectUnitary:
    def test_full_coherence_small_circuits(self, rng):
        # Whole converted circuit simulated with no measurement shortcuts.
        cases = [
            "QUBITS 1\nH 0\nT 0\n---\nP 0\nT 0\n---\nH 0\nT 0\n---",
            "QUBITS 1\nT 0\n---\nH 0\nT 0\n---\nH 0\n---",
            "QUBITS 2\nH 0\nCNOT 0 1\nT 1\n---\nCNOT 1 0\nT 0\n---",
        ]
        for text in cases:
            c = parse_circuit(text)
            up = to_unitary(compile_measure(c))
            psi = random_state(rng, c.n)
            out = run_unitary_coherently(up, psi)
            assert fidelity_up_to_phase(out, apply_circuit(psi, c)) >= 1 - 1e-10

    def test_branch_harness_matches_coherent_run(self, rng):
        c = parse_circuit("QUBITS 1\nT 0\n---\nH 0\nT 0\n---\nH 0\n---")
        up = to_unitary(compile_measure(c))
        psi = random_state(rng, 1)
        coherent = run_unitary_coherently(up, psi)
        branches = enumerate_unitary_branches(up, psi)
        assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-10)
        for b in branches:
            assert fidelity_up_to_phase(b.state, coherent) >= 1 - 1e-10

    def test_random_n2_k3(self, rng):
        for _ in range(6):
            c = random_circuit(rng, 2, 3)
            psi = random_state(rng, 2)
            ref = apply_circuit(psi, c)
            up = to_unitary(compile_measure(c))
            for b in enumerate_unitary_branches(up, psi):
                assert fidelity_up_to_phase(b.state, ref) >= 1 - 1e-10


class TestDegreeTwoConditions:
    """compile_measure emits linear conditions only, and to_unitary converts
    nothing else; measure mode still runs a product condition."""

    @pytest.mark.parametrize("op", [InstrOp.COND_X, InstrOp.COND_Z, InstrOp.COND_PDG])
    def test_degree_two_is_rejected(self, op, rng):
        # Teleport twice, undo the accumulated mask, then apply the gate
        # conditioned on the product m0x*m1x.
        mx = [KeyPoly.of(OutcomeVar(f"m{i}x")) for i in (0, 1)]
        mz = [KeyPoly.of(OutcomeVar(f"m{i}z")) for i in (0, 1)]
        prog = make_program(5, [4], [
            Instruction(InstrOp.EPR, (1, 2)),
            Instruction(InstrOp.EPR, (3, 4)),
            Instruction(InstrOp.BELL, (0, 1), out_vars=(OutcomeVar("m0x"), OutcomeVar("m0z"))),
            Instruction(InstrOp.BELL, (2, 3), out_vars=(OutcomeVar("m1x"), OutcomeVar("m1z"))),
            Instruction(InstrOp.COND_X, (4,), cond=mx[0] ^ mx[1]),
            Instruction(InstrOp.COND_Z, (4,), cond=mz[0] ^ mz[1]),
            Instruction(op, (4,), cond=mx[0] * mx[1]),
        ])
        assert len(enumerate_branches(prog, random_state(rng, 1))) == 16
        with pytest.raises(ValidationError, match="degree > 1"):
            to_unitary(prog)


class TestParityAccumulation:
    def test_t_count_is_source_plus_three_per_conditioned_pdg(self, rng):
        conds = 0
        for n in (1, 2, 3):
            for k in (1, 2, 4, 6):
                c = random_circuit(rng, n, k, max_clifford=3 * n)
                prog = compile_measure(c)
                got = depth_metrics(to_unitary(prog).circuit).t_count
                assert got == depth_metrics(c).t_count + 3 * cond_pdg_count(prog)
                conds += cond_pdg_count(prog)
        assert conds > 10

    def test_branches_match_source_n3(self, rng):
        for _ in range(3):
            c = random_circuit(rng, 3, 2, max_clifford=9)
            psi = random_state(rng, 3)
            ref = apply_circuit(psi, c)
            branches = enumerate_unitary_branches(to_unitary(compile_measure(c)), psi)
            assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-10)
            for b in branches:
                assert fidelity_up_to_phase(b.state, ref) >= 1 - 1e-10

    @pytest.mark.parametrize("seed,n,k", [(3, 1, 3), (4, 2, 2), (5, 1, 4)])
    def test_parity_qubits_hold_their_parity_on_every_branch(self, seed, n, k):
        # The dense coherent run, projected onto each outcome branch: every
        # parity qubit is in the basis state of the parity it was left holding.
        rng = np.random.default_rng(seed)
        c = random_circuit(rng, n, k, max_clifford=3 * n, allow_empty_final=False)
        prog = compile_measure(c)
        up = to_unitary(prog)
        held = held_parities(up, prog.total_qubits)
        assert held and cond_pdg_count(prog) >= 1
        psi = random_state(rng, n)
        total = up.total_qubits
        full = apply_gates(padded(psi, total), flatten(up.circuit), total)
        ancillas = sorted(up.var_qubits.items())
        branches = 0
        for bits in itertools.product((0, 1), repeat=len(ancillas)):
            outcomes = {v: bit for (v, _), bit in zip(ancillas, bits)}
            amps = project(full, total, {q: bit for (_, q), bit in zip(ancillas, bits)})
            if np.linalg.norm(amps) ** 2 <= 1e-12:
                continue
            branches += 1
            for q, (names, const) in held.items():
                value = const ^ (sum(outcomes[v] for v in names) & 1)
                wrong = project(amps, total, {q: 1 - value})
                assert np.linalg.norm(wrong) == pytest.approx(0.0, abs=1e-12)
            state = factor_state(amps, total, up.logical_outputs)
            assert fidelity_up_to_phase(state, apply_circuit(psi, c)) >= 1 - 1e-10
        assert branches == 4 ** len(up.bell_groups)

    def test_pdg_on_constant_condition(self, rng):
        # Condition 1 alone: an X sets a fresh parity qubit to 1, and one
        # controlled P-dagger acts from it.
        prog = make_program(1, [0], [Instruction(InstrOp.COND_PDG, (0,), cond=KeyPoly.one())])
        up = to_unitary(prog)
        psi = random_state(rng, 1)
        want = init_state(1, psi.amps * np.array([1, -1j]))
        assert fidelity_up_to_phase(run_unitary_coherently(up, psi), want) >= 1 - 1e-10


class TestFrontierAgainstReference:
    """enumerate_unitary_branches against the conftest matrix oracle
    (assert_branches_match_the_matrix_oracle)."""

    @pytest.mark.parametrize("n,k", [(1, 2), (1, 3), (1, 4), (2, 2)])
    def test_random_circuits(self, n, k):
        rng = np.random.default_rng(10 * n + k)
        for _ in range(3):
            c = random_circuit(rng, n, k, max_clifford=3 * n)
            up = to_unitary(compile_measure(c))
            # the final corrections are CNOTs from measured ancillas: conditioned X steps
            assert any(step[0] is _COND for step in _unitary_plan(up).steps)
            assert_branches_match_the_matrix_oracle(up, random_state(rng, n))

    # Up to 4 Bell groups: the converted circuit of a 2-wire, 3-stage input
    # has 20-22 qubits, about two seconds of dense simulation each.
    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(layered_circuits(max_n=2, max_k=3))
    def test_matches_the_matrix_oracle(self, c):
        # The branches equal the converted circuit's dense run, and every one
        # of them carries the source circuit's output.
        up = to_unitary(compile_measure(c))
        psi = random_state(np.random.default_rng(c.n), c.n)
        want = StateVector(c.n, apply_gates(psi.amps, flatten(c), c.n))
        for b in assert_branches_match_the_matrix_oracle(up, psi):
            assert fidelity_up_to_phase(b.state, want) >= 1 - 1e-10

    def test_branch_explosion_guard(self, rng):
        def converted(k):
            c = random_circuit(np.random.default_rng(k), 1, k, allow_empty_final=False)
            return to_unitary(compile_measure(c))

        six, seven = converted(7), converted(8)
        assert (len(six.bell_groups), len(seven.bell_groups)) == (6, 7)
        assert len(enumerate_unitary_branches(six, random_state(rng, 1))) == 4 ** 6
        # A 2-qubit input does not fit: the guard raises before any amplitude work.
        with pytest.raises(ValidationError, match="branch explosion: 7 Bell measurements"):
            enumerate_unitary_branches(seven, random_state(rng, 2))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(layered_circuits(max_n=2, max_k=4))
def test_unitary_branches_are_the_measured_programs_branches(c):
    # Deferred measurement (Nielsen & Chuang 4.4): the converted circuit
    # reads each Bell group where the measured program reads its BELL, with
    # the same bits, so both list the same branches in the same order.
    p = compile_measure(c)
    psi = random_state(np.random.default_rng(c.n), c.n)
    got = enumerate_unitary_branches(to_unitary(p), psi)
    want = enumerate_branches(p, psi)
    assert [list(b.outcomes.items()) for b in got] == [list(b.outcomes.items()) for b in want]
    for b, w in zip(got, want):
        assert b.probability == pytest.approx(w.probability, abs=1e-12)
        assert fidelity_up_to_phase(b.state, w.state) >= 1 - 1e-12


def test_each_bell_group_is_one_two_axis_z_measurement(rng):
    for k in (2, 3, 4):
        up = to_unitary(compile_measure(random_circuit(rng, 1, k, allow_empty_final=False)))
        branches = [step for step in _unitary_plan(up).steps if step[0] is _BRANCH]
        # group j reads (s, r) as a measure plan reads its j-th BELL
        assert [step[1] for step in branches] == [
            (0, 2 << 2 * j, 1 << 2 * j, 3 << 2 * j) for j in range(len(up.bell_groups))]
        # a plain Z measurement: bit masks and a shape only, no kernels
        assert all(isinstance(v, int) for step in branches for part in step[1:] for v in part)


def test_unitary_program_sizes_are_derived(rng):
    prog = compile_measure(random_circuit(rng, 2, 3))
    up = to_unitary(prog)
    assert [f.name for f in dataclasses.fields(up)] == [
        "circuit", "logical_outputs", "var_qubits", "bell_groups"]
    assert up.n == prog.n == len(up.logical_outputs)
    parity = held_parities(up, prog.total_qubits)
    assert parity
    assert up.total_qubits == up.circuit.n == prog.total_qubits + 2 * len(up.bell_groups) + len(parity)


@pytest.mark.parametrize("n,k", [(4, 8), (4, 16), (4, 32), (4, 64), (16, 16)])
def test_rc_family_keeps_the_t_count_and_the_window(monkeypatch, n, k):
    # Each conditioned P-dagger costs 3 T gates, and neither the parity
    # qubits nor the outcome ancillas ever enter the execution window, which
    # peaks at n + 2. rc(16,16) has no plan: its window would exceed the
    # qubit cap.
    c = random_circuit(np.random.default_rng(0), n, k, max_clifford=3 * n)
    prog = compile_measure(c)
    up = to_unitary(prog)
    assert depth_metrics(up.circuit).t_count == depth_metrics(c).t_count + 3 * cond_pdg_count(prog)
    if n + 2 > MAX_QUBITS:
        return
    allocated = []
    allocate = _Schedule._allocate
    monkeypatch.setattr(_Schedule, "_allocate",
                        lambda sched, qubits: allocate(sched, allocated.extend(qubits) or qubits))
    assert _unitary_plan(up).peak_width <= n + 2
    parity = held_parities(up, prog.total_qubits)
    assert parity and parity.keys().isdisjoint(allocated)
    assert set(up.var_qubits.values()).isdisjoint(allocated)


# SHA-256 over 24 seeded circuits with n = 1..6: for each, its unitary-mode
# circuit file text, then the repr of that circuit's depth_metrics. Taken
# when each condition became one controlled gate from a parity qubit,
# after every fidelity test above passed.
CONVERSIONS = "ed54fe1e588ad60aa44225cb6e9f75718abcfcf5d2ff74c2700c3f7a4f32699e"


def test_conversions_and_their_depths_are_pinned():
    rng = np.random.default_rng(14)
    digest = hashlib.sha256()
    pdgs = 0
    for i in range(24):
        prog = compile_measure(random_circuit(rng, i % 6 + 1, int(rng.integers(1, 5))))
        pdgs += cond_pdg_count(prog)
        up = to_unitary(prog)
        digest.update(serialize_circuit_of_unitary(up).encode())
        digest.update(repr(depth_metrics(up.circuit)).encode())
    assert pdgs > 0
    assert digest.hexdigest() == CONVERSIONS
