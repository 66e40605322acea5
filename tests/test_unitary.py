import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from conftest import apply_gates, factor_state, gates_matrix, project, random_circuit, random_state
from tlink.circuits import (
    Gate,
    GateKind,
    ValidationError,
    cnot,
    depth_metrics,
    flatten,
    h,
    layerize,
    parse_circuit,
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
from tlink.oracle import StateVector, _extract, apply_circuit, fidelity_up_to_phase, init_state


def make_program(total, outputs, instrs):
    return CompiledProgram(total, tuple(outputs), tuple(instrs))


def coherent_state(up: UnitaryProgram, psi) -> StateVector:
    """Plain full-width simulation of the converted circuit, no measurements:
    the input on the logical wires, |0> on every other qubit."""
    zeros = np.eye(2 ** (up.total_qubits - up.n))[0]
    return apply_circuit(init_state(up.total_qubits, np.kron(psi.amps, zeros)), up.circuit)


def outputs_of(up: UnitaryProgram, shaped: np.ndarray) -> StateVector:
    """The state on the logical wires; every other qubit must factor out."""
    return StateVector(up.n, _extract(shaped[None], list(up.logical_outputs))[0])


def run_unitary_coherently(up: UnitaryProgram, psi):
    return outputs_of(up, coherent_state(up, psi).shaped())


def cond_pdg_count(prog: CompiledProgram) -> int:
    return sum(1 for ins in prog.instructions if ins.op is InstrOp.COND_PDG)


class TestDecompositions:
    def test_controlled_pdg_exact(self):
        got = gates_matrix(_cs_dag(0, 1), 2)
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
        u, v, w = (OutcomeVar(s) for s in ("u", "v", "w"))
        cond = KeyPoly.from_monomials([{u, v, w}])
        prog = make_program(1, [0], [
            Instruction(InstrOp.EPR, (1, 2)),  # defines nothing; decoy
            Instruction(InstrOp.COND_X, (0,), cond=cond),
        ])
        with pytest.raises(ValidationError, match="degree > 1"):
            to_unitary(prog)


class TestMeasuredQubitGates:
    """A CNOT from a measured qubit of a Bell group onto a live one becomes
    an X on the target if the qubit's bit is set; any other gate on a
    measured qubit is rejected."""

    def program(self, after):
        gates = [h(1), h(2), *after]
        up = UnitaryProgram(layerize(gates, 5), (0,), {"vr": 1, "vs": 2},
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

    def test_one_scratch_qubit_returns_to_zero(self, rng):
        c = parse_circuit("QUBITS 1\nT 0\n---\nH 0\nT 0\n---\nH 0\n---")
        prog = compile_measure(c)
        assert cond_pdg_count(prog) >= 1
        up = to_unitary(prog)
        extra = set(range(prog.total_qubits, up.total_qubits)) - set(up.var_qubits.values())
        assert len(extra) == 1
        scratch = extra.pop()
        psi = random_state(rng, 1)
        full = coherent_state(up, psi).shaped()
        assert np.sum(np.abs(np.take(full, 1, axis=scratch)) ** 2) == pytest.approx(0.0, abs=1e-12)
        assert fidelity_up_to_phase(outputs_of(up, full), apply_circuit(psi, c)) >= 1 - 1e-10

    def test_pdg_on_constant_condition(self, rng):
        # Condition 1 alone: X on the scratch, controlled P-dagger, X back.
        prog = make_program(1, [0], [Instruction(InstrOp.COND_PDG, (0,), cond=KeyPoly.one())])
        up = to_unitary(prog)
        psi = random_state(rng, 1)
        want = init_state(1, psi.amps * np.array([1, -1j]))
        assert fidelity_up_to_phase(run_unitary_coherently(up, psi), want) >= 1 - 1e-10


class TestFrontierAgainstReference:
    """enumerate_unitary_branches against the conftest matrix oracle: the
    whole converted circuit run coherently, then projected onto each branch's
    outcome ancillas."""

    @pytest.mark.parametrize("n,k", [(1, 2), (1, 3), (1, 4), (2, 2)])
    def test_random_circuits(self, n, k):
        rng = np.random.default_rng(10 * n + k)
        for _ in range(3):
            c = random_circuit(rng, n, k, max_clifford=3 * n)
            up = to_unitary(compile_measure(c))
            # the final corrections are CNOTs from measured ancillas: conditioned X steps
            assert any(step[0] is _COND for step in _unitary_plan(up).steps)
            psi = random_state(rng, n)
            total = up.total_qubits
            full = apply_gates(np.kron(psi.amps, np.eye(2 ** (total - n))[0]),
                               flatten(up.circuit), total)
            var_of = {q: v for v, q in up.var_qubits.items()}
            groups = [(var_of[g.anc_z], var_of[g.anc_x]) for g in up.bell_groups]
            want = []
            # The plan measures r (the z bit) before s (the x bit): per group,
            # branches come in lexicographic (z, x) order.
            for choice in itertools.product(((0, 0), (0, 1), (1, 0), (1, 1)), repeat=len(groups)):
                outcomes = {v: bit for (vz, vx), (zv, xv) in zip(groups, choice)
                            for v, bit in ((vz, zv), (vx, xv))}
                amps = project(full, total, {up.var_qubits[v]: bit for v, bit in outcomes.items()})
                prob = float(np.linalg.norm(amps) ** 2)
                if prob > 1e-12:
                    want.append((outcomes, prob, factor_state(amps, total, up.logical_outputs)))
            got = enumerate_unitary_branches(up, psi)
            assert [b.outcomes for b in got] == [w[0] for w in want]
            assert len(got) == 4 ** len(groups)
            for b, (_, prob, state) in zip(got, want):
                assert b.probability == pytest.approx(prob, abs=1e-12)
                assert fidelity_up_to_phase(b.state, state) >= 1 - 1e-10

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


def test_each_bell_group_is_one_four_axis_z_measurement(rng):
    for k in (2, 3, 4):
        up = to_unitary(compile_measure(random_circuit(rng, 1, k, allow_empty_final=False)))
        branches = [step for step in _unitary_plan(up).steps if step[0] is _BRANCH]
        assert [len(step[1]) for step in branches] == [16] * len(up.bell_groups)
        # a plain Z measurement: bit masks and a shape only, no kernels
        assert all(isinstance(v, int) for step in branches for part in step[1:] for v in part)


def test_unitary_program_sizes_are_derived(rng):
    prog = compile_measure(random_circuit(rng, 2, 3))
    up = to_unitary(prog)
    assert [f.name for f in dataclasses.fields(up)] == [
        "circuit", "logical_outputs", "var_qubits", "bell_groups"]
    assert up.n == prog.n == len(up.logical_outputs)
    scratch = 1 if cond_pdg_count(prog) else 0
    assert up.total_qubits == up.circuit.n == prog.total_qubits + 2 * len(up.bell_groups) + scratch


# SHA-256 over 24 seeded circuits with n = 1..6: for each, its unitary-mode
# circuit file text, then the repr of that circuit's depth_metrics. Taken
# before the per-gate check, the ASAP depth loop, the gate parser and
# compile_measure's gate mapping were rewritten for speed.
CONVERSIONS = "e83aebafb6ae1c52aa5f82611c57d23a193245314efee09882a90b73221cdc08"


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
