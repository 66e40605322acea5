import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gates_matrix, random_state, rotation_twin
from tlink.circuits import ValidationError, cnot, h, t, x
from tlink.compiler import (
    _TELEPORT,
    _gather,
    CompiledProgram,
    Instruction,
    InstrOp,
    enumerate_branches,
    execute,
    parse_program,
)
from tlink.frames import OutcomeVar, PauliMask
from tlink.oracle import (
    MAX_QUBITS,
    StateVector,
    _extract,
    _normalized,
    apply_gate,
    apply_mask,
    fidelity_up_to_phase,
    init_state,
)
from tlink.oracle import random_state as oracle_random_state

EPR = np.array([1, 0, 0, 1]) / np.sqrt(2)


def zeros(n):
    return np.eye(2 ** n)[0]


def matrix_bell(amps, n, r, s, xv, zv):
    """Matrix-oracle Bell measurement of (r, s): rotate by CNOT(r, s) then
    H(r), keep z on r and x on s. Returns the outcome probability and the
    normalized state of the other qubits in index order."""
    rot = (gates_matrix([cnot(r, s), h(r)], n) @ amps).reshape((2,) * n)
    idx = [slice(None)] * n
    idx[r], idx[s] = zv, xv
    part = rot[tuple(idx)].reshape(-1)
    prob = float(np.vdot(part, part).real)
    return prob, part / np.sqrt(prob) if prob > 0 else part


# The Bell and EPR conventions are checked on small programs run by the
# compiler's execution plan, the one executor: inputs are qubits 0..n-1, and
# the rest of the window must factor out of the OUT qubits.

def run_once(text, state, rng=None):
    return execute(parse_program(text), state, rng or np.random.default_rng(0))


def raw_program(instr):
    """A one-instruction program that parse_program would refuse."""
    return CompiledProgram(3, (0,), (instr,))


TELEPORT = "QUBITS 3\nEPR 1 2\nBELL 0 1 -> x z\nOUT 0 2\n"


class TestInitState:
    def test_basis_zero(self):
        st = init_state(1, "0")
        assert np.allclose(st.amps, [1, 0])

    def test_basis_11(self):
        st = init_state(2, "11")
        assert np.allclose(st.amps, [0, 0, 0, 1])

    def test_amplitude_input(self, rng):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        st = init_state(1, amps)
        assert np.allclose(st.amps, amps)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValidationError, match="norm"):
            init_state(1, [1.0, 1.0])

    @pytest.mark.parametrize("bad,norm", [(np.nan, "nan"), (complex(0, np.nan), "nan"),
                                          (np.inf, "inf")])
    def test_non_finite_amplitude_rejected(self, bad, norm):
        # NaN compares false with any tolerance, so only a norm within it
        # passes; a NaN state would run to NaN branches.
        with pytest.raises(ValidationError, match=f"state norm {norm} is not 1"):
            init_state(1, [bad, 0])

    def test_qubit_cap(self):
        with pytest.raises(ValidationError, match="cap"):
            init_state(15, "0" * 15)

    def test_qubit_cap_comes_before_allocation(self):
        # 2^40 amplitudes would be 16 TiB: the cap must refuse them first,
        # and random_state must refuse before drawing from the generator.
        with pytest.raises(ValidationError, match="40 qubits exceeds the 14-qubit cap"):
            init_state(40, "0" * 40)
        gen = np.random.default_rng(0)
        with pytest.raises(ValidationError, match="40 qubits exceeds the 14-qubit cap"):
            oracle_random_state(40, gen)
        assert gen.random() == np.random.default_rng(0).random()

    @pytest.mark.parametrize("n,basis", [(0, ""), (0, [1]), (-1, []), (-1, "")])
    def test_non_positive_qubit_count_rejected(self, n, basis):
        # The circuit reader's message, before the basis or the amplitudes
        # are read and before random_state draws.
        with pytest.raises(ValidationError, match="^qubit count must be positive$"):
            init_state(n, basis)
        gen = np.random.default_rng(0)
        with pytest.raises(ValidationError, match="^qubit count must be positive$"):
            oracle_random_state(n, gen)
        assert gen.random() == np.random.default_rng(0).random()


class TestGates:
    def test_h_makes_plus(self):
        st = apply_gate(init_state(1, "0"), h(0))
        assert np.allclose(st.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_t_phases_one(self):
        st = apply_gate(init_state(1, "1"), t(0))
        assert np.allclose(st.amps, [0, np.exp(1j * np.pi / 4)])

    def test_x_flips(self):
        st = apply_gate(init_state(1, "0"), x(0))
        assert np.allclose(st.amps, [0, 1])

    def test_norm_preserved(self, rng):
        st = random_state(rng, 3)
        for g in (h(1), cnot(0, 2), t(2), x(0)):
            st = apply_gate(st, g)
            assert abs(np.linalg.norm(st.amps) - 1.0) < 1e-12


class TestEpr:
    def test_pair_amplitudes(self):
        out, _ = run_once("QUBITS 4\nEPR 2 3\nOUT 0 2\nOUT 1 3\n", init_state(2, "00"))
        want = gates_matrix([h(0), cnot(0, 1)], 2) @ zeros(2)
        assert fidelity_up_to_phase(out, StateVector(2, want)) >= 1 - 1e-12

    def test_two_disjoint_pairs(self):
        text = "QUBITS 8\nEPR 4 5\nEPR 6 7\n" + "".join(f"OUT {j} {j + 4}\n" for j in range(4))
        out, _ = run_once(text, init_state(4, "0000"))
        want = gates_matrix([h(0), cnot(0, 1), h(2), cnot(2, 3)], 4) @ zeros(4)
        assert fidelity_up_to_phase(out, StateVector(4, want)) >= 1 - 1e-12
        assert np.allclose(want, np.kron(EPR, EPR))

    def test_spectator_untouched(self, rng):
        psi = random_state(rng, 1)
        start = StateVector(3, np.kron(psi.amps, zeros(2)))
        out, _ = run_once("QUBITS 5\nEPR 3 4\nOUT 0 0\nOUT 1 3\nOUT 2 4\n", start)
        assert fidelity_up_to_phase(out, StateVector(3, np.kron(psi.amps, EPR))) >= 1 - 1e-12

    def test_collision_rejected(self):
        prog = raw_program(Instruction(InstrOp.EPR, (1, 1)))
        with pytest.raises(ValidationError, match="collision"):
            execute(prog, init_state(1, "0"), np.random.default_rng(0))

    def test_non_fresh_rejected(self):
        with pytest.raises(ValidationError, match="already in use"):
            run_once("QUBITS 2\nEPR 0 1\nOUT 0 1\n", init_state(1, "1"))


class TestBellMeasure:
    @pytest.mark.parametrize("names,repeated", [
        ("abac", "a"), ("abca", "a"), ("abcc", "c"),
    ], ids=["x-twice", "x-then-z", "one-bell"])
    def test_outcome_variable_read_twice_rejected(self, names, repeated):
        # parse_program refuses these in text. A hand-built program used to
        # run with both readouts merged into one bit; the plan refuses it.
        a, b, c, d = map(OutcomeVar, names)
        prog = CompiledProgram(5, (4,), (
            Instruction(InstrOp.EPR, (1, 2)),
            Instruction(InstrOp.EPR, (3, 4)),
            Instruction(InstrOp.BELL, (0, 1), out_vars=(a, b)),
            Instruction(InstrOp.BELL, (2, 3), out_vars=(c, d)),
        ))
        with pytest.raises(ValidationError,
                           match=f"^outcome variable '{repeated}' is read by two BELLs$"):
            execute(prog, init_state(1, "0"), np.random.default_rng(0))

    def test_epr_gives_outcome_00(self, rng):
        _, bits = run_once("QUBITS 3\nEPR 1 2\nBELL 1 2 -> x z\nOUT 0 0\n", init_state(1, "0"), rng)
        assert bits == {"x": 0, "z": 0}

    def test_fresh_epr_halves_equiprobable(self):
        prog = parse_program("QUBITS 5\nEPR 1 2\nEPR 3 4\nBELL 2 3 -> x z\nOUT 0 0\n")
        branches = enumerate_branches(prog, init_state(1, "0"))
        assert len(branches) == 4
        flat = np.kron(EPR, EPR)
        for br in branches:
            xv, zv = br.outcomes["x"], br.outcomes["z"]
            assert abs(br.probability - 0.25) < 1e-12
            assert abs(matrix_bell(flat, 4, 1, 2, xv, zv)[0] - 0.25) < 1e-12

    def test_teleportation_identity(self, rng):
        # For random psi and every outcome, the partner holds X^x Z^z psi.
        prog = parse_program(TELEPORT)
        for _ in range(200):
            psi = random_state(rng, 1)
            branches = enumerate_branches(prog, psi)
            assert len(branches) == 4
            for br in branches:
                xv, zv = br.outcomes["x"], br.outcomes["z"]
                assert abs(br.probability - 0.25) < 1e-12
                _, want = matrix_bell(np.kron(psi.amps, EPR), 3, 0, 1, xv, zv)
                assert fidelity_up_to_phase(br.state, StateVector(1, want)) >= 1 - 1e-12
                corrected = apply_mask(br.state, PauliMask((xv,), (zv,)))
                assert fidelity_up_to_phase(corrected, psi) >= 1 - 1e-10

    def test_collapse_leaves_bell_state(self, rng):
        # Entanglement swapping: measuring the inner halves of two pairs
        # leaves the outer halves in the Bell state of the same outcome.
        swap = "QUBITS 6\nEPR 2 3\nEPR 4 5\nBELL 3 4 -> x z\n"
        out, bits = run_once(swap + "OUT 0 2\nOUT 1 5\n", init_state(2, "00"), rng)
        _, want = matrix_bell(np.kron(EPR, EPR), 4, 1, 2, bits["x"], bits["z"])
        assert fidelity_up_to_phase(out, StateVector(2, want)) >= 1 - 1e-12
        prog = parse_program(swap + "BELL 2 5 -> u v\nOUT 0 0\nOUT 1 1\n")
        branches = enumerate_branches(prog, init_state(2, "00"))
        assert len(branches) == 4
        for br in branches:
            assert (br.outcomes["u"], br.outcomes["v"]) == (br.outcomes["x"], br.outcomes["z"])

    def test_one_draw_per_measurement(self):
        # A shot draws one uniform per Bell measurement, all of them in one
        # call before its first step.
        class CountingRng:
            def __init__(self):
                self.sizes = []

            def random(self, size=None):
                self.sizes.append(size)
                return 0.3 if size is None else np.full(size, 0.3)

        counter = CountingRng()
        text = "QUBITS 5\nEPR 1 2\nEPR 3 4\nBELL 0 1 -> a b\nBELL 2 3 -> c d\nOUT 0 4\n"
        run_once(text, init_state(1, "0"), counter)
        assert counter.sizes == [2]

    @pytest.mark.parametrize("u,z", [(0.0, 0), (0.3, 0), (0.7, 1)])
    def test_draw_walks_outcomes_in_order(self, u, z):
        # |0> against a fresh |0>: outcomes k = 2x + z have probabilities
        # 1/2, 1/2, 0, 0, so the running total passes u at z = 0 when u is
        # below 1/2 and at z = 1 above it.
        class FixedRng:
            def random(self, size=None):
                return u if size is None else np.full(size, u)

        _, bits = run_once("QUBITS 3\nBELL 0 1 -> x z\nOUT 0 2\n", init_state(1, "0"), FixedRng())
        assert bits == {"x": 0, "z": z}

    def test_same_qubit_rejected(self):
        prog = raw_program(Instruction(InstrOp.BELL, (1, 1), out_vars=(OutcomeVar("x"), OutcomeVar("z"))))
        with pytest.raises(ValidationError, match="distinct"):
            execute(prog, init_state(1, "0"), np.random.default_rng(0))

    def test_sampling_matches_branch_probabilities(self):
        # Bell-measure qubits 0 and 2 of a random 3-qubit input; qubits 3
        # and 4 are fresh |0> outputs that keep the output count at 3.
        rng = np.random.default_rng(5)
        st = random_state(rng, 3)
        prog = parse_program("QUBITS 5\nBELL 0 2 -> x z\nOUT 0 1\nOUT 1 3\nOUT 2 4\n")
        probs = {}
        for br in enumerate_branches(prog, st):
            key = (br.outcomes["x"], br.outcomes["z"])
            probs[key] = matrix_bell(st.amps, 3, 0, 2, *key)[0]
            assert br.probability == pytest.approx(probs[key], abs=1e-12)
        assert len(probs) == 4
        shots = 10_000
        counts = {k: 0 for k in probs}
        sampler = np.random.default_rng(17)
        for _ in range(shots):
            bits = execute(prog, st, sampler)[1]
            counts[(bits["x"], bits["z"])] += 1
        for key, pr in probs.items():
            bound = 3 * np.sqrt(pr * (1 - pr) / shots)
            assert abs(counts[key] / shots - pr) <= bound + 1e-9


class TestApplyMask:
    def test_zero_mask_is_identity(self, rng):
        st = random_state(rng, 2)
        assert fidelity_up_to_phase(apply_mask(st, PauliMask.zero(2)), st) >= 1 - 1e-12

    def test_double_application_identity_up_to_phase(self, rng):
        st = random_state(rng, 2)
        m = PauliMask((1, 0), (1, 1))
        twice = apply_mask(apply_mask(st, m), m)
        assert fidelity_up_to_phase(twice, st) >= 1 - 1e-12

    def test_undoes_pauli_error(self, rng):
        psi = random_state(rng, 1)
        damaged = apply_gate(psi, x(0))
        damaged = StateVector(1, damaged.amps * 1j)  # arbitrary phase
        fixed = apply_mask(damaged, PauliMask((1,), (0,)))
        assert fidelity_up_to_phase(fixed, psi) >= 1 - 1e-12


class TestFidelity:
    def test_self_is_one(self, rng):
        st = random_state(rng, 2)
        assert fidelity_up_to_phase(st, st) == pytest.approx(1.0)

    def test_phase_invariant(self, rng):
        st = random_state(rng, 2)
        rotated = StateVector(2, st.amps * np.exp(0.7j))
        assert fidelity_up_to_phase(st, rotated) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        assert fidelity_up_to_phase(init_state(1, "0"), init_state(1, "1")) == pytest.approx(0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            fidelity_up_to_phase(init_state(1, "0"), init_state(2, "00"))


class TestRegister:
    """The execution plan's register window: live qubits, measured pairs
    dropped and retired, extraction and the size cap."""

    def test_matches_flat_state_ops(self, rng):
        psi = random_state(rng, 2)
        start = StateVector(4, np.kron(psi.amps, zeros(2)))
        text = "QUBITS 6\nEPR 4 5\nCNOT 1 4\nOUT 0 0\nOUT 1 1\nOUT 2 4\nOUT 3 5\n"
        out, _ = run_once(text, start)
        flat = gates_matrix([h(2), cnot(2, 3), cnot(1, 2)], 4) @ np.kron(psi.amps, zeros(2))
        assert fidelity_up_to_phase(out, StateVector(4, flat)) >= 1 - 1e-12

    def test_bell_drop_keeps_partner_state(self, rng):
        # The rotation twin allocates the pair, measures (0, 1) and drops it.
        psi = random_state(rng, 1)
        prog = rotation_twin(parse_program(TELEPORT))
        out, outcomes = execute(prog, psi, rng)
        assert prog.plan.peak_width == 3
        # the measured pair's axes are gone: the final gather is on one qubit
        assert prog.plan.n == 1 and prog.plan.steps[-1][2][-1] == (-1, 2)
        got = apply_mask(out, PauliMask((outcomes["x"],), (outcomes["z"],)))
        assert fidelity_up_to_phase(got, psi) >= 1 - 1e-10

    def test_teleport_step_moves_the_state_onto_the_partner(self, rng):
        # Against a fresh pair the Bell measurement is one teleport step: the
        # window never grows past the carrier, which the partner replaces.
        psi = random_state(rng, 1)
        prog = parse_program(TELEPORT)
        for _ in range(8):
            out, outcomes = execute(prog, psi, rng)
            got = apply_mask(out, PauliMask((outcomes["x"],), (outcomes["z"],)))
            assert fidelity_up_to_phase(got, psi) >= 1 - 1e-12
        (op, bits, bit), last = prog.plan.steps  # the teleport step, then the final gather
        assert op is _TELEPORT and bits == (0, 2, 1, 3)  # k = 2x + z sets x's bit 1, z's bit 2
        assert bit == 1  # the carrier's slot, the one slot of the window
        assert last[1] is _gather and last[2][-1] == (-1, 2)  # still one slot
        assert prog.plan.names == (("x", 1), ("z", 2))
        assert prog.plan.peak_width == 1 and prog.plan.n == 1

    def test_epr_on_live_qubit_rejected(self):
        with pytest.raises(ValidationError, match="already in use"):
            parse_program("QUBITS 3\nEPR 1 2\nEPR 1 2\nOUT 0 0\n").plan

    def test_measured_qubit_is_retired(self):
        base = "QUBITS 4\nEPR 1 2\nBELL 0 1 -> x z\n"
        for reuse in ("EPR 1 3\n", "H 1\n", "X 0 IF x\n", "CNOT 2 0\n"):
            with pytest.raises(ValidationError, match="already measured"):
                parse_program(base + reuse + "OUT 0 2\n").plan
        parse_program(base + "H 3\nOUT 0 3\n").plan  # an untouched qubit is still fresh

    def test_extract_rejects_entangled_cut(self):
        bell_pair = init_state(2, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])
        with pytest.raises(ValidationError, match="entangled"):
            run_once("QUBITS 3\nOUT 0 0\nOUT 1 2\n", bell_pair)

    def test_extract_factors_product(self, rng):
        psi = random_state(rng, 1)
        phi = random_state(rng, 2)
        start = StateVector(3, np.kron(psi.amps, phi.amps))
        out, _ = run_once("QUBITS 5\nOUT 0 1\nOUT 1 2\nOUT 2 3\n", start)
        assert fidelity_up_to_phase(out, StateVector(3, np.kron(phi.amps, zeros(1)))) >= 1 - 1e-12
        out, _ = run_once("QUBITS 5\nOUT 0 0\nOUT 1 3\nOUT 2 4\n", start)
        assert fidelity_up_to_phase(out, StateVector(3, np.kron(psi.amps, zeros(2)))) >= 1 - 1e-12

    @pytest.mark.parametrize("front", [1, 2])
    def test_extract_tie_is_the_lowest_column(self, front, rng):
        # Two rest columns of equal norm, the second i times the first, as the
        # halves of an unused pair can be. Whichever of them rounding makes
        # the larger (column 1 nudged up or down until its computed norm
        # moves by an ulp or so), column 0 is taken, unchanged, so the state
        # and its global phase stay the same.
        col = random_state(rng, front).amps

        def columns(direction):
            # [col, i col], the second moved an ulp at a time until its norm,
            # computed as _extract computes it, is larger (1) or smaller (-1)
            mats = np.stack([col, 1j * col], axis=1)
            while direction and (np.diff(np.linalg.norm(mats, axis=0))[0] * direction <= 0):
                re, im = mats[:, 1].real, mats[:, 1].imag
                mats[:, 1] = (np.nextafter(re, np.copysign(np.inf, re) * direction)
                              + 1j * np.nextafter(im, np.copysign(np.inf, im) * direction))
            assert abs(np.linalg.norm(mats[:, 1]) / np.linalg.norm(col) - 1) < 1e-14
            return mats.reshape((1,) + (2,) * (front + 1))

        got = [_extract(columns(direction), front)[0] for direction in (1, 0, -1)]
        for vec in got:
            assert np.array_equal(vec, got[1])
        assert np.allclose(got[1], col / np.linalg.norm(col), rtol=0, atol=1e-15)  # column 0

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(rows=st.integers(1, 4), cols=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
    def test_normalized_is_division_by_linalg_norm(self, rows, cols, seed):
        # The one row normalization of both extraction paths gives the bytes
        # of np.linalg.norm's, for rows short and longer than numpy's
        # pairwise summation block of 128.
        rng = np.random.default_rng(seed)
        vecs = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        want = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        assert _normalized(vecs).tobytes() == want.tobytes()

    def test_window_cap(self):
        text = (f"QUBITS {MAX_QUBITS + 1}\n" + "".join(f"CNOT 0 {q}\n" for q in range(1, MAX_QUBITS + 1))
                + "OUT 0 0\n")
        with pytest.raises(ValidationError, match="cap"):
            parse_program(text).plan
