import numpy as np
import pytest

from conftest import gates_matrix, random_state
from tlink.circuits import ValidationError, cnot, h, t, x
from tlink.frames import PauliMask
from tlink.oracle import (
    Register,
    StateVector,
    apply_gate,
    apply_mask,
    fidelity_up_to_phase,
    init_state,
)

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


def register_with(state, qubits):
    reg = Register()
    reg.load(state, qubits)
    return reg


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

    def test_qubit_cap(self):
        with pytest.raises(ValidationError, match="cap"):
            init_state(15, "0" * 15)


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
        reg = Register()
        reg.prepare_epr(0, 1)
        want = gates_matrix([h(0), cnot(0, 1)], 2) @ zeros(2)
        assert np.allclose(reg.extract([0, 1]).amps, want)

    def test_two_disjoint_pairs(self):
        reg = Register()
        reg.prepare_epr(0, 1)
        reg.prepare_epr(2, 3)
        want = gates_matrix([h(0), cnot(0, 1), h(2), cnot(2, 3)], 4) @ zeros(4)
        assert np.allclose(reg.extract([0, 1, 2, 3]).amps, want)
        assert np.allclose(want, np.kron(EPR, EPR))

    def test_spectator_untouched(self, rng):
        psi = random_state(rng, 1)
        reg = register_with(psi, [0])
        reg.prepare_epr(1, 2)
        assert np.allclose(reg.extract([0, 1, 2]).amps, np.kron(psi.amps, EPR))

    def test_collision_rejected(self):
        with pytest.raises(ValidationError, match="collision"):
            Register().prepare_epr(1, 1)

    def test_non_fresh_rejected(self):
        reg = register_with(init_state(1, "1"), [0])
        with pytest.raises(ValidationError, match="already in use"):
            reg.prepare_epr(0, 1)


class TestBellMeasure:
    def test_epr_gives_outcome_00(self, rng):
        reg = Register()
        reg.prepare_epr(0, 1)
        assert reg.bell_measure(0, 1, rng) == (0, 0)

    def test_fresh_epr_halves_equiprobable(self):
        reg = Register()
        reg.prepare_epr(0, 1)
        reg.prepare_epr(2, 3)
        probs = reg.bell_probs(1, 2)
        flat = np.kron(EPR, EPR)
        for xv in (0, 1):
            for zv in (0, 1):
                assert abs(probs[zv, xv] - 0.25) < 1e-12
                assert abs(matrix_bell(flat, 4, 1, 2, xv, zv)[0] - 0.25) < 1e-12

    def test_teleportation_identity(self, rng):
        # For random psi and every outcome, the partner holds X^x Z^z psi.
        for _ in range(200):
            psi = random_state(rng, 1)
            reg = register_with(psi, [0])
            reg.prepare_epr(1, 2)
            for xv in (0, 1):
                for zv in (0, 1):
                    post = reg.clone()
                    prob = post.project_bell(0, 1, xv, zv)
                    assert abs(prob - 0.25) < 1e-12
                    got = post.extract([2])
                    _, want = matrix_bell(np.kron(psi.amps, EPR), 3, 0, 1, xv, zv)
                    assert fidelity_up_to_phase(got, StateVector(1, want)) >= 1 - 1e-12
                    corrected = apply_mask(got, PauliMask((xv,), (zv,)))
                    assert fidelity_up_to_phase(corrected, psi) >= 1 - 1e-10

    def test_collapse_leaves_bell_state(self, rng):
        # Entanglement swapping: measuring the inner halves of two pairs
        # leaves the outer halves in the Bell state of the same outcome.
        reg = Register()
        reg.prepare_epr(0, 1)
        reg.prepare_epr(2, 3)
        xv, zv = reg.bell_measure(1, 2, rng)
        _, want = matrix_bell(np.kron(EPR, EPR), 4, 1, 2, xv, zv)
        assert fidelity_up_to_phase(reg.extract([0, 3]), StateVector(2, want)) >= 1 - 1e-12
        probs = reg.bell_probs(0, 3)
        assert probs[zv, xv] == pytest.approx(1.0, abs=1e-12)

    def test_one_draw_per_measurement(self):
        class CountingRng:
            def __init__(self):
                self.calls = 0

            def random(self):
                self.calls += 1
                return 0.3

        reg = Register()
        reg.prepare_epr(0, 1)
        counter = CountingRng()
        reg.bell_measure(0, 1, counter)
        assert counter.calls == 1

    def test_same_qubit_rejected(self, rng):
        reg = register_with(init_state(2, "00"), [0, 1])
        with pytest.raises(ValidationError, match="distinct"):
            reg.bell_measure(1, 1, rng)

    def test_sampling_matches_branch_probabilities(self):
        rng = np.random.default_rng(5)
        st = random_state(rng, 3)
        base = register_with(st, [0, 1, 2])
        got = base.bell_probs(0, 2)
        probs = {}
        for xv in (0, 1):
            for zv in (0, 1):
                probs[(xv, zv)] = matrix_bell(st.amps, 3, 0, 2, xv, zv)[0]
                assert got[zv, xv] == pytest.approx(probs[(xv, zv)], abs=1e-12)
        shots = 10_000
        counts = {k: 0 for k in probs}
        sampler = np.random.default_rng(17)
        for _ in range(shots):
            counts[base.clone().bell_measure(0, 2, sampler)] += 1
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
    def test_matches_flat_state_ops(self, rng):
        psi = random_state(rng, 2)
        reg = register_with(psi, [0, 1])
        reg.prepare_epr(2, 3)
        reg.apply_gate(cnot(1, 2))
        flat = gates_matrix([h(2), cnot(2, 3), cnot(1, 2)], 4) @ np.kron(psi.amps, zeros(2))
        assert fidelity_up_to_phase(reg.extract([0, 1, 2, 3]), StateVector(4, flat)) >= 1 - 1e-12

    def test_bell_drop_keeps_partner_state(self, rng):
        psi = random_state(rng, 1)
        reg = Register()
        reg.load(psi, [0])
        reg.prepare_epr(1, 2)
        xv, zv = reg.bell_measure(0, 1, rng)
        assert reg.qubits == {2}
        got = apply_mask(reg.extract([2]), PauliMask((xv,), (zv,)))
        assert fidelity_up_to_phase(got, psi) >= 1 - 1e-10

    def test_epr_on_live_qubit_rejected(self):
        reg = Register()
        reg.prepare_epr(1, 2)
        with pytest.raises(ValidationError, match="already in use"):
            reg.prepare_epr(1, 2)

    def test_measured_qubit_is_retired(self, rng):
        reg = Register()
        reg.load(random_state(rng, 1), [0])
        reg.prepare_epr(1, 2)
        reg.bell_measure(0, 1, rng)
        for reuse in (lambda: reg.alloc(1), lambda: reg.load(random_state(rng, 1), [0]),
                      lambda: reg.prepare_epr(1, 3), lambda: reg.clone().alloc(0)):
            with pytest.raises(ValidationError, match="already measured"):
                reuse()
        reg.alloc(3)  # an untouched qubit is still fresh

    def test_extract_rejects_entangled_cut(self):
        reg = Register()
        reg.load(init_state(2, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)]), [0, 1])
        with pytest.raises(ValidationError, match="entangled"):
            reg.extract([0])

    def test_extract_factors_product(self, rng):
        psi = random_state(rng, 1)
        phi = random_state(rng, 2)
        reg = Register()
        reg.load(psi, [5])
        reg.load(phi, [7, 9])
        assert fidelity_up_to_phase(reg.extract([5]), psi) >= 1 - 1e-12
        assert fidelity_up_to_phase(reg.extract([7, 9]), phi) >= 1 - 1e-12

    def test_window_cap(self, rng):
        reg = Register()
        reg.load(random_state(rng, 1), [0])
        with pytest.raises(ValidationError, match="cap"):
            for i in range(1, 20):
                reg.alloc(i)
