import numpy as np
import pytest

from conftest import random_state
from tlink.circuits import ValidationError, cnot, h, t, x
from tlink.frames import PauliMask
from tlink.oracle import (
    Register,
    StateVector,
    apply_gate,
    apply_mask,
    bell_branches,
    bell_measure,
    fidelity_up_to_phase,
    init_state,
    prepare_epr,
)


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
        st = prepare_epr(init_state(2, "00"), 0, 1)
        assert np.allclose(st.amps, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])

    def test_two_disjoint_pairs(self):
        st = prepare_epr(prepare_epr(init_state(4, "0000"), 0, 1), 2, 3)
        expected = np.kron([1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)],
                           [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])
        assert np.allclose(st.amps, expected)

    def test_spectator_untouched(self, rng):
        psi = random_state(rng, 1)
        full = init_state(3, np.kron(psi.amps, [1, 0, 0, 0]))
        st = prepare_epr(full, 1, 2)
        epr = [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)]
        assert np.allclose(st.amps, np.kron(psi.amps, epr))

    def test_collision_rejected(self):
        with pytest.raises(ValidationError, match="collision"):
            prepare_epr(init_state(2, "00"), 1, 1)

    def test_non_fresh_rejected(self):
        with pytest.raises(ValidationError, match="fresh"):
            prepare_epr(init_state(2, "10"), 0, 1)


class TestBellMeasure:
    def test_epr_gives_outcome_00(self, rng):
        st = prepare_epr(init_state(2, "00"), 0, 1)
        _, rec = bell_measure(st, 0, 1, rng)
        assert rec.bits == (0, 0)

    def test_fresh_epr_halves_equiprobable(self):
        st = prepare_epr(prepare_epr(init_state(4, "0000"), 0, 1), 2, 3)
        branches = bell_branches(st, 1, 2)
        assert len(branches) == 4
        for _, _, prob, _ in branches:
            assert abs(prob - 0.25) < 1e-12

    def test_teleportation_identity(self, rng):
        # For random psi and every outcome, the partner holds X^x Z^z psi.
        for _ in range(200):
            psi = random_state(rng, 1)
            st = prepare_epr(init_state(3, np.kron(psi.amps, [1, 0, 0, 0])), 1, 2)
            for xv, zv, prob, post in bell_branches(st, 0, 1):
                assert abs(prob - 0.25) < 1e-12
                partner = Register()
                partner.load(post, [0, 1, 2])
                got = partner.extract([2])
                corrected = apply_mask(got, PauliMask((xv,), (zv,)))
                assert fidelity_up_to_phase(corrected, psi) >= 1 - 1e-10

    def test_collapse_leaves_bell_state(self, rng):
        st = prepare_epr(prepare_epr(init_state(4, "0000"), 0, 1), 2, 3)
        post, rec = bell_measure(st, 1, 2, rng)
        # measuring the measured pair again must reproduce the same outcome
        again, rec2 = bell_measure(post, 1, 2, rng)
        assert rec2.bits == rec.bits
        assert fidelity_up_to_phase(again, post) >= 1 - 1e-12

    def test_one_draw_per_measurement(self):
        class CountingRng:
            def __init__(self):
                self.calls = 0

            def random(self):
                self.calls += 1
                return 0.3

        st = prepare_epr(init_state(2, "00"), 0, 1)
        counter = CountingRng()
        bell_measure(st, 0, 1, counter)
        assert counter.calls == 1

    def test_same_qubit_rejected(self, rng):
        with pytest.raises(ValidationError, match="distinct"):
            bell_measure(init_state(2, "00"), 1, 1, rng)

    def test_sampling_matches_branch_probabilities(self):
        rng = np.random.default_rng(5)
        st = random_state(rng, 3)
        probs = {(xv, zv): pr for xv, zv, pr, _ in bell_branches(st, 0, 2)}
        shots = 10_000
        counts = {k: 0 for k in probs}
        sampler = np.random.default_rng(17)
        for _ in range(shots):
            _, rec = bell_measure(st, 0, 2, sampler)
            counts[rec.bits] += 1
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
        reg = Register()
        reg.load(psi, [0, 1])
        reg.prepare_epr(2, 3)
        reg.apply_gate(cnot(1, 2))
        flat = prepare_epr(init_state(4, np.kron(psi.amps, [1, 0, 0, 0])), 2, 3)
        flat = apply_gate(flat, cnot(1, 2))
        assert fidelity_up_to_phase(reg.extract([0, 1, 2, 3]), flat) >= 1 - 1e-12

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
