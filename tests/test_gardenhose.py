import dataclasses
import itertools

import numpy as np
import pytest

from conftest import random_circuit, random_state
from tlink.circuits import ValidationError, parse_circuit
from tlink.compiler import InstrOp, enumerate_branches
from tlink.frames import KeyPoly, OutcomeVar, Owner, SymbolicMask, cross_terms, poly_eval
from tlink.gardenhose import (
    CausalityResult,
    Event,
    ProtocolTranscript,
    ResourcePlan,
    _gadget_frame_update,
    _split_key_by_owner,
    analyze_cross_terms,
    causality_check,
    gadget_keys,
    gadget_program,
    gadget_truth_table,
    protocol_program,
    run_gadget,
    run_protocol1,
)
from tlink.oracle import apply_circuit, apply_mask, fidelity_up_to_phase, init_state

GADGET_VARS = ["bx", "bz", "a1x", "a1z", "a2x", "a2z"]


class TestRunGadget:
    def test_p0_q1_routes_out1_with_correction(self, rng):
        res = run_gadget(0, 1, random_state(rng, 1), rng=rng)
        assert res.output_qubit == "out1"
        assert res.applied_pdg == 1

    def test_p1_q1_no_net_correction(self, rng):
        res = run_gadget(1, 1, random_state(rng, 1), rng=rng)
        assert res.output_qubit == "out2"
        assert res.applied_pdg == 0

    def test_p0_q0_restores_input_on_every_branch(self, rng):
        psi = random_state(rng, 1)
        branches = enumerate_branches(gadget_program(0, 0), psi)
        assert len(branches) == 64
        assert sum(br.probability for br in branches) == pytest.approx(1.0, abs=1e-10)
        for br in branches:
            fixed = apply_mask(br.state, gadget_keys(0, 0).evaluate(br.outcomes))
            assert fidelity_up_to_phase(fixed, psi) >= 1 - 1e-10

    def test_records_and_pair_budget(self, rng):
        ops = [ins.op for ins in gadget_program(1, 0).instructions]
        assert ops.count(InstrOp.EPR) == 4
        assert ops.count(InstrOp.BELL) == 3
        res = run_gadget(1, 0, random_state(rng, 1), rng=rng)
        assert set(res.outcomes) == set(GADGET_VARS)

    @pytest.mark.parametrize("q", [0, 1])
    def test_alice_bit_is_a_condition(self, q):
        # Alice's P-dagger goes on pairing 1 iff q = 1, on pairing 2 iff q = 0.
        conds = [ins.cond for ins in gadget_program(0, q).instructions
                 if ins.op is InstrOp.COND_PDG]
        assert conds == [KeyPoly.from_bit(q), KeyPoly.from_bit(q ^ 1)]

    def test_result_stores_only_its_inputs(self, rng):
        res = run_gadget(1, 0, random_state(rng, 1), rng=rng)
        assert [f.name for f in dataclasses.fields(res)] == ["p", "q", "outcomes", "state"]
        assert (res.output_qubit, res.applied_pdg) == ("out2", 1)
        assert res.symbolic_mask is gadget_keys(1, 0)
        assert res.mask == gadget_keys(1, 0).evaluate(res.outcomes)
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.p = 0

    def test_bell_outcomes_carry_their_owners(self):
        owners = {v.name: v.owner for ins in gadget_program(0, 1).instructions
                  if ins.op is InstrOp.BELL for v in ins.out_vars}
        assert owners == {"bx": Owner.BOB, "bz": Owner.BOB, "a1x": Owner.ALICE,
                          "a1z": Owner.ALICE, "a2x": Owner.ALICE, "a2z": Owner.ALICE}

    def test_variable_owners(self, rng):
        res = run_gadget(0, 1, random_state(rng, 1), rng=rng)
        owners = {v.name: v.owner for key in (*res.symbolic_mask.a, *res.symbolic_mask.b)
                  for v in key.variables()}
        assert owners["bx"] is Owner.BOB
        assert owners["a1x"] is Owner.ALICE


class TestTruthTable:
    def test_oracle_verified_table(self, rng):
        rows = gadget_truth_table(input_states=[random_state(rng, 1) for _ in range(3)])
        assert [(r["p"], r["q"], r["out"], r["pdg"]) for r in rows] == [
            (0, 0, "out1", 0), (0, 1, "out1", 1), (1, 0, "out2", 1), (1, 1, "out2", 0)]
        assert all(r["min_fidelity"] >= 1 - 1e-10 for r in rows)


class TestGadgetFrameUpdate:
    """The one frame update that run_protocol1 and the cross-term analysis
    apply per gadget: a += bx + ax, b += bz + az + bx*g."""

    def test_bob_x_times_alice_key_is_mixed(self):
        t0x = OutcomeVar("t0x", Owner.ALICE)
        mask = _gadget_frame_update(SymbolicMask.zero(1), 0, "g", "a1", KeyPoly.of(t0x))
        bx = OutcomeVar("gbx", Owner.BOB)
        assert mask.a[0] == KeyPoly.of(bx) ^ KeyPoly.of(OutcomeVar("ga1x", Owner.ALICE))
        assert mask.b[0].degree == 2
        assert cross_terms(mask.b[0]) == [frozenset({bx, t0x})]

    def test_constant_key_stays_linear(self):
        mask = _gadget_frame_update(SymbolicMask.zero(1), 0, "g", "a2", KeyPoly.one())
        assert mask.b[0] == (KeyPoly.of(OutcomeVar("gbz", Owner.BOB))
                             ^ KeyPoly.of(OutcomeVar("ga2z", Owner.ALICE))
                             ^ KeyPoly.of(OutcomeVar("gbx", Owner.BOB)))
        assert cross_terms(mask.b[0]) == []

    def test_bob_key_raises_degree_without_mixing(self):
        w = KeyPoly.of(OutcomeVar("w", Owner.BOB))
        mask = _gadget_frame_update(SymbolicMask.zero(1), 0, "g", "a1", w)
        assert mask.b[0].degree == 2
        assert cross_terms(mask.b[0]) == []


class TestProtocol1:
    def test_ledger_and_owners_agree_with_the_program(self):
        # Random T-depth-1 circuits and resource plans: the ledger counts the
        # program's EPR instructions, and every outcome's owner is the party
        # that measures it (t: Alice's teleports, r: Bob's returns, g<i>b:
        # Bob's gadget Bell, g<i>a: Alice's pairings).
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            c = random_circuit(rng, n, 1)
            alice = frozenset(int(j) for j in np.flatnonzero(rng.integers(0, 2, n)))
            returns = tuple(int(j) for j in np.flatnonzero(rng.integers(0, 2, n)))
            program, tr = protocol_program(c, ResourcePlan(alice, returns))
            eprs = sum(1 for ins in program.instructions if ins.op is InstrOp.EPR)
            t_count = sum(len(st.t_layer) for st in c.stages)
            assert tr.total_pairs == eprs == len(alice) + 4 * t_count + len(returns)
            bells = [ins for ins in program.instructions if ins.op is InstrOp.BELL]
            assert len(tr.var_owners) == 2 * len(bells)
            for name, owner in tr.var_owners.items():
                bob = name[0] == "r" or (name[0] == "g" and name.rstrip("xz")[-1] == "b")
                assert owner is (Owner.BOB if bob else Owner.ALICE), name

    def test_clifford_only(self, rng):
        c = parse_circuit("QUBITS 1\nH 0\n---\n")
        psi = random_state(rng, 1)
        final, tr = run_protocol1(c, psi, ResourcePlan(alice_wires=frozenset({0})), rng=rng)
        assert fidelity_up_to_phase(final, apply_circuit(psi, c)) >= 1 - 1e-10
        assert tr.epr_ledger == {"initial_teleport": 1, "gadget": 0, "return_teleport": 0}
        assert causality_check(tr).ok

    def test_h_then_t_all_branches(self, rng):
        c = parse_circuit("QUBITS 1\nH 0\nT 0\n---\n")
        psi = random_state(rng, 1)
        ref = apply_circuit(psi, c)
        program, tr = protocol_program(c, ResourcePlan(alice_wires=frozenset({0})))
        assert causality_check(tr).ok
        branches = enumerate_branches(program, psi)
        assert len(branches) == 256
        assert sum(br.probability for br in branches) == pytest.approx(1.0, abs=1e-9)
        for br in branches:
            assert set(br.outcomes) == set(tr.var_owners)
            assert fidelity_up_to_phase(br.state, ref) >= 1 - 1e-10

    def test_deps_are_the_condition_variables(self):
        # The pending key of T after H is Alice's t0z: Bob routes by its
        # constant alone and Alice's pairings read t0z.
        c = parse_circuit("QUBITS 1\nH 0\nT 0\n---\n")
        program, tr = protocol_program(c, ResourcePlan(alice_wires=frozenset({0})))
        deps = {ev.action: ev.deps for ev in tr.events}
        assert deps["g0_route_and_bell"] == frozenset()
        assert deps["g0_pairing1"] == deps["g0_pairing2"] == frozenset({"t0z"})
        conds = [ins.cond for ins in program.instructions if ins.op is not InstrOp.COND_PDG
                 and ins.cond is not None]
        assert deps["correct_wire_0"] == frozenset(
            v.name for cond in conds for v in cond.variables())
        assert any(cond.degree == 2 for cond in conds)

    def test_key_with_a_bob_variable_is_refused(self):
        bob = KeyPoly.of(OutcomeVar("w", Owner.BOB))
        with pytest.raises(ValidationError, match="Alice does not hold"):
            _split_key_by_owner(bob ^ KeyPoly.one())
        alice = KeyPoly.of(OutcomeVar("t0x", Owner.ALICE))
        assert _split_key_by_owner(alice ^ KeyPoly.one()) == (1, alice)

    def test_four_wires_fit_the_window(self):
        # Four gadgets: the plan holds the four carriers and each gadget's
        # two unused halves, peaking at the 14-qubit cap (the run itself is
        # test_cli.py::test_protocol1_four_wires).
        text = ("QUBITS 4\n" + "".join(f"H {j}\n" for j in range(4)) + "CNOT 0 1\nCNOT 2 3\n"
                + "".join(f"T {j}\n" for j in range(4)) + "---\nH 0\n---\n")
        program, _ = protocol_program(parse_circuit(text), ResourcePlan(frozenset(range(4))))
        assert program.plan.peak_width == 14

    def test_ledger_counts_pairs(self, rng):
        c = parse_circuit("QUBITS 2\nCNOT 0 1\nT 0\nT 1\n---\nH 0\n---\n")
        psi = random_state(rng, 2)
        final, tr = run_protocol1(c, psi, ResourcePlan(alice_wires=frozenset({0})), rng=rng)
        assert tr.epr_ledger == {"initial_teleport": 1, "gadget": 8, "return_teleport": 0}
        assert fidelity_up_to_phase(final, apply_circuit(psi, c)) >= 1 - 1e-10

    def test_return_to_alice(self, rng):
        c = parse_circuit("QUBITS 2\nCNOT 0 1\nT 1\n---\nH 1\n---\n")
        psi = random_state(rng, 2)
        plan = ResourcePlan(alice_wires=frozenset({0}), return_to_alice=(0,))
        final, tr = run_protocol1(c, psi, plan, rng=rng)
        assert tr.epr_ledger["return_teleport"] == 1
        assert fidelity_up_to_phase(final, apply_circuit(psi, c)) >= 1 - 1e-10
        assert causality_check(tr).ok

    def test_bob_only_inputs(self, rng):
        c = parse_circuit("QUBITS 1\nH 0\nT 0\n---\n")
        psi = random_state(rng, 1)
        final, tr = run_protocol1(c, psi, ResourcePlan(), rng=rng)
        assert fidelity_up_to_phase(final, apply_circuit(psi, c)) >= 1 - 1e-10
        assert tr.epr_ledger["initial_teleport"] == 0

    def test_refuses_t_depth_two(self, rng):
        c = parse_circuit("QUBITS 1\nT 0\n---\nT 0\n---\n")
        with pytest.raises(ValidationError, match="analyze_cross_terms"):
            run_protocol1(c, random_state(rng, 1), ResourcePlan(frozenset({0})), rng=rng)

    def test_single_exchange_round(self, rng):
        c = parse_circuit("QUBITS 1\nH 0\nT 0\n---\n")
        _, tr = run_protocol1(c, random_state(rng, 1),
                              ResourcePlan(alice_wires=frozenset({0})), rng=rng)
        assert sum(1 for ev in tr.events if ev.kind == "exchange") == 1
        assert tr.events[tr.exchange_round].kind == "exchange"

    def test_transcript_text_format(self, rng):
        c = parse_circuit("QUBITS 1\nT 0\n---\n")
        _, tr = run_protocol1(c, random_state(rng, 1),
                              ResourcePlan(alice_wires=frozenset({0})), rng=rng)
        text = tr.to_text()
        assert text.startswith("EVENT 0 ALICE teleport_wire_0 DEPS -")
        assert f"EXCHANGE {tr.exchange_round}" in text
        assert text.rstrip().endswith(f"LEDGER {tr.total_pairs}")


class TestCausality:
    def _base(self):
        owners = {"a1": Owner.ALICE, "b1": Owner.BOB}
        events = [
            Event(Owner.ALICE, "measure_a", frozenset(), "measure"),
            Event(Owner.BOB, "gate_b", frozenset({"b1"}), "gate"),
            Event(Owner.LOCAL, "exchange", frozenset(), "exchange"),
            Event(Owner.BOB, "correct", frozenset({"a1"}), "correct"),
        ]
        return events, owners

    def test_valid_transcript_passes(self):
        events, owners = self._base()
        tr = ProtocolTranscript(events, owners, {"gadget": 4}, {})
        assert causality_check(tr).ok

    def test_foreign_dependency_before_exchange_fails(self):
        events, owners = self._base()
        events[1] = Event(Owner.BOB, "gate_b", frozenset({"a1"}), "gate")
        res = causality_check(ProtocolTranscript(events, owners, {}, {}))
        assert not res.ok
        assert res.violation == 1
        assert "a1" in res.reason

    def test_two_exchanges_fail(self):
        events, owners = self._base()
        events.append(Event(Owner.LOCAL, "exchange", frozenset(), "exchange"))
        res = causality_check(ProtocolTranscript(events, owners, {}, {}))
        assert not res.ok

    def test_measurement_after_exchange_fails(self):
        events, owners = self._base()
        events.append(Event(Owner.BOB, "late_measure", frozenset(), "measure"))
        res = causality_check(ProtocolTranscript(events, owners, {}, {}))
        assert not res.ok
        assert "measurement" in res.reason


class TestCrossTermAnalysis:
    def test_t_depth_one_absorbable(self):
        rep = analyze_cross_terms(parse_circuit("QUBITS 1\nT 0\n---\n"), {0})
        assert rep.absorbable
        assert all(not xs and not zs for xs, zs in zip(rep.x_cross, rep.z_cross))

    def test_t_t_not_absorbable(self):
        rep = analyze_cross_terms(parse_circuit("QUBITS 1\nT 0\n---\nT 0\n---\n"), {0})
        assert not rep.absorbable
        monos = [m for zs in rep.z_cross for m in zs]
        assert any({v.owner for v in m} == {Owner.ALICE, Owner.BOB} for m in monos)

    def test_needs_a_t_layer(self):
        with pytest.raises(ValidationError, match="T layer"):
            analyze_cross_terms(parse_circuit("QUBITS 1\nH 0\n---\n"), {0})

    def test_keys_match_concrete_replay(self):
        # Evaluate the symbolic pipeline at every assignment and compare with a
        # concrete replay of the same update rules.
        c = parse_circuit("QUBITS 1\nT 0\n---\nH 0\nT 0\n---\n")
        rep = analyze_cross_terms(c, {0})
        from tlink.frames import PauliMask, apply_tableau, tableau_from_stage
        from tlink.gardenhose import _symbolic_analysis_mask
        sym = _symbolic_analysis_mask(c, {0})
        names = sorted(v.name for key in (*sym.a, *sym.b) for v in key.variables())
        for bits in itertools.product((0, 1), repeat=len(names)):
            env = dict(zip(names, bits))
            concrete = sym.evaluate(env)
            # replay: teleport mask, then gadget update with concrete bits
            a = env["t0x"]
            b = env["t0z"]
            g = a
            a ^= env["g0bx"] ^ env["g0ax"]
            b ^= env["g0bz"] ^ env["g0az"] ^ (env["g0bx"] & g)
            a, b = b, a  # stage-2 H
            assert concrete == PauliMask((a,), (b,))

    def test_cross_survives_second_stage_clifford(self):
        c = parse_circuit("QUBITS 2\nCNOT 0 1\nT 1\n---\nH 1\nCNOT 1 0\nT 0\n---\n")
        rep = analyze_cross_terms(c, {0})
        assert not rep.absorbable
