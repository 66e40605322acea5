import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gate_strategy, random_circuit, random_state
from tlink import gardenhose
from tlink.circuits import Gate, LayeredCircuit, Stage, ValidationError, parse_circuit, t
from tlink.compiler import CompiledProgram, Instruction, InstrOp, enumerate_branches
from tlink.frames import (
    KeyPoly,
    OutcomeVar,
    Owner,
    PauliMask,
    SymbolicMask,
    apply_tableau,
    commute_through_t_layer,
    cross_terms,
    outcome_var,
    poly_eval,
    table_size,
    tableau_from_stage,
    var_bit,
)
from tlink.gardenhose import (
    CausalityResult,
    CrossTermReport,
    Event,
    ProtocolTranscript,
    ResourcePlan,
    _analysis_frame,
    _frame_key,
    _gadget_frame_update,
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

    def test_each_program_is_built_once(self, rng, monkeypatch):
        # One program, and so one plan, per pair of bits p & 1, q & 1: the
        # truth table and later runs build no gadget program.
        programs = {(p, q): gadget_program(p, q) for p in (0, 1) for q in (0, 1)}
        assert gadget_program(2, 3) is programs[0, 1] and gadget_program(True, 0) is programs[1, 0]
        plans = {pq: prog.plan for pq, prog in programs.items()}
        monkeypatch.setattr(gardenhose, "_gadget_instructions", None)  # any build would raise
        gadget_truth_table(seed=1)
        res = run_gadget(3, 1, random_state(rng, 1), rng=rng)
        assert (res.p, res.q) == (1, 1)
        assert all(programs[pq].plan is plan for pq, plan in plans.items())

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


def gadget_update(g: int, on_path: str = "a1"):
    """One wire's frame after _gadget_frame_update of the gadget "g" with
    pending key ``g``: the X and Z keys, and the term list."""
    bits = tuple(var_bit(outcome_var(name, owner)) for name, owner in (
        ("gbx", Owner.BOB), ("gbz", Owner.BOB),
        ("g" + on_path + "x", Owner.ALICE), ("g" + on_path + "z", Owner.ALICE)))
    lift = table_size()
    a, b, terms = [0], [0], []
    _gadget_frame_update(a, b, 0, bits, g, lift, terms)
    return _frame_key(a[0], lift, terms), _frame_key(b[0], lift, terms), terms


class TestGadgetFrameUpdate:
    """The one frame update that run_protocol1 and the cross-term analysis
    apply per gadget: a += bx + ax, b += bz + az + bx*g, on int masks whose
    bits from lift up are product terms."""

    def test_bob_x_times_alice_key_is_mixed(self):
        t0x = outcome_var("t0x", Owner.ALICE)
        a, b, terms = gadget_update(1 << var_bit(t0x))
        bx = OutcomeVar("gbx", Owner.BOB)
        assert a == KeyPoly.of(bx) ^ KeyPoly.of(OutcomeVar("ga1x", Owner.ALICE))
        assert terms == [(1 << var_bit(bx)) | (1 << var_bit(t0x))]
        assert b.degree == 2
        assert b == (KeyPoly.of(OutcomeVar("gbz", Owner.BOB)) ^ KeyPoly.of(OutcomeVar("ga1z", Owner.ALICE))
                     ^ KeyPoly.of(bx) * KeyPoly.of(t0x))
        assert cross_terms(b) == [frozenset({bx, t0x})]

    def test_constant_key_stays_linear(self):
        # The frame holds no constant: a key without variables adds no product.
        a, b, terms = gadget_update(0, "a2")
        assert b == (KeyPoly.of(OutcomeVar("gbz", Owner.BOB))
                     ^ KeyPoly.of(OutcomeVar("ga2z", Owner.ALICE)))
        assert terms == []
        assert cross_terms(b) == []

    def test_bob_key_raises_degree_without_mixing(self):
        a, b, terms = gadget_update(1 << var_bit(outcome_var("w", Owner.BOB)))
        assert b.degree == 2
        assert len(terms) == 1
        assert cross_terms(b) == []

    def test_lifted_key_gives_a_product_of_its_term(self):
        # A pending key that holds a product term: bx times that term.
        t0x, w = (1 << var_bit(outcome_var("t0x", Owner.ALICE)),
                  1 << var_bit(outcome_var("w", Owner.BOB)))
        bits = tuple(var_bit(outcome_var(name, owner)) for name, owner in (
            ("gbx", Owner.BOB), ("gbz", Owner.BOB), ("ga1x", Owner.ALICE), ("ga1z", Owner.ALICE)))
        lift = table_size()
        a, b, terms = [0], [0], [t0x | w]
        _gadget_frame_update(a, b, 0, bits, 1 << lift, lift, terms)
        assert terms[1] == t0x | w | (1 << bits[0])
        assert _frame_key(b[0], lift, terms).degree == 3


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

    def test_repeated_return_wire_refused(self, rng):
        # Wire 0 teleported back twice under the same r0x/r0z used to cancel
        # its frame bits and run to a wrong state without an error.
        c = parse_circuit("QUBITS 2\nH 0\nCNOT 0 1\nT 0\nT 1\n---\nH 1\n---\n")
        psi = random_state(rng, 2)
        with pytest.raises(ValidationError, match="^return_to_alice repeats a wire$"):
            run_protocol1(c, psi, ResourcePlan(frozenset({0}), (0, 0)), rng)
        final, _ = run_protocol1(c, psi, ResourcePlan(frozenset({0}), (0,)), rng)
        assert fidelity_up_to_phase(final, apply_circuit(psi, c)) >= 1 - 1e-10

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

    def test_key_with_a_bob_variable_is_refused(self, monkeypatch):
        # At T-depth 1 the only bits before the T layer are Alice's teleport
        # bits, so the check needs a frame update patched to leave a Bob
        # variable in wire 1's key after wire 0's gadget.
        c = parse_circuit("QUBITS 2\nT 0\nT 1\n---\n")
        plan = ResourcePlan(frozenset({0}))
        protocol_program(c, plan)
        bob = 1 << var_bit(outcome_var("w", Owner.BOB))
        update = gardenhose._gadget_frame_update

        def leaky(a, b, j, *rest):
            update(a, b, j, *rest)
            a[1] ^= bob

        monkeypatch.setattr(gardenhose, "_gadget_frame_update", leaky)
        with pytest.raises(ValidationError, match="Alice does not hold"):
            protocol_program(c, plan)

    def test_four_wires_fit_the_window(self):
        # Four gadgets: the plan holds the four carriers and each gadget's
        # two unused halves, peaking at 12 qubits, two under the 14-qubit cap:
        # each teleport moves its carrier onto a fresh half instead of
        # allocating the pair (the run itself is
        # test_cli.py::test_protocol1_four_wires).
        text = ("QUBITS 4\n" + "".join(f"H {j}\n" for j in range(4)) + "CNOT 0 1\nCNOT 2 3\n"
                + "".join(f"T {j}\n" for j in range(4)) + "---\nH 0\n---\n")
        program, _ = protocol_program(parse_circuit(text), ResourcePlan(frozenset(range(4))))
        assert program.plan.peak_width == 12

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
        a, b, lift, terms = _analysis_frame(c, {0})
        sym = SymbolicMask(tuple(_frame_key(k, lift, terms) for k in a),
                           tuple(_frame_key(k, lift, terms) for k in b))
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


# -- the KeyPoly/SymbolicMask builders, kept as the reference ---------------------
#
# protocol_program and analyze_cross_terms push int masks with lifted product
# bits. These are the builders they replace: a frozen SymbolicMask of KeyPoly
# keys, rebuilt per gate through apply_tableau and per gadget through xor_at.

def reference_gadget_instructions(in_q, base, p_bit, q_key, prefix):
    bobh = range(base, base + 4)
    alich = range(base + 4, base + 8)

    def bell(r, s, name, owner):
        return Instruction(InstrOp.BELL, (r, s), out_vars=(outcome_var(prefix + name + "x", owner),
                                                           outcome_var(prefix + name + "z", owner)))

    instrs = [Instruction(InstrOp.EPR, pair) for pair in zip(bobh, alich)]
    instrs += [
        bell(in_q, bobh[p_bit], "b", Owner.BOB),
        Instruction(InstrOp.COND_PDG, (alich[0],), cond=q_key),
        bell(alich[0], alich[2], "a1", Owner.ALICE),
        Instruction(InstrOp.COND_PDG, (alich[1],), cond=q_key ^ KeyPoly.one()),
        bell(alich[1], alich[3], "a2", Owner.ALICE),
    ]
    return instrs, bobh[2 + p_bit]


def reference_gadget_update(mask, j, prefix, on_path, g_key):
    bx, bz = (KeyPoly.of(OutcomeVar(prefix + s, Owner.BOB)) for s in ("bx", "bz"))
    ax, az = (KeyPoly.of(OutcomeVar(prefix + on_path + s, Owner.ALICE)) for s in ("x", "z"))
    return mask.xor_at(j, bx ^ ax, bz ^ az ^ (bx * g_key))


def reference_deps(instrs):
    return frozenset(v.name for ins in instrs if ins.cond is not None
                     for v in ins.cond.variables())


def reference_protocol_program(c, plan):
    carriers = list(range(c.n))
    next_q = c.n
    instrs, events = [], []
    mask = SymbolicMask.zero(c.n)

    def teleport(j, name, owner):
        nonlocal next_q, mask
        hb, ha = next_q, next_q + 1
        next_q += 2
        mine, other = (ha, hb) if owner is Owner.ALICE else (hb, ha)
        vx, vz = outcome_var(name + "x", owner), outcome_var(name + "z", owner)
        instrs.append(Instruction(InstrOp.EPR, (hb, ha)))
        instrs.append(Instruction(InstrOp.BELL, (carriers[j], mine), out_vars=(vx, vz)))
        carriers[j] = other
        mask = mask.xor_at(j, KeyPoly.of(vx), KeyPoly.of(vz))

    for j in sorted(plan.alice_wires):
        teleport(j, f"t{j}", Owner.ALICE)
        events.append(Event(Owner.ALICE, f"teleport_wire_{j}", frozenset(), "measure"))
    gadget_count = 0
    for st_ in c.stages:
        for g in st_.clifford:
            targets = tuple(carriers[q] for q in g.targets)
            instrs.append(Instruction(InstrOp.GATE, targets, gate=Gate(g.kind, targets)))
        if st_.clifford:
            events.append(Event(Owner.BOB, "clifford_stage", frozenset(), "gate"))
        mask = apply_tableau(tableau_from_stage(st_.clifford, c.n), mask)
        mask, pending = commute_through_t_layer(mask, st_.t_layer)
        for j in sorted(st_.t_layer):
            instrs.append(Instruction(InstrOp.GATE, (carriers[j],), gate=t(carriers[j])))
            events.append(Event(Owner.BOB, f"t_gate_wire_{j}", frozenset(), "gate"))
            key = pending[j]
            assert all(v.owner is Owner.ALICE for v in key.variables())
            p_bit, alice_key = key.constant, KeyPoly(key.linear, key.nonlinear)
            prefix = f"g{gadget_count}"
            gadget, carriers[j] = reference_gadget_instructions(carriers[j], next_q, p_bit,
                                                                alice_key, prefix)
            next_q += 8
            instrs += gadget
            alice_deps = reference_deps(gadget)
            events.append(Event(Owner.BOB, f"{prefix}_route_and_bell", frozenset(), "measure"))
            events.append(Event(Owner.ALICE, f"{prefix}_pairing1", alice_deps, "measure"))
            events.append(Event(Owner.ALICE, f"{prefix}_pairing2", alice_deps, "measure"))
            gadget_count += 1
            mask = reference_gadget_update(mask, j, prefix, "a1" if p_bit == 0 else "a2", pending[j])
    for j in plan.return_to_alice:
        teleport(j, f"r{j}", Owner.BOB)
        events.append(Event(Owner.BOB, f"return_wire_{j}", frozenset(), "measure"))
    events.append(Event(Owner.LOCAL, "exchange", frozenset(), "exchange"))
    returned = set(plan.return_to_alice)
    for j in range(c.n):
        fix = [Instruction(op, (carriers[j],), cond=key)
               for op, key in ((InstrOp.COND_X, mask.a[j]), (InstrOp.COND_Z, mask.b[j]))
               if not key.is_zero]
        instrs += fix
        party = Owner.ALICE if j in returned else Owner.BOB
        events.append(Event(party, f"correct_wire_{j}", reference_deps(fix), "correct"))
    ledger = {"initial_teleport": len(plan.alice_wires), "gadget": 4 * gadget_count,
              "return_teleport": len(plan.return_to_alice)}
    var_owners = {v.name: v.owner for ins in instrs if ins.op is InstrOp.BELL for v in ins.out_vars}
    return (CompiledProgram(next_q, tuple(carriers), tuple(instrs)),
            ProtocolTranscript(events, var_owners, ledger, {}))


def reference_analyze_cross_terms(c, alice_wires):
    if not (len(c.stages) >= 2 and c.stages[1].t_layer):
        empty = tuple(() for _ in range(c.n))
        return CrossTermReport(empty, empty, True, None)
    mask = SymbolicMask(
        tuple(KeyPoly.of(OutcomeVar(f"t{j}x", Owner.ALICE)) if j in alice_wires else KeyPoly.zero()
              for j in range(c.n)),
        tuple(KeyPoly.of(OutcomeVar(f"t{j}z", Owner.ALICE)) if j in alice_wires else KeyPoly.zero()
              for j in range(c.n)))
    first = c.stages[0]
    mask = apply_tableau(tableau_from_stage(first.clifford, c.n), mask)
    mask, pending = commute_through_t_layer(mask, first.t_layer)
    for j in sorted(first.t_layer):
        mask = reference_gadget_update(mask, j, f"g{j}", "a", pending[j])
    mask = apply_tableau(tableau_from_stage(c.stages[1].clifford, c.n), mask)
    x_cross = tuple(tuple(cross_terms(mask.a[j])) for j in range(c.n))
    z_cross = tuple(tuple(cross_terms(mask.b[j])) for j in range(c.n))
    any_cross = any(x_cross[j] or z_cross[j] for j in range(c.n))
    return CrossTermReport(x_cross, z_cross, not any_cross, c.stages[1].t_layer)


def clifford_stage(draw, n: int, t_layer: frozenset) -> Stage:
    return Stage(tuple(draw(st.lists(gate_strategy(n), max_size=3 * n))), t_layer)


@st.composite
def protocol_cases(draw):
    """A circuit of T-depth at most 1, with or without a trailing
    Clifford-only stage, and a resource plan."""
    n = draw(st.integers(1, 6))
    wires = st.sets(st.integers(0, n - 1))
    trailing = draw(st.booleans())
    stages = [clifford_stage(draw, n, frozenset(draw(st.sets(
        st.integers(0, n - 1), min_size=1 if trailing else 0))))]
    if trailing:
        stages.append(clifford_stage(draw, n, frozenset()))
    plan = ResourcePlan(frozenset(draw(wires)), tuple(sorted(draw(wires))))
    return LayeredCircuit(n, tuple(stages)), plan


@st.composite
def crossterm_cases(draw):
    """A circuit of T-depth 1 to 3 (its last stage may be Clifford only)
    and Alice's wires."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 3))
    stages = [clifford_stage(draw, n, frozenset(draw(st.sets(st.integers(0, n - 1), min_size=1))))
              for _ in range(k)]
    if draw(st.booleans()):
        stages.append(clifford_stage(draw, n, frozenset()))
    return LayeredCircuit(n, tuple(stages)), frozenset(draw(st.sets(st.integers(0, n - 1))))


class TestIntMaskBuildersMatchTheReference:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(protocol_cases())
    def test_protocol_program(self, case):
        c, plan = case
        program, transcript = protocol_program(c, plan)
        ref_program, ref_transcript = reference_protocol_program(c, plan)
        assert program == ref_program
        assert transcript == ref_transcript
        assert transcript.to_text() == ref_transcript.to_text()

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(crossterm_cases())
    def test_analyze_cross_terms(self, case):
        c, alice = case
        report = analyze_cross_terms(c, alice)
        ref = reference_analyze_cross_terms(c, alice)
        assert report == ref
        assert report.to_text() == ref.to_text()
