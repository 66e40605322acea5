import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    apply_gates,
    assert_frame_coherence,
    factor_state,
    layered_circuits,
    project,
    random_circuit,
    random_state,
    rotation_twin,
)
from test_program_text import HAND
from tlink.circuits import (
    DepthMetrics,
    Gate,
    GateKind,
    LayeredCircuit,
    ParseError,
    Stage,
    ValidationError,
    clifford_depth,
    cnot,
    h,
    layerize,
    parse_circuit,
)
from tlink.compiler import (
    _APPLY,
    _BRANCH,
    _CUTOFF,
    _FUSE_WIDTH,
    _TELEPORT,
    CompiledProgram,
    InstrOp,
    Instruction,
    _Schedule,
    _branch,
    _frame_signs,
    _gather,
    _teleport,
    compile_measure,
    enumerate_branches,
    execute,
    parse_program,
    report,
    serialize_program,
)
from tlink.frames import (
    KeyPoly,
    OutcomeVar,
    Owner,
    SymbolicMask,
    apply_tableau,
    outcome_var,
    poly_eval,
    tableau_from_stage,
)
from tlink.gardenhose import gadget_program
from tlink.oracle import (
    MAX_QUBITS,
    _grow,
    _grow_epr,
    apply_circuit,
    fidelity_up_to_phase,
    gate_kernel,
    init_state,
)

# The (x, z) outcomes of a Bell measurement in outcome order k = 2x + z.
_BELL_OUTCOMES = ((0, 0), (0, 1), (1, 0), (1, 1))


def bells(p):
    return [ins for ins in p.instructions if ins.op is InstrOp.BELL]


def eprs(p):
    return [ins for ins in p.instructions if ins.op is InstrOp.EPR]


class TestCompileStructure:
    def test_single_stage_has_no_links(self):
        prog = compile_measure(parse_circuit("QUBITS 1\nH 0\nT 0\n---"))
        assert not eprs(prog) and not bells(prog)
        assert all(ins.op is InstrOp.GATE for ins in prog.instructions)
        assert prog.logical_outputs == (0,)

    def test_epr_and_bell_counts(self):
        c = parse_circuit("QUBITS 2\nT 0\n---\nT 1\n---\nT 0\nT 1\n---")
        prog = compile_measure(c)
        assert len(eprs(prog)) == 4
        assert len(bells(prog)) == 4

    def test_register_layout(self):
        c = parse_circuit("QUBITS 2\nT 0\nT 1\n---\nH 0\nT 0\n---")
        prog = compile_measure(c)
        assert prog.total_qubits == 6
        assert eprs(prog)[0].qubits == (2, 4)
        assert eprs(prog)[1].qubits == (3, 5)
        assert bells(prog)[0].qubits == (0, 2)
        assert bells(prog)[1].qubits == (1, 3)
        assert prog.logical_outputs == (4, 5)

    def test_outcome_variable_naming(self):
        c = parse_circuit("QUBITS 2\nT 0\n---\nT 1\n---\nT 0\n---")
        prog = compile_measure(c)
        assert [tuple(v.name for v in ins.out_vars) for ins in bells(prog)] == [
            ("m0x", "m0z"), ("m1x", "m1z"), ("m2x", "m2z"), ("m3x", "m3z")]

    def test_bells_hold_the_tables_variables(self):
        # Compiled and parsed BELLs name their outcomes by the variable
        # table's own instances, owned by LOCAL.
        prog = compile_measure(parse_circuit("QUBITS 2\nT 0\n---\nT 1\n---"))
        parsed = parse_program(serialize_program(prog))
        for ins, back in zip(bells(prog), bells(parsed), strict=True):
            for v, w in zip(ins.out_vars, back.out_vars):
                assert v is outcome_var(v.name) and w is v
                assert v.owner is Owner.LOCAL

    def test_t_count_preserved(self, rng):
        for _ in range(15):
            c = random_circuit(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
            prog = compile_measure(c)
            emitted = sum(1 for ins in prog.instructions
                          if ins.op is InstrOp.GATE and ins.gate.kind is GateKind.T)
            assert emitted == sum(len(st.t_layer) for st in c.stages)

    def test_merged_stage_variant_rejected(self):
        # Folding a T layer into the next stage's Clifford list is invalid IR.
        with pytest.raises(ValidationError, match="Clifford block"):
            LayeredCircuit(1, (
                Stage((Gate(GateKind.T, (0,)), Gate(GateKind.H, (0,))), frozenset({0})),))

    def test_resource_report(self):
        c = parse_circuit("QUBITS 2\nT 0\n---\nT 1\n---\nT 0\nT 1\n---")
        prog = compile_measure(c)
        rep = report(c, prog)
        assert rep.epr_pairs == 4
        assert rep.link_steps == 2
        assert rep.total_qubits == 10
        assert rep.t_depth == 3

    def test_k1_report(self):
        c = parse_circuit("QUBITS 1\nT 0\n---")
        rep = report(c, compile_measure(c))
        assert rep.epr_pairs == 0
        assert rep.link_steps == 0


def reference_push(g: Gate, mask: SymbolicMask) -> SymbolicMask:
    """One gate's update rule, written out here on KeyPoly keys with
    xor_at, independently of frames.push_gates."""
    a, b = mask.a, mask.b
    if g.kind is GateKind.H:
        (q,) = g.targets
        return mask.xor_at(q, a[q] ^ b[q], a[q] ^ b[q])
    if g.kind in (GateKind.P, GateKind.PDG):
        (q,) = g.targets
        return mask.xor_at(q, KeyPoly.zero(), a[q])
    if g.kind is GateKind.CNOT:
        c, tgt = g.targets
        mask = mask.xor_at(tgt, a[c], KeyPoly.zero())
        return mask.xor_at(c, KeyPoly.zero(), mask.b[tgt])
    return mask


def reference_keys(c: LayeredCircuit) -> dict:
    """Every condition compile_measure should emit, keyed by (op, qubit), from
    a SymbolicMask of KeyPoly keys pushed gate by gate (reference_push), with
    each link XORing in KeyPoly.of its two outcome variables. apply_tableau
    must agree with the written-out rules on every stage."""
    n, k = c.n, len(c.stages)
    mask = SymbolicMask.zero(n)
    keys = {}
    var = 0
    for i, st_ in enumerate(c.stages, start=1):
        pushed = apply_tableau(tableau_from_stage(st_.clifford, n), mask)
        for g in st_.clifford:
            mask = reference_push(g, mask)
        assert pushed == mask
        base = 0 if i == 1 else n + 2 * n * (i - 2) + n
        for j in sorted(st_.t_layer):
            if not mask.a[j].is_zero:
                keys[InstrOp.COND_PDG, base + j] = mask.a[j]
        if i < k:
            for j in range(n):
                mask = mask.xor_at(j, KeyPoly.of(OutcomeVar(f"m{var}x")),
                                   KeyPoly.of(OutcomeVar(f"m{var}z")))
                var += 1
        else:
            for j in range(n):
                if not mask.a[j].is_zero:
                    keys[InstrOp.COND_X, base + j] = mask.a[j]
                if not mask.b[j].is_zero:
                    keys[InstrOp.COND_Z, base + j] = mask.b[j]
    return keys


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(layered_circuits(max_n=6, max_k=8))
def test_compiled_keys_match_the_symbolic_push(c):
    # compile_measure pushes int masks; the keys must be the ones a
    # SymbolicMask of KeyPoly keys gives, term for term.
    prog = compile_measure(c)
    got = {}
    for ins in prog.instructions:
        if ins.cond is not None:
            assert (ins.op, ins.qubits[0]) not in got
            got[ins.op, ins.qubits[0]] = ins.cond
    assert got == reference_keys(c)


class TestRecords:
    def test_fields_are_read_only(self):
        g = cnot(0, 1)
        ins = Instruction(InstrOp.GATE, g.targets, gate=g)
        bell = Instruction(InstrOp.BELL, (0, 1), out_vars=(OutcomeVar("a"), OutcomeVar("b")))
        cond = Instruction(InstrOp.COND_X, (2,), cond=KeyPoly.of(OutcomeVar("a")))
        fields = ("op", "qubits", "gate", "out_vars", "cond")
        for record, names in ((g, ("kind", "targets")), (ins, fields), (bell, fields),
                              (cond, fields)):
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(record, name, None)
        assert g == cnot(0, 1) and ins.gate is g and ins.qubits == (0, 1)

    def test_keyword_and_positional_forms_agree(self):
        g = h(3)
        assert Gate(kind=GateKind.H, targets=(3,)) == Gate(GateKind.H, (3,)) == g
        assert Instruction(InstrOp.GATE, g.targets, gate=g) == Instruction(InstrOp.GATE, (3,), g)
        key = KeyPoly.of(OutcomeVar("a"))
        assert (Instruction(InstrOp.COND_Z, (1,), cond=key)
                == Instruction(InstrOp.COND_Z, (1,), None, None, key))
        ins = Instruction(InstrOp.EPR, (0, 1))
        assert (ins.gate, ins.out_vars, ins.cond) == (None, None, None)
        assert str(g) == "H 3" and str(cnot(2, 0)) == "CNOT 2 0"


class TestProgramText:
    def test_golden_single_link(self):
        # Initial mask is zero, so stage 1 emits no conditioned correction;
        # stage 2's H swaps the teleport keys before the terminal Paulis.
        c = parse_circuit("QUBITS 1\nH 0\nT 0\n---\nH 0\n---")
        text = serialize_program(compile_measure(c))
        assert text == (
            "QUBITS 3\n"
            "EPR 1 2\n"
            "H 0\n"
            "T 0\n"
            "H 2\n"
            "BELL 0 1 -> m0x m0z\n"
            "X 2 IF m0z\n"
            "Z 2 IF m0x\n"
            "OUT 0 2\n"
        )

    def test_golden_pending_key_emitted(self):
        # With a second T layer the link-2 pending key is the teleported x bit
        # pushed through stage 2's H.
        c = parse_circuit("QUBITS 1\nT 0\n---\nH 0\nT 0\n---\nH 0\n---")
        text = serialize_program(compile_measure(c))
        assert "PDG 2 IF m0z" in text
        assert text.index("PDG 2 IF m0z") < text.index("BELL 2 3 -> m1x m1z")

    def test_round_trip(self, rng):
        for _ in range(10):
            c = random_circuit(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            prog = compile_measure(c)
            text = serialize_program(prog)
            again = parse_program(text)
            assert serialize_program(again) == text
            assert again.total_qubits == prog.total_qubits
            assert again.logical_outputs == prog.logical_outputs

    def test_undefined_condition_variable_rejected(self):
        with pytest.raises(ParseError, match="undefined"):
            parse_program("QUBITS 2\nX 1 IF m0x\nOUT 0 1\n")

    def test_bad_gate_rejected_with_line(self):
        try:
            parse_program("QUBITS 2\nFROB 0\nOUT 0 1\n")
        except ParseError as exc:
            assert exc.line == 2
        else:
            pytest.fail("expected ParseError")


def fixpoint_cone(buffer, qubits):
    """Reference backward closure: an item is in the cone when it touches
    ``qubits`` or an item later in the buffer that is in the cone; add such
    items until nothing changes."""
    chosen = set()
    changed = True
    while changed:
        changed = False
        for i, (qs, _) in enumerate(buffer):
            if i in chosen:
                continue
            later = (buffer[j][0] for j in chosen if j > i)
            if set(qs) & set(qubits) or any(set(qs) & set(other) for other in later):
                chosen.add(i)
                changed = True
    return ([item for i, item in enumerate(buffer) if i in chosen],
            [item for i, item in enumerate(buffer) if i not in chosen])


def scan_cone(buffer, qubits):
    """The light cone as a reversed scan of the whole buffer, the way plans
    found it before the per-qubit index: scanning from the end, an item is in
    the cone when it shares a qubit with ``qubits`` or with an item already
    kept. Returns the cone and the rest, both in program order."""
    need = set(qubits)
    cone, rest = [], []
    for item in reversed(buffer):
        if need.isdisjoint(item[0]):
            rest.append(item)
        else:
            cone.append(item)
            need.update(item[0])
    return cone[::-1], rest[::-1]


def flushed(sched, qubits) -> list:
    """The (qubits, item) pairs one flush of ``sched`` emits, in order."""
    out = []
    sched.flush(qubits, lambda qs, item: out.append((qs, item)))
    return out


def test_light_cone_matches_fixpoint(rng):
    grew = 0
    for _ in range(500):
        nq = int(rng.integers(2, 16))
        buffer = []
        sched = _Schedule(0)
        for i in range(int(rng.integers(0, 40))):
            width = 2 if rng.random() < 0.3 else 1
            buffer.append((tuple(int(q) for q in rng.choice(nq, size=width, replace=False)), i))
            sched.defer(*buffer[-1])
        qubits = tuple(int(q) for q in rng.choice(nq, size=int(rng.integers(1, 3)), replace=False))
        cone = flushed(sched, qubits)
        rest = flushed(sched, range(nq))  # whatever is left, in program order
        assert (cone, rest) == fixpoint_cone(buffer, qubits)
        grew += any(not set(qs) & set(qubits) for qs, _ in cone)
    assert grew > 50  # the closure reaches past the items touching ``qubits``


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(["gate", "gate", "pair", "flush", "drop"]),
                              st.lists(st.integers(0, 63), min_size=1, max_size=3)),
                    min_size=20, max_size=80))
def test_indexed_flush_matches_the_buffer_scan(ops):
    # Random buffers and flush sequences, with pairs on fresh qubits dropped
    # unflushed, as a teleport step drops its EPR: every flush of the indexed
    # schedule emits exactly the reversed scan's cone, in program order.
    sched = _Schedule(0)
    buffer = []  # the scan's buffer: (qubits, item), in program order
    entries, pairs = {}, []  # item -> its schedule entry; the items that are pairs
    used = 8  # qubits 0..used-1 exist; a pair takes two new ones
    for i, (op, picks) in enumerate(ops):
        qs = tuple(dict.fromkeys(q % used for q in picks))
        if op == "flush":
            cone, buffer = scan_cone(buffer, qs)
            assert flushed(sched, qs) == cone
        elif op == "drop":
            live = [it for it in pairs if it in {item for _, item in buffer}]
            if live:
                item = live[picks[0] % len(live)]
                buffer = [entry for entry in buffer if entry[1] != item]
                sched.drop(entries[item])
        else:
            if op == "pair":
                qs = (used, used + 1)
                used += 2
                pairs.append(i)
            buffer.append((qs[:2], i))
            entries[i] = sched.defer(qs[:2], i)
    assert flushed(sched, range(used)) == buffer


class TestExecute:
    def test_identity_circuit(self, rng):
        psi = random_state(rng, 2)
        prog = compile_measure(parse_circuit("QUBITS 2\n---\n"))
        out, outcomes = execute(prog, psi, rng)
        assert fidelity_up_to_phase(out, psi) >= 1 - 1e-10
        assert outcomes == {}

    def test_single_stage_direct(self, rng):
        c = parse_circuit("QUBITS 1\nH 0\nT 0\n---")
        prog = compile_measure(c)
        out, _ = execute(prog, init_state(1, "0"), rng)
        expected = np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2)
        assert fidelity_up_to_phase(out, init_state(1, expected)) >= 1 - 1e-10

    def test_two_stage_all_branches(self, rng):
        c = parse_circuit("QUBITS 1\nH 0\nT 0\n---\nH 0\n---")
        prog = compile_measure(c)
        psi = init_state(1, "0")
        ref = apply_circuit(psi, c)
        branches = enumerate_branches(prog, psi)
        assert len(branches) == 4
        assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-10)
        for b in branches:
            assert fidelity_up_to_phase(b.state, ref) >= 1 - 1e-10

    def test_random_circuits_all_branches(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 5))
            if n * (k - 1) > 4:
                k = 1 + 4 // n
            c = random_circuit(rng, n, k)
            psi = random_state(rng, n)
            ref = apply_circuit(psi, c)
            prog = compile_measure(c)
            branches = enumerate_branches(prog, psi)
            assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-10)
            for b in branches:
                assert fidelity_up_to_phase(b.state, ref) >= 1 - 1e-10
                assert_frame_coherence(c, prog, b.outcomes)

    def test_sampled_execution_matches(self, rng):
        c = random_circuit(rng, 2, 3)
        psi = random_state(rng, 2)
        ref = apply_circuit(psi, c)
        prog = compile_measure(c)
        for _ in range(10):
            out, outcomes = execute(prog, psi, rng)
            assert fidelity_up_to_phase(out, ref) >= 1 - 1e-10
            assert len(outcomes) == 2 * len(bells(prog))

    def test_outcome_bit_cap_cannot_be_raised(self):
        prog = compile_measure(parse_circuit("QUBITS 1\nH 0\nT 0\n---\nH 0\n---"))
        # A wrong-width input: the refusal comes before any amplitude work.
        with pytest.raises(ValidationError, match="13 exceeds the 12-bit cap"):
            enumerate_branches(prog, init_state(2, "00"), max_outcome_bits=13)
        assert len(enumerate_branches(prog, init_state(1, "0"), max_outcome_bits=12)) == 4

    def test_program_keeps_only_what_it_cannot_derive(self, rng):
        c = random_circuit(rng, 2, 3)
        prog = compile_measure(c)
        assert [f.name for f in dataclasses.fields(prog)] == [
            "total_qubits", "logical_outputs", "instructions"]
        assert prog.n == c.n == len(prog.logical_outputs)
        assert prog.declared_depth is prog.declared_depth
        assert prog.declared_depth == parse_program(serialize_program(prog)).declared_depth

    def test_branch_explosion_guard(self):
        c = parse_circuit("QUBITS 2\n" + "T 0\nT 1\n---\n" * 5)
        prog = compile_measure(c)
        with pytest.raises(ValidationError, match="branch explosion"):
            enumerate_branches(prog, init_state(2, "00"))

    def test_corrupted_program_detected(self, rng):
        c = parse_circuit("QUBITS 1\nH 0\nT 0\n---\nH 0\n---")
        prog = compile_measure(c)
        text = serialize_program(prog)
        assert "X 2 IF m0z" in text
        bad = parse_program(text.replace("X 2 IF m0z", "X 2 IF m0x"))
        psi = random_state(rng, 1)
        ref = apply_circuit(psi, c)
        worst = min(fidelity_up_to_phase(b.state, ref)
                    for b in enumerate_branches(bad, psi))
        assert worst < 1 - 1e-6

    def test_branch_sampling_agrees_with_enumeration(self):
        c = parse_circuit("QUBITS 1\nH 0\nT 0\n---\nH 0\n---")
        prog = compile_measure(c)
        psi = init_state(1, "0")
        probs = {tuple(sorted(b.outcomes.items())): b.probability
                 for b in enumerate_branches(prog, psi)}
        shots = 10_000
        counts = {k: 0 for k in probs}
        sampler = np.random.default_rng(23)
        for _ in range(shots):
            _, outcomes = execute(prog, psi, sampler)
            counts[tuple(sorted(outcomes.items()))] += 1
        for key, pr in probs.items():
            bound = 3 * np.sqrt(pr * (1 - pr) / shots)
            assert abs(counts[key] / shots - pr) <= bound + 1e-9


def per_term_schedule(instructions) -> DepthMetrics:
    """Reference for _schedule_depth: the same ASAP cost model, with each
    condition waiting for the readout of every variable of every term,
    looked up one by one."""
    qubit_free, var_ready = {}, {}
    total, gate_count, t_count = 0, 0, 0
    t_layers = set()
    for ins in instructions:
        if ins.op is InstrOp.EPR:
            continue
        start = max((qubit_free.get(q, 0) for q in ins.qubits), default=0)
        if ins.op is InstrOp.BELL:
            end = start + 3
            for v in ins.out_vars:
                var_ready[v.name] = end
        elif ins.op is InstrOp.GATE:
            end = start + 1
            gate_count += 1
            if ins.gate.kind is GateKind.T:
                t_count += 1
                t_layers.add(start)
        else:
            for mono in ins.cond.monomials:
                for v in mono:
                    start = max(start, var_ready.get(v.name, 0))
            end = start + 1
        for q in ins.qubits:
            qubit_free[q] = end
        total = max(total, end)
    return DepthMetrics(total, len(t_layers), t_count, gate_count)


class TestDepthSchedule:
    def test_matches_per_term_reference_on_compiled_programs(self):
        rng = np.random.default_rng(5)
        for n in range(1, 9):
            for _ in range(3):
                prog = compile_measure(random_circuit(rng, n, 2 * n))
                assert prog.declared_depth == per_term_schedule(prog.instructions)

    def test_matches_per_term_reference_on_higher_degree_terms(self):
        prog = parse_program(HAND)
        assert max(ins.cond.degree for ins in prog.instructions if ins.cond is not None) == 3
        assert prog.declared_depth == per_term_schedule(prog.instructions)

    def test_k1_depth_is_stage_depth(self):
        c = parse_circuit("QUBITS 1\nH 0\nP 0\nT 0\n---")
        prog = compile_measure(c)
        assert prog.declared_depth.total_depth == 3

    def test_links_serialize_through_readouts(self):
        # Stage depth 1 each, K=3: parallel region depth 2, then two links
        # whose conditions wait on the previous readout.
        c = parse_circuit("QUBITS 1\nH 0\nT 0\n---\nH 0\nT 0\n---\nH 0\nT 0\n---")
        prog = compile_measure(c)
        d = prog.declared_depth.total_depth
        assert d <= 1 + 3 + 6 * 2
        # strictly more than one stage plus one bell: classical deps are honored
        assert d >= 2 + 3 + 1 + 3 + 1

    def test_depth_scaling_family(self):
        for depth in (4, 8):
            for k in range(2, 7):
                gates = "".join(("H 0\n", "P 0\n") * (depth // 2))
                stage = gates + "T 0\nT 1\n---\n"
                c = parse_circuit(f"QUBITS 2\n{stage * k}")
                rep = report(c, compile_measure(c))
                assert rep.compiled_depth <= depth + 3 + 6 * (k - 1)
                assert rep.original_depth >= k * depth

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 8), k=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
    def test_depth_is_the_deepest_stage_plus_four_per_link(self, n, k, seed):
        # The paper's claim as a tight bound: each link adds a constant to
        # the compiled depth, however deep the stages are.
        c = random_circuit(np.random.default_rng(seed), n, k, max_clifford=3 * n)
        deepest = max(clifford_depth(s.clifford) + bool(s.t_layer) for s in c.stages)
        assert compile_measure(c).declared_depth.total_depth <= deepest + 4 * (k - 1) + 2


class TestExecPlan:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 8), k=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
    def test_peak_window_is_n(self, n, k, seed):
        # Every link teleports its carrier onto the fresh half of the next
        # pair, which takes the carrier's slot: the window holds the n
        # carriers and nothing else.
        c = random_circuit(np.random.default_rng(seed), n, k, max_clifford=3 * n)
        assert compile_measure(c).plan.peak_width == n

    def test_shared_plan_gives_fresh_transcripts(self, rng):
        c = random_circuit(rng, 3, 4, max_clifford=9)
        psi = random_state(rng, 3)
        shared = compile_measure(c)
        runs = []
        for programs in ([shared, shared], [compile_measure(c), compile_measure(c)]):
            sampler = np.random.default_rng(11)
            runs.append([execute(p, psi, sampler) for p in programs])
        assert shared.plan is shared.plan
        for (out_a, tr_a), (out_b, tr_b) in zip(*runs):
            assert tr_a == tr_b
            assert np.array_equal(out_a.amps, out_b.amps)
        assert runs[0][0][1] != runs[0][1][1]  # the two shots drew differently

    def test_untouched_output_is_fresh(self, rng):
        # An OUT qubit nothing acts on is allocated as |0> before the outputs
        # are extracted.
        prog = parse_program("QUBITS 2\nOUT 0 1\n")
        assert prog.plan.peak_width == 2
        out, _ = execute(prog, random_state(rng, 1), rng)
        assert fidelity_up_to_phase(out, init_state(1, "0")) == pytest.approx(1.0)

    @pytest.mark.parametrize("n,k", [(1, 3), (2, 3), (3, 4)])
    def test_bell_is_its_rotation_then_a_two_axis_z_measurement(self, n, k):
        # The rotation twins: an X pair on s before each BELL keeps it off
        # the teleport step.
        rng = np.random.default_rng(10 * n + k)
        programs = [rotation_twin(compile_measure(random_circuit(rng, n, k, max_clifford=3 * n))),
                    rotation_twin(gadget_program(n & 1, k & 1))]
        for p in programs:
            steps = p.plan.steps
            assert not any(step[0] is _TELEPORT for step in steps)
            at = [i for i, step in enumerate(steps) if step[0] is _BRANCH]
            assert len(at) == len(bells(p))
            for j, (i, ins) in enumerate(zip(at, bells(p))):
                _, bits, perm = steps[i]
                # BELL r s measures (s, r): outcome k = 2x + z sets x's bit and
                # z's, plan-local bits 2j and 2j + 1 of the j-th BELL
                mx, mz = 1 << 2 * j, 1 << 2 * j + 1
                assert bits == (0, mz, mx, mx | mz)
                assert p.plan.names[2 * j:2 * j + 2] == tuple(
                    (v.name, m) for v, m in zip(ins.out_vars, (mx, mz)))
                # one step: it puts the two measured axes first; _branch lays
                # the frontier out as (batch, outcome, rest) from its width
                width = len(perm) - 1
                assert perm[0] == 0 and sorted(perm) == list(range(width + 1))
                # the step before it is the fused rotation, on the window as it
                # stands: no reorder
                op, kernel, args = steps[i - 1]
                assert op is _APPLY and kernel is _gather and args[-1] == (-1,) + (2,) * width
                # a plain Z measurement: bit masks and axes only, no kernels
                assert all(isinstance(v, int) for part in steps[i][1:] for v in part)

    def test_bell_rotation_is_fused_into_the_step_before_its_branch(self):
        # Each BELL's cone is its EPR pair and the X pair on s that keeps it
        # off the teleport step, so on this narrow window the step before
        # each branch is the pair's allocation, X(s) twice, CNOT(r, s) and
        # H(r) as one gather, and the branch point itself puts (s, r) first.
        # Both times the window is the carrier then the pair, so r is array
        # axis 1 and s axis 2.
        prog = parse_program("QUBITS 5\nEPR 1 2\nX 1\nX 1\nBELL 0 1 -> a b\nX 2 IF a\n"
                             "Z 2 IF b\nEPR 3 4\nX 3\nX 3\nBELL 2 3 -> c d\nX 4 IF c\n"
                             "Z 4 IF d\nOUT 0 4\n")
        steps = prog.plan.steps
        at = [i for i, step in enumerate(steps) if step[0] is _BRANCH]
        assert len(at) == 2
        r_ax, s_ax, ndim = 1, 2, 4
        rng = np.random.default_rng(3)
        for j, i in enumerate(at):
            op, kernel, args = steps[i - 1]
            assert op is _APPLY and kernel is _gather
            frontier = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
            want = _grow_epr(frontier)
            for kind, axes in ((GateKind.X, (s_ax,)), (GateKind.X, (s_ax,)),
                               (GateKind.CNOT, (r_ax, s_ax)), (GateKind.H, (r_ax,))):
                gk, gargs = gate_kernel(kind, axes, ndim)
                want = gk(want, *gargs)
            got = kernel(frontier, *args)
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-12
            bits = (0, 2 << 2 * j, 1 << 2 * j, 3 << 2 * j)
            assert steps[i] == (_BRANCH, bits, (0, s_ax, r_ax, 3))
            # the (batch, 4, 2) layout and the one-qubit children follow from
            # the frontier's width
            children, _, _ = _branch(steps[i], got, np.ones(4), np.zeros(4, dtype=np.int64), None)
            assert children.shape[1:] == (2,)

    def test_wide_window_keeps_per_gate_bell_rotation(self):
        # The rotation twin of an n = 7 program links at window 9, above the
        # fusion width: the rotation stays two per-gate kernel steps, right
        # before the branch point that reorders the frontier itself.
        p = rotation_twin(compile_measure(random_circuit(np.random.default_rng(7), 7, 3,
                                                         max_clifford=21)))
        steps = p.plan.steps
        at = [i for i, step in enumerate(steps) if step[0] is _BRANCH]
        assert len(at) == len(bells(p)) > 0
        for i in at:
            _, _, perm = steps[i]
            ndim = len(perm)
            s_ax, r_ax = perm[1:3]
            assert ndim - 1 > _FUSE_WIDTH
            assert sorted(perm) == list(range(ndim))
            assert steps[i - 2] == (_APPLY, *gate_kernel(GateKind.CNOT, (r_ax, s_ax), ndim))
            assert steps[i - 1] == (_APPLY, *gate_kernel(GateKind.H, (r_ax,), ndim))

    @pytest.mark.parametrize("n,k", [(1, 3), (2, 3), (3, 4), (7, 3)])
    def test_fresh_pair_bell_is_one_teleport_step(self, n, k, monkeypatch):
        # Every link of a compiled program and every BELL of a gadget
        # measures against the fresh half of a deferred pair: one teleport
        # step each, no rotation and no branch point, with the plan-local
        # bits and names of the rotation path. The step's bit is the flat
        # window bit of the teleported slot, the slot that the pair's other
        # half t takes, read off the window as the step leaves it.
        slots = []
        teleport = _Schedule.teleport

        def watched(sched, r, s, pair, vx, vz):
            teleport(sched, r, s, pair, vx, vz)
            (t,) = set(pair[1]) - {s}
            slots.append(1 << (len(sched.window) - 1 - sched.window.index(t)))

        monkeypatch.setattr(_Schedule, "teleport", watched)
        rng = np.random.default_rng(10 * n + k)
        gadget = gadget_program(n & 1, k & 1)
        programs = [compile_measure(random_circuit(rng, n, k, max_clifford=3 * n)),
                    CompiledProgram(gadget.total_qubits, gadget.logical_outputs,
                                    gadget.instructions)]  # a new program: its plan is built here
        for p in programs:
            slots.clear()
            steps = p.plan.steps
            at = [i for i, step in enumerate(steps) if step[0] is _TELEPORT]
            assert len(at) == len(bells(p)) == len(slots) > 0
            assert not any(step[0] is _BRANCH for step in steps)
            for j, i in enumerate(at):
                _, bits, bit = steps[i]
                mx, mz = 1 << 2 * j, 1 << 2 * j + 1
                assert bits == (0, mz, mx, mx | mz)
                assert bit == slots[j] and bit < 1 << p.plan.peak_width
            assert p.plan.names == rotation_twin(p).plan.names

    @pytest.mark.parametrize("text,kinds,branches", [
        # t takes r's slot: the window never holds the pair
        ("QUBITS 3\nEPR 1 2\nBELL 0 1 -> a b\nOUT 0 2\n", [_TELEPORT], 4),
        # gates deferred on t run after the Pauli
        ("QUBITS 3\nEPR 1 2\nH 2\nT 2\nBELL 0 1 -> a b\nX 2 IF a\nOUT 0 2\n", [_TELEPORT],
         4),
        # s was touched after its EPR
        ("QUBITS 3\nEPR 1 2\nH 1\nBELL 0 1 -> a b\nOUT 0 2\n", [_BRANCH], 4),
        # r's cone reaches the pair through t
        ("QUBITS 3\nEPR 1 2\nCNOT 2 0\nBELL 0 1 -> a b\nOUT 0 2\n", [_BRANCH], 4),
        # r is t itself: the pair is measured in its own Bell state, one outcome
        ("QUBITS 4\nEPR 2 3\nH 0\nCNOT 0 1\nBELL 3 2 -> a b\nOUT 0 0\nOUT 1 1\n", [_BRANCH],
         1),
        # the first link's t is joined to the second pair before its BELL
        ("QUBITS 5\nEPR 1 2\nEPR 3 4\nCNOT 2 4\nBELL 0 1 -> a b\nBELL 2 3 -> c d\nOUT 0 4\n",
         [_TELEPORT, _BRANCH], 16),
        # entanglement swapping: r is the half of a pair that r's cone allocates
        ("QUBITS 6\nEPR 2 3\nEPR 4 5\nCNOT 0 1\nBELL 3 4 -> a b\nOUT 0 2\nOUT 1 5\n",
         [_TELEPORT], 4),
    ], ids=["plain", "gates-on-t", "s-touched", "cone-reaches-t", "r-is-t", "t-joined",
            "swap"])
    def test_teleport_rule(self, text, kinds, branches, rng):
        prog = parse_program(text)
        steps = prog.plan.steps
        assert [step[0] for step in steps if step[0] in (_TELEPORT, _BRANCH)] == kinds
        psi = random_state(rng, prog.n)
        assert assert_matches_reference(prog, psi) == branches

    @pytest.mark.parametrize("width", range(1, MAX_QUBITS + 1))  # both sides of _FUSE_WIDTH
    def test_teleport_children_are_x_after_z(self, width):
        # Child k = 2x + z of every row of an exhaustive teleport step is
        # the row under the oracle's Z^z then X^x on the teleported axis.
        rng = np.random.default_rng(width)
        shape = (3,) + (2,) * width
        frontier = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        probs, ones = np.full(3, 0.5), np.arange(3, dtype=np.int64) << 2
        for axis in range(1, width + 1):
            step = (_TELEPORT, (0, 2, 1, 3), 1 << (width - axis))
            children, child_probs, child_ones = _teleport(step, frontier, probs, ones)
            assert children.shape == (12,) + shape[1:]
            assert not np.shares_memory(children, frontier)
            assert np.array_equal(child_probs, np.full(12, 0.125))
            assert child_ones.tolist() == [m | b for m in ones.tolist() for b in (0, 2, 1, 3)]
            for k in range(4):
                want = frontier
                for kind, on in ((GateKind.Z, k & 1), (GateKind.X, k >> 1)):
                    if on:
                        kernel, args = gate_kernel(kind, (axis,), width + 1)
                        want = kernel(want, *args)
                assert np.array_equal(children[k::4], want)

    @pytest.mark.parametrize("text,match", [
        ("QUBITS 3\nH 1\nEPR 1 2\nOUT 0 0\n", "already in use"),
        ("QUBITS 3\nEPR 1 2\nBELL 0 1 -> a b\nEPR 0 2\nOUT 0 2\n", "already measured"),
        ("QUBITS 3\nEPR 1 2\nBELL 0 1 -> a b\nZ 0 IF b\nOUT 0 2\n", "already measured"),
        ("QUBITS 3\nEPR 1 2\nBELL 0 1 -> a b\nH 2\nT 1\nOUT 0 2\n", "already measured"),
        (f"QUBITS {MAX_QUBITS + 1}\n"
         + "".join(f"CNOT {q} {q + 1}\n" for q in range(MAX_QUBITS)) + f"OUT 0 {MAX_QUBITS}\n",
         "cap"),
    ], ids=["epr-on-live", "epr-on-measured", "cond-on-measured", "gate-on-measured", "cap"])
    def test_qubit_checks_run_when_the_plan_is_built(self, text, match):
        prog = parse_program(text)
        with pytest.raises(ValidationError, match=match):
            prog.plan


_FUSED_KINDS = (GateKind.H, GateKind.P, GateKind.PDG, GateKind.T, GateKind.X, GateKind.Z,
                GateKind.CNOT)

# Two teleport links that build their pair from gates: H on a fresh qubit
# takes the window from 8 to 9 qubits, the links' Bells bring it back to 8.
CROSSING = """QUBITS 12
H 0
T 0
CNOT 0 1
H 2
P 3
CNOT 3 4
T 5
H 6
CNOT 6 7
T 7
H 8
CNOT 8 9
BELL 7 8 -> a b
X 9 IF a
Z 9 IF b
T 9
CNOT 9 0
H 10
CNOT 10 11
BELL 9 10 -> c d
X 11 IF c
Z 11 IF d
H 11
""" + "".join(f"OUT {j} {j}\n" for j in range(7)) + "OUT 7 11\n"


class TestFusion:
    """Fused gather steps against the per-gate kernels they replace."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_fused_map_equals_per_gate_kernels(self, data):
        width = data.draw(st.integers(1, _FUSE_WIDTH), label="width")
        rows = data.draw(st.integers(1, 4), label="rows")
        sched = _Schedule(width)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        shape = (rows,) + (2,) * width
        frontier = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        want = frontier
        for _ in range(data.draw(st.integers(1, 16), label="ops")):
            op = data.draw(st.sampled_from(
                ["gate"] + ["zero"] * (width < _FUSE_WIDTH) + ["epr"] * (width + 2 <= _FUSE_WIDTH)))
            if op == "zero":
                sched.axes((width,))  # qubit labels are window slots
                want = _grow(want)
                width += 1
            elif op == "epr":
                sched.epr(width, width + 1)
                want = _grow_epr(want)
                width += 2
            else:
                kind = data.draw(st.sampled_from(_FUSED_KINDS))
                arity = 2 if kind is GateKind.CNOT else 1
                if arity > width:
                    continue
                qubits = tuple(data.draw(st.permutations(range(width)))[:arity])
                sched.gate(kind, qubits)
                kernel, args = gate_kernel(kind, tuple(q + 1 for q in qubits), width + 1)
                want = kernel(want, *args)
        steps = sched.plan(()).steps
        assert steps and all(step[:2] == (_APPLY, _gather) for step in steps)
        got = frontier
        for _, kernel, args in steps:
            got = kernel(got, *args)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-12

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_allocations_compose_at_every_width(self, data):
        # Gates fuse up to _FUSE_WIDTH and run per gate above it. An
        # allocation joins the pending map at every width, and one onto a
        # window wider than _FUSE_WIDTH ends a gather step at once.
        width = data.draw(st.integers(1, 10), label="width")
        sched = _Schedule(width)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        shape = (2,) + (2,) * width
        frontier = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        want = frontier
        wide_gates = 0
        for _ in range(data.draw(st.integers(1, 12), label="ops")):
            op = data.draw(st.sampled_from(
                ["gate"] + ["zero"] * (width < 12) + ["epr"] * (width + 2 <= 12)))
            if op == "gate":
                kind = data.draw(st.sampled_from(_FUSED_KINDS))
                arity = 2 if kind is GateKind.CNOT else 1
                if arity > width:
                    continue
                qubits = tuple(data.draw(st.permutations(range(width)))[:arity])
                sched.gate(kind, qubits)
                kernel, args = gate_kernel(kind, tuple(q + 1 for q in qubits), width + 1)
                want = kernel(want, *args)
                wide_gates += width > _FUSE_WIDTH
                continue
            if op == "zero":
                sched.axes((width,))  # qubit labels are window slots
                want = _grow(want)
                width += 1
            else:
                sched.epr(width, width + 1)
                want = _grow_epr(want)
                width += 2
            if width > _FUSE_WIDTH:
                assert sched.pending is None
                assert sched.steps[-1][:2] == (_APPLY, _gather)
                assert sched.steps[-1][2][-1] == (-1,) + (2,) * width
        steps = sched.plan(()).steps
        kernels = [kernel for _, kernel, _ in steps]
        assert len(kernels) - kernels.count(_gather) == wide_gates  # the per-gate steps
        got = frontier
        for _, kernel, args in steps:
            got = kernel(got, *args)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-12

    @staticmethod
    def _crosses(plan):
        kernels = [step[1] for step in plan.steps if step[0] is _APPLY]
        return _gather in kernels and any(k is not _gather for k in kernels)

    def test_sampled_window_crossing_the_fusion_width(self):
        # The rotation twin allocates each pair: its window crosses from 7 to 9.
        rng = np.random.default_rng(9)
        c = random_circuit(rng, 7, 3)
        prog = rotation_twin(compile_measure(c))
        assert prog.plan.peak_width == 9 and self._crosses(prog.plan)
        for seed in range(4):
            psi = random_state(rng, 7)
            out, _ = execute(prog, psi, np.random.default_rng(seed))
            assert fidelity_up_to_phase(out, apply_circuit(psi, c)) == pytest.approx(1.0, abs=1e-10)

    def test_exhaustive_window_crossing_the_fusion_width(self, rng):
        prog = parse_program(CROSSING)
        assert prog.plan.peak_width == 10 and self._crosses(prog.plan)
        relabel = {9: 7, 11: 7}
        gates = [Gate(ins.gate.kind, tuple(relabel.get(q, q) for q in ins.qubits))
                 for ins in prog.instructions
                 if ins.op is InstrOp.GATE and not {8, 10}.intersection(ins.qubits)]
        circuit = layerize(gates, 8)
        psi = random_state(rng, 8)
        ref = apply_circuit(psi, circuit)
        branches = enumerate_branches(prog, psi)
        assert len(branches) == 16
        assert sum(b.probability for b in branches) == pytest.approx(1.0)
        for b in branches:
            assert fidelity_up_to_phase(b.state, ref) == pytest.approx(1.0, abs=1e-10)


def per_axis_branch(qubits, outcomes, amps, probs, ones, rng):
    """The branch point as it was before the measured-first layout: the
    outcome table is summed over the unmeasured axes of an unordered window,
    transposed into outcome order, and each measured axis is indexed by its
    bit of k."""
    measured = tuple(q + 1 for q in qubits)  # qubit labels are window slots
    bits = [0]
    for _, bit in reversed(outcomes):
        bits += [b | bit for b in bits]
    sum_axes = tuple(ax for ax in range(1, amps.ndim) if ax not in measured)
    order = (0, *[sorted(measured).index(ax) + 1 for ax in measured])
    table = np.abs(amps)
    table = np.square(table, out=table).sum(axis=sum_axes).transpose(order)
    if rng is not None:
        row = table[0].ravel().tolist()
        u = rng.random()
        for k, acc in enumerate(itertools.accumulate(row)):
            if u < acc:
                break
        prob = row[k]
        parents, ks = slice(None), k
    else:
        flat = table.reshape(-1)
        kept = np.flatnonzero(flat > _CUTOFF)
        prob = flat[kept]
        parents, ks = np.divmod(kept, len(bits))
    idx = [parents] + [slice(None)] * (amps.ndim - 1)
    for shift, ax in enumerate(reversed(measured)):
        idx[ax] = ks >> shift & 1
    children = amps[tuple(idx)]
    if rng is not None:
        return children / np.sqrt(prob), probs * prob, ones | bits[k]
    children /= np.sqrt(prob).reshape((-1,) + (1,) * (children.ndim - 1))
    ones = np.array([int(ones[i]) | bits[k] for i, k in zip(parents.tolist(), ks.tolist())],
                    dtype=np.int64).reshape(-1)
    return children, probs[parents] * prob, ones


class TestBranch:
    """The measured-first branch point against the per-axis one it replaced."""

    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_branch_matches_the_per_axis_branch(self, data):
        width = data.draw(st.integers(2, 10), label="width")  # both sides of _FUSE_WIDTH
        batch = data.draw(st.integers(1, 4), label="batch")
        qubits = tuple(data.draw(st.permutations(range(width)), label="order")[:2])  # (s, r)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        shape = (batch,) + (2,) * width
        frontier = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if data.draw(st.booleans(), label="dead"):  # outcomes of probability 0
            frontier[(slice(None),) * (qubits[-1] + 1) + (1,)] = 0
        frontier /= np.linalg.norm(frontier.reshape(batch, -1), axis=1).reshape((-1,) + (1,) * width)
        outcomes = [(None, 1), (None, 2)]  # the first read: x from s is bit 0, z from r bit 1
        sched = _Schedule(width)
        assert sched.branch(*qubits, None, None) == (0, 2, 1, 3)
        (step,) = sched.plan(()).steps  # one step at every width

        # a sampled shot: its probability is a float and its bits an int
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="uniform")
        shot = frontier[:1]
        got = _branch(step, shot, 0.5, 4, np.random.default_rng(seed))
        want = per_axis_branch(qubits, outcomes, shot, 0.5, 4, np.random.default_rng(seed))
        assert type(got[1]) is float and type(got[2]) is int
        self._agree(got, want, frontier)

        # an exhaustive frontier: one probability and one int64 mask per row
        probs = rng.random(batch)
        ones = np.arange(batch, dtype=np.int64) << 2  # masks name the parent
        got = _branch(step, frontier, probs, ones, None)
        want = per_axis_branch(qubits, outcomes, frontier, probs, ones, None)
        assert got[2].dtype == np.int64
        self._agree(got, want, frontier)

    @staticmethod
    def _agree(got, want, frontier):
        (got_amps, got_probs, got_ones), (want_amps, want_probs, want_ones) = got, want
        assert np.array_equal(got_ones, want_ones)  # the same outcomes of the same parents
        assert np.abs(np.subtract(got_probs, want_probs)).max() < 1e-12
        assert got_amps.shape == want_amps.shape
        assert np.abs(got_amps - want_amps).max(initial=0.0) < 1e-12
        assert not np.shares_memory(got_amps, frontier)


_COND_GATES = {InstrOp.COND_PDG: GateKind.PDG, InstrOp.COND_X: GateKind.X,
               InstrOp.COND_Z: GateKind.Z}


def branch_reference(p, psi, outcomes: dict[str, int]):
    """Probability and output state of one outcome assignment, from the full
    register with the conftest matrix oracle: each instruction as literal
    gates, each Bell rotated and projected onto its assigned bits, each
    condition evaluated at the assignment."""
    total = p.total_qubits
    amps = np.kron(psi.amps, np.eye(2 ** (total - p.n))[0])
    for ins in p.instructions:
        if ins.op is InstrOp.EPR:
            amps = apply_gates(amps, [h(ins.qubits[0]), cnot(*ins.qubits)], total)
        elif ins.op is InstrOp.GATE:
            amps = apply_gates(amps, [ins.gate], total)
        elif ins.op is InstrOp.BELL:
            r, s = ins.qubits
            vx, vz = ins.out_vars
            amps = apply_gates(amps, [cnot(r, s), h(r)], total)
            amps = project(amps, total, {r: outcomes[vz.name], s: outcomes[vx.name]})
        elif poly_eval(ins.cond, outcomes):
            amps = apply_gates(amps, [Gate(_COND_GATES[ins.op], ins.qubits)], total)
    prob = float(np.linalg.norm(amps) ** 2)
    return prob, (factor_state(amps, total, p.logical_outputs) if prob > 0 else None)


def assert_matches_reference(p, psi, cutoff: float = 1e-12) -> int:
    """Every branch of enumerate_branches against branch_reference: the
    branches are exactly the assignments above ``cutoff``, in lexicographic
    _BELL_OUTCOMES order per Bell in program order."""
    names = [tuple(v.name for v in ins.out_vars) for ins in bells(p)]
    want = []
    for choice in itertools.product(_BELL_OUTCOMES, repeat=len(names)):
        outcomes = {v: bit for (vx, vz), (xv, zv) in zip(names, choice)
                    for v, bit in ((vx, xv), (vz, zv))}
        prob, state = branch_reference(p, psi, outcomes)
        if prob > cutoff:
            want.append((outcomes, prob, state))
    got = enumerate_branches(p, psi)
    assert [b.outcomes for b in got] == [w[0] for w in want]
    for b, (_, prob, state) in zip(got, want):
        assert list(b.outcomes) == [v for pair in names for v in pair]
        assert b.probability == pytest.approx(prob, abs=1e-12)
        assert fidelity_up_to_phase(b.state, state) >= 1 - 1e-10
    return len(got)


# Two links whose corrections fire on some frontier entries and not on others,
# one of them on a product of two outcomes.
PARTIAL = """QUBITS 6
EPR 2 3
EPR 4 5
H 0
T 0
CNOT 0 1
BELL 0 2 -> a b
X 3 IF a
PDG 3 IF a * b
H 3
BELL 1 4 -> c d
Z 5 IF b ^ d ^ 1
X 5 IF c
T 5
OUT 0 3
OUT 1 5
"""


class Forced:
    """An RNG stand-in whose uniforms draw the given outcomes k in order, as
    (k + 1/2) / 4: at a teleport step that is outcome k, and so it is at a
    branch point whose four outcomes each have probability 1/4."""

    def __init__(self, ks):
        self.ks = iter(ks)

    def random(self) -> float:
        return (next(self.ks) + 0.5) / 4


def chain_stage(n: int) -> str:
    """One stage on n wires, as gate lines: H on each, a CNOT chain, T on each."""
    return ("".join(f"H {q}\n" for q in range(n))
            + "".join(f"CNOT {q} {q + 1}\n" for q in range(n - 1))
            + "".join(f"T {q}\n" for q in range(n)))


def rotation_path(n: int) -> str:
    """A hand-built program for chain_stage(n), n >= 2: wire 0 is teleported
    onto a fresh pair half n + 1, which is then linked over a second pair
    whose half n + 2 is touched first (X twice), so that its BELL is a
    rotation and a branch point on an (n + 2)-qubit window. The second
    pair's allocation is the first step after the teleport step, so a shot
    meets it with the teleport's Pauli still in its frame; the corrections
    of both links come last."""
    a, b, c, d = n, n + 1, n + 2, n + 3
    return (f"QUBITS {n + 4}\n" + chain_stage(n)
            + f"EPR {a} {b}\nBELL 0 {a} -> a b\nEPR {c} {d}\nX {c}\nX {c}\n"
            f"BELL {b} {c} -> c d\nZ {d} IF b ^ d\nX {d} IF a ^ c\nOUT 0 {d}\n"
            + "".join(f"OUT {j} {j}\n" for j in range(1, n)))


class TestRotationPath:
    """Branch points on windows of every width, against the dense oracle."""

    # a window of 6, one that crosses _FUSE_WIDTH at the pair's allocation
    # (7 to 9), and one of 12, wider than _FUSE_WIDTH throughout
    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_branch_point_at_every_width_matches_the_dense_oracle(self, n, rng):
        prog = parse_program(rotation_path(n))
        steps = prog.plan.steps
        assert prog.plan.peak_width == n + 2
        ops = [step[0] for step in steps]
        assert [op for op in ops if op in (_TELEPORT, _BRANCH)] == [_TELEPORT, _BRANCH]
        # the pair's allocation is one gather step onto n + 2 qubits, right
        # after the teleport step, whatever the width
        op, kernel, args = steps[ops.index(_TELEPORT) + 1]
        assert op is _APPLY and kernel is _gather and args[-1] == (-1,) + (2,) * (n + 2)
        # the branch point holds its bits and its permutation of the n + 2
        # window axes and the batch axis; its layout follows from that width
        step = steps[ops.index(_BRANCH)]
        assert len(step) == 3 and len(step[2]) == n + 3

        psi = random_state(rng, n)
        assert assert_matches_reference(prog, psi) == 16
        # shots: every forced outcome pair, then seeded draws
        runs = [Forced(ks) for ks in itertools.product(range(4), repeat=2)]
        runs += [np.random.default_rng(seed) for seed in range(4)]
        want = apply_circuit(psi, parse_circuit(f"QUBITS {n}\n{chain_stage(n)}---\n"))
        cached = _frame_signs.cache_info().currsize
        for draws in runs:
            out, outcomes = execute(prog, psi, draws)
            prob, state = branch_reference(prog, psi, outcomes)
            assert prob == pytest.approx(1 / 16, abs=1e-12)
            assert fidelity_up_to_phase(out, state) >= 1 - 1e-10
            assert fidelity_up_to_phase(out, want) == pytest.approx(1.0, abs=1e-10)
        if n > _FUSE_WIDTH:
            # the allocation's gather reads a wide window, so a shot applies
            # its frame first: frame signs are cached for narrow windows only
            assert _frame_signs.cache_info().currsize == cached


class TestFrontier:
    """The frontier runner against the independent matrix oracle, branch by
    branch."""

    @pytest.mark.parametrize("n,k", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)])
    def test_random_circuits_match_reference(self, n, k):
        rng = np.random.default_rng(100 * n + k)
        for _ in range(3):
            c = random_circuit(rng, n, k, max_clifford=3 * n)
            psi = random_state(rng, n)
            assert assert_matches_reference(compile_measure(c), psi) == 4 ** (n * (k - 1))

    def test_partial_conditions_match_reference(self, rng):
        prog = parse_program(PARTIAL)
        for _ in range(3):
            assert assert_matches_reference(prog, random_state(rng, 2)) == 16

    def test_sampled_shot_is_one_enumerated_branch(self, rng):
        prog = parse_program(PARTIAL)
        psi = random_state(rng, 2)
        branches = {tuple(b.outcomes.items()): b for b in enumerate_branches(prog, psi)}
        for _ in range(8):
            out, outcomes = execute(prog, psi, rng)
            b = branches[tuple(outcomes.items())]
            assert fidelity_up_to_phase(out, b.state) >= 1 - 1e-12
