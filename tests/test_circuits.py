import dataclasses
import re
import sys
import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    circuit_matrix,
    gate_strategy,
    gates_matrix,
    layered_circuits,
    mats_equal_up_to_phase,
    random_circuit,
)
from tlink import circuits, cli
from tlink.circuits import (
    Gate,
    GateKind,
    LayeredCircuit,
    ParseError,
    Stage,
    ValidationError,
    clifford_depth,
    cnot,
    depth_metrics,
    flatten,
    h,
    layerize,
    parse_circuit,
    serialize_circuit,
    t,
)

# One malformed Clifford gate each on 2 qubits, with the exact ValidationError
# message it raises.
MALFORMED_CLIFFORD = [
    pytest.param(Gate(GateKind.H, (0, 1)), "H takes 1 target(s), got 2", id="h-two-targets"),
    pytest.param(Gate(GateKind.CNOT, (0,)), "CNOT takes 2 target(s), got 1", id="cnot-one-target"),
    pytest.param(cnot(1, 1), "CNOT control and target must be distinct", id="cnot-c-eq-t"),
    pytest.param(h(2), "qubit index 2 out of range for 2 qubits", id="index-n"),
    pytest.param(cnot(0, 2), "qubit index 2 out of range for 2 qubits", id="cnot-index-n"),
    pytest.param(h(-1), "qubit index -1 out of range for 2 qubits", id="index-minus-1"),
]


def reference_validate(c) -> None:
    """The standalone IR check the LayeredCircuit constructor replaced, with
    its per-gate check written out: the same checks, order and messages, on
    anything with ``n`` and ``stages``."""
    if c.n < 1:
        raise ValidationError("qubit count must be positive")
    if len(c.stages) < 1:
        raise ValidationError("circuit needs at least one stage")
    for i, st_ in enumerate(c.stages):
        for g in st_.clifford:
            if g.kind not in circuits.CLIFFORD_KINDS:
                raise ValidationError("T gate inside a Clifford block; use layerize")
            arity = 2 if g.kind is GateKind.CNOT else 1
            if len(g.targets) != arity:
                raise ValidationError(f"{g.kind.value} takes {arity} target(s), got {len(g.targets)}")
            if arity == 2 and g.targets[0] == g.targets[1]:
                raise ValidationError("CNOT control and target must be distinct")
            for q in g.targets:
                if not 0 <= q < c.n:
                    raise ValidationError(f"qubit index {q} out of range for {c.n} qubits")
        for q in st_.t_layer:
            if not 0 <= q < c.n:
                raise ValidationError(f"T-layer qubit {q} out of range for {c.n} qubits")
        if not st_.t_layer and i != len(c.stages) - 1:
            raise ValidationError("only the final stage may have an empty T layer")


@st.composite
def raw_circuits(draw):
    """(n, stages) mixing valid gates and T layers with every fault the IR
    check knows: n = 0, no stages, negative and out-of-range indices, a CNOT
    on one qubit, wrong arity, a T in a Clifford list, an empty non-final T
    layer."""
    n = draw(st.sampled_from([0, 1, 2, 3, 4]))
    width = max(n, 1)
    index = st.one_of(st.integers(0, width - 1), st.sampled_from([-2, -1, width, width + 3]))
    faulty_gate = st.one_of(
        st.builds(lambda k, q: Gate(k, (q,)), st.sampled_from(circuits.CLIFFORD_KINDS), index),
        st.builds(lambda c, d: Gate(GateKind.CNOT, (c, d)), index, index),
        st.builds(lambda q: Gate(GateKind.CNOT, (q, q)), index),
        st.builds(lambda k, qs: Gate(k, tuple(qs)), st.sampled_from(list(GateKind)),
                  st.lists(index, max_size=3)),
        st.builds(t, index),
    )
    gate = st.one_of(*[gate_strategy(width)] * 3, faulty_gate)
    valid_layer = st.frozensets(st.integers(0, width - 1), min_size=1)
    layer = st.one_of(valid_layer, valid_layer, st.just(frozenset()),
                      st.frozensets(index, min_size=1, max_size=3))
    stage = st.builds(Stage, st.lists(gate, max_size=3).map(tuple), layer)
    return n, tuple(draw(st.lists(stage, max_size=3)))


def reference_clifford_depth(gates) -> int:
    """ASAP depth with one max over a generator per gate, for any number of
    targets: what clifford_depth computes with its two cases written out."""
    free: dict[int, int] = {}
    depth = 0
    for g in gates:
        layer = 1 + max((free.get(q, 0) for q in g.targets), default=0)
        for q in g.targets:
            free[q] = layer
        depth = max(depth, layer)
    return depth


class TestParse:
    def test_minimal_t_circuit(self):
        c = parse_circuit("QUBITS 1\nT 0\n---")
        assert c.n == 1
        assert len(c.stages) == 1
        assert c.stages[0].clifford == ()
        assert c.stages[0].t_layer == frozenset({0})

    def test_one_stage_with_clifford(self):
        c = parse_circuit("QUBITS 2\nH 0\nCNOT 0 1\nT 1\n---")
        assert len(c.stages) == 1
        assert c.stages[0].clifford == (h(0), cnot(0, 1))
        assert c.stages[0].t_layer == frozenset({1})

    def test_index_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_circuit("QUBITS 1\nCNOT 0 1\n---")

    def test_clifford_after_t_rejected(self):
        with pytest.raises(ParseError, match="Clifford"):
            parse_circuit("QUBITS 1\nT 0\nH 0\n---")

    def test_duplicate_t_rejected(self):
        with pytest.raises(ParseError, match="duplicate T"):
            parse_circuit("QUBITS 1\nT 0\nT 0\n---")

    def test_comments_and_blanks(self):
        c = parse_circuit("# a comment\nQUBITS 1\n\nH 0  # trailing\n---\n")
        assert c.stages[0].clifford == (h(0),)

    def test_missing_header(self):
        with pytest.raises(ParseError, match="QUBITS"):
            parse_circuit("H 0\n---")

    def test_empty_circuit_is_identity_stage(self):
        c = parse_circuit("QUBITS 2\n---\n")
        assert len(c.stages) == 1
        assert c.stages[0] == Stage((), frozenset())

    def test_mid_circuit_empty_t_layer_rejected(self):
        with pytest.raises(ValidationError, match="final stage"):
            parse_circuit("QUBITS 1\n---\n---\n")

    def test_parse_error_carries_line_number(self):
        try:
            parse_circuit("QUBITS 1\nH 0\nFOO 0\n---")
        except ParseError as exc:
            assert exc.line == 3
        else:
            pytest.fail("expected ParseError")


    # Integers are an optional '-' then ASCII digits, not whatever int() takes.
    @pytest.mark.parametrize("text,line,message", [
        ("QUBITS 1_2\nT 0\n---", 1, "qubit count must be an integer"),
        ("QUBITS +2\nT 0\n---", 1, "qubit count must be an integer"),
        ("QUBITS \u0662\nT 0\n---", 1, "qubit count must be an integer"),
        ("QUBITS 12\nH 1_0\n---", 2, "qubit arguments must be integers"),
        ("QUBITS 4\nT +3\n---", 2, "qubit arguments must be integers"),
        ("QUBITS 2\nT \u0661\n---", 2, "qubit arguments must be integers"),
        ("QUBITS 2\nT \uff11\n---", 2, "qubit arguments must be integers"),
        ("QUBITS 2\nT -\n---", 2, "qubit arguments must be integers"),
        ("QUBITS 2\nCNOT 0 1_0\n---", 2, "qubit arguments must be integers"),
        ("QUBITS 2\nCNOT \u0660 1\n---", 2, "qubit arguments must be integers"),
        ("QUBITS -1\nT 0\n---", 1, "qubit count must be positive"),
        ("QUBITS 2\nT -1\n---", 2, "qubit index -1 out of range"),
        ("QUBITS 2\nCNOT 0 -1\n---", 2, "qubit index -1 out of range"),
        ("QUBITS 2\nH 2\n---", 2, "qubit index 2 out of range"),
        pytest.param(f"QUBITS 2\nT {'1' * 5000}\n---", 2, "qubit arguments must be integers",
                     id="index-past-the-int-digit-limit"),
    ])
    def test_non_canonical_integer_rejected(self, text, line, message):
        with pytest.raises(ParseError, match=re.escape(message)) as info:
            parse_circuit(text)
        assert info.value.line == line

    def test_canonical_integers_accept_leading_zeros_and_minus_zero(self):
        c = parse_circuit("QUBITS 02\nH 01\nCNOT -0 1\nT -0\n---")
        assert c.n == 2
        assert c.stages[0].clifford == (h(1), cnot(0, 1))
        assert c.stages[0].t_layer == frozenset({0})

    def test_non_canonical_integer_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("QUBITS 12\nH 1_0\nT 0\n---\n")
        assert cli.main(["stats", "--in", str(path)]) == cli.EXIT_PARSE
        assert "line 2: qubit arguments must be integers" in capsys.readouterr().err


@pytest.fixture
def cold_memo(monkeypatch):
    """An empty gate-line memo for the test; the process-wide one is restored after."""
    memo: dict = {}
    monkeypatch.setattr(circuits, "_GATE_LINES", memo)
    return memo


def parse_error(text: str) -> tuple[str, int | None]:
    with pytest.raises(ParseError) as info:
        parse_circuit(text)
    return str(info.value), info.value.line


class TestGateLineMemo:
    """parse_circuit keeps each checked gate line, and reuses it only where a
    cold parse would accept it."""

    def test_line_kept_under_a_wider_header_is_range_checked(self, cold_memo):
        parse_circuit("QUBITS 8\nCNOT 6 7\nT 0\n---\n")
        assert cold_memo["CNOT 6 7"] == (cnot(6, 7), 7)
        narrow = "QUBITS 4\nH 0\nCNOT 6 7\nT 0\n---\n"
        warm = parse_error(narrow)
        cold_memo.clear()
        assert warm == parse_error(narrow) == ("line 3: qubit index 6 out of range", 3)

    def test_comments_and_surrounding_spaces_parse_as_before_and_are_not_kept(self, cold_memo):
        text = "QUBITS 2\n  H 0  \nCNOT 0 1 # link\n\tT 1\n---\n"
        plain = "QUBITS 2\nH 0\nCNOT 0 1\nT 1\n---\n"
        first = parse_circuit(text)
        assert cold_memo == {}
        assert parse_circuit(plain) == first
        assert set(cold_memo) == {"H 0", "CNOT 0 1", "T 1"}
        assert parse_circuit(text) == first

    def test_memo_stays_within_its_bound(self, cold_memo):
        n = 70  # 70 * 69 = 4830 distinct CNOT lines, past the bound
        lines = [f"CNOT {c} {d}" for c in range(n) for d in range(n) if c != d]
        assert len(lines) > circuits._GATE_LINES_MAX == 4096
        text = f"QUBITS {n}\n" + "\n".join(lines) + "\nT 0\n---\n"
        first = parse_circuit(text)
        assert len(cold_memo) == circuits._GATE_LINES_MAX
        assert parse_circuit(text) == first
        assert len(cold_memo) == circuits._GATE_LINES_MAX

    def test_warm_and_cold_parses_are_equal(self, cold_memo):
        rng = np.random.default_rng(5)
        texts = [serialize_circuit(random_circuit(rng, int(rng.integers(1, 6)), int(rng.integers(1, 5))))
                 for _ in range(40)]
        cold = []
        for text in texts:
            cold_memo.clear()
            cold.append(parse_circuit(text))
        cold_memo.clear()
        assert [parse_circuit(text) for text in texts] == cold
        assert [parse_circuit(text) for text in texts] == cold

    def test_bound_holds_across_threads(self, cold_memo):
        # Eight threads add distinct lines past the bound at once; an unlocked
        # check-then-add could leave the memo above it.
        n = 70
        lines = [f"CNOT {c} {d}" for c in range(n) for d in range(n) if c != d]
        texts = [f"QUBITS {n}\n" + "\n".join(lines[i::8]) + "\nT 0\n---\n" for i in range(8)]
        parsed: dict[int, LayeredCircuit] = {}

        def work(i: int) -> None:
            parsed[i] = parse_circuit(texts[i])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
        finally:
            sys.setswitchinterval(old)
        assert len(cold_memo) == circuits._GATE_LINES_MAX
        assert all(str(g) == line and top == max(g.targets) for line, (g, top) in cold_memo.items())
        cold_memo.clear()
        assert [parsed[i] for i in range(8)] == [parse_circuit(text) for text in texts]

    @pytest.mark.parametrize("warmup,text", [
        ("QUBITS 2\nT 0\n---\n", "QUBITS 2\nT 0\nT 0\n---\n"),
        ("QUBITS 2\nH 0\nT 0\n---\n", "QUBITS 2\nT 0\nH 0\n---\n"),
        ("QUBITS 2\nH 1\nT 0\n---\n", "H 1\nQUBITS 2\n---\n"),
        ("QUBITS 3\nH 2\nT 0\n---\n", "QUBITS 2\nH 2\n---\n"),
    ], ids=["duplicate-t", "clifford-after-t", "before-header", "index-n"])
    def test_errors_are_unchanged_by_a_warm_memo(self, cold_memo, warmup, text):
        cold = parse_error(text)
        parse_circuit(warmup)
        assert parse_error(text) == cold


class TestSerialize:
    def test_canonical_minimal(self):
        c = parse_circuit("QUBITS 1\nT 0\n---")
        assert serialize_circuit(c) == "QUBITS 1\nT 0\n---\n"

    def test_trailing_empty_stage_keeps_marker(self):
        c = LayeredCircuit(1, (Stage((), frozenset({0})), Stage((), frozenset())))
        assert serialize_circuit(c) == "QUBITS 1\nT 0\n---\n---\n"
        assert parse_circuit(serialize_circuit(c)) == c

    @given(layered_circuits())
    def test_round_trip(self, c):
        assert parse_circuit(serialize_circuit(c)) == c


class TestLayerize:
    def test_t_h_t(self):
        c = layerize([t(0), h(0), t(0)], 1)
        assert [st.t_layer for st in c.stages] == [frozenset({0}), frozenset({0})]
        assert c.stages[1].clifford == (h(0),)
        assert depth_metrics(c).t_depth == 2

    def test_no_boundary(self):
        c = layerize([h(0), cnot(0, 1), t(1)], 2)
        assert len(c.stages) == 1

    def test_disjoint_t_gates_share_a_layer(self):
        c = layerize([t(0), t(1)], 2)
        assert len(c.stages) == 1
        assert c.stages[0].t_layer == frozenset({0, 1})

    def test_clifford_after_t_opens_stage(self):
        c = layerize([t(0), h(1)], 2)
        assert len(c.stages) == 2
        assert c.stages[1] == Stage((h(1),), frozenset())

    def test_non_final_stages_have_t_layers(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            gates = list(flatten(random_circuit(rng, n, int(rng.integers(1, 4)))))
            c = layerize(gates, n)
            for st in c.stages[:-1]:
                assert st.t_layer

    def test_flatten_equivalence_on_statevector(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            src = random_circuit(rng, n, int(rng.integers(1, 4)))
            gates = flatten(src)
            c = layerize(gates, n)
            assert mats_equal_up_to_phase(gates_matrix(flatten(c), n), gates_matrix(gates, n))

    def test_validates_indices(self):
        with pytest.raises(ValidationError):
            layerize([h(3)], 2)

    @pytest.mark.parametrize("gate", [Gate(GateKind.T, (0, 1)), t(2)],
                             ids=["two-target-t", "t-out-of-range"])
    def test_validates_t_gates(self, gate):
        with pytest.raises(ValidationError):
            layerize([gate], 2)

    @pytest.mark.parametrize("gate,message", [
        *MALFORMED_CLIFFORD,
        pytest.param(Gate(GateKind.T, (0, 1)), "T takes 1 target(s), got 2", id="t-two-targets"),
        pytest.param(t(2), "qubit index 2 out of range for 2 qubits", id="t-index-n"),
    ])
    def test_malformed_gate_message(self, gate, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            layerize([h(0), gate, t(0)], 2)


class TestDepthMetrics:
    def test_identity_circuit(self):
        dm = depth_metrics(parse_circuit("QUBITS 1\n---\n"))
        assert (dm.total_depth, dm.t_depth, dm.t_count, dm.gate_count) == (0, 0, 0, 0)

    def test_single_stage_h_t(self):
        dm = depth_metrics(parse_circuit("QUBITS 1\nH 0\nT 0\n---"))
        assert dm.total_depth == 2
        assert dm.t_depth == 1
        assert dm.t_count == 1

    def test_t_h_t_depth(self):
        dm = depth_metrics(layerize([t(0), h(0), t(0)], 1))
        assert dm.t_depth == 2

    def test_parallel_gates_share_a_layer(self):
        dm = depth_metrics(parse_circuit("QUBITS 2\nH 0\nH 1\nT 0\n---"))
        assert dm.total_depth == 2

    def test_t_depth_never_exceeds_total(self, rng):
        for _ in range(20):
            c = random_circuit(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
            dm = depth_metrics(c)
            assert dm.t_depth <= dm.total_depth

    @given(st.integers(1, 6).flatmap(lambda n: st.lists(gate_strategy(n), max_size=40)))
    def test_clifford_depth_matches_the_generator_version(self, gates):
        assert clifford_depth(gates) == reference_clifford_depth(gates)


class TestValidation:
    def test_cnot_repeated_target(self):
        with pytest.raises(ValidationError, match="distinct"):
            LayeredCircuit(2, (Stage((Gate(GateKind.CNOT, (1, 1)),), frozenset({0})),))

    def test_t_inside_clifford_list(self):
        with pytest.raises(ValidationError, match="Clifford block"):
            LayeredCircuit(1, (Stage((Gate(GateKind.T, (0,)),), frozenset()),))

    def test_needs_a_stage(self):
        with pytest.raises(ValidationError):
            LayeredCircuit(1, ())

    @pytest.mark.parametrize("gate,message", [
        *MALFORMED_CLIFFORD,
        pytest.param(t(0), "T gate inside a Clifford block; use layerize", id="t-in-clifford-block"),
    ])
    def test_malformed_gate_message(self, gate, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            LayeredCircuit(2, (Stage((h(0), gate), frozenset({0})),))

    def test_replace_is_checked(self):
        valid = parse_circuit("QUBITS 2\nH 0\nT 0\n---\nT 1\n---\n")
        with pytest.raises(ValidationError, match="^only the final stage may have an empty T layer$"):
            dataclasses.replace(valid, stages=(Stage((h(0),), frozenset()), valid.stages[1]))
        with pytest.raises(ValidationError, match="^qubit index 2 out of range for 2 qubits$"):
            dataclasses.replace(valid, stages=(Stage((cnot(0, 2),), frozenset({0})),))
        with pytest.raises(ValidationError, match="^T-layer qubit 1 out of range for 1 qubits$"):
            dataclasses.replace(valid, n=1)
        assert dataclasses.replace(valid, n=3).stages == valid.stages

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(raw_circuits())
    def test_constructor_matches_the_reference_check(self, raw):
        # The constructor raises exactly when the reference does, with the
        # same message.
        n, stages = raw
        try:
            reference_validate(types.SimpleNamespace(n=n, stages=stages))
        except ValidationError as exc:
            with pytest.raises(ValidationError) as caught:
                LayeredCircuit(n, stages)
            assert str(caught.value) == str(exc)
        else:
            assert LayeredCircuit(n, stages).stages == stages

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.sampled_from(list(GateKind)),
        st.one_of(st.lists(st.integers(-2, n + 1), max_size=3).map(tuple),
                  st.integers(-2, n + 1).map(lambda q: (q, q))))))
    def test_constructor_checks_a_gate_as_check_gate_does(self, raw):
        # One gate, good or bad, alone in a stage: the constructor's inline
        # test of a well-formed gate lets through exactly what _check_gate
        # does, and a bad gate raises _check_gate's message. Targets are any
        # 0 to 3 indices in [-2, n + 1], or one index twice.
        n, kind, targets = raw
        gate = Gate(kind, targets)
        try:
            if kind is GateKind.T:
                raise ValidationError("T gate inside a Clifford block; use layerize")
            circuits._check_gate(gate, n)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as caught:
                LayeredCircuit(n, (Stage((gate,), frozenset({0})),))
            assert str(caught.value) == str(exc)
        else:
            assert LayeredCircuit(n, (Stage((gate,), frozenset({0})),)).stages[0].clifford == (gate,)


@given(layered_circuits(max_n=2, max_k=2))
def test_layerize_of_flatten_is_equivalent(c):
    again = layerize(flatten(c), c.n)
    assert mats_equal_up_to_phase(circuit_matrix(again), circuit_matrix(c))
