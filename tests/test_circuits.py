import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    circuit_matrix,
    gate_strategy,
    gates_matrix,
    layered_circuits,
    mats_equal_up_to_phase,
    random_circuit,
)
from tlink import cli
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
    validate,
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
            validate(LayeredCircuit(2, (Stage((Gate(GateKind.CNOT, (1, 1)),), frozenset({0})),)))

    def test_t_inside_clifford_list(self):
        bad = LayeredCircuit(1, (Stage((Gate(GateKind.T, (0,)),), frozenset()),))
        with pytest.raises(ValidationError, match="Clifford block"):
            validate(bad)

    def test_needs_a_stage(self):
        with pytest.raises(ValidationError):
            validate(LayeredCircuit(1, ()))

    @pytest.mark.parametrize("gate,message", [
        *MALFORMED_CLIFFORD,
        pytest.param(t(0), "T gate inside a Clifford block; use layerize", id="t-in-clifford-block"),
    ])
    def test_malformed_gate_message(self, gate, message):
        bad = LayeredCircuit(2, (Stage((h(0), gate), frozenset({0})),))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            validate(bad)


@given(layered_circuits(max_n=2, max_k=2))
def test_layerize_of_flatten_is_equivalent(c):
    again = layerize(flatten(c), c.n)
    assert mats_equal_up_to_phase(circuit_matrix(again), circuit_matrix(c))
