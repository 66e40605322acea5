import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_classical_circuit
from tlink.circuits import LayeredCircuit, Stage, ValidationError, cnot, parse_circuit, t
from tlink.compiler import (
    InstrOp,
    SpeculativeProgram,
    compile_measure,
    compile_speculative,
    execute,
    execute_speculative,
)
from tlink.frames import PauliMask, apply_tableau, commute_through_t_layer, tableau_from_stage
from tlink.oracle import apply_circuit, apply_gate, basis_bits, init_state


def direct_bits(circuit, bits):
    state = apply_circuit(init_state(circuit.n, bits), circuit)
    probs = np.abs(state.amps) ** 2
    idx = int(np.argmax(probs))
    assert probs[idx] > 1 - 1e-9
    return format(idx, f"0{circuit.n}b")


CLASSICAL_K4 = ("QUBITS 2\n"
                "X 0\nT 0\n---\n"
                "CNOT 0 1\nT 1\n---\n"
                "X 1\nT 0\n---\n"
                "CNOT 1 0\nT 0\n---\n")


def dense_speculative(sp, rng):
    """The reference runner: each group runs on the dense oracle, once, from
    the previous group's output bits XOR the link X outcomes. A concrete
    PauliMask frame is pushed through every stage; its pending P-dagger
    corrections are phases on basis states and are dropped, and its final X
    part is undone on the output bits. Each link outcome is one draw u,
    k = 2x + z = floor(4u), in wire order."""
    n = sp.n
    frame = PauliMask.zero(n)
    outcomes = {}
    bits = sp.input_bits
    for m, stages in enumerate(sp.groups):
        if m > 0:
            link = [divmod(int(4 * rng.random()), 2) for _ in range(n)]
            for j, (xv, zv) in enumerate(link):
                outcomes[f"L{m}q{j}x"] = xv
                outcomes[f"L{m}q{j}z"] = zv
            xs = tuple(xv for xv, _ in link)
            frame = frame ^ PauliMask(xs, tuple(zv for _, zv in link))
            bits = tuple(b ^ xv for b, xv in zip(bits, xs))
        state = init_state(n, "".join(map(str, bits)))
        for st_ in stages:
            for g in st_.clifford:
                state = apply_gate(state, g)
            for q in sorted(st_.t_layer):
                state = apply_gate(state, t(q))
            frame = apply_tableau(tableau_from_stage(st_.clifford, n), frame)
            frame, _ = commute_through_t_layer(frame, st_.t_layer)
        bits = basis_bits(state, f"group {m + 1}")
    out_bits = tuple(b ^ xv for b, xv in zip(bits, frame.a))
    return "".join(map(str, out_bits)), outcomes


class TestCompileSpeculative:
    def test_r1_single_branch_per_group(self):
        c = parse_circuit(CLASSICAL_K4)
        sp = compile_speculative(c, 1, "10")
        assert sp.groups == tuple((st,) for st in c.stages)

    def test_rejects_superposition(self):
        with pytest.raises(ValidationError, match="not a basis state"):
            compile_speculative(parse_circuit("QUBITS 1\nH 0\nT 0\n---\n"), 1, "0")

    def test_h_pair_that_cancels_is_classical(self):
        c = parse_circuit("QUBITS 1\nH 0\nH 0\nX 0\nT 0\n---\n")
        bits, _ = execute_speculative(compile_speculative(c, 1, "0"), np.random.default_rng(0))
        assert bits == "1"

    def test_sizes_are_derived(self):
        sp = compile_speculative(parse_circuit(CLASSICAL_K4), 3, "10")
        assert [f.name for f in dataclasses.fields(sp)] == ["input_bits", "circuit", "r"]
        assert (sp.n, sp.stage_count, len(sp.groups)) == (2, 4, 2)

    def test_hand_built_program_is_checked(self):
        # Its stages used to be unchecked: a CNOT on qubit 5 of 1 ran into an
        # IndexError in execute_speculative. Now the circuit refuses it.
        stages = (Stage((cnot(0, 5),), frozenset({0})), Stage((), frozenset()))
        with pytest.raises(ValidationError, match="^qubit index 5 out of range for 1 qubits$"):
            SpeculativeProgram((0,), LayeredCircuit(1, stages), 1)
        c = parse_circuit(CLASSICAL_K4)
        with pytest.raises(ValidationError, match="^group size r must be at least 1$"):
            SpeculativeProgram((1, 0), c, 0)
        with pytest.raises(ValidationError, match="^input must be a 2-bit classical string$"):
            SpeculativeProgram((1,), c, 1)
        with pytest.raises(ValidationError, match="^input must be a 2-bit classical string$"):
            SpeculativeProgram((1, 2), c, 1)
        assert SpeculativeProgram((1, 0), c, 3).groups == (c.stages[:3], c.stages[3:])

    def test_bad_input_length(self):
        with pytest.raises(ValidationError, match="bit"):
            compile_speculative(parse_circuit(CLASSICAL_K4), 1, "0")


class TestExecuteSpeculative:
    def test_critical_path_groups(self):
        sp = compile_speculative(parse_circuit(CLASSICAL_K4), 2, "10")
        _, outcomes = execute_speculative(sp, np.random.default_rng(0))
        assert len(sp.groups) == 2  # the critical path: one step per group
        assert len(outcomes) == 2 * sp.n * (len(sp.groups) - 1)
        assert sp.stage_count == 4

    def test_output_matches_direct_and_linked(self):
        c = parse_circuit(CLASSICAL_K4)
        sp = compile_speculative(c, 2, "10")
        bits, outcomes = execute_speculative(sp, np.random.default_rng(3))
        assert bits == direct_bits(c, "10")
        out, _ = execute(compile_measure(c), init_state(2, "10"), np.random.default_rng(8))
        probs = np.abs(out.amps) ** 2
        assert format(int(np.argmax(probs)), "02b") == bits
        # One link between the two groups: an x and a z bit per wire.
        assert sorted(outcomes) == ["L1q0x", "L1q0z", "L1q1x", "L1q1z"]

    def test_link_outcomes_walk_the_uniform_table(self):
        # Each link outcome takes one uniform u, and k = 2x + z is the first
        # outcome whose running total of 1/4 per outcome exceeds u.
        sp = compile_speculative(parse_circuit(CLASSICAL_K4), 1, "10")
        _, outcomes = execute_speculative(sp, np.random.default_rng(9))
        draws = iter(np.random.default_rng(9).random(len(outcomes) // 2))
        want = {}
        for m in range(1, len(sp.groups)):
            for j in range(sp.n):
                u = next(draws)
                k = next(k for k in range(4) if u < 0.25 * (k + 1))
                want[f"L{m}q{j}x"], want[f"L{m}q{j}z"] = k >> 1, k & 1
        assert outcomes == want

    def test_every_link_frame_gives_the_direct_output(self):
        # r = 1 on four stages: three links of two wires, so 2^6 link X patterns,
        # each feeding the groups a different teleported input.
        c = parse_circuit(CLASSICAL_K4)
        sp = compile_speculative(c, 1, "10")
        expected = direct_bits(c, "10")
        seen = set()
        for seed in range(1000):
            bits, outcomes = execute_speculative(sp, np.random.default_rng(seed))
            assert bits == expected
            seen.add(tuple(v for name, v in sorted(outcomes.items())
                           if name.endswith("x")))
        assert len(seen) == 64

    def test_random_classical_circuits(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 5))
            c = random_classical_circuit(rng, n, k)
            bits = "".join(str(int(b)) for b in rng.integers(0, 2, n))
            expected = direct_bits(c, bits)
            for r in (1, 2):
                sp = compile_speculative(c, r, bits)
                got, _ = execute_speculative(sp, rng)
                assert got == expected
                assert len(sp.groups) == -(-k // r)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(n=st.integers(1, 6), k=st.integers(1, 8), r=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_matches_the_dense_reference(n, k, r, seed):
    # The linked program draws the same link outcomes, in the same order, as
    # the dense runner, and undoes the same frame.
    rng = np.random.default_rng(seed)
    c = random_classical_circuit(rng, n, k)
    bits = "".join(str(int(b)) for b in rng.integers(0, 2, n))
    sp = compile_speculative(c, r, bits)
    for run in range(2):
        got = execute_speculative(sp, np.random.default_rng(seed + run))
        assert got == dense_speculative(sp, np.random.default_rng(seed + run))


class TestLinkedProgram:
    """compile_measure is the grouped program with one stage per group."""

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 6), k=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
    def test_one_stage_per_group_is_measure_mode(self, n, k, seed):
        rng = np.random.default_rng(seed)
        c = random_classical_circuit(rng, n, k)
        bits = "".join(str(int(b)) for b in rng.integers(0, 2, n))
        grouped = compile_speculative(c, 1, bits).program
        measured = compile_measure(c)
        assert ([ins[:3] for ins in grouped.instructions]
                == [ins[:3] for ins in measured.instructions])
        assert (sum(ins.cond is not None for ins in grouped.instructions)
                == sum(ins.cond is not None for ins in measured.instructions))
        assert (grouped.total_qubits, grouped.logical_outputs) == (
            measured.total_qubits, measured.logical_outputs)

        # Only the outcome names differ: L<m>q<j> is measure mode's m<(m-1)n + j>.
        def rename(name: str) -> str:
            link, wire, xz = re.fullmatch(r"L(\d+)q(\d+)([xz])", name).groups()
            return f"m{(int(link) - 1) * n + int(wire)}{xz}"

        for g, m in zip(grouped.instructions, measured.instructions):
            if g.out_vars is not None:
                assert [rename(v.name) for v in g.out_vars] == [v.name for v in m.out_vars]
            if g.cond is not None:
                assert g.cond.constant == m.cond.constant
                assert ({rename(v.name) for v in g.cond.variables()}
                        == {v.name for v in m.cond.variables()})

    @pytest.mark.parametrize("n,k", [(1, 1), (1, 4), (2, 5), (3, 2), (3, 7), (4, 8)])
    def test_pairs_of_groups_of_two(self, rng, n, k):
        c = random_classical_circuit(rng, n, k)
        program = compile_speculative(c, 2, "0" * n).program
        ops = [ins.op for ins in program.instructions]
        links = n * (-(-k // 2) - 1)
        assert ops.count(InstrOp.EPR) == links
        assert ops.count(InstrOp.BELL) == links
        assert program.total_qubits == n + 2 * links
