import dataclasses

import numpy as np
import pytest

from conftest import random_classical_circuit
from tlink.circuits import ValidationError, parse_circuit
from tlink.compiler import (
    compile_measure,
    compile_speculative,
    execute,
    execute_speculative,
)
from tlink.oracle import apply_circuit, init_state


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
        assert [f.name for f in dataclasses.fields(sp)] == ["input_bits", "groups"]
        assert (sp.n, sp.stage_count, len(sp.groups)) == (2, 4, 2)

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
