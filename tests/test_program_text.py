"""Program text: byte-identity pins for serialize_program, round trips of the
garden-hose programs, condition parsing, and the ParseError raised for each
malformed line (exit code 2 in the CLI)."""
import hashlib

import numpy as np
import pytest

from conftest import random_circuit
from test_cli_pins import PROTOCOL_CIRCUIT
from tlink import cli
from tlink.circuits import ParseError, parse_circuit
from tlink.compiler import (
    InstrOp,
    _run,
    compile_measure,
    enumerate_branches,
    parse_program,
    serialize_program,
)
from tlink.frames import KeyPoly, OutcomeVar
from tlink.gardenhose import ResourcePlan, gadget_program, protocol_program
from tlink.oracle import random_state

# (seed, n, K) of random_circuit(default_rng(seed), n, K, max_clifford=3n), with
# the SHA-256 of serialize_program(compile_measure(c)) as the text format stood
# before the linear-time parser and printer replaced the quadratic ones.
PINNED = [
    (0, 1, 1, "9f9f3a1fcf52fbb7e6c35034d35d9e9e9af5c94c95e6f3d1df4f18a4318808f1"),
    (1, 1, 5, "d639c5aa2642da32641a1aefa9d0f3dbbce86a64e649ef4f1b50f7ae37c392ac"),
    (2, 2, 3, "5cef0410c7d87b2793814f5283080ef6888ecdf0834d37939e33dae94523bb81"),
    (3, 2, 8, "77d2c61ed10455780682bb03567b42f9689d9624e4c7fddfd2f6127e013eb56d"),
    (4, 3, 6, "6d22236e25f3ca47b3b87d2d762a4ae8f00679d1a2122ece4e29bf18ce2762c4"),
    (5, 4, 10, "3d9ee2cbf7ffc589c384f814a68bca96b1f89213dec59a69ff7aed18d016625f"),
    (6, 5, 12, "649f4429a5583fd57f4ee5999a223a69ecaea72c3fc480e4674af4472d616790"),
    (7, 6, 15, "6f39be1d3b7401ceb0b1eb318e9336639508f5751ecbc5094ac0ffcaa4063383"),
    (8, 8, 20, "85d5f12298b01f662ebb1c3dff5b2d0620ac0706ae24505a19bb73414837284d"),
    (9, 10, 25, "b030823cf247b3511deced251292197eb38f8fc5cfa0af3a92062439d96d59a5"),
    (10, 3, 1, "b1c43ac9c14e3893d14529d9ccba72c03c17f578578769de34f5fd00c3e62a2a"),
    (11, 7, 9, "8f89978360e5225abdb9d100bd4de12791d49616ebad2f58596c4ad267150ca3"),
]

# Degree-2 and degree-3 terms, constants, a cancelling pair, and names that are
# prefixes of each other (a, ab, a_; m1x, m10x), written out of canonical order.
# Corrections and outputs sit on qubits 6 and 7, which no BELL measures.
HAND = """QUBITS 8
EPR 2 3
EPR 4 5
H 0
CNOT 0 1
T 1
BELL 0 2 -> a ab
BELL 1 4 -> a_ m1x
BELL 3 5 -> m10x b
PDG 6 IF m10x*m1x ^ a*ab ^ ab ^ a_ ^ a ^ 1
X 7 IF a_*a ^ a*ab ^ ab * a_ ^ m1x ^ m10x
Z 7 IF b ^ m1x*b ^ b*m10x ^ a*b*ab
X 6 IF 1
Z 6 IF a ^ a
OUT 0 6
OUT 1 7
"""

HAND_CANONICAL = """QUBITS 8
EPR 2 3
EPR 4 5
H 0
CNOT 0 1
T 1
BELL 0 2 -> a ab
BELL 1 4 -> a_ m1x
BELL 3 5 -> m10x b
PDG 6 IF a ^ a*ab ^ a_ ^ ab ^ m10x*m1x ^ 1
X 7 IF a*a_ ^ a*ab ^ a_*ab ^ m10x ^ m1x
Z 7 IF a*ab*b ^ b ^ b*m10x ^ b*m1x
X 6 IF 1
Z 6 IF 0
OUT 0 6
OUT 1 7
"""
HAND_SHA256 = "d670703b7e3e47cd0576aebd3f6f16d4d17eb8d2091bf47d0f04faf9b50d053c"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed,n,k,digest", PINNED)
def test_compiled_text_is_pinned(seed, n, k, digest):
    c = random_circuit(np.random.default_rng(seed), n, k, max_clifford=3 * n)
    text = serialize_program(compile_measure(c))
    assert sha256(text) == digest
    assert serialize_program(parse_program(text)) == text


def test_hand_written_program_canonicalizes():
    assert serialize_program(parse_program(HAND)) == HAND_CANONICAL
    assert serialize_program(parse_program(HAND_CANONICAL)) == HAND_CANONICAL
    assert sha256(HAND_CANONICAL) == HAND_SHA256


def round_trip(program):
    """The program read back from its text, which must print the same text
    and schedule to the same depth."""
    text = serialize_program(program)
    parsed = parse_program(text)
    assert serialize_program(parsed) == text
    assert parsed.declared_depth == program.declared_depth
    return parsed


def assert_same_branches(got, want):
    assert [b.outcomes for b in got] == [b.outcomes for b in want]
    assert [b.probability for b in got] == [b.probability for b in want]
    for a, b in zip(got, want):
        assert np.abs(a.state.amps - b.state.amps).max() <= 1e-12


@pytest.mark.parametrize("p,q", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_gadget_program_round_trips(p, q):
    program = gadget_program(p, q)
    parsed = round_trip(program)
    psi = random_state(1, np.random.default_rng(2 * p + q))
    assert_same_branches(enumerate_branches(parsed, psi), enumerate_branches(program, psi))


def test_protocol_program_round_trips():
    # With Alice holding wire 0 the final corrections carry owner-tagged
    # degree-2 terms (Bob's bx times Alice's teleport bit), which the parsed
    # program evaluates as plain variables.
    c = parse_circuit(PROTOCOL_CIRCUIT)
    program, _ = protocol_program(c, ResourcePlan(alice_wires=frozenset({0})))
    assert max(ins.cond.degree for ins in program.instructions if ins.cond is not None) == 2
    parsed = round_trip(program)
    psi = random_state(2, np.random.default_rng(3))
    # Seven Bell measurements are 14 outcome bits, above enumerate_branches'
    # 12-bit cap, so both plans go through its runner directly.
    assert_same_branches(_run(parsed.plan, psi, None), _run(program.plan, psi, None))


def test_cancelling_terms_parse_to_zero():
    prog = parse_program("QUBITS 3\nBELL 0 1 -> a b\nX 2 IF a ^ a\nZ 2 IF a*b ^ 1 ^ b*a ^ 1\nOUT 0 2\n")
    conds = [ins.cond for ins in prog.instructions if ins.op in (InstrOp.COND_X, InstrOp.COND_Z)]
    assert [c.is_zero for c in conds] == [True, True]


def test_repeated_name_maps_to_one_bit():
    # However a term is written, one name is one bit in every condition.
    prog = parse_program("QUBITS 3\nBELL 0 1 -> a b\nX 2 IF a ^ b\nZ 2 IF a\n"
                         "PDG 2 IF b*a ^  a\nOUT 0 2\n")
    x_cond, z_cond, pdg_cond = (ins.cond for ins in prog.instructions if ins.cond is not None)
    a_bit = z_cond.linear
    assert a_bit.bit_count() == 1 and z_cond == KeyPoly.of(OutcomeVar("a"))
    assert x_cond.linear & a_bit and x_cond.linear.bit_count() == 2
    assert pdg_cond.linear == a_bit
    assert pdg_cond.nonlinear == {x_cond.linear}


BAD_PROGRAMS = [
    ("QUBITS x\nOUT 0 0\n", 1, "integer"),
    ("QUBITS -1\nOUT 0 0\n", 1, "positive"),
    ("QUBITS 0\nOUT 0 0\n", 1, "positive"),
    ("QUBITS 2\nH 0\nOUT a 0\n", 3, "logical wire"),
    ("QUBITS 2\nOUT -1 0\n", 2, "negative"),
    ("QUBITS 2\nOUT 0 0\nOUT 0 1\n", 3, "duplicate OUT"),
    ("QUBITS 2\nOUT 0 1\nOUT 1 1\n", 3, "already an output"),
    ("QUBITS 2\nCNOT 0 0\nOUT 0 1\n", 2, "distinct"),
    ("QUBITS 3\nEPR 1 1\nOUT 0 0\n", 2, "distinct"),
    ("QUBITS 3\nEPR 1 2\nBELL 0 0 -> m0x m0z\nOUT 0 2\n", 3, "distinct"),
    ("QUBITS 2\nFROB 0\nOUT 0 1\n", 2, "FROB"),
    ("QUBITS 3\nBELL 0 1 -> a b\nX 2 IF a ^ c\nOUT 0 2\n", 3, "undefined"),
    ("QUBITS 3\nBELL 0 1 -> a b\nX 2 IF a ^ ^ b\nOUT 0 2\n", 3, "empty"),
    ("QUBITS 3\nBELL 0 1 -> a b\nX 2 IF a*1b\nOUT 0 2\n", 3, "bad condition term"),
    ("QUBITS 2\nBELL 0 1 -> a b\nOUT 0 0\n", 3, "Bell-measured"),
    ("QUBITS 2\nOUT 0 1\nBELL 0 1 -> a b\n", 2, "Bell-measured"),
    ("QUBITS 3\nBELL 0 1 -> a b\nX IF\nOUT 0 2\n", 3, "q IF <condition>"),
    ("QUBITS 3\nBELL 0 1 -> a b\nPDG IF\nOUT 0 2\n", 3, "q IF <condition>"),
    ("QUBITS 3\nEPR 1 2\nBELL 0 1 -> a a\nX 2 IF a\nOUT 0 2\n", 3,
     "outcome variables must be distinct"),
    ("QUBITS 3\nEPR 1 2\nBELL 0 1 -> 1 x\nX 2 IF x\nOUT 0 2\n", 3, "'1' is not an identifier"),
    ("QUBITS 3\nEPR 1 2\nBELL 0 1 -> x 0\nX 2 IF x\nOUT 0 2\n", 3, "'0' is not an identifier"),
    ("QUBITS 3\nEPR 1 2\nBELL 0 1 -> a*b c\nOUT 0 2\n", 3, "'a\\*b' is not an identifier"),
    ("QUBITS 5\nBELL 0 1 -> a b\nBELL 2 3 -> c a\nOUT 0 4\n", 3, "redefined"),
    # Integers are an optional '-' then ASCII digits, not whatever int() takes.
    ("QUBITS 1_2\nOUT 0 0\n", 1, "qubit count must be an integer"),
    ("QUBITS +3\nOUT 0 0\n", 1, "qubit count must be an integer"),
    ("QUBITS 2\nH 1_0\nOUT 0 1\n", 2, "qubit arguments must be integers"),
    ("QUBITS 4\nT +3\nOUT 0 1\n", 2, "qubit arguments must be integers"),
    ("QUBITS 2\nT \u0661\nOUT 0 1\n", 2, "qubit arguments must be integers"),
    ("QUBITS 2\nCNOT 0 +1\nOUT 0 1\n", 2, "qubit arguments must be integers"),
    ("QUBITS 3\nEPR 1 +2\nOUT 0 0\n", 2, "qubit index must be an integer"),
    ("QUBITS 3\nBELL 0_0 1 -> a b\nOUT 0 2\n", 2, "qubit index must be an integer"),
    ("QUBITS 3\nBELL 0 1 -> a b\nX \u0662 IF a\nOUT 0 2\n", 3, "qubit index must be an integer"),
    ("QUBITS 2\nOUT +0 1\n", 2, "logical wire must be an integer"),
    ("QUBITS 2\nOUT 0 1_0\n", 2, "qubit index must be an integer"),
    ("QUBITS 2\nH -1\nOUT 0 1\n", 2, "qubit index -1 out of range"),
    ("QUBITS 2\nEPR -1 0\nOUT 0 1\n", 2, "qubit index -1 out of range"),
    # More digits than int() converts: the same error, not a ValueError.
    pytest.param(f"QUBITS 3\nEPR 1 {'2' * 5000}\nOUT 0 0\n", 2, "qubit index must be an integer",
                 id="index-past-the-int-digit-limit"),
    pytest.param(f"QUBITS 3\nH {'2' * 5000}\nOUT 0 0\n", 2, "qubit arguments must be integers",
                 id="gate-index-past-the-int-digit-limit"),
]


@pytest.mark.parametrize("text,line,match", BAD_PROGRAMS)
def test_malformed_program_raises_on_its_line(text, line, match):
    with pytest.raises(ParseError, match=match) as info:
        parse_program(text)
    assert info.value.line == line


@pytest.mark.parametrize("text,line,match", BAD_PROGRAMS)
def test_malformed_program_exits_2(tmp_path, capsys, text, line, match):
    circuit = tmp_path / "c.txt"
    circuit.write_text("QUBITS 1\nT 0\n---\n")
    program = tmp_path / "p.txt"
    program.write_text(text)
    code = cli.main(["verify", "--in", str(circuit), "--program", str(program)])
    assert code == cli.EXIT_PARSE
    assert f"line {line}:" in capsys.readouterr().err
