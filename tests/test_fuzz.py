"""Mutation fuzz kept as hypothesis properties: every CLI command on mutated
circuit and program files ends with a documented exit code (0 ok, 2 parse
error, 3 validation error, 4 fidelity failure), never a traceback, and
program text round-trips through parse_program and serialize_program."""
import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import layered_circuits
from tlink import cli
from tlink.circuits import ParseError, parse_circuit
from tlink.compiler import compile_measure, parse_program, serialize_program

# Small seeds, so that a mutated file stays cheap to run: at most two qubits
# and three stages, so an exhaustive verify expands at most 256 branches.
CIRCUITS = [
    "QUBITS 2\nX 0\nT 0\n---\nCNOT 0 1\nT 1\n---\n",
    "QUBITS 2\nH 0\nCNOT 0 1\nT 1\n---\nH 1\nCNOT 1 0\nT 0\n---\n",
    "QUBITS 2\nH 0\nCNOT 0 1\nT 0\nT 1\n---\nH 1\n---\n",
    "QUBITS 1\nH 0\nT 0\n---\nP 0\nT 0\n---\nH 0\n---\n",
]
PROGRAMS = [(text, serialize_program(compile_measure(parse_circuit(text)))) for text in CIRCUITS]

# The eight command forms a circuit file goes through; {c} is the circuit
# file and {o} an output file.
CIRCUIT_FORMS = [
    ["stats", "--in", "{c}"],
    ["compile", "--in", "{c}", "--out", "{o}"],
    ["compile", "--in", "{c}", "--out", "{o}", "--mode", "unitary"],
    ["verify", "--in", "{c}", "--seed", "1", "--shots", "2"],
    ["verify", "--in", "{c}", "--exhaustive"],
    ["protocol1", "--in", "{c}", "--alice", "0"],
    ["crossterms", "--in", "{c}", "--alice", "0"],
    ["speculate", "--in", "{c}", "--r", "1"],
]
# A program file is read by verify, sampled and exhaustive; {p} is the program.
PROGRAM_FORMS = [
    ["verify", "--in", "{c}", "--program", "{p}", "--seed", "1", "--shots", "2"],
    ["verify", "--in", "{c}", "--program", "{p}", "--exhaustive"],
]
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_VALIDATION, cli.EXIT_FIDELITY}

# Replacement tokens: a number is replaced by a qubit index, in or out of
# range, or a malformed one; any other token by a keyword of either format,
# an outcome name, condition syntax or junk.
NUMBERS = ["0", "1", "2", "3", "5", "14", "40", "-1", "1.5", "x"]
WORDS = ["QUBITS", "---", "H", "P", "PDG", "X", "Z", "T", "CNOT", "EPR", "BELL", "OUT",
         "->", "IF", "^", "*", "#", "1", "m0x", "m0z", "m1x", "q", "", "x!"]


@st.composite
def mutated(draw, text: str) -> bytes:
    """``text`` with one to three line or token edits, as bytes; one file in
    eight also gets a byte that is not UTF-8."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["drop", "copy", "swap", "token", "insert"]))
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if edit == "drop" and lines:
            del lines[i]
        elif edit == "copy" and lines:
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif edit == "swap" and lines:
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "token" and lines:
            tokens = lines[i].split() or [""]
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[j] = draw(st.sampled_from(NUMBERS if tokens[j].isdigit() else WORDS))
            lines[i] = " ".join(tokens)
        elif edit == "insert":
            new = draw(st.lists(st.sampled_from(WORDS + NUMBERS), min_size=1, max_size=5))
            lines.insert(draw(st.integers(0, len(lines))), " ".join(new))
    data = ("\n".join(lines) + "\n").encode()
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xe9" + data[at:]
    return data


def run_cli(form: list[str], files: dict[str, str]) -> int:
    argv = [arg.format(**files) for arg in form]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=25, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_circuit_exits_with_a_documented_code(workdir, data):
    source = data.draw(st.sampled_from(CIRCUITS).flatmap(mutated))
    files = {"c": str(workdir / "c.txt"), "o": str(workdir / "out.txt")}
    (workdir / "c.txt").write_bytes(source)
    for form in CIRCUIT_FORMS:
        assert run_cli(form, files) in EXIT_CODES, (form, source)


@settings(max_examples=40, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_program_exits_with_a_documented_code(workdir, data):
    circuit, program = data.draw(st.sampled_from(PROGRAMS))
    source = data.draw(mutated(program))
    files = {"c": str(workdir / "pc.txt"), "p": str(workdir / "p.txt")}
    (workdir / "pc.txt").write_text(circuit)
    (workdir / "p.txt").write_bytes(source)
    for form in PROGRAM_FORMS:
        assert run_cli(form, files) in EXIT_CODES, (form, source)
    # whatever parses prints back to text that parses to the same text
    try:
        parsed = parse_program(source.decode())
    except (UnicodeDecodeError, ParseError):
        return
    text = serialize_program(parsed)
    assert serialize_program(parse_program(text)) == text


@given(layered_circuits(max_n=3, max_k=4))
def test_program_text_round_trips(c):
    text = serialize_program(compile_measure(c))
    assert serialize_program(parse_program(text)) == text
