"""SHA-256 pins of CLI output on fixed seeds: the garden-hose gadget, the
one-exchange protocol with its transcript file, the cross-term report, the
unitary-mode circuit file and `tlink verify` on a faulty program. The digests
were taken before the gadget's symbolic mode, its bridge teleport and the
degree-2 unitary conversion were removed, and the verify ones before the
executor moved every branch through each step at once, so they show that the
remaining paths print what they printed. The unitary-mode file's digest was
re-taken when each condition became one controlled gate from a parity qubit."""
import hashlib

import numpy as np
import pytest

from conftest import random_circuit
from tlink import cli
from tlink.circuits import serialize_circuit
from tlink.compiler import InstrOp, compile_measure, serialize_program

# (p, q) of `tlink gadget --p p --q q --seed 7`, with the SHA-256 of its stdout.
GADGET = [
    (0, 0, "b12e9269250a1ec831eed0e944b2709f967ba0dfa1d1b0aa13cd74c2442f8f2a"),
    (0, 1, "ca1ae4828019dae913189e0ea222ffd4ea447f5d9354760e143c875d89e4570f"),
    (1, 0, "1a7e977a16020d4af4cd5cbe913fa3e6d556bc718a8903b30bb52a267507ae27"),
    (1, 1, "2932a3cc8d7bf16112ff49a9ce57c2b842a4484390838b76e213bfdc03b7bdeb"),
]
GADGET_EXHAUSTIVE = "59a6d56b4cbb56294c600fdc2f8b50978bdb8c06d22d603db9bd0707e4af4f03"

# T-depth 1 with two gadgets, run with Alice holding wire 0 and wire 1 sent back.
PROTOCOL_CIRCUIT = "QUBITS 2\nH 0\nCNOT 0 1\nP 1\nT 0\nT 1\n---\nH 1\nCNOT 1 0\n---\n"
PROTOCOL_STDOUT = "c23c528931013a72e412c45948d9844374afc98ea13d7e0f29af1f23784e4a4b"
PROTOCOL_TRANSCRIPT = "99c529fc07213fa3b0cebcb43736be054c25cbcfafe048e3719347c00691d971"

# random_circuit(default_rng(2), 3, 4, max_clifford=9): cross terms with Alice
# on wires 0 and 1, and the unitary-mode file of its compiled program.
CROSSTERMS = "4ef9a7d883c1888f5a456526be5d69ba882c4129b5d51064db6f3da638fe5eed"
UNITARY_FILE = "e40a6fab6e7a8e5cfdc9f04d980cc8328ecd072daf49e1badfc3be4af2a5868e"

# random_circuit(default_rng(2), 2, 3, max_clifford=6) compiled, with one
# conditioned P-dagger line dropped: `tlink verify --program` exits 4 and
# prints the worst fidelity and the first branch that reaches it. The sampled
# run fixes the Bell draws; the exhaustive one the branch order.
FAULTY_DROPPED = "PDG 8 IF m0x ^ m1x ^ m2x\n"
VERIFY_SAMPLED = "c06d5d99d640124065a045273f5a961250ad0577f5076914929e5f615b28b47f"
VERIFY_EXHAUSTIVE = "e0fac2fdbd0f456056d3a10596934e3e0ab846ddf7ee79db769649e6120f408d"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def stdout_of(capsys, argv: list[str]) -> str:
    assert cli.main(argv) == cli.EXIT_OK
    return capsys.readouterr().out


@pytest.fixture
def rc_3_4(tmp_path):
    c = random_circuit(np.random.default_rng(2), 3, 4, max_clifford=9)
    src = tmp_path / "c.txt"
    src.write_text(serialize_circuit(c))
    return c, src


@pytest.mark.parametrize("p,q,digest", GADGET)
def test_gadget_stdout_is_pinned(capsys, p, q, digest):
    out = stdout_of(capsys, ["gadget", "--p", str(p), "--q", str(q), "--seed", "7"])
    assert sha256(out) == digest


def test_gadget_exhaustive_stdout_is_pinned(capsys):
    assert sha256(stdout_of(capsys, ["gadget", "--exhaustive"])) == GADGET_EXHAUSTIVE


def test_protocol1_stdout_and_transcript_are_pinned(tmp_path, capsys):
    src = tmp_path / "c.txt"
    src.write_text(PROTOCOL_CIRCUIT)
    transcript = tmp_path / "t.txt"
    out = stdout_of(capsys, ["protocol1", "--in", str(src), "--alice", "0", "--return-wires", "1",
                             "--seed", "3", "--transcript", str(transcript)])
    assert "ledger_pairs=10" in out
    assert sha256(out) == PROTOCOL_STDOUT
    assert sha256(transcript.read_text()) == PROTOCOL_TRANSCRIPT


def test_crossterms_stdout_is_pinned(capsys, rc_3_4):
    _, src = rc_3_4
    out = stdout_of(capsys, ["crossterms", "--in", str(src), "--alice", "0,1"])
    assert "absorbable=false" in out
    assert sha256(out) == CROSSTERMS


def test_unitary_circuit_file_is_pinned(tmp_path, capsys, rc_3_4):
    c, src = rc_3_4
    assert any(ins.op is InstrOp.COND_PDG for ins in compile_measure(c).instructions)
    out = tmp_path / "u.txt"
    stdout_of(capsys, ["compile", "--in", str(src), "--out", str(out), "--mode", "unitary"])
    assert sha256(out.read_text()) == UNITARY_FILE


@pytest.mark.parametrize("extra,digest", [(["--seed", "3"], VERIFY_SAMPLED),
                                          (["--exhaustive"], VERIFY_EXHAUSTIVE)])
def test_verify_of_a_faulty_program_is_pinned(tmp_path, capsys, extra, digest):
    c = random_circuit(np.random.default_rng(2), 2, 3, max_clifford=6)
    text = serialize_program(compile_measure(c))
    assert FAULTY_DROPPED in text
    src, prog = tmp_path / "c.txt", tmp_path / "p.prog"
    src.write_text(serialize_circuit(c))
    prog.write_text(text.replace(FAULTY_DROPPED, ""))
    code = cli.main(["verify", "--in", str(src), "--program", str(prog), *extra])
    out = capsys.readouterr().out
    assert code == cli.EXIT_FIDELITY
    assert "worst_branch=" in out
    assert sha256(out) == digest
