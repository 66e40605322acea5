"""CLI exit codes on bad inputs, and the unitary-mode compile/stats round trip."""
import numpy as np
import pytest

from conftest import random_circuit
from tlink import cli
from tlink.circuits import depth_metrics, serialize_circuit
from tlink.compiler import InstrOp, compile_measure


@pytest.mark.parametrize("argv", [
    ["crossterms", "--alice", "x"],
    ["crossterms", "--alice", "0,,1"],
    ["protocol1", "--alice", "0,y"],
    ["protocol1", "--alice", "0", "--return-wires", "z"],
])
def test_bad_wire_list_exits_2(tmp_path, capsys, argv):
    circuit = tmp_path / "c.txt"
    circuit.write_text("QUBITS 2\nH 0\nCNOT 0 1\nT 1\n---\n")
    code = cli.main([argv[0], "--in", str(circuit), *argv[1:]])
    assert code == cli.EXIT_PARSE
    assert "is not an integer" in capsys.readouterr().err


# Programs that parse but reuse a qubit: an EPR pair prepared twice on the
# same qubits, and a gate on a qubit after its Bell measurement.
REUSED_QUBIT_PROGRAMS = [
    ("QUBITS 3\nEPR 1 2\nEPR 1 2\nOUT 0 0\n", "already in use"),
    ("QUBITS 3\nEPR 1 2\nBELL 0 1 -> a b\nH 1\nX 2 IF a\nZ 2 IF b\nOUT 0 2\n",
     "already measured"),
]


@pytest.mark.parametrize("exhaustive", [False, True])
@pytest.mark.parametrize("text,match", REUSED_QUBIT_PROGRAMS, ids=["epr-twice", "gate-after-bell"])
def test_reused_qubit_exits_3(tmp_path, capsys, text, match, exhaustive):
    circuit = tmp_path / "c.txt"
    circuit.write_text("QUBITS 1\nH 0\n---\n")
    program = tmp_path / "p.txt"
    program.write_text(text)
    argv = ["verify", "--in", str(circuit), "--program", str(program)]
    code = cli.main(argv + (["--exhaustive"] if exhaustive else []))
    assert code == cli.EXIT_VALIDATION
    assert match in capsys.readouterr().err


@pytest.mark.parametrize("seed,n,k", [(0, 1, 4), (1, 2, 3), (2, 3, 4), (3, 4, 6)])
def test_unitary_compile_then_stats(tmp_path, capsys, seed, n, k):
    c = random_circuit(np.random.default_rng(seed), n, k, max_clifford=3 * n)
    src = tmp_path / "c.txt"
    src.write_text(serialize_circuit(c))
    assert cli.main(["compile", "--in", str(src), "--out", str(tmp_path / "m.txt")]) == 0
    measure_stdout = capsys.readouterr().out
    out = tmp_path / "u.txt"
    assert cli.main(["compile", "--in", str(src), "--out", str(out), "--mode", "unitary"]) == 0
    assert capsys.readouterr().out == measure_stdout
    assert cli.main(["stats", "--in", str(out)]) == 0
    stats = dict(line.split("=") for line in capsys.readouterr().out.split())
    conds = sum(1 for ins in compile_measure(c).instructions if ins.op is InstrOp.COND_PDG)
    assert int(stats["t_count"]) == depth_metrics(c).t_count + 3 * conds
