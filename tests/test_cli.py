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
    # Entries are canonical integers, as in circuit text: no '_', no '+',
    # no digits outside ASCII.
    ["crossterms", "--alice", "0_1"],
    ["crossterms", "--alice", " +1"],
    ["crossterms", "--alice", "0,\u0661"],
    ["protocol1", "--alice", "0", "--return-wires", "0_1"],
    ["protocol1", "--alice", "0", "--return-wires", "+1"],
    ["protocol1", "--alice", "0", "--return-wires", "\u0661"],
    # a bad entry is a parse error even after a repeated wire
    ["crossterms", "--alice", "1,1,x"],
])
def test_bad_wire_list_exits_2(tmp_path, capsys, argv):
    circuit = tmp_path / "c.txt"
    circuit.write_text("QUBITS 2\nH 0\nCNOT 0 1\nT 1\n---\n")
    code = cli.main([argv[0], "--in", str(circuit), *argv[1:]])
    assert code == cli.EXIT_PARSE
    assert "is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv,wire", [
    (["crossterms", "--alice", "0,1,0"], 0),
    (["crossterms", "--alice", "1, 1"], 1),
    (["protocol1", "--alice", "0,0"], 0),
    (["protocol1", "--alice", "0", "--return-wires", "1,1"], 1),
    (["protocol1", "--alice", "0", "--return-wires", "0,1,1,0"], 1),
])
def test_repeated_wire_exits_3(tmp_path, capsys, argv, wire):
    # A repeated wire is refused, not merged: run_protocol1 refuses a
    # return_to_alice that repeats a wire, and the CLI says so before it.
    circuit = tmp_path / "c.txt"
    circuit.write_text("QUBITS 2\nH 0\nCNOT 0 1\nT 1\n---\n")
    code = cli.main([argv[0], "--in", str(circuit), *argv[1:]])
    captured = capsys.readouterr()
    assert code == cli.EXIT_VALIDATION and captured.out == ""
    assert captured.err.startswith("validation error: wire list ")
    assert captured.err.endswith(f" repeats wire {wire}\n")


def test_wire_list_entries_may_be_padded(tmp_path, capsys):
    circuit = tmp_path / "c.txt"
    circuit.write_text("QUBITS 2\nH 0\nCNOT 0 1\nT 1\n---\n")
    outs = []
    for spec in ("0,1", " 0 , 1 "):
        assert cli.main(["crossterms", "--in", str(circuit), "--alice", spec]) == cli.EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


# Programs that parse but reuse a qubit: an EPR pair prepared twice on the
# same qubits, a gate on a qubit after its Bell measurement, and a correction
# on a measured qubit whose condition is always 0 (a Bell pair measured
# against itself reads a = b = 0). Qubit use is checked statically, by the
# one walk of the program (CompiledProgram.outcome_vars) that runs before
# the plan is built, so the last one fails although the correction never
# fires.
REUSED_QUBIT_PROGRAMS = [
    ("QUBITS 3\nEPR 1 2\nEPR 1 2\nOUT 0 0\n", "already in use"),
    ("QUBITS 3\nEPR 1 2\nBELL 0 1 -> a b\nH 1\nX 2 IF a\nZ 2 IF b\nOUT 0 2\n",
     "already measured"),
    ("QUBITS 3\nEPR 1 2\nBELL 1 2 -> a b\nX 1 IF a\nH 0\nOUT 0 0\n", "already measured"),
]


@pytest.mark.parametrize("exhaustive", [False, True])
@pytest.mark.parametrize("text,match", REUSED_QUBIT_PROGRAMS,
                         ids=["epr-twice", "gate-after-bell", "cond-after-bell"])
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


@pytest.mark.parametrize("n", [5, 6])
def test_verify_fits_the_window_at_n5_n6(tmp_path, capsys, n):
    # rc(n, 2n) peaks at n + 2 live qubits; a 3n window would exceed the
    # 14-qubit cap here.
    c = random_circuit(np.random.default_rng(0), n, 2 * n, max_clifford=3 * n)
    src = tmp_path / "c.txt"
    src.write_text(serialize_circuit(c))
    assert cli.main(["verify", "--in", str(src), "--seed", "1"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert float(out.split("min_fidelity=")[1].split()[0]) >= 1 - 1e-10


@pytest.mark.parametrize("exhaustive", [False, True])
def test_worst_branch_is_first_at_printed_minimum(tmp_path, capsys, monkeypatch, exhaustive):
    # Two runs tie at the printed precision; the second reads lower only by
    # rounding noise, so the first is reported.
    from tlink.compiler import enumerate_branches, execute, parse_program
    from tlink.oracle import random_state
    src = tmp_path / "c.txt"
    src.write_text("QUBITS 1\nH 0\nT 0\n---\nH 0\n---\n")
    prog = tmp_path / "p.txt"
    assert cli.main(["compile", "--in", str(src), "--out", str(prog)]) == 0
    capsys.readouterr()
    fids = iter([0.9, 0.5, 0.5 - 1e-15] + [0.7] * 20)
    monkeypatch.setattr(cli, "fidelity_up_to_phase", lambda *_: next(fids))
    argv = ["verify", "--in", str(src), "--program", str(prog), "--seed", "3"]
    assert cli.main(argv + (["--exhaustive"] if exhaustive else [])) == cli.EXIT_FIDELITY
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.split())
    assert out["min_fidelity"] == "0.500000000000"

    program, psi = parse_program(prog.read_text()), random_state(1, np.random.default_rng(3))
    if exhaustive:
        second = enumerate_branches(program, psi)[1].outcomes
    else:
        rng = np.random.default_rng(3)
        second = [execute(program, psi, rng)[1] for _ in range(3)][1]
    assert out["worst_branch"] == ",".join(f"{k}={v}" for k, v in sorted(second.items()))


@pytest.mark.parametrize("shots", ["0", "-1"])
def test_sampled_verify_needs_a_shot(tmp_path, capsys, shots):
    circuit = tmp_path / "c.txt"
    circuit.write_text("QUBITS 1\nT 0\n---\n")
    assert cli.main(["verify", "--in", str(circuit), "--shots", shots]) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--shots must be at least 1" in captured.err


@pytest.mark.parametrize("argv", [
    ["gadget"],
    ["verify", "--in", "{c}"],
    ["protocol1", "--in", "{c}", "--alice", "0"],
    ["speculate", "--in", "{c}", "--r", "1"],
])
def test_negative_seed_exits_3(tmp_path, capsys, argv):
    circuit = tmp_path / "c.txt"
    circuit.write_text("QUBITS 2\nX 0\nT 0\n---\nCNOT 0 1\n---\n")
    argv = [a.format(c=circuit) for a in argv] + ["--seed", "-1"]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed must be non-negative" in captured.err


# Options a command does not read are not offered: each is an argparse usage
# error, exit 2, and the command does not run.
@pytest.mark.parametrize("argv", [
    ["compile", "--in", "{c}", "--out", "{out}", "--seed", "1"],
    ["compile", "--in", "{c}", "--out", "{out}", "--tolerance", "0.1"],
    ["stats", "--in", "{c}", "--seed", "1"],
    ["stats", "--in", "{c}", "--tolerance", "0.1"],
    ["crossterms", "--in", "{c}", "--seed", "1"],
    ["crossterms", "--in", "{c}", "--tolerance", "0.1"],
    ["speculate", "--in", "{c}", "--r", "1", "--tolerance", "0.1"],
    ["verify", "--in", "{c}", "--max-bits", "12"],
    ["verify", "--in", "{c}", "--nmax", "6"],
], ids=["compile-seed", "compile-tolerance", "stats-seed", "stats-tolerance",
        "crossterms-seed", "crossterms-tolerance", "speculate-tolerance", "verify-max-bits",
        "verify-nmax"])
def test_unread_option_exits_2(tmp_path, capsys, argv):
    circuit = tmp_path / "c.txt"
    circuit.write_text("QUBITS 2\nX 0\nT 0\n---\nCNOT 0 1\n---\n")
    out = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as info:
        cli.main([a.format(c=circuit, out=out) for a in argv])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err
    assert not out.exists()


def test_seven_qubits_verify(tmp_path, capsys):
    # verify has no qubit option of its own: the plan's window cap and the
    # oracle's qubit cap are what refuse an oversized input.
    circuit = tmp_path / "c.txt"
    circuit.write_text("QUBITS 7\n" + "".join(f"H {j}\n" for j in range(7))
                       + "".join(f"CNOT {j} {j + 1}\n" for j in range(6))
                       + "".join(f"T {j}\n" for j in range(7)) + "---\nH 3\nT 3\n---\n")
    assert cli.main(["verify", "--in", str(circuit), "--seed", "1"]) == cli.EXIT_OK
    assert capsys.readouterr().out == "min_fidelity=1.000000000000\n"


@pytest.mark.parametrize("argv", [
    ["protocol1", "--in", "{c}", "--alice", "0"],
    ["speculate", "--in", "{c}", "--r", "1"],
])
def test_forty_qubits_exit_3(tmp_path, capsys, argv):
    # Both commands build a 40-qubit input state; the qubit cap refuses it
    # before 2^40 amplitudes are drawn or allocated.
    circuit = tmp_path / "c.txt"
    circuit.write_text("QUBITS 40\nX 0\nT 0\n---\n")
    assert cli.main([a.format(c=circuit) for a in argv]) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "40 qubits exceeds the 14-qubit cap" in captured.err


@pytest.mark.parametrize("bits", ["0a", "2", "0 "])
def test_speculate_non_bit_input_exits_3(tmp_path, capsys, bits):
    circuit = tmp_path / "c.txt"
    circuit.write_text("QUBITS 2\nX 0\nT 0\n---\nCNOT 0 1\n---\n")
    argv = ["speculate", "--in", str(circuit), "--r", "1", "--input", bits]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert "classical string" in capsys.readouterr().err


def test_protocol1_four_wires(tmp_path, capsys):
    # Four gadgets peak at the 14-qubit window cap.
    circuit = tmp_path / "c.txt"
    circuit.write_text("QUBITS 4\n" + "".join(f"H {j}\n" for j in range(4)) + "CNOT 0 1\nCNOT 2 3\n"
                       + "".join(f"T {j}\n" for j in range(4)) + "---\nH 0\n---\n")
    argv = ["protocol1", "--in", str(circuit), "--alice", "0,1,2,3"]
    assert cli.main(argv) == cli.EXIT_OK
    out = dict(line.split("=") for line in capsys.readouterr().out.split())
    assert out["causality"] == "pass"
    assert out["ledger_pairs"] == "20"
    assert float(out["fidelity"]) >= 1 - 1e-10


def test_protocol1_refuses_t_depth_two(tmp_path, capsys):
    # protocol_program's refusal is the command's one error line
    circuit = tmp_path / "c.txt"
    circuit.write_text("QUBITS 1\nT 0\n---\nH 0\nT 0\n---\n")
    assert cli.main(["protocol1", "--in", str(circuit), "--alice", "0"]) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("validation error: T-depth > 1 needs corrections that mix both "
                            "parties' bits; the simplified gadget does not extend "
                            "(see analyze_cross_terms)\n")


@pytest.mark.parametrize("argv", [
    ["stats", "--in", "{bad}"],
    ["compile", "--in", "{bad}", "--out", "{out}"],
    ["verify", "--in", "{good}", "--program", "{bad}"],
], ids=["stats", "compile", "verify-program"])
def test_non_utf8_input_exits_2(tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"QUBITS 1\nT 0\n# caf\xe9\n---\n")
    good = tmp_path / "good.txt"
    good.write_text("QUBITS 1\nT 0\n---\n")
    argv = [a.format(bad=bad, good=good, out=tmp_path / "out.txt") for a in argv]
    assert cli.main(argv) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: line 3:")
    assert "not UTF-8" in captured.err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("argv", [
    ["stats", "--in", "{bom}"],
    ["compile", "--in", "{bom}", "--out", "{out}"],
    ["verify", "--in", "{good}", "--program", "{prog}", "--seed", "1"],
], ids=["stats", "compile", "verify-program"])
def test_leading_byte_order_mark_is_read_past(tmp_path, capsys, argv):
    # Editors on some systems write a UTF-8 byte-order mark first; the file
    # reads as it would without one.
    good = tmp_path / "good.txt"
    good.write_text("QUBITS 1\nH 0\nT 0\n---\n")
    bom = tmp_path / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbf" + good.read_bytes())
    prog = tmp_path / "prog.txt"
    assert cli.main(["compile", "--in", str(good), "--out", str(prog)]) == cli.EXIT_OK
    bom_prog = tmp_path / "bom_prog.txt"
    bom_prog.write_bytes(b"\xef\xbb\xbf" + prog.read_bytes())
    capsys.readouterr()
    outs = []
    for src, program in ((good, prog), (bom, bom_prog)):
        out = tmp_path / f"out_{src.stem}.txt"
        fmt = {"bom": src, "good": good, "prog": program, "out": out}
        assert cli.main([a.format(**fmt) for a in argv]) == cli.EXIT_OK
        outs.append((capsys.readouterr().out, out.read_text() if out.exists() else None))
    assert outs[0] == outs[1] and outs[0][0]


@pytest.mark.parametrize("text,line", [
    (b"QUBITS 1\n\xef\xbb\xbfT 0\n---\n", 2),
    (b"\xef\xbb\xbf\xef\xbb\xbfQUBITS 1\nT 0\n---\n", 1),
], ids=["second-line", "twice"])
def test_byte_order_mark_after_the_start_exits_2(tmp_path, capsys, text, line):
    src = tmp_path / "c.txt"
    src.write_bytes(text)
    assert cli.main(["stats", "--in", str(src)]) == cli.EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"parse error: line {line}:")


def test_non_utf8_offset_counts_a_leading_byte_order_mark(tmp_path, capsys):
    src = tmp_path / "c.txt"
    src.write_bytes(b"\xef\xbb\xbfQUBITS 1\n\xe9\n")
    assert cli.main(["stats", "--in", str(src)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 2:") and "(byte 12)" in err


def test_gadget_below_tolerance_exits_4(capsys, monkeypatch):
    argv = ["gadget", "--p", "1", "--q", "0", "--seed", "7"]
    assert cli.main(argv) == cli.EXIT_OK
    want = capsys.readouterr().out
    # A wrong undo: |1> in place of the random input state.
    monkeypatch.setattr(cli, "undo_gadget", lambda res: cli.init_state(1, "1"))
    assert cli.main(argv) == cli.EXIT_FIDELITY
    out = capsys.readouterr().out
    assert out.splitlines()[:-1] == want.splitlines()[:-1]
    fid = float(out.splitlines()[-1].removeprefix("fidelity="))
    assert fid < 1 - 1e-10
    assert cli.main(argv + [f"--tolerance={1 - fid / 2}"]) == cli.EXIT_OK


@pytest.mark.parametrize("value", ["nan", "inf", "-1e-3", "1", "5"])
@pytest.mark.parametrize("argv", [
    ["verify", "--in", "{c}"],
    ["protocol1", "--in", "{c}", "--alice", "0"],
    ["gadget", "--exhaustive"],
], ids=["verify", "protocol1", "gadget"])
def test_bad_tolerance_exits_3(tmp_path, capsys, argv, value):
    circuit = tmp_path / "c.txt"
    circuit.write_text("QUBITS 2\nH 0\nCNOT 0 1\nT 1\n---\n")
    argv = [a.format(c=circuit) for a in argv] + [f"--tolerance={value}"]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tolerance must be finite and non-negative" in captured.err


def _speculate(tmp_path, capsys, n: int, r: int) -> tuple[int, str, str]:
    """`tlink speculate` on an n-wire classical circuit of two stages."""
    circuit = tmp_path / "c.txt"
    circuit.write_text(f"QUBITS {n}\nX 0\nT 0\n---\nCNOT 0 1\nT 1\n---\n")
    code = cli.main(["speculate", "--in", str(circuit), "--r", str(r), "--seed", "1"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("n", [13, 14])
def test_speculate_link_runs_in_an_n_wire_window(tmp_path, capsys, n):
    # A link teleports each carrier onto the fresh half of its pair, which
    # takes the carrier's slot: the window stays at n, so 13 and 14 wires
    # fit the 14-qubit cap.
    code, out, _ = _speculate(tmp_path, capsys, n, 1)
    assert code == cli.EXIT_OK
    assert out == ("critical_path=2\ngroups=2\noutput=" + "11" + "0" * (n - 2)
                   + "\nmatches_direct=true\n")


def test_speculate_single_group_runs_at_13_wires(tmp_path, capsys):
    code, out, _ = _speculate(tmp_path, capsys, 13, 2)
    assert code == cli.EXIT_OK
    assert "groups=1\n" in out and "matches_direct=true\n" in out


def test_speculate_link_fits_at_12_wires(tmp_path, capsys):
    code, out, _ = _speculate(tmp_path, capsys, 12, 1)
    assert code == cli.EXIT_OK
    assert out == ("critical_path=2\ngroups=2\noutput=" + "11" + "0" * 10
                   + "\nmatches_direct=true\n")
