"""
Command-line front end.

One subcommand per operation; machine-readable results go to stdout as
``key=value`` lines, artifacts to files. Identical seeds and inputs produce
byte-identical output. Exit codes: 0 ok, 2 parse error, 3 validation error,
4 fidelity failure.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .circuits import (
    LayeredCircuit,
    ParseError,
    ValidationError,
    _int,
    depth_metrics,
    parse_circuit,
)
from .compiler import (
    compile_measure,
    compile_speculative,
    enumerate_branches,
    execute,
    execute_speculative,
    parse_program,
    report,
    serialize_circuit_of_unitary,
    serialize_program,
    to_unitary,
)
from .gardenhose import (
    ResourcePlan,
    analyze_cross_terms,
    causality_check,
    gadget_truth_table,
    run_gadget,
    run_protocol1,
    undo_gadget,
)
from .oracle import apply_circuit, basis_bits, fidelity_up_to_phase, init_state, random_state

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_FIDELITY = 4


def _read_text(path: str) -> str:
    """A text input file; bytes that are not UTF-8 are a parse error, and a
    UTF-8 byte-order mark is dropped at the start only, so the offset of a
    bad byte is its offset in the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path} is not UTF-8 text (byte {exc.start})", line) from None


def _read_circuit(path: str) -> LayeredCircuit:
    return parse_circuit(_read_text(path))


def _parse_wires(spec: str) -> frozenset[int]:
    """A comma-separated wire list; each entry, stripped, must be a
    canonical integer (circuits._int), as in circuit text, and no wire may
    be listed twice."""
    spec = spec.strip()
    if not spec:
        return frozenset()
    wires = []
    for tok in spec.split(","):
        try:
            wires.append(_int(tok.strip()))
        except ValueError:
            raise ParseError(f"wire list {spec!r}: {tok.strip()!r} is not an integer") from None
    seen = set()
    for wire in wires:
        if wire in seen:
            raise ValidationError(f"wire list {spec!r} repeats wire {wire}")
        seen.add(wire)
    return frozenset(seen)


def _seed(args) -> int:
    """The --seed value, 0 when absent; numpy takes only non-negative seeds."""
    if args.seed is None:
        return 0
    if args.seed < 0:
        raise ValidationError(f"--seed must be non-negative, got {args.seed}")
    return args.seed


def _tolerance(args) -> float:
    """The --tolerance value; a fidelity check against NaN, a negative
    tolerance or one of 1 or more would pass or fail whatever the fidelity."""
    if not math.isfinite(args.tolerance) or not 0 <= args.tolerance < 1:
        raise ValidationError("--tolerance must be finite and non-negative and below 1, "
                              f"got {args.tolerance}")
    return args.tolerance


def cmd_compile(args) -> int:
    circuit = _read_circuit(args.infile)
    program = compile_measure(circuit)
    if args.mode == "measure":
        text = serialize_program(program)
    else:
        text = serialize_circuit_of_unitary(to_unitary(program))
    with open(args.outfile, "w", encoding="utf-8") as fh:
        fh.write(text)
    rep = report(circuit, program)
    for key in ("epr_pairs", "link_steps", "compiled_depth", "original_depth", "t_depth"):
        print(f"{key}={getattr(rep, key)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    tolerance = _tolerance(args)
    circuit = _read_circuit(args.infile)
    if not args.exhaustive and args.shots < 1:
        raise ValidationError(f"--shots must be at least 1, got {args.shots}")
    seed = _seed(args)
    psi = random_state(circuit.n, np.random.default_rng(seed))
    reference = apply_circuit(psi, circuit)
    if args.program:
        program = parse_program(_read_text(args.program))
    else:
        program = compile_measure(circuit)

    # Fidelities compare at the printed precision, so the reported worst
    # branch (the first one at the minimum) does not depend on rounding noise.
    worst = (1.0, {})
    if args.exhaustive:
        branches = enumerate_branches(program, psi)
        for br in branches:
            fid = round(fidelity_up_to_phase(br.state, reference), 12)
            if fid < worst[0]:
                worst = (fid, br.outcomes)
    else:
        rng = np.random.default_rng(seed)
        for _ in range(args.shots):
            out, outcomes = execute(program, psi, rng)
            fid = round(fidelity_up_to_phase(out, reference), 12)
            if fid < worst[0]:
                worst = (fid, outcomes)
    print(f"min_fidelity={worst[0]:.12f}")
    if worst[0] < 1.0 - tolerance:
        assignment = ",".join(f"{k}={v}" for k, v in sorted(worst[1].items())) or "-"
        print(f"worst_branch={assignment}")
        return EXIT_FIDELITY
    return EXIT_OK


def cmd_gadget(args) -> int:
    tolerance = _tolerance(args)
    if args.exhaustive:
        rows = gadget_truth_table(seed=_seed(args), tol=tolerance)
        for row in rows:
            print(f"p={row['p']} q={row['q']} pdg={row['pdg']} out={row['out']} "
                  f"min_fidelity={row['min_fidelity']:.12f}")
        return EXIT_OK
    if args.seed is None:
        raise ValidationError("--seed is required unless --exhaustive is given")
    seed = _seed(args)
    rng = np.random.default_rng(seed)
    psi = random_state(1, np.random.default_rng(seed + 1))
    res = run_gadget(args.p, args.q, psi, rng=rng)
    print(f"pdg={res.applied_pdg} out={res.output_qubit}")
    print(f"mask_a={res.mask.a[0]} mask_b={res.mask.b[0]}")
    print(f"key_a={res.symbolic_mask.a[0]}")
    print(f"key_b={res.symbolic_mask.b[0]}")
    fid = fidelity_up_to_phase(undo_gadget(res), psi)
    print(f"fidelity={fid:.12f}")
    return EXIT_FIDELITY if fid < 1.0 - tolerance else EXIT_OK


def cmd_protocol1(args) -> int:
    tolerance = _tolerance(args)
    circuit = _read_circuit(args.infile)
    seed = _seed(args)
    plan = ResourcePlan(alice_wires=_parse_wires(args.alice),
                        return_to_alice=tuple(sorted(_parse_wires(args.return_wires))))
    psi = random_state(circuit.n, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    final, transcript = run_protocol1(circuit, psi, plan, rng=rng)
    reference = apply_circuit(psi, circuit)
    fid = fidelity_up_to_phase(final, reference)
    check = causality_check(transcript)
    print("rounds=1")
    print(f"causality={'pass' if check.ok else 'fail'}")
    print(f"ledger_pairs={transcript.total_pairs}")
    print(f"fidelity={fid:.12f}")
    if args.transcript:
        with open(args.transcript, "w", encoding="utf-8") as fh:
            fh.write(transcript.to_text())
    if not check.ok or fid < 1.0 - tolerance:
        return EXIT_FIDELITY
    return EXIT_OK


def cmd_crossterms(args) -> int:
    circuit = _read_circuit(args.infile)
    rep = analyze_cross_terms(circuit, _parse_wires(args.alice))
    sys.stdout.write(rep.to_text())
    return EXIT_OK


def cmd_speculate(args) -> int:
    circuit = _read_circuit(args.infile)
    seed = _seed(args)
    bits = args.input if args.input is not None else "0" * circuit.n
    program = compile_speculative(circuit, args.r, bits)
    rng = np.random.default_rng(seed)
    out_bits, _ = execute_speculative(program, rng)
    final = apply_circuit(init_state(circuit.n, bits), circuit)
    direct = "".join(map(str, basis_bits(final, "direct run")))
    print(f"critical_path={len(program.groups)}")
    print(f"groups={len(program.groups)}")
    print(f"output={out_bits}")
    print(f"matches_direct={'true' if out_bits == direct else 'false'}")
    return EXIT_OK if out_bits == direct else EXIT_FIDELITY


def cmd_stats(args) -> int:
    circuit = _read_circuit(args.infile)
    dm = depth_metrics(circuit)
    for key in ("total_depth", "t_depth", "t_count", "gate_count"):
        print(f"{key}={getattr(dm, key)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tlink",
                                     description="Clifford+T teleportation-link toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help, infile=True, seed=False, tolerance=False):
        """A subcommand with only the common options its command reads."""
        sp = sub.add_parser(name, help=help)
        if infile:
            sp.add_argument("--in", dest="infile", required=True, help="circuit file")
        if seed:
            sp.add_argument("--seed", type=int, default=None)
        if tolerance:
            sp.add_argument("--tolerance", type=float, default=1e-10)
        sp.set_defaults(func=func)
        return sp

    sp = add("compile", cmd_compile, "compile a circuit into a linked program")
    sp.add_argument("--out", dest="outfile", required=True)
    sp.add_argument("--mode", choices=("measure", "unitary"), default="measure")

    sp = add("verify", cmd_verify, "check a compiled program against the oracle",
             seed=True, tolerance=True)
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--shots", type=int, default=20)
    sp.add_argument("--program", default=None, help="verify this program file instead of recompiling")

    sp = add("gadget", cmd_gadget, "run or tabulate the garden-hose gadget",
             infile=False, seed=True, tolerance=True)
    sp.add_argument("--p", type=int, choices=(0, 1), default=0)
    sp.add_argument("--q", type=int, choices=(0, 1), default=0)
    sp.add_argument("--exhaustive", action="store_true")

    sp = add("protocol1", cmd_protocol1, "run the instantaneous two-party protocol",
             seed=True, tolerance=True)
    sp.add_argument("--alice", default="", help="comma-separated wires Alice holds")
    sp.add_argument("--return-wires", default="", dest="return_wires",
                    help="wires teleported back to Alice")
    sp.add_argument("--transcript", default=None, help="write the event log here")

    sp = add("crossterms", cmd_crossterms, "report mixed-owner key monomials")
    sp.add_argument("--alice", default="0")

    sp = add("speculate", cmd_speculate, "grouped speculative run for classical circuits",
             seed=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--input", default=None, help="classical input bitstring")

    add("stats", cmd_stats, "depth metrics of a circuit")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
