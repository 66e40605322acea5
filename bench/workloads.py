"""The four workloads: seeded op pools, the timed body of each op kind, and
the checks run on each op's outputs outside the timed interval.

An op's timed body is what the matching CLI subcommand does, called through
the package's public functions. Each call into a module goes through
``tracer.call`` so the traced run can attribute time to it. Checks never go
through the tracer and never rely on the compiler under test: they use the
dense oracle, the generator's own stage list, and byte comparisons.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from tlink import circuits, compiler, frames, gardenhose, oracle
from tlink.frames import KeyPoly, OutcomeVar, Owner, SymbolicMask

from gen import Circ, input_rng, random_amplitudes, random_bits, random_circuit, rc

TOL = 1e-10
SHOTS = 20  # `tlink verify` default
MAX_BELLS_EXHAUSTIVE = 6


class CheckFailed(Exception):
    """An op completed but its output is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    seed: int  # drives the op's input state, shots, plans and check assignment
    circ: Circ | None = None
    alice: frozenset[int] = frozenset()
    ret: tuple[int, ...] = ()


# -- timed bodies ----------------------------------------------------------------

def _state(tr, op: Op):
    return tr.call("oracle.init_state", oracle.init_state, op.circ.n,
                   random_amplitudes(input_rng(op.seed, 0), op.circ.n))


def run_compile(tr, op: Op) -> dict:
    c = tr.call("circuits.parse_circuit", circuits.parse_circuit, op.circ.text)
    p = tr.call("compiler.compile_measure", compiler.compile_measure, c)
    rep = tr.call("compiler.report", compiler.report, c, p)
    text = tr.call("compiler.serialize_program", compiler.serialize_program, p)
    parsed = tr.call("compiler.parse_program", compiler.parse_program, text)
    return {"program": p, "report": rep, "text": text, "parsed": parsed}


def run_verify(tr, op: Op) -> dict:
    c = tr.call("circuits.parse_circuit", circuits.parse_circuit, op.circ.text)
    psi = _state(tr, op)
    ref = tr.call("oracle.apply_circuit", oracle.apply_circuit, psi, c)
    p = tr.call("compiler.compile_measure", compiler.compile_measure, c)
    rng = np.random.default_rng(op.seed)
    fids = []
    for _ in range(SHOTS):
        out, _ = tr.call("compiler.execute", compiler.execute, p, psi, rng)
        fids.append(tr.call("oracle.fidelity_up_to_phase", oracle.fidelity_up_to_phase, out, ref))
    return {"program": p, "fids": fids}


def run_verify_exhaustive(tr, op: Op) -> dict:
    c = tr.call("circuits.parse_circuit", circuits.parse_circuit, op.circ.text)
    psi = _state(tr, op)
    ref = tr.call("oracle.apply_circuit", oracle.apply_circuit, psi, c)
    p = tr.call("compiler.compile_measure", compiler.compile_measure, c)
    branches = tr.call("compiler.enumerate_branches", compiler.enumerate_branches, p, psi,
                       max_outcome_bits=2 * MAX_BELLS_EXHAUSTIVE)
    fids = [tr.call("oracle.fidelity_up_to_phase", oracle.fidelity_up_to_phase, br.state, ref)
            for br in branches]
    return {"program": p, "fids": fids, "probs": [br.probability for br in branches]}


def run_unitary(tr, op: Op) -> dict:
    c = tr.call("circuits.parse_circuit", circuits.parse_circuit, op.circ.text)
    p = tr.call("compiler.compile_measure", compiler.compile_measure, c)
    up = tr.call("compiler.to_unitary", compiler.to_unitary, p)
    dm = tr.call("circuits.depth_metrics", circuits.depth_metrics, up.circuit)
    return {"circuit": c, "program": p, "unitary": up, "metrics": dm}


def run_unitary_exhaustive(tr, op: Op) -> dict:
    out = run_unitary(tr, op)
    psi = _state(tr, op)
    ref = tr.call("oracle.apply_circuit", oracle.apply_circuit, psi, out["circuit"])
    branches = tr.call("compiler.enumerate_unitary_branches", compiler.enumerate_unitary_branches,
                       out["unitary"], psi)
    out["fids"] = [tr.call("oracle.fidelity_up_to_phase", oracle.fidelity_up_to_phase,
                           br.state, ref) for br in branches]
    out["probs"] = [br.probability for br in branches]
    return out


def run_gadget_table(tr, op: Op) -> dict:
    gen = input_rng(op.seed, 0)
    states = [oracle.init_state(1, random_amplitudes(gen, 1)) for _ in range(3)]
    rows = tr.call("gardenhose.gadget_truth_table", gardenhose.gadget_truth_table,
                   input_states=states, tol=TOL)
    return {"rows": rows}


def run_protocol1(tr, op: Op) -> dict:
    c = tr.call("circuits.parse_circuit", circuits.parse_circuit, op.circ.text)
    psi = _state(tr, op)
    plan = gardenhose.ResourcePlan(alice_wires=op.alice, return_to_alice=op.ret)
    final, transcript = tr.call("gardenhose.run_protocol1", gardenhose.run_protocol1, c, psi, plan,
                                rng=np.random.default_rng(op.seed))
    ref = tr.call("oracle.apply_circuit", oracle.apply_circuit, psi, c)
    fid = tr.call("oracle.fidelity_up_to_phase", oracle.fidelity_up_to_phase, final, ref)
    causal = tr.call("gardenhose.causality_check", gardenhose.causality_check, transcript)
    return {"transcript": transcript, "fids": [fid], "causal": causal}


def run_crossterms(tr, op: Op) -> dict:
    c = tr.call("circuits.parse_circuit", circuits.parse_circuit, op.circ.text)
    rep = tr.call("gardenhose.analyze_cross_terms", gardenhose.analyze_cross_terms, c, op.alice)
    return {"report": rep}


# -- checks ------------------------------------------------------------------------

def _eval_key(key: KeyPoly, bits: dict[str, int]) -> int:
    acc = key.constant
    for mono in key.monomials:
        acc ^= int(all(bits[v.name] for v in mono))
    return acc


def _key_stats(keys) -> dict[str, int]:
    terms = [len(k.monomials) + k.constant for k in keys]
    return {"frames.key_terms_total": sum(terms),
            "frames.key_terms_max": max(terms, default=0),
            "frames.key_degree_max": max((k.degree for k in keys), default=0)}


def _replay_frame(circ: Circ, bits: dict[str, int]):
    """Concrete X/Z exponents pushed through the circuit by the update rules
    in frames.py's docstring, with link outcomes XORed in as compile_measure
    names them. Returns the pending T-layer bits per stage and the final mask."""
    n = circ.n
    a, b = [0] * n, [0] * n
    pending = []
    var = 0
    for i, (gates, t_layer) in enumerate(circ.stages, start=1):
        for kind, qs in gates:
            if kind == "H":
                a[qs[0]], b[qs[0]] = b[qs[0]], a[qs[0]]
            elif kind in ("P", "PDG"):
                b[qs[0]] ^= a[qs[0]]
            elif kind == "CNOT":
                c, t = qs
                a[t] ^= a[c]
                b[c] ^= b[t]
        pending.append({q: a[q] for q in t_layer})
        if i < circ.k:
            for j in range(n):
                a[j] ^= bits[f"m{var}x"]
                b[j] ^= bits[f"m{var}z"]
                var += 1
    return pending, a, b


def check_program(op: Op, p) -> dict[str, int]:
    """EPR count, and every emitted condition against the concrete frame
    replay at one seeded outcome assignment."""
    n, k = op.circ.n, op.circ.k
    eprs = sum(1 for ins in p.instructions if ins.op is compiler.InstrOp.EPR)
    require(eprs == n * (k - 1), f"{eprs} EPR pairs, expected n(K-1) = {n * (k - 1)}")
    names = [f"m{v}{s}" for v in range(n * (k - 1)) for s in "xz"]
    bits = random_bits(input_rng(op.seed, 1), names)
    pending, a, b = _replay_frame(op.circ, bits)
    conds = {(ins.op.value, ins.qubits[0]): ins.cond for ins in p.instructions if ins.cond is not None}

    def carrier(i: int, j: int) -> int:
        return j if i == 1 else n + 2 * n * (i - 2) + n + j

    def emitted(kind: str, q: int) -> int:
        key = conds.get((kind, q))
        return 0 if key is None else _eval_key(key, bits)

    for i, pend in enumerate(pending, start=1):
        for j, bit in pend.items():
            require(emitted("PDG", carrier(i, j)) == bit, f"P-dagger key of stage {i} wire {j}")
    for j in range(n):
        require(emitted("X", carrier(k, j)) == a[j], f"final X key of wire {j}")
        require(emitted("Z", carrier(k, j)) == b[j], f"final Z key of wire {j}")
    counts = {"compiler.instructions": len(p.instructions),
              "compiler.epr_pairs": eprs,
              "compiler.compiled_depth": p.declared_depth.total_depth}
    counts.update(_key_stats(list(conds.values())))
    return counts


def _check_fids(out: dict) -> None:
    worst = min(out.get("fids", ()), default=1.0)
    require(worst >= 1.0 - TOL, f"fidelity {worst!r} below 1 - {TOL}")
    if "probs" in out:
        total = math.fsum(out["probs"])
        require(abs(total - 1.0) <= 1e-9, f"branch probabilities sum to {total!r}")


def check_compile(op: Op, out: dict) -> dict[str, int]:
    counts = check_program(op, out["program"])
    require(out["report"].epr_pairs == counts["compiler.epr_pairs"], "report disagrees on EPR pairs")
    require(compiler.serialize_program(out["parsed"]) == out["text"],
            "serialize(parse(text)) differs from text")
    counts["compiler.program_bytes"] = len(out["text"].encode())
    return counts


def check_verify(op: Op, out: dict) -> dict[str, int]:
    _check_fids(out)
    counts = check_program(op, out["program"])
    if "probs" in out:
        counts["compiler.branches"] = len(out["probs"])
    return counts


def check_unitary(op: Op, out: dict) -> dict[str, int]:
    _check_fids(out)
    counts = check_program(op, out["program"])
    up, dm = out["unitary"], out["metrics"]
    source_t = sum(len(t_layer) for _, t_layer in op.circ.stages)
    require(dm.t_count >= source_t, "unitary has fewer T gates than its source")
    require(up.total_qubits >= out["program"].total_qubits + 2 * len(up.bell_groups),
            "unitary lacks outcome ancillas")
    counts.update({"compiler.unitary_t_count": dm.t_count,
                   "compiler.unitary_t_depth": dm.t_depth,
                   "compiler.unitary_gates": dm.gate_count})
    if "probs" in out:
        counts["compiler.unitary_branches"] = len(out["probs"])
    return counts


def check_gadget_table(op: Op, out: dict) -> dict[str, int]:
    rows = out["rows"]
    require(len(rows) == 4, "truth table needs four rows")
    for row in rows:
        require(row["pdg"] == row["p"] ^ row["q"], "correction bit is not p xor q")
        require(row["out"] == ("out1" if row["p"] == 0 else "out2"), "output wire disagrees with p")
        require(row["min_fidelity"] >= 1.0 - TOL, "gadget fidelity below tolerance")
    return {}


def check_protocol1(op: Op, out: dict) -> dict[str, int]:
    _check_fids(out)
    require(out["causal"].ok, f"causality check failed: {out['causal'].reason}")
    transcript = out["transcript"]
    t_count = sum(len(t_layer) for _, t_layer in op.circ.stages)
    expected = len(op.alice) + 4 * t_count + len(op.ret)
    require(transcript.total_pairs == expected, f"ledger {transcript.total_pairs}, expected {expected}")
    return {"gardenhose.gadgets": t_count, "gardenhose.ledger_pairs": transcript.total_pairs}


def check_crossterms(op: Op, out: dict) -> dict[str, int]:
    rep = out["report"]
    monos = [m for wire in rep.x_cross + rep.z_cross for m in wire]
    require(rep.absorbable == (not monos), "absorbable flag disagrees with the cross terms")
    for m in monos:
        require(len(m) >= 2 and len({v.owner for v in m}) >= 2, "reported monomial is not mixed")
    return {"gardenhose.cross_monomials": len(monos)}


# -- traced-run replay of the frame push ------------------------------------------

def push_frame(op: Op, c) -> dict[str, int]:
    """The symbolic push compile_measure (link keys) or the protocol runner
    (gadget keys, degree 2) performs, replayed through frames' public
    functions so the traced run can time it. Returns key statistics for
    protocol ops, whose keys are not otherwise visible."""
    n = c.n
    if op.kind in ("protocol1", "crossterms"):
        mask = SymbolicMask(
            tuple(KeyPoly.of(OutcomeVar(f"t{j}x", Owner.ALICE)) if j in op.alice else KeyPoly.zero()
                  for j in range(n)),
            tuple(KeyPoly.of(OutcomeVar(f"t{j}z", Owner.ALICE)) if j in op.alice else KeyPoly.zero()
                  for j in range(n)))
        keys = []
        for i, st in enumerate(c.stages[:2]):
            mask = frames.apply_tableau(frames.tableau_from_stage(st.clifford, n), mask)
            if i == 1:
                break
            mask, pending = frames.commute_through_t_layer(mask, st.t_layer)
            for j, g_key in pending.items():
                bx, bz, ax, az = (KeyPoly.of(OutcomeVar(f"g{j}{s}", owner)) for s, owner in
                                  (("bx", Owner.BOB), ("bz", Owner.BOB),
                                   ("ax", Owner.ALICE), ("az", Owner.ALICE)))
                mask = mask.xor_at(j, bx ^ ax, bz ^ az ^ (bx * g_key))
                keys.append(g_key)
        return _key_stats(keys + list(mask.a) + list(mask.b))
    mask = SymbolicMask.zero(n)
    var = 0
    for i, st in enumerate(c.stages, start=1):
        mask = frames.apply_tableau(frames.tableau_from_stage(st.clifford, n), mask)
        mask, _ = frames.commute_through_t_layer(mask, st.t_layer)
        if i < len(c.stages):
            for j in range(n):
                mask = mask.xor_at(j, KeyPoly.of(OutcomeVar(f"m{var}x")),
                                   KeyPoly.of(OutcomeVar(f"m{var}z")))
                var += 1
    return {}


# -- op kinds and pools ---------------------------------------------------------------

@dataclass(frozen=True)
class Kind:
    run: Callable
    check: Callable
    limit_s: float  # op time limit: slower or failed ops count as failed and are charged this


KINDS = {
    "compile": Kind(run_compile, check_compile, 30.0),
    "verify": Kind(run_verify, check_verify, 0.6),
    "verify_exhaustive": Kind(run_verify_exhaustive, check_verify, 5.0),
    "unitary": Kind(run_unitary, check_unitary, 5.0),
    "unitary_exhaustive": Kind(run_unitary_exhaustive, check_unitary, 5.0),
    "gadget_table": Kind(run_gadget_table, check_gadget_table, 5.0),
    "protocol1": Kind(run_protocol1, check_protocol1, 0.025),
    "crossterms": Kind(run_crossterms, check_crossterms, 0.025),
}

# (kind, n, K, count) per workload. The sizes are fixed and only the circuits
# come from the seed, so every seed carries the same amount of work. Counts
# are large because op time varies several-fold between circuits of one size:
# each pool holds about 15 normalized seconds of work, so that sums and
# percentiles over it move little from seed to seed. Class sizes are set so
# that the median and the 90th percentile fall inside one size class rather
# than in the gap between two, where they would jump between seeds.
POOLS = {
    "compile": [("compile", n, 5 * n // 2, count) for n, count in
                ((4, 32), (6, 24), (8, 16), (10, 8), (12, 10), (14, 4), (16, 3))],
    "verify": [("verify", 2, 4, 32), ("verify", 3, 6, 48), ("verify", 4, 8, 40),
               ("verify", 5, 10, 4),
               ("verify_exhaustive", 1, 4, 16), ("verify_exhaustive", 2, 3, 16),
               ("verify_exhaustive", 1, 7, 2), ("verify_exhaustive", 2, 4, 2),
               ("verify_exhaustive", 3, 3, 2)],
    # Unitary sizes stop at rc(4,6): from rc(5,8) up, one circuit's unitary can be
    # ten times another's, so a few circuits would set the sums and peak memory.
    "unitary": [("unitary", 3, 4, 40), ("unitary", 4, 6, 360),
                ("unitary_exhaustive", 1, 4, 140), ("unitary_exhaustive", 2, 3, 8)],
    "protocol": [("gadget_table", 0, 0, 4),
                 ("protocol1", 2, 1, 400), ("protocol1", 3, 1, 30), ("protocol1", 4, 1, 30)]
                + [("crossterms", n, 3, 100) for n in range(2, 17, 2)],
}

WARMUP = {
    "compile": [("compile", 2, 3)],
    "verify": [("verify", 2, 2), ("verify_exhaustive", 1, 3)],
    "unitary": [("unitary", 2, 2), ("unitary_exhaustive", 1, 3)],
    "protocol": [("protocol1", 2, 1), ("crossterms", 2, 3)],
}


def make_op(kind: str, n: int, k: int, seed: int, slot: tuple[int, ...]) -> Op:
    gen = input_rng(seed, *slot)
    op_seed = int(gen.integers(2 ** 31))
    if kind == "gadget_table":
        return Op(kind, f"{kind}#{slot[-1]}", op_seed)
    label = f"{kind} rc({n},{k})#{slot[-1]}"
    if kind == "protocol1":
        # T-depth 1: a single stage whose T layer is never empty.
        circ = random_circuit(gen, n, 1, max_clifford=3 * n, allow_empty_final=False)
        alice = frozenset(int(q) for q in np.flatnonzero(gen.random(n) < 0.5))
        ret = tuple(int(q) for q in np.flatnonzero(gen.random(n) < 0.5))
        return Op(kind, label, op_seed, circ, alice, ret)
    circ = rc(gen, n, k)
    if kind == "crossterms":
        alice = frozenset(int(q) for q in np.flatnonzero(gen.random(n) < 0.5))
        return Op(kind, label, op_seed, circ, alice)
    return Op(kind, label, op_seed, circ)


def build_pool(workload: str, seed: int) -> list[Op]:
    ops = [make_op(kind, n, k, seed, (row, i))
           for row, (kind, n, k, count) in enumerate(POOLS[workload]) for i in range(count)]
    order = np.random.default_rng([seed, 999]).permutation(len(ops))
    return [ops[i] for i in order]


def warmup_ops(workload: str, seed: int) -> list[Op]:
    return [make_op(kind, n, k, seed, (1000 + i, 0))
            for i, (kind, n, k) in enumerate(WARMUP[workload])]
