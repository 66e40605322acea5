"""
Simplified garden-hose gadget and the instantaneous two-party protocol.

The gadget routes a qubit held by Bob through a fixed 4-EPR-pair resource and
applies P-dagger to it exactly when p xor q = 1, where p is Bob's routing bit
and q is Alice's. Bob Bell-measures (in, bob half of pair 1) for p = 0 or
(in, bob half of pair 2) for p = 1. Alice always performs two Bell
measurements covering all four of her halves: (alice 1, alice 3) first, then
(alice 2, alice 4); her bit q decides which pairing gets a P-dagger on its
lower-numbered qubit first (pairing 1 when q = 1, pairing 2 when q = 0). The
input state ends on Bob's half of pair 3 ("out1") when p = 0, else on his
half of pair 4 ("out2"); which of Alice's measurements mattered is therefore
decided by Bob alone. run_gadget simulates the gadget on concrete bits p and
q and returns its output with the Pauli mask as bits and as keys;
undo_gadget recovers the input from that result.

The protocol runner executes a T-depth <= 1 circuit with one simultaneous
classical exchange: Alice teleports her input wires to Bob up front and keeps
the outcome masks secret, Bob runs the circuit with one gadget per T gate
(routing bits are the parties' local shares of the pending correction key),
and both parties apply Pauli corrections only after the single exchange.
Each gadget's effect on the frame is one update (_gadget_frame_update), which
the protocol runner and the cross-term analysis share. Protocol runs are
single-threaded per transcript; independent runs may be executed in parallel.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .circuits import Gate, GateKind, LayeredCircuit, ValidationError, validate
from .frames import (
    KeyPoly,
    Monomial,
    OutcomeVar,
    Owner,
    PauliMask,
    SymbolicMask,
    apply_tableau,
    commute_through_t_layer,
    cross_terms,
    poly_eval,
    tableau_from_stage,
)
from .oracle import (
    MeasRecord,
    Register,
    StateVector,
    apply_gate,
    apply_mask,
    fidelity_up_to_phase,
    random_state,
)


@dataclass
class GadgetResult:
    output_qubit: str                   # "out1" / "out2"
    applied_pdg: int                    # p xor q
    mask: PauliMask                     # realized output wire, 1 qubit
    symbolic_mask: SymbolicMask         # keys of (out1, out2)
    records: list[MeasRecord]
    outcomes: dict[str, int]
    probability: float
    junk_mask: PauliMask                # bookkeeping for the unused output wire
    state: StateVector                  # the realized output wire


def _gadget_core(reg: Register, in_q: int, base: int, p_bit: int, q_bit: int,
                 measure, prefix: str):
    """Run one gadget on ``in_q``: four EPR pairs with Bob's halves at
    base..base+3 and Alice's at base+4..base+7, routed by p and q.
    ``measure`` resolves Bell outcomes. Returns Bob's outcomes, the on-path
    and off-path pairings of Alice as (name, outcomes), and the output
    qubit."""
    bobh = [base + k for k in range(4)]
    alich = [base + 4 + k for k in range(4)]
    for k in range(4):
        reg.prepare_epr(bobh[k], alich[k])
    xb, zb = measure(in_q, bobh[0] if p_bit == 0 else bobh[1],
                     prefix + "bx", prefix + "bz", Owner.BOB)
    if q_bit == 1:
        reg.apply(GateKind.PDG, (alich[0],))
    x1, z1 = measure(alich[0], alich[2], prefix + "a1x", prefix + "a1z", Owner.ALICE)
    if q_bit == 0:
        reg.apply(GateKind.PDG, (alich[1],))
    x2, z2 = measure(alich[1], alich[3], prefix + "a2x", prefix + "a2z", Owner.ALICE)
    out_q = bobh[2] if p_bit == 0 else bobh[3]
    on_path = ("a1", (x1, z1)) if p_bit == 0 else ("a2", (x2, z2))
    off_path = ("a2", (x2, z2)) if p_bit == 0 else ("a1", (x1, z1))
    return (xb, zb), on_path, off_path, out_q


def _var(prefix: str, suffix: str, owner: Owner) -> OutcomeVar:
    return OutcomeVar(prefix + suffix, owner)


def _bell_measure(reg: Register, r: int, s: int, vx: str, vz: str, outcomes: dict[str, int],
                  rng: np.random.Generator | None, forced: dict[str, int] | None,
                  caller: str) -> tuple[int, int, float]:
    """Bell-measure (r, s) with the outcomes named in ``forced`` or, without
    it, drawn from ``rng``; write them to ``outcomes`` as vx, vz and return
    (x, z, probability), where the probability of a drawn outcome is 1.0."""
    if forced is not None:
        xv, zv = forced[vx] & 1, forced[vz] & 1
        prob = reg.project_bell(r, s, xv, zv)
    else:
        if rng is None:
            raise ValidationError(f"{caller} needs rng or forced outcomes")
        xv, zv = reg.bell_measure(r, s, rng)
        prob = 1.0
    outcomes[vx] = xv
    outcomes[vz] = zv
    return xv, zv, prob


def run_gadget(p: int, q: int, input_state: StateVector,
               rng: np.random.Generator | None = None,
               forced: dict[str, int] | None = None, var_prefix: str = "") -> GadgetResult:
    """Run the gadget once on a 1-qubit input and routing bits p, q.

    The gadget is simulated on a 9-qubit register: the input on qubit 0, the
    four pairs on 1..8. The realized output wire carries
    (Pdg)^(p xor q) X^a Z^b psi, with (a, b) returned both as concrete bits
    and as polynomials in the six outcome variables (the correction is kept
    outermost in this presentation). Outcomes come from ``rng`` or, for branch
    enumeration, from ``forced`` keyed by variable name.
    """
    if input_state.n != 1:
        raise ValidationError("gadget input must be a single qubit")
    p_bit, q_bit = int(p) & 1, int(q) & 1

    reg = Register()
    reg.load(input_state, [0])
    outcomes: dict[str, int] = {}
    records: list[MeasRecord] = []
    prob = 1.0

    def measure(r: int, s: int, vx: str, vz: str, owner: Owner) -> tuple[int, int]:
        nonlocal prob
        xv, zv, factor = _bell_measure(reg, r, s, vx, vz, outcomes, rng, forced, "run_gadget")
        prob *= factor
        records.append(MeasRecord(vx, vz, (xv, zv), (r, s)))
        return xv, zv

    (xb, zb), on_path, off_path, out_q = _gadget_core(
        reg, 0, 1, p_bit, q_bit, measure, var_prefix)
    pdg_bit = p_bit ^ q_bit
    xa, za = on_path[1]
    xj, zj = off_path[1]
    mask = PauliMask((xb ^ xa,), (zb ^ za ^ (xa & pdg_bit),))
    junk = PauliMask((xj,), (zj ^ (xj & (1 ^ pdg_bit)),))

    bx = KeyPoly.of(_var(var_prefix, "bx", Owner.BOB))
    bz = KeyPoly.of(_var(var_prefix, "bz", Owner.BOB))
    ax = KeyPoly.of(_var(var_prefix, on_path[0] + "x", Owner.ALICE))
    az = KeyPoly.of(_var(var_prefix, on_path[0] + "z", Owner.ALICE))
    jx = KeyPoly.of(_var(var_prefix, off_path[0] + "x", Owner.ALICE))
    jz = KeyPoly.of(_var(var_prefix, off_path[0] + "z", Owner.ALICE))
    path_a = bx ^ ax
    path_b = bz ^ az ^ (ax * KeyPoly.from_bit(pdg_bit))
    junk_a = jx
    junk_b = jz ^ (jx * KeyPoly.from_bit(1 ^ pdg_bit))
    if p_bit == 0:
        sym = SymbolicMask((path_a, junk_a), (path_b, junk_b))
    else:
        sym = SymbolicMask((junk_a, path_a), (junk_b, path_b))

    return GadgetResult(
        output_qubit="out1" if p_bit == 0 else "out2",
        applied_pdg=pdg_bit,
        mask=mask,
        symbolic_mask=sym,
        records=records,
        outcomes=outcomes,
        probability=prob,
        junk_mask=junk,
        state=reg.extract([out_q]),
    )


def undo_gadget(res: GadgetResult) -> StateVector:
    """The gadget's input recovered from its output: P when a P-dagger was
    applied, then the recorded Pauli mask."""
    state = res.state
    if res.applied_pdg:
        state = apply_gate(state, Gate(GateKind.P, (0,)))
    return apply_mask(state, res.mask)


def gadget_truth_table(input_states: list[StateVector] | None = None,
                       seed: int = 0, tol: float = 1e-10) -> list[dict]:
    """Verify the gadget over all (p, q) and every measurement branch.

    For each setting and branch: the correction bit equals p xor q, the output
    sits on out1 iff p = 0, undoing the recorded mask and the correction
    recovers the input, and every symbolic key evaluates to its concrete bit.
    Returns one summary row per (p, q); raises on any violation.
    """
    if input_states is None:
        gen = np.random.default_rng(seed)
        input_states = [random_state(1, gen) for _ in range(3)]
    var_names = ["bx", "bz", "a1x", "a1z", "a2x", "a2z"]
    table = []
    for p_bit, q_bit in itertools.product((0, 1), repeat=2):
        min_fid = 1.0
        for psi in input_states:
            total_prob = 0.0
            for bits in itertools.product((0, 1), repeat=6):
                forced = dict(zip(var_names, bits))
                res = run_gadget(p_bit, q_bit, psi, forced=forced)
                total_prob += res.probability
                if res.applied_pdg != (p_bit ^ q_bit):
                    raise ValidationError("gadget applied_pdg disagrees with p xor q")
                if res.output_qubit != ("out1" if p_bit == 0 else "out2"):
                    raise ValidationError("gadget output position disagrees with p")
                fid = fidelity_up_to_phase(undo_gadget(res), psi)
                min_fid = min(min_fid, fid)
                if fid < 1.0 - tol:
                    raise ValidationError(
                        f"gadget failed at (p,q)=({p_bit},{q_bit}), branch {bits}: fidelity {fid}")
                _check_gadget_coherence(res, p_bit)
            if abs(total_prob - 1.0) > 1e-9:
                raise ValidationError("gadget branch probabilities do not sum to 1")
        table.append({"p": p_bit, "q": q_bit,
                      "out": "out1" if p_bit == 0 else "out2",
                      "pdg": p_bit ^ q_bit, "min_fidelity": min_fid})
    return table


def _check_gadget_coherence(res: GadgetResult, p_bit: int) -> None:
    path_idx = 0 if p_bit == 0 else 1
    junk_idx = 1 - path_idx
    evaluated = res.symbolic_mask.evaluate(res.outcomes)
    if (evaluated.a[path_idx], evaluated.b[path_idx]) != (res.mask.a[0], res.mask.b[0]):
        raise ValidationError("symbolic output keys disagree with concrete mask")
    if (evaluated.a[junk_idx], evaluated.b[junk_idx]) != (res.junk_mask.a[0], res.junk_mask.b[0]):
        raise ValidationError("symbolic junk keys disagree with concrete bookkeeping")


def _gadget_frame_update(mask: SymbolicMask, j: int, prefix: str, on_path: str,
                         g_key: KeyPoly) -> SymbolicMask:
    """Fold the gadget that fixes wire j's pending correction ``g_key`` into
    the protocol frame: teleport in, clear the correction, teleport on, so
    a += bx + ax and b += bz + az + bx*g. Bob's outcomes are ``prefix`` bx/bz,
    Alice's on-path pairing ``prefix + on_path`` x/z. A Bob-owned bx times a
    key with Alice-owned terms is where mixed-owner monomials come from."""
    bx = KeyPoly.of(OutcomeVar(prefix + "bx", Owner.BOB))
    bz = KeyPoly.of(OutcomeVar(prefix + "bz", Owner.BOB))
    ax = KeyPoly.of(OutcomeVar(prefix + on_path + "x", Owner.ALICE))
    az = KeyPoly.of(OutcomeVar(prefix + on_path + "z", Owner.ALICE))
    return mask.xor_at(j, bx ^ ax, bz ^ az ^ (bx * g_key))


# -- instantaneous two-party protocol -----------------------------------------

@dataclass(frozen=True)
class ResourcePlan:
    """Agreed-upon resource assignment: which input wires Alice holds, and
    which output wires are teleported back to her (default: none)."""

    alice_wires: frozenset[int] = frozenset()
    return_to_alice: tuple[int, ...] = ()


@dataclass(frozen=True)
class Event:
    party: Owner
    action: str
    deps: frozenset[str]
    kind: str  # "measure" | "gate" | "correct" | "exchange"


@dataclass
class ProtocolTranscript:
    events: list[Event]
    var_owners: dict[str, Owner]
    epr_ledger: dict[str, int]
    exchange_round: int
    outcomes: dict[str, int]
    probability: float = 1.0

    @property
    def total_pairs(self) -> int:
        return sum(self.epr_ledger.values())

    def to_text(self) -> str:
        lines = []
        for idx, ev in enumerate(self.events):
            if ev.kind == "exchange":
                lines.append(f"EXCHANGE {idx}")
            else:
                deps = ",".join(sorted(ev.deps)) or "-"
                lines.append(f"EVENT {idx} {ev.party.value.upper()} {ev.action} DEPS {deps}")
        lines.append(f"LEDGER {self.total_pairs}")
        return "\n".join(lines) + "\n"


@dataclass
class CausalityResult:
    ok: bool
    violation: int | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def causality_check(t: ProtocolTranscript) -> CausalityResult:
    """Pass iff there is exactly one exchange, every pre-exchange event depends
    only on its own party's variables, and no measurement follows the exchange
    (final measurement bases are fixed before corrections arrive)."""
    exchanges = [i for i, ev in enumerate(t.events) if ev.kind == "exchange"]
    if len(exchanges) != 1:
        return CausalityResult(False, exchanges[1] if len(exchanges) > 1 else None,
                               f"expected exactly one exchange, found {len(exchanges)}")
    cut = exchanges[0]
    for idx, ev in enumerate(t.events[:cut]):
        for name in ev.deps:
            owner = t.var_owners.get(name)
            if owner not in (ev.party, Owner.LOCAL):
                return CausalityResult(
                    False, idx,
                    f"event {idx} ({ev.action}) of {ev.party.value} depends on "
                    f"{name} owned by {owner.value if owner else 'nobody'} before the exchange")
    for idx in range(cut + 1, len(t.events)):
        if t.events[idx].kind == "measure":
            return CausalityResult(False, idx, "measurement after the exchange")
    return CausalityResult(True)


def _split_key_by_owner(key: KeyPoly) -> tuple[KeyPoly, KeyPoly]:
    """Split a linear key into Bob-evaluable and Alice-evaluable shares."""
    bob = KeyPoly.from_bit(key.constant)
    alice = KeyPoly.zero()
    for mono in key.monomials:
        owners = {v.owner for v in mono}
        if owners == {Owner.ALICE}:
            alice = alice ^ KeyPoly(frozenset({mono}))
        elif Owner.ALICE not in owners:
            bob = bob ^ KeyPoly(frozenset({mono}))
        else:
            raise ValidationError(
                "pending correction key mixes both parties' bits; the simplified "
                "gadget cannot route it (see analyze_cross_terms)")
    return bob, alice


def run_protocol1(c: LayeredCircuit, input_state: StateVector, plan: ResourcePlan,
                  rng: np.random.Generator | None = None,
                  forced: dict[str, int] | None = None,
                  ) -> tuple[StateVector, ProtocolTranscript]:
    """Execute a T-depth <= 1 circuit as an instantaneous two-party protocol.

    Alice first teleports her wires to Bob, withholding the outcome masks.
    Bob runs the Clifford gates and T gates, fixing each T's pending
    correction with one gadget whose routing bits are the parties' shares of
    the pending key. After one simultaneous exchange both parties apply their
    Pauli corrections. Returns the final state on the logical wires (in wire
    order) and the event transcript.
    """
    validate(c)
    if c.t_depth > 1:
        raise ValidationError(
            "T-depth > 1 needs corrections that mix both parties' bits; the "
            "simplified gadget does not extend (see analyze_cross_terms)")
    if input_state.n != c.n:
        raise ValidationError("input state size does not match circuit")
    if not plan.alice_wires <= set(range(c.n)):
        raise ValidationError("alice_wires out of range")
    if not set(plan.return_to_alice) <= set(range(c.n)):
        raise ValidationError("return_to_alice out of range")

    reg = Register()
    reg.load(input_state, list(range(c.n)))
    next_q = c.n
    carriers = {j: j for j in range(c.n)}
    outcomes: dict[str, int] = {}
    var_owners: dict[str, Owner] = {}
    events: list[Event] = []
    mask = SymbolicMask.zero(c.n)
    prob = 1.0

    def measure(r: int, s: int, vx: str, vz: str, owner: Owner) -> tuple[int, int]:
        nonlocal prob
        xv, zv, factor = _bell_measure(reg, r, s, vx, vz, outcomes, rng, forced, "run_protocol1")
        prob *= factor
        var_owners[vx] = owner
        var_owners[vz] = owner
        return xv, zv

    # Alice teleports her inputs to Bob; masks stay with her until the exchange.
    for j in sorted(plan.alice_wires):
        hb, ha = next_q, next_q + 1
        next_q += 2
        reg.prepare_epr(hb, ha)
        measure(carriers[j], ha, f"t{j}x", f"t{j}z", Owner.ALICE)
        events.append(Event(Owner.ALICE, f"teleport_wire_{j}", frozenset(), "measure"))
        mask = mask.xor_at(j, KeyPoly.of(OutcomeVar(f"t{j}x", Owner.ALICE)),
                           KeyPoly.of(OutcomeVar(f"t{j}z", Owner.ALICE)))
        carriers[j] = hb

    gadget_count = 0
    for st in c.stages:
        for g in st.clifford:
            reg.apply(g.kind, tuple(carriers[q] for q in g.targets))
        if st.clifford:
            events.append(Event(Owner.BOB, "clifford_stage", frozenset(), "gate"))
        mask = apply_tableau(tableau_from_stage(st.clifford, c.n), mask)
        mask, pending = commute_through_t_layer(mask, st.t_layer)
        for j in sorted(st.t_layer):
            reg.apply(GateKind.T, (carriers[j],))
            events.append(Event(Owner.BOB, f"t_gate_wire_{j}", frozenset(), "gate"))
            g_key = pending[j]
            bob_share, alice_share = _split_key_by_owner(g_key)
            p_bit = poly_eval(bob_share, outcomes)
            q_bit = poly_eval(alice_share, outcomes)
            prefix = f"g{gadget_count}"
            base = next_q
            next_q += 8
            bob_deps = frozenset(v.name for v in bob_share.variables())
            alice_deps = frozenset(v.name for v in alice_share.variables())
            events.append(Event(Owner.BOB, f"{prefix}_route_and_bell", bob_deps, "measure"))
            events.append(Event(Owner.ALICE, f"{prefix}_pairing1", alice_deps, "measure"))
            events.append(Event(Owner.ALICE, f"{prefix}_pairing2", alice_deps, "measure"))
            *_, out_q = _gadget_core(reg, carriers[j], base, p_bit, q_bit, measure, prefix)
            carriers[j] = out_q
            gadget_count += 1
            mask = _gadget_frame_update(mask, j, prefix, "a1" if p_bit == 0 else "a2", g_key)

    for j in plan.return_to_alice:
        hb, ha = next_q, next_q + 1
        next_q += 2
        reg.prepare_epr(hb, ha)
        measure(carriers[j], hb, f"r{j}x", f"r{j}z", Owner.BOB)
        events.append(Event(Owner.BOB, f"return_wire_{j}", frozenset(), "measure"))
        mask = mask.xor_at(j, KeyPoly.of(OutcomeVar(f"r{j}x", Owner.BOB)),
                           KeyPoly.of(OutcomeVar(f"r{j}z", Owner.BOB)))
        carriers[j] = ha

    exchange_round = len(events)
    events.append(Event(Owner.LOCAL, "exchange", frozenset(), "exchange"))

    returned = set(plan.return_to_alice)
    for j in range(c.n):
        a_bit = poly_eval(mask.a[j], outcomes)
        b_bit = poly_eval(mask.b[j], outcomes)
        if a_bit:
            reg.apply(GateKind.X, (carriers[j],))
        if b_bit:
            reg.apply(GateKind.Z, (carriers[j],))
        party = Owner.ALICE if j in returned else Owner.BOB
        deps = frozenset(v.name for v in mask.a[j].variables() | mask.b[j].variables())
        events.append(Event(party, f"correct_wire_{j}", deps, "correct"))

    ledger = {
        "initial_teleport": len(plan.alice_wires),
        "gadget": 4 * gadget_count,
        "return_teleport": len(plan.return_to_alice),
    }
    transcript = ProtocolTranscript(events, var_owners, ledger, exchange_round,
                                    dict(outcomes), prob)
    final = reg.extract([carriers[j] for j in range(c.n)])
    return final, transcript


# -- cross-term analysis -------------------------------------------------------

@dataclass
class CrossTermReport:
    x_cross: tuple[tuple[Monomial, ...], ...]
    z_cross: tuple[tuple[Monomial, ...], ...]
    absorbable: bool
    second_t_layer: frozenset[int] | None

    def to_text(self) -> str:
        lines = []
        for j in range(len(self.x_cross)):
            xs = "; ".join("*".join(sorted(v.name for v in m)) for m in self.x_cross[j]) or "-"
            zs = "; ".join("*".join(sorted(v.name for v in m)) for m in self.z_cross[j]) or "-"
            lines.append(f"wire {j}: x_key_cross={xs} z_key_cross={zs}")
        lines.append(f"absorbable={'true' if self.absorbable else 'false'}")
        return "\n".join(lines) + "\n"


def _symbolic_analysis_mask(c: LayeredCircuit, alice_wires) -> SymbolicMask:
    """Symbolic mask after the first T layer's gadgets and, when present, the
    next stage's Clifford. Alice's hidden teleport masks seed the frame; each
    gadget adds fresh outcome variables and the conditioned term bx * key."""
    a_keys = [KeyPoly.of(OutcomeVar(f"t{j}x", Owner.ALICE)) if j in alice_wires else KeyPoly.zero()
              for j in range(c.n)]
    b_keys = [KeyPoly.of(OutcomeVar(f"t{j}z", Owner.ALICE)) if j in alice_wires else KeyPoly.zero()
              for j in range(c.n)]
    mask = SymbolicMask(tuple(a_keys), tuple(b_keys))

    first = c.stages[0]
    mask = apply_tableau(tableau_from_stage(first.clifford, c.n), mask)
    mask, pending = commute_through_t_layer(mask, first.t_layer)
    for j in sorted(first.t_layer):
        mask = _gadget_frame_update(mask, j, f"g{j}", "a", pending[j])
    if len(c.stages) >= 2:
        mask = apply_tableau(tableau_from_stage(c.stages[1].clifford, c.n), mask)
    return mask


def analyze_cross_terms(c: LayeredCircuit, alice_wires: frozenset[int] | set[int]) -> CrossTermReport:
    """Track the symbolic frame through the first T layer's gadgets and the
    following Clifford stage, and report mixed-owner monomials in the keys a
    second T layer would consume. Keys that stay single-owner per monomial can
    be absorbed by the simplified gadget; a mixed product cannot.
    """
    validate(c)
    if c.t_depth < 1:
        raise ValidationError("cross-term analysis needs at least one T layer")
    if not set(alice_wires) <= set(range(c.n)):
        raise ValidationError("alice_wires out of range")

    second_exists = len(c.stages) >= 2 and bool(c.stages[1].t_layer)
    if not second_exists:
        empty = tuple(() for _ in range(c.n))
        return CrossTermReport(empty, empty, True, None)

    mask = _symbolic_analysis_mask(c, set(alice_wires))
    x_cross = tuple(tuple(cross_terms(mask.a[j])) for j in range(c.n))
    z_cross = tuple(tuple(cross_terms(mask.b[j])) for j in range(c.n))
    any_cross = any(x_cross[j] or z_cross[j] for j in range(c.n))
    return CrossTermReport(x_cross, z_cross, not any_cross, c.stages[1].t_layer)
