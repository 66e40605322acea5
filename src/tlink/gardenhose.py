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
decided by Bob alone.

The gadget and the protocol are compiled programs (compiler.CompiledProgram),
run by the compiler's executor like any other: execute samples them and
enumerate_branches expands every Bell outcome, so there is one Bell-measure
path. _gadget_instructions emits one gadget for both gadget_program and
protocol_program. Alice's choice is two P-daggers conditioned on her bit q
and on q xor 1, so the instructions do not depend on outcomes. Bob's bit p is
a compile-time constant: at T-depth <= 1 the only outcomes measured before
the T layer are Alice's teleport bits, so a pending key's Bob share is its
constant. run_gadget returns the output wire with its Pauli mask as keys and
as their values at the run's outcomes; undo_gadget recovers the input.

The protocol executes a T-depth <= 1 circuit with one simultaneous
classical exchange: Alice teleports her input wires to Bob up front and keeps
the outcome masks secret, Bob runs the circuit with one gadget per T gate
(routing bits are the parties' shares of the pending correction key), and
both parties apply Pauli corrections only after the single exchange. A
transcript event depends on the variables of the conditions its party
evaluates.

The protocol builder and the cross-term analysis push their frame the way the
compiler's linked builder does: X and Z exponents are plain int masks over the
variable table, pushed through frames.push_gates. A gadget adds a degree-2
product bx*v per variable v of the key it fixes; products are lifted bits.
Each call first creates every outcome variable it puts in the frame and then
fixes lift, the table size: bit lift + i of a frame mask stands for term i of
the call's own term list, so the push and the XOR stay int operations. Each
gadget's effect on the frame is one update (_gadget_frame_update), which both
share. A KeyPoly is built only for a condition that is emitted, and a
Monomial only for a reported cross term.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import Gate, GateKind, LayeredCircuit, ValidationError, t, validate
from .compiler import (
    CompiledProgram,
    Instruction,
    InstrOp,
    enumerate_branches,
    execute,
)
from .frames import (
    KeyPoly,
    Monomial,
    OutcomeVar,
    Owner,
    PauliMask,
    SymbolicMask,
    _mono_key,
    _names,
    _set_bits,
    _term_vars,
    outcome_bit,
    outcome_var,
    push_gates,
    table_size,
    var_bit,
)
from .oracle import (
    StateVector,
    apply_gate,
    apply_mask,
    fidelity_up_to_phase,
    random_state,
)


@dataclass(frozen=True)
class GadgetResult:
    """One gadget run: the routing bits, the outcomes drawn and the output
    wire; everything else is derived from them."""

    p: int
    q: int
    outcomes: dict[str, int]
    state: StateVector                  # the realized output wire

    @property
    def output_qubit(self) -> str:
        return "out1" if self.p == 0 else "out2"

    @property
    def applied_pdg(self) -> int:
        return self.p ^ self.q

    @property
    def symbolic_mask(self) -> SymbolicMask:  # the keys of the output wire
        return gadget_keys(self.p, self.q)

    @property
    def mask(self) -> PauliMask:  # the keys at the run's outcomes
        return self.symbolic_mask.evaluate(self.outcomes)


# A gadget's outcomes: Bob's Bell measurement, then Alice's two pairings.
_GADGET_OUTCOMES = (("bx", Owner.BOB), ("bz", Owner.BOB), ("a1x", Owner.ALICE),
                    ("a1z", Owner.ALICE), ("a2x", Owner.ALICE), ("a2z", Owner.ALICE))


def _gadget_vars(prefix: str) -> tuple[OutcomeVar, ...]:
    """The outcome variables of the gadget named ``prefix``, in the order of
    _GADGET_OUTCOMES: bx, bz, a1x, a1z, a2x, a2z."""
    return tuple(outcome_var(prefix + name, owner) for name, owner in _GADGET_OUTCOMES)


def _gadget_instructions(in_q: int, base: int, p_bit: int, q_key: KeyPoly,
                         gvars: tuple[OutcomeVar, ...]) -> tuple[list[Instruction], int]:
    """One gadget on ``in_q``: four EPR pairs with Bob's halves at
    base..base+3 and Alice's at base+4..base+7, routed by Bob's bit p and by
    Alice's bit, the key ``q_key``. Outcomes are ``gvars`` (_gadget_vars):
    Bob's bx/bz, then a1x/a1z and a2x/a2z of Alice's two pairings. Returns
    the instructions and the output qubit."""
    bobh = range(base, base + 4)
    alich = range(base + 4, base + 8)
    bx, bz, a1x, a1z, a2x, a2z = gvars
    instrs = [Instruction(InstrOp.EPR, pair) for pair in zip(bobh, alich)]
    instrs += [
        Instruction(InstrOp.BELL, (in_q, bobh[p_bit]), out_vars=(bx, bz)),
        Instruction(InstrOp.COND_PDG, (alich[0],), cond=q_key),
        Instruction(InstrOp.BELL, (alich[0], alich[2]), out_vars=(a1x, a1z)),
        Instruction(InstrOp.COND_PDG, (alich[1],), cond=q_key ^ KeyPoly.one()),
        Instruction(InstrOp.BELL, (alich[1], alich[3]), out_vars=(a2x, a2z)),
    ]
    return instrs, bobh[2 + p_bit]


def gadget_program(p: int, q: int) -> CompiledProgram:
    """The gadget for bits p and q: the input on qubit 0, Bob's pair halves
    on 1..4 and Alice's on 5..8."""
    instrs, out_q = _gadget_instructions(0, 1, p & 1, KeyPoly.from_bit(q), _gadget_vars(""))
    return CompiledProgram(9, (out_q,), tuple(instrs))


@lru_cache(maxsize=None)
def gadget_keys(p: int, q: int) -> SymbolicMask:
    """Keys (a, b) of the gadget's output wire, which carries
    (P-dagger)^(p xor q) X^a Z^b psi (the correction kept outermost):
    a = bx + ax and b = bz + az + ax*(p xor q), where ax, az come from
    Alice's pairing on Bob's path (a1 for p = 0, a2 for p = 1)."""
    bx, bz, a1x, a1z, a2x, a2z = (KeyPoly.of(v) for v in _gadget_vars(""))
    ax, az = (a1x, a1z) if p == 0 else (a2x, a2z)
    return SymbolicMask((bx ^ ax,), (bz ^ az ^ (ax * KeyPoly.from_bit(p ^ q)),))


def run_gadget(p: int, q: int, input_state: StateVector,
               rng: np.random.Generator) -> GadgetResult:
    """Run the gadget program once on a 1-qubit input and routing bits p, q,
    drawing one uniform from ``rng`` per Bell measurement."""
    if input_state.n != 1:
        raise ValidationError("gadget input must be a single qubit")
    p_bit, q_bit = int(p) & 1, int(q) & 1
    state, outcomes = execute(gadget_program(p_bit, q_bit), input_state, rng)
    return GadgetResult(p_bit, q_bit, outcomes, state)


def undo_gadget(res: GadgetResult) -> StateVector:
    """The gadget's input recovered from its output: P when a P-dagger was
    applied, then the Pauli mask."""
    state = res.state
    if res.applied_pdg:
        state = apply_gate(state, Gate(GateKind.P, (0,)))
    return apply_mask(state, res.mask)


def gadget_truth_table(input_states: list[StateVector] | None = None,
                       seed: int = 0, tol: float = 1e-10) -> list[dict]:
    """Verify the gadget over all (p, q) and every measurement branch.

    Each (p, q) program is expanded over every Bell outcome
    (enumerate_branches). The branch probabilities must sum to 1, and on
    every branch the keys evaluated at its outcomes, with P when p xor q = 1,
    must undo the output back to the input. Returns one summary row per
    (p, q) from its GadgetResults; raises on any violation.
    """
    if input_states is None:
        gen = np.random.default_rng(seed)
        input_states = [random_state(1, gen) for _ in range(3)]
    if not input_states:
        raise ValidationError("the gadget truth table needs at least one input state")
    table = []
    for p_bit, q_bit in itertools.product((0, 1), repeat=2):
        program = gadget_program(p_bit, q_bit)
        min_fid = 1.0
        for psi in input_states:
            branches = enumerate_branches(program, psi)
            if abs(sum(br.probability for br in branches) - 1.0) > 1e-9:
                raise ValidationError("gadget branch probabilities do not sum to 1")
            for br in branches:
                res = GadgetResult(p_bit, q_bit, br.outcomes, br.state)
                fid = fidelity_up_to_phase(undo_gadget(res), psi)
                min_fid = min(min_fid, fid)
                if fid < 1.0 - tol:
                    raise ValidationError(
                        f"gadget failed at (p,q)=({p_bit},{q_bit}), branch {br.outcomes}: "
                        f"fidelity {fid}")
        table.append({"p": p_bit, "q": q_bit, "out": res.output_qubit,
                      "pdg": res.applied_pdg, "min_fidelity": min_fid})
    return table


# -- the frame as int masks ------------------------------------------------------

def _gadget_frame_update(a: list[int], b: list[int], j: int, bits: tuple[int, int, int, int],
                         g: int, lift: int, terms: list[int]) -> None:
    """Fold the gadget that fixes wire j's pending correction ``g`` into the
    frame, in place: teleport in, clear the correction, teleport on, so
    a += bx + ax and b += bz + az + bx*g. ``bits`` are the table bits of
    Bob's outcomes bx, bz and of Alice's on-path pairing ax, az.

    A frame mask holds a variable at its table bit, below ``lift``, and term
    i of ``terms`` (a mask of two or more variables) at bit lift + i. Each
    product of bx with a term of g is a new term, as bx is fresh, so it is
    appended and its lifted bit set. A Bob-owned bx times a key with
    Alice-owned terms is where mixed-owner monomials come from."""
    bx, bz, ax, az = bits
    a[j] ^= (1 << bx) ^ (1 << ax)
    db = (1 << bz) ^ (1 << az)
    for i in _set_bits(g):
        db ^= 1 << (lift + len(terms))
        terms.append((1 << bx) | (1 << i if i < lift else terms[i - lift]))
    b[j] ^= db


def _frame_key(mask: int, lift: int, terms: list[int]) -> KeyPoly:
    """The KeyPoly of a frame mask (see _gadget_frame_update), for a
    condition that is emitted."""
    high = mask >> lift
    if not high:
        return KeyPoly(mask)
    return KeyPoly(mask & ((1 << lift) - 1), frozenset(terms[i] for i in _set_bits(high)))


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
    outcomes: dict[str, int]

    @property
    def exchange_round(self) -> int:
        """The index of the first exchange event (causality_check requires
        exactly one)."""
        return next(i for i, ev in enumerate(self.events) if ev.kind == "exchange")

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


def _split_key_by_owner(key: int, alice: int) -> tuple[int, int]:
    """Split a pending key, a frame mask, into Bob's routing bit, its
    constant, and Alice's share, the rest. The frame holds no constant, so
    Bob's bit is 0. A bit outside ``alice``, the mask of Alice's teleport
    bits, raises: at T-depth <= 1 Bob measures nothing before the T layer."""
    if key & ~alice:
        raise ValidationError(
            "pending correction key depends on bits Alice does not hold; the "
            "simplified gadget cannot route it (see analyze_cross_terms)")
    return 0, key


def protocol_program(c: LayeredCircuit, plan: ResourcePlan
                     ) -> tuple[CompiledProgram, ProtocolTranscript]:
    """Build the instantaneous two-party protocol for a T-depth <= 1 circuit
    as one program, with its event transcript (outcomes left empty).

    Alice first teleports her wires to Bob, withholding the outcome masks.
    Bob runs the Clifford gates and T gates, fixing each T's pending
    correction with one gadget routed by the key's constant (Bob's share)
    and by the rest (Alice's). Wires in ``plan.return_to_alice`` are
    teleported back. After one simultaneous exchange each wire gets X and Z
    conditioned on the tracked frame. The program's inputs and outputs are
    the logical wires in order.
    """
    validate(c)
    if c.t_depth > 1:
        raise ValidationError(
            "T-depth > 1 needs corrections that mix both parties' bits; the "
            "simplified gadget does not extend (see analyze_cross_terms)")
    if not plan.alice_wires <= set(range(c.n)):
        raise ValidationError("alice_wires out of range")
    if not set(plan.return_to_alice) <= set(range(c.n)):
        raise ValidationError("return_to_alice out of range")

    n = c.n
    # Every variable the frame holds gets its table bit before lift is fixed:
    # from lift up, a bit stands for a product term.
    sent = [(j, outcome_var(f"t{j}x", Owner.ALICE), outcome_var(f"t{j}z", Owner.ALICE))
            for j in sorted(plan.alice_wires)]
    back = [(j, outcome_var(f"r{j}x", Owner.BOB), outcome_var(f"r{j}z", Owner.BOB))
            for j in plan.return_to_alice]
    gadget_vars = [_gadget_vars(f"g{k}") for k in range(sum(len(st.t_layer) for st in c.stages))]
    lift = table_size()
    terms: list[int] = []
    a, b = [0] * n, [0] * n  # the frame's X and Z exponents
    alice = 0  # the mask of Alice's teleport bits

    carriers = list(range(n))
    next_q = n
    instrs: list[Instruction] = []
    events: list[Event] = []

    def teleport(j: int, vx: OutcomeVar, vz: OutcomeVar) -> int:
        # The owner of vx and vz Bell-measures wire j with its half of a
        # fresh pair; the other half carries the wire on. Returns the
        # outcome bits.
        nonlocal next_q
        hb, ha = next_q, next_q + 1
        next_q += 2
        mine, other = (ha, hb) if vx.owner is Owner.ALICE else (hb, ha)
        instrs.append(Instruction(InstrOp.EPR, (hb, ha)))
        instrs.append(Instruction(InstrOp.BELL, (carriers[j], mine), out_vars=(vx, vz)))
        carriers[j] = other
        x_bit, z_bit = 1 << var_bit(vx), 1 << var_bit(vz)
        a[j] ^= x_bit
        b[j] ^= z_bit
        return x_bit | z_bit

    for j, vx, vz in sent:
        alice |= teleport(j, vx, vz)
        events.append(Event(Owner.ALICE, f"teleport_wire_{j}", frozenset(), "measure"))

    gadget_count = 0
    for st in c.stages:
        for g in st.clifford:
            targets = tuple(carriers[q] for q in g.targets)
            instrs.append(Instruction(InstrOp.GATE, targets, gate=Gate(g.kind, targets)))
        if st.clifford:
            events.append(Event(Owner.BOB, "clifford_stage", frozenset(), "gate"))
        push_gates(st.clifford, a, b)  # validate() above: these are Clifford
        for j in sorted(st.t_layer):
            instrs.append(Instruction(InstrOp.GATE, (carriers[j],), gate=t(carriers[j])))
            events.append(Event(Owner.BOB, f"t_gate_wire_{j}", frozenset(), "gate"))
            pending = a[j]  # the T layer's key on wire j; only its own gadget changes a[j]
            p_bit, alice_key = _split_key_by_owner(pending, alice)
            prefix = f"g{gadget_count}"
            gvars = gadget_vars[gadget_count]
            gadget, carriers[j] = _gadget_instructions(carriers[j], next_q, p_bit,
                                                       KeyPoly(alice_key), gvars)
            next_q += 8
            instrs += gadget
            alice_deps = frozenset(_names(alice_key))
            events.append(Event(Owner.BOB, f"{prefix}_route_and_bell", frozenset(), "measure"))
            events.append(Event(Owner.ALICE, f"{prefix}_pairing1", alice_deps, "measure"))
            events.append(Event(Owner.ALICE, f"{prefix}_pairing2", alice_deps, "measure"))
            gadget_count += 1
            bx, bz, *pairings = (var_bit(v) for v in gvars)
            ax, az = pairings[2 * p_bit:2 * p_bit + 2]
            _gadget_frame_update(a, b, j, (bx, bz, ax, az), pending, lift, terms)

    for j, vx, vz in back:
        teleport(j, vx, vz)
        events.append(Event(Owner.BOB, f"return_wire_{j}", frozenset(), "measure"))

    events.append(Event(Owner.LOCAL, "exchange", frozenset(), "exchange"))

    returned = set(plan.return_to_alice)
    for j in range(n):
        support = 0
        for op, mask in ((InstrOp.COND_X, a[j]), (InstrOp.COND_Z, b[j])):
            if mask:
                key = _frame_key(mask, lift, terms)
                instrs.append(Instruction(op, (carriers[j],), cond=key))
                support |= key.support
        party = Owner.ALICE if j in returned else Owner.BOB
        events.append(Event(party, f"correct_wire_{j}", frozenset(_names(support)), "correct"))

    ledger = {
        "initial_teleport": len(plan.alice_wires),
        "gadget": 4 * gadget_count,
        "return_teleport": len(plan.return_to_alice),
    }
    var_owners = {v.name: v.owner for ins in instrs if ins.op is InstrOp.BELL for v in ins.out_vars}
    transcript = ProtocolTranscript(events, var_owners, ledger, {})
    return CompiledProgram(next_q, tuple(carriers), tuple(instrs)), transcript


def run_protocol1(c: LayeredCircuit, input_state: StateVector, plan: ResourcePlan,
                  rng: np.random.Generator) -> tuple[StateVector, ProtocolTranscript]:
    """Execute a T-depth <= 1 circuit as an instantaneous two-party protocol
    (protocol_program), drawing one uniform from ``rng`` per Bell
    measurement. Returns the final state on the logical wires (in wire
    order) and the event transcript with the run's outcomes.
    """
    program, transcript = protocol_program(c, plan)
    if input_state.n != c.n:
        raise ValidationError("input state size does not match circuit")
    final, transcript.outcomes = execute(program, input_state, rng)
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


# The analysis names gadget j's outcomes g<j>bx, g<j>bz (Bob's) and g<j>ax,
# g<j>az (Alice's pairing on Bob's path).
_ANALYSIS_OUTCOMES = (("bx", Owner.BOB), ("bz", Owner.BOB), ("ax", Owner.ALICE), ("az", Owner.ALICE))


def _analysis_frame(c: LayeredCircuit, alice_wires) -> tuple[list[int], list[int], int, list[int]]:
    """The frame after the first T layer's gadgets and the second stage's
    Clifford, as int masks: the X and Z exponents, lift and the term list
    (see _gadget_frame_update). Alice's hidden teleport masks seed the frame;
    each gadget adds fresh outcome variables and the products bx * key."""
    n = c.n
    a, b = [0] * n, [0] * n
    for j in alice_wires:
        a[j] = 1 << outcome_bit(f"t{j}x", Owner.ALICE)
        b[j] = 1 << outcome_bit(f"t{j}z", Owner.ALICE)
    first = c.stages[0]
    gadgets = [(j, tuple(outcome_bit(f"g{j}{name}", owner) for name, owner in _ANALYSIS_OUTCOMES))
               for j in sorted(first.t_layer)]
    lift = table_size()  # every variable above is below it
    terms: list[int] = []
    push_gates(first.clifford, a, b)  # validate() has checked both stages
    for j, bits in gadgets:
        _gadget_frame_update(a, b, j, bits, a[j], lift, terms)  # gadget j changes only wire j
    push_gates(c.stages[1].clifford, a, b)
    return a, b, lift, terms


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

    a, b, lift, terms = _analysis_frame(c, alice_wires)
    mixed = 0  # the lifted bits of the terms whose variables span more than one owner
    for i, term in enumerate(terms):
        vs = _term_vars(term)
        if any(v.owner is not vs[0].owner for v in vs):
            mixed |= 1 << (lift + i)

    def cross(mask: int) -> tuple[Monomial, ...]:
        monomials = [frozenset(_term_vars(terms[i])) for i in _set_bits((mask & mixed) >> lift)]
        return tuple(sorted(monomials, key=_mono_key))

    x_cross = tuple(cross(a[j]) for j in range(c.n))
    z_cross = tuple(cross(b[j]) for j in range(c.n))
    any_cross = any(x_cross[j] or z_cross[j] for j in range(c.n))
    return CrossTermReport(x_cross, z_cross, not any_cross, c.stages[1].t_layer)
