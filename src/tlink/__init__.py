"""Clifford+T toolkit: teleportation-linked depth compilation, a statevector
oracle, and the simplified garden-hose gadget with its two-party protocol."""

from .circuits import (
    DepthMetrics,
    Gate,
    GateKind,
    LayeredCircuit,
    ParseError,
    Stage,
    ValidationError,
    depth_metrics,
    flatten,
    layerize,
    parse_circuit,
    serialize_circuit,
)
from .compiler import (
    Branch,
    CompiledProgram,
    Instruction,
    InstrOp,
    ResourceReport,
    SpeculativeProgram,
    compile_measure,
    compile_speculative,
    enumerate_branches,
    enumerate_unitary_branches,
    execute,
    execute_speculative,
    parse_program,
    report,
    serialize_program,
    to_unitary,
)
from .frames import (
    KeyPoly,
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
from .gardenhose import (
    CrossTermReport,
    GadgetResult,
    ProtocolTranscript,
    ResourcePlan,
    analyze_cross_terms,
    causality_check,
    gadget_truth_table,
    run_gadget,
    run_protocol1,
)
from .oracle import (
    StateVector,
    apply_circuit,
    apply_gate,
    apply_mask,
    fidelity_up_to_phase,
    init_state,
)

__version__ = "0.1.0"
