"""Simulated quantum-cloud benchmarking: circuits, devices, billing, analysis."""

from types import ModuleType as _ModuleType

from .analysis import (
    SUCCESS_THRESHOLD,
    aggregate,
    benchmark_fidelity,
    classify_success,
    debias_uniform_floor,
    hellinger_fidelity,
    infer_f2qg,
    queue_prediction,
    write_report,
)
from .circuit import (
    Circuit,
    Gate,
    GateCensus,
    GateKind,
    build_benchmark,
    census,
    circuit_from_json,
    circuit_to_json,
    ideal_output,
    random_input,
)
from .costing import (
    CreditBilling,
    GateRateBilling,
    Money,
    PerShotBilling,
    credit_charge,
)
from .providers import (
    DAY,
    AlwaysSchedule,
    DailyWindowSchedule,
    JobHandle,
    JobStatus,
    PollResult,
    PRESET_NAMES,
    QueueModel,
    RecurringOutageSchedule,
    SimProvider,
    TargetProfile,
    TargetState,
    TargetStatus,
    default_gate_limit,
    target_profile,
)
from .rng import derive_seed
from .simulator import (
    MAX_WIDTH,
    GlobalDepolarizing,
    PauliTrajectory,
    circuit_unitary,
    ideal_distribution,
    run_noisy,
    run_statevector,
    sample,
    verify_equivalence,
)
from .store import JobRecord, JobStore, StoreError
from .transpiler import (
    EFFICIENT,
    REDUNDANT,
    GateSetProfile,
    TranspileResult,
    lowered_census,
    transpile,
)

# pydoc documents a re-exported function only when __all__ names it.
__all__ = [n for n, v in globals().items() if not (n.startswith("_") or isinstance(v, _ModuleType))]
