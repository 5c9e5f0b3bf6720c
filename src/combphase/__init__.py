"""combphase: frequency-comb pulse-train interferometry and phase estimation.

A simulation and estimation toolkit for multi-pulse interferometry with
optical frequency combs: carrier-resolved and rotating-wave pulse dynamics,
pulse-train phase-stabilization protocols, three-level Raman physics, error
models, and Fisher-information-grounded maximum-likelihood estimation of the
pulse-to-pulse carrier-envelope phase step.
"""

__version__ = "1.0.0"

from .comb import (
    BsdSpec,
    CombSpec,
    JitterSpec,
    PulseTrain,
    apply_phase_jitter,
    bsd_replicate,
    fiber_comb_preset,
    generate_train,
    max_replicas,
    split_delay_interleave,
    train_from_csv,
    train_to_csv,
    wrap_pulse_count,
)
from .errors import (
    CombPhaseError,
    DegenerateFitError,
    IntegrationError,
    OverlapError,
    ReplicaBudgetError,
    ScenarioConfigError,
    SingularInformationError,
    UndefinedPhaseError,
    WrapAmbiguityError,
)
from .estimation import (
    EstimationResult,
    MeasurementRecord,
    RefineConfig,
    RefineTrace,
    estimator_study,
    fisher_matrix,
    iterative_refine,
    ml_estimate,
    offset_resolution,
    optimize_reference_phase,
    refined_offset_uncertainty,
    sample_record,
)
from .noise import (
    DephasingSpec,
    ThermalSpec,
    ac_stark_preset,
    be_doppler_preset,
    dephase_train,
    doppler_phase_error,
    doppler_velocity,
    spin_echo_residual,
)
from .protocols import (
    PROTOCOL_KINDS,
    ProtocolSpec,
    RamseyOutcomeModel,
    brute_force_permutation_phase,
    closed_form_1a,
    closed_form_1b,
    closed_form_2b,
    compose_train,
    optimal_permutation_phase,
    phase_reference_sequence,
    ramsey_model,
)
from .pulses import (
    PulseSpec,
    QubitState,
    Unitary,
    effective_phase,
    integrate_pulse,
    rwa_unitary,
    unitary_fidelity,
)
from .raman import (
    LambdaSpec,
    PhaseMapResult,
    RamanEffective,
    effective_qubit_unitary,
    integrate_lambda,
    phase_map,
    visibility_budget,
)
from .scenarios import (
    ScenarioConfig,
    list_scenarios,
    load_scenario_config,
    run_scenario,
)
