"""Desk-scale simulator of projective-measurement thermodynamics.

Dense linear algebra on small labeled Hilbert spaces, coarse-grained
superselection sectors, pointer-model measurement with event-reading entropy
accounting, one-time relaxation kinetics, and two-point-measurement work
statistics with the Jarzynski equality in original and modified form.
"""

from .errors import (
    CapacityError,
    CoherentInputError,
    CommensurabilityError,
    DegenerateDistributionError,
    NumericalConsistencyError,
    SchemeConstraintError,
    SupportError,
)
from .jarzynski import (
    DriveSchedule,
    JarzynskiReport,
    WorkSamples,
    delta_F,
    jarzynski_equality_check,
    jarzynski_exact,
    jarzynski_time_ordered,
    modified_jarzynski_check,
    thermal_state,
    tpm_sample,
)
from .linalg import (
    CompositeSpace,
    DensityMatrix,
    Ket,
    Operator,
    ProjectorSet,
    embed_operator,
    evolve,
    expectation,
    partial_trace,
    tensor,
    tensor_kets,
)
from .measurement import (
    EntropyLedger,
    PhaseDisplacement,
    PointerModel,
    born_probabilities,
    entangle_pointer,
    event_read,
    generalized_relative_entropy,
    nonselective_measure,
    phase_equivalence_trigger,
    pointer_coupling_unitary,
    redefine_system,
    von_neumann_hamiltonian,
    work_event_reading,
)
from .numeric import DEFAULT_POLICY, NumericPolicy
from .relaxation import (
    RelaxationTrajectory,
    entropy_of_weight,
    simulate_direct,
    simulate_poisson_cutoff,
    simulate_statistical,
)
from .scheme import (
    SchemeConfig,
    SchemeResult,
    SchemeRunRecord,
    run_scheme,
    run_single,
    szilard_schedule,
    verify_unitary_roundtrips,
)
from .superselection import PlanckCellBasis, build_planck_basis, dephase, energy_sectors

__version__ = "0.1.0"
