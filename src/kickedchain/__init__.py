"""Quantum state transfer through a periodically kicked multiferroic spin chain.

The package simulates an open spin-1/2 chain with nearest and
next-nearest neighbour exchange whose Dzyaloshinskii-Moriya term is
driven by periodic electric-field kicks, and scores how well the chain
transports a single qubit or a Bell pair from one end to the other.

Layered bottom-up: ``basis`` (excitation sectors) -> ``model``
(couplings, impurities, sector Hamiltonians) -> ``propagator`` (exact
unitary evolution and the Floquet kick step) -> ``fidelity`` (closed-form
and oracle fidelities) -> ``sweep`` (grid searches, periodograms) ->
``cli`` (config-driven runs).
"""

from .basis import ExcitationBasis, enumerate_basis, index_of
from .model import (
    IMPURITY_KINDS,
    ChainParams,
    CouplingProfile,
    ImpuritySpec,
    apply_impurity,
    build_hamiltonian,
    chirality_operator,
    default_impurity_site,
    impurity_from_strength,
    uniform_profile,
    vacuum_energy,
    vacuum_phase,
)
from .propagator import (
    U0_CONVENTIONS,
    KickSchedule,
    eigendecompose,
    kick_lattice,
    kick_step,
    unitary_exp,
)
from .fidelity import (
    KNOWN_STATES,
    OMEGA2_CONVENTIONS,
    BellInput,
    bell_fidelity_direct,
    bell_fidelity_direct_averaged,
    bell_fidelity_omega1,
    bell_fidelity_omega2,
    bloch_average_single_qubit,
    classical_threshold,
    conformance_report,
    out_of_range,
    single_qubit_fidelity,
)
from .sweep import (
    CONTINUOUS_TIMES,
    DEFAULT_TAU_GRID,
    SWEEP_AXES,
    SweepPlan,
    SweepRow,
    continuous_fidelity_series,
    fidelity_lattice,
    fidelity_series,
    float_grid,
    max_fidelity,
    periodogram,
    sweep_axis,
)
from .cli import ExperimentConfig, parse_config, run, serialize_config

__version__ = "0.1.0"
