"""Lagrangian mean curvature flow in potential form on flat tori.

The flow du/dt = theta(D^2 u) + kappa*u of a potential u on T^n, where
theta is the Lagrangian angle of the graph of du, together with a
verification harness for its monotone quantities, decay rates and
stability estimates.
"""

from .fields import (
    GridSpec,
    NonFiniteError,
    PeriodicScalarField,
    SpecMismatchError,
    SymMatrixField,
    SymTensor3Field,
    SymTensor4Field,
    UnsupportedOrderError,
    VectorField,
    derivative,
    l2_pairing,
    laplacian_flat,
    mean_value,
    sup_norm,
)
from .flow import (
    BlowupError,
    CheckpointError,
    EnsembleError,
    FlowConfig,
    FlowResult,
    FlowState,
    Run,
    RunResults,
    checkpoint_load,
    checkpoint_save,
    integrate,
    monitor_record,
    resume_flow,
    rhs,
    step_rk4,
)
from .geometry import (
    InducedMetricField,
    angle_gradient,
    graph_volume,
    induced_metric,
    lagrangian_angle,
    laplace_beltrami,
    mean_curvature_one_form,
    metric_from_potential,
    volume,
)
from .monitors import MONITOR_HEADER, MonitorRecord, read_monitor_csv, write_monitor_csv
from .verification import (
    DegenerateDirectionError,
    RegionViolationError,
    ResidualReport,
    Trajectory,
    TrajectoryTriple,
    check_angle_expansion,
    check_evolution_inequality,
    check_laplacian_difference,
    check_log_jet_monotone,
    check_psi_monotone,
    check_second_variation,
    check_volume_dissipation,
    fit_decay_rate,
    psi_field,
    sample_trajectory,
)

__version__ = "0.1.0"
