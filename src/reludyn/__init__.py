"""Numerical laboratory for teacher-student ReLU network training dynamics."""

from .errors import (
    ConfigurationError,
    DegenerateBatchError,
    NumericError,
    PreconditionError,
)
from .net import (
    BN_EPS,
    BNSite,
    ForwardTrace,
    GradientSet,
    Network,
    NetworkSpec,
    backward,
    bn_backward,
    build_network,
    filter_norms,
    forward,
    sgd_step,
    squared_loss,
)
from .teachers import (
    GausStream,
    StudentInit,
    TeacherSpec,
    make_student,
    make_teacher,
    next_batch,
    teacher_labels,
)
from .beta import (
    BetaTensors,
    compute_beta,
    psi_d,
    verify_identity,
)
from .metrics import (
    BNBiasReport,
    CorrelationMatrix,
    RhoSummary,
    bn_bias_audit,
    mean_rank,
    rho_bar,
    rho_matrix,
    v_row_norms,
)
from .dynamics import (
    ConstantLedger,
    FalloffProbe,
    HypothesisEntry,
    SingleLayerLedger,
    SingleLayerState,
    SingleRunRecord,
    TwoLayerState,
    act_slope_on_geodesics,
    column_angles,
    gate_slope_on_geodesics,
    geodesic_slopes,
    mixed_two_layer_init,
    monitor_hypotheses,
    quadratic_falloff_probe,
    reduced_teacher,
    run_single,
    single_layer_constants,
    spare_row_gap,
    step_single,
    step_two_layer,
    two_layer_constants,
    two_layer_moments,
)
from .experiments import (
    ExperimentConfig,
    RunLog,
    config_hash,
    emit_reports,
    make_config,
    run_experiment,
)

__version__ = "0.1.0"
