"""The paper's contribution: the rigorous evaluation framework.

Calibration (Sec. 4.1), instrumentation and state-machine inference
(Sec. 4.2/5.1), statistically sound head-to-head comparison (Sec. 3.3)
and root-cause analysis (Sec. 5) — over the simulated testbed substrate.
"""

from .calibration import (
    CalibrationResult,
    GAEFrontend,
    ServerMeasurement,
    calibrate_macw,
    measure_server_configuration,
    uncalibrated_vs_calibrated,
)
from .aggregate import CellAccumulator, StreamAggregator
from .comparison import Comparison
from .diffing import ModelDiff, diff_models, version_stability_report
from .executor import (
    ProtocolSpec,
    RunFailure,
    RunRecord,
    RunRequest,
    execute_request,
)
from .experiment import (
    SCHEMA_VERSION,
    ExperimentResult,
    ExperimentSpec,
    ScenarioSpec,
    WorkloadSpec,
    experiment_requests,
    run_experiment,
)
from .heatmap import Heatmap
from .instrumentation import Trace, TraceRecord
from .monitors import FlowThroughputMonitor
from .report import build_report, collect_sections, missing_experiments
from .rootcause import (
    DwellComparison,
    EfficiencyReport,
    LossReport,
    SlowStartReport,
    compare_dwell,
    efficiency_report,
    loss_report,
    slow_start_report,
)
from .runner import (
    DEFAULT_RUNS,
    FairnessResult,
    RunOutput,
    TransferResult,
    build_plt_heatmap,
    compare_page_load,
    compare_quic_variants,
    measure_plts,
    run_bulk_transfer,
    run_fairness,
    run_page_load,
)
from .statemachine import (
    Invariant,
    StateMachineModel,
    infer,
    infer_from_sequences,
)
from .stats import (
    ALPHA,
    TTestResult,
    mean,
    percent_difference,
    sample_std,
    sample_variance,
    welch_t_test,
)
from ..sweep import (
    EVENT_WIRE_BOUND,
    RunEvent,
    collect,
    iter_runs,
    run_requests,
)

__all__ = [
    "CalibrationResult",
    "GAEFrontend",
    "ServerMeasurement",
    "calibrate_macw",
    "measure_server_configuration",
    "uncalibrated_vs_calibrated",
    "CellAccumulator",
    "StreamAggregator",
    "Comparison",
    "ModelDiff",
    "diff_models",
    "version_stability_report",
    "EVENT_WIRE_BOUND",
    "ProtocolSpec",
    "RunEvent",
    "RunFailure",
    "RunRecord",
    "RunRequest",
    "collect",
    "execute_request",
    "iter_runs",
    "run_requests",
    "SCHEMA_VERSION",
    "ExperimentResult",
    "ExperimentSpec",
    "ScenarioSpec",
    "WorkloadSpec",
    "experiment_requests",
    "run_experiment",
    "Heatmap",
    "Trace",
    "TraceRecord",
    "FlowThroughputMonitor",
    "build_report",
    "collect_sections",
    "missing_experiments",
    "DwellComparison",
    "EfficiencyReport",
    "LossReport",
    "SlowStartReport",
    "compare_dwell",
    "efficiency_report",
    "loss_report",
    "slow_start_report",
    "DEFAULT_RUNS",
    "FairnessResult",
    "RunOutput",
    "TransferResult",
    "build_plt_heatmap",
    "compare_page_load",
    "compare_quic_variants",
    "measure_plts",
    "run_bulk_transfer",
    "run_fairness",
    "run_page_load",
    "Invariant",
    "StateMachineModel",
    "infer",
    "infer_from_sequences",
    "ALPHA",
    "TTestResult",
    "mean",
    "percent_difference",
    "sample_std",
    "sample_variance",
    "welch_t_test",
]
