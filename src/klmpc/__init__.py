"""Lifted linear (Koopman) modeling, online load estimation, and QP-based
model predictive control for a simulated two-link elastic arm.
"""

from .edmd import (
    KoopmanModel,
    Trajectory,
    assemble_snapshots,
    fit_koopman,
    fit_linear_baseline,
    predict_one_step,
)
from .lifting import (
    Basis,
    delay_embed,
    fit_basis,
    gamma_matrix,
    identity_basis,
    lift_g,
    lift_gamma,
)
from .mpc import Controller, MpcConfig, QpProblem, solve_box_qp
from .numkit import PcaProjection, lstsq, pca_fit, pinv
from .observer import EstimatorConfig, EstimatorState, estimate_instant, estimate_window
from .plant import ArmParams, Run, collect_training_data, drive, dynamics, step_zoh

__all__ = [
    "ArmParams", "Basis", "Controller", "EstimatorConfig", "EstimatorState",
    "KoopmanModel", "MpcConfig", "PcaProjection", "QpProblem", "Run",
    "Trajectory", "assemble_snapshots", "collect_training_data", "delay_embed",
    "drive", "dynamics", "estimate_instant", "estimate_window", "fit_basis",
    "fit_koopman", "fit_linear_baseline", "gamma_matrix", "identity_basis",
    "lift_g", "lift_gamma", "lstsq", "pca_fit", "pinv", "predict_one_step",
    "solve_box_qp", "step_zoh",
]
