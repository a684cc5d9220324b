"""Differentiable forward kinematics for an articulated hand, with
constraint-aware pose regression, swarm-based model fitting, and a synthetic
evaluation benchmark."""

__version__ = "0.1.0"

from .skeleton import (  # noqa: F401
    Skeleton, SkeletonError,
    clamp_pose, default_hand, load_skeleton, save_skeleton,
)
from .kinematics import fk_jacobian_batch, forward_kinematics_batch  # noqa: F401
from .loss import joint_loss_batch, phy_loss_batch  # noqa: F401
from .ik_pso import FitResult, fit_batch  # noqa: F401
from .bench import (  # noqa: F401
    Dataset, MetricsReport, benchmark_skeleton, evaluate, make_dataset,
)
from .regressor import (  # noqa: F401
    MlpConfig, NumericalError, TrainRun, load_checkpoint, save_checkpoint, train,
)
