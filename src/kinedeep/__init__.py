"""Differentiable forward kinematics for an articulated hand, with
constraint-aware pose regression, swarm-based model fitting, and a synthetic
evaluation benchmark."""

__version__ = "0.1.0"

from .skeleton import (  # noqa: F401
    DofSpec, JointSpec, Skeleton, SkeletonError,
    clamp_pose, default_hand, load_skeleton, save_skeleton,
)
from .kinematics import (  # noqa: F401
    fk_jacobian, fk_jacobian_batch, forward_kinematics,
    forward_kinematics_batch,
)
from .loss import LossReport, joint_loss, phy_loss, total_loss  # noqa: F401
from .ik_pso import (  # noqa: F401
    FitResult, PsoConfig, fit_batch, fit_pose,
)
from .bench import (  # noqa: F401
    Dataset, MetricsReport, Sample, benchmark_skeleton, evaluate,
    make_dataset, sample_pose,
)
from .regressor import (  # noqa: F401
    MlpConfig, NumericalError, SgdConfig, TrainRun, init as init_regressor,
    load_checkpoint, save_checkpoint, train,
)
