"""Scale-aware registration of sparse 3D point clouds.

Aligns a source cloud onto a target cloud that may differ by an unknown
similarity scale, then derives the 6x6 covariance and information matrix of
the alignment for use as a pose-graph edge.
"""

from .cloudio import (CameraIntrinsics, Cloud, Matches, PipelineReport,
                      read_intrinsics, read_matches, read_ply, read_report,
                      write_ply, write_report)
from .errors import (AmbiguousDecompositionError, DegenerateGeometryError,
                     GimbalLockError, InsufficientMatchesError,
                     NoConsensusError, ParseError, RegistrationError,
                     StageError, TooFewPairsError)
from .filters import FilterConfig, crop_lower, remove_remote
from .geom import (Bounds3, RigidTransform, SimilarityTransform, bounds,
                   umeyama_align)
from .icp import (Correspondences, IcpConfig, IcpResult, NNIndex, correspond,
                  icp_register)
from .icpcov import (CovarianceResult, PoseParam, covariance, hessian_xx,
                     hessian_zx, information_matrix)
from .pipeline import PipelineConfig, run_pipeline
from .relpose import (RansacConfig, RelativePose, angular_threshold,
                      decompose_and_disambiguate, essential_from_rays,
                      ransac_relative_pose)
from .scale import (ScaleDetection, ScaleEstimate, detect_scale,
                    estimate_scale_kalman)
from .synth import SynthSpec, build_scene, generate_synthetic

__version__ = "0.1.0"
