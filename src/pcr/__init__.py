"""Scale-aware registration of sparse 3D point clouds.

Aligns a source cloud onto a target cloud that may differ by an unknown
similarity scale, then derives the 6x6 covariance and information matrix of
the alignment for use as a pose-graph edge.

The root holds the pipeline (``register`` on arrays, ``run_pipeline`` on
files and its config), file I/O, transforms and errors; stage functions
are imported from their modules (``pcr.icp``, ...).
"""

from . import synth
from .cloudio import (CameraIntrinsics, Cloud, Matches, PipelineReport,
                      read_intrinsics, read_matches, read_ply, read_report,
                      write_ply, write_report)
from .errors import (AmbiguousDecompositionError, DegenerateGeometryError,
                     InsufficientMatchesError, NoConsensusError, ParseError,
                     RegistrationError, StageError, TooFewPairsError)
from .geom import RigidTransform, SimilarityTransform
from .pipeline import PipelineConfig, register, run_pipeline

__version__ = "0.1.0"
