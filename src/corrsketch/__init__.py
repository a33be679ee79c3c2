"""Streaming recovery of highly correlated variable pairs.

Ingest an n x p observation matrix as a stream of updates, keep one AMS
sketch per row, and at query time recover every pair of rows whose sample
correlation magnitude reaches a threshold phi by combining signed balanced
groupings of the sketches with error-correcting index codes. Singleton
groups (pi >= n) make a query one n^2 scan that counts, pair by pair, the
sketch rows whose Gram entry reaches phi/2; at fixed p the guarantee's
floor on pi grows linearly in n with the residual norm, so grouping there
is not subquadratic either.
"""

from .ams import (
    RowSketchStore,
    SketchStateError,
    SketchTransform,
    SnapshotFormatError,
    inner_product,
)
from .cartesian import CartesianTransform, cart_exact
from .ecc import Codebook, for_index_space
from .oracle import (
    CorrelationMatrix,
    PlantedSpec,
    correlation,
    large_set,
    plant_dataset,
    residual_norm,
)
from .recovery import (
    FeasibilityError,
    ParameterError,
    QueryParams,
    RepetitionDiagnostics,
    approximate,
    min_group_count,
    recover,
    recover_diff,
    recovery_step,
    select_parameters,
    verify_candidates,
)
from .stream import (
    DenseMatrix,
    StreamFormatError,
    StreamModel,
    StreamUpdate,
    apply_update,
    parse_update,
)

__version__ = "0.1.0"
