"""Collective-communication payload math.

The *timing* of collectives lives in :mod:`repro.cluster.network`; this
package holds the *data* side: state averaging used by every strategy,
and the deep-gradient-compression (DGC) sparsifier HiPress builds on.
"""

from .primitives import RetryPolicy, average_states, weighted_average_states
from .compression import DgcCompressor, SparseGradient
from .buckets import (BACKWARD_START_FRACTION, BucketPlan, GradientBucket,
                      bucketed_average_states)

__all__ = ["RetryPolicy", "average_states", "weighted_average_states",
           "DgcCompressor",
           "SparseGradient", "BucketPlan", "GradientBucket",
           "bucketed_average_states", "BACKWARD_START_FRACTION"]
