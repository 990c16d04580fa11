"""Measurement: samplers, FCT collection, statistics."""

from .fct import SIZE_BUCKETS, FctCollector, FctRecord, bucket_for_size
from .samplers import (
    PeriodicSampler,
    QueueSampler,
    RateSampler,
    convergence_time_ns,
)
from .stats import jain_fairness, mean, percentile, summarize_tail

__all__ = [
    "SIZE_BUCKETS",
    "FctCollector",
    "FctRecord",
    "bucket_for_size",
    "PeriodicSampler",
    "QueueSampler",
    "RateSampler",
    "convergence_time_ns",
    "jain_fairness",
    "mean",
    "percentile",
    "summarize_tail",
]
