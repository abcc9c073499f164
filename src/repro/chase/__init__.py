"""Data exchange by the stratified chase (Section 4.2).

The chase is the reference executor: it applies the generated
dependencies directly and is the yardstick every backend is tested
against (the paper's equivalence theorem).  The scheduler module adds
the stratum-parallel variant; ``ParallelStratifiedChase`` is
solution-equivalent to the sequential ``StratifiedChase``.  The
columnar module holds the vectorized tgd kernels (``vectorized=True``,
the default); ``vectorized=False`` keeps the tuple-at-a-time path as
the bit-exact ablation baseline.
"""

from .columnar import ColumnarRelation, EncodedColumn, FallbackUnsupported
from .engine import DEFAULT_VECTORIZED, ChaseResult, ChaseStats, StratifiedChase
from .instance import RelationalInstance, cubes_from_instance, instance_from_cubes
from .scheduler import (
    ParallelStratifiedChase,
    schedule_waves,
    stratum_dag,
)
from .shard import ShardedStratifiedChase, ShardPlan, resolve_shards, shard_of
from .verify import check_egds, check_tgd, is_solution, violations

__all__ = [
    "ColumnarRelation",
    "EncodedColumn",
    "FallbackUnsupported",
    "DEFAULT_VECTORIZED",
    "RelationalInstance",
    "instance_from_cubes",
    "cubes_from_instance",
    "StratifiedChase",
    "ParallelStratifiedChase",
    "ShardedStratifiedChase",
    "ShardPlan",
    "resolve_shards",
    "shard_of",
    "ChaseResult",
    "ChaseStats",
    "schedule_waves",
    "stratum_dag",
    "check_egds",
    "check_tgd",
    "is_solution",
    "violations",
]
