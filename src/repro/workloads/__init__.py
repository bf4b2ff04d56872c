"""Workload generation: key distributions and operation streams."""

from repro.workloads.distributions import ZipfKeys
from repro.workloads.generators import (
    Operation,
    OpKind,
    random_load_pairs,
    point_query_stream,
    insert_stream,
    mixed_stream,
    range_query_stream,
)

__all__ = [
    "ZipfKeys",
    "Operation",
    "OpKind",
    "random_load_pairs",
    "point_query_stream",
    "insert_stream",
    "mixed_stream",
    "range_query_stream",
]
