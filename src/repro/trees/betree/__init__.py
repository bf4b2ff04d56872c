"""Bε-tree (paper Sections 3 and 6).

* :class:`~repro.trees.betree.tree.BeTree` — the classic Bε-tree analyzed
  in Lemma 8: internal nodes carry message buffers, IOs move whole nodes.
* :class:`~repro.trees.betree.optimized.OptimizedBeTree` — the Theorem 9
  construction: buffers are organized into per-child contiguous segments
  (each at most ``B/F``), each node's pivots live in its *parent*, and
  leaves are divided into independently-paged basement chunks, so a point
  query reads ``~B/F + F`` bytes per level instead of ``B``.
"""

from repro.trees.betree.messages import Message, MessageOp
from repro.trees.betree.node import BeNode
from repro.trees.betree.tree import BeTree, BeTreeConfig
from repro.trees.betree.optimized import OptimizedBeTree

__all__ = [
    "Message",
    "MessageOp",
    "BeNode",
    "BeTree",
    "BeTreeConfig",
    "OptimizedBeTree",
]
