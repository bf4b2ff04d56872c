"""Bε-tree (paper Sections 3 and 6).

One registry kind, ``betree``; ``BeTreeConfig.layout`` picks the class:

* ``"whole-node"`` — :class:`~repro.trees.betree.tree.BeTree`, the classic
  Bε-tree analyzed in Lemma 8: internal nodes carry message buffers, IOs
  move whole nodes.
* ``"theorem9"`` (default), ``"segments"`` — :class:`~repro.trees.betree.optimized.OptimizedBeTree`,
  the Theorem 9 construction: per-child buffer segments (each at most
  ``B/F``), each node's pivots in its *parent* (not under ``"segments"``)
  and independently-paged basement chunks, so a point query reads
  ``~B/F + F`` bytes per level instead of ``B``.
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
