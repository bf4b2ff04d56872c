"""External-memory dictionaries behind one interface and one registry.

Every dictionary is a :class:`~repro.trees.api.KVTree`: same surface, same
lifecycle (``load`` / ``settle`` / ``drop_cache`` / ``io_seconds``), same
sizing conventions (:mod:`repro.trees.sizing`), and simulated device time
as its only observable cost.  :func:`build` makes one by name
(:data:`KINDS`) and hides which substrate it runs on:

* ``btree`` — the classic B-tree (paper Section 3/5); :mod:`~repro.trees.btree`
  also holds the Section 8 van Emde Boas / PDAM machinery;
* ``betree`` — the Bε-tree (Section 3/6) in its Theorem 9 form; the naive
  whole-node-IO :class:`BeTree` stays importable for the ablations;
* ``lsm`` — a leveled LSM-tree;  ``cola`` — the cache-oblivious lookahead array;
* ``cob`` / ``cob-buffered`` — the cache-oblivious B-tree (PMA under a
  vEB-order index) and its Theorem 9 buffered variant.
"""

from repro.trees.sizing import EntryFormat
from repro.trees.api import KVTree
from repro.trees.btree import BTree, BTreeConfig
from repro.trees.betree import BeTree, BeTreeConfig, OptimizedBeTree
from repro.trees.lsm import LSMTree, LSMConfig
from repro.trees.cola import COLA, COLAConfig
from repro.trees.cob import BufferedCOBTree, COBConfig, COBTree
from repro.trees.registry import KINDS, build, check_kind, configure

__all__ = [
    "EntryFormat",
    "KVTree",
    "KINDS",
    "build",
    "check_kind",
    "configure",
    "BTree",
    "BTreeConfig",
    "BeTree",
    "BeTreeConfig",
    "OptimizedBeTree",
    "LSMTree",
    "LSMConfig",
    "COLA",
    "COLAConfig",
    "COBTree",
    "COBConfig",
    "BufferedCOBTree",
]
