"""Byte-budgeted B-tree over a simulated storage stack.

The tree follows the paper's Section 3 description: a balanced search tree
with "fat nodes of size B" — here ``B`` is a byte budget, so a leaf holds
``~B/entry_bytes`` pairs and an internal node ``~B/pivot_bytes`` children.
All node IOs move the full ``node_bytes`` extent, which is what makes the
affine per-op cost ``(1 + alpha*B) * log_B(N/M)`` (Lemma 5) and the
write amplification ``Theta(B)`` (Lemma 3).

Structural algorithms are the classic single-pass top-down ones: inserts
split any full child *before* descending; deletes refill any minimal child
(borrow from a sibling or merge) before descending.  Both therefore touch
each level once, matching the one-IO-per-level cost model.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import islice
from operator import lt
from typing import Any, Iterable

from repro.errors import TreeError
from repro.obs import OBS
from repro.storage.stack import StorageStack
from repro.trees.api import KVTree, TreeKind
from repro.trees.btree.node import BTreeNode
from repro.trees.sizing import BULK_FILL, EntryFormat


@dataclass(frozen=True)
class BTreeConfig:
    """Tuning of one B-tree instance.

    Parameters
    ----------
    node_bytes:
        The node size ``B`` — the single knob the paper's Figure 2 sweeps.
    fmt:
        Key/value/pointer widths.
    """

    node_bytes: int = 65536
    fmt: EntryFormat = EntryFormat()

    def __post_init__(self) -> None:
        # Validate capacities up front (raises ConfigurationError if tiny).
        self.fmt.leaf_capacity(self.node_bytes)
        self.fmt.internal_capacity(self.node_bytes)

    @property
    def leaf_capacity(self) -> int:
        """Max entries per leaf."""
        return self.fmt.leaf_capacity(self.node_bytes)

    @property
    def internal_capacity(self) -> int:
        """Max children per internal node."""
        return self.fmt.internal_capacity(self.node_bytes)


class BTree(KVTree):
    """A B-tree dictionary storing ``int -> value`` pairs.

    All methods charge simulated device time through ``storage``; read the
    elapsed time from ``io_seconds`` before/after an operation.
    """

    kind = "btree"
    plans_puts = True

    def __init__(self, storage: StorageStack, config: BTreeConfig | None = None) -> None:
        self.storage = storage
        self.device = storage.device
        self.allocator = storage.allocator
        self.config = config or BTreeConfig()
        # Read once: pure functions of the frozen config that the insert and
        # delete paths would otherwise re-derive through two properties a node.
        self._leaf_capacity = self.config.leaf_capacity
        self._internal_capacity = self.config.internal_capacity
        self._entry_bytes = self.config.fmt.entry_bytes
        self._next_id = 0
        self._count = 0
        self._height = 1
        self.user_bytes_modified = 0  # for write-amplification (Definition 3)
        root = self._new_node(is_leaf=True)
        self.root_id = root.node_id

    # -- node lifecycle -------------------------------------------------------

    def _new_node(self, *, is_leaf: bool) -> BTreeNode:
        node = BTreeNode(self._next_id, is_leaf)
        self._next_id += 1
        # Every node owns a full node_bytes extent regardless of fill: B-tree
        # IOs always move whole nodes.
        self.storage.create(node.node_id, node, self.config.node_bytes)
        return node

    def _get(self, node_id: int) -> BTreeNode:
        node = self.storage.cache.get(node_id)
        assert isinstance(node, BTreeNode)
        return node

    def _dirty(self, node: BTreeNode) -> None:
        self.storage.cache.mark_dirty(node.node_id)

    def _free(self, node: BTreeNode) -> None:
        self.storage.destroy(node.node_id)

    # -- basic properties -------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def height(self) -> int:
        """Levels from root to leaf inclusive (1 for a lone leaf root)."""
        return self._height

    # -- lookup -------------------------------------------------------------------

    def _lookup(self, key: int) -> Any | None:
        node = self._get(self.root_id)
        while not node.is_leaf:
            idx = bisect.bisect_right(node.keys, key)
            node = self._get(node.children[idx])
        i = bisect.bisect_left(node.keys, key)
        if i < len(node.keys) and node.keys[i] == key:
            return node.values[i]
        return None

    def _lookup_many(self, keys: list[int]) -> list[Any | None]:
        """Batched point queries; values (or ``None``) in input order.

        One :meth:`_descend` of every key: two lookups sharing a node fetch
        it once — a batch of ``k`` point queries costs at most ``k`` leaf
        reads plus the shared internal nodes, with the per-IO Python
        dispatch paid once per level instead of once per node.  A batch of
        one has nothing to share: it is :meth:`get`'s descent.
        """
        if len(keys) == 1:
            # One node a level, and get_many of one id is get (a read_set
            # of one extent is read): the scalar body *is* this batch, minus
            # the per-level lists, set and dict it has no use for.
            return [self._lookup(keys[0])]
        if not keys:
            return []
        at, leaves, _ = self._descend(keys)
        results: list[Any | None] = []
        for key, leaf_id in zip(keys, at):
            leaf = leaves[leaf_id]
            j = bisect.bisect_left(leaf.keys, key)
            results.append(leaf.values[j] if j < len(leaf.keys) and leaf.keys[j] == key else None)
        return results

    def _descend(
        self, keys: list[int], room: float = float("inf")
    ) -> tuple[list[int], dict[int, BTreeNode], int]:
        """Walk ``keys`` down to their leaves level-synchronized.

        All keys sit at the same depth (the tree is height-balanced), so
        each level is one :meth:`~repro.storage.cache.BufferCache.get_many`
        of the distinct nodes the keys reach, ids in order of first need:
        one planned read of the level's misses, in disk order.  Returns
        ``(at, leaves, held)``: ``at[i]`` is the leaf id of ``keys[i]``,
        ``leaves`` those leaves by id and ``held`` the distinct nodes on
        the walked paths.  ``room`` caps ``held``: a level takes keys in
        input order while their distinct nodes fit, and ``at`` is cut to
        the keys that fit — never fewer than one.
        """
        bisect_right = bisect.bisect_right
        get_many = self.storage.cache.get_many
        n = len(keys)
        at = [self.root_id] * n
        level = [self.root_id]
        held = 1
        while True:
            nodes = dict(zip(level, get_many(level)))
            if nodes[level[0]].is_leaf:
                return at, nodes, held
            seen: dict[int, None] = {}
            for i in range(n):
                node = nodes[at[i]]
                child = node.children[bisect_right(node.keys, keys[i])]
                if child not in seen:
                    if i and held + len(seen) >= room:
                        n = i
                        del at[n:]
                        break
                    seen[child] = None
                at[i] = child
            level = list(seen)
            held += len(level)

    # -- insert ---------------------------------------------------------------------

    def _insert(self, key: int, value: Any) -> None:
        root = self._get(self.root_id)
        if self._is_full(root):
            self._grow_root()
            root = self._get(self.root_id)
        node = root
        while not node.is_leaf:
            idx = bisect.bisect_right(node.keys, key)
            child = self._get(node.children[idx])
            if self._is_full(child):
                self._split_child(node, idx)
                # The split may have changed which side the key belongs to.
                idx = bisect.bisect_right(node.keys, key)
                child = self._get(node.children[idx])
            node = child
        i = bisect.bisect_left(node.keys, key)
        if i < len(node.keys) and node.keys[i] == key:
            node.values[i] = value
        else:
            node.keys.insert(i, key)
            node.values.insert(i, value)
            self._count += 1
        self.user_bytes_modified += self._entry_bytes
        self._dirty(node)

    def _put_many(self, pairs: Iterable[tuple[int, Any]]) -> None:
        """Insert every pair, in input order, reading each chunk's paths
        as one planned read a level.

        The tree it leaves is an :meth:`insert` loop's (nodes, ids,
        extents, allocator), its IO schedule is not.  The pairs go in
        chunks: a chunk's keys take one :meth:`_descend` while their
        distinct path nodes, plus room for one insert's splits, fit in
        the cache; then its pairs are applied in input order by the
        scalar insert, to resident nodes.  A chunk ends early where the
        nodes its splits made would leave no such room, so none of its
        path nodes is evicted before its pairs are applied and each is
        read once.  The cache counts one miss per node a chunk reads and
        a hit for every other node access, the descent's and the
        inserts'.  Dirty evictions stay the cache's own, unplanned.  A
        fault surfaces at a chunk's planned read, before any of its pairs
        is applied, or at an eviction's write inside an insert, with the
        chunks before it applied.  A batch of one is :meth:`insert`.
        """
        pairs = pairs if isinstance(pairs, list) else list(pairs)
        if len(pairs) <= 1:
            self._insert_loop(pairs)
            return
        insert = self._insert
        fits = self.storage.cache.capacity_bytes // self.config.node_bytes
        keys = [key for key, _ in pairs]
        done = 0
        while done < len(pairs):
            at, _, held = self._descend(keys[done:], fits - self._height - 1)
            end = done + len(at)
            first_new = self._next_id
            insert(*pairs[done])
            done += 1
            while done < end and held + self._next_id - first_new + self._height < fits:
                insert(*pairs[done])
                done += 1

    def _is_full(self, node: BTreeNode) -> bool:
        if node.is_leaf:
            return len(node.keys) >= self._leaf_capacity
        return len(node.children) >= self._internal_capacity

    def _grow_root(self) -> None:
        """Add a new root above a full root, then split the old root."""
        old_root = self._get(self.root_id)
        new_root = self._new_node(is_leaf=False)
        new_root.children = [old_root.node_id]
        self.root_id = new_root.node_id
        self._height += 1
        self._dirty(new_root)
        self._split_child(new_root, 0)

    def _split_child(self, parent: BTreeNode, idx: int) -> None:
        """Split ``parent.children[idx]`` into two; parent gains one pivot."""
        if OBS.enabled:
            start = self.storage.device.clock
        child = self._get(parent.children[idx])
        right = self._new_node(is_leaf=child.is_leaf)
        if child.is_leaf:
            mid = len(child.keys) // 2
            right.keys = child.keys[mid:]
            right.values = child.values[mid:]
            del child.keys[mid:]
            del child.values[mid:]
            separator = right.keys[0]
        else:
            mid = len(child.children) // 2
            # Pivot keys: child has len(children)-1 keys; key[mid-1] moves up.
            separator = child.keys[mid - 1]
            right.keys = child.keys[mid:]
            right.children = child.children[mid:]
            del child.keys[mid - 1 :]
            del child.children[mid:]
        parent.keys.insert(idx, separator)
        parent.children.insert(idx + 1, right.node_id)
        self._dirty(child)
        self._dirty(right)
        self._dirty(parent)
        if OBS.enabled:
            OBS.op_event("btree.split", start, self.storage.device.clock)

    # -- delete --------------------------------------------------------------------

    def _delete(self, key: int) -> bool:
        """Delete ``key``; returns whether it was present.

        Single-pass top-down: before descending into a child at minimum
        occupancy, refill it by borrowing from a sibling or merging.
        """
        node = self._get(self.root_id)
        while not node.is_leaf:
            idx = bisect.bisect_right(node.keys, key)
            child = self._get(node.children[idx])
            if self._is_minimal(child):
                idx = self._refill_child(node, idx)
                child = self._get(node.children[idx])
            # Collapse a root left with a single child.
            if node.node_id == self.root_id and len(node.children) == 1:
                self.root_id = node.children[0]
                self._height -= 1
                self._free(node)
            node = child
        i = bisect.bisect_left(node.keys, key)
        if i >= len(node.keys) or node.keys[i] != key:
            return False
        del node.keys[i]
        del node.values[i]
        self._count -= 1
        self.user_bytes_modified += self._entry_bytes
        self._dirty(node)
        return True

    def _min_occupancy(self, node: BTreeNode) -> int:
        if node.is_leaf:
            return max(1, self._leaf_capacity // 4)
        return max(2, self._internal_capacity // 4)

    def _is_minimal(self, node: BTreeNode) -> bool:
        if node.is_leaf:
            return len(node.keys) <= self._min_occupancy(node)
        return len(node.children) <= self._min_occupancy(node)

    def _refill_child(self, parent: BTreeNode, idx: int) -> int:
        """Bring ``parent.children[idx]`` above minimal occupancy.

        Borrows from an adjacent sibling when it has spare entries, merges
        with it otherwise.  Returns the (possibly changed) child index the
        descent should continue into.
        """
        child = self._get(parent.children[idx])
        left = self._get(parent.children[idx - 1]) if idx > 0 else None
        right = (
            self._get(parent.children[idx + 1])
            if idx + 1 < len(parent.children)
            else None
        )
        if left is not None and not self._is_minimal(left):
            self._borrow_from_left(parent, idx, left, child)
            return idx
        if right is not None and not self._is_minimal(right):
            self._borrow_from_right(parent, idx, child, right)
            return idx
        # Merge with a sibling (prefer left so indices shift predictably).
        if left is not None:
            self._merge(parent, idx - 1, left, child)
            return idx - 1
        assert right is not None, "non-root internal node must have a sibling"
        self._merge(parent, idx, child, right)
        return idx

    def _borrow_from_left(
        self, parent: BTreeNode, idx: int, left: BTreeNode, child: BTreeNode
    ) -> None:
        if child.is_leaf:
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[idx - 1] = child.keys[0]
        else:
            child.keys.insert(0, parent.keys[idx - 1])
            parent.keys[idx - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())
        self._dirty(left)
        self._dirty(child)
        self._dirty(parent)

    def _borrow_from_right(
        self, parent: BTreeNode, idx: int, child: BTreeNode, right: BTreeNode
    ) -> None:
        if child.is_leaf:
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[idx] = right.keys[0]
        else:
            child.keys.append(parent.keys[idx])
            parent.keys[idx] = right.keys.pop(0)
            child.children.append(right.children.pop(0))
        self._dirty(right)
        self._dirty(child)
        self._dirty(parent)

    def _merge(
        self, parent: BTreeNode, left_idx: int, left: BTreeNode, right: BTreeNode
    ) -> None:
        """Merge ``right`` into ``left``; parent loses one pivot."""
        if left.is_leaf:
            left.keys.extend(right.keys)
            left.values.extend(right.values)
        else:
            left.keys.append(parent.keys[left_idx])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        del parent.keys[left_idx]
        del parent.children[left_idx + 1]
        self._free(right)
        self._dirty(left)
        self._dirty(parent)

    # -- range queries -----------------------------------------------------------

    def _range(self, lo: int, hi: int) -> list[tuple[int, Any]]:
        """All pairs with ``lo <= key <= hi`` in key order.

        Level by level: the nodes of one level that overlap the range are
        fetched by one :meth:`~repro.storage.cache.BufferCache.get_many`
        — misses as one planned read, in disk order and bridged over cheap
        gaps — so a scan over a sequentially laid-out tree pays a setup
        per run, not per leaf.  Each level's ids are kept in key order, so
        the leaves are copied out in key order whatever order they were
        read in.
        """
        if lo > hi:
            return []
        bisect_right = bisect.bisect_right
        get_many = self.storage.cache.get_many
        level = [self.root_id]
        while True:
            nodes = get_many(level)
            if nodes[0].is_leaf:
                break
            level = []
            for node in nodes:
                keys = node.keys
                level += node.children[bisect_right(keys, lo) : bisect_right(keys, hi) + 1]
        out: list[tuple[int, Any]] = []
        for node in nodes:
            keys = node.keys
            if keys and lo <= keys[0] and keys[-1] <= hi:
                out += zip(keys, node.values)  # wholly inside: no copy
            else:
                i = bisect.bisect_left(keys, lo)
                j = bisect_right(keys, hi)
                out += zip(keys[i:j], node.values[i:j])
        return out

    # -- bulk load -----------------------------------------------------------------

    def bulk_load(self, pairs: list[tuple[int, Any]]) -> None:
        """Replace the tree's contents with sorted ``pairs``.

        Builds leaves left to right at ``BULK_FILL`` occupancy and stacks
        internal levels on top.  With a first-fit allocator this lays the
        tree out nearly sequentially on disk — a *fresh* (unaged) tree.
        """
        if self._count:
            raise TreeError("bulk_load requires an empty tree")
        all_keys = [k for k, _ in pairs]
        if not all(map(lt, all_keys, islice(all_keys, 1, None))):
            raise TreeError("bulk_load requires strictly increasing keys")
        if not pairs:
            return
        old_root = self._get(self.root_id)
        self._free(old_root)
        self._height = 1

        per_leaf = max(2, int(self._leaf_capacity * BULK_FILL))
        all_values = [v for _, v in pairs]
        level: list[tuple[int, int]] = []  # (first_key, node_id) per node
        for start in range(0, len(pairs), per_leaf):
            leaf = self._new_node(is_leaf=True)
            leaf.keys = all_keys[start : start + per_leaf]
            leaf.values = all_values[start : start + per_leaf]
            self._dirty(leaf)
            level.append((leaf.keys[0], leaf.node_id))
        self._count = len(pairs)
        self.user_bytes_modified += len(pairs) * self._entry_bytes

        per_internal = max(2, int(self._internal_capacity * BULK_FILL))
        while len(level) > 1:
            next_level: list[tuple[int, int]] = []
            for start in range(0, len(level), per_internal):
                group = level[start : start + per_internal]
                if len(group) == 1 and next_level:
                    # Avoid a 1-child internal node: fold into the previous group.
                    prev_first, prev_id = next_level[-1]
                    prev = self._get(prev_id)
                    prev.keys.append(group[0][0])
                    prev.children.append(group[0][1])
                    self._dirty(prev)
                    continue
                node = self._new_node(is_leaf=False)
                node.children = [nid for _, nid in group]
                node.keys = [first for first, _ in group[1:]]
                self._dirty(node)
                next_level.append((group[0][0], node.node_id))
            level = next_level
            self._height += 1
        self.root_id = level[0][1]

    # -- invariants ---------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert search-tree order, balanced height, byte budgets and the
        occupancy floor.

        Every non-root node holds at least :meth:`_min_occupancy` entries
        (leaves) or children (internal nodes), the floor ``delete``'s
        refill keeps.  The rightmost node of each level is exempt: it is
        where ``bulk_load`` leaves its remainder, and a borrow from its
        left neighbour can leave it below the floor.
        """
        leaf_depths: set[int] = set()
        n = self._check_node(self.root_id, None, None, 0, leaf_depths, True)
        if n != self._count:
            raise TreeError(f"count mismatch: walked {n}, recorded {self._count}")
        if len(leaf_depths) > 1:
            raise TreeError(f"leaves at multiple depths: {sorted(leaf_depths)}")
        if leaf_depths != {self._height - 1}:
            raise TreeError(f"leaves at depth {leaf_depths}, height {self._height}")

    def _check_node(
        self,
        node_id: int,
        lo: int | None,
        hi: int | None,
        depth: int,
        leaf_depths: set[int],
        rightmost: bool,
    ) -> int:
        node = self._get(node_id)
        fmt = self.config.fmt
        if node.nbytes(fmt) > self.config.node_bytes:
            raise TreeError(
                f"node {node_id} overflows budget: {node.nbytes(fmt)} > {self.config.node_bytes}"
            )
        if depth and not rightmost:
            held = len(node.keys) if node.is_leaf else len(node.children)
            floor = self._min_occupancy(node)
            if held < floor:
                raise TreeError(f"node {node_id} under the occupancy floor: {held} < {floor}")
        for a, b in zip(node.keys, node.keys[1:]):
            if a >= b:
                raise TreeError(f"node {node_id} keys out of order: {a} >= {b}")
        for k in node.keys:
            if (lo is not None and k < lo) or (hi is not None and k >= hi):
                raise TreeError(f"node {node_id} key {k} outside ({lo}, {hi})")
        if node.is_leaf:
            if len(node.keys) != len(node.values):
                raise TreeError(f"leaf {node_id} keys/values length mismatch")
            leaf_depths.add(depth)
            return len(node.keys)
        if len(node.children) != len(node.keys) + 1:
            raise TreeError(f"internal {node_id} has {len(node.children)} children, "
                            f"{len(node.keys)} keys")
        total = 0
        bounds = [lo] + list(node.keys) + [hi]
        last = len(node.children) - 1
        for i, child in enumerate(node.children):
            total += self._check_node(
                child, bounds[i], bounds[i + 1], depth + 1, leaf_depths,
                rightmost and i == last,
            )
        return total


#: Registry entry (:mod:`repro.trees.registry`): ``node_bytes`` is the node size.
KIND = TreeKind(
    "btree", BTree, BTreeConfig, lambda node_bytes, _cache: {"node_bytes": node_bytes},
    stacked=True,
)
