"""Guards on the tree registry: it is the only way trees get built.

``repro.trees.build`` owns substrate choice, reserved extents and sizing
rules.  These tests keep it that way: no module outside ``repro/trees``
may import a tree class or a tree ``*Config`` (so no per-kind ladder can
grow back), and every entry must build, load and respect a reservation.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError
from repro.storage.ram import NullDevice
from repro.trees import KINDS, build

SRC = Path(repro.__file__).parent

TREE_NAMES = {
    "BTree", "BeTree", "OptimizedBeTree", "LSMTree", "COLA", "COBTree", "BufferedCOBTree",
    "BTreeConfig", "BeTreeConfig", "LSMConfig", "COLAConfig", "COBConfig",
}


def _imported_tree_names(path: Path) -> set[str]:
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro.trees"):
            found |= {alias.name for alias in node.names} & TREE_NAMES
        elif isinstance(node, ast.Attribute) and node.attr in TREE_NAMES:
            found.add(node.attr)  # ``trees.BTree`` through a module alias
    return found


def test_no_module_outside_trees_imports_a_tree_class():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("trees/"):
            continue
        found = _imported_tree_names(path)
        if found:
            offenders[rel] = sorted(found)
    assert not offenders, f"construct through repro.trees.build instead: {offenders}"


@pytest.mark.parametrize("kind", KINDS)
def test_every_entry_builds_loads_and_honours_its_reservation(kind):
    reserve = (3 << 20) + 512
    device = NullDevice(capacity_bytes=1 << 30, trace=True)
    tree = build(kind, device, node_bytes=16 << 10, cache_bytes=64 << 10, reserve_bytes=reserve)
    pairs = [(k * 3, k) for k in range(1000)]
    tree.load(pairs)
    tree.put_many((k * 3 + 1, k) for k in range(1000))
    for k in range(0, 1000, 3):
        tree.delete(k * 3)
    tree.settle()
    tree.drop_cache()
    assert tree.get(3) == 1 and tree.get(0) is None
    assert len(tree) == 2000 - 334
    tree.check_invariants()
    assert device.trace, "nothing reached the device"
    assert min(record.offset for record in device.trace) >= reserve
    assert tree.allocator.used_bytes > reserve


def test_build_rejects_what_it_cannot_honour():
    device = NullDevice(capacity_bytes=1 << 30)
    with pytest.raises(ConfigurationError, match="unknown tree kind"):
        build("splay", device, cache_bytes=1 << 20)
    with pytest.raises(ConfigurationError, match="no field"):
        build("btree", device, cache_bytes=1 << 20, l0_trigger=2)
    with pytest.raises(ConfigurationError, match="needs cache_bytes"):
        build("betree", device)
    with pytest.raises(ConfigurationError, match="first_fit"):
        build("lsm", device, reserve_bytes=4096, placement="random")


def test_config_fields_override_the_sizing_rule():
    device = NullDevice(capacity_bytes=1 << 30)
    lsm = build("lsm", device, node_bytes=4096, l0_trigger=2, level1_bytes=1 << 20)
    assert (lsm.config.block_bytes, lsm.config.sstable_bytes) == (4096, 64 << 10)
    assert (lsm.config.l0_trigger, lsm.config.level1_bytes) == (2, 1 << 20)
    cob = build("cob", device, cache_bytes=4096)
    assert (cob.config.ram_bytes, cob.config.block_bytes) == (4096, 4096)
    assert build("betree", device, cache_bytes=1 << 20, fanout=None).config.fanout is None
