"""The block cache the run-based trees spend their unpinned RAM on.

Unit cases of :class:`~repro.storage.blocks.BlockCache` on a traced free
device: a wholly resident extent is free and turns MRU, anything else is
charged whole and admitted, an extent longer than the capacity is declined,
a freed extent's blocks go, and ``read_set`` reads only what is not
resident.  The trees' side is held by ``tests/trees/test_point_charges.py``
(pinned get streams with and without a block to cache), the lockstep
machine (pinned plus cached bytes within the budget after every step) and
``tests/trees/test_conformance.py`` (``drop_cache`` leaves every budget cold).
"""

import pytest

from repro.errors import ConfigurationError
from repro.storage.blocks import BlockCache
from repro.storage.ram import NullDevice

B = 4096


def _reads(device):
    return [(r.offset, r.nbytes) for r in device.trace if r.kind == "read"]


@pytest.fixture
def device():
    return NullDevice(capacity_bytes=1 << 30, trace=True)


def test_a_resident_extent_is_free_and_anything_else_is_charged_whole(device):
    cache = BlockCache(B, 4)
    cache.read(device, 100, 2 * B)  # blocks 0..2
    cache.read(device, 512, B)  # blocks 0..1: resident
    cache.read(device, 2 * B, 2 * B)  # blocks 2..3: only 2 resident
    assert _reads(device) == [(100, 2 * B), (2 * B, 2 * B)]
    assert (cache.stats.hits, cache.stats.misses) == (1, 2)
    assert list(cache.blocks) == [0, 1, 2, 3]
    assert cache.resident_bytes == 4 * B


def test_a_hit_turns_its_blocks_mru_and_admission_evicts_the_lru(device):
    cache = BlockCache(B, 3)
    for block in (0, 1, 2):
        cache.read(device, block * B, B)
    cache.read(device, 0, B)  # hit: 0 becomes MRU
    cache.read(device, 5 * B, B)  # evicts 1, the LRU
    assert list(cache.blocks) == [2, 0, 5]
    assert cache.stats.evictions == 1
    cache.read(device, B, B)
    assert _reads(device)[-1] == (B, B)


def test_an_extent_longer_than_the_cache_is_read_but_not_admitted(device):
    cache = BlockCache(B, 2)
    cache.read(device, 0, B)
    cache.read(device, 10 * B, 3 * B)
    assert list(cache.blocks) == [0]
    cache.read(device, 10 * B, 3 * B)
    assert len(_reads(device)) == 3


def test_a_read_not_admitted_is_free_when_resident_and_keeps_nothing(device):
    cache = BlockCache(B, 4)
    cache.read(device, 0, B, admit=False)
    assert not cache.blocks and len(_reads(device)) == 1
    cache.read(device, 0, B)
    cache.read(device, 0, B, admit=False)
    assert len(_reads(device)) == 2 and cache.stats.hits == 1


def test_zero_capacity_charges_every_read(device):
    cache = BlockCache(B)
    for _ in range(3):
        cache.read(device, 0, B)
    assert len(_reads(device)) == 3 and not cache.blocks


def test_drop_forgets_a_freed_extent_and_its_shared_edge_blocks(device):
    cache = BlockCache(B, 8)
    for block in range(6):
        cache.read(device, block * B, B)
    cache.drop(B + 512, 2 * B)  # blocks 1..3
    assert list(cache.blocks) == [0, 4, 5]
    cache.drop(0, 100 * B)  # longer than the residents: walks them
    assert not cache.blocks


def test_resize_and_clear(device):
    cache = BlockCache(B, 4)
    for block in range(4):
        cache.read(device, block * B, B)
    cache.resize(2)
    assert list(cache.blocks) == [2, 3] and cache.stats.evictions == 2
    cache.resize(-5)
    assert cache.capacity == 0 and not cache.blocks
    cache.resize(4)
    cache.read(device, 0, B)
    cache.clear()
    cache.read(device, 0, B)
    assert len(_reads(device)) == 6


def test_read_set_reads_only_what_is_not_resident_and_admits_it(device):
    cache = BlockCache(B, 8)
    cache.read(device, 2 * B, B)
    cache.read_set(device, [(5 * B, B), (2 * B, B), (0, B), (5 * B, B)], limit=1 << 20)
    assert _reads(device)[1:] == [(0, B), (5 * B, B)]
    assert (cache.stats.hits, cache.stats.misses) == (1, 3)
    assert list(cache.blocks) == [2, 0, 5]  # the hit touched first, misses in disk order
    cache.read_set(device, [(0, B), (5 * B, B)], limit=1 << 20)
    assert len(_reads(device)) == 3


def test_block_bytes_must_be_positive():
    with pytest.raises(ConfigurationError):
        BlockCache(0)
