"""Guards on the device registry: it is the only way devices get named.

``repro.storage.build(name)`` builds a registry kind at its defaults or a
preset of the paper's hardware.  These tests keep it that way: every kind
builds with no fields, a bad name or field is refused with the choices, a
kind registered by itself is drawn by the lockstep machine and compared by
the batch-identity suite, and nothing below the experiments layer reaches
up into it for a device.
"""

import dataclasses
import re
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.stateful import run_state_machine_as_test

import repro
from repro import storage
from repro.errors import ConfigurationError
from repro.storage import registry
from repro.storage.ram import ConstantLatencyDevice
from tests.storage import test_batch_identity as batch_identity
from tests.trees import test_lockstep as lockstep

SRC = Path(repro.__file__).parent

#: An import of the experiments layer, in code or in a docstring's example.
IMPORTS_EXPERIMENTS = re.compile(
    r"^\s*(from\s+repro\.experiments[.\s]|import\s+repro\.experiments"
    r"|from\s+repro\s+import\s+experiments)",
    re.MULTILINE,
)


@pytest.mark.parametrize("kind", storage.KINDS)
def test_every_kind_builds_with_no_fields(kind):
    entry, preset = registry.check_name(kind)
    device = storage.build(kind)
    assert type(device) is entry.device and preset == {}
    assert device.read(0, 4096) >= 0.0 and device.trace == []
    traced = storage.build(kind, trace=True)
    traced.write(4096, 4096)
    assert [record.kind for record in traced.trace] == ["write"]


def test_every_preset_is_a_kind_with_known_fields():
    assert len(storage.ZOO) == 11
    for name, (kind, fields) in storage.ZOO.items():
        entry, preset = registry.check_name(name)
        assert entry.name == kind and preset == fields
        assert set(fields) <= set(entry.defaults), name
        assert type(storage.build(name)) is entry.device


def test_fields_override_a_preset():
    # The preset sets the bandwidth from Table 2's t; a field given here wins.
    disk = storage.build(
        "wd-black-1tb-2011-sim", capacity_bytes=1 << 30, bandwidth_bytes_per_second=300e6
    )
    assert disk.capacity_bytes == 1 << 30
    assert disk.geometry.bandwidth_bytes_per_second == 300e6
    assert disk.geometry.mean_setup_seconds == pytest.approx(0.012)


def test_only_a_seeded_kind_reads_the_seed():
    offsets = [0, 1 << 28, 4096, 1 << 29]

    def times(name, seed):
        device = storage.build(name, seed=seed)
        return [device.read(offset, 4096) for offset in offsets]

    assert times("hdd", 5) == times("hdd", 5) != times("hdd", 6)
    assert times("ssd", 5) == times("ssd", 6)


def test_build_refuses_what_it_does_not_know():
    with pytest.raises(ConfigurationError, match=r"unknown device 'floppy'.*'hdd'.*wd-black"):
        storage.build("floppy")
    with pytest.raises(ConfigurationError, match=r"no field\(s\) \['parallelism'\].*latency"):
        storage.build("constant", parallelism=4)
    with pytest.raises(ConfigurationError, match="no field"):
        storage.build("samsung-860-pro-sim", seek_seconds=0.01)
    # One rule for sequential IOs per kind: the disk always skips the
    # setup, the affine device (the model) never does.
    with pytest.raises(ConfigurationError, match="no field"):
        storage.build("hdd", sequential_detection=False)
    with pytest.raises(ConfigurationError, match="no field"):
        storage.build("affine", sequential_detection=True)


def test_a_registered_kind_joins_every_device_loop(monkeypatch):
    built = []

    class Throwaway(ConstantLatencyDevice):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    entry, _ = registry.check_name("constant")
    entry = dataclasses.replace(entry, name="throwaway", device=Throwaway)
    monkeypatch.setitem(registry._REGISTRY, "throwaway", entry)
    # First in KINDS, so the machine's first (simplest) example draws it.
    monkeypatch.setattr(storage, "KINDS", ("throwaway", *storage.KINDS))

    assert "throwaway" in batch_identity.names()
    for direction in ("read", "write"):
        batch_identity.test_batch_identical_to_serial_loop("throwaway", direction)
    batch_identity.test_batch_identical_under_observability("throwaway", monkeypatch)
    batch_identity.test_invalid_batch_charges_nothing("throwaway")
    batch_identity.test_array_offsets_are_traced_as_plain_ints("throwaway")
    compared = len(built)
    assert compared >= 2

    run_state_machine_as_test(
        lockstep.LockstepMachine,
        settings=settings(lockstep.TestLockstep.settings, max_examples=1, stateful_step_count=3),
    )
    assert len(built) > compared  # twin pairs and durable trees on throwaway devices


def test_only_the_experiments_import_the_experiments():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if not rel.startswith("experiments/") and IMPORTS_EXPERIMENTS.search(path.read_text()):
            offenders.append(rel)
    assert not offenders, f"build devices through repro.storage.build instead: {offenders}"
