"""Device-zoo tests: the simulated stand-ins hit their paper targets."""

import pytest

from repro import storage
from repro.errors import ConfigurationError
from repro.experiments import exp_affine_validation, exp_autotune, exp_durability
from repro.experiments.devices import HDD_ZOO, default_hdd, default_ssd
from repro.storage.hdd import hdd_geometry_for

SSD_NAMES = [name for name, (kind, _) in storage.ZOO.items() if kind == "ssd"]


def geometry(name):
    return storage.build(name).geometry


class TestHDDZoo:
    def test_all_rows_instantiate(self):
        for name in HDD_ZOO:
            assert storage.build(name).capacity_bytes > 0

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            storage.build("floppy-drive")

    def test_geometry_inversion(self):
        # hdd_geometry_for must invert mean_setup_seconds exactly.
        for name, (_, s, t4k) in HDD_ZOO.items():
            g = hdd_geometry_for(s, t4k)
            assert g.mean_setup_seconds == pytest.approx(s, rel=1e-9), name
            assert 4096 / g.bandwidth_bytes_per_second == pytest.approx(t4k, rel=1e-9)
            assert geometry(name) == g

    def test_impossible_setup_rejected(self):
        with pytest.raises(ConfigurationError):
            hdd_geometry_for(0.001, 1e-5)  # below half rotation

    @pytest.mark.parametrize("seconds_per_4k", [0.0, -1e-5])
    def test_transfer_time_must_be_positive(self, seconds_per_4k):
        with pytest.raises(ConfigurationError, match="seconds_per_4k"):
            hdd_geometry_for(0.012, seconds_per_4k)

    def test_default_hdd(self):
        assert default_hdd().geometry.mean_setup_seconds == pytest.approx(0.012)


class TestSSDZoo:
    def test_all_rows_instantiate(self):
        assert len(SSD_NAMES) == 4
        for name in SSD_NAMES:
            assert geometry(name).total_dies >= 8

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            storage.build("optane")

    def test_saturation_targets(self):
        # The zoo targets the paper's Table 1 "∝PB" column (MB/s).
        targets = {
            "samsung-860-pro-sim": 530,
            "samsung-970-pro-sim": 2500,
            "silicon-power-s55-sim": 260,
            "sandisk-ultra-ii-sim": 520,
        }
        for name, mbps in targets.items():
            sat = geometry(name).saturated_read_bytes_per_second / 1e6
            assert sat == pytest.approx(mbps, rel=0.05), name

    def test_parallelism_ordering_matches_paper(self):
        # Paper Table 1 ordering: S55 < 860 pro < Ultra II < 970 pro.
        p = {n: geometry(n).expected_pdam_parallelism for n in SSD_NAMES}
        assert (
            p["silicon-power-s55-sim"]
            < p["samsung-860-pro-sim"]
            < p["sandisk-ultra-ii-sim"]
            < p["samsung-970-pro-sim"]
        )

    def test_default_ssd(self):
        assert default_ssd().geometry.channels == 2

    def test_dies_exceed_effective_parallelism(self):
        # The design rule that keeps the knee flat: many more dies than P.
        for name in SSD_NAMES:
            g = geometry(name)
            assert g.total_dies > 1.5 * g.expected_pdam_parallelism, name


@pytest.mark.parametrize("experiment", [exp_affine_validation, exp_autotune, exp_durability])
def test_sweep_spec_refuses_an_unknown_device(experiment):
    with pytest.raises(ConfigurationError, match="floppy"):
        experiment.sweep_spec(devices=("floppy",))


def test_e17_measures_the_zoo_in_table_order_one_device_a_point(monkeypatch):
    points = exp_autotune.sweep_spec(n_entries=1000).points
    names = [point.param_dict()["device"] for point in points]
    assert names == [
        *HDD_ZOO,
        "samsung-860-pro-sim",
        "samsung-970-pro-sim",
        "affine-lowalpha-sim",
        "affine-highalpha-sim",
    ]

    class Built(Exception):
        pass

    def build(name, **fields):
        raise Built(name)

    monkeypatch.setattr(storage, "build", build)
    with pytest.raises(Built) as first:
        exp_autotune.measure_device(**points[-1].param_dict())
    assert first.value.args == (names[-1],)  # the one device this point measures
