"""The shared load of the node-size sweeps: memoised, copied out, one resident."""

from repro.experiments import common
from repro.experiments.common import build_load

UNIVERSE = 1 << 20


def test_a_new_load_is_generated_only_after_the_old_one_is_dropped(monkeypatch):
    resident_on_entry = []
    generate = common.random_load_pairs

    def spy(n, universe, seed=0):
        resident_on_entry.append(list(common._load_memo))
        return generate(n, universe, seed=seed)

    monkeypatch.setattr(common, "random_load_pairs", spy)
    monkeypatch.setattr(common, "_load_memo", {})
    build_load(500, UNIVERSE, seed=1)
    build_load(500, UNIVERSE, seed=1)  # memoised: no second generation
    build_load(500, UNIVERSE, seed=2)
    assert resident_on_entry == [[], []]
    assert list(common._load_memo) == [(500, UNIVERSE, 2)]


def test_callers_own_the_lists_they_get():
    pairs, keys = build_load(400, UNIVERSE, seed=3)
    assert keys == [k for k, _ in pairs] == sorted(keys)
    want_pairs, want_keys = list(pairs), list(keys)
    pairs.clear()
    keys.reverse()
    again_pairs, again_keys = build_load(400, UNIVERSE, seed=3)
    assert (again_pairs, again_keys) == (want_pairs, want_keys)
