"""Span bookkeeping: self time, outermost-call counts, op ids, chunks."""

import json

import pytest

from perfbench.spans import LayerTotals, Tracer, chunk_us_per_op, write_jsonl

# name, layer, start, end, parent, n
SPANS = [
    ["iteration", "bench", 0.0, 10.0, -1, 1],
    ["get", "trees.btree", 1.0, 5.0, 0, 1],
    ["get", "storage.stack", 2.0, 4.0, 1, 1],
    ["read", "storage.device", 2.5, 3.5, 2, 1],
    ["put_many", "trees.btree", 5.0, 9.0, 0, 3],
    ["insert", "trees.btree", 6.0, 7.0, 4, 1],
]


def test_self_time_is_duration_minus_children():
    totals = LayerTotals(SPANS)
    assert totals.self_s["bench"] == pytest.approx(10 - 4 - 4)
    assert totals.self_s["trees.btree"] == pytest.approx((4 - 2) + 4)  # nested insert nets out
    assert totals.self_s["storage.stack"] == pytest.approx(2 - 1)
    assert totals.self_s["storage.device"] == pytest.approx(1)
    assert sum(totals.self_s.values()) == pytest.approx(10.0)  # = the root's wall


def test_only_outermost_calls_into_a_layer_count():
    totals = LayerTotals(SPANS)
    assert totals.calls["trees.btree", "put_many"] == 1
    assert totals.items["trees.btree", "put_many"] == 3
    assert ("trees.btree", "insert") not in totals.calls
    assert totals.every["trees.btree", "insert"] == 1
    assert totals.layer_items("trees.btree", ("get", "get_many")) == 1
    assert totals.layer_seconds("trees.btree", ("insert", "put_many")) == pytest.approx(4.0)


def test_jsonl_shares_one_op_id_per_operation(tmp_path):
    path = tmp_path / "spans.jsonl"
    write_jsonl(SPANS, str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["op_id"] for r in rows] == [0, 1, 1, 1, 4, 4]
    assert rows[3] == {
        "id": 3, "name": "read", "layer": "storage.device",
        "start": 2.5, "end": 3.5, "parent": 2, "op_id": 1, "n": 1,
    }
    shifted = [[*s[:2], s[2] + 100.0, s[3] + 100.0, *s[4:]] for s in SPANS]
    write_jsonl(shifted, str(path))  # times are relative to the first span
    assert [json.loads(line) for line in path.read_text().splitlines()] == rows


def test_chunks_are_windows_of_top_level_ops():
    spans = [["iteration", "bench", 0.0, 100.0, -1, 1]]
    spans += [["get", "trees.btree", float(i), i + 0.5, 0, 1] for i in range(10)]
    spans += [["read", "storage.device", 0.1, 0.2, 1, 1]]  # not top level: ignored
    assert chunk_us_per_op(spans, "iteration", chunk=5) == pytest.approx([0.9e6, 0.9e6])


class _Thing:
    def __init__(self):
        self.calls = 0

    def work(self, items):
        self.calls += 1
        return [x * 2 for x in items]

    def fail(self):
        raise ValueError("boom")


def test_wrap_is_instance_level_and_transparent():
    tracer = Tracer()
    wrapped, plain = _Thing(), _Thing()
    tracer.wrap(wrapped, "layer", ("work", "fail", "absent"),
                count={"work": lambda args, result: len(result)})
    with tracer.span("root"):
        assert wrapped.work([1, 2, 3]) == plain.work([1, 2, 3])
        with pytest.raises(ValueError):
            wrapped.fail()
    assert "work" not in vars(plain) and _Thing.work is type(wrapped).work
    names = [(s[0], s[1], s[4], s[5]) for s in tracer.spans]
    assert names == [("root", "bench", -1, 1), ("work", "layer", 0, 3), ("fail", "layer", 0, 1)]
    assert all(s[3] >= s[2] > 0 for s in tracer.spans)  # closed, even the one that raised
