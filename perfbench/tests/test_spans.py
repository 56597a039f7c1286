import types

import pytest

from perfbench import spans


def test_self_time_subtracts_children():
    recorded = [
        ("op", 0.0, 10.0, -1, 0),
        ("search", 1.0, 9.0, 0, 0),
        ("engine", 2.0, 4.0, 1, 0),
        ("kernel", 2.5, 3.0, 2, 0),
        ("engine", 5.0, 6.0, 1, 0),
    ]
    assert spans.self_times(recorded) == pytest.approx([2.0, 5.0, 1.5, 0.5, 1.0])
    by_name = spans.self_time_by_name(recorded)
    assert by_name == pytest.approx({"op": 2.0, "search": 5.0, "engine": 2.5, "kernel": 0.5})
    # Self times of a tree add up to the root's wall time.
    assert sum(by_name.values()) == pytest.approx(10.0)


def test_overlapping_and_overhanging_children_count_once():
    recorded = [
        ("parent", 0.0, 10.0, -1, 0),
        ("a", 1.0, 5.0, 0, 0),
        ("b", 3.0, 7.0, 0, 0),  # overlaps a: union 1..7
        ("c", 9.0, 12.0, 0, 0),  # overhangs the parent: clipped to 9..10
    ]
    assert spans.self_times(recorded)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_recorder_nests_and_wraps():
    rec = spans.SpanRecorder()
    rec.op = 3
    outer = rec.begin("outer")
    inner = rec.wrap(lambda x: x * 2, "inner")
    assert inner(21) == 42
    rec.end(outer)
    recorded = rec.spans
    assert [s[0] for s in recorded] == ["outer", "inner"]
    assert recorded[1][3] == 0 and recorded[0][3] == -1
    assert all(s[4] == 3 for s in recorded)
    assert recorded[0][1] <= recorded[1][1] <= recorded[1][2] <= recorded[0][2]
    with pytest.raises(RuntimeError):
        rec.end(rec.begin("x") + 5)


def test_patch_everywhere_rebinds_every_import(monkeypatch):
    def original():
        return "original"

    def replacement():
        return "replacement"

    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    a.f = original
    b.alias = original
    monkeypatch.setitem(__import__("sys").modules, "fakepkg.a", a)
    monkeypatch.setitem(__import__("sys").modules, "fakepkg.b", b)
    undo = spans.patch_everywhere(original, replacement, prefix="fakepkg")
    assert a.f() == b.alias() == "replacement"
    spans.unpatch(undo)
    assert a.f is original and b.alias is original
