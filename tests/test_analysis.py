"""Compute-once analysis: a verdict builds each structure's torsion classes,
H and connections once, the oracle stays independent of H, and a verdict
leaves no cyclic garbage behind."""

import collections
import gc

import pytest

from gtorsion import engine, frames, reduction, registry, soliton, structures
from gtorsion.parser import parse

_MODULES = [frames, structures, soliton, reduction, engine]


def _count_calls(monkeypatch, name):
    """Wrap ``name`` in every module that binds it; count calls by first argument."""
    orig = getattr(structures, name)
    counts = collections.Counter()

    def wrapper(*args, **kwargs):
        counts[args[0]] += 1
        return orig(*args, **kwargs)

    for mod in _MODULES:
        if getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, wrapper)
    return counts


def test_reduce_builds_each_item_once_per_structure(monkeypatch):
    doc = parse(registry.input_text("nonintG2"))
    torsion = _count_calls(monkeypatch, "torsion_g2")
    h = _count_calls(monkeypatch, "bismut_torsion")
    conn = _count_calls(monkeypatch, "bismut_connection")  # keyed by frame
    engine.run_reduce(doc)
    ambient = doc.structure()
    assert dict(torsion) == {ambient: 1}
    assert h[ambient] == 1
    # one Bismut connection on the ambient frame, one in the adapted frame
    assert conn[doc.frame()] == 1
    assert sorted(conn.values()) == [1, 1]


def test_check_builds_each_item_once(monkeypatch):
    doc = parse(registry.input_text("nonintsu3"))
    nij = _count_calls(monkeypatch, "nijenhuis")
    h = _count_calls(monkeypatch, "bismut_torsion")
    conn = _count_calls(monkeypatch, "bismut_connection")
    engine.run_check(doc)
    s = doc.structure()
    assert dict(nij) == {s: 1}
    assert dict(h) == {s: 1}
    assert dict(conn) == {doc.frame(): 1}


def test_oracle_never_reads_h(monkeypatch):
    s = parse(registry.input_text("nonintsu3")).structure()

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called the closed formula")

    monkeypatch.setattr(structures, "bismut_torsion", forbidden)
    oracle = structures.solve_skew_torsion(s)
    assert "h" not in vars(s)
    monkeypatch.undo()
    assert oracle == s.h


@pytest.mark.parametrize("name", registry.names())
def test_verdict_leaves_no_cyclic_garbage(name):
    registry.run_example(name)  # first use: imports and module-level caches
    gc.collect()
    gc.disable()
    try:
        rep, _ = registry.run_example(name)
        del rep
        assert gc.collect() == 0
    finally:
        gc.enable()
