"""Tests for the benchmark's own helpers (run with ``src`` on PYTHONPATH)."""

import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import cyclesplit as cs  # noqa: E402
import cyclesplit.cli  # noqa: E402,F401
import cyclesplit.endo  # noqa: E402,F401
import run as bench_run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_tail_is_reported_only_with_ten_samples_beyond_it():
    assert bench_run.tail_percentile([1.0] * 99, 90) is None
    samples = [float(i) for i in range(100)]
    assert bench_run.tail_percentile(samples, 90) == pytest.approx(89.9)
    assert sum(s > 89.9 for s in samples) == 10
    assert bench_run.tail_percentile([1.0] * 999, 99) is None
    assert bench_run.tail_percentile([1.0] * 1000, 99) == 1.0


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_nested_spans_and_hot_calls():
    # outer [0, 10] holds inner [2, 6], which holds two hot calls of 1s each
    tr = tracer.Tracer(clock=FakeClock([0, 2, 3, 4, 4, 5, 6, 10]))
    hot = tr._wrap(tracer.HOT, "rings.mul", lambda: None, None)
    with tr.span("outer"):
        with tr.span("inner"):
            hot()
            hot()
    totals = tr.totals()
    assert totals["outer"] == {"calls": 1, "self_s": 6}
    assert totals["inner"] == {"calls": 1, "self_s": 2}
    assert totals["rings.mul"] == {"calls": 2, "self_s": 2}
    assert tr.hot == {("inner", "rings.mul"): [2, 2]}
    assert sum(t["self_s"] for t in totals.values()) == 10
    outer, inner = sorted(tr.spans)
    assert inner[1] == outer[0]  # inner's parent is outer


def _witness_set(ring, f, c):
    outcome = cs.enumerate_splittings(cs.SearchTask(ring, f, f.degree, "all_splittings"))
    return workloads.census_witness_summary(outcome, c), workloads.census_roots_summary(cs.find_roots(f, ring), c)


def test_shift_maps_witnesses_by_central_scalar():
    ring = cs.parse_ring_spec("UT:2:Zmod:2")
    for coeffs in ([0, -1, 1], [0, 0, -1, 1]):
        f = cs.from_int_coeffs(ring, coeffs)
        plain = _witness_set(ring, f, ring.zero())
        assert plain[0]["witnesses"] > 0
        for k in (0, 1):
            c = ring.from_int(k)
            g = workloads.shift(cs, f, c)
            assert g.degree == f.degree
            assert _witness_set(ring, g, c) == plain


def _site_state():
    """Every live wrap site's current object (dict entries included)."""
    state = {}
    for _m, _k, owner, attr, _o in tracer.TARGETS:
        found = tracer._resolve(owner, attr, sys.modules.get)
        if found is None:
            continue
        holder, original = found
        if isinstance(holder, dict):
            for key, fn in holder.items():
                state[(owner, key)] = fn
        else:
            state[(owner, attr)] = original
    return state


def test_every_wrapper_is_restored_after_a_traced_run():
    before = _site_state()
    assert len(before) > 40
    tr = tracer.Tracer()
    with tr.installed():
        during = _site_state()
        ring = cs.parse_ring_spec("Zmod:4")
        cs.enumerate_splittings(cs.SearchTask(ring, cs.from_int_coeffs(ring, [0, 0, 1]), 2, "all_splittings"))
        assert cyclesplit.cli.run(["export", "--p", "2", "--table", "images"], out=io.StringIO()) == 0
    assert all(during[k] is not v for k, v in before.items())
    after = _site_state()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    totals = tr.totals()
    assert totals["search.enumerate"]["calls"] == 1
    assert totals["endo.tables"]["calls"] == 1
    assert tr.counts["search.divisions.deg2"] == 4
    assert set(tracer.LAYER_NAMES) == set(tracer.available_layers())
