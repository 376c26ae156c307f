"""Tests for the benchmark's tracer and metric table.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from darboux2d import verify  # noqa: E402
from darboux2d.polyrat import X, Y, RatFn  # noqa: E402
from run import PER_LAYER_UNITS  # noqa: E402
from tracer import SITES, Tracer  # noqa: E402


def test_uninstall_restores_every_original_attribute():
    owners = {id(owner): owner for owner, _, _ in SITES}
    before = {key: dict(vars(owner)) for key, owner in owners.items()}
    tracer = Tracer()
    tracer.install()
    try:
        for owner, attr, _ in SITES:
            assert vars(owner)[attr] is not before[id(owner)][attr]
    finally:
        tracer.uninstall()
    for key, owner in owners.items():
        after = dict(vars(owner))
        assert after.keys() == before[key].keys()
        assert all(after[name] is value for name, value in before[key].items())


def test_mul_counters_on_a_known_product():
    a, b = X + Y, X - Y
    den = X * X + 1
    tracer = Tracer()
    tracer.install()
    try:
        product = a * b
        3 * a  # scalar scaling is not a kernel multiply
        verify.ratfn_is_zero(RatFn(product, den))
    finally:
        tracer.uninstall()
    assert product == X * X - Y * Y
    mul = tracer.mul
    assert tracer.call_count("polyrat.mul") == 1
    assert (mul.terms_in, mul.terms_out, mul.max_degree) == (4, 2, 2)
    assert mul.max_coeff_bits == 1
    assert mul.density == 2 / 6
    assert tracer.call_count("verify.zero_test") == 1
    assert tracer.zero_test_max_den_degree == 2


def test_self_times_and_counter_time_cover_the_outer_span():
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("outer"):
            verify.check_eq12(RatFn(X, X * X + Y * Y + 1))
    finally:
        tracer.uninstall()
    outer = tracer.span_end[0] - tracer.span_start[0]
    assert tracer.names[tracer.span_name[0]] == "outer"
    assert tracer.call_count("verify.check_eq12") == 1
    assert tracer.call_count("polyrat.mul") > 0
    assert abs(sum(tracer.self_s) + tracer.counter_s - outer) < 1e-9 * max(1.0, outer) + 1e-12


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
