"""CLI tests driven through main() plus one console-script smoke test."""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darboux2d import cli, verify
from darboux2d.cli import main
from darboux2d.darboux import R_coeffs, transform_solution
from darboux2d.families import (
    DEFAULT_PARAMS,
    FAMILY_KEYS,
    PRESETS,
    build_family,
    build_preset,
    build_tanh,
    closed_potential,
    closed_R,
)
from darboux2d.harmonic import laplace_constrained_numerator
from darboux2d.polyrat import ONE, X, Y, RatFn, over_one_denominator, ratfn_to_str


# recorded `build` text (csv and json) of each family at its defaults and of
# each preset, and the B of the five seed-7 eq12 draws per family: the exact
# checks pass for any B of the right shape, so a changed B shows only here
DATA = Path(__file__).parent / "data"
BUILD_TEXTS = json.loads((DATA / "build_texts.json").read_text())
# `transform --format json` for b0 and b1 with the const seed and the re/im
# seeds of degrees 0-3; key family:kind[:degree], value exit code and stdout
TRANSFORM_TEXTS = json.loads((DATA / "transform_texts.json").read_text())
# `grid` runs: the 101x101 tsarev-1 CSV, a B field, JSON output, b1 at p/q
# parameters off the defaults and the C = 10^-400 overflow row; key name,
# value argv, exit code, stderr and the sha256 of stdout
GRID_TEXTS = json.loads((DATA / "grid_texts.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("family", sorted(BUILD_TEXTS["build"]))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_build_text_matches_the_recorded_text(capsys, family, fmt):
    code, out, err = run_cli(capsys, "build", "--family", family, "--format", fmt)
    assert (code, err) == (0, "")
    assert out == BUILD_TEXTS["build"][family][fmt]


@pytest.mark.parametrize("key", sorted(BUILD_TEXTS["eq12_seed7"]))
def test_seed_7_eq12_draws_build_the_recorded_B(key):
    for draw in BUILD_TEXTS["eq12_seed7"][key]:
        params = {k: tuple(map(Fraction, v)) if isinstance(v, list) else Fraction(v)
                  for k, v in draw["params"].items()}
        B = build_family(FAMILY_KEYS[key], params).B
        assert ratfn_to_str(B) == draw["B"]


def test_build_b0_example(capsys):
    code, out, _ = run_cli(
        capsys, "build", "--family", "b0",
        "--params", '{"p0":"1","q0":"0","x0":"0","y0":"0","C":"1"}',
    )
    assert code == 0
    assert "B = (x)/(x^2 + y^2 + 1)" in out
    assert "u = (-8)/(x^4 + 2*x^2*y^2 + y^4 + 2*x^2 + 2*y^2 + 1)" in out


def test_build_tanh_formula(capsys):
    code, out, _ = run_cli(capsys, "build", "--family", "tanh",
                           "--params", '{"C1":"1","C2":"0"}')
    assert code == 0
    assert "tanh((x*y - 0)/1)" in out
    assert "cosh" in out


def test_build_tanh_prints_the_constants_it_evaluates(capsys, monkeypatch):
    evaluated = []
    build_tanh = cli.build_tanh

    def recording_build_tanh(C1, C2):
        evaluated.append((C1, C2))
        return build_tanh(C1, C2)

    monkeypatch.setattr(cli, "build_tanh", recording_build_tanh)
    params = '{"C1":"1/3","C2":"123456789/1000"}'
    code, out, _ = run_cli(capsys, "build", "--family", "tanh", "--params", params,
                           "--format", "json")
    assert code == 0
    assert evaluated == [(float(Fraction(1, 3)), 123456.789)]
    payload = json.loads(out)
    c1, c2 = payload["constants"]["C1"], payload["constants"]["C2"]
    assert (float(c1), float(c2)) == evaluated[0]
    assert payload["B"] == f"tanh((x*y - {c2})/{c1})"
    assert f"({c1}^2*cosh((x*y - {c2})/{c1})^2)" in payload["u"]
    code, out, _ = run_cli(capsys, "build", "--family", "tanh", "--params", params)
    assert code == 0
    assert f"B_s = tanh((x*y - {c2})/{c1})" in out


def test_build_json_format(capsys):
    code, out, _ = run_cli(capsys, "build", "--family", "b3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "b3"
    assert set(payload["constants"]) == {"m1", "m2", "m3", "m4"}


def test_build_preset_override_reaches_the_potential(capsys):
    code, out, _ = run_cli(capsys, "build", "--family", "tsarev-1",
                           "--params", '{"C":"3"}')
    assert code == 0
    params = {**PRESETS["tsarev-1"].params, "C": 3}
    u = closed_potential("B1", params).u
    assert f"u = {ratfn_to_str(u)}" in out.splitlines()
    assert f"B = {ratfn_to_str(build_family('B1', params).B)}" in out.splitlines()


def test_build_coincident_poles_exits_2(capsys):
    for family, params in [
        ("b1", '{"x0":"1","y0":"2","x1":"1","y1":"2"}'),
        ("b2", '{"x1":"1","y1":"2","x2":"1","y2":"2"}'),
        ("b2", '{"x1":"0","y1":"0"}'),  # a free pole on the pinned origin
        ("b3", '{"x1":"0","y1":"0"}'),
    ]:
        code, out, err = run_cli(capsys, "build", "--family", family, "--params", params)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "invalid-params",
                                   "message": "poles must be pairwise distinct"}


def test_build_b2_full_weight_vector_matches_basis_coordinates(capsys):
    # the suite's small b2 layout: poles at 0, 1 and i
    v1, v2 = laplace_constrained_numerator(((0, 0), (1, 0), (0, 1)))
    full = [2 * a - 3 * b for a, b in zip(v1, v2)]

    def build(weights):
        params = {"x1": "1", "y1": "0", "x2": "0", "y2": "1", "C": "1",
                  "weights_choice": [str(w) for w in weights]}
        return run_cli(capsys, "build", "--family", "b2", "--params", json.dumps(params))

    code, out, _ = build([2, -3])
    assert code == 0
    b_line = next(line for line in out.splitlines() if line.startswith("B = "))
    code, out_full, _ = build(full)
    assert code == 0
    assert b_line in out_full.splitlines()

    code, out, err = build([full[0] + 1, *full[1:]])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "invalid-params",
                               "message": "weight vector lies outside the solved family"}


def test_build_unknown_family_exits_2(capsys):
    code, _, err = run_cli(capsys, "build", "--family", "b9")
    assert code == 2
    assert "error" in json.loads(err.strip())


@pytest.mark.parametrize("family, params, key", [
    ("b0", '{"x2":"5"}', "x2"),
    ("b0", '{"zz":"1"}', "zz"),
    ("tsarev-1", '{"weights_choice":["1","0"]}', "weights_choice"),
])
def test_build_rejects_params_the_family_does_not_read(capsys, family, params, key):
    code, out, err = run_cli(capsys, "build", "--family", family, "--params", params)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "invalid-params",
                               "message": f"unknown parameter {key!r}"}


def test_build_rejects_float_rational_param(capsys):
    code, _, err = run_cli(capsys, "build", "--family", "b0",
                           "--params", '{"C": 0.5}')
    assert code == 2
    assert json.loads(err.strip())["error"] == "invalid-params"


def test_transform_const_seed_is_R2(capsys):
    code, out, _ = run_cli(capsys, "transform", "--family", "b0",
                           "--seed-kind", "const")
    assert code == 0
    # printed in the pole form of R, which is exactly the paper's R2
    B = build_family("B0", {"p0": 1, "q0": 0, "x0": 0, "y0": 0, "C": 1}).B
    _, R2 = closed_R("B0", {"x0": 0, "y0": 0, "C": 1})
    assert f"Y_tilde = {ratfn_to_str(R2)}" in out
    assert (R2 - R_coeffs(B)[1]).is_zero()
    assert "schrodinger: pass" in out


def test_transform_re_degree_2(capsys):
    code, out, _ = run_cli(capsys, "transform", "--family", "b1",
                           "--seed-kind", "re", "--degree", "2",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schrodinger"] == "pass"
    assert payload["degree"] == 2


def test_transform_im_seed(capsys):
    code, out, _ = run_cli(capsys, "transform", "--family", "b0",
                           "--seed-kind", "im", "--degree", "1")
    assert code == 0
    assert "schrodinger: pass" in out


@pytest.mark.parametrize("key", sorted(TRANSFORM_TEXTS))
def test_transform_text_matches_the_recorded_text(capsys, key):
    family, kind, *degree = key.split(":")
    argv = ["transform", "--family", family, "--format", "json", "--seed-kind", kind]
    code, out, err = run_cli(capsys, *argv, *(["--degree", *degree] if degree else []))
    assert {"exit": code, "stdout": out} == TRANSFORM_TEXTS[key]
    assert err == ""


@pytest.mark.parametrize("family", [*sorted(FAMILY_KEYS), *sorted(PRESETS)])
@pytest.mark.parametrize("kind", ["const", "re", "im"])
def test_transform_prints_the_transform_on_the_papers_R(capsys, monkeypatch, family, kind):
    # the command transforms on the pole form of R; its Y~ must be exactly
    # the one the paper's R_coeffs(B) gives
    printed = []

    def recording(B, pair, R=None):
        out = transform_solution(B, pair, R=R)
        printed.append(out.Y_tilde)
        return out

    monkeypatch.setattr(cli, "transform_solution", recording)
    code, out, _ = run_cli(capsys, "transform", "--family", family,
                           "--seed-kind", kind, "--degree", "3")
    (Y_tilde,) = printed
    assert (code, out) == (0, f"Y_tilde = {ratfn_to_str(Y_tilde)}\nschrodinger: pass\n")
    if family in PRESETS:
        sol = build_preset(family)
    else:
        sol = build_family(FAMILY_KEYS[family], DEFAULT_PARAMS[FAMILY_KEYS[family]])
    expected = transform_solution(sol.B, cli._seed_pair(kind, 3)).Y_tilde
    assert (Y_tilde - expected).is_zero()


def test_transform_negative_degree_exits_2(capsys):
    code, _, err = run_cli(capsys, "transform", "--family", "b0",
                           "--seed-kind", "re", "--degree", "-1")
    assert code == 2
    assert json.loads(err.strip())["error"] == "invalid-params"


def test_transform_tanh_exits_2(capsys):
    code, _, err = run_cli(capsys, "transform", "--family", "tanh")
    assert code == 2


def test_grid_center_value(capsys):
    code, out, err = run_cli(capsys, "grid", "--family", "b0",
                             "--x", "-2:2:5", "--y", "0:0:1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 6
    center = lines[3].split(",")
    assert float(center[0]) == 0.0 and float(center[2]) == -8.0
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary == {"points": 5, "nonfinite": 0}


def test_grid_tsarev1_single_point(capsys):
    code, out, _ = run_cli(capsys, "grid", "--family", "tsarev-1",
                           "--x", "0:0:1", "--y", "0:0:1")
    assert code == 0
    value = float(out.strip().splitlines()[1].split(",")[2])
    assert value == -0.2


def _value_by_terms(f, x: Fraction, y: Fraction) -> Fraction:
    """Oracle: ``f`` as plain Fraction sums over the terms of its polynomials."""

    def poly(p):
        return sum(
            (Fraction(c, p.denom) * x**i * y**j for (i, j), c in p.terms.items()), Fraction(0)
        )

    value = poly(f.num)
    for g, e in f.factors:
        value *= poly(g) ** e
    return value


def test_grid_round_trip_matches_exact_eval(capsys):
    cases = [
        ("b1", "-1:1:7", "-1:1:5", build_family("B1", DEFAULT_PARAMS["B1"])),
        # x and y ranges differ, so a row/column swap fails
        ("tsarev-2", "-1:2:7", "-3:1:5", build_preset("tsarev-2")),
    ]
    for family, x_axis, y_axis, sol in cases:
        code, out, _ = run_cli(capsys, "grid", "--family", family,
                               "--x", x_axis, "--y", y_axis)
        assert code == 0
        u = closed_potential(sol.family_tag, sol.params).u
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 35
        for row in rows:
            xs, ys, vs = row.split(",")
            x, y, v = float(xs), float(ys), float(vs)
            exact = _value_by_terms(u, Fraction(x), Fraction(y))
            assert v == float(exact)  # bit-for-bit round trip


@pytest.mark.parametrize("key", sorted(GRID_TEXTS))
def test_grid_output_matches_the_recorded_digest(capsys, key):
    recorded = GRID_TEXTS[key]
    code, out, err = run_cli(capsys, *recorded["argv"])
    assert (code, err) == (recorded["exit"], recorded["stderr"])
    assert hashlib.sha256(out.encode()).hexdigest() == recorded["sha256"]


def test_grid_y_outer_loop_order(capsys):
    code, out, _ = run_cli(capsys, "grid", "--family", "b0",
                           "--x", "0:1:2", "--y", "0:1:2")
    rows = [r.split(",")[:2] for r in out.strip().splitlines()[1:]]
    assert rows == [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]


def test_grid_single_point_needs_equal_bounds(capsys):
    code, _, err = run_cli(capsys, "grid", "--family", "b0",
                           "--x", "-2:2:1", "--y", "0:0:1")
    assert code == 2
    assert json.loads(err.strip())["error"] == "invalid-grid"


@pytest.mark.parametrize("family", [*sorted(FAMILY_KEYS), *sorted(PRESETS), "tanh"])
@pytest.mark.parametrize("x, y", [
    ("0:inf:3", "0:1:2"),  # an infinite end
    ("-inf:inf:3", "0:1:2"),  # the middle point is nan
    ("0:1:2", "0:inf:3"),  # an infinite end, on the y axis
])
def test_grid_rejects_a_nonfinite_axis_point(capsys, family, x, y):
    code, out, err = run_cli(capsys, "grid", "--family", family, "--x", x, "--y", y)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "invalid-grid",
                               "message": "every grid point must be a finite float"}


@pytest.mark.parametrize("family", [*sorted(FAMILY_KEYS), *sorted(PRESETS), "tanh"])
@pytest.mark.parametrize("axis, text, points", [
    pytest.param(0, "-1.7e308:1.7e308:2", [-1.7e308, 1.7e308], id="x-endpoints"),
    pytest.param(1, "-1e308:1e308:3", [-1e308, 0.0, 1e308], id="y-three-points"),
    pytest.param(0, "0:1e308:3", [0.0, 5e307, 1e308], id="x-span-times-steps"),
    pytest.param(1, "0:1e308:3", [0.0, 5e307, 1e308], id="y-span-times-steps"),
])
def test_grid_axis_whose_span_overflows_keeps_its_points(capsys, family, axis, text, points):
    # hi - lo, or (hi - lo) * (count - 1), overflows to inf, yet every point
    # of the axis is a finite double
    x, y = (text, "0:1:2") if axis == 0 else ("0:1:2", text)
    code, out, err = run_cli(capsys, "grid", "--family", family, f"--x={x}", f"--y={y}")
    assert code == 0
    column = [float(line.split(",")[axis]) for line in out.splitlines()[1:]]
    assert list(dict.fromkeys(column)) == points
    assert json.loads(err)["points"] == 2 * len(points)


def test_grid_malformed_axis(capsys):
    code, _, err = run_cli(capsys, "grid", "--family", "b0",
                           "--x", "1:2", "--y", "0:0:1")
    assert code == 2


def test_grid_rejects_nonpositive_C(capsys):
    code, _, err = run_cli(capsys, "grid", "--family", "b0",
                           "--params", '{"C":"0"}',
                           "--x", "-1:1:3", "--y", "-1:1:3")
    assert code == 2
    assert json.loads(err.strip())["error"] == "invalid-params"


def test_grid_nonfinite_values_become_nulls(capsys):
    # the squared coordinate overflows to inf, and inf * sech^2 -> nan
    code, out, err = run_cli(capsys, "grid", "--family", "tanh",
                             "--x", "0:1e200:2", "--y", "0:0:1",
                             "--format", "json")
    assert code == 0
    triples = json.loads(out)
    assert len(triples) == 2
    assert triples[0][2] is not None
    assert triples[1][2] is None
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary == {"points": 2, "nonfinite": 1}


def test_grid_rational_overflow_nulls_only_that_point(capsys):
    # C = 10^-400: u = -8/C overflows at the origin, and -8C underflows to -0
    C = "1/1" + "0" * 400
    code, out, err = run_cli(capsys, "grid", "--family", "b0",
                             "--x", "-1:1:3", "--y", "0:0:1",
                             "--params", json.dumps({"C": C}))
    assert code == 0
    assert out == "x,y,value\n-1,0,-0\n0,0,\n1,0,-0\n"
    assert json.loads(err) == {"points": 3, "nonfinite": 1}


def _float_or_nan(v: Fraction) -> float:
    try:
        return float(v)
    except OverflowError:
        return math.nan


_grid_points = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.floats(min_value=-3, max_value=3).map(Fraction),
)


@given(
    st.sampled_from([Fraction(1), Fraction(-3, 7), Fraction(10**400), Fraction(-1, 10**400),
                     Fraction(1, 3 * 10**320)]),
    st.lists(_grid_points, max_size=6),
    _grid_points,
)
@settings(max_examples=60, deadline=None)
def test_grid_rounding_matches_float_of_the_exact_value(scale, row, y):
    # a denominator negative everywhere; the row holds y, where the value is
    # an exact zero over it; a huge or tiny scale overflows or underflows
    f = RatFn((X - Y) * scale, -(X * X + Y * Y + 1)) / RatFn(ONE, X * X + 2)
    xs, y = [Fraction(x) for x in row] + [Fraction(y)], Fraction(y)
    ps, q = over_one_denominator(xs)
    rounded = list(map(cli._rounded, *f.eval_row(ps, q, y)))
    expected = [_float_or_nan(f.eval(x, y)) for x in xs]
    assert [v.hex() for v in rounded] == [v.hex() for v in expected]
    assert rounded[-1].hex() == "0x0.0p+0"


@pytest.mark.parametrize("params", [
    pytest.param('{"C1": "1/1%s"}' % ("0" * 200), id="C1-underflows"),  # C1^2 is 0
    pytest.param('{"C1": 1e400}', id="C1-inf"),  # JSON reads 1e400 as inf
    pytest.param('{"C2": 1e400}', id="C2-inf"),
    pytest.param('{"C1": "1%s"}' % ("0" * 400), id="C1-huge-rational"),
    pytest.param('{"C2": 1%s}' % ("0" * 400), id="C2-huge-int"),
])
@pytest.mark.parametrize("command", [
    pytest.param(("build",), id="build"),
    pytest.param(("grid", "--x", "-1:1:3", "--y", "0:1:2"), id="grid"),
])
def test_tanh_rejects_constants_outside_the_float_range(capsys, command, params):
    code, out, err = run_cli(capsys, *command, "--family", "tanh", "--params", params)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "invalid-params"


def test_grid_csv_nonfinite_empty_field(capsys):
    code, out, _ = run_cli(capsys, "grid", "--family", "tanh",
                           "--x", "1e200:1e200:1", "--y", "0:0:1")
    assert code == 0
    assert out.strip().splitlines()[1] == "9.9999999999999997e+199,0,"


def test_verify_single_target(capsys):
    code, out, _ = run_cli(capsys, "verify", "--targets", "spot:potentials",
                           "--seed", "7")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["check"] == "spot:potentials"
    assert reports[0]["verdict"] == "pass"


def test_verify_unknown_target_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--targets", "nope")
    assert code == 2


def test_verify_has_no_format_option(capsys):
    # verify always prints JSON; --format is a usage error, not ignored
    code, out, _ = run_cli(capsys, "verify", "--targets", "spot:potentials",
                           "--format", "csv")
    assert code == 2
    assert out == ""


def test_verify_unknown_family_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--family", "b9")
    assert code == 2


def test_verify_cap_overflow_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("DARBOUX_EXP_CAP", "8")
    code, _, err = run_cli(capsys, "verify", "--targets", "eq12:harmonic")
    assert code == 2
    assert json.loads(err.strip())["error"] == "exponent-cap-exceeded"


def test_verify_deterministic_output(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["verify", "--targets", "dim:b1,dim:b2", "--seed", "7",
                 "--out", str(out1)]) == 0
    assert main(["verify", "--targets", "dim:b1,dim:b2", "--seed", "7",
                 "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_progress_prints_one_stderr_line_per_target(capsys):
    argv = ["verify", "--targets", "smooth:b0,dim:b1,spot:potentials", "--seed", "7"]
    code, out, err = run_cli(capsys, *argv)
    code_p, out_p, err_p = run_cli(capsys, *argv, "--progress")
    assert (code, code_p, err) == (0, 0, "")
    assert out_p == out  # the report is the same byte for byte
    lines = [json.loads(line) for line in err_p.splitlines()]
    assert [line["target"] for line in lines] == ["smooth:b0", "dim:b1", "spot:potentials"]
    for line in lines:
        assert list(line) == ["target", "verdict", "seconds"]
        assert line["verdict"] == "pass" and line["seconds"] >= 0


def test_out_writes_file(capsys, tmp_path):
    path = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, "grid", "--family", "b0",
                         "--x", "0:1:2", "--y", "0:0:1", "--out", str(path))
    assert code == 0
    assert path.read_text().startswith("x,y,value\n")


@pytest.mark.parametrize("argv", [
    pytest.param(("build", "--family", "b0"), id="build"),
    pytest.param(("verify", "--targets", "spot:potentials"), id="verify"),
    pytest.param(("transform", "--family", "b0"), id="transform"),
    pytest.param(("grid", "--family", "b0", "--x", "0:1:2", "--y", "0:0:1"), id="grid"),
])
def test_unwritable_out_exits_2_with_one_json_line(capsys, tmp_path, argv):
    # exit 1 means a check failed; an output path that cannot be written is
    # a usage error
    path = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "invalid-output"
    assert not path.exists()


@pytest.mark.parametrize("targets", ["", ",,", " , "])
def test_verify_targets_naming_no_target_exits_2(capsys, tmp_path, monkeypatch, targets):
    # an empty --targets is a usage error, not a request for all 31 targets
    def no_suite(*args):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(cli, "run_suite", no_suite)
    path = tmp_path / "out.json"
    code, out, err = run_cli(capsys, "verify", "--targets", targets, "--out", str(path))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "invalid-params"
    assert not path.exists()


def test_verify_checks_targets_then_out_before_running_the_suite(capsys, tmp_path, monkeypatch):
    # the whole suite takes seconds; a bad target or --out must fail first
    def no_suite(*args):
        raise AssertionError("the suite ran before --out was checked")

    monkeypatch.setattr(cli, "run_suite", no_suite)
    path = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, "verify", "--family", "all", "--seed", "7",
                             "--out", str(path))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "invalid-output"
    # a bad target name is still reported as such, before the output path
    code, out, err = run_cli(capsys, "verify", "--targets", "nope", "--out", str(path))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "invalid-params"
    assert not path.exists()


@pytest.mark.parametrize("field", ["u", "B"])
@pytest.mark.parametrize("params, C1, C2", [
    pytest.param(None, 1.0, 0.0, id="defaults"),
    pytest.param('{"C1": "3/2", "C2": -0.25}', 1.5, -0.25, id="C1-1.5-C2-neg0.25"),
])
def test_tanh_grid_is_sampled_like_the_suite(capsys, field, params, C1, C2):
    # one array call per row, as `fd_residual` samples; compared in this
    # process, so against the same numpy build and SIMD level
    argv = ["grid", "--family", "tanh", "--field", field,
            "--x", "-2:2:101", "--y", "-2:2:101"]
    code, out, _ = run_cli(capsys, *argv, *(("--params", params) if params else ()))
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    xs = np.array([float(x) for x, _, _ in rows[:101]])
    ys = np.array([float(y) for _, y, _ in rows[::101]])
    B_s, u = build_tanh(C1, C2)
    f = B_s if field == "B" else u
    by_rows = np.concatenate([f(xs, float(y)) for y in ys])
    sampled = verify._sample(f, xs, ys).ravel()
    emitted = [float(v).hex() for _, _, v in rows]
    assert emitted == [v.hex() for v in by_rows.tolist()]
    assert emitted == [v.hex() for v in sampled.tolist()]


def test_overflowing_tanh_grid_writes_one_stderr_line():
    # x*x overflows at 1e200; numpy must not print a RuntimeWarning
    proc = subprocess.run(
        [sys.executable, "-m", "darboux2d.cli", "grid", "--family", "tanh",
         "--x=-1e200:1e200:3", "--y=0:1:2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr) == {"points": 6, "nonfinite": 4}


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "darboux2d.cli", "build", "--family", "b0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "B = " in proc.stdout


def test_malformed_exponent_cap_is_a_json_diagnostic_in_a_fresh_process():
    # the cap is read when a product is formed, not while the package is
    # imported, so a bad value reaches main's error handling
    proc = subprocess.run(
        [sys.executable, "-m", "darboux2d.cli", "build", "--family", "b0"],
        capture_output=True, text=True, env={**os.environ, "DARBOUX_EXP_CAP": "abc"},
    )
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "invalid-params"


def test_usage_error_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    capsys.readouterr()
