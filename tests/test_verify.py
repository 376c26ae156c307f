"""Certification engine tests (kept light; the heavy battery is the
acceptance suite)."""

import dataclasses
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from darboux2d import families, verify
from darboux2d.cli import main
from darboux2d.darboux import TransformOutput, potential_from_B, transform_solution
from darboux2d.families import (
    DEFAULT_PARAMS,
    ClosedPotential,
    build_family,
    build_preset,
    closed_potential,
)
from darboux2d.harmonic import harmonic_basis
from darboux2d.polyrat import ONE, X, Y, BiPoly, ExponentCapError, RatFn
from darboux2d.verify import (
    ALL_TARGETS,
    GridSpec,
    ResidualReport,
    _draw_params,
    _sample,
    check_eq12,
    check_new_potential_system,
    check_schrodinger,
    fd_residual,
    run_suite,
    targets_for_family,
)

B0_PARAMS = {"p0": 1, "q0": 0, "x0": 0, "y0": 0, "C": 1}


def test_check_eq12_passes_for_harmonic():
    rep = check_eq12(RatFn.from_poly(X ** 3 - 3 * X * Y ** 2))
    assert rep.passed
    assert rep.mode == "exact"
    assert rep.detail["residual_terms"] == 0
    for info in rep.detail["residuals"]:
        assert info["terms"] == 0


def test_check_eq12_fails_for_x_squared():
    rep = check_eq12(RatFn.from_poly(X * X))
    assert not rep.passed
    first, second = rep.detail["residuals"]
    # the first expression survives as a pure x^3 multiple; the second
    # vanishes identically for this B
    assert first["terms"] == 1 and first["degree"] == 3
    assert second["terms"] == 0


def test_check_eq12_rejects_constant():
    with pytest.raises(ValueError):
        check_eq12(RatFn.from_poly(ONE))


def test_constant_B_is_rejected_from_the_gradient_with_each_message():
    # a constant with a nonunit denominator: constancy is read from B's
    # derivatives, not from the form of B
    B = RatFn(BiPoly.const(3), BiPoly.const(7))
    with pytest.raises(ValueError, match="only posed for nonconstant B"):
        check_eq12(B)
    out = TransformOutput(B, B, B)
    with pytest.raises(ValueError, match="only defined for nonconstant B"):
        check_new_potential_system(B, out)


def test_check_eq12_reciprocal_and_scaling():
    B = build_family("B0", B0_PARAMS).B
    assert check_eq12(RatFn(B.den, B.num)).passed
    assert check_eq12(Fraction(7, 3) * B).passed


def test_check_schrodinger_pass_and_fail():
    B = build_family("B0", B0_PARAMS).B
    u = closed_potential("B0", {"x0": 0, "y0": 0, "C": 1}).u
    out = transform_solution(B, harmonic_basis(1)[1])
    assert check_schrodinger(out.Y_tilde, u).passed
    bad = check_schrodinger(RatFn.from_poly(X), RatFn.from_poly(ONE))
    assert not bad.passed
    assert bad.detail["residual_terms"] > 0


def test_check_new_potential_system_certifies_transform():
    B = build_family("B0", B0_PARAMS).B
    out = transform_solution(B, harmonic_basis(2)[2])
    assert check_new_potential_system(B, out).passed


# -- negative controls: each exact check must reject a perturbed input ------


def test_check_eq12_negative_control_b0_plus_x_squared():
    B = build_family("B0", B0_PARAMS).B
    assert check_eq12(B).passed
    assert not check_eq12(B + X * X).passed


def _eq12_written_out(B: RatFn) -> list[RatFn]:
    """The two closure-system residuals, every product written out."""
    Bx, By = B.diff("x"), B.diff("y")
    Bxx, Bxy, Byy = Bx.diff("x"), Bx.diff("y"), By.diff("y")
    lap, delta, grad2 = Bxx + Byy, Bxx - Byy, Bx * Bx + By * By
    e1 = B * grad2 * lap.diff("x") - (
        2 * (B * By * Bxy) + B * Bx * delta + Bx * grad2
    ) * lap
    e2 = B * grad2 * lap.diff("y") - (
        2 * (B * Bx * Bxy) - B * By * delta + By * grad2
    ) * lap
    return [e1, e2]


@pytest.mark.parametrize(
    "B, counts",
    [
        (build_preset("tsarev-1").B, [(978, 43), (980, 43)]),
        (build_family("B0", DEFAULT_PARAMS["B0"]).B, [(45, 19), (44, 19)]),
    ],
    ids=["tsarev-1", "B0"],
)
def test_guard_eq12_fails_on_squared_denominator(B, counts, monkeypatch):
    # B.num / B.den^2 solves neither equation; unlike the polynomial controls
    # above, every product carries a power of the denominator as a factor
    bad = RatFn(B.num, B.den * B.den)
    seen = []
    report = verify._exact_report
    monkeypatch.setattr(
        verify, "_exact_report", lambda name, rs: seen.append(rs) or report(name, rs)
    )
    rep = check_eq12(bad)
    assert rep.verdict == "fail"
    assert [(r["terms"], r["degree"]) for r in rep.detail["residuals"]] == counts
    # the shared products give the written-out residuals over the same factors
    (residuals,) = seen
    for got, want in zip(residuals, _eq12_written_out(bad), strict=True):
        assert got.num == want.num and got.factors == want.factors


def _b0_re_z2_transform():
    B = build_family("B0", B0_PARAMS).B
    return B, transform_solution(B, harmonic_basis(2)[2])


def test_check_schrodinger_negative_control_shifted_potential():
    B, out = _b0_re_z2_transform()
    u = potential_from_B(B)
    assert check_schrodinger(out.Y_tilde, u).passed
    assert not check_schrodinger(out.Y_tilde, u + 1).passed


def test_check_new_potential_system_negative_control():
    B, out = _b0_re_z2_transform()
    # the system sees Q~ only through its derivatives, so Q~ + 1 is an
    # equally valid partner, and Q~ + x is not
    shifted = TransformOutput(out.Y_tilde, out.W_tilde, out.Q_tilde + 1)
    assert check_new_potential_system(B, shifted).passed
    tilted = TransformOutput(out.Y_tilde, out.W_tilde, out.Q_tilde + X)
    assert not check_new_potential_system(B, tilted).passed
    lifted = TransformOutput(out.Y_tilde, out.W_tilde + 1, out.Q_tilde)
    assert not check_new_potential_system(B, lifted).passed


def test_dim_guard_failure_is_a_fail_verdict(monkeypatch):
    real = families._pole_B

    def skewed(roots, weights, C):
        B = real(roots, weights, C)
        return RatFn(B.num + X * X, B.den)

    monkeypatch.setattr(families, "_pole_B", skewed)
    (rep,) = run_suite(["dim:b1"], seed=7)
    assert rep.verdict == "fail"
    assert [c["explicit_in_span"] for c in rep.detail["cases"]] == [False] * 4


def test_dim_guard_fails_when_b1_weights_leave_the_span(monkeypatch):
    # every B1 still builds, but a solved span of equal weights at both
    # poles does not hold B1's weights, which are opposite
    def same_sign_basis(poles):
        return [(1, 0, 1, 0), (0, 1, 0, 1)]

    monkeypatch.setattr(verify, "laplace_constrained_numerator", same_sign_basis)
    (rep,) = run_suite(["dim:b1"], seed=7)
    assert rep.verdict == "fail"
    assert [c["explicit_in_span"] for c in rep.detail["cases"]] == [False] * 4


def test_dim_guard_lets_exponent_cap_through(monkeypatch):
    def capped(roots, weights, C):
        raise ExponentCapError("monomial above the cap")

    monkeypatch.setattr(families, "_pole_B", capped)
    with pytest.raises(ExponentCapError):
        run_suite(["dim:b1"], seed=7)
    assert main(["verify", "--targets", "dim:b1"]) == 2


def test_smooth_fails_when_the_denominator_dips_below_C(monkeypatch):
    # b0 has C = 1; each denominator reaches 1/2 < C at one lattice point:
    # the origin, the lattice centre, and (18, -2/5), off centre at odd
    # lattice indices (95, 49), which a loop that skips rows or points misses
    half = Fraction(1, 2)
    for den in (X * X + Y * Y + half, (X - 18) ** 2 + (Y + Fraction(2, 5)) ** 2 + half):
        fake = ClosedPotential(u=RatFn(BiPoly.const(-8), den) / den)
        monkeypatch.setattr(verify, "closed_potential", lambda tag, params: fake)
        (rep,) = run_suite(["smooth:b0"], seed=7)
        assert rep.verdict == "fail"
        assert rep.detail["min_denominator"] == 0.25
        assert rep.detail["bound"] == 1.0


@pytest.mark.parametrize("key", ["b1", "b2", "b3"])
def test_guard_smooth_fails_when_the_denominator_is_lowered_by_half_C(monkeypatch, key):
    # each family has a pole at the origin, a lattice point where M = 0, so
    # M + C/2 reaches C/2 < C there
    (rep,) = run_suite([f"smooth:{key}"], 7)
    assert rep.verdict == "pass"
    real = verify.closed_potential

    def lowered(tag, params):
        closed = real(tag, params)
        ((den, _),) = closed.u.factors
        low = den - Fraction(params["C"]) / 2
        return dataclasses.replace(closed, u=RatFn(closed.u.num, low) / low)

    monkeypatch.setattr(verify, "closed_potential", lowered)
    (rep,) = run_suite([f"smooth:{key}"], 7)
    assert rep.verdict == "fail"
    C = Fraction(families.DEFAULT_PARAMS[families.FAMILY_KEYS[key]]["C"])
    assert rep.detail["min_denominator"] == float((C / 2) ** 2)


@pytest.mark.parametrize("key", ["b1", "b2"])
def test_guard_dim_fails_on_every_case_with_one_vector_fewer(monkeypatch, key):
    (rep,) = run_suite([f"dim:{key}"], 7)
    assert rep.verdict == "pass"
    real = verify.laplace_constrained_numerator
    monkeypatch.setattr(verify, "laplace_constrained_numerator",
                        lambda poles: real(poles)[:-1])
    (rep,) = run_suite([f"dim:{key}"], 7)
    assert rep.verdict == "fail"
    assert [(c["dimension"], c["verdict"]) for c in rep.detail["cases"]] == [(1, "fail")] * 4


# the first parameter draw of each family at seed 7, fixed so that a change
# in the order of RNG calls shows
FIRST_EQ12_DRAWS = {
    "B0": {"p0": "-3", "q0": "-16/7", "x0": "11/18", "y0": "-2/3", "C": "19/18"},
    "B1": {"p0": "-4", "q0": "1/2", "x0": "8/5", "y0": "1/6", "x1": "17/4",
           "y1": "10/19", "C": "1/5"},
    "B2": {"weights_choice": ("-13/7", "-7/15"), "x1": "4/19", "y1": "-4",
           "x2": "4/13", "y2": "-3", "C": "13/7"},
    "B3": {"p1": "-1", "q1": "-12/13", "x1": "1/2", "y1": "1/8", "C": "8/3"},
}


@pytest.mark.parametrize("tag", sorted(FIRST_EQ12_DRAWS))
def test_first_draw_of_each_family_is_pinned(tag):
    params = _draw_params(tag, random.Random(f"7:eq12:{tag.lower()}"))
    text = {k: tuple(map(str, v)) if isinstance(v, tuple) else str(v)
            for k, v in params.items()}
    assert text == FIRST_EQ12_DRAWS[tag]
    assert list(params) == list(FIRST_EQ12_DRAWS[tag])


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec((-1.0, 1.0), (-1.0, 1.0), nx=1, ny=5)
    with pytest.raises(ValueError):
        GridSpec((1.0, -1.0), (-1.0, 1.0), nx=5, ny=5)
    g = GridSpec((-1.0, 1.0), (0.0, 2.0), nx=3, ny=5)
    xs, ys = g.axes()
    assert list(xs) == [-1.0, 0.0, 1.0]
    assert len(ys) == 5


def _b0_closures():
    B = build_family("B0", B0_PARAMS).B
    u = closed_potential("B0", {"x0": 0, "y0": 0, "C": 1}).u
    return (lambda x, y: u.eval_float(x, y)), (lambda x, y: B.eval_float(x, y))


def test_sample_rows_match_pointwise_eval():
    B = build_family("B0", B0_PARAMS).B
    u = closed_potential("B0", {"x0": 0, "y0": 0, "C": 1}).u
    grid41 = GridSpec((-2.0, 2.0), (-2.0, 2.0), nx=41, ny=41)
    # factors squared and cubed; no point of the 40 x 40 grid is a zero of B
    grid40 = GridSpec((-2.0, 2.0), (-2.0, 2.0), nx=40, ny=40)
    cases = [(B, grid41), (u, grid41)] + [
        (potential_from_B(build_family(tag, DEFAULT_PARAMS[tag]).B), grid40)
        for tag in ("B1", "B3")
    ]
    for f, grid in cases:
        xs, ys = grid.axes()
        oracle = np.empty((len(ys), len(xs)))
        for i, y in enumerate(ys):
            for j, x in enumerate(xs):
                oracle[i, j] = f.eval_float(float(x), float(y))
        assert _sample(f.eval_float, xs, ys).tobytes() == oracle.tobytes()



def test_blocked_sampling_matches_one_row_per_call():
    u0 = closed_potential("B0", DEFAULT_PARAMS["B0"]).u
    B0 = build_family("B0", DEFAULT_PARAMS["B0"]).B
    B_s, u_t = families.build_tanh(1.0, 0.0)
    # poles on the axes, grid lines of both grids: inf, and nan at (-1, 0)
    pole = RatFn(X + 1, X * Y)
    pairs = {  # the fd:order pair, the tanh:fd pair, and a field with poles
        "fd:order": (u0.eval_float, B0.eval_float),
        "tanh:fd": (u_t, B_s),
        "pole": (pole.eval_float, (X * Y).eval_float),
    }
    for n in (401, 801):  # neither is a multiple of the block size
        xs, ys = GridSpec((-2.0, 2.0), (-2.0, 2.0), n, n).axes()
        for name, fields in pairs.items():
            for f in fields:
                with np.errstate(all="ignore"):
                    blocked = _sample(f, xs, ys)
                    oracle = np.stack([f(xs, float(y)) for y in ys])
                assert blocked.tobytes() == oracle.tobytes(), (name, n)
        with np.errstate(all="ignore"):
            grid = _sample(pole.eval_float, xs, ys)
        assert np.isinf(grid).any() and np.isnan(grid).any()

def test_fd_residual_orders():
    uc, Yc = _b0_closures()
    grid = GridSpec((-2.0, 2.0), (-2.0, 2.0), nx=101, ny=101)
    rep2 = fd_residual(uc, Yc, grid, order=2, tol=1e-2)
    rep4 = fd_residual(uc, Yc, grid, order=4, tol=1e-4)
    assert rep2.passed and rep4.passed
    assert rep4.detail["max_residual"] < rep2.detail["max_residual"]
    with pytest.raises(ValueError):
        fd_residual(uc, Yc, grid, order=3)


def test_fd_residual_catches_wrong_potential():
    uc, Yc = _b0_closures()
    grid = GridSpec((-2.0, 2.0), (-2.0, 2.0), nx=101, ny=101)
    rep = fd_residual(lambda x, y: 2.0 * uc(x, y), Yc, grid, order=4, tol=1e-4)
    assert not rep.passed


def test_fd_residual_exclusions_and_nonfinite():
    # Y = 1/r^2 solves lap(Y) = (4/r^2) Y and is infinite at the origin, a
    # grid point: the origin and the four stencils that reach it are skipped
    def Y(x, y):
        return 1.0 / (x * x + y * y)

    def u(x, y):
        return 4.0 / (x * x + y * y)

    grid = GridSpec((-1.0, 1.0), (-1.0, 1.0), nx=21, ny=21)
    rep = fd_residual(u, Y, grid, order=2, tol=math.inf)
    assert rep.detail["skipped_points"] == 5
    assert math.isfinite(rep.detail["max_residual"])
    with pytest.raises(ValueError):
        fd_residual(u, lambda x, y: np.full_like(x, np.nan), grid, order=2)


def test_transform_target_fails_on_broken_operator(monkeypatch):
    # the suite's w residual is the one check of W~ = B Y~
    real = verify.transform_solution

    def off_by_one(*args, **kwargs):
        out = real(*args, **kwargs)
        return dataclasses.replace(out, W_tilde=out.W_tilde + 1)

    monkeypatch.setattr(verify, "transform_solution", off_by_one)
    (rep,) = run_suite(["transform:b0"], 7)
    assert rep.verdict == "fail"


def _lift_C(real):
    """``real`` (a closed form taking (tag, params)) at C + 1."""
    return lambda tag, params: real(tag, {**params, "C": params["C"] + 1})


def test_guard_transform_fails_on_a_perturbed_closed_R(monkeypatch):
    # the seeds run on the pole form of R; its one zero test against the
    # paper's R joins every case, so a wrong pole form fails all eight
    (rep,) = run_suite(["transform:b1"], 7)
    assert rep.verdict == "pass"
    monkeypatch.setattr(verify, "closed_R", _lift_C(verify.closed_R))
    (rep,) = run_suite(["transform:b1"], 7)
    assert rep.verdict == "fail"
    assert [c["verdict"] for c in rep.detail["cases"]] == ["fail"] * 8


@pytest.mark.parametrize("target", ["potential:b0", "potential:b1", "potential:b2",
                                    "potential:b3", "potential:tsarev-1:b1", "ufromh:b0"])
def test_guard_potential_fails_on_the_transcription_at_C_plus_1(monkeypatch, target):
    (rep,) = run_suite([target], 7)
    assert rep.verdict == "pass"
    monkeypatch.setattr(verify, "closed_potential", _lift_C(verify.closed_potential))
    (rep,) = run_suite([target], 7)
    assert rep.verdict == "fail"
    assert all(c["verdict"] == "fail" for c in rep.detail.get("cases", []))


@pytest.mark.parametrize("key", ["b0", "b1", "b2", "b3"])
def test_guard_eq12_target_fails_on_every_draw_of_N_over_D_squared(monkeypatch, key):
    (rep,) = run_suite([f"eq12:{key}"], 7)
    assert rep.verdict == "pass"
    real = verify.build_family

    def squared(tag, params):
        sol = real(tag, params)
        return dataclasses.replace(sol, B=RatFn(sol.B.num, sol.B.den * sol.B.den))

    monkeypatch.setattr(verify, "build_family", squared)
    (rep,) = run_suite([f"eq12:{key}"], 7)
    assert rep.verdict == "fail"
    assert [c["verdict"] for c in rep.detail["cases"]] == ["fail"] * 15


def test_guard_spot_values_fail_at_C_plus_1(monkeypatch):
    (rep,) = run_suite(["spot:potentials"], 7)
    assert rep.verdict == "pass"
    monkeypatch.setattr(verify, "closed_potential", _lift_C(verify.closed_potential))
    (rep,) = run_suite(["spot:potentials"], 7)
    assert rep.verdict == "fail"
    # u3(0, 0) is 0 at any C
    assert [c["verdict"] for c in rep.detail["cases"]] == ["fail"] * 4 + ["pass"]


@pytest.mark.parametrize("key", ["b0", "b1", "b2", "b3"])
def test_guard_decay_fails_on_one_power_of_D(monkeypatch, key):
    (rep,) = run_suite([f"decay:{key}"], 7)
    assert rep.verdict == "pass"
    real = verify.closed_potential

    def one_power(tag, params):
        closed = real(tag, params)
        ((den, _),) = closed.u.factors
        return dataclasses.replace(closed, u=RatFn(closed.u.num, den))

    monkeypatch.setattr(verify, "closed_potential", one_power)
    (rep,) = run_suite([f"decay:{key}"], 7)
    assert rep.verdict == "fail"
    assert all(abs(s + 2) < 0.1 for s in rep.detail["slopes"])  # u ~ r^-2


def test_tsarev2_potential_fails_on_a_shifted_pole(monkeypatch):
    # the target compares the exact pipeline with the surd-valued closed
    # form; moving one pole by 1e-6 must show at the 1e-9 tolerance
    (rep,) = run_suite(["potential:tsarev-2:b2"], 7)
    assert rep.verdict == "pass"
    real = verify.build_preset

    def shifted(name, **extra):
        x1 = families.PRESETS[name].params["x1"] + Fraction(1, 10**6)
        return real(name, **{**extra, "x1": x1})

    monkeypatch.setattr(verify, "build_preset", shifted)
    (rep,) = run_suite(["potential:tsarev-2:b2"], 7)
    assert rep.verdict == "fail"
    assert rep.detail["max_residual"] > 1e-7


def test_run_suite_is_deterministic():
    targets = ["spot:potentials", "dim:b1", "eq12:counterexample"]
    a = run_suite(targets, seed=11)
    b = run_suite(targets, seed=11)
    assert json.dumps([r.to_json() for r in a], sort_keys=True) == json.dumps(
        [r.to_json() for r in b], sort_keys=True
    )
    # reports come back sorted by name
    assert [r.check_name for r in a] == sorted(targets)


def test_run_suite_names_each_report_after_its_target(monkeypatch):
    monkeypatch.setitem(verify._TARGETS, "eq12:alias", verify._TARGETS["eq12:b0"])
    (rep,) = run_suite(["eq12:alias"], seed=5)
    assert rep.check_name == "eq12:alias"
    assert rep.seed == 5
    assert rep.passed


def test_run_suite_reports_do_not_depend_on_the_other_targets():
    targets = ["tanh:ufromh", "dim:b1", "eq12:b0", "potential:tsarev-2:b2",
               "spot:potentials"]

    def text(rep):
        return json.dumps(dataclasses.asdict(rep), sort_keys=True, default=str)

    alone = {t: text(rep) for t in targets for (rep,) in [run_suite([t], seed=11)]}
    together = {r.check_name: text(r) for r in run_suite(targets[::-1], seed=11)}
    assert together == alone


def test_run_suite_rejects_unknown_target():
    with pytest.raises(ValueError):
        run_suite(["nope:never"], seed=0)


def test_targets_for_family():
    assert targets_for_family("all") == list(ALL_TARGETS)
    with pytest.raises(ValueError):
        targets_for_family("b7")


@pytest.mark.parametrize("family, targets", [
    ("b0", ["eq12:b0", "potential:b0", "transform:b0", "ufromh:b0", "decay:b0",
            "smooth:b0"]),
    ("b1", ["eq12:b1", "potential:b1", "potential:tsarev-1:b1", "transform:b1",
            "decay:b1", "smooth:b1", "dim:b1"]),
    ("b2", ["eq12:b2", "potential:b2", "potential:tsarev-2:b2", "transform:b2",
            "decay:b2", "smooth:b2", "dim:b2"]),
    ("b3", ["eq12:b3", "potential:b3", "transform:b3", "decay:b3", "smooth:b3"]),
    ("tanh", ["tanh:fd", "tanh:ufromh"]),
])
def test_targets_for_family_lists_each_family_in_run_order(family, targets):
    assert targets_for_family(family) == targets


@pytest.mark.parametrize("family", ["potential", "eq12", "tsarev-1", "fd", "harmonic"])
def test_targets_for_family_rejects_a_name_part_that_is_no_family(family):
    # each is a part of some target name, but no family key
    with pytest.raises(ValueError, match=f"no targets for family '{family}'"):
        targets_for_family(family)


def test_report_json_shape():
    (rep,) = run_suite(["eq12:counterexample"], seed=3)
    payload = rep.to_json()
    assert set(payload) == {
        "check", "mode", "verdict", "max_residual", "residual_terms",
        "params", "seed",
    }
    assert payload["check"] == "eq12:counterexample"
    assert payload["verdict"] == "pass"
    assert payload["seed"] == 3


def test_residual_report_passed_property():
    rep = ResidualReport(check_name="x", mode="exact", verdict="pass", detail={})
    assert rep.passed and rep.to_json()["max_residual"] is None


def _diff_dropping_cross_terms(self, var):
    """``RatFn.diff`` whose ``Psi`` drops ``Phi e f'`` for every factor that
    depends on ``var`` after the first."""
    top, phi, psi = self.num.diff(var), None, None
    factors = []
    for f, e in self.factors:
        df = f.diff(var)
        if df.terms:
            psi, phi = (df * e, f) if phi is None else (psi * f, phi * f)
            e -= 1
        if e:
            factors.append((f, e))
    if phi is not None:
        top = top * phi + self.num * psi
    return RatFn._of(top, factors)


def test_guard_transform_fails_when_diff_drops_a_cross_term(monkeypatch):
    # every Y~, W~ and Q~ of b1 has the factors |P'|^2 and D; the derivatives
    # of transform:b0 and of eq12:b0/b1 have one factor each, so only b1
    # takes the multi-factor path
    targets = ["eq12:b0", "eq12:b1", "transform:b0", "transform:b1"]
    assert [rep.verdict for rep in run_suite(targets, 7)] == ["pass"] * 4
    monkeypatch.setattr(RatFn, "diff", _diff_dropping_cross_terms)
    reports = {rep.check_name: rep for rep in run_suite(targets, 7)}
    assert [reports[t].verdict for t in targets] == ["pass", "pass", "pass", "fail"]
    assert [c["verdict"] for c in reports["transform:b1"].detail["cases"]] == ["fail"] * 8
