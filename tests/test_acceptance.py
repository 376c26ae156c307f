"""Acceptance gate.

One test per numbered criterion; each prints a single PASS/FAIL line (with
its pinned tolerance) to the live terminal and then asserts.  The full
certification battery runs once per session with a fixed seed, so the gate
is deterministic end to end, and its exact reports are compared with the
recorded seed-7 reports in ``tests/data``, and with recorded digests of the
exact reports at seeds 8 and 23.
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from darboux2d.verify import ALL_TARGETS, run_suite

ACCEPTANCE_SEED = 7
DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def reports():
    got = run_suite(list(ALL_TARGETS), seed=ACCEPTANCE_SEED)
    return {r.check_name: r for r in got}


def _announce(capfd, number: int, label: str, ok: bool) -> None:
    with capfd.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'}  criterion {number}: {label}")


def test_criterion_1_closure_system(reports, capfd):
    names = ["eq12:b0", "eq12:b1", "eq12:b2", "eq12:b3",
             "eq12:harmonic", "eq12:counterexample"]
    ok = all(reports[n].passed for n in names)
    # five draws, each with plain/scaled/reciprocal variants
    ok = ok and all(len(reports[f"eq12:b{i}"].detail["cases"]) == 15
                    for i in range(4))
    ok = ok and reports["eq12:counterexample"].detail["expected_failure"]
    _announce(capfd, 1,
              "closure system holds for all four families (5 draws each, "
              "c*B and 1/B variants) and harmonic Re z^k, k<=5; B=x^2 fails "
              "[tolerance: exact zero]", ok)
    assert ok


def test_criterion_2_potential_agreement(reports, capfd):
    names = ["potential:b0", "potential:b1", "potential:b2", "potential:b3",
             "potential:tsarev-1:b1", "potential:tsarev-2:b2"]
    ok = all(reports[n].passed for n in names)
    numeric = reports["potential:tsarev-2:b2"]
    ok = ok and numeric.detail["max_residual"] <= 1e-9
    _announce(capfd, 2,
              "derived potentials match transcribed closed forms "
              "[exact zero; tsarev-2 numeric <= 1e-9 relative at 25 points]",
              ok)
    assert ok


def test_criterion_3_solution_generation(reports, capfd):
    names = ["transform:b0", "transform:b1", "transform:b2", "transform:b3"]
    ok = all(reports[n].passed for n in names)
    # every family ran all seven polynomial seeds plus the constant seed
    ok = ok and all(len(reports[n].detail["cases"]) == 8 for n in names)
    _announce(capfd, 3,
              "transformed solutions satisfy the new equation and potential "
              "system for all seeds through degree 6 plus (0,1); W~=B*Y~ "
              "[tolerance: exact zero]", ok)
    assert ok


def test_criterion_4_tanh_family(reports, capfd):
    fd = reports["tanh:fd"]
    bridge = reports["tanh:ufromh"]
    ok = fd.passed and bridge.passed
    ok = ok and fd.detail["max_residual"] <= 1e-6 and fd.detail["order"] == 4
    ok = ok and bridge.detail["max_residual"] <= 1e-8
    _announce(capfd, 4,
              "tanh pair passes order-4 FD residual on [-2,2]^2 at h=0.01 "
              "[<= 1e-6] and the -ln B bridge at 100 points [<= 1e-8]", ok)
    assert ok


def test_criterion_5_spot_values(reports, capfd):
    rep = reports["spot:potentials"]
    ok = rep.passed and len(rep.detail["cases"]) == 5
    _announce(capfd, 5,
              "spot values: u0(0,0)=-8/C for three C, tsarev-1 u1(0,0)=-1/5, "
              "u3(0,0)=0 [tolerance: exact equality]", ok)
    assert ok


def test_criterion_6_decay_exponents(reports, capfd):
    names = ["decay:b0", "decay:b1", "decay:b2", "decay:b3"]
    ok = all(reports[n].passed for n in names)
    ok = ok and all(reports[n].detail["tolerance"] == 0.1 for n in names)
    _announce(capfd, 6,
              "radial log-log slopes at r in {1e2,1e3,1e4} equal "
              "-(4,6,8,10) [tolerance: +/-0.1]", ok)
    assert ok


def test_criterion_7_smoothness(reports, capfd):
    names = ["smooth:b0", "smooth:b1", "smooth:b2", "smooth:b3"]
    ok = all(reports[n].passed for n in names)
    _announce(capfd, 7,
              "potential denominators >= C^2 on the 101x101 grid over "
              "[-20,20]^2 [tolerance: exact rational comparison]", ok)
    assert ok


def test_criterion_8_two_parameter_family(reports, capfd):
    ok = reports["dim:b1"].passed and reports["dim:b2"].passed
    dims = [case["dimension"]
            for name in ("dim:b1", "dim:b2")
            for case in reports[name].detail["cases"]]
    ok = ok and set(dims) == {2}
    member = all(case.get("explicit_in_span", True)
                 for case in reports["dim:b1"].detail["cases"])
    ok = ok and member
    _announce(capfd, 8,
              "harmonicity-constrained numerator spaces have dimension 2 and "
              "contain the explicit two-pole form [exact]", ok)
    assert ok


def test_criterion_9_fd_order(reports, capfd):
    rep = reports["fd:order"]
    ok = rep.passed and abs(rep.detail["exponent"] - 4.0) <= 0.3
    _announce(capfd, 9,
              f"FD residual ratio under h -> h/2 gives order "
              f"{rep.detail['exponent']:.3f} [tolerance: 4 +/- 0.3]", ok)
    assert ok


def test_exact_reports_match_the_recorded_seed_7_reports(reports):
    # exact reports hold only ints, strings and floats of Fractions, so the
    # recorded text does not depend on numpy or libm; a target added later
    # is simply not in the file
    recorded = json.loads((DATA / "exact_reports_seed7.json").read_text())
    assert recorded
    for name, expected in recorded.items():
        got = json.loads(json.dumps(asdict(reports[name]), sort_keys=True, default=str))
        assert got == expected, name


@pytest.mark.parametrize("seed", [8, 23])
def test_exact_reports_match_the_recorded_digests(seed):
    # the sha256 of each exact report's text, as the seed-7 file records it
    # in full; only the recorded targets run, and one added later is absent
    recorded = json.loads((DATA / "exact_report_digests.json").read_text())[str(seed)]
    assert recorded
    got = {}
    for report in run_suite(list(recorded), seed):
        text = json.dumps(asdict(report), sort_keys=True, default=str)
        got[report.check_name] = hashlib.sha256(text.encode()).hexdigest()
    assert got == recorded
