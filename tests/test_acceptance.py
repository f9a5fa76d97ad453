"""Acceptance gate: every quantitative criterion at its stated tolerance.

Each test runs one named check from the verification suite at full level
and prints a PASS/FAIL line with the measured values.

Two criteria assert asymptotic sign conditions that are mathematically
out of reach at desk scale, and they fail here by design rather than by
defect of the implementation:

* ``accumulation-point-zero`` demands S_{F_28}/ln F_28 within 0.1 of 0,
  but that ratio equals 2 ln Q_28 / ln F_28 = 0.1387 whenever Q_28 is
  near its limit 2.407; it cannot drop below 0.1 before n = 38.
* ``power-law-k1-sign`` demands the scan minimum of ln P_k / ln k to be
  <= 0 by k_max = F_20, but P_k > 1 across the whole range (minimum
  P_1 = 1.864), so the minimum stays at ln Q_n / ln F_n ~ +0.0996.

Both are reported with full detail; the surrounding sub-criteria
(accumulation point 2, K2 envelope, split agreement) pass.
"""

import pytest

from sudler import verify


def run_criterion(name: str) -> verify.CheckResult:
    results = verify.run_checks(level="full", seed=0, only={name})
    assert len(results) == 1, f"unknown check {name}"
    res = results[0]
    print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name} ({res.seconds:.1f}s): {res.detail}")
    return res


def test_unknown_check_names_are_rejected():
    with pytest.raises(ValueError, match="no-such-check, zz-typo"):
        verify.run_checks(level="quick", only={"zz-typo", "no-such-check", "omega-constants"})


def test_criterion_01_rational_exactness():
    res = run_criterion("rational-product-exactness")
    assert res.passed, res.detail
    assert res.seconds < 10.0


def test_criterion_02_decomposition_identity():
    res = run_criterion("decomposition-identity")
    assert res.passed, res.detail
    assert res.seconds < 60.0


def test_criterion_03_subsequence_convergence():
    res = run_criterion("subsequence-convergence")
    assert res.passed, res.detail


def test_criterion_04_c_limit_bounds():
    res = run_criterion("c-limit-bounds")
    assert res.passed, res.detail


def test_criterion_05a_accumulation_point_zero():
    res = run_criterion("accumulation-point-zero")
    assert res.passed, res.detail  # unattainable at n = 28; see module docstring


def test_criterion_05b_accumulation_point_two():
    res = run_criterion("accumulation-point-two")
    assert res.passed, res.detail


def test_criterion_06_cotangent_enclosures():
    res = run_criterion("cot-sum-enclosures")
    assert res.passed, res.detail


def test_criterion_07_discrepancy_bound():
    res = run_criterion("discrepancy-bound")
    assert res.passed, res.detail


def test_criterion_08_partial_sum_bounds():
    res = run_criterion("partial-sum-bounds")
    assert res.passed, res.detail


def test_criterion_09a_power_law_k1_sign():
    res = run_criterion("power-law-k1-sign")
    assert res.passed, res.detail  # unattainable at F_20; see module docstring


def test_criterion_09b_power_law_envelope():
    res = run_criterion("power-law-envelope")
    assert res.passed, res.detail


def test_criterion_09c_split_product_agreement():
    res = run_criterion("split-product-agreement")
    assert res.passed, res.detail


def test_criterion_10_identity_suite():
    res = run_criterion("identity-suite")
    assert res.passed, res.detail


def test_criterion_11_inequality_toolkit():
    res = run_criterion("inequality-toolkit")
    assert res.passed, res.detail


def test_criterion_12_csv_reproducibility():
    res = run_criterion("csv-reproducibility")
    assert res.passed, res.detail
