"""Acceptance suite: one test per criterion, each printing a verdict line.

Criterion 4 contains two universal claims that exact arithmetic refutes on
part of the stated grid; those parts are carried as strict xfail tests with
pinned counterexamples, while the mathematically valid domains are asserted
green. The analysis lives in the repository decision notes.
"""

import argparse
import json
import time

import pytest

from modulidim.cli import _toy_doc, main
from modulidim.curves import h0_h1
from modulidim.dims import Dim
from modulidim.kuranishi import component_report, nonfiltrable_report
from modulidim.oracle import cech_h_p1, cech_h_product, koszul_ext
from modulidim.surface import (
    Polarization,
    ProductSurface,
    intersection,
    kunneth_h,
)
from modulidim.unstable import select_twist, validate
from reference import (
    CurveLineBundle,
    Triviality,
    bundle_h0_h1,
    euler_characteristic,
    ext_dims_QQ,
    serre_dual_degree,
)


def _announce(criterion: str, detail: str):
    print(f"[acceptance] {criterion}: PASS ({detail})")


def _stratum(g1, g2, m, n):
    # polarization chosen so the bidegree destabilizes; margins and c2 do
    # not depend on it
    return ProductSurface(g1, g2), m, n, Polarization(1 + abs(n), 1)


def test_criterion_1_toy_exactness(capsys):
    start = time.monotonic()
    for m in range(1, 21):
        for n in range(-20, 0):
            doc, _ = _toy_doc(argparse.Namespace(m=m, n=n))
            assert doc["results"]["domain_dim"]["value"] == -8 * m * n - 2
            assert doc["results"]["codim"]["value"] == -4 * m * n - 1
            assert doc["results"]["c2"]["value"] == -2 * m * n
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"toy grid took {elapsed:.2f}s"

    # the command-line path agrees on sampled points
    for m, n in [(1, -1), (7, -13), (20, -20)]:
        code = main(["report", "toy", "--m", str(m), "--n", str(n)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["results"]["domain_dim"]["value"] == -8 * m * n - 2
    with capsys.disabled():
        _announce("criterion 1", f"400-point toy grid exact in {elapsed:.2f}s")


def test_criterion_2_cech_oracles_vs_closed_forms(capsys):
    start = time.monotonic()
    for k in range(-20, 21):
        h0, h1, _ = cech_h_p1(k)
        expected_h0 = k + 1 if k >= 0 else 0
        expected_h1 = -k - 1 if k <= -2 else 0
        assert (h0, h1) == (expected_h0, expected_h1), k
        assert h0_h1(0, k) == (h0, h0, h1, h1)

    surface = ProductSurface(0, 0)
    for a in range(-6, 7):
        for b in range(-6, 7):
            *h, _ = cech_h_product(a, b)
            assert kunneth_h(surface, (a, b)) == tuple(map(Dim.exact, h)), (a, b)

    # the two stated vanishings for the structure sheaf
    assert cech_h_product(0, 0)[:3] == (1, 0, 0)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.2f}s"
    with capsys.disabled():
        _announce("criterion 2", f"line and product oracles match closed forms in {elapsed:.1f}s")


def test_criterion_3_koszul_oracle(capsys):
    start = time.monotonic()
    for a in range(1, 10):
        for b in range(1, 10):
            if a * b > 9:
                continue
            l = a * b
            assert koszul_ext(a, b) == (l, 2 * l, l)
            assert ext_dims_QQ(l) == (l, 2 * l, l)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    with capsys.disabled():
        _announce("criterion 3", f"resolution differentials vanish, dims (l, 2l, l), {elapsed:.2f}s")


def _margin_grid():
    for g1 in range(0, 5):
        for g2 in range(0, 5):
            for m in range(1, 16):
                for n in range(-15, 1):
                    if -2 * n - g2 + 1 > 0:
                        yield g1, g2, m, n


def test_criterion_4_kirwan_margin_suite(capsys):
    start = time.monotonic()
    checked_dominance = 0
    for g1, g2, m, n in _margin_grid():
        r = component_report(*_stratum(g1, g2, m, n))
        assert r.nu1 == 2 * m + g1 - 1
        assert r.margin == r.nu1 * (-2 * n - g2 + 1)
        if g1 >= 1:
            # dominance over the stated formula holds for positive genus
            assert r.margin >= r.margin_stated, (g1, g2, m, n)
            checked_dominance += 1
    assert checked_dominance > 1000

    # strict growth of margin - c2 in m on the slope-positive domain
    for g1 in range(0, 5):
        for g2 in range(0, 5):
            for n in range(-15, 1):
                if not (-2 * n - g2 + 1 > 0 and n <= -g2):
                    continue
                gaps = [
                    component_report(*_stratum(g1, g2, m, n)).margin + 2 * m * n
                    for m in range(1, 16)
                ]
                assert all(x < y for x, y in zip(gaps, gaps[1:])), (g1, g2, n)

    code = main([
        "report", "compare", "--g1", "0", "--g2", "0", "--c2", "2",
        "--alpha", "1", "--beta", "1", "--bound", "5",
    ])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["verdicts"]["margin_exceeds_c2"] == "true"
    assert doc["results"]["min_margin"]["value"] == 3

    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    with capsys.disabled():
        _announce(
            "criterion 4",
            "margins exact, dominance for g1 >= 1, growth on slope-positive "
            f"domain, compare verdict true with min margin 3, {elapsed:.2f}s; "
            "the two full-grid literal claims are refuted, see xfail pins",
        )


def test_criterion_4_genus_zero_dominance_counterexample():
    # pinned refutation: at genus 0 the stated multiplier exceeds the
    # oracle-backed one, so dominance reverses
    r = component_report(*_stratum(0, 0, 1, -1))
    assert r.nu1 == 1 and r.nu1_stated == 3
    assert r.margin == 3 < r.margin_stated == 9
    assert h0_h1(0, -2)[2:] == (1, 1), "duality pins the multiplier at 2m - 1 = 1"


@pytest.mark.xfail(
    strict=True,
    reason=(
        "dominance fails on the g1 = 0 slice of the stated grid; "
        "counterexample (g1, g2, m, n) = (0, 0, 1, -1): 3 < 9"
    ),
)
def test_criterion_4a_literal_full_grid_dominance():
    for g1, g2, m, n in _margin_grid():
        r = component_report(*_stratum(g1, g2, m, n))
        assert r.margin >= r.margin_stated, (g1, g2, m, n)


def test_criterion_4_growth_window_counterexample():
    # pinned refutation: chi2 > 0 does not imply growth; at g2 = 2, n = -1
    # the gap margin - c2 is constant in m
    gaps = [
        component_report(*_stratum(0, 2, m, -1)).margin - component_report(
            *_stratum(0, 2, m, -1)
        ).c2
        for m in range(1, 8)
    ]
    assert len(set(gaps)) == 1


@pytest.mark.xfail(
    strict=True,
    reason=(
        "strict growth fails where 1 - n - g2 <= 0 despite chi2 > 0; "
        "counterexample g2 = 2, n = -1 gives a constant gap"
    ),
)
def test_criterion_4b_literal_growth_on_full_grid():
    for g1 in range(0, 5):
        for g2 in range(0, 5):
            for n in range(-15, 1):
                if -2 * n - g2 + 1 <= 0:
                    continue
                gaps = [
                    component_report(*_stratum(g1, g2, m, n)).margin + 2 * m * n
                    for m in range(1, 16)
                ]
                assert all(x < y for x, y in zip(gaps, gaps[1:])), (g1, g2, n)


def test_criterion_5_unstable_component_suite(capsys):
    start = time.monotonic()
    checked = 0
    for g in range(0, 5):
        surface = ProductSurface(g, g)
        for l1 in range(-5, 6):
            for l2 in range(-5, 6):
                sub = (l1, l2)
                for det in [(0, 0), (2, -1)]:
                    floor = -intersection(sub, sub) + intersection(sub, det)
                    for c2 in (floor, floor + 3, floor + 11):
                        outcome, _, points = validate(surface, (1, 1), det, sub, c2)
                        if outcome != "pass":
                            continue
                        expected = c2 + intersection(sub, sub) - intersection(sub, det)
                        assert points == expected
                        assert (points == 0) == (c2 == floor)
                        checked += 1
    assert checked > 100

    for g in range(0, 5):
        surface = ProductSurface(g, g)
        for det in [(0, 0), (2, 0), (-1, 3)]:
            for c2 in (-4, 0, 6):
                for a in (1, 7, 20):
                    t, sub, points = select_twist(surface, (1, 1), det, c2, a)
                    assert validate(surface, (1, 1), det, sub, c2)[::2] == ("pass", points)
                    assert points >= a
                    if t > 1:
                        t -= 1
                        h2 = intersection((1, 1), (1, 1))
                        hr = intersection((1, 1), det)
                        prev_ok = (
                            t * t * h2 - t * hr >= a - c2
                            and 2 * t * h2 > hr
                            and validate(surface, (1, 1), det, (t, t), c2)[0] == "pass"
                        )
                        assert not prev_ok, "returned t is not minimal"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    with capsys.disabled():
        _announce("criterion 5", f"family bounds and minimal twists over the grids, {elapsed:.2f}s")


def test_criterion_6_degeneration_and_curve_invariants(capsys):
    start = time.monotonic()
    # zero-length degeneration, field by field
    for g1, g2, m, n in [(0, 0, 1, -1), (2, 2, 3, -2), (2, 3, 2, -1), (4, 1, 5, -3)]:
        s = _stratum(g1, g2, m, n)
        assert nonfiltrable_report(*s, 0) == component_report(*s)

    # Serre symmetry and chi additivity over the stated ranges
    dual_flag = {
        Triviality.GENERIC: Triviality.GENERIC,
        Triviality.TRIVIAL: Triviality.CANONICAL,
        Triviality.CANONICAL: Triviality.TRIVIAL,
    }
    for g in range(0, 7):
        for d in range(-30, 31):
            for flag in (Triviality.GENERIC, Triviality.TRIVIAL, Triviality.CANONICAL):
                if flag is Triviality.TRIVIAL and d != 0:
                    continue
                if flag is Triviality.CANONICAL and d != 2 * g - 2:
                    continue
                b = CurveLineBundle(g, d, flag)
                h0, h1 = bundle_h0_h1(b)
                if h0.is_exact and h1.is_exact:
                    assert h0.value - h1.value == euler_characteristic(b)
                dual = CurveLineBundle(g, serre_dual_degree(b), dual_flag[flag])
                h0_dual, _ = bundle_h0_h1(dual)
                if h1.is_exact and h0_dual.is_exact:
                    assert h1.value == h0_dual.value
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    with capsys.disabled():
        _announce("criterion 6", f"degeneration and curve invariants exact, {elapsed:.2f}s")


def test_criterion_7_discrepancy_ledger(capsys):
    start = time.monotonic()

    # entry 1 and 2 in the split report, with the dominance assertion
    code = main([
        "report", "split", "--g1", "2", "--g2", "2", "--m", "3", "--n", "-2",
        "--alpha", "1", "--beta", "1",
    ])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    entries = {e["id"]: e for e in doc["discrepancy_ledger"]}

    nu1 = entries["nu1-obstruction-count"]
    assert nu1["stated_value"] == 5 and nu1["used_value"] == 7
    assert nu1["stated_margin"] == 15 and nu1["used_margin"] == 21
    assert nu1["used_margin"] >= nu1["stated_margin"]

    c2 = entries["extension-second-chern"]
    assert c2["stated_value"] == 6 and c2["used_value"] == 12
    assert c2["used_value"] == doc["results"]["c2"]["value"]

    # entry 2 again in a nonfiltrable report with l > 0
    main([
        "report", "nonfiltrable", "--g1", "2", "--g2", "2", "--m", "3", "--n", "-2",
        "--alpha", "1", "--beta", "1", "--l", "4",
    ])
    doc = json.loads(capsys.readouterr().out)
    c2 = {e["id"]: e for e in doc["discrepancy_ledger"]}["extension-second-chern"]
    assert c2["stated_value"] == 10 and c2["used_value"] == 16
    assert c2["used_value"] == doc["results"]["c2"]["value"]

    # entry 3 in the twist-selection report, with the consistency assertion
    code = main([
        "report", "unstable", "--g1", "0", "--g2", "0", "--H", "1,1", "--R", "0,0",
        "--c2", "0", "--select-t", "--a", "4",
    ])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    twist = doc["discrepancy_ledger"][0]
    assert twist["id"] == "twist-degree-inequality"
    assert twist["used_value"] >= twist["used_threshold"], "corrected form holds at t"
    assert twist["stated_value"] < twist["stated_threshold"], "stated form is infeasible"
    assert doc["results"]["q_length"]["value"] >= 4
    assert doc["results"]["dim_lower_bound"]["value"] >= 8

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    with capsys.disabled():
        _announce("criterion 7", "all three seeded entries present with both values")
