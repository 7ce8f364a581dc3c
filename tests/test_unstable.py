import contextlib
import io
import json

import pytest

from modulidim.cli import main
from modulidim.surface import PreconditionError, ProductSurface, intersection
from modulidim.unstable import select_twist, validate

P1P1 = ProductSurface(0, 0)
G22 = ProductSurface(2, 2)


def statuses(verdict):
    return {c.name: c.status for c in verdict.conditions}


def report(surface, ample, det, sub, c2):
    """The ``report unstable`` document for one family."""
    argv = ["report", "unstable", f"--g1={surface.g1}", f"--g2={surface.g2}", f"--c2={c2}"]
    argv += [f"--{flag}={a},{b}" for flag, (a, b) in (("H", ample), ("R", det), ("L", sub))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) in (0, 3)
    return json.loads(out.getvalue())


class TestValidate:
    def test_passing_example_on_lines(self):
        v = validate(P1P1, (1, 1), (0, 0), (2, 2), 8)
        assert v.passed
        assert [c.status for c in v.conditions] == ["pass", "pass", "pass"]

    def test_slope_boundary_fails(self):
        v = validate(P1P1, (1, 1), (0, 0), (0, 0), 8)
        assert not v.passed
        assert [c.status for c in v.conditions] == ["fail", "pass", "pass"]

    def test_passing_example_genus_two(self):
        v = validate(G22, (1, 1), (1, 1), (3, 3), 0)
        assert v.passed

    def test_c2_floor_fails(self):
        v = validate(P1P1, (1, 1), (0, 0), (2, 2), -9)
        assert not v.passed
        assert statuses(v)["c2-bound"] == "fail"

    def test_vanishing_fail_when_sections_pinned(self):
        # K + R - 2L of bidegree (2, 2) on the lines has h0 = 9
        v = validate(P1P1, (1, 1), (8, 8), (2, 2), 100)
        assert statuses(v)["section-vanishing"] == "fail"

    def test_vanishing_fail_when_lower_bound_positive(self):
        # K + R - 2L of bidegree (2, 2) on genus (2, 2): middle range, but
        # the Euler characteristic already forces a section on each factor
        v = validate(G22, (1, 1), (4, 4), (2, 2), 100)
        assert statuses(v)["section-vanishing"] == "fail"

    def test_vanishing_undecidable_in_middle_range(self):
        # K + R - 2L of bidegree (1, 1) on genus (2, 2) is middle range
        # with section count bounded to [0..2] per factor
        v = validate(G22, (1, 1), (3, 3), (2, 2), 100)
        assert statuses(v)["section-vanishing"] == "undecidable"
        assert not v.passed

    def test_assumptions_recorded(self):
        v = validate(P1P1, (1, 1), (0, 0), (2, 2), 8)
        assert any("Cayley-Bacharach" in a for a in v.assumptions)

    def test_nonample_rejected(self):
        for ample in [(0, 1), (1, 0), (-1, 2)]:
            with pytest.raises(PreconditionError, match="ample class needs positive entries"):
                validate(P1P1, ample, (0, 0), (2, 2), 8)


class TestQLength:
    def test_examples(self):
        for f, points in [
            ((P1P1, (1, 1), (0, 0), (2, 2), 8), 16),
            ((G22, (1, 1), (1, 1), (3, 3), 0), 12),
        ]:
            v = validate(*f)
            assert v.passed and v.q_length == points

    def test_boundary_is_zero(self):
        s = (P1P1, (1, 1), (0, 0), (2, 2), -8)
        v = validate(*s)
        assert v.passed and v.q_length == 0
        assert report(*s)["results"]["dim_lower_bound"]["value"] == 0

    def test_requires_valid_spec(self):
        # the verdict still counts the points, but a family that fails a
        # condition gets no bounds in the report
        s = (P1P1, (1, 1), (0, 0), (0, 0), 8)
        v = validate(*s)
        assert not v.passed and statuses(v)["slope"] == "fail"
        assert v.q_length == 8
        doc = report(*s)
        assert doc["results"] == {} and doc["verdicts"]["family_admissible"] == "fail"

    def test_monotone_in_c2_with_unit_slope(self):
        verdicts = [
            validate(P1P1, (1, 1), (0, 0), (3, 3), c2) for c2 in range(-15, 10)
        ]
        assert all(v.passed for v in verdicts)
        values = [v.q_length for v in verdicts]
        diffs = {b - a for a, b in zip(values, values[1:])}
        assert diffs == {1}

    def test_zero_exactly_at_boundary(self):
        for l1 in range(1, 5):
            for l2 in range(1, 5):
                sub = (l1, l2)
                floor = -2 * l1 * l2
                for c2 in range(floor, floor + 6):
                    v = validate(P1P1, (1, 1), (0, 0), sub, c2)
                    assert v.passed and (v.q_length == 0) == (c2 == floor)


class TestDimLowerBound:
    # the family dimension bound is reported by ``report unstable`` as twice
    # the point count
    def test_doubles_point_count(self):
        s = (P1P1, (1, 1), (0, 0), (2, 2), 8)
        assert report(*s)["results"]["dim_lower_bound"]["value"] == 32

    def test_formula_over_grid(self):
        checked = 0
        for g in range(0, 3):
            surface = ProductSurface(g, g)
            for l1 in range(1, 5):
                for l2 in range(1, 5):
                    sub = (l1, l2)
                    for r1 in (-2, 0, 1):
                        det = (r1, 0)
                        s = (surface, (1, 1), det, sub, 30)
                        v = validate(*s)
                        if not v.passed:
                            continue
                        expected = 2 * (
                            30 + intersection(sub, sub) - intersection(sub, det)
                        )
                        assert 2 * v.q_length == expected
                        assert report(*s)["results"]["dim_lower_bound"]["value"] == expected
                        checked += 1
        assert checked > 50


class TestSelectTwist:
    def test_lines_example(self):
        res = select_twist(P1P1, (1, 1), (0, 0), 0, 4)
        assert res.t == 2
        assert res.sub == (2, 2)
        v = validate(P1P1, (1, 1), (0, 0), res.sub, 0)
        assert v.passed and res.q_length == v.q_length == 8 >= 4

    def test_vacuous_inequality_gives_t_one(self):
        # a <= c2 with every other condition already met at t = 1
        res = select_twist(P1P1, (1, 1), (0, 0), 10, 4)
        assert res.t == 1

    def test_genus_two_scan(self):
        res = select_twist(G22, (1, 1), (2, 0), 1, 10)
        v = validate(G22, (1, 1), (2, 0), res.sub, 1)
        assert v.passed and res.q_length == v.q_length >= 10

    def test_bound_met_over_grid(self):
        for g in range(0, 5):
            surface = ProductSurface(g, g)
            for h in [(1, 1), (2, 1), (1, 3)]:
                for det in [(0, 0), (2, -1), (-3, 4)]:
                    for c2 in (-5, 0, 7):
                        for a in (1, 5, 20):
                            res = select_twist(surface, h, det, c2, a)
                            v = validate(surface, h, det, res.sub, c2)
                            assert v.passed and res.q_length == v.q_length >= a

    def test_minimality(self):
        h2 = lambda h: intersection(h, h)

        def conditions_hold(surface, h, det, c2, a, t):
            if t * t * h2(h) - t * intersection(h, det) < a - c2:
                return False
            if 2 * t * h2(h) <= intersection(h, det):
                return False
            return validate(surface, h, det, (t * h[0], t * h[1]), c2).passed

        for g in (0, 2):
            surface = ProductSurface(g, g)
            for det in [(0, 0), (2, 0), (-1, 3)]:
                for c2 in (-3, 0, 4):
                    for a in (1, 8, 20):
                        res = select_twist(surface, (1, 1), det, c2, a)
                        if res.t > 1:
                            assert not conditions_hold(
                                surface, (1, 1), det, c2, a, res.t - 1
                            )

    def test_scan_cap(self):
        with pytest.raises(PreconditionError):
            # t^2 H^2 >= a needs t > 22,000, past the scan's cap of 10,000
            select_twist(P1P1, (1, 1), (0, 0), 0, 10**9)
