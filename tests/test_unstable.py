import contextlib
import io
import json

import pytest

from modulidim.cli import main
from modulidim.surface import PreconditionError, ProductSurface, intersection
from modulidim.unstable import CAYLEY_BACHARACH, select_twist, validate

P1P1 = ProductSurface(0, 0)
G22 = ProductSurface(2, 2)


def statuses(family):
    """Each condition's status for ``validate(*family)``."""
    _, conditions, _ = validate(*family)
    return {name: status for name, status, _ in conditions}


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
        outcome, conditions, _ = validate(P1P1, (1, 1), (0, 0), (2, 2), 8)
        assert outcome == "pass"
        assert [status for _, status, _ in conditions] == ["pass", "pass", "pass"]
        assert [name for name, _, _ in conditions] == ["slope", "section-vanishing", "c2-bound"]

    def test_slope_boundary_fails(self):
        outcome, conditions, _ = validate(P1P1, (1, 1), (0, 0), (0, 0), 8)
        assert outcome == "fail"
        assert [status for _, status, _ in conditions] == ["fail", "pass", "pass"]

    def test_passing_example_genus_two(self):
        assert validate(G22, (1, 1), (1, 1), (3, 3), 0)[0] == "pass"

    def test_c2_floor_fails(self):
        s = (P1P1, (1, 1), (0, 0), (2, 2), -9)
        assert validate(*s)[0] == "fail"
        assert statuses(s)["c2-bound"] == "fail"

    def test_vanishing_fail_when_sections_pinned(self):
        # K + R - 2L of bidegree (2, 2) on the lines has h0 = 9
        assert statuses((P1P1, (1, 1), (8, 8), (2, 2), 100))["section-vanishing"] == "fail"

    def test_vanishing_fail_when_lower_bound_positive(self):
        # K + R - 2L of bidegree (2, 2) on genus (2, 2): middle range, but
        # the Euler characteristic already forces a section on each factor
        assert statuses((G22, (1, 1), (4, 4), (2, 2), 100))["section-vanishing"] == "fail"

    def test_vanishing_undecidable_in_middle_range(self):
        # K + R - 2L of bidegree (1, 1) on genus (2, 2) is middle range
        # with section count bounded to [0..2] per factor
        s = (G22, (1, 1), (3, 3), (2, 2), 100)
        assert statuses(s) == {
            "slope": "pass", "section-vanishing": "undecidable", "c2-bound": "pass"
        }
        assert validate(*s)[0] == "undecidable"

    def test_fail_outranks_undecidable(self):
        # slope fails while the vanishing check is undecidable
        s = (G22, (1, 1), (4, 4), (1, 3), 100)
        assert statuses(s)["section-vanishing"] == "undecidable"
        assert validate(*s)[0] == "fail"

    def test_assumptions_recorded(self):
        # a passing family's document states the assumption its bound rests on
        assert "Cayley-Bacharach" in CAYLEY_BACHARACH
        assert report(P1P1, (1, 1), (0, 0), (2, 2), 8)["assumptions"] == [CAYLEY_BACHARACH]

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
            assert validate(*f)[::2] == ("pass", points)

    def test_boundary_is_zero(self):
        s = (P1P1, (1, 1), (0, 0), (2, 2), -8)
        assert validate(*s)[::2] == ("pass", 0)
        assert report(*s)["results"]["dim_lower_bound"]["value"] == 0

    def test_requires_valid_spec(self):
        # the verdict still counts the points, but a family that fails a
        # condition gets no bounds in the report
        s = (P1P1, (1, 1), (0, 0), (0, 0), 8)
        assert validate(*s)[::2] == ("fail", 8)
        assert statuses(s)["slope"] == "fail"
        doc = report(*s)
        assert doc["results"] == {} and doc["verdicts"]["family_admissible"] == "fail"

    def test_monotone_in_c2_with_unit_slope(self):
        verdicts = [
            validate(P1P1, (1, 1), (0, 0), (3, 3), c2) for c2 in range(-15, 10)
        ]
        assert all(outcome == "pass" for outcome, _, _ in verdicts)
        values = [points for _, _, points in verdicts]
        diffs = {b - a for a, b in zip(values, values[1:])}
        assert diffs == {1}

    def test_zero_exactly_at_boundary(self):
        for l1 in range(1, 5):
            for l2 in range(1, 5):
                sub = (l1, l2)
                floor = -2 * l1 * l2
                for c2 in range(floor, floor + 6):
                    outcome, _, points = validate(P1P1, (1, 1), (0, 0), sub, c2)
                    assert outcome == "pass" and (points == 0) == (c2 == floor)


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
                        outcome, _, points = validate(*s)
                        if outcome != "pass":
                            continue
                        expected = 2 * (
                            30 + intersection(sub, sub) - intersection(sub, det)
                        )
                        assert 2 * points == expected
                        assert report(*s)["results"]["dim_lower_bound"]["value"] == expected
                        checked += 1
        assert checked > 50


class TestSelectTwist:
    def test_lines_example(self):
        assert select_twist(P1P1, (1, 1), (0, 0), 0, 4) == (2, (2, 2), 8)
        assert validate(P1P1, (1, 1), (0, 0), (2, 2), 0)[::2] == ("pass", 8)

    def test_vacuous_inequality_gives_t_one(self):
        # a <= c2 with every other condition already met at t = 1
        t, _, _ = select_twist(P1P1, (1, 1), (0, 0), 10, 4)
        assert t == 1

    def test_genus_two_scan(self):
        _, sub, points = select_twist(G22, (1, 1), (2, 0), 1, 10)
        assert validate(G22, (1, 1), (2, 0), sub, 1)[::2] == ("pass", points)
        assert points >= 10

    def test_bound_met_over_grid(self):
        for g in range(0, 5):
            surface = ProductSurface(g, g)
            for h in [(1, 1), (2, 1), (1, 3)]:
                for det in [(0, 0), (2, -1), (-3, 4)]:
                    for c2 in (-5, 0, 7):
                        for a in (1, 5, 20):
                            t, sub, points = select_twist(surface, h, det, c2, a)
                            assert sub == (t * h[0], t * h[1]) and points >= a
                            assert validate(surface, h, det, sub, c2)[::2] == ("pass", points)

    def test_minimality(self):
        h2 = lambda h: intersection(h, h)

        def conditions_hold(surface, h, det, c2, a, t):
            if t * t * h2(h) - t * intersection(h, det) < a - c2:
                return False
            if 2 * t * h2(h) <= intersection(h, det):
                return False
            return validate(surface, h, det, (t * h[0], t * h[1]), c2)[0] == "pass"

        for g in (0, 2):
            surface = ProductSurface(g, g)
            for det in [(0, 0), (2, 0), (-1, 3)]:
                for c2 in (-3, 0, 4):
                    for a in (1, 8, 20):
                        t, _, _ = select_twist(surface, (1, 1), det, c2, a)
                        if t > 1:
                            assert not conditions_hold(surface, (1, 1), det, c2, a, t - 1)

    def test_scan_cap(self):
        with pytest.raises(PreconditionError):
            # t^2 H^2 >= a needs t > 22,000, past the scan's cap of 10,000
            select_twist(P1P1, (1, 1), (0, 0), 0, 10**9)
