"""The seeded discrepancy ledger.

Part of this library's value is making the arithmetic it mechanizes
auditable. Three quantities circulate with closed forms that disagree with
what exact computation gives; every report touching one of them carries a
ledger entry showing the stated form, the form actually used, the two
values for the inputs at hand, and the relation that keeps the original
conclusions intact. Used values, and the stated ``nu1`` and margin, are
read from the report that computes them, and the twist inequality's from
the point count; the stated ``c2`` and twist-inequality forms are
evaluated here.
"""

from __future__ import annotations

from .kuranishi import KuranishiReport


def ledger(report: KuranishiReport) -> list[dict]:
    """The entries of a Kuranishi report, from the values it carries."""
    return [_nu1_entry(report), c2_entry(report.m, report.n, report.q_length, report.c2)]


def _nu1_entry(report: KuranishiReport) -> dict:
    """The obstruction multiplier on the first factor.

    The stated form ``2m - g1 + 1`` undercounts by ``2(g1 - 1)``: duality
    on the first curve gives ``2m + g1 - 1`` for the relevant h1, so for
    genus at least one the margin computed here dominates the stated one
    and every conclusion drawn from the stated value survives.
    """
    return {
        "id": "nu1-obstruction-count",
        "anchor": "split-bundle margin analysis, first-factor multiplier",
        "stated_formula": "2m - g1 + 1",
        "used_formula": "2m + g1 - 1",
        "stated_value": report.nu1_stated,
        "used_value": report.nu1,
        "stated_margin": report.margin_stated,
        "used_margin": report.margin,
        "relation": "used >= stated whenever g1 >= 1 (equality at g1 = 1)",
    }


def c2_entry(m: int, n: int, l: int, c2: int) -> dict:
    """Second Chern number of an extension with a point-supported quotient.

    The stated form drops a factor of two in the pairing term; the Whitney
    product rule on the split type (:func:`modulidim.surface.c2_of_extension`)
    gives the used value ``c2``.
    """
    return {
        "id": "extension-second-chern",
        "anchor": "nonfiltrable extension c2 formula",
        "stated_formula": "-m*n + l",
        "used_formula": "-2*m*n + l",
        "stated_value": -m * n + l,
        "used_value": c2,
        "relation": "used value agrees with the product-rule computation on split types",
    }


def twist_inequality_entry(c2: int, a: int, q_length: int) -> dict:
    """The degree inequality selecting the twist exponent ``t``, read from
    the point count ``q_length = c2 + t^2 H^2 - t H.R`` of ``L = t H``.

    The stated form forces a negative point count, contradicting the
    nonnegativity of the quotient length; the corrected orientation makes
    the point count at least ``a`` and hence the family at least
    ``2a``-dimensional, which is the claimed conclusion.
    """
    return {
        "id": "twist-degree-inequality",
        "anchor": "twist selection for totally unstable families",
        "stated_formula": "-t^2*H^2 + t*H.R >= c2 + a",
        "used_formula": "t^2*H^2 - t*H.R >= a - c2",
        "stated_value": c2 - q_length,
        "used_value": q_length - c2,
        "stated_threshold": c2 + a,
        "used_threshold": a - c2,
        "relation": (
            "used form keeps the point count c2 + L^2 - L.R nonnegative "
            "and yields the claimed lower bound 2a"
        ),
    }
