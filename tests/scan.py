"""The seeded compare scan: one fixed grid of complete ``report compare`` runs,
and the invariants that hold over it.

The grid is written down once, here: genera ``g1, g2`` in ``0..3``, the
polarizations ``(1, 1)``, ``(1, 3)`` and ``(4, 1)``, and ``c2`` from 1 to 30,
each at the bound ``max(1, c2 // 2)``. A mixed stratum has ``|m| |n| <= c2 / 2``,
so that bound reaches every one of them and each run is complete: 1,440 runs
in all. The tests import this module and check the invariants over a slice
of the grid; it is not itself collected. Run as a script, it scans the whole
grid and prints the scan's counts::

    PYTHONPATH=src python tests/scan.py
"""

from __future__ import annotations

import time
from collections import Counter

from modulidim.kuranishi import homology_comparison_report
from modulidim.surface import Polarization, ProductSurface

GENERA = range(0, 4)
POLARIZATIONS = ((1, 1), (1, 3), (4, 1))
C2 = range(1, 31)

_EXCHANGED = {"standard": "swapped", "swapped": "standard"}


def compare_scan(genera=GENERA, polarizations=POLARIZATIONS, c2s=C2) -> dict:
    """``{(g1, g2, alpha, beta, c2): report}`` over the grid, or over the
    slice of it that the arguments name, each run complete."""
    return {
        (g1, g2, alpha, beta, c2): homology_comparison_report(
            ProductSurface(g1, g2), Polarization(alpha, beta), c2, max(1, c2 // 2)
        )
        for g1 in genera
        for g2 in genera
        for alpha, beta in polarizations
        for c2 in c2s
    }


def exchange_violations(scan: dict) -> list:
    """Runs whose factor exchange (``g1 <-> g2``, ``alpha <-> beta``) is in the
    scan and differs: in verdict, or in strata once ``(m, n)`` is swapped and
    the orientations are exchanged, or in excluded types once ``(m, n)`` is
    swapped."""
    bad = []
    for (g1, g2, alpha, beta, c2), report in scan.items():
        twin = scan.get((g2, g1, beta, alpha, c2))
        if twin is None:
            continue
        strata = sorted(
            ((n, m, _EXCHANGED[orientation], r) for m, n, orientation, r in report.strata),
            key=lambda stratum: stratum[:2],
        )
        excluded = sorted((n, m, l) for m, n, l in report.excluded)
        if (report.verdict, strata, excluded) != (twin.verdict, list(twin.strata), list(twin.excluded)):
            bad.append((g1, g2, alpha, beta, c2))
    return bad


def false_recovery_violations(scan: dict) -> list:
    """Runs whose verdict is not ``false`` although a smaller ``c2`` on the
    same surface and polarization gave ``false``."""
    bad, failed_below = [], set()
    for key in sorted(scan, key=lambda key: (key[:4], key[4])):
        if key[:4] in failed_below and scan[key].verdict != "false":
            bad.append(key)
        if scan[key].verdict == "false":
            failed_below.add(key[:4])
    return bad


def main() -> None:
    start = time.process_time()
    scan = compare_scan()
    seconds = time.process_time() - start
    verdicts = Counter(report.verdict for report in scan.values())
    not_false = [key[4] for key, report in scan.items() if report.verdict != "false"]
    print(f"runs: {len(scan)} ({seconds:.2f} s of CPU)")
    print("verdicts: " + ", ".join(f"{v} {verdicts[v]}" for v in ("true", "false", "not-established")))
    print(f"mixed strata: {sum(len(report.strata) for report in scan.values())}")
    print(f"excluded types: {sum(len(report.excluded) for report in scan.values())}")
    print(f"last c2 whose verdict is not false: {max(not_false, default=None)}")
    print(f"exchange violations: {len(exchange_violations(scan))}")
    print(f"false-then-not-false violations: {len(false_recovery_violations(scan))}")


if __name__ == "__main__":
    main()
