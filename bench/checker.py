"""Independent checker for modulidim command outputs.

Nothing here imports modulidim. Every expected value is recomputed from the
command's inputs with the closed forms stated in the README (ledgers,
Kunneth on the projective line, the Koszul counts) or by a brute-force scan
(the strata box of ``report compare``), so a wrong program output cannot
agree with its own expectation.

:func:`check` returns a list of problems; an empty list means the command's
exit code and every checked value are right.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

EXIT_OK, EXIT_PRECONDITION, EXIT_INDETERMINATE, EXIT_NOT_ESTABLISHED = 0, 1, 2, 3


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the inputs the checker derives expectations from.

    ``args`` is the argv after the program name. ``params`` holds the same
    inputs as plain values; the corpus builds both from one draw, so a
    mismatch between them is a planted fault. ``config`` is the text of the
    sweep config file that ``args`` names, written during set-up.
    """

    kind: str
    args: tuple[str, ...]
    params: dict
    fmt: str = "json"
    require_exact: bool = False
    config: str | None = None


# ---------------------------------------------------------------------------
# closed forms and interval rules, restated from the README
# ---------------------------------------------------------------------------


def ledger(g1: int, g2: int, m: int, n: int, l: int) -> tuple[int, int, int, int]:
    """(nu1, chi2, margin, c2) of the stratum in standard orientation."""
    nu1 = 2 * m + g1 - 1
    chi2 = -2 * n - g2 + 1
    return nu1, chi2, nu1 * chi2, -2 * m * n + l


def curve_h(g: int, d: int, trivial: bool = False) -> tuple[tuple, tuple]:
    """(h0, h1) of a degree-d line bundle on a genus-g curve, as (lo, hi)."""
    chi = d - g + 1
    if d < 0:
        return (0, 0), (g - 1 - d, g - 1 - d)
    if d > 2 * g - 2:
        return (chi, chi), (0, 0)
    if trivial and d == 0:
        return (1, 1), (g, g)
    return (max(0, chi), d + 1), (max(0, -chi), d + 1 - chi)


def _mul(x: tuple, y: tuple) -> tuple:
    if x == (0, 0) or y == (0, 0):
        return (0, 0)
    return (x[0] * y[0], x[1] * y[1])


def _add(x: tuple, y: tuple) -> tuple:
    return (x[0] + y[0], x[1] + y[1])


def kunneth(q: int, g1: int, g2: int, a: int, b: int) -> tuple:
    (h0a, h1a), (h0b, h1b) = curve_h(g1, a), curve_h(g2, b)
    if q == 0:
        return _mul(h0a, h0b)
    if q == 1:
        return _add(_mul(h0a, h1b), _mul(h1a, h0b))
    return _mul(h1a, h1b)


def ledger_has_interval(g1: int, g2: int, m: int, n: int, l: int) -> bool:
    """Whether any dimension of the split/nonfiltrable ledger is an interval."""
    nu1 = (2 * m + g1 - 1,) * 2
    h0_2, h1_2 = curve_h(g2, -2 * n)
    t_u = kunneth(1, g1, g2, 2 * m, 2 * n)
    t_s = kunneth(1, g1, g2, -2 * m, -2 * n)
    h2_square = kunneth(2, g1, g2, 2 * m, 2 * n)
    if l > 0:
        t_s = _add(t_s, (l, l))
        if h2_square == (0, 0):
            t_u = _add(t_u, (l, l))
        else:
            t_u = (t_u[0] + l - min(l, h2_square[1]), t_u[1] + l)
    dims = (
        t_u,
        t_s,
        h2_square,
        kunneth(2, g1, g2, -2 * m, -2 * n),
        _mul(nu1, h0_2),
        _mul(nu1, h1_2),
    )
    return any(lo != hi for lo, hi in dims)


def _dot(p, q) -> int:
    return p[0] * q[1] + p[1] * q[0]


def family_statuses(g1, g2, H, R, L, c2) -> tuple[str, str, str]:
    """Statuses of the slope, section-vanishing and c2-bound conditions."""
    slope = "pass" if 2 * _dot(L, H) > _dot(R, H) else "fail"
    d1 = 2 * g1 - 2 + R[0] - 2 * L[0]
    d2 = 2 * g2 - 2 + R[1] - 2 * L[1]
    h0 = _mul(curve_h(g1, d1)[0], curve_h(g2, d2)[0])
    if h0 == (0, 0):
        vanishing = "pass"
    elif h0[0] >= 1:
        vanishing = "fail"
    else:
        vanishing = "undecidable"
    bound = "pass" if c2 >= -_dot(L, L) + _dot(L, R) else "fail"
    return slope, vanishing, bound


def p1_h(k: int) -> tuple[int, int]:
    return (k + 1 if k >= 0 else 0), (-k - 1 if k <= -2 else 0)


# ---------------------------------------------------------------------------
# reading a document in either format
# ---------------------------------------------------------------------------


class Output:
    """Uniform access to a report document rendered as JSON or markdown."""

    def __init__(self, fmt: str, text: str):
        self.fmt = fmt
        if fmt == "json":
            self.doc = json.loads(text)
        else:
            self.lines = text.splitlines()

    def table(self, first_header: str) -> list[list[str]]:
        """Body rows of the markdown table whose first header cell matches."""
        for i, line in enumerate(self.lines):
            cells = _cells(line)
            if cells and cells[0] == first_header:
                rows = []
                for body in self.lines[i + 2:]:
                    if not body.startswith("|"):
                        break
                    rows.append(_cells(body))
                return rows
        return []

    def quantities(self) -> dict[str, str]:
        """Scalar results as strings: ``value`` fields or markdown cells."""
        if self.fmt == "json":
            return {
                k: str(v["value"])
                for k, v in self.doc.get("results", {}).items()
                if isinstance(v, dict) and "value" in v
            }
        return {row[0]: row[1] for row in self.table("quantity")}

    def verdicts(self) -> dict[str, str]:
        if self.fmt == "json":
            return {k: str(v) for k, v in self.doc.get("verdicts", {}).items()}
        out = {}
        for line in self.lines:
            if line.startswith("- ") and ": " in line and not line.startswith("- ("):
                key, value = line[2:].split(": ", 1)
                out[key] = value
        return out

    def line_value(self, prefix: str) -> str | None:
        for line in self.lines:
            if line.startswith(prefix):
                return line[len(prefix):]
        return None


def _cells(line: str) -> list[str]:
    if not line.startswith("| "):
        return []
    return [c.strip() for c in line.strip().strip("|").split("|")]


class _Problems(list):
    def expect(self, what: str, got, want):
        if got != want:
            self.append(f"{what}: got {got!r}, want {want!r}")


# ---------------------------------------------------------------------------
# per-kind checks
# ---------------------------------------------------------------------------


def _check_ledger(cmd: Command, code: int, out: Output, p: _Problems):
    g1, g2, m, n, l = (cmd.params[k] for k in ("g1", "g2", "m", "n", "l"))
    nu1, chi2, margin, c2 = ledger(g1, g2, m, n, l)
    want = EXIT_OK if chi2 > 0 else EXIT_NOT_ESTABLISHED
    if cmd.require_exact and ledger_has_interval(g1, g2, m, n, l):
        want = EXIT_INDETERMINATE
    p.expect("exit code", code, want)
    q = out.quantities()
    for name, value in (("nu1", nu1), ("chi2", chi2), ("margin", margin), ("c2", c2)):
        p.expect(name, q.get(name), str(value))
    p.expect("margin_exceeds_c2", out.verdicts().get("margin_exceeds_c2"), str(margin > c2))


def _ledger_precondition(params: dict) -> bool:
    return (
        min(params["g1"], params["g2"]) >= 0
        and min(params["alpha"], params["beta"]) > 0
        and params["alpha"] * params["m"] + params["beta"] * params["n"] >= 0
        and params["m"] >= 1
        and params["l"] >= 0
    )


def _check_toy(cmd: Command, code: int, out: Output, p: _Problems):
    m, n = cmd.params["m"], cmd.params["n"]
    p.expect("exit code", code, EXIT_OK)
    q = out.quantities()
    p.expect("domain_dim", q.get("domain_dim"), str(-8 * m * n - 2))
    p.expect("codim", q.get("codim"), str(-4 * m * n - 1))
    p.expect("c2", q.get("c2"), str(-2 * m * n))


def _check_unstable(cmd: Command, code: int, out: Output, p: _Problems):
    g1, g2, H, R, L, c2 = (cmd.params[k] for k in ("g1", "g2", "H", "R", "L", "c2"))
    statuses = family_statuses(g1, g2, H, R, L, c2)
    if all(s == "pass" for s in statuses):
        outcome = "pass"
    elif "fail" in statuses:
        outcome = "fail"
    else:
        outcome = "undecidable"
    p.expect("exit code", code, EXIT_NOT_ESTABLISHED if outcome == "undecidable" else EXIT_OK)
    p.expect("family_admissible", out.verdicts().get("family_admissible"), outcome)
    if outcome == "pass":
        points = c2 + _dot(L, L) - _dot(L, R)
        q = out.quantities()
        p.expect("q_length", q.get("q_length"), str(points))
        p.expect("dim_lower_bound", q.get("dim_lower_bound"), str(2 * points))


def _selected_twist(params: dict) -> int | None:
    g1, g2, H, R, c2, a = (params[k] for k in ("g1", "g2", "H", "R", "c2", "a"))
    h2, hr = _dot(H, H), _dot(H, R)
    for t in range(1, 10_001):
        if t * t * h2 - t * hr < a - c2 or 2 * t * h2 <= hr:
            continue
        L = (t * H[0], t * H[1])
        if family_statuses(g1, g2, H, R, L, c2) == ("pass",) * 3:
            return t
    return None


def _check_select_t(cmd: Command, code: int, out: Output, p: _Problems):
    params = cmd.params
    t = _selected_twist(params)
    H, R, c2, a = params["H"], params["R"], params["c2"], params["a"]
    L = (t * H[0], t * H[1])
    points = c2 + _dot(L, L) - _dot(L, R)
    p.expect("exit code", code, EXIT_OK)
    q = out.quantities()
    p.expect("t", q.get("t"), str(t))
    p.expect("q_length", q.get("q_length"), str(points))
    p.expect("dim_lower_bound", q.get("dim_lower_bound"), str(2 * points))
    p.expect("target", q.get("target"), str(2 * a))
    p.expect("bound_met", out.verdicts().get("bound_met"), str(2 * points >= 2 * a))
    if out.fmt == "json":
        p.expect("L", out.doc["results"].get("L"), list(L))


def compare_expectation(g1, g2, c2, alpha, beta, bound) -> dict:
    """Brute-force scan of the box ``|m|, |n| <= bound``."""
    strata = []
    excluded = 0
    for m in range(-bound, bound + 1):
        for n in range(-bound, bound + 1):
            l = c2 + 2 * m * n
            if l < 0 or alpha * m + beta * n < 0:
                continue
            if m * n >= 0:
                excluded += 1
                continue
            if m >= 1:
                _, chi2, margin, _ = ledger(g1, g2, m, n, l)
                orientation = "standard"
            else:
                _, chi2, margin, _ = ledger(g2, g1, n, m, l)
                orientation = "swapped"
            strata.append((m, n, l, orientation, margin, chi2 > 0))
    strata.sort()
    established = [s[4] for s in strata if s[5]]
    min_margin = min(established) if established else None
    established_failure = min_margin is not None and min_margin <= c2
    if any(not s[5] for s in strata):
        # An established failure already decides the verdict; either
        # precedence between it and a not-established stratum is accepted.
        verdicts = {"not-established"} | ({"false"} if established_failure else set())
    else:
        verdicts = {"false"} if established_failure else {"true"}
    return {
        "strata": strata,
        "excluded": excluded,
        "not_established": sum(1 for s in strata if not s[5]),
        "min_margin": min_margin,
        "verdicts": verdicts,
    }


def _check_compare(cmd: Command, code: int, out: Output, p: _Problems):
    params = cmd.params
    want = compare_expectation(
        *(params[k] for k in ("g1", "g2", "c2", "alpha", "beta", "bound"))
    )
    c2 = params["c2"]
    if out.fmt == "json":
        res = out.doc["results"]
        verdict = out.doc["verdicts"]["margin_exceeds_c2"]
        rows = [
            (r["m"], r["n"], r["l"], r["orientation"], r["margin"]["value"],
             r["margin_established"], r["c2"]["value"])
            for r in res["strata"]
        ]
        excluded = len(res["excluded"])
        not_established = len(res["not_established"])
        min_margin = res["min_margin"]["value"]
    else:
        verdict = out.line_value("Verdict: ")
        rows = [
            (int(r[0]), int(r[1]), int(r[2]), r[3], int(r[4]), r[7] == "True", int(r[6]))
            for r in out.table("m")
        ]
        excluded_line = out.line_value("Excluded strata: ")
        excluded = int(excluded_line.split()[0]) if excluded_line else 0
        not_established = sum(1 for line in out.lines if line.startswith("- ("))
        text = out.line_value("Minimum margin: ")
        min_margin = None if text == "None" else int(text)
    p.expect("strata", rows, [s + (c2,) for s in want["strata"]])
    p.expect("excluded count", excluded, want["excluded"])
    p.expect("not_established count", not_established, want["not_established"])
    p.expect("min_margin", min_margin, want["min_margin"])
    if verdict not in want["verdicts"]:
        p.append(f"verdict: got {verdict!r}, want one of {sorted(want['verdicts'])}")
    p.expect("exit code", code, EXIT_NOT_ESTABLISHED if verdict == "not-established" else EXIT_OK)


def sweep_rows(config: dict) -> list[tuple]:
    """Expected (m, n, l, status, margin, c2, margin_exceeds_c2) per row."""
    g1, g2, alpha, beta = (config[k] for k in ("g1", "g2", "alpha", "beta"))
    rows = []
    for m in sorted(set(config["m_range"])):
        for n in sorted(set(config["n_range"])):
            for l in sorted(set(config["l_range"])):
                if alpha * m + beta * n < 0:
                    rows.append((m, n, l, "not-destabilizing", None, None, None))
                elif m < 1:
                    rows.append((m, n, l, "outside-validity: needs m >= 1", None, None, None))
                else:
                    _, chi2, margin, c2 = ledger(g1, g2, m, n, l)
                    status = "ok" if chi2 > 0 else "not-established"
                    rows.append((m, n, l, status, margin, c2, margin > c2))
    return rows


def _check_sweep(cmd: Command, code: int, out: Output, p: _Problems):
    want = sweep_rows(cmd.params)
    p.expect(
        "exit code",
        code,
        EXIT_NOT_ESTABLISHED if any(r[3] == "not-established" for r in want) else EXIT_OK,
    )
    if out.fmt == "json":
        got = [
            (r["m"], r["n"], r["l"], r["status"],
             r["margin"]["value"] if "margin" in r else None,
             r["c2"]["value"] if "c2" in r else None,
             r.get("margin_exceeds_c2"))
            for r in out.doc["results"]["rows"]
        ]
    else:
        got = [
            (int(r[0]), int(r[1]), int(r[2]), r[11],
             None if r[8] == "-" else int(r[8]),
             None if r[9] == "-" else int(r[9]),
             None if r[10] == "-" else r[10] == "True")
            for r in out.table("m")
        ]
    p.expect("row count", len(got), len(want))
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    if bad:
        i = bad[0]
        p.append(f"{len(bad)} wrong rows, first: got {got[i]!r}, want {want[i]!r}")


def _check_p1(cmd: Command, code: int, out: Output, p: _Problems):
    k = cmd.params["k"]
    h0, h1 = p1_h(k)
    p.expect("exit code", code, EXIT_OK)
    q = out.quantities()
    p.expect("h0", q.get("h0"), str(h0))
    p.expect("h1", q.get("h1"), str(h1))


def _check_product(cmd: Command, code: int, out: Output, p: _Problems):
    (h0a, h1a), (h0b, h1b) = p1_h(cmd.params["a"]), p1_h(cmd.params["b"])
    p.expect("exit code", code, EXIT_OK)
    q = out.quantities()
    p.expect("h0", q.get("h0"), str(h0a * h0b))
    p.expect("h1", q.get("h1"), str(h0a * h1b + h1a * h0b))
    p.expect("h2", q.get("h2"), str(h1a * h1b))


def _check_koszul(cmd: Command, code: int, out: Output, p: _Problems):
    l = cmd.params["a"] * cmd.params["b"]
    p.expect("exit code", code, EXIT_OK)
    q = out.quantities()
    for name, value in (("hom", l), ("ext1", 2 * l), ("ext2", l), ("length", l)):
        p.expect(name, q.get(name), str(value))


def _window_ok(window, need: int) -> bool:
    # ``--window 0`` means the default window, which always suffices.
    return not window or window >= need


def precondition_holds(cmd: Command) -> bool:
    """Whether the program must accept the command (otherwise: exit 1)."""
    params, kind = cmd.params, cmd.kind
    if kind == "usage":
        return False
    if kind in ("split", "nonfiltrable"):
        return _ledger_precondition(params)
    if kind == "toy":
        return params["m"] > 0 and params["n"] < 0
    if kind in ("unstable", "select_t"):
        ok = min(params["g1"], params["g2"]) >= 0 and min(params["H"]) > 0
        if kind == "select_t":
            ok = ok and params.get("a") is not None and params["a"] >= 1
            ok = ok and _selected_twist(params) is not None
        return ok
    if kind == "compare":
        return (
            min(params["g1"], params["g2"]) >= 0
            and min(params["alpha"], params["beta"]) > 0
            and params["c2"] >= 1
            and params["bound"] >= 1
        )
    if kind == "sweep":
        return (
            set(params) == {"g1", "g2", "m_range", "n_range", "l_range", "alpha", "beta"}
            and min(params["g1"], params["g2"]) >= 0
            and min(params["alpha"], params["beta"]) > 0
        )
    if kind == "p1":
        return _window_ok(params.get("window"), abs(params["k"]) + 2)
    if kind == "product":
        return _window_ok(params.get("window"), max(abs(params["a"]), abs(params["b"])) + 2)
    if kind == "koszul":
        return min(params["a"], params["b"]) >= 1
    raise ValueError(f"unknown command kind {kind!r}")


_CHECKS = {
    "split": _check_ledger,
    "nonfiltrable": _check_ledger,
    "toy": _check_toy,
    "unstable": _check_unstable,
    "select_t": _check_select_t,
    "compare": _check_compare,
    "sweep": _check_sweep,
    "p1": _check_p1,
    "product": _check_product,
    "koszul": _check_koszul,
}


def check(cmd: Command, code: int, stdout: bytes) -> list[str]:
    """Problems with one command's exit code and stdout; empty when right."""
    p = _Problems()
    if not precondition_holds(cmd):
        p.expect("exit code", code, EXIT_PRECONDITION)
        p.expect("stdout bytes", len(stdout), 0)
        return p
    try:
        _CHECKS[cmd.kind](cmd, code, Output(cmd.fmt, stdout.decode("utf-8")), p)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        p.append(f"unreadable output (exit {code}): {exc!r}")
    return p
