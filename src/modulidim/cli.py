"""Command-line reports, sweeps, and oracle runs.

Every command emits a single report document on stdout, as canonical JSON
(sorted keys, two-space indent, ASCII-escaped strings) or as markdown tables.
The JSON writer takes only dicts with string keys, lists, strings, integers,
booleans and null, and raises ``TypeError`` on anything else, floats included.
The document is built in full before its first byte is written; the JSON text
then goes to stdout in bounded pieces and is never held whole.
Numeric result fields carry a provenance marker: ``closed-form`` for rule
outputs, ``chi-derived`` for quantities exact only through an Euler
characteristic, ``oracle`` for brute-force results.

Exit codes:

* 0: success (including established negative verdicts),
* 1: precondition violation or malformed usage; an integer input too large
  to compute with (``OverflowError``, such as a range whose length does not
  fit in a machine word); or the input needed more memory than the process
  has (``modulidim: error: out of memory``). Nothing is written to stdout,
  and stderr ends with one ``modulidim: error:`` line. An error while stdout
  is being written (``OSError``, such as a closed pipe) also exits 1 with
  that line, but may leave part of the document on stdout,
* 2: a result was indeterminate while ``--require-exact`` was given,
* 3: a report contains a not-established verdict (distinct from an error),
* 4: an internal check failed: an oracle result moved between windows
  ``N`` and ``N + 1``, or a Koszul differential did not vanish. Nothing is
  written to stdout.
"""

from __future__ import annotations

import argparse
import sys
from json.encoder import encode_basestring_ascii as _json_string
from io import TextIOBase

from . import discrepancies
from .dims import Dim
from .kuranishi import (
    ComparisonReport,
    KuranishiReport,
    SplitStratum,
    component_report,
    homology_comparison_report,
    nonfiltrable_report,
    shift_by_length,
    toy_domain_dim,
    toy_unstable_codim,
)
from .oracle import (
    KoszulAssertionError,
    KoszulModel,
    StabilizationError,
    cech_h_p1,
    cech_h_product,
    koszul_ext,
)
from .surface import (
    Polarization,
    PreconditionError,
    ProductSurface,
    c2_of_extension,
    degree_wrt,
    intersection,
    moduli_real_dimension,
    surface_topology,
)
from .unstable import UnstableFamilySpec, select_twist, validate

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_INDETERMINATE = 2
EXIT_NOT_ESTABLISHED = 3
EXIT_INTERNAL = 4

# Ledger fields of ``report split|nonfiltrable``; sweep and compare rows show
# the subsets below. Those in ``_CHI_DERIVED`` are exact only through an
# Euler characteristic; the rest are closed-form.
_LEDGER_FIELDS = (
    "t_u", "t_o", "t_s", "comp_i_target", "comp_ii_target", "comp_iii_target",
    "codim", "equations", "nu1", "nu1_stated", "chi2", "margin", "margin_stated",
    "c2", "q_length", "unavoidable_equations",
)
_CHI_DERIVED = frozenset({"margin", "margin_stated"})
_SWEEP_FIELDS = ("t_u", "t_o", "t_s", "codim", "equations", "margin", "c2")
_COMPARE_FIELDS = ("margin", "margin_stated", "c2")


def _pv(value: Dim | int, provenance: str) -> dict:
    if isinstance(value, Dim):
        return value.to_doc(provenance)
    return {"value": value, "provenance": provenance}


def _ledger_results(report: KuranishiReport, names: tuple[str, ...]) -> dict:
    return {
        name: _pv(getattr(report, name), "chi-derived" if name in _CHI_DERIVED else "closed-form")
        for name in names
    }


# ---------------------------------------------------------------------------
# document builders
# ---------------------------------------------------------------------------


def _kuranishi_doc(command: str, report: KuranishiReport) -> dict:
    topology = surface_topology(ProductSurface.from_genera(report.g1, report.g2))
    return {
        "command": command,
        "inputs": {
            "g1": report.g1,
            "g2": report.g2,
            "m": report.m,
            "n": report.n,
            "alpha": report.alpha,
            "beta": report.beta,
            "l": report.q_length,
        },
        "results": {
            **_ledger_results(report, _LEDGER_FIELDS),
            "moduli_real_dim": _pv(
                moduli_real_dimension(report.c2, topology), "closed-form"
            ),
        },
        "verdicts": {
            "margin_exceeds_c2": report.margin_exceeds_c2,
            "margin_established": report.margin_established,
            "t_u_established": report.t_u_established,
        },
        "pairing_reduction": {
            "components": [
                {"pairing": c.pairing, "reason": c.reason}
                for c in report.pairing_reduction.components
            ],
            "assumptions": list(report.pairing_reduction.assumptions),
        },
        "discrepancy_ledger": discrepancies.ledger(report),
    }


def _toy_doc(m: int, n: int) -> dict:
    c2 = c2_of_extension((m, n), (-m, -n), 0)
    topology = surface_topology(ProductSurface.from_genera(0, 0))
    return {
        "command": "report toy",
        "inputs": {"m": m, "n": n},
        "results": {
            "domain_dim": _pv(toy_domain_dim(m, n), "closed-form"),
            "codim": _pv(toy_unstable_codim(m, n), "closed-form"),
            "c2": _pv(c2, "closed-form"),
            "domain_dim_convolution": _pv(
                (2 * m + 1) * (-2 * n - 1) + (2 * m - 1) * (-2 * n + 1),
                "closed-form",
            ),
            "moduli_real_dim": _pv(moduli_real_dimension(c2, topology), "closed-form"),
        },
        "discrepancy_ledger": [discrepancies.c2_entry(m, n, 0, c2)],
    }


def _compare_doc(report: ComparisonReport) -> dict:
    rows = [
        {
            "m": outcome.m,
            "n": outcome.n,
            "l": outcome.q_length,
            "orientation": outcome.orientation,
            **_ledger_results(outcome.report, _COMPARE_FIELDS),
            "margin_exceeds_c2": outcome.report.margin_exceeds_c2,
            "margin_established": outcome.established,
        }
        for outcome in report.strata
    ]
    ledger = []
    established = [o for o in report.strata if o.established]
    if established:
        ledger = discrepancies.ledger(min(established, key=lambda o: o.margin).report)
    g1, g2 = report.surface.genera
    return {
        "command": "report compare",
        "inputs": {
            "g1": g1,
            "g2": g2,
            "c2": report.c2,
            "alpha": report.polarization.alpha,
            "beta": report.polarization.beta,
            "bound": report.bound,
        },
        "results": {
            "strata": rows,
            "excluded": list(report.excluded),
            "not_established": list(report.not_established),
            "min_margin": _pv(report.min_margin, "chi-derived"),
        },
        "verdicts": {"margin_exceeds_c2": report.verdict},
        "discrepancy_ledger": ledger,
    }


def _unstable_doc(args) -> tuple[dict, int]:
    surface = ProductSurface.from_genera(args.g1, args.g2)
    doc: dict = {
        "command": "report unstable",
        "inputs": {
            "g1": args.g1,
            "g2": args.g2,
            "H": list(args.H),
            "R": list(args.R),
            "c2": args.c2,
        },
    }
    exit_code = EXIT_OK

    if args.select_t:
        if args.a is None:
            raise PreconditionError("--select-t requires --a")
        selected = select_twist(surface, args.H, args.R, args.c2, args.a)
        family = selected.family
        points = selected.q_length
        h2 = intersection(args.H, args.H)
        hr = intersection(args.H, args.R)
        doc["inputs"]["a"] = args.a
        doc["results"] = {
            "t": _pv(selected.t, "closed-form"),
            "L": list(family.sub),
            "q_length": _pv(points, "closed-form"),
            "dim_lower_bound": _pv(2 * points, "closed-form"),
            "target": _pv(2 * args.a, "closed-form"),
        }
        doc["verdicts"] = {"bound_met": 2 * points >= 2 * args.a}
        doc["discrepancy_ledger"] = [
            discrepancies.twist_inequality_entry(h2, hr, args.c2, args.a, selected.t)
        ]
        return doc, exit_code

    if args.L is None:
        raise PreconditionError("report unstable requires --L (or --select-t with --a)")
    family = UnstableFamilySpec(surface, args.H, args.R, args.L, args.c2)
    verdict = validate(family)
    doc["inputs"]["L"] = list(args.L)
    doc["conditions"] = [
        {"name": c.name, "status": c.status, "detail": c.detail}
        for c in verdict.conditions
    ]
    doc["assumptions"] = list(verdict.assumptions)
    if verdict.passed:
        points = verdict.q_length
        doc["results"] = {
            "q_length": _pv(points, "closed-form"),
            "dim_lower_bound": _pv(2 * points, "closed-form"),
        }
        doc["verdicts"] = {"family_admissible": "pass"}
    else:
        # a hard failure is an established verdict; only a purely
        # undecidable outcome counts as "not established"
        statuses = {c.status for c in verdict.conditions}
        outcome = "fail" if "fail" in statuses else "undecidable"
        doc["results"] = {}
        doc["verdicts"] = {"family_admissible": outcome}
        if outcome == "undecidable":
            exit_code = EXIT_NOT_ESTABLISHED
    return doc, exit_code


def _oracle_p1_doc(args) -> dict:
    r = cech_h_p1(args.k, args.window)
    return {
        "command": "oracle p1",
        "inputs": {"k": args.k, "window": r.window},
        "results": {"h0": _pv(r.h0, "oracle"), "h1": _pv(r.h1, "oracle")},
    }


def _oracle_product_doc(args) -> dict:
    r = cech_h_product(args.a, args.b, args.window)
    return {
        "command": "oracle product",
        "inputs": {"a": args.a, "b": args.b, "window": r.window},
        "results": {
            "h0": _pv(r.h0, "oracle"),
            "h1": _pv(r.h1, "oracle"),
            "h2": _pv(r.h2, "oracle"),
        },
    }


def _oracle_koszul_doc(args) -> dict:
    r = koszul_ext(KoszulModel(args.a, args.b))
    return {
        "command": "oracle koszul",
        "inputs": {"a": args.a, "b": args.b},
        "results": {
            "hom": _pv(r.e0, "oracle"),
            "ext1": _pv(r.e1, "oracle"),
            "ext2": _pv(r.e2, "oracle"),
            "length": _pv(r.length, "oracle"),
        },
    }


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP_KEYS = {"g1", "g2", "m_range", "n_range", "l_range", "alpha", "beta"}


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def parse_sweep_config(text: str) -> dict:
    """Flat ``key = value`` grid; ranges written ``lo..hi`` inclusive.

    Every key appears exactly once, and ``l_range`` holds quotient lengths,
    which are nonnegative.
    """
    config: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SWEEP_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in config:
            raise ValueError(f"line {lineno}: repeated key {key!r}")
        if key.endswith("_range"):
            config[key] = _parse_range(value)
        else:
            config[key] = int(value)
        if key == "l_range" and config[key][0] < 0:
            raise ValueError(f"line {lineno}: l_range holds quotient lengths; q_length must be >= 0")
    missing = _SWEEP_KEYS - config.keys()
    if missing:
        raise ValueError(f"missing keys: {', '.join(sorted(missing))}")
    return config


def _sweep_doc(config: dict) -> tuple[dict, int]:
    """One row per grid point ``(m, n, l)``, sorted. The split ledger does
    not depend on ``l``: it is computed once per ``(m, n)`` and shifted by
    each ``l``, which the sort makes consecutive."""
    surface = ProductSurface.from_genera(config["g1"], config["g2"])
    w = Polarization(config["alpha"], config["beta"])
    rows = []
    any_not_established = False
    grid = sorted(
        (m, n, l)
        for m in config["m_range"]
        for n in config["n_range"]
        for l in config["l_range"]
    )
    split_mn, split = None, None
    for m, n, l in grid:
        row: dict = {"m": m, "n": n, "l": l}
        if degree_wrt((m, n), w) < 0:
            row["status"] = "not-destabilizing"
        elif m < 1:
            row["status"] = "outside-validity: needs m >= 1"
        else:
            if split_mn != (m, n):
                split_mn, split = (m, n), component_report(SplitStratum(surface, m, n, w))
            report = shift_by_length(split, l)
            row.update(_ledger_results(report, _SWEEP_FIELDS))
            row["margin_exceeds_c2"] = report.margin_exceeds_c2
            row["status"] = "ok" if report.margin_established else "not-established"
            if not report.margin_established:
                any_not_established = True
        rows.append(row)
    doc = {
        "command": "sweep",
        "inputs": {k: config[k] for k in sorted(config)},
        "results": {"rows": rows},
    }
    return doc, EXIT_NOT_ESTABLISHED if any_not_established else EXIT_OK


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


# Scalar writers by exact type, so ``bool`` is not written as its base ``int``.
_JSON_CONSTANTS = {False: "false", True: "true", None: "null"}.__getitem__
_JSON_LEAVES = {
    str: _json_string, int: int.__repr__, bool: _JSON_CONSTANTS, type(None): _JSON_CONSTANTS,
}


# ``_write_json`` writes its pieces out whenever this many have accumulated, so
# the rendered text of a large document is never held whole.
_JSON_BATCH = 4096


def render_json(doc: dict, out: TextIOBase) -> None:
    """Write ``doc`` to ``out`` as the exact bytes of
    ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, in pieces."""
    chunks: list[str] = []
    _write_json(doc, "\n", chunks, out)
    chunks.append("\n")
    out.write("".join(chunks))


def _write_json(value, newline: str, chunks: list[str], out: TextIOBase) -> None:
    """Append ``value``; ``newline`` is the line break and indent that close it.

    After each list item, a batch of ``_JSON_BATCH`` pieces or more goes to
    ``out`` and ``chunks`` starts empty again.
    """
    kind = type(value)
    inner = newline + "  "
    if kind is dict:
        separator = "{" + inner
        for key in sorted(value):
            item = value[key]
            leaf = _JSON_LEAVES.get(type(item))
            chunks.append(f"{separator}{_json_string(key)}: {leaf(item) if leaf else ''}")
            if leaf is None:
                _write_json(item, inner, chunks, out)
            separator = "," + inner
        chunks.append(newline + "}" if value else "{}")
    elif kind is list or kind is tuple:
        separator = "[" + inner
        for item in value:
            leaf = _JSON_LEAVES.get(type(item))
            chunks.append(separator + leaf(item) if leaf else separator)
            if leaf is None:
                _write_json(item, inner, chunks, out)
            separator = "," + inner
            if len(chunks) >= _JSON_BATCH:
                out.write("".join(chunks))
                chunks.clear()
        chunks.append(newline + "]" if value else "[]")
    else:
        raise TypeError(f"cannot render a {kind.__name__} as JSON")


def _md_value(v) -> str:
    if isinstance(v, dict):
        if v.get("kind") == "interval":
            return f"[{v['lower']}..{v['upper']}]"
        if "value" in v:
            return str(v["value"])
    return str(v)


# Markdown columns of the row tables: (header, row key); a key the row lacks
# renders as "-".
_SWEEP_COLUMNS = (
    ("m", "m"), ("n", "n"), ("l", "l"), ("t_u", "t_u"), ("t_o", "t_o"), ("t_s", "t_s"),
    ("codim", "codim"), ("equations", "equations"), ("margin", "margin"), ("c2", "c2"),
    ("margin>c2", "margin_exceeds_c2"), ("status", "status"),
)
_COMPARE_COLUMNS = (
    ("m", "m"), ("n", "n"), ("l", "l"), ("orientation", "orientation"),
    ("margin", "margin"), ("stated", "margin_stated"), ("c2", "c2"),
    ("established", "margin_established"),
)
_ROW_TABLES = {"sweep": ("rows", _SWEEP_COLUMNS), "report compare": ("strata", _COMPARE_COLUMNS)}


def _md_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("| " + " | ".join("---" for _ in headers) + " |")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def render_markdown(doc: dict, out: TextIOBase) -> None:
    """Write ``doc`` to ``out`` as markdown tables."""
    lines = [f"# {doc['command']}", ""]
    if "inputs" in doc:
        lines.append("Inputs: " + ", ".join(f"{k}={v}" for k, v in sorted(doc["inputs"].items())))
        lines.append("")

    results = doc.get("results", {})
    if doc["command"] in _ROW_TABLES:
        key, columns = _ROW_TABLES[doc["command"]]
        lines += _md_table(
            [header for header, _ in columns],
            [[_md_value(row.get(k, "-")) for _, k in columns] for row in results[key]],
        )
    else:
        if results:
            rows = [[k, _md_value(v)] for k, v in sorted(results.items())
                    if not isinstance(v, list)]
            if rows:
                lines += _md_table(["quantity", "value"], rows)
        if "conditions" in doc:
            lines.append("")
            lines += _md_table(
                ["condition", "status", "detail"],
                [[c["name"], c["status"], c["detail"]] for c in doc["conditions"]],
            )
        if "verdicts" in doc:
            lines.append("")
            for k, v in sorted(doc["verdicts"].items()):
                lines.append(f"- {k}: {v}")
    if doc["command"] == "report compare":
        lines.append("")
        lines.append(f"Minimum margin: {_md_value(results['min_margin'])}")
        lines.append(f"Verdict: {doc['verdicts']['margin_exceeds_c2']}")
        if results["not_established"]:
            lines.append("")
            lines.append("Not established:")
            for e in results["not_established"]:
                lines.append(f"- ({e['m']}, {e['n']}, l={e['l']}): {e['reason']}")
        if results["excluded"]:
            lines.append("")
            lines.append(f"Excluded strata: {len(results['excluded'])} (outside the mixed-bidegree regime)")

    ledger = doc.get("discrepancy_ledger")
    if ledger:
        lines.append("")
        lines.append("## Discrepancy ledger")
        for entry in ledger:
            lines.append(
                f"- {entry['id']} ({entry['anchor']}): stated "
                f"`{entry['stated_formula']}` = {entry['stated_value']}, used "
                f"`{entry['used_formula']}` = {entry['used_value']}; {entry['relation']}"
            )
    out.write("\n".join(lines) + "\n")


def _has_interval(node) -> bool:
    if isinstance(node, dict):
        if node.get("kind") == "interval":
            return True
        return any(_has_interval(v) for v in node.values())
    if isinstance(node, list):
        return any(_has_interval(v) for v in node)
    return False


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PRECONDITION, f"{self.prog}: error: {message}\n")


def _pair_arg(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'a,b', got {text!r}")
    return (int(parts[0]), int(parts[1]))


def _add_format(parser):
    parser.add_argument("--format", choices=("json", "markdown"), default="json")
    parser.add_argument(
        "--require-exact",
        action="store_true",
        help="exit with code 2 if any result is an interval rather than exact",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="modulidim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="dimension ledgers and verdicts")
    rsub = report.add_subparsers(dest="report_kind", required=True)

    split = rsub.add_parser("split", help="ledger around a split bundle")
    for flag in ("--g1", "--g2", "--m", "--n", "--alpha", "--beta"):
        split.add_argument(flag, type=int, required=True)
    _add_format(split)

    nonf = rsub.add_parser("nonfiltrable", help="ledger around a nonfiltrable bundle")
    for flag in ("--g1", "--g2", "--m", "--n", "--alpha", "--beta", "--l"):
        nonf.add_argument(flag, type=int, required=True)
    _add_format(nonf)

    toy = rsub.add_parser("toy", help="closed forms for a product of two lines")
    toy.add_argument("--m", type=int, required=True)
    toy.add_argument("--n", type=int, required=True)
    _add_format(toy)

    unstable = rsub.add_parser("unstable", help="totally unstable family bounds")
    unstable.add_argument("--g1", type=int, required=True)
    unstable.add_argument("--g2", type=int, required=True)
    unstable.add_argument("--H", type=_pair_arg, required=True, metavar="a,b")
    unstable.add_argument("--R", type=_pair_arg, required=True, metavar="a,b")
    unstable.add_argument("--L", type=_pair_arg, metavar="a,b")
    unstable.add_argument("--c2", type=int, required=True)
    unstable.add_argument("--select-t", action="store_true", dest="select_t")
    unstable.add_argument("--a", type=int)
    _add_format(unstable)

    compare = rsub.add_parser("compare", help="aggregate margin check over strata")
    for flag in ("--g1", "--g2", "--c2", "--alpha", "--beta", "--bound"):
        compare.add_argument(flag, type=int, required=True)
    _add_format(compare)

    oracle = sub.add_parser("oracle", help="brute-force verification engines")
    osub = oracle.add_subparsers(dest="oracle_kind", required=True)

    p1 = osub.add_parser("p1", help="chart complex on the projective line")
    p1.add_argument("--k", type=int, required=True)
    p1.add_argument("--window", type=int)
    _add_format(p1)

    product = osub.add_parser("product", help="chart double complex on a product of lines")
    product.add_argument("--a", type=int, required=True)
    product.add_argument("--b", type=int, required=True)
    product.add_argument("--window", type=int)
    _add_format(product)

    koszul = osub.add_parser("koszul", help="resolution Ext computer")
    koszul.add_argument("--a", type=int, required=True)
    koszul.add_argument("--b", type=int, required=True)
    _add_format(koszul)

    sweep = sub.add_parser("sweep", help="grid of ledgers from a config file")
    sweep.add_argument("--config", required=True)
    _add_format(sweep)

    return parser


def _dispatch(args) -> tuple[dict, int]:
    if args.command == "report":
        if args.report_kind == "toy":
            return _toy_doc(args.m, args.n), EXIT_OK
        if args.report_kind in ("split", "nonfiltrable"):
            surface = ProductSurface.from_genera(args.g1, args.g2)
            w = Polarization(args.alpha, args.beta)
            stratum = SplitStratum(surface, args.m, args.n, w)
            l = args.l if args.report_kind == "nonfiltrable" else 0
            report = nonfiltrable_report(stratum, l)
            doc = _kuranishi_doc(f"report {args.report_kind}", report)
            code = EXIT_OK if report.margin_established else EXIT_NOT_ESTABLISHED
            return doc, code
        if args.report_kind == "unstable":
            return _unstable_doc(args)
        if args.report_kind == "compare":
            report = homology_comparison_report(
                ProductSurface.from_genera(args.g1, args.g2),
                Polarization(args.alpha, args.beta),
                args.c2,
                args.bound,
            )
            doc = _compare_doc(report)
            code = (
                EXIT_NOT_ESTABLISHED
                if report.verdict == "not-established"
                else EXIT_OK
            )
            return doc, code
    if args.command == "oracle":
        if args.oracle_kind == "p1":
            return _oracle_p1_doc(args), EXIT_OK
        if args.oracle_kind == "product":
            return _oracle_product_doc(args), EXIT_OK
        if args.oracle_kind == "koszul":
            return _oracle_koszul_doc(args), EXIT_OK
    if args.command == "sweep":
        with open(args.config, encoding="utf-8") as fh:
            config = parse_sweep_config(fh.read())
        return _sweep_doc(config)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, code = _dispatch(args)
        if getattr(args, "require_exact", False) and _has_interval(doc):
            code = EXIT_INDETERMINATE
        (render_json if args.format == "json" else render_markdown)(doc, sys.stdout)
    except (PreconditionError, ValueError, OverflowError, OSError) as exc:
        print(f"modulidim: error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError:
        print("modulidim: error: out of memory", file=sys.stderr)
        return EXIT_PRECONDITION
    except (StabilizationError, KoszulAssertionError) as exc:
        print(f"modulidim: error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
