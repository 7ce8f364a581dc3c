"""Command-line reports, sweeps, and oracle runs.

Every command emits a single report document on stdout, as canonical JSON
(sorted keys, two-space indent, ASCII-escaped strings) or as markdown tables.
The JSON writer takes only dicts with string keys, lists, strings, integers,
booleans and null, and raises ``TypeError`` on anything else, floats included.
The document is built in full before its first byte is written; the JSON text
then goes to stdout in bounded batches and is never held whole, and so does the
markdown of a row table. Equal cells of one document are one dict, and the
writer keeps one text per distinct shared cell for the render, so each is
formatted once. Sweep rows come from each split ledger's integer length rule.
A list of integer-only records with one key set, such as ``report compare``'s
``excluded`` list, is written ``_JSON_BATCH`` records at a time, by one template.
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
* 4: an oracle check failed (``OracleCheckError``): an oracle result moved
  between windows ``N`` and ``N + 1``, or a Koszul differential did not
  vanish. Nothing is written to stdout.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_string
from io import TextIOBase
from operator import itemgetter

from . import discrepancies
from .dims import Dim
from .kuranishi import (
    KuranishiReport,
    component_report,
    homology_comparison_report,
    nonfiltrable_report,
    toy_domain_dim,
    toy_unstable_codim,
)
from .oracle import OracleCheckError, cech_h_p1, cech_h_product, koszul_ext
from .surface import (
    Polarization,
    PreconditionError,
    ProductSurface,
    c2_of_extension,
    is_destabilizing,
    kunneth_h,
    moduli_real_dimension,
)
from .unstable import CAYLEY_BACHARACH, select_twist, validate

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
_COMPARE_FIELDS = ("margin", "margin_stated", "c2")


def _pv(value: Dim | int, provenance: str) -> dict:
    if isinstance(value, Dim):
        return value.to_doc(provenance)
    return {"value": value, "provenance": provenance}


class _Cells(dict):
    """One document's result cells, so that equal cells are one dict: keyed by
    ``(lower, upper, provenance)`` for a ``Dim`` kind and ``(value, provenance)``
    for an int, so the two never share one. A cell is built at its first lookup."""

    def __missing__(self, key):
        cell = self[key] = _pv(Dim(*key[:2]) if len(key) == 3 else key[0], key[-1])
        return cell


def _ledger_results(report: KuranishiReport, names: tuple[str, ...], cells: _Cells) -> dict:
    """The cells of ``names``, shared through ``cells``."""
    results = {}
    for name in names:
        value = getattr(report, name)
        provenance = "chi-derived" if name in _CHI_DERIVED else "closed-form"
        key = (value.lower, value.upper, provenance) if type(value) is Dim else (value, provenance)
        results[name] = cells[key]
    return results


# ---------------------------------------------------------------------------
# document builders: each leaf subcommand's ``build(args)`` returns its
# document and exit code
# ---------------------------------------------------------------------------


def _kuranishi_doc(args) -> tuple[dict, int]:
    """``report nonfiltrable``, and ``report split`` as its ``l = 0`` case."""
    surface = ProductSurface(args.g1, args.g2)
    w = Polarization(args.alpha, args.beta)
    report = nonfiltrable_report(surface, args.m, args.n, w, args.l)
    components, assumptions = report.pairing_reduction
    doc = {
        "command": f"report {args.report_kind}",
        "inputs": {
            "g1": report.g1,
            "g2": report.g2,
            "m": report.m,
            "n": report.n,
            "alpha": args.alpha,
            "beta": args.beta,
            "l": report.q_length,
        },
        "results": {
            **_ledger_results(report, _LEDGER_FIELDS, _Cells()),
            "moduli_real_dim": _pv(moduli_real_dimension(report.c2, surface), "closed-form"),
        },
        "verdicts": {
            "margin_exceeds_c2": report.margin_exceeds_c2,
            "margin_established": report.margin_established,
            "t_u_established": report.t_u_established,
        },
        "pairing_reduction": {
            "components": [{"pairing": p, "reason": r} for p, r in components],
            "assumptions": list(assumptions),
        },
        "discrepancy_ledger": discrepancies.ledger(report),
    }
    return doc, EXIT_OK if report.margin_established else EXIT_NOT_ESTABLISHED


def _toy_doc(args) -> tuple[dict, int]:
    m, n = args.m, args.n
    c2 = c2_of_extension((m, n), 0)
    lines = ProductSurface(0, 0)
    return {
        "command": "report toy",
        "inputs": {"m": m, "n": n},
        "results": {
            "domain_dim": _pv(toy_domain_dim(m, n), "closed-form"),
            "codim": _pv(toy_unstable_codim(m, n), "closed-form"),
            "c2": _pv(c2, "closed-form"),
            "domain_dim_convolution": _pv(
                (kunneth_h(lines, (2 * m, 2 * n))[1]
                 + kunneth_h(lines, (-2 * m, -2 * n))[1]).value,
                "closed-form",
            ),
            "moduli_real_dim": _pv(moduli_real_dimension(c2, lines), "closed-form"),
        },
        "discrepancy_ledger": [discrepancies.c2_entry(m, n, 0, c2)],
    }, EXIT_OK


def _compare_doc(args) -> tuple[dict, int]:
    comparison = homology_comparison_report(
        ProductSurface(args.g1, args.g2),
        Polarization(args.alpha, args.beta),
        args.c2,
        args.bound,
    )
    cells = _Cells()
    rows = [
        {
            "m": m,
            "n": n,
            "l": report.q_length,
            "orientation": orientation,
            **_ledger_results(report, _COMPARE_FIELDS, cells),
            "margin_exceeds_c2": report.margin_exceeds_c2,
            "margin_established": report.margin_established,
        }
        for m, n, orientation, report in comparison.strata
    ]
    weakest, verdict = comparison.outcome
    doc = {
        "command": "report compare",
        "inputs": {
            "g1": args.g1,
            "g2": args.g2,
            "c2": args.c2,
            "alpha": args.alpha,
            "beta": args.beta,
            "bound": args.bound,
        },
        "results": {
            "strata": rows,
            "excluded": [{"m": m, "n": n, "l": l} for m, n, l in comparison.excluded],
            "not_established": list(comparison.not_established),
            "min_margin": _pv(None if weakest is None else weakest.margin, "chi-derived"),
        },
        "verdicts": {"margin_exceeds_c2": verdict},
        "discrepancy_ledger": discrepancies.ledger(weakest) if weakest is not None else [],
    }
    return doc, EXIT_NOT_ESTABLISHED if verdict == "not-established" else EXIT_OK


def _unstable_doc(args) -> tuple[dict, int]:
    """``--L`` checks one family; ``--select-t --a`` chooses ``L`` itself.
    A flag that the chosen form would ignore is refused."""
    surface = ProductSurface(args.g1, args.g2)
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
    if args.select_t:
        if args.a is None:
            raise PreconditionError("--select-t requires --a")
        if args.L is not None:
            raise PreconditionError("--select-t chooses L itself and takes no --L")
        t, sub, points = select_twist(surface, args.H, args.R, args.c2, args.a)
        doc["inputs"]["a"] = args.a
        doc["results"] = {
            "t": _pv(t, "closed-form"),
            "L": list(sub),
            "q_length": _pv(points, "closed-form"),
            "dim_lower_bound": _pv(2 * points, "closed-form"),
            "target": _pv(2 * args.a, "closed-form"),
        }
        doc["verdicts"] = {"bound_met": 2 * points >= 2 * args.a}
        doc["discrepancy_ledger"] = [
            discrepancies.twist_inequality_entry(args.c2, args.a, points)
        ]
        return doc, EXIT_OK

    if args.a is not None:
        raise PreconditionError("--a is the target of --select-t and requires it")
    if args.L is None:
        raise PreconditionError("report unstable requires --L (or --select-t with --a)")
    outcome, conditions, points = validate(surface, args.H, args.R, args.L, args.c2)
    passed = outcome == "pass"
    doc["inputs"]["L"] = list(args.L)
    doc["conditions"] = [
        {"name": name, "status": status, "detail": detail} for name, status, detail in conditions
    ]
    # the assumption is stated only with the bound that rests on it
    doc["assumptions"] = [CAYLEY_BACHARACH] if passed else []
    doc["results"] = {
        "q_length": _pv(points, "closed-form"),
        "dim_lower_bound": _pv(2 * points, "closed-form"),
    } if passed else {}
    doc["verdicts"] = {"family_admissible": outcome}
    # a hard failure is an established verdict; only an undecidable
    # outcome counts as "not established"
    return doc, EXIT_NOT_ESTABLISHED if outcome == "undecidable" else EXIT_OK


def _oracle_p1_doc(args) -> tuple[dict, int]:
    h0, h1, window = cech_h_p1(args.k, args.window)
    return {
        "command": "oracle p1",
        "inputs": {"k": args.k, "window": window},
        "results": {"h0": _pv(h0, "oracle"), "h1": _pv(h1, "oracle")},
    }, EXIT_OK


def _oracle_product_doc(args) -> tuple[dict, int]:
    h0, h1, h2, window = cech_h_product(args.a, args.b, args.window)
    return {
        "command": "oracle product",
        "inputs": {"a": args.a, "b": args.b, "window": window},
        "results": {"h0": _pv(h0, "oracle"), "h1": _pv(h1, "oracle"), "h2": _pv(h2, "oracle")},
    }, EXIT_OK


def _oracle_koszul_doc(args) -> tuple[dict, int]:
    e0, e1, e2 = koszul_ext(args.a, args.b)
    return {
        "command": "oracle koszul",
        "inputs": {"a": args.a, "b": args.b},
        "results": {
            "hom": _pv(e0, "oracle"),
            "ext1": _pv(e1, "oracle"),
            "ext2": _pv(e2, "oracle"),
            "length": _pv(args.a * args.b, "oracle"),
        },
    }, EXIT_OK


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
        try:
            config[key] = _parse_range(value) if key.endswith("_range") else int(value)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if key == "l_range" and config[key][0] < 0:
            raise ValueError(f"line {lineno}: l_range holds quotient lengths; q_length must be >= 0")
    missing = _SWEEP_KEYS - config.keys()
    if missing:
        raise ValueError(f"missing keys: {', '.join(sorted(missing))}")
    return config


def _sweep_doc(config: dict) -> tuple[dict, int]:
    """One row per grid point ``(m, n, l)``, sorted: every range ascends, so
    the nested loops already visit the points in lexicographic order. The
    split ledger and its cells that do not depend on ``l`` are computed once
    per ``(m, n)``; the rest of each row is the ledger's integer length rule
    at ``l``, with no report at that length. All cells come from one cache
    for the document, which builds a cell and its ``Dim`` only when new."""
    surface = ProductSurface(config["g1"], config["g2"])
    w = Polarization(config["alpha"], config["beta"])
    cells = _Cells()
    rows = []
    any_not_established = False
    for m in config["m_range"]:
        for n in config["n_range"]:
            skipped = ("not-destabilizing" if not is_destabilizing((m, n), w)
                       else "outside-validity: needs m >= 1" if m < 1 else None)
            if skipped:
                rows += [{"m": m, "n": n, "l": l, "status": skipped} for l in config["l_range"]]
                continue
            split = component_report(surface, m, n, w)
            codim, equations, margin = _ledger_results(split, ("codim", "equations", "margin"), cells).values()
            status = "ok" if split.margin_established else "not-established"
            any_not_established = any_not_established or status != "ok"
            for l in config["l_range"]:
                t_u_lower, t_u_upper, t_o, t_s_lower, t_s_upper = split.length_bounds(l)
                c2, exceeds = split.length_c2(l)
                rows.append({
                    "m": m, "n": n, "l": l,
                    "t_u": cells[t_u_lower, t_u_upper, "closed-form"],
                    "t_o": cells[t_o, t_o, "closed-form"],
                    "t_s": cells[t_s_lower, t_s_upper, "closed-form"],
                    "codim": codim, "equations": equations, "margin": margin,
                    "c2": cells[c2, "closed-form"],
                    "margin_exceeds_c2": exceeds,
                    "status": status,
                })
    doc = {
        "command": "sweep",
        "inputs": {k: config[k] for k in sorted(config)},
        "results": {"rows": rows},
    }
    return doc, EXIT_NOT_ESTABLISHED if any_not_established else EXIT_OK


def _sweep_file_doc(args) -> tuple[dict, int]:
    with open(args.config, encoding="utf-8") as fh:
        config = parse_sweep_config(fh.read())
    return _sweep_doc(config)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


# Scalar writers by exact type, so ``bool`` is not written as its base ``int``.
_JSON_CONSTANTS = {False: "false", True: "true", None: "null"}.__getitem__
_JSON_LEAVES = {
    str: _json_string, int: int.__repr__, bool: _JSON_CONSTANTS, type(None): _JSON_CONSTANTS,
}


# ``_write_json`` writes its pieces out whenever this many have accumulated, and
# each block of at most this many integer records as soon as it is formatted,
# so the rendered text of a large document is never held whole.
_JSON_BATCH = 2048


def render_json(doc: dict, out: TextIOBase) -> None:
    """Write ``doc`` to ``out`` as the exact bytes of
    ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, in pieces."""
    chunks: list[str] = []
    _write_json(doc, "\n", chunks, out, {}, {})
    chunks.append("\n")
    out.write("".join(chunks))


def _int_records(block: list, newline: str, shapes: dict) -> str | None:
    """The text of ``block`` as list items closed by ``newline``, joined by
    commas, if its items are dicts with one key set of two or more keys and
    only exact ``int`` values; ``None`` otherwise.

    Every check runs in C: the item types, their lengths, one
    ``itemgetter`` over the first item's sorted keys (a missing key raises
    ``KeyError``), and the value types, so ``bool``, ``IntEnum`` and
    ``float`` values are left to the generic writer. The block's text is then
    one ``%`` of the record template repeated once per item. ``shapes``
    keeps the getter and the record template under ``(int, newline, *keys)``,
    which no dict-shape key can equal.
    """
    first = block[0]
    if type(first) is not dict or len(first) < 2 or set(map(type, first.values())) != {int}:
        return None
    shape = (int, newline, *first)
    record = shapes.get(shape)
    if record is None:
        keys = sorted(first)
        inner = newline + "  "
        template = "{" + ",".join(
            inner + _json_string(key).replace("%", "%%") + ": %d" for key in keys
        ) + newline + "}"
        record = shapes[shape] = (itemgetter(*keys), template)
    getter, template = record
    if set(map(type, block)) != {dict} or set(map(len, block)) != {len(first)}:
        return None
    try:
        values = tuple(chain.from_iterable(map(getter, block)))
    except KeyError:
        return None
    if set(map(type, values)) != {int}:
        return None
    return ("," + newline).join([template] * len(block)) % values


def _write_json(value, newline: str, chunks: list[str], out: TextIOBase, shapes: dict,
                texts: dict) -> None:
    """Append ``value``; ``newline`` is the line break and indent that close it.

    ``shapes`` maps ``(newline, *keys)`` of each dict shape written so far to
    its ``(key, line)`` pairs in sorted key order, where ``line`` opens the
    key's entry up to its value, so a shape met again is not sorted and
    quoted again. A key that is not a string raises ``TypeError`` before its
    shape is stored.

    ``texts`` maps each indent to a dict from ``id(cell)`` to the text of
    ``cell``, for every dict met as a dict value whose entries are all
    leaves: a cell that the document shares is written once and its text
    reused. Both memos live for one ``render_json`` call, while the
    document keeps every object, and so every id, alive.

    A list is walked in blocks of ``_JSON_BATCH`` items. A block of integer
    records (see ``_int_records``) is written by one template and goes to
    ``out`` at once; any other block is written item by item, and after each
    item a batch of ``_JSON_BATCH`` pieces or more goes to ``out``. Either
    way ``chunks`` then starts empty again.
    """
    kind = type(value)
    inner = newline + "  "
    if kind is dict:
        shape = (newline, *value)
        lines = shapes.get(shape)
        if lines is None:
            lines = shapes[shape] = [
                (key, ("," if i else "{") + inner + _json_string(key) + ": ")
                for i, key in enumerate(sorted(value))
            ]
        cells = texts.setdefault(inner, {})
        for key, line in lines:
            item = value[key]
            leaf = _JSON_LEAVES.get(type(item))
            if leaf:
                chunks.append(line + leaf(item))
                continue
            chunks.append(line)
            if type(item) is dict:
                text = cells.get(id(item))
                if text is None and all(type(v) in _JSON_LEAVES for v in item.values()):
                    pieces: list[str] = []
                    _write_json(item, inner, pieces, out, shapes, texts)
                    text = cells[id(item)] = "".join(pieces)
                if text is not None:
                    chunks.append(text)
                    continue
            _write_json(item, inner, chunks, out, shapes, texts)
        chunks.append(newline + "}" if value else "{}")
    elif kind is list or kind is tuple:
        separator = "[" + inner
        for start in range(0, len(value), _JSON_BATCH):
            block = value[start:start + _JSON_BATCH]
            text = _int_records(block, inner, shapes)
            if text is not None:
                chunks.append(separator + text)
                separator = "," + inner
                out.write("".join(chunks))
                chunks.clear()
                continue
            for item in block:
                leaf = _JSON_LEAVES.get(type(item))
                chunks.append(separator + leaf(item) if leaf else separator)
                if leaf is None:
                    _write_json(item, inner, chunks, out, shapes, texts)
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
# ``render_markdown`` writes a row table's lines out whenever this many have
# accumulated; a line holds a whole row, a dozen cells.
_MD_BATCH = 256


def _md_table(headers: list[str], rows) -> Iterator[str]:
    """The lines of a table, one per row of ``rows`` as it is read."""
    yield "| " + " | ".join(headers) + " |"
    yield "| " + " | ".join("---" for _ in headers) + " |"
    for row in rows:
        yield "| " + " | ".join(row) + " |"


def render_markdown(doc: dict, out: TextIOBase) -> None:
    """Write ``doc`` to ``out`` as markdown tables. The lines of a row
    table go out in batches of ``_MD_BATCH``, so its text is never held
    whole."""
    lines = [f"# {doc['command']}", ""]
    if "inputs" in doc:
        lines.append("Inputs: " + ", ".join(f"{k}={v}" for k, v in sorted(doc["inputs"].items())))
        lines.append("")

    results = doc.get("results", {})
    if doc["command"] in _ROW_TABLES:
        key, columns = _ROW_TABLES[doc["command"]]
        for line in _md_table(
            [header for header, _ in columns],
            ([_md_value(row.get(k, "-")) for _, k in columns] for row in results[key]),
        ):
            lines.append(line)
            if len(lines) >= _MD_BATCH:
                out.write("\n".join(lines) + "\n")
                lines.clear()
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
    if lines:
        out.write("\n".join(lines) + "\n")


def _has_interval(node) -> bool:
    """Whether a dict in ``node`` is an interval cell; a dict or list none of
    whose values is a dict or list is settled without a call per value."""
    if type(node) is dict:
        if node.get("kind") == "interval":
            return True
        values = node.values()
    elif type(node) is list:
        values = node
    else:
        return False
    return not {dict, list}.isdisjoint(map(type, values)) and any(map(_has_interval, values))


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


def _leaf(sub, name: str, summary: str, build, *flags, **defaults) -> None:
    """Declare one leaf subcommand; ``main`` runs its ``build(args)``, which
    returns the document and the exit code.

    A flag given by name alone is a required integer; a ``(name, options)``
    pair passes its options to ``add_argument``. The shared ``--format`` and
    ``--require-exact`` come last, and ``defaults`` fill in fields the
    subcommand has no flag for.
    """
    parser = sub.add_parser(name, help=summary)
    for spec in flags:
        flag, options = (spec, {"type": int, "required": True}) if isinstance(spec, str) else spec
        parser.add_argument(flag, **options)
    parser.add_argument("--format", choices=("json", "markdown"), default="json")
    parser.add_argument(
        "--require-exact",
        action="store_true",
        help="exit with code 2 if any result is an interval rather than exact",
    )
    parser.set_defaults(build=build, **defaults)


def build_parser() -> _Parser:
    parser = _Parser(prog="modulidim", description="Command-line reports, sweeps, and oracle runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="dimension ledgers and verdicts")
    rsub = report.add_subparsers(dest="report_kind", required=True)
    ledger = ("--g1", "--g2", "--m", "--n", "--alpha", "--beta")
    _leaf(rsub, "split", "ledger around a split bundle", _kuranishi_doc, *ledger, l=0)
    _leaf(rsub, "nonfiltrable", "ledger around a nonfiltrable bundle", _kuranishi_doc,
          *ledger, "--l")
    _leaf(rsub, "toy", "closed forms for a product of two lines", _toy_doc, "--m", "--n")
    pair = {"type": _pair_arg, "metavar": "a,b",
            "help": "a class a,b; with a negative first entry write --%(dest)s=-2,0"}
    _leaf(rsub, "unstable", "totally unstable family bounds", _unstable_doc,
          "--g1", "--g2", ("--H", {**pair, "required": True}), ("--R", {**pair, "required": True}),
          ("--L", pair), "--c2", ("--select-t", {"action": "store_true"}), ("--a", {"type": int}))
    _leaf(rsub, "compare", "aggregate margin check over strata", _compare_doc,
          "--g1", "--g2", "--c2", "--alpha", "--beta", "--bound")

    oracle = sub.add_parser("oracle", help="brute-force verification engines")
    osub = oracle.add_subparsers(dest="oracle_kind", required=True)
    window = ("--window", {"type": int})
    _leaf(osub, "p1", "chart complex on the projective line", _oracle_p1_doc, "--k", window)
    _leaf(osub, "product", "chart double complex on a product of lines", _oracle_product_doc,
          "--a", "--b", window)
    _leaf(osub, "koszul", "resolution Ext computer", _oracle_koszul_doc, "--a", "--b")

    _leaf(sub, "sweep", "grid of ledgers from a config file", _sweep_file_doc,
          ("--config", {"required": True}))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc, code = args.build(args)
        if args.require_exact and _has_interval(doc):
            code = EXIT_INDETERMINATE
        (render_json if args.format == "json" else render_markdown)(doc, sys.stdout)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"modulidim: error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError:
        print("modulidim: error: out of memory", file=sys.stderr)
        return EXIT_PRECONDITION
    except OracleCheckError as exc:
        print(f"modulidim: error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
