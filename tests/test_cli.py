import copy
import enum
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import modulidim
from modulidim import cli
from modulidim.cli import (
    _JSON_BATCH,
    _Cells,
    _MD_BATCH,
    _has_interval,
    _ledger_results,
    _sweep_doc,
    build_parser,
    main,
    parse_sweep_config,
    render_json,
    render_markdown,
)
from modulidim import kuranishi
from modulidim.dims import Dim
from modulidim.kuranishi import ComparisonReport, KuranishiReport, nonfiltrable_report
from modulidim.oracle import KOSZUL_MAX_LENGTH
from modulidim.surface import Polarization, ProductSurface
from modulidim.unstable import CAYLEY_BACHARACH, validate

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args)
    return code, json.loads(out), err


class TestToyReport:
    def test_document(self, capsys):
        code, doc, _ = run_json(capsys, "report", "toy", "--m", "1", "--n", "-1")
        assert code == 0
        assert doc["results"]["domain_dim"]["value"] == 6
        assert doc["results"]["codim"]["value"] == 3
        assert doc["results"]["c2"]["value"] == 2
        assert doc["results"]["moduli_real_dim"]["value"] == 10
        assert doc["results"]["domain_dim"]["provenance"] == "closed-form"

    def test_precondition_violation_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "report", "toy", "--m", "0", "--n", "-1")
        assert code == 1
        assert not out and "error" in err


class TestSplitReport:
    def test_margin_and_ledger(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "report", "split",
            "--g1", "2", "--g2", "2", "--m", "3", "--n", "-2",
            "--alpha", "1", "--beta", "1",
        )
        assert code == 0
        assert doc["results"]["margin"]["value"] == 21
        assert doc["results"]["margin_stated"]["value"] == 15
        assert doc["results"]["c2"]["value"] == 12
        assert doc["verdicts"]["margin_exceeds_c2"] is True
        ids = [e["id"] for e in doc["discrepancy_ledger"]]
        assert "nu1-obstruction-count" in ids

    def test_not_established_exits_three(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "report", "split",
            "--g1", "2", "--g2", "3", "--m", "1", "--n", "-1",
            "--alpha", "1", "--beta", "1",
        )
        assert code == 3
        assert doc["verdicts"]["margin_established"] is False

    def test_require_exact_exits_two(self, capsys):
        code, _, _ = run_json(
            capsys,
            "report", "split",
            "--g1", "0", "--g2", "4", "--m", "1", "--n", "-2",
            "--alpha", "2", "--beta", "1", "--require-exact",
        )
        assert code == 2

    def test_markdown_renders(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "report", "split",
            "--g1", "2", "--g2", "2", "--m", "3", "--n", "-2",
            "--alpha", "1", "--beta", "1", "--format", "markdown",
        )
        assert code == 0
        assert "| margin |" in out and "Discrepancy ledger" in out


class TestNonfiltrableReport:
    def test_matches_split_at_zero_length(self, capsys):
        _, split_doc, _ = run_json(
            capsys,
            "report", "split",
            "--g1", "2", "--g2", "2", "--m", "3", "--n", "-2",
            "--alpha", "1", "--beta", "1",
        )
        _, nf_doc, _ = run_json(
            capsys,
            "report", "nonfiltrable",
            "--g1", "2", "--g2", "2", "--m", "3", "--n", "-2",
            "--alpha", "1", "--beta", "1", "--l", "0",
        )
        assert split_doc["results"] == nf_doc["results"]

    def test_length_shifts_c2(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "report", "nonfiltrable",
            "--g1", "2", "--g2", "2", "--m", "3", "--n", "-2",
            "--alpha", "1", "--beta", "1", "--l", "4",
        )
        assert code == 0
        assert doc["results"]["c2"]["value"] == 16
        assert doc["results"]["t_o"]["value"] == 12


class TestCompareReport:
    def test_lines_verdict_true(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "report", "compare",
            "--g1", "0", "--g2", "0", "--c2", "2",
            "--alpha", "1", "--beta", "1", "--bound", "5",
        )
        assert code == 0
        assert doc["verdicts"]["margin_exceeds_c2"] == "true"
        assert doc["results"]["min_margin"]["value"] == 3

    def test_not_established_exits_three(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "report", "compare",
            "--g1", "2", "--g2", "3", "--c2", "2",
            "--alpha", "1", "--beta", "1", "--bound", "5",
        )
        assert code == 3
        assert doc["results"]["not_established"]

    def test_established_failure_beats_not_established(self, capsys):
        # stratum (2, -2, l = 0) has an established margin 6 <= c2 = 8, which
        # decides the verdict although four other strata are not established
        code, doc, _ = run_json(
            capsys,
            "report", "compare",
            "--g1", "0", "--g2", "3", "--c2", "8",
            "--alpha", "1", "--beta", "1", "--bound", "6",
        )
        assert code == 0
        assert doc["verdicts"]["margin_exceeds_c2"] == "false"
        assert doc["results"]["min_margin"]["value"] == 6
        assert doc["results"]["not_established"]

    def test_excluded_entries_carry_coordinates_only(self, capsys):
        _, doc, _ = run_json(
            capsys,
            "report", "compare",
            "--g1", "0", "--g2", "0", "--c2", "2",
            "--alpha", "1", "--beta", "1", "--bound", "4",
        )
        excluded = doc["results"]["excluded"]
        assert excluded
        assert all(set(e) == {"m", "n", "l"} for e in excluded)

    def test_document_derives_the_weakest_report_once(self, capsys, monkeypatch):
        # the minimum margin, the discrepancy ledger and the verdict all rest
        # on the weakest report; the strata are scanned for it once
        weakest = ComparisonReport.weakest.fget
        calls = []

        def counted(comparison):
            calls.append(comparison)
            return weakest(comparison)

        monkeypatch.setattr(ComparisonReport, "weakest", property(counted))
        code, doc, _ = run_json(
            capsys,
            "report", "compare",
            "--g1", "0", "--g2", "3", "--c2", "8",
            "--alpha", "1", "--beta", "1", "--bound", "6",
        )
        assert (code, doc["verdicts"]["margin_exceeds_c2"]) == (0, "false")
        assert doc["discrepancy_ledger"]
        assert len(calls) == 1

    def test_excluded_list_is_written_a_block_at_a_time(self, monkeypatch):
        # at --bound 46 the excluded list spans two blocks of integer
        # records; each block is written by one template, not a call per entry
        args = build_parser().parse_args([
            "report", "compare", "--g1", "0", "--g2", "0", "--c2", "2",
            "--alpha", "1", "--beta", "1", "--bound", "46",
        ])
        doc, _ = args.build(args)
        excluded = doc["results"]["excluded"]
        assert len(excluded) > _JSON_BATCH
        write_json = cli._write_json
        calls = []

        def counted(value, *rest):
            calls.append(value)
            return write_json(value, *rest)

        monkeypatch.setattr(cli, "_write_json", counted)
        out = _CountedText()
        render_json(doc, out)
        assert out.getvalue() == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert out.writes > 1
        assert len(calls) < len(excluded)


class TestUnstableReport:
    def test_family_bounds(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "report", "unstable",
            "--g1", "0", "--g2", "0", "--H", "1,1", "--R", "0,0",
            "--L", "2,2", "--c2", "8",
        )
        assert code == 0
        assert doc["results"]["q_length"]["value"] == 16
        assert doc["results"]["dim_lower_bound"]["value"] == 32

    def test_failing_family_reports_conditions(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "report", "unstable",
            "--g1", "0", "--g2", "0", "--H", "1,1", "--R", "0,0",
            "--L", "0,0", "--c2", "8",
        )
        assert code == 0
        assert doc["verdicts"]["family_admissible"] == "fail"
        statuses = {c["name"]: c["status"] for c in doc["conditions"]}
        assert statuses["slope"] == "fail"

    def test_undecidable_exits_three(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "report", "unstable",
            "--g1", "2", "--g2", "2", "--H", "1,1", "--R", "3,3",
            "--L", "2,2", "--c2", "100",
        )
        assert code == 3
        assert doc["verdicts"]["family_admissible"] == "undecidable"

    def test_hard_fail_beats_undecidable(self, capsys):
        # slope fails outright while the vanishing check is undecidable;
        # the verdict is an established failure, not exit 3
        code, doc, _ = run_json(
            capsys,
            "report", "unstable",
            "--g1", "2", "--g2", "2", "--H", "1,1", "--R", "4,4",
            "--L", "1,3", "--c2", "100",
        )
        assert code == 0
        assert doc["verdicts"]["family_admissible"] == "fail"

    def test_select_twist(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "report", "unstable",
            "--g1", "0", "--g2", "0", "--H", "1,1", "--R", "0,0",
            "--c2", "0", "--select-t", "--a", "4",
        )
        assert code == 0
        assert doc["results"]["t"]["value"] == 2
        assert doc["results"]["dim_lower_bound"]["value"] >= 8
        assert doc["discrepancy_ledger"][0]["id"] == "twist-degree-inequality"

    @pytest.mark.parametrize("flags,points,subs", [
        (("--L", "2,2", "--c2", "8"), 16, [(2, 2)]),
        (("--c2", "0", "--select-t", "--a", "4"), 8, [(1, 1), (2, 2)]),
    ], ids=["L", "select-t"])
    def test_validates_once_per_command(self, capsys, monkeypatch, flags, points, subs):
        # --L validates its family once; --select-t validates each candidate
        # t H up to the one it chooses: t = 1 passes with 2 points, short of
        # a = 4, and t = 2 passes with 8
        calls = []

        def counted(surface, ample, det, sub, c2):
            calls.append(sub)
            return validate(surface, ample, det, sub, c2)

        monkeypatch.setattr("modulidim.cli.validate", counted)
        monkeypatch.setattr("modulidim.unstable.validate", counted)
        code, doc, _ = run_json(
            capsys,
            "report", "unstable", "--g1", "0", "--g2", "0", "--H", "1,1", "--R", "0,0",
            *flags,
        )
        assert code == 0
        assert calls == subs
        assert doc["results"]["q_length"]["value"] == points

    @pytest.mark.parametrize("flags,outcome,assumptions", [
        (("--g1", "0", "--g2", "0", "--R", "0,0", "--L", "2,2"), "pass", [CAYLEY_BACHARACH]),
        (("--g1", "0", "--g2", "0", "--R", "0,0", "--L", "0,0"), "fail", []),
        (("--g1", "2", "--g2", "2", "--R", "3,3", "--L", "2,2"), "undecidable", []),
    ], ids=["pass", "fail", "undecidable"])
    def test_assumption_stated_only_with_a_passing_family(
        self, capsys, flags, outcome, assumptions
    ):
        # the Cayley-Bacharach line backs the dimension bound, which only a
        # passing family's document states
        _, doc, _ = run_json(capsys, "report", "unstable", "--H", "1,1", "--c2", "8", *flags)
        assert doc["verdicts"]["family_admissible"] == outcome
        assert doc["assumptions"] == assumptions
        assert bool(doc["results"]) == (outcome == "pass")

    def test_select_twist_needs_target(self, capsys):
        code, _, err = run_cli(
            capsys,
            "report", "unstable",
            "--g1", "0", "--g2", "0", "--H", "1,1", "--R", "0,0",
            "--c2", "0", "--select-t",
        )
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("flags", [
        ("--L", "2,2", "--c2", "8", "--a", "4"),
        ("--c2", "0", "--select-t", "--a", "4", "--L", "2,2"),
    ], ids=["a-without-select-t", "L-with-select-t"])
    def test_refuses_a_flag_it_would_ignore(self, capsys, flags):
        code, out, err = run_cli(
            capsys,
            "report", "unstable", "--g1", "0", "--g2", "0", "--H", "1,1", "--R", "0,0",
            *flags,
        )
        assert (code, out) == (1, "")
        assert err.startswith("modulidim: error:") and err.count("\n") == 1

    def test_negative_first_entry_needs_the_equals_form(self, capsys):
        # argparse reads a separate "-2,0" as an option, so only "--R=-2,0" parses
        flags = ("report", "unstable", "--g1", "0", "--g2", "0", "--H", "1,1", "--L", "2,2",
                 "--c2", "8")
        with pytest.raises(SystemExit) as exc:
            main([*flags, "--R", "-2,0"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (1, "")
        assert err.endswith("error: argument --R: expected one argument\n")
        code, doc, _ = run_json(capsys, *flags, "--R=-2,0")
        assert code == 0 and doc["inputs"]["R"] == [-2, 0]


@pytest.mark.parametrize("argv,message", [
    ("report split --g1=-1 --g2 0 --m 1 --n -1 --alpha 1 --beta 1",
     "genus must be >= 0, got -1"),
    ("report split --g1 0 --g2 0 --m 1 --n -2 --alpha 1 --beta 1",
     "bidegree (1, -2) has negative degree against Polarization(alpha=1, beta=1) "
     "and destabilizes nothing"),
    ("report split --g1 0 --g2 0 --m 0 --n 1 --alpha 1 --beta 1",
     "the ledger requires m >= 1, got m = 0"),
    ("report compare --g1 0 --g2=-2 --c2 4 --alpha 1 --beta 1 --bound 3",
     "genus must be >= 0, got -2"),
    ("report unstable --g1=-1 --g2 0 --H 1,1 --R 0,0 --L 2,2 --c2 8",
     "genus must be >= 0, got -1"),
], ids=["split-genus", "split-not-destabilizing", "split-m-zero", "compare-genus",
        "unstable-genus"])
def test_geometry_refusal_exits_one_with_its_message(capsys, argv, message):
    # the genus and the destabilizing check are made once, where the
    # geometry enters: a surface's genera, a ledger's bidegree
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == f"modulidim: error: {message}"


@pytest.mark.parametrize("argv,message", [
    ("report unstable --g1 1 --g2 1 --H 0,1 --R 1,1 --L 1,1 --c2 5",
     "the ample class needs positive entries, got (0, 1)"),
    ("report unstable --g1 1 --g2 1 --H=0,1 --R=-1,0 --c2 3 --select-t --a 2",
     "the ample class needs positive entries, got (0, 1)"),
    ("report unstable --g1 1 --g2 1 --H 0,1 --R 0,0 --c2 3 --select-t --a 2",
     "the ample class needs positive entries, got (0, 1)"),
    ("report unstable --g1 0 --g2 0 --H 1,1 --R 0,0 --c2 0 --select-t --a 1000000000",
     "no admissible twist found with t <= 10000"),
    ("oracle koszul --a 0 --b 2", "exponents must be >= 1"),
], ids=["unstable-ample", "select-t-ample", "select-t-prefiltered", "select-t-cap",
        "koszul-exponent"])
def test_input_refusal_exits_one_with_its_message(capsys, argv, message):
    # the ample class is checked by validate, which --select-t calls for
    # every candidate twist from t = 1 on, so a bad class is refused whatever
    # R is; the Koszul exponents are checked before any matrix is built
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == f"modulidim: error: {message}"


class TestOracleCommands:
    def test_p1(self, capsys):
        code, doc, _ = run_json(capsys, "oracle", "p1", "--k", "-4")
        assert code == 0
        assert doc["results"]["h1"]["value"] == 3
        assert doc["results"]["h1"]["provenance"] == "oracle"

    def test_product(self, capsys):
        code, doc, _ = run_json(capsys, "oracle", "product", "--a", "2", "--b", "-2")
        assert code == 0
        assert doc["results"]["h1"]["value"] == 3

    def test_koszul(self, capsys):
        code, doc, _ = run_json(capsys, "oracle", "koszul", "--a", "1", "--b", "1")
        assert code == 0
        values = doc["results"]
        assert (values["hom"]["value"], values["ext1"]["value"], values["ext2"]["value"]) == (1, 2, 1)

    def test_window_too_small_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "p1", "--k", "9", "--window", "4")
        assert code == 1 and "error" in err

    def test_p1_window_zero_is_refused(self, capsys):
        # 0 is a window like any other, not a request for the default
        code, out, err = run_cli(capsys, "oracle", "p1", "--k", "3", "--window", "0")
        assert (code, out) == (1, "")
        assert err.startswith("modulidim: error:") and "got 0" in err

    def test_product_window_zero_is_refused(self, capsys):
        code, out, err = run_cli(
            capsys, "oracle", "product", "--a", "1", "--b", "-1", "--window", "0"
        )
        assert (code, out) == (1, "")
        assert err.startswith("modulidim: error:") and "got 0" in err

    def test_degree_too_large_exits_one_with_one_line(self, capsys):
        # the chart window's length does not fit in a machine word
        code, out, err = run_cli(capsys, "oracle", "p1", "--k", str(10**20))
        assert (code, out) == (1, "")
        assert err.startswith("modulidim: error:") and err.count("\n") == 1

    def test_bidegree_too_large_exits_one_with_one_line(self, capsys):
        # every block size is taken before any column is built
        code, out, err = run_cli(capsys, "oracle", "product", "--a", str(10**20), "--b", "1")
        assert (code, out) == (1, "")
        assert err.startswith("modulidim: error:") and err.count("\n") == 1

    def test_koszul_length_over_the_cap_is_refused_at_once(self, capsys):
        # the Koszul columns are generated in O(1) memory, so no allocation
        # would stop a length of 10^10; the cap refuses it before any column
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "oracle", "koszul", "--a", "100000", "--b", "100000")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == (
            "modulidim: error: length a*b = 10000000000 exceeds the cap of "
            f"{KOSZUL_MAX_LENGTH}\n"
        )


_SWEEP_KEYS = ("g1", "g2", "m_range", "n_range", "l_range", "alpha", "beta")


@st.composite
def _sweep_config_lines(draw):
    """``(key, value)`` lines of a sweep config, or ``(None, text)`` for a
    comment or blank line. Usually every key appears once, in any order,
    with a value of its own form (an integer, or ``lo..hi`` for a range,
    where one integer also stands for a range); sometimes a key is missing,
    repeated or unknown, or a value has the other form. Integers are small."""
    keys = list(draw(st.permutations(_SWEEP_KEYS)))
    if draw(st.integers(0, 3)) == 0:
        keys.pop()
    extra = draw(st.sampled_from((None, None, None, "g1", "l_range", "bogus")))
    if extra:
        keys.insert(draw(st.integers(0, len(keys))), extra)
    lines = []
    for key in keys:
        lo = draw(st.integers(-2, 4))
        ranged = key.endswith("_range") != (draw(st.integers(0, 19)) == 0)
        value = f"{lo}..{lo + draw(st.integers(-1, 3))}" if ranged else str(lo)
        lines.append((key, value))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), (None, draw(st.sampled_from(("", "# note")))))
    return lines


def _sweep_config_model(lines):
    """What ``parse_sweep_config`` must return for ``lines``; None when it
    must raise ``ValueError``."""
    config = {}
    for key, value in lines:
        if key is None:
            continue
        if key not in _SWEEP_KEYS or key in config:
            return None
        if not key.endswith("_range"):
            if ".." in value:
                return None
            config[key] = int(value)
            continue
        lo, hi = map(int, value.split("..")) if ".." in value else (int(value),) * 2
        if hi < lo:
            return None
        config[key] = list(range(lo, hi + 1))
    if set(config) != set(_SWEEP_KEYS) or config["l_range"][0] < 0:
        return None
    return config


class TestSweep:
    CONFIG = """
# grid over a genus (2, 2) product
g1 = 2
g2 = 2
m_range = 2..3
n_range = -2..-1
l_range = 0..1
alpha = 1
beta = 1
"""

    def test_config_parsing(self):
        config = parse_sweep_config(self.CONFIG)
        assert config["m_range"] == [2, 3]
        assert config["n_range"] == [-2, -1]
        assert config["alpha"] == 1

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_sweep_config("g1 = 2\nbogus = 3\n")

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError):
            parse_sweep_config("g1 = 2\n")

    def test_rows_sorted_and_complete(self, capsys, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(self.CONFIG)
        code, doc, _ = run_json(capsys, "sweep", "--config", str(path))
        rows = doc["results"]["rows"]
        coords = [(r["m"], r["n"], r["l"]) for r in rows]
        assert coords == sorted(coords)
        assert len(rows) == 8
        assert all(r["status"] in ("ok", "not-established", "not-destabilizing",
                                   "outside-validity: needs m >= 1") for r in rows)
        assert code == 0

    def test_markdown_table(self, capsys, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(self.CONFIG)
        code, out, _ = run_cli(capsys, "sweep", "--config", str(path), "--format", "markdown")
        assert code == 0
        assert out.count("|") > 20

    def test_not_established_rows_exit_three(self, capsys, tmp_path):
        config = self.CONFIG.replace("g2 = 2", "g2 = 5")
        path = tmp_path / "sweep.cfg"
        path.write_text(config)
        code, doc, _ = run_json(capsys, "sweep", "--config", str(path))
        assert code == 3
        assert any(r["status"] == "not-established" for r in doc["results"]["rows"])

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--config", "/nonexistent.cfg")
        assert code == 1 and "error" in err

    def test_rows_match_per_row_nonfiltrable_reports(self, capsys, tmp_path):
        # the sweep computes one split ledger per (m, n) and shifts it by l;
        # each ledger row must equal the standalone report for its (m, n, l)
        path = tmp_path / "sweep.cfg"
        checked = 0
        for g1 in range(0, 4):
            for g2 in range(0, 4):
                path.write_text(
                    f"g1 = {g1}\ng2 = {g2}\nm_range = -1..3\nn_range = -3..1\n"
                    "l_range = 0..2\nalpha = 2\nbeta = 1\n"
                )
                _, doc, _ = run_json(capsys, "sweep", "--config", str(path))
                statuses = [r["status"] for r in doc["results"]["rows"]]
                assert "ok" in statuses and "not-destabilizing" in statuses
                assert "outside-validity: needs m >= 1" in statuses
                for row in doc["results"]["rows"]:
                    if row["status"] not in ("ok", "not-established"):
                        continue
                    code, report, _ = run_json(
                        capsys, "report", "nonfiltrable",
                        "--g1", str(g1), "--g2", str(g2), "--m", str(row["m"]),
                        "--n", str(row["n"]), "--l", str(row["l"]),
                        "--alpha", "2", "--beta", "1",
                    )
                    results = report["results"]
                    for key in ("t_u", "t_o", "t_s", "codim", "equations", "margin", "c2"):
                        assert row[key] == results[key], (g1, g2, row, key)
                    assert row["margin_exceeds_c2"] == report["verdicts"]["margin_exceeds_c2"]
                    assert (row["status"] == "ok") == (code == 0)
                    checked += 1
        assert checked > 100

    def test_rows_equal_the_ledgers_of_their_own_reports(self):
        # the sweep builds the entries that do not depend on l once per
        # (m, n) and the rest from the split ledger's length rule; every
        # ledger row must still equal the ledger of its own nonfiltrable
        # report, and l up to 6 exceeds h2 of the square, so the shift
        # absorbs part of l on some rows
        fields = ("t_u", "t_o", "t_s", "codim", "equations", "margin", "c2")
        w = Polarization(2, 1)
        statuses = set()
        partly_absorbed = 0
        for g1 in range(3):
            for g2 in range(3):
                config = parse_sweep_config(
                    f"g1 = {g1}\ng2 = {g2}\nm_range = -1..3\nn_range = -3..1\n"
                    "l_range = 0..6\nalpha = 2\nbeta = 1\n"
                )
                doc, code = _sweep_doc(config)
                surface = ProductSurface(g1, g2)
                expected_code = 0
                for row in doc["results"]["rows"]:
                    statuses.add(row["status"])
                    if row["status"] not in ("ok", "not-established"):
                        assert set(row) == {"m", "n", "l", "status"}, row
                        continue
                    report = nonfiltrable_report(surface, row["m"], row["n"], w, row["l"])
                    assert row == {
                        "m": report.m, "n": report.n, "l": report.q_length,
                        **_ledger_results(report, fields, _Cells()),
                        "margin_exceeds_c2": report.margin_exceeds_c2,
                        "status": "ok" if report.margin_established else "not-established",
                    }, (g1, g2, row)
                    if not report.margin_established:
                        expected_code = 3
                    if 0 < report.comp_i_target.upper < report.q_length:
                        assert row["t_u"]["kind"] == "interval"
                        partly_absorbed += 1
                assert code == expected_code, (g1, g2)
        assert statuses == {
            "ok", "not-established", "not-destabilizing", "outside-validity: needs m >= 1"
        }
        assert partly_absorbed > 0

    def test_builds_one_report_per_ledger(self, monkeypatch):
        # each ledger row reads its length-dependent cells from the split
        # ledger's length rule: no report and at most one c2 per row, and a
        # Dim only for a cell new to the document
        counts = {"reports": 0, "c2": 0, "dims": 0}

        def counting(key, original):
            def counted(*args):
                counts[key] += 1
                return original(*args)
            return counted

        monkeypatch.setattr(KuranishiReport, "__init__", counting("reports", KuranishiReport.__init__))
        monkeypatch.setattr(Dim, "__init__", counting("dims", Dim.__init__))
        monkeypatch.setattr("modulidim.kuranishi.c2_of_extension",
                            counting("c2", kuranishi.c2_of_extension))
        rows = _sweep_document(12, 10)["results"]["rows"]
        ledger_rows = [row for row in rows if row["status"] == "ok"]
        assert counts["reports"] == len({(row["m"], row["n"]) for row in ledger_rows}) == 78
        assert counts["c2"] <= len(ledger_rows) == 858
        assert counts["dims"] < len(rows) == 1584

    def test_negative_length_on_a_ledger_row_exits_one(self, capsys, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(self.CONFIG.replace("l_range = 0..1", "l_range = -1..2"))
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 1 and not out and "q_length" in err

    @pytest.mark.parametrize("replace,line", [
        # no row is inside validity (m < 1), so no ledger ever sees the length
        ({"m_range = 2..3": "m_range = 0..0", "l_range = 0..1": "l_range = -5..-5"}, 7),
        ({"g2 = 2": "g2 = 2\ng1 = 3"}, 5),
        # list(range(...)) cannot take this many elements
        ({"m_range = 2..3": f"m_range = 0..{10**20}"}, 5),
        ({"g1 = 2": "g1 = 1..2"}, 3),
        ({"g1 = 2": "g1 = x"}, 3),
        ({"m_range = 2..3": "m_range = 1..x"}, 5),
        ({"l_range = 0..1": "l_range = 2..1"}, 7),
    ], ids=[
        "negative-length-outside-validity", "repeated-key", "overflowing-range",
        "range-as-integer", "non-integer", "non-integer-range-end", "empty-range",
    ])
    def test_refused_config_exits_one_with_one_line(self, capsys, tmp_path, replace, line):
        config = self.CONFIG
        for old, new in replace.items():
            config = config.replace(old, new)
        path = tmp_path / "sweep.cfg"
        path.write_text(config)
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"modulidim: error: line {line}: ") and err.count("\n") == 1

    @settings(max_examples=300)
    @given(_sweep_config_lines())
    def test_config_fuzz_parses_whole_or_refuses(self, lines):
        expected = _sweep_config_model(lines)
        text = "\n".join(f"{key} = {value}" if key else value for key, value in lines)
        if expected is None:
            with pytest.raises(ValueError):
                parse_sweep_config(text)
        else:
            assert parse_sweep_config(text) == expected


class TestDocumentContract:
    def test_json_round_trips_byte_identically(self, capsys, tmp_path):
        # the sweep's rows take every status and carry intervals (genus 3,
        # degree 2 is in the middle range); the rest cover arrays of dicts
        # and of strings, and arrays nested in ``inputs``
        sweep = tmp_path / "sweep.cfg"
        sweep.write_text(
            "g1 = 2\ng2 = 3\nm_range = -1..2\nn_range = -2..1\n"
            "l_range = 0..1\nalpha = 2\nbeta = 1\n"
        )
        commands = [
            ("report", "toy", "--m", "2", "--n", "-3"),
            ("report", "split", "--g1", "1", "--g2", "1", "--m", "2", "--n", "-1",
             "--alpha", "1", "--beta", "1"),
            ("report", "compare", "--g1", "0", "--g2", "0", "--c2", "2",
             "--alpha", "1", "--beta", "1", "--bound", "4"),
            ("oracle", "koszul", "--a", "2", "--b", "2"),
            ("sweep", "--config", str(sweep)),
            ("report", "nonfiltrable", "--g1", "4", "--g2", "2", "--m", "1", "--n", "-1",
             "--alpha", "1", "--beta", "1", "--l", "3"),
            ("report", "unstable", "--g1", "0", "--g2", "0", "--H", "1,1", "--R", "0,0",
             "--L", "2,2", "--c2", "8"),
            ("oracle", "product", "--a", "2", "--b", "-2"),
        ]
        outputs = [run_cli(capsys, *args)[1] for args in commands]
        for out in outputs:
            assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out
        rows = json.loads(outputs[4])["results"]["rows"]
        assert {row["status"] for row in rows} == {
            "ok", "not-established", "not-destabilizing", "outside-validity: needs m >= 1"
        }
        assert any(v["kind"] == "interval" for row in rows for v in row.values()
                   if isinstance(v, dict) and "kind" in v)
        assert json.loads(outputs[5])["pairing_reduction"]["components"]

    def test_renderers_leave_the_document_unchanged(self):
        # sweep rows share their entry dicts, so a renderer that altered one
        # would alter every row that holds it
        config = parse_sweep_config((GOLDEN / "sweep.cfg").read_text(encoding="utf-8"))
        args = build_parser().parse_args([
            "report", "compare", "--g1", "2", "--g2", "3", "--c2", "2",
            "--alpha", "1", "--beta", "1", "--bound", "3",
        ])
        for doc in (_sweep_doc(config)[0], args.build(args)[0]):
            before = copy.deepcopy(doc)
            render_json(doc, io.StringIO())
            render_markdown(doc, io.StringIO())
            assert doc == before

    def test_require_exact_finds_an_interval_after_many_int_records(self):
        # records of ints alone are settled without a call per value; the one
        # interval cell comes after all of them
        interval = {"kind": "interval", "lower": 0, "upper": 2, "provenance": "closed-form"}
        records = [{"m": i, "n": -i, "l": 2 * i} for i in range(3 * _JSON_BATCH)]
        assert not _has_interval({"results": {"excluded": records, "bound": 3}})
        assert _has_interval({"results": {"excluded": [*records, {"m": 0, "t_u": interval}]}})
        assert _has_interval({"results": {"excluded": [*records, [1, interval]]}})
        assert _has_interval({"results": {"excluded": [*records, interval]}})

    def test_no_floats_anywhere(self, capsys):
        _, doc, _ = run_json(
            capsys,
            "report", "compare",
            "--g1", "2", "--g2", "2", "--c2", "8",
            "--alpha", "1", "--beta", "1", "--bound", "6",
        )

        def walk(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(doc)

    def test_every_result_numeric_carries_provenance(self, capsys):
        _, doc, _ = run_json(
            capsys,
            "report", "split",
            "--g1", "2", "--g2", "2", "--m", "3", "--n", "-2",
            "--alpha", "1", "--beta", "1",
        )
        for key, value in doc["results"].items():
            assert isinstance(value, dict), key
            assert "provenance" in value, key
            assert value["provenance"] in ("closed-form", "chi-derived", "oracle")

    def test_unknown_flag_prints_usage_and_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "toy", "--m", "1", "--n", "-1", "--bogus"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "usage" in err

    @pytest.mark.parametrize("argv,dest", [
        ([], "command"), (["report"], "report_kind"), (["oracle"], "oracle_kind"),
    ])
    def test_missing_subcommand_prints_usage_and_exits_one(self, capsys, argv, dest):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: the following arguments are required: {dest}\n")


# Keys and strings draw from every code point, lone surrogates included, with
# extra weight on ASCII and on characters that need escaping: quotes,
# backslashes, control characters, DEL, non-ASCII and astral code points.
# Code points are drawn as integers, which needs no Unicode table, and sizes
# stay small, so the test stays fast in a fresh checkout.
_ESCAPED = '"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001d11e'
_CHARS = (
    st.sampled_from(_ESCAPED) | st.integers(0, 0x7F).map(chr) | st.integers(0, 0x10FFFF).map(chr)
)
_TEXT = st.text(_CHARS, max_size=6)
# Lists of records over three keys, one of them with a ``%``: blocks that
# share a key set and hold only ints are written by one template, the rest
# item by item.
_RECORDS = st.lists(
    st.dictionaries(st.sampled_from(["m", "n", "%d"]), st.integers() | st.booleans(), min_size=2),
    min_size=1, max_size=4,
)
_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200) | _TEXT
    | _RECORDS,
    lambda children: st.lists(children, max_size=3) | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(_TEXT, children, max_size=3),
    max_leaves=8,
)


class _Level(enum.IntEnum):
    HIGH = 2


def _sweep_document(m_hi: int, l_hi: int) -> dict:
    """The sweep document of genus (2, 2), m in 1..m_hi, n in -m_hi..-1,
    l in 0..l_hi: every row with m + n >= 0 is a ledger row, the rest are
    not destabilizing."""
    config = parse_sweep_config(
        f"g1 = 2\ng2 = 2\nm_range = 1..{m_hi}\nn_range = -{m_hi}..-1\n"
        f"l_range = 0..{l_hi}\nalpha = 1\nbeta = 1\n"
    )
    return _sweep_doc(config)[0]


class _CountedText(io.StringIO):
    """A text stream that counts its writes."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class _Discard:
    """A text stream that counts its writes and their length, and keeps nothing."""

    def __init__(self):
        self.writes = 0
        self.size = 0

    def write(self, text):
        self.writes += 1
        self.size += len(text)


def _render(doc) -> str:
    out = io.StringIO()
    render_json(doc, out)
    return out.getvalue()


# one dict object met at three depths, so under three line breaks
_SHARED = {"x": [1, "two"], "y": {}}
# one cell whose entries are all leaves, which the writer renders once per indent
_CELL = {"kind": "exact", "value": 1, "provenance": "oracle"}


class TestRenderJson:
    @given(st.dictionaries(_TEXT, _TREES, max_size=3) | st.lists(_TREES, max_size=3))
    @example([{"a": 1, "b": [2]}, {"b": [2], "a": 1}])
    @example({"p": _SHARED, "q": [_SHARED, {"r": _SHARED}]})
    @example({"a": _CELL, "b": _CELL, "c": {"d": _CELL}})
    @example({"a": {"b": _CELL}, "c": _CELL, "d": {"e": _CELL}})
    @example([{"a": _CELL}, _CELL, {"b": [_CELL, {"c": _CELL}], "d": _CELL}])
    @example([{"m": 1, "n": -2, "l": 3}, {"l": 0, "n": 5, "m": 7}, {"n": 1, "m": 2, "l": 2**70}])
    @example([{"%d": 1, "a%%s": 2}, {"a%%s": 3, "%d": 4}])
    @example([{"x": 1, "y": 2}, {"x": True, "y": 2}])
    @example([{"x": 1, "y": 2}, {"x": 1, "y": None}])
    @example([{"x": 1, "y": 2}, {"x": 1, "z": 2}])
    @example([{"x": 1, "y": 2}, {"x": 1, "y": 2, "z": 3}])
    @example([{"x": 1}, {"x": 2}])
    @example({"t": ({"x": 1, "y": 2}, {"y": 3, "x": 4})})
    def test_matches_indented_json_dumps(self, tree):
        assert _render(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [
        {"value": 1.0},
        {"values": [1, {2, 3}]},
        {"value": _Level.HIGH},
        {"values": {1: "one"}},
        {"a": {"x": 1}, "b": [{"x": 1.0}]},
        [{"x": 1}, {"x": 1.0}],
        [{"x": 1, "y": 2}, {"x": 1.0, "y": 2}],
        [{"x": 1, "y": _Level.HIGH}],
        [{1: 2, 3: 4}],
    ], ids=["float", "set", "int-enum", "int-key", "float-under-a-written-key-set",
            "float-under-a-written-shape", "float-in-a-record-block", "int-enum-in-a-record",
            "int-keys-of-a-record"])
    def test_rejects_values_outside_the_document_types(self, doc):
        with pytest.raises(TypeError):
            _render(doc)

    def test_sweep_streamed_in_many_batches_matches_json_dumps(self):
        doc = _sweep_document(12, 10)
        out = _CountedText()
        render_json(doc, out)
        assert out.writes > 5
        assert out.getvalue() == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_sweep_rows_share_equal_cells(self):
        # one dict per distinct cell of the document, each with the
        # provenance of its own field: ints and exact Dims never share one
        doc = _sweep_document(12, 10)
        rows = [row for row in doc["results"]["rows"] if row["status"] == "ok"]
        fields = ("t_u", "t_o", "t_s", "codim", "equations", "margin", "c2")
        by_t_s: dict = {}
        references = []
        for row in rows:
            first = by_t_s.setdefault(json.dumps(row["t_s"], sort_keys=True), row["t_s"])
            assert row["t_s"] is first
            for field in fields:
                cell = row[field]
                assert cell["provenance"] == ("chi-derived" if field == "margin" else "closed-form")
                assert ("kind" in cell) == (field not in ("margin", "c2")), (field, cell)
                references.append(cell)
        assert len(by_t_s) < len(rows)
        assert len({id(cell) for cell in references}) < len(references) // 4

    def test_memory_while_rendering_stays_far_below_the_output_size(self):
        # the writer keeps at most one batch of pieces, never the whole text:
        # about 0.4 MB here, against 15 MB or more if it held every piece
        doc = _sweep_document(24, 10)
        sink = _Discard()
        tracemalloc.start()
        try:
            render_json(doc, sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.size > 3_000_000
        assert sink.writes > 1
        assert peak < 1_000_000, peak


class TestRenderMarkdown:
    def test_memory_while_rendering_stays_far_below_the_output_size(self):
        # the row table goes out in batches of lines, never as one text:
        # about 0.07 MB here, against 4 MB if every line were held
        doc = _sweep_document(24, 10)
        sink = _Discard()
        tracemalloc.start()
        try:
            render_markdown(doc, sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.size > 400_000
        assert sink.writes > 1
        assert peak < 150_000, peak

    # six lines precede the rows: title, inputs, table head and blank lines
    @pytest.mark.parametrize("n_rows", [_MD_BATCH - 7, _MD_BATCH - 6, _MD_BATCH - 5, 2 * _MD_BATCH - 6])
    def test_row_table_ends_with_one_line_break_at_any_batch_boundary(self, n_rows):
        doc = {"command": "sweep", "inputs": {"g1": 0},
               "results": {"rows": [{"m": i, "status": "ok"} for i in range(n_rows)]}}
        out = _CountedText()
        render_markdown(doc, out)
        text = out.getvalue()
        assert text.splitlines()[:4] == ["# sweep", "", "Inputs: g1=0", ""]
        assert text.count("\n") == 6 + n_rows
        assert text.endswith(f"| {n_rows - 1} | - | - | - | - | - | - | - | - | - | - | ok |\n")


def test_console_entry_point():
    src = str(Path(modulidim.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "modulidim.cli", "report", "toy", "--m", "1", "--n", "-1"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["c2"]["value"] == 2
