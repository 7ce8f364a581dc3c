"""Tests of the benchmark's tracer and output checker.

Run from the root of a checkout::

    python3 -m pytest -q bench/tests/check_bench.py

The file name keeps these tests out of the library's own test collection:
they pin facts about the program at the commit the benchmark was defined
on (calls per ledger), which a later optimisation may change on purpose.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checker  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Tracer, run_in_process  # noqa: E402

import modulidim  # noqa: E402
from modulidim import cli, curves, kuranishi, surface  # noqa: E402


def test_tracer_rebinds_every_imported_copy():
    h0_h1, nonfiltrable = curves.h0_h1, kuranishi.nonfiltrable_report
    with Tracer():
        for module in (curves, surface, kuranishi, modulidim):
            assert module.h0_h1 is not h0_h1
            assert module.h0_h1.__wrapped__ is h0_h1
        for module in (kuranishi, cli, modulidim):
            assert module.nonfiltrable_report.__wrapped__ is nonfiltrable
    for module in (curves, surface, kuranishi, modulidim):
        assert module.h0_h1 is h0_h1
    for module in (kuranishi, cli, modulidim):
        assert module.nonfiltrable_report is nonfiltrable


def test_leaf_calls_per_component_report():
    stratum = kuranishi.SplitStratum(
        surface.ProductSurface.from_genera(2, 1), 3, -2, surface.Polarization(1, 1)
    )
    with Tracer() as t:
        for _ in range(3):
            kuranishi.component_report(stratum)
    assert t.calls["kuranishi.component_report"] == 3
    assert t.calls["curves.h0_h1"] == 14 * 3
    assert t.calls["surface.kunneth_h"] == 6 * 3
    assert t.counts["dims.Dim.constructed"] > 0


def test_component_reports_equal_in_validity_sweep_rows(tmp_path):
    config = dict(corpus.ROADMAP_GRID, m_range=(-2, 6), n_range=(-5, 3), l_range=(0, 2))
    cmd = corpus.sweep_command(config, tmp_path / "grid.cfg")
    (tmp_path / "grid.cfg").write_text(cmd.config)
    with Tracer() as t:
        code, out = run_in_process(cmd.args)
    assert checker.check(cmd, code, out) == []
    valid = [r for r in checker.sweep_rows(cmd.params) if r[3] in ("ok", "not-established")]
    assert 0 < len(valid) < len(checker.sweep_rows(cmd.params))
    assert t.calls["kuranishi.component_report"] == len(valid)
    assert t.calls["kuranishi.nonfiltrable_report"] == len(valid)


def test_self_times_partition_the_root_spans(tmp_path):
    commands = corpus.build("cli-oneshot", 0, tmp_path)
    with Tracer() as t:
        for i, cmd in enumerate(commands):
            t.command = i
            run_in_process(cmd.args)
    roots = [s for s in t.spans if s[4] is None]
    assert {s[1] for s in roots} == {"cli.main"}
    assert {s[5] for s in roots} == set(range(len(commands)))
    assert sum(t.self_ns.values()) == sum(end - start for _, _, start, end, _, _ in roots)
    metrics = t.layer_metrics()
    for name, attr in tracer.TRACED:
        assert metrics[f"{name}.{attr}.calls"] > 0, f"{name}.{attr} never ran"


def test_traced_and_untraced_stdout_are_byte_identical(tmp_path):
    commands = corpus.build("cli-oneshot", 1, tmp_path)
    untraced = [run_in_process(cmd.args) for cmd in commands]
    with Tracer():
        traced = [run_in_process(cmd.args) for cmd in commands]
    assert traced == untraced
    checks = run.Checks(commands)
    checks.record_pass(untraced)
    assert (checks.attempted, checks.failed) == (len(commands), 0), checks.problems


@pytest.mark.parametrize("fmt", ["json", "markdown"])
def test_planted_wrong_expectation_is_a_counted_failure(fmt):
    cmd = corpus.ledger_command("split", g1=2, g2=2, m=3, n=-2, alpha=1, beta=1, fmt=fmt)
    outcome = run_in_process(cmd.args)
    planted = replace(cmd, params=dict(cmd.params, m=4))  # the program is asked for m = 3

    checks = run.Checks([cmd, planted])
    checks.record_pass([outcome, outcome])
    assert checks.attempted == 2
    assert checks.failed == 1
    assert checks.problems[0]["problems"], "the planted value must be reported"


def test_compare_checks_catch_a_wrong_stratum_count():
    cmd = corpus.compare_command(g1=1, g2=2, c2=12, alpha=1, beta=2, bound=6)
    code, out = run_in_process(cmd.args)
    assert checker.check(cmd, code, out) == []
    planted = replace(cmd, params=dict(cmd.params, bound=5))
    assert any("strata" in p for p in checker.check(planted, code, out))


def test_refused_input_must_exit_one():
    cmd = corpus.ledger_command("split", g1=1, g2=1, m=0, n=1, alpha=1, beta=1)
    code, out = run_in_process(cmd.args)
    assert (code, out) == (1, b"")
    assert checker.check(cmd, code, out) == []
    assert checker.check(cmd, 0, out) != []
