import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import modulidim
import modulidim.oracle as oracle_module
from modulidim.dims import Dim
from modulidim.linalg import dense_rank, sparse_rank
from modulidim.oracle import (
    OracleCheckError,
    _multiplication_matrix,
    cech_h_p1,
    cech_h_product,
    koszul_ext,
)
from modulidim.surface import ProductSurface, kunneth_h

P1P1 = ProductSurface(0, 0)

# Zero and non-unit entries are drawn as often as arbitrary ones, so pivots
# that do not divide the entries below them come up in most matrices.
_ENTRIES = st.one_of(st.just(0), st.sampled_from([-6, -4, -3, -2, 2, 3, 4, 6]), st.integers(-6, 6))


@st.composite
def _integer_matrices(draw):
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    zero_rows = draw(st.sets(st.integers(0, 6), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 6), max_size=2))
    return [
        [0 if r in zero_rows or c in zero_cols else draw(_ENTRIES) for c in range(ncols)]
        for r in range(nrows)
    ]


@st.composite
def _oracle_shaped_rows(draw):
    """Rows shaped like the oracles' matrices: one or two entries, columns
    from a short range so one-entry rows repeat a column, with explicit
    zeros and non-unit values such as ``{c: 6}`` and ``{c: 4, d: 6}``; a
    row object may also recur in the list."""
    ncols = draw(st.integers(1, 6))
    column = st.integers(0, ncols - 1)
    value = st.one_of(st.sampled_from([1, -1]), st.just(0), st.sampled_from([-6, -4, -2, 2, 4, 6]))
    rows = draw(st.lists(st.dictionaries(column, value, min_size=1, max_size=2), max_size=12))
    if rows and draw(st.booleans()):
        rows.append(rows[draw(st.integers(0, len(rows) - 1))])
    return ncols, rows


class TestRank:
    def test_dense_rank(self):
        assert dense_rank([]) == 0
        assert dense_rank([[0, 0], [0, 0]]) == 0
        assert dense_rank([[1, 2], [2, 4]]) == 1
        assert dense_rank([[1, 2], [3, 4]]) == 2
        assert dense_rank([[2, 4, 6], [1, 2, 3], [0, 1, 1]]) == 2

    def test_dense_rank_needs_no_unit_pivot(self):
        assert dense_rank([[2, 3], [5, 7]]) == 2
        assert dense_rank([[6, 10], [9, 15]]) == 1

    def test_sparse_matches_dense(self):
        matrices = [
            [[1, 0, -1], [0, 1, 1], [1, 1, 0]],
            [[2, 4], [3, 6], [1, 2]],
            [[0, 0], [0, 0]],
            [[5]],
        ]
        for m in matrices:
            sparse = [{j: v for j, v in enumerate(row) if v} for row in m]
            assert sparse_rank(sparse) == dense_rank(m)

    @given(_integer_matrices())
    def test_sparse_matches_dense_on_rows_and_columns(self, m):
        # the Koszul oracle hands sparse_rank columns, relying on rank being
        # unchanged under transpose
        ncols = len(m[0]) if m else 0
        rows = [{c: v for c, v in enumerate(row) if v} for row in m]
        columns = [{r: row[c] for r, row in enumerate(m) if row[c]} for c in range(ncols)]
        assert sparse_rank(rows) == dense_rank(m)
        assert sparse_rank(columns) == dense_rank(m)

    @given(_oracle_shaped_rows())
    def test_sparse_matches_dense_on_oracle_shaped_rows(self, drawn):
        ncols, rows = drawn
        before = [dict(row) for row in rows]
        dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
        # the chart complexes hand sparse_rank a generator, read once
        assert sparse_rank(iter(rows)) == dense_rank(dense)
        # pivots may be the caller's rows; none of them is changed
        assert rows == before


def _chart_exponents(k: int, N: int) -> tuple[range, range]:
    """Window-truncated exponents of the sections of the degree-k sheaf on
    each chart: polynomial on chart 0, bounded above by k on chart 1."""
    return range(0, N + 1), range(-N, min(k, N) + 1)


def _reference_p1_dims(k: int, N: int) -> tuple[int, int]:
    """The chart complex of :func:`cech_h_p1` built from tuple-keyed index
    tables, as a reference for the index arithmetic."""
    exps0, exps1 = _chart_exponents(k, N)
    n0 = len(exps0) + len(exps1)
    overlap_index = {e: i for i, e in enumerate(range(-N, N + 1))}
    n1 = len(overlap_index)
    columns = [{overlap_index[e]: -1} for e in exps0]
    columns += [{overlap_index[e]: 1} for e in exps1]
    rank = sparse_rank(columns)
    return n0 - rank, n1 - rank


def _reference_product_dims(a: int, b: int, N: int) -> tuple[int, int, int]:
    """The double complex of :func:`cech_h_product` built from tuple-keyed
    index tables, as a reference for the index arithmetic. Every term is
    listed row-major in its x-factor, then its y-factor."""
    x_charts, y_charts = _chart_exponents(a, N), _chart_exponents(b, N)
    sign = {0: -1, 1: 1}
    t0 = [
        (cx, cy, e, f)
        for cx in (0, 1)
        for e in x_charts[cx]
        for cy in (0, 1)
        for f in y_charts[cy]
    ]
    t1 = [
        ("x", cy, e, f)
        for e in range(-N, N + 1)
        for cy in (0, 1)
        for f in y_charts[cy]
    ]
    t1 += [
        ("y", cx, e, f)
        for cx in (0, 1)
        for e in x_charts[cx]
        for f in range(-N, N + 1)
    ]
    t2 = [(e, f) for e in range(-N, N + 1) for f in range(-N, N + 1)]
    t1_index = {key: i for i, key in enumerate(t1)}
    t2_index = {key: i for i, key in enumerate(t2)}
    d0_cols = [
        {t1_index[("x", cy, e, f)]: sign[cx], t1_index[("y", cx, e, f)]: sign[cy]}
        for (cx, cy, e, f) in t0
    ]
    d1_cols = []
    for key in t1:
        if key[0] == "x":
            _, cy, e, f = key
            d1_cols.append({t2_index[(e, f)]: sign[cy]})
        else:
            _, cx, e, f = key
            d1_cols.append({t2_index[(e, f)]: -sign[cx]})
    rank0 = sparse_rank(d0_cols)
    rank1 = sparse_rank(d1_cols)
    return len(t0) - rank0, len(t1) - rank0 - rank1, len(t2) - rank1


class TestIndexArithmetic:
    """The chart complexes equal the tuple-keyed reference builders."""

    def test_p1_dims_match_reference(self):
        for k in range(-7, 8):
            need = abs(k) + 2
            for N in range(need, need + 3):
                assert oracle_module._p1_dims(k, N) == _reference_p1_dims(k, N), (k, N)

    def test_product_dims_match_reference(self):
        for sa in (1, -1):
            for sb in (1, -1):
                for a in range(4):
                    for b in range(4):
                        need = max(a, b) + 2
                        for N in range(need, need + 3):
                            got = oracle_module._product_dims(sa * a, sb * b, N)
                            want = _reference_product_dims(sa * a, sb * b, N)
                            assert got == want, (sa * a, sb * b, N)

    def test_same_matrices_as_reference(self, monkeypatch):
        # the same columns reach the rank, entry for entry
        seen = []
        record = lambda rows: seen.append(list(rows)) or 0  # noqa: E731
        monkeypatch.setattr(oracle_module, "sparse_rank", record)
        monkeypatch.setitem(globals(), "sparse_rank", record)

        def matrices(builder, *args):
            seen.clear()
            builder(*args)
            return list(seen)

        for a, b in ((2, -1), (-3, 1), (0, 0), (-2, -2)):
            N = max(abs(a), abs(b)) + 3
            assert matrices(oracle_module._product_dims, a, b, N) == matrices(
                _reference_product_dims, a, b, N
            )
        for k in (-4, 0, 3):
            assert matrices(oracle_module._p1_dims, k, abs(k) + 2) == matrices(
                _reference_p1_dims, k, abs(k) + 2
            )

    def test_product_streams_form_a_complex(self, monkeypatch):
        # d1 sends every d0 column to zero; scaling either block of d1 keeps
        # both ranks, so only the composite sees a wrong sign
        seen = []
        monkeypatch.setattr(oracle_module, "sparse_rank", lambda rows: seen.append(list(rows)) or 0)
        for a in range(-3, 4):
            for b in range(-3, 4):
                need = max(abs(a), abs(b)) + 2
                for N in (need, need + 1):
                    seen.clear()
                    oracle_module._product_dims(a, b, N)
                    d0, d1 = seen
                    for column in d0:
                        image = {}
                        for row, value in column.items():
                            for target, entry in d1[row].items():
                                image[target] = image.get(target, 0) + value * entry
                        assert not any(image.values()), (a, b, N, column)


class TestP1Oracle:
    @pytest.mark.parametrize("k,expected", [(3, (4, 0)), (-1, (0, 0)), (-4, (0, 3))])
    def test_closed_form_anchors(self, k, expected):
        assert cech_h_p1(k)[:2] == expected

    def test_window_too_small(self):
        with pytest.raises(ValueError, match="need N >= 7 for degree 5, got 3"):
            cech_h_p1(5, 3)

    def test_stabilization_over_wider_windows(self):
        for k in range(-20, 21):
            h0, h1, window = cech_h_p1(k)
            assert window == abs(k) + 2
            assert cech_h_p1(k, window + 3) == (h0, h1, window + 3)


class TestProductOracle:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (0, 0, (1, 0, 0)),
            (2, -2, (0, 3, 0)),
            (-2, -2, (0, 0, 1)),
        ],
    )
    def test_anchors(self, a, b, expected):
        assert cech_h_product(a, b)[:3] == expected

    def test_structure_sheaf_vanishing(self):
        _, h1, h2, _ = cech_h_product(0, 0)
        assert h1 == 0 and h2 == 0

    def test_agrees_with_convolution_of_line_oracle(self):
        # the double complex and the convolution of the line oracle are
        # independent computation paths and must agree
        for a in range(-4, 5):
            for b in range(-4, 5):
                (a0, a1, _), (b0, b1, _) = cech_h_p1(a), cech_h_p1(b)
                expected = (a0 * b0, a0 * b1 + a1 * b0, a1 * b1)
                assert cech_h_product(a, b)[:3] == expected, (a, b)

    @given(st.integers(-8, 8), st.integers(-8, 8))
    def test_agrees_with_closed_form_rules(self, a, b):
        *h, _ = cech_h_product(a, b)
        assert kunneth_h(P1P1, (a, b)) == tuple(map(Dim.exact, h)), (a, b)

    def test_window_too_small(self):
        with pytest.raises(ValueError, match=r"need N >= 6 for bidegree \(4, 0\), got 3"):
            cech_h_product(4, 0, 3)


class TestKoszulOracle:
    @pytest.mark.parametrize(
        "a,b,expected",
        [(1, 1, (1, 2, 1)), (2, 3, (6, 12, 6)), (1, 5, (5, 10, 5))],
    )
    def test_examples(self, a, b, expected):
        assert koszul_ext(a, b) == expected

    def test_zero_differentials_across_grid(self):
        for a in range(1, 5):
            for b in range(1, 5):
                assert koszul_ext(a, b) == (a * b, 2 * a * b, a * b)

    def test_euler_characteristic_vanishes(self):
        for a in range(1, 5):
            for b in range(1, 5):
                e0, e1, e2 = koszul_ext(a, b)
                assert e0 - e1 + e2 == 0

    def test_rejects_bad_exponents(self):
        for a, b in [(0, 2), (2, 0), (-1, 1)]:
            with pytest.raises(ValueError, match="exponents must be >= 1"):
                koszul_ext(a, b)

    def test_multiplication_matrices_really_vanish(self):
        # the generators annihilate the quotient ring basis, column by column
        for dx, dy in [(3, 0), (0, 2)]:
            columns = list(_multiplication_matrix(3, 2, dx, dy))
            assert len(columns) == 6
            assert all(column == {} for column in columns)
        # a non-annihilating monomial produces a genuinely nonzero column
        assert any(_multiplication_matrix(3, 2, 1, 0))

    def test_multiplication_ranks(self):
        # x^dx y^dy is injective on the monomials it keeps inside the box
        # and kills the rest, so its rank counts the kept monomials
        for a in range(1, 5):
            for b in range(1, 5):
                for dx in range(6):
                    for dy in range(6):
                        rank = sparse_rank(_multiplication_matrix(a, b, dx, dy))
                        assert rank == max(0, a - dx) * max(0, b - dy), (a, b, dx, dy)

    def test_large_length_runs_in_linear_memory(self):
        # l = 90,000: dense l x l differentials would need far more than the
        # 1 GiB address space the child gets; sparse columns fit in a few dozen MB
        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = str(Path(modulidim.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "modulidim.cli", "oracle", "koszul", "--a", "300", "--b", "300"],
            env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit_address_space,
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout)["results"]
        dims = [results[key]["value"] for key in ("hom", "ext1", "ext2", "length")]
        assert dims == [90_000, 180_000, 90_000, 90_000]


@pytest.mark.parametrize(
    "oracle,args,bound_mib",
    [(cech_h_product, (40, 40), 6), (cech_h_p1, (9000,), 2)],
)
def test_chart_complexes_peak_with_the_rank(oracle, args, bound_mib):
    # columns are generated and one-entry pivots are a set of columns, so
    # the traced peak follows the rank; holding every column of these
    # complexes at once peaks at about 11.6 and 7.6 MiB
    tracemalloc.start()
    try:
        oracle(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mib << 20, peak


def test_koszul_complex_peaks_at_constant_memory():
    # both differentials are generated and rank zero, so nothing is kept;
    # holding their columns as lists at once peaks at about 20 MiB
    tracemalloc.start()
    try:
        koszul_ext(300, 300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_cohomology_ranks_one_stream_after_the_other(monkeypatch):
    events = []

    def stream(name, columns):
        events.append(f"{name} starts")
        yield from columns
        events.append(f"{name} ends")

    def rank(rows):
        r = sparse_rank(rows)
        events.append(f"rank {r}")
        return r

    monkeypatch.setattr(oracle_module, "sparse_rank", rank)
    # Z^2 -> Z^3 -> Z^1: d0 maps both generators onto e0, d1 maps e1 onto
    # the generator and kills e0 and e2; both have rank 1
    d0 = stream("d0", [{0: 1}, {0: -1}])
    d1 = stream("d1", [{}, {0: 1}, {}])
    assert oracle_module._cohomology((2, 3, 1), d0, d1) == (1, 1, 0)
    assert events == ["d0 starts", "d0 ends", "rank 1", "d1 starts", "d1 ends", "rank 1"]
    assert oracle_module._cohomology((4,)) == (4,)


def test_out_of_memory_exits_one_with_one_line():
    # a window of 10^8 + 1 monomials outgrows a 256 MiB address space; the
    # MemoryError becomes one error line and exit 1, with no traceback
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    src = str(Path(modulidim.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "modulidim.cli", "oracle", "p1", "--k", "100000000"],
        env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit_address_space,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "modulidim: error: out of memory\n"
    assert "Traceback" not in proc.stderr


def _identity_multiplication(a, b, dx, dy):
    return [{i: 1} for i in range(a * b)]


def test_koszul_guard_trips_on_nonzero_differential(monkeypatch):
    monkeypatch.setattr(oracle_module, "_multiplication_matrix", _identity_multiplication)
    with pytest.raises(OracleCheckError, match=r"ranks \(4, 4\), expected zero"):
        koszul_ext(2, 2)


class TestInternalCheckExitCode:
    """A failed internal check exits 4 with one error line and no stdout."""

    def _assert_exits_four(self, capsys, *argv):
        from modulidim.cli import main

        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("modulidim: error: ")
        assert captured.err.count("\n") == 1

    def test_unstabilized_p1_exits_four(self, monkeypatch, capsys):
        # a window-dependent answer: windows N and N + 1 disagree
        monkeypatch.setattr(oracle_module, "_p1_dims", lambda k, N: (N, 0))
        with pytest.raises(OracleCheckError, match="degree 2 not stabilized at window 4"):
            cech_h_p1(2)
        self._assert_exits_four(capsys, "oracle", "p1", "--k", "2")

    def test_unstabilized_product_exits_four(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle_module, "_product_dims", lambda a, b, N: (N, 0, 0))
        with pytest.raises(OracleCheckError, match=r"bidegree \(1, -1\) not stabilized"):
            cech_h_product(1, -1)
        self._assert_exits_four(
            capsys, "oracle", "product", "--a", "1", "--b", "-1", "--format", "markdown"
        )

    def test_nonvanishing_koszul_differential_exits_four(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle_module, "_multiplication_matrix", _identity_multiplication)
        self._assert_exits_four(capsys, "oracle", "koszul", "--a", "2", "--b", "2")
