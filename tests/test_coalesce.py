"""Sorting and coalescing of coordinate data on non-canonical input.

``from_coo``, ``sort_indices``, ``partition_rows_by_category`` and the
truncation ranking sort through stable ``argsort`` passes on ``int64``
keys; these tests pin them bit-for-bit to straightforward references
(Python loops and ``np.lexsort``) on unsorted, duplicated, tied and empty
inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.amg.truncation import truncate_interpolation
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import coalesce, coo_keys, coo_order, indptr_from_counts, segment_sum
from repro.sparse.reorder import partition_rows_by_category
from repro.sparse.spgemm import sp_add, sp_add_plan, spgemm, spgemm_plan


def _assert_same(A: CSRMatrix, B: CSRMatrix) -> None:
    assert A.shape == B.shape
    np.testing.assert_array_equal(A.indptr, B.indptr)
    np.testing.assert_array_equal(A.indices, B.indices)
    assert A.data.tobytes() == B.data.tobytes()


def _coo_reference(shape, rows, cols, vals) -> CSRMatrix:
    """Per-entry loop: duplicates summed in input order, rows sorted by col."""
    acc: dict[tuple[int, int], float] = {}
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        acc[(r, c)] = acc.get((r, c), 0.0) + v
    keys = sorted(acc)
    counts = np.bincount([r for r, _ in keys], minlength=shape[0])
    return CSRMatrix(shape, indptr_from_counts(counts),
                     np.array([c for _, c in keys], dtype=np.int64),
                     np.array([acc[k] for k in keys], dtype=np.float64))


def _noncanonical_triplets(seed: int, nrows: int = 9, ncols: int = 7, nnz: int = 60):
    rng = np.random.default_rng(seed)
    # Rows 2 and 5 stay empty; few distinct columns force duplicates.
    rows = rng.choice(np.setdiff1d(np.arange(nrows), [2, 5]), nnz)
    cols = rng.integers(0, ncols, nnz)
    vals = rng.standard_normal(nnz) * 10.0 ** rng.integers(-8, 8, nnz)
    return (nrows, ncols), rows, cols, vals


class TestFromCoo:
    @pytest.mark.parametrize("seed", range(5))
    def test_duplicates_summed_in_input_order(self, seed):
        shape, rows, cols, vals = _noncanonical_triplets(seed)
        A = CSRMatrix.from_coo(shape, rows, cols, vals)
        _assert_same(A, _coo_reference(shape, rows, cols, vals))
        assert A.has_sorted_indices()
        assert A.row_nnz()[2] == 0 and A.row_nnz()[5] == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_without_summing_keeps_duplicates_in_input_order(self, seed):
        shape, rows, cols, vals = _noncanonical_triplets(seed)
        A = CSRMatrix.from_coo(shape, rows, cols, vals, sum_duplicates=False)
        order = np.lexsort((cols, rows))
        np.testing.assert_array_equal(A.indices, cols[order])
        assert A.data.tobytes() == vals[order].tobytes()
        np.testing.assert_array_equal(A.row_ids(), rows[order])

    @pytest.mark.parametrize("sum_duplicates", [True, False])
    def test_empty(self, sum_duplicates):
        e = np.empty(0, dtype=np.int64)
        A = CSRMatrix.from_coo((4, 3), e, e, np.empty(0),
                               sum_duplicates=sum_duplicates)
        assert A.shape == (4, 3) and A.nnz == 0
        np.testing.assert_array_equal(A.indptr, np.zeros(5, dtype=np.int64))
        assert A.indices.dtype == np.int64 and A.data.dtype == np.float64

    def test_zero_columns(self):
        e = np.empty(0, dtype=np.int64)
        A = CSRMatrix.from_coo((3, 0), e, e, np.empty(0))
        assert A.shape == (3, 0) and A.nnz == 0


class TestSortIndices:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_lexsort(self, seed):
        shape, rows, cols, vals = _noncanonical_triplets(seed)
        order = np.argsort(rows, kind="stable")  # CSR rows, unsorted columns
        counts = np.bincount(rows, minlength=shape[0])
        A = CSRMatrix(shape, indptr_from_counts(counts), cols[order], vals[order])
        ref = np.lexsort((A.indices, A.row_ids()))
        S = A.sort_indices()
        np.testing.assert_array_equal(S.indptr, A.indptr)
        np.testing.assert_array_equal(S.indices, A.indices[ref])
        assert S.data.tobytes() == A.data[ref].tobytes()

    def test_empty(self):
        S = CSRMatrix.zeros((3, 5)).sort_indices()
        assert S.nnz == 0 and S.shape == (3, 5)


class TestKeys:
    def test_key_fits_int64_at_the_limit(self):
        # nrows * ncols == 2**63: the largest key is exactly int64 max.
        k = coo_keys((2**32, 2**31), np.array([2**32 - 1]), np.array([2**31 - 1]))
        assert k.dtype == np.int64 and int(k[0]) == np.iinfo(np.int64).max

    @pytest.mark.parametrize("shape", [(2**32, 2**31 + 1), (2**40, 2**40)])
    def test_key_overflow_is_rejected(self, shape):
        with pytest.raises(OverflowError):
            coo_keys(shape, np.array([0]), np.array([0]))
        with pytest.raises(OverflowError):
            CSRMatrix.from_coo(shape, np.array([0]), np.array([1]), np.array([1.0]))

    @pytest.mark.parametrize("seed", range(3))
    def test_order_and_coalesce_match_lexsort(self, seed):
        shape, rows, cols, _ = _noncanonical_triplets(seed)
        ref = np.lexsort((cols, rows))
        np.testing.assert_array_equal(coo_order(shape, rows, cols), ref)
        indptr, indices, order, group = coalesce(shape, rows, cols)
        np.testing.assert_array_equal(order, ref)
        first = np.r_[True, (rows[ref][1:] != rows[ref][:-1])
                      | (cols[ref][1:] != cols[ref][:-1])]
        np.testing.assert_array_equal(group, np.cumsum(first) - 1)
        np.testing.assert_array_equal(indices, cols[ref][first])
        np.testing.assert_array_equal(
            indptr, indptr_from_counts(np.bincount(rows[ref][first], minlength=shape[0])))


class TestPlanTwins:
    """The plan-returning kernels produce exactly the plain kernels' output."""

    def test_spgemm_plan(self):
        shape, rows, cols, vals = _noncanonical_triplets(0, nrows=8, ncols=8)
        A = CSRMatrix.from_coo(shape, rows, cols, vals)
        C, plan = spgemm_plan(A, A.T)
        _assert_same(C, spgemm(A, A.T))
        np.testing.assert_array_equal(plan.indices, C.indices)
        assert plan.expansion == len(plan.a_src) == len(plan.b_src) == len(plan.term_group)

    def test_sp_add_plan(self):
        shape, rows, cols, vals = _noncanonical_triplets(1)
        A = CSRMatrix.from_coo(shape, rows, cols, vals)
        B = CSRMatrix.from_coo(shape, cols % shape[0], rows % shape[1], vals[::-1])
        C, plan = sp_add_plan(A, B, 2.0, -0.5)
        _assert_same(C, sp_add(A, B, 2.0, -0.5))
        assert len(plan.slot_a) == A.nnz and len(plan.slot_b) == B.nnz


def _truncate_reference(P, trunc_fact, max_elmts):
    """Truncation with the k-th largest ranked by ``np.lexsort``."""
    n = P.nrows
    rid = P.row_ids()
    absv = np.abs(P.data)
    row_max = np.zeros(n)
    np.maximum.at(row_max, rid, absv)
    order = np.lexsort((-absv, rid))
    rank = np.arange(P.nnz) - P.indptr[rid[order]]
    kth = np.full(n, np.inf)
    sel = rank == (max_elmts - 1)
    kth[rid[order[sel]]] = absv[order[sel]]
    keep = absv >= np.minimum(trunc_fact * row_max, kth)[rid]
    data, new_rid = P.data[keep], rid[keep]
    old_sum = segment_sum(P.data, rid, n)
    new_sum = segment_sum(data, new_rid, n)
    safe = np.abs(new_sum) > 1e-300
    data = data * np.where(safe, old_sum / np.where(safe, new_sum, 1.0), 1.0)[new_rid]
    counts = np.bincount(new_rid, minlength=n)
    return CSRMatrix(P.shape, indptr_from_counts(counts), P.indices[keep], data)


class TestTruncationTies:
    @pytest.mark.parametrize("max_elmts", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_tied_magnitudes_match_lexsort_ranking(self, seed, max_elmts):
        rng = np.random.default_rng(seed)
        n, nc = 12, 9
        rows = np.repeat(np.arange(n), rng.integers(0, 7, n))
        cols = rng.integers(0, nc, len(rows))
        # Few distinct magnitudes with random signs: many ties per row.
        vals = rng.choice([0.25, 0.5, 1.0], len(rows)) * rng.choice([-1.0, 1.0], len(rows))
        P = CSRMatrix.from_coo((n, nc), rows, cols, vals, sum_duplicates=False)
        got = truncate_interpolation(P, 0.3, max_elmts)
        _assert_same(got, _truncate_reference(P, 0.3, max_elmts))

    def test_ties_at_the_cutoff_are_all_kept(self):
        # The 2nd largest |v| (0.9, tied) binds below 0.95 * max.
        P = CSRMatrix((1, 5), np.array([0, 5]), np.arange(5),
                      np.array([0.5, -1.0, 0.9, -0.9, 0.2]))
        T = truncate_interpolation(P, 0.95, 2, rescale=False)
        np.testing.assert_array_equal(T.indices, [1, 2, 3])


class TestPartitionRowsByCategory:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_lexsort(self, seed):
        shape, rows, cols, vals = _noncanonical_triplets(seed)
        A = CSRMatrix.from_coo(shape, rows, cols, vals, sum_duplicates=False)
        cat = np.random.default_rng(seed).integers(0, 3, A.nnz)
        B, ptrs = partition_rows_by_category(A, cat, 3)
        ref = np.lexsort((np.arange(A.nnz), cat, A.row_ids()))
        np.testing.assert_array_equal(B.indices, A.indices[ref])
        assert B.data.tobytes() == A.data[ref].tobytes()
        np.testing.assert_array_equal(ptrs[0], A.indptr[:-1])
        np.testing.assert_array_equal(ptrs[3], A.indptr[1:])
