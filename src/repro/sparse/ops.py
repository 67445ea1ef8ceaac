"""Low-level vectorized helpers shared by the sparse kernels.

These are the numpy building blocks that stand in for the tight C loops of
the paper's kernels: segment gathers/reductions over CSR structure with no
Python-level per-row loops.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "row_ids_from_indptr",
    "indptr_from_counts",
    "counts_from_indptr",
    "gather_range_indices",
    "segment_sum",
    "prefix_sum_partition",
    "coo_keys",
    "coo_order",
    "coalesce",
]


def row_ids_from_indptr(indptr: np.ndarray) -> np.ndarray:
    """Expand a CSR row pointer into one row id per stored entry.

    ``indptr`` of length ``n+1`` yields an ``int64`` array of length
    ``indptr[-1]`` whose *k*-th element is the row that entry *k* belongs to.
    """
    n = len(indptr) - 1
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))


def counts_from_indptr(indptr: np.ndarray) -> np.ndarray:
    return np.diff(indptr)


def indptr_from_counts(counts: np.ndarray) -> np.ndarray:
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def gather_range_indices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate the ranges ``[starts[i], starts[i]+counts[i])`` vectorized.

    Equivalent to ``np.concatenate([np.arange(s, s+c) for s, c in ...])``
    without a Python loop.  Returns an empty int64 array for empty input.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Offset of each segment within the output.
    seg_offsets = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=seg_offsets[1:])
    out = np.arange(total, dtype=np.int64)
    out += np.repeat(starts - seg_offsets, counts)
    return out


def segment_sum(values: np.ndarray, seg_ids: np.ndarray, nseg: int) -> np.ndarray:
    """Sum *values* into ``nseg`` buckets keyed by *seg_ids*."""
    if len(values) == 0:
        return np.zeros(nseg, dtype=np.float64)
    return np.bincount(seg_ids, weights=values, minlength=nseg)[:nseg]


def prefix_sum_partition(counts: np.ndarray) -> tuple[np.ndarray, int]:
    """The parallel prefix-sum idiom used to assemble variable-size rows.

    The paper parallelizes final-matrix creation (strength matrix, §3.3)
    with a prefix sum over per-row output counts: each thread then knows
    where to write.  Returns ``(indptr, total)``.
    """
    indptr = indptr_from_counts(np.asarray(counts, dtype=np.int64))
    return indptr, int(indptr[-1])


def coo_keys(shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Row-major ``int64`` keys ``row * ncols + col`` (``OverflowError`` if
    ``nrows * ncols`` does not fit)."""
    nrows, ncols = int(shape[0]), int(shape[1])
    if nrows * ncols > 2**63:
        raise OverflowError(f"a {nrows} x {ncols} matrix overflows the int64 sort key")
    return np.asarray(rows, dtype=np.int64) * np.int64(ncols) + np.asarray(cols, dtype=np.int64)


def coo_order(shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Stable row-major sort permutation: ``np.lexsort((cols, rows))``'s
    order, from one ``argsort`` of the ``int64`` keys."""
    return np.argsort(coo_keys(shape, rows, cols), kind="stable")


def coalesce(
    shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Merge duplicate coordinate pairs into a sorted CSR pattern.

    One stable sort yields pattern and term map together: returns
    ``(indptr, indices, order, group)``, where input term ``order[t]`` (the
    :func:`coo_order`) lands in output slot ``group[t]``.  The coalesced
    values, duplicates summed in input order, are
    ``np.bincount(group, weights=vals[order], minlength=len(indices))``.
    """
    nrows, ncols = int(shape[0]), int(shape[1])
    key = coo_keys(shape, rows, cols)
    order = np.argsort(key, kind="stable")
    skey = key[order]
    new = np.empty(len(skey), dtype=bool)
    new[:1] = True
    np.not_equal(skey[1:], skey[:-1], out=new[1:])
    group = np.cumsum(new) - 1
    ukey = skey[new]
    indptr = indptr_from_counts(np.bincount(ukey // ncols, minlength=nrows))
    return indptr, ukey % ncols, order, group
