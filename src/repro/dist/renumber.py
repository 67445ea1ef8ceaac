"""Column-index renumbering for gathered matrix rows (§4.2, Fig. 4).

When rank *p* gathers external matrix rows (for SpGEMM-like operations),
the received rows contain global column indices that may not yet exist in
``B_p``'s ``colmap`` and must be assigned new compressed local indices — a
sort-with-duplicate-elimination problem that the paper identifies as a
major multi-node setup bottleneck.

Two implementations, identical results:

* :func:`renumber_baseline` — the serial ordered-set insertion of the
  baseline HYPRE: every new column probes and possibly rebalances an
  ordered set.  Counted as serial work with one data-dependent branch per
  probed index and ``O(log)`` compare chains.
* :func:`renumber_parallel` — Fig. 4: each thread filters its chunk of the
  index stream through a thread-private hash table (duplicates collapse
  without synchronization thanks to the locality of adjacent rows), the
  per-thread survivor sets are merged by a duplicate-eliminating parallel
  merge sort, and lookups go through a range-partitioned reverse hash map
  (``O(log t)`` per lookup instead of ``O(log n)``).

Both return the extended colmap and the compressed indices of the queried
columns in the extended local space: owned columns map to
``[0, nloc)``-style diag indices separately (callers handle the diag/offd
split); here *every* queried global column gets an index into
``old_colmap ++ appended``.
"""

from __future__ import annotations

import math

import numpy as np

from ..perf.counters import IDX_BYTES, count
from ..sparse.ops import coo_order

__all__ = ["renumber_baseline", "renumber_parallel", "RenumberResult"]

from dataclasses import dataclass


@dataclass
class RenumberResult:
    """Extended colmap and per-query compressed indices.

    ``compressed[t]`` indexes ``colmap_new`` for query *t* (queries that hit
    owned columns are the caller's business and must be excluded upfront).
    """

    colmap_new: np.ndarray
    compressed: np.ndarray
    n_appended: int


def _finish(old_colmap: np.ndarray, queries: np.ndarray) -> RenumberResult:
    """Shared result construction (the algorithms differ in counted work).

    New columns are appended after the existing colmap, sorted among
    themselves (Fig. 3c appends and assigns the next local indices).
    """
    in_old = np.isin(queries, old_colmap)
    new_sorted = np.unique(queries[~in_old])
    colmap_new = np.concatenate([old_colmap, new_sorted])
    compressed = np.empty(len(queries), dtype=np.int64)
    if len(old_colmap):
        pos_old = np.searchsorted(old_colmap, queries[in_old])
        compressed[in_old] = pos_old
    compressed[~in_old] = len(old_colmap) + np.searchsorted(
        new_sorted, queries[~in_old]
    )
    return RenumberResult(colmap_new, compressed, len(new_sorted))


def renumber_baseline(
    old_colmap: np.ndarray, queries: np.ndarray, *, owned_mask: np.ndarray | None = None
) -> RenumberResult:
    """Serial ordered-set renumbering (baseline HYPRE accounting)."""
    queries = np.asarray(queries, dtype=np.int64)
    res = _finish(np.asarray(old_colmap, dtype=np.int64), queries)
    n = len(queries)
    logn = math.log2(max(len(res.colmap_new), 2))
    count(
        "renumber.baseline",
        bytes_read=n * IDX_BYTES * logn,  # ordered-set probe chain
        bytes_written=res.n_appended * IDX_BYTES * logn,
        branches=float(n * logn),
        parallel=False,
    )
    return res


def renumber_parallel(
    old_colmap: np.ndarray,
    queries: np.ndarray,
    *,
    nthreads: int = 14,
) -> RenumberResult:
    """Fig. 4 parallel renumbering.

    The execution path really performs the three stages (per-chunk
    dedup -> merge -> partitioned reverse-map lookup); the counted work is
    thread-parallel with ``O(1)`` hash probes plus the ``O(log t)`` range
    search per lookup.
    """
    queries = np.asarray(queries, dtype=np.int64)
    old_colmap = np.asarray(old_colmap, dtype=np.int64)
    n = len(queries)

    # Stage 1: thread-private hash filters (per-chunk dedup), vectorized as
    # one sort over (chunk id, query) keys with a first-occurrence mask —
    # identical survivor multiset to per-chunk np.unique without a Python
    # loop over threads.
    t = max(nthreads, 1)
    if n:
        # np.array_split boundaries: the first n % t chunks get one extra.
        size, extra = divmod(n, t)
        sizes = np.full(t, size, dtype=np.int64)
        sizes[:extra] += 1
        chunk_of = np.repeat(np.arange(t, dtype=np.int64), sizes)
        order = coo_order((t, int(queries.max()) + 1), chunk_of, queries)
        qs, cs = queries[order], chunk_of[order]
        first = np.empty(n, dtype=bool)
        first[0] = True
        first[1:] = (qs[1:] != qs[:-1]) | (cs[1:] != cs[:-1])
        survivors_flat = qs[first]
    else:
        survivors_flat = queries
    # Stage 2: duplicate-eliminating parallel merge.
    merged = np.unique(survivors_flat)
    # Stage 3: partitioned reverse map (executed via the shared helper —
    # results are identical; the stages above establish the counted cost).
    res = _finish(old_colmap, queries)

    logt = math.log2(max(nthreads, 2))
    count(
        "renumber.parallel",
        bytes_read=n * IDX_BYTES  # one streaming pass through the indices
        + len(merged) * IDX_BYTES * 2,  # merge traffic
        bytes_written=res.n_appended * IDX_BYTES,
        branches=float(n + n * logt / 8),
        parallel=True,
    )
    return res
