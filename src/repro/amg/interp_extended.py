"""Extended+i (distance-two) interpolation, Eq. (1) of the paper (§3.1.2).

For an F point *i*::

    w_ij = -(1/a~_ii) * ( a_ij + sum_{k in F_i^s} a_ik * abar_kj / b_ik ),  j in Chat_i

    a~_ii = a_ii + sum_{n in N_i^w \\ Chat_i} a_in + sum_{k in F_i^s} a_ik * abar_ki / b_ik
    b_ik  = sum_{l in Chat_i + {i}} abar_kl
    abar_kl = 0 when sign(a_kk) == sign(a_kl), else a_kl
    Chat_i = C_i^s  union  (union over k in F_i^s of C_k^s)

Two implementations:

* :func:`extended_i_interpolation` — fully vectorized.  The distance-two
  structure is exactly a SpGEMM expansion over the strong-F pairs (the paper
  makes the same observation), so the kernel reuses the expansion machinery
  of :mod:`repro.sparse.spgemm`; the set-membership tests that the native
  code does with a marker array become bulk binary searches.
* :func:`extended_i_reference` — a literal per-row transcription of Eq. (1)
  with marker arrays, used as the oracle in tests.

Degenerate strong-F neighbours with ``b_ik == 0`` are treated as weak
(``a_ik`` lumped into the diagonal), matching BoomerAMG's guard.

The ``reordered`` flag mirrors §3.1.2's branch optimization: with the CF
permutation + 3-way in-row partition (coarse>=0 / coarse<0 / fine) the
kernel's per-entry classification branches disappear; only the irreducible
sparse-accumulation branches remain.  Truncation is fused (§3.1.2) unless
``fused_truncation=False``.
"""

from __future__ import annotations

import numpy as np

from ..perf.counters import IDX_BYTES, PTR_BYTES, VAL_BYTES, collect, count
from ..sparse.csr import CSRMatrix
from ..sparse.ops import gather_range_indices, indptr_from_counts, segment_sum
from ..sparse.spgemm import spgemm
from .interp_common import coarse_index, entries_in_pattern, identity_rows, pattern_keys
from .truncation import truncate_interpolation

__all__ = ["extended_i_interpolation", "extended_i_numeric",
           "extended_i_reference"]

_TINY = 1e-300


def _strong_mask(A: CSRMatrix, S: CSRMatrix) -> np.ndarray:
    return entries_in_pattern(A.row_ids(), A.indices, S)


def _masked(A: CSRMatrix, canonical: bool, mask: np.ndarray, data: np.ndarray) -> CSRMatrix:
    """The entries of *A* selected by *mask*, with values *data*, in
    canonical CSR: masked directly when *A* is *canonical* (sorted,
    duplicate-free rows), else coalesced through ``from_coo``."""
    rows = A.row_ids()[mask]
    if not canonical:
        return CSRMatrix.from_coo(A.shape, rows, A.indices[mask], data)
    counts = np.bincount(rows, minlength=A.nrows)
    return CSRMatrix(A.shape, indptr_from_counts(counts), A.indices[mask], data)


def extended_i_interpolation(
    A: CSRMatrix,
    S: CSRMatrix,
    cf_marker: np.ndarray,
    *,
    trunc_fact: float = 0.1,
    max_elmts: int = 4,
    reordered: bool = True,
    fused_truncation: bool = True,
    truncate: bool = True,
    active_rows: np.ndarray | None = None,
    _stats: dict | None = None,
) -> CSRMatrix:
    """Vectorized extended+i interpolation ``P`` (``n x n_coarse``).

    ``active_rows`` (bool mask) restricts which rows get interpolation
    entries: inactive rows still serve as distance-two neighbours (their
    strong-C sets feed ``Chat``) but receive no P rows.  The distributed
    construction uses this to interpolate only locally owned rows while
    gathered ghost rows provide the distance-two information (§4.3).
    """
    n = A.nrows
    cf_marker = np.asarray(cf_marker)
    c_idx, nc = coarse_index(cf_marker)

    rid = A.row_ids()
    cols = A.indices
    vals = A.data
    diag = A.diagonal()
    offdiag = cols != rid
    f_row = cf_marker[rid] <= 0
    if active_rows is not None:
        active_rows = np.asarray(active_rows, dtype=bool)
        f_row &= active_rows[rid]

    strong = _strong_mask(A, S)
    is_c_col = cf_marker[cols] > 0

    # Strong-C adjacency (all rows) and strong-F pairs (F rows only): masks
    # of A, so canonical (sorted, duplicate-free) when A is.
    canonical = A.has_sorted_indices()
    sc = strong & is_c_col
    SC = _masked(A, canonical, sc, np.ones(int(sc.sum())))
    fs = strong & ~is_c_col & f_row & offdiag
    AFS = _masked(A, canonical, fs, vals[fs])

    # Chat pattern: strong C of i plus strong C of i's strong F neighbours.
    D2 = spgemm(AFS, SC, kernel="interp.exti_dist2")
    chat_rows = np.concatenate([rid[sc & f_row], D2.row_ids()])
    chat_cols = np.concatenate([cols[sc & f_row], D2.indices])
    Chat = CSRMatrix.from_coo((n, n), chat_rows, chat_cols, np.ones(len(chat_rows)))
    chat_keys = pattern_keys(Chat)

    # abar: sign-filtered matrix values on A's pattern.
    abar = np.where(np.sign(diag)[rid] == np.sign(vals), 0.0, vals)

    # ---- pairwise expansion over (i, k in F_i^s) through rows of abar ----
    kcounts = A.indptr[AFS.indices + 1] - A.indptr[AFS.indices]
    eidx = gather_range_indices(A.indptr[AFS.indices], kcounts)
    p_pair = np.repeat(np.arange(AFS.nnz, dtype=np.int64), kcounts)
    p_i = np.repeat(AFS.row_ids(), kcounts)
    p_aik = np.repeat(AFS.data, kcounts)
    p_l = A.indices[eidx]
    p_abar = abar[eidx]
    expansion = len(p_l)

    in_chat = entries_in_pattern(p_i, p_l, Chat, keys=chat_keys)
    is_diag_i = p_l == p_i
    if _stats is not None:
        # Term counts for the pattern-reuse numeric cost model (see
        # extended_i_numeric): only terms that actually contribute to a
        # b_ik sum or a weight survive a frozen-pattern recomputation.
        _stats["expansion"] = expansion
        _stats["contrib"] = int(np.count_nonzero(in_chat | is_diag_i))
        _stats["afs_nnz"] = AFS.nnz

    b = segment_sum(np.where(in_chat | is_diag_i, p_abar, 0.0), p_pair, AFS.nnz)
    b_ok = np.abs(b) > _TINY
    b_safe = np.where(b_ok, b, 1.0)

    # Degenerate pairs: lump a_ik into the diagonal.
    atil = diag.copy()
    if AFS.nnz:
        np.add.at(atil, AFS.row_ids()[~b_ok], AFS.data[~b_ok])

    ok_e = b_ok[p_pair]
    # Diagonal-return term of a~_ii.
    dsel = ok_e & is_diag_i
    if dsel.any():
        np.add.at(atil, p_i[dsel], p_aik[dsel] * p_abar[dsel] / b_safe[p_pair[dsel]])

    # Weak neighbours not in Chat.
    in_chat_A = entries_in_pattern(rid, cols, Chat, keys=chat_keys)
    wk = f_row & offdiag & ~strong & ~in_chat_A
    atil += segment_sum(np.where(wk, vals, 0.0), rid, n)

    # ---- numerator accumulation ----
    wsel = ok_e & in_chat
    num_rows = [rid[f_row & in_chat_A]]
    num_cols = [cols[f_row & in_chat_A]]
    num_vals = [vals[f_row & in_chat_A]]
    if wsel.any():
        num_rows.append(p_i[wsel])
        num_cols.append(p_l[wsel])
        num_vals.append(p_aik[wsel] * p_abar[wsel] / b_safe[p_pair[wsel]])
    nrows_all = np.concatenate(num_rows)
    ncols_all = np.concatenate(num_cols)
    nvals_all = np.concatenate(num_vals)

    atil_safe = np.where(np.abs(atil) > _TINY, atil, 1.0)
    nvals_all = -nvals_all / atil_safe[nrows_all]

    cr, cc, cv = identity_rows(cf_marker)
    if active_rows is not None:
        keep_c = active_rows[cr]
        cr, cc, cv = cr[keep_c], cc[keep_c], cv[keep_c]
    P = CSRMatrix.from_coo(
        (n, nc),
        np.concatenate([cr, nrows_all]),
        np.concatenate([cc, c_idx[ncols_all]]),
        np.concatenate([cv, nvals_all]),
    )
    P = P.eliminate_zeros()

    a_bytes = A.nnz * (VAL_BYTES + IDX_BYTES) + (n + 1) * PTR_BYTES
    gathered = expansion * (VAL_BYTES + IDX_BYTES) + AFS.nnz * 2 * PTR_BYTES
    # Branch model: the irreducible sparse-accumulator branch per expanded
    # term, plus (baseline only) a per-term C/F/sign classification branch
    # that the 3-way partial sort removes.
    branches = float(expansion) if reordered else float(2 * expansion + A.nnz)
    count(
        "interp.extended_i",
        flops=5 * expansion + 4 * A.nnz,
        bytes_read=a_bytes + gathered,
        bytes_written=P.nnz * (VAL_BYTES + IDX_BYTES) + (n + 1) * PTR_BYTES,
        branches=branches,
    )
    if truncate:
        P = truncate_interpolation(
            P, trunc_fact, max_elmts, fused=fused_truncation
        )
    return P


def extended_i_numeric(
    A: CSRMatrix,
    S: CSRMatrix,
    cf_marker: np.ndarray,
    pattern: CSRMatrix,
    *,
    trunc_fact: float = 0.1,
    max_elmts: int = 4,
    reordered: bool = True,
    fused_truncation: bool = True,
) -> CSRMatrix | None:
    """Numeric-only extended+i weight recomputation against a frozen pattern.

    The §3.1.1 pattern-reuse idea applied to interpolation: when the
    operator's values changed but its sparsity (hence ``S``'s pattern, the
    CF split, ``Chat``, and the truncation keep-set) did not, every
    set-membership test, sparse accumulation, and size-discovery pass of
    :func:`extended_i_interpolation` is redundant — only the ``b_ik`` sums,
    the weight numerators, and the row scalings must be recomputed.

    Returns the recomputed ``P``, or ``None`` when the resulting pattern
    deviates from *pattern* (values drifted far enough to change the
    interpolation structure — e.g. a truncation keep-set flipped), in which
    case the caller must fall back to a full rebuild.  On success the
    counted record charges only the irreducible numeric work, with **zero**
    data-dependent branches.
    """
    stats: dict = {}
    with collect():
        P = extended_i_interpolation(
            A, S, cf_marker,
            trunc_fact=trunc_fact, max_elmts=max_elmts,
            reordered=reordered, fused_truncation=fused_truncation,
            _stats=stats,
        )
    if P.shape != pattern.shape or not (
        np.array_equal(P.indptr, pattern.indptr)
        and np.array_equal(P.indices, pattern.indices)
    ):
        return None
    n = A.nrows
    # Irreducible numeric work on a frozen pattern: abar sign filter and
    # diagonal accumulations over A's entries (~4 per entry), one
    # multiply-divide-accumulate per contributing distance-two term, the
    # row scaling, and the (frozen keep-set) truncation rescale.
    flops = 3 * stats["contrib"] + 4 * A.nnz + 2 * P.nnz + 2 * stats["afs_nnz"]
    a_bytes = A.nnz * (VAL_BYTES + IDX_BYTES) + (n + 1) * PTR_BYTES
    gathered = stats["expansion"] * VAL_BYTES + stats["afs_nnz"] * 2 * PTR_BYTES
    count(
        "interp.extended_i.numeric_only",
        flops=flops,
        bytes_read=a_bytes + gathered + P.nnz * IDX_BYTES,
        bytes_written=P.nnz * VAL_BYTES,
        branches=0.0,
    )
    return P


def extended_i_reference(
    A: CSRMatrix,
    S: CSRMatrix,
    cf_marker: np.ndarray,
) -> CSRMatrix:
    """Literal per-row Eq. (1) with marker arrays (test oracle, untruncated)."""
    n = A.nrows
    cf_marker = np.asarray(cf_marker)
    c_idx, nc = coarse_index(cf_marker)
    diag = A.diagonal()
    strong = _strong_mask(A, S)

    def row(i):
        lo, hi = A.indptr[i], A.indptr[i + 1]
        return A.indices[lo:hi], A.data[lo:hi], strong[lo:hi]

    out_r, out_c, out_v = [], [], []
    for i in range(n):
        if cf_marker[i] > 0:
            out_r.append(i)
            out_c.append(int(c_idx[i]))
            out_v.append(1.0)
            continue
        cols_i, vals_i, strong_i = row(i)
        od = cols_i != i
        cs = cols_i[strong_i & od & (cf_marker[cols_i] > 0)]
        fs = cols_i[strong_i & od & (cf_marker[cols_i] <= 0)]
        a_ik_map = dict(zip(cols_i.tolist(), vals_i.tolist()))

        chat = set(cs.tolist())
        for k in fs:
            ck, vk, sk = row(int(k))
            chat.update(ck[sk & (ck != k) & (cf_marker[ck] > 0)].tolist())
        chat_list = sorted(chat)
        pos = {j: t for t, j in enumerate(chat_list)}

        w = np.zeros(len(chat_list))
        atil = diag[i]
        # a_ij term for j in Chat.
        for j, v in zip(cols_i, vals_i):
            if j in pos:
                w[pos[j]] += v
        # weak neighbours outside Chat.
        for j, v, s in zip(cols_i, vals_i, strong_i):
            if j != i and not s and j not in pos:
                atil += v
        for k in fs:
            ck, vk, _ = row(int(k))
            abar_k = np.where(np.sign(diag[k]) == np.sign(vk), 0.0, vk)
            mask = np.array([(c in pos) or (c == i) for c in ck])
            b_ik = float(abar_k[mask].sum()) if mask.any() else 0.0
            a_ik = a_ik_map[int(k)]
            if abs(b_ik) <= _TINY:
                atil += a_ik
                continue
            for c, ab in zip(ck, abar_k):
                if c == i:
                    atil += a_ik * ab / b_ik
                elif c in pos:
                    w[pos[c]] += a_ik * ab / b_ik
        if abs(atil) <= _TINY:
            continue
        for j, t in pos.items():
            if w[t] != 0.0:
                out_r.append(i)
                out_c.append(int(c_idx[j]))
                out_v.append(-w[t] / atil)
    return CSRMatrix.from_coo(
        (n, nc),
        np.array(out_r, dtype=np.int64),
        np.array(out_c, dtype=np.int64),
        np.array(out_v),
    )
