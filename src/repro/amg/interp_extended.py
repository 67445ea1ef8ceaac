"""Extended+i (distance-two) interpolation, Eq. (1) of the paper (§3.1.2).

For an F point *i*::

    w_ij = -(1/a~_ii) * ( a_ij + sum_{k in F_i^s} a_ik * abar_kj / b_ik ),  j in Chat_i

    a~_ii = a_ii + sum_{n in N_i^w \\ Chat_i} a_in + sum_{k in F_i^s} a_ik * abar_ki / b_ik
    b_ik  = sum_{l in Chat_i + {i}} abar_kl
    abar_kl = 0 when sign(a_kk) == sign(a_kl), else a_kl
    Chat_i = C_i^s  union  (union over k in F_i^s of C_k^s)

Two implementations:

* :func:`extended_i_interpolation` — fully vectorized, in two passes.
  :func:`extended_i_symbolic` finds the distance-two structure, which is
  exactly a SpGEMM expansion over the strong-F pairs (the paper makes the
  same observation), so it reuses the expansion machinery of
  :mod:`repro.sparse.spgemm`; the set-membership tests that the native
  code does with a marker array become bulk binary searches.  Its
  :class:`ExtIPlan` term maps drive :func:`extended_i_values`, which does
  all the floating-point work.  A same-pattern refresh replays only the
  value pass (:func:`extended_i_numeric`).
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

from dataclasses import dataclass

import numpy as np

from ..perf.counters import IDX_BYTES, PTR_BYTES, VAL_BYTES, collect, count
from ..sparse.csr import CSRMatrix
from ..sparse.ops import coalesce, gather_range_indices, indptr_from_counts, segment_sum
from ..sparse.spgemm import spgemm
from .interp_common import coarse_index, entries_in_pattern, identity_rows, pattern_keys
from .truncation import truncate_interpolation

__all__ = ["ExtIPlan", "extended_i_interpolation", "extended_i_numeric",
           "extended_i_reference", "extended_i_symbolic", "extended_i_values"]

_TINY = 1e-300


def _strong_mask(A: CSRMatrix, S: CSRMatrix) -> np.ndarray:
    return entries_in_pattern(A.row_ids(), A.indices, S)


@dataclass
class ExtIPlan:
    """Symbolic state of one extended+i construction (the term maps).

    Everything here is a function of the sparsity, the strength pattern,
    the CF split — and of ``b_ok``, the set of strong-F pairs ``(i, k)``
    with a non-degenerate ``b_ik``, which decides which distance-two terms
    reach the weights.  :func:`extended_i_values` recomputes every number
    from an operator's values through these maps, so a same-pattern
    refresh skips the distance-two SpGEMM, the ``Chat`` assembly, both
    membership searches and the output coalesce sort.
    """

    #: output shape ``(n, n_coarse)``
    shape: tuple[int, int]
    #: diagonal positions: ``diag[diag_rows] = A.data[diag_src]``
    diag_rows: np.ndarray
    diag_src: np.ndarray
    #: strong-F pair values ``a_ik``: ``A.data[afs_src]``, summed through
    #: ``afs_group`` when ``A``'s rows are not canonical (as ``from_coo``)
    afs_src: np.ndarray
    afs_group: np.ndarray | None
    #: row ``i`` of every strong-F pair
    afs_rows: np.ndarray
    #: distance-two terms that reach a ``b_ik`` sum or a weight (``l`` in
    #: ``Chat_i`` or ``l == i``): entry of ``abar_kl``, pair ``(i, k)``, row
    eidx: np.ndarray
    p_pair: np.ndarray
    p_i: np.ndarray
    in_chat: np.ndarray
    is_diag_i: np.ndarray
    #: weak neighbours outside ``Chat`` (lumped into ``a~_ii``)
    wk_src: np.ndarray
    #: direct ``a_ij`` numerator entries (``j`` in ``Chat_i``)
    dir_src: np.ndarray
    #: non-degenerate strong-F pairs the numerator map below was built for
    b_ok: np.ndarray
    #: pre-drop output pattern and the numerator coalesce:
    #: ``data = bincount(group, weights=terms[order])`` over the terms
    #: ``[C-point identities, direct numerators, distance-two numerators]``
    indptr: np.ndarray
    indices: np.ndarray
    order: np.ndarray
    group: np.ndarray
    #: term counts for the cost models
    expansion: int
    contrib: int
    afs_nnz: int


def _masked(A: CSRMatrix, canonical: bool, mask: np.ndarray):
    """Pattern of the entries of *A* selected by *mask*, in canonical CSR,
    plus how their values are formed: ``(M, src, group)`` where ``M``'s
    values are ``A.data[src]`` (summed through ``group`` when *A* is not
    *canonical* — sorted, duplicate-free rows — as ``from_coo`` does)."""
    src = np.flatnonzero(mask)
    rows = A.row_ids()[src]
    if not canonical:
        indptr, indices, order, group = coalesce(A.shape, rows, A.indices[src])
        return (CSRMatrix(A.shape, indptr, indices, np.ones(len(indices))),
                src[order], group)
    counts = np.bincount(rows, minlength=A.nrows)
    return (CSRMatrix(A.shape, indptr_from_counts(counts), A.indices[src],
                      np.ones(len(src))), src, None)


def _pair_sums(A: CSRMatrix, diag_rows, diag_src, eidx, p_pair, npairs: int):
    """``(diag, abar_kl per term, b_ik per pair)`` from *A*'s values."""
    vals = A.data
    diag = np.zeros(A.nrows)
    diag[diag_rows] = vals[diag_src]
    abar = np.where(np.sign(diag)[A.row_ids()] == np.sign(vals), 0.0, vals)
    p_abar = abar[eidx]
    return diag, p_abar, segment_sum(p_abar, p_pair, npairs)


def extended_i_symbolic(
    A: CSRMatrix,
    S: CSRMatrix,
    cf_marker: np.ndarray,
    *,
    active_rows: np.ndarray | None = None,
) -> ExtIPlan:
    """Symbolic pass of extended+i: the :class:`ExtIPlan` term maps.

    Charges the distance-two ``Chat`` SpGEMM; everything else it does is
    covered by :func:`extended_i_values`' record.
    """
    n = A.nrows
    cf_marker = np.asarray(cf_marker)
    c_idx, nc = coarse_index(cf_marker)

    rid = A.row_ids()
    cols = A.indices
    offdiag = cols != rid
    f_row = cf_marker[rid] <= 0
    if active_rows is not None:
        active_rows = np.asarray(active_rows, dtype=bool)
        f_row &= active_rows[rid]

    strong = _strong_mask(A, S)
    is_c_col = cf_marker[cols] > 0

    # Strong-C adjacency (all rows) and strong-F pairs (F rows only).
    canonical = A.has_sorted_indices()
    sc = strong & is_c_col
    SC = _masked(A, canonical, sc)[0]
    fs = strong & ~is_c_col & f_row & offdiag
    AFS, afs_src, afs_group = _masked(A, canonical, fs)

    # Chat pattern: strong C of i plus strong C of i's strong F neighbours.
    D2 = spgemm(AFS, SC, kernel="interp.exti_dist2")
    chat_rows = np.concatenate([rid[sc & f_row], D2.row_ids()])
    chat_cols = np.concatenate([cols[sc & f_row], D2.indices])
    Chat = CSRMatrix.from_coo((n, n), chat_rows, chat_cols, np.ones(len(chat_rows)))
    chat_keys = pattern_keys(Chat)

    # ---- pairwise expansion over (i, k in F_i^s) through rows of abar ----
    kcounts = A.indptr[AFS.indices + 1] - A.indptr[AFS.indices]
    eidx = gather_range_indices(A.indptr[AFS.indices], kcounts)
    p_pair = np.repeat(np.arange(AFS.nnz, dtype=np.int64), kcounts)
    p_i = np.repeat(AFS.row_ids(), kcounts)
    p_l = A.indices[eidx]
    expansion = len(p_l)
    in_chat = entries_in_pattern(p_i, p_l, Chat, keys=chat_keys)
    is_diag_i = p_l == p_i
    # Only terms in Chat_i + {i} reach a b_ik sum or a weight.
    keep = in_chat | is_diag_i
    eidx, p_pair, p_i, p_l = eidx[keep], p_pair[keep], p_i[keep], p_l[keep]
    in_chat, is_diag_i = in_chat[keep], is_diag_i[keep]
    in_chat_A = entries_in_pattern(rid, cols, Chat, keys=chat_keys)
    dir_src = np.flatnonzero(f_row & in_chat_A)
    diag_src = np.flatnonzero(~offdiag)
    diag_rows = rid[diag_src]

    # The numerator terms of degenerate pairs (b_ik == 0) are dropped, so
    # the output coalesce is built for this operator's b_ok.
    b = _pair_sums(A, diag_rows, diag_src, eidx, p_pair, AFS.nnz)[2]
    b_ok = np.abs(b) > _TINY
    wsel = b_ok[p_pair] & in_chat
    cr, cc, _ = identity_rows(cf_marker)
    if active_rows is not None:
        keep_c = active_rows[cr]
        cr, cc = cr[keep_c], cc[keep_c]
    indptr, indices, order, group = coalesce(
        (n, nc),
        np.concatenate([cr, rid[dir_src], p_i[wsel]]),
        np.concatenate([cc, c_idx[cols[dir_src]], c_idx[p_l[wsel]]]),
    )
    return ExtIPlan(
        shape=(n, nc), diag_rows=diag_rows, diag_src=diag_src,
        afs_src=afs_src, afs_group=afs_group, afs_rows=AFS.row_ids(),
        eidx=eidx, p_pair=p_pair, p_i=p_i, in_chat=in_chat, is_diag_i=is_diag_i,
        wk_src=np.flatnonzero(f_row & offdiag & ~strong & ~in_chat_A),
        dir_src=dir_src, b_ok=b_ok,
        indptr=indptr, indices=indices, order=order, group=group,
        expansion=expansion, contrib=len(eidx), afs_nnz=AFS.nnz,
    )


def extended_i_values(
    plan: ExtIPlan,
    A: CSRMatrix,
    *,
    trunc_fact: float = 0.1,
    max_elmts: int = 4,
    reordered: bool = True,
    fused_truncation: bool = True,
    truncate: bool = True,
) -> CSRMatrix | None:
    """Value pass of extended+i: ``P`` from *A*'s values through *plan*.

    Every floating-point operation happens in the order of the one-shot
    kernel, so the result is bit-identical to
    :func:`extended_i_interpolation` on *A*.  Returns None when *A*'s
    degenerate strong-F pairs (``b_ik == 0``) differ from the ones *plan*
    was built for: the numerator map no longer applies.
    """
    n = A.nrows
    vals = A.data
    diag, p_abar, b = _pair_sums(A, plan.diag_rows, plan.diag_src,
                                 plan.eidx, plan.p_pair, plan.afs_nnz)
    b_ok = np.abs(b) > _TINY
    if not np.array_equal(b_ok, plan.b_ok):
        return None
    b_safe = np.where(b_ok, b, 1.0)
    afs = vals[plan.afs_src]
    if plan.afs_group is not None:
        afs = np.bincount(plan.afs_group, weights=afs, minlength=plan.afs_nnz)

    # Degenerate pairs: lump a_ik into the diagonal.
    atil = diag.copy()
    np.add.at(atil, plan.afs_rows[~b_ok], afs[~b_ok])

    ok_e = b_ok[plan.p_pair]
    w = afs[plan.p_pair] * p_abar / b_safe[plan.p_pair]
    # Diagonal-return term of a~_ii.
    dsel = ok_e & plan.is_diag_i
    np.add.at(atil, plan.p_i[dsel], w[dsel])
    # Weak neighbours not in Chat.
    rid = A.row_ids()
    atil += segment_sum(vals[plan.wk_src], rid[plan.wk_src], n)

    # ---- numerator accumulation ----
    wsel = ok_e & plan.in_chat
    nrows_all = np.concatenate([rid[plan.dir_src], plan.p_i[wsel]])
    nvals_all = np.concatenate([vals[plan.dir_src], w[wsel]])
    atil_safe = np.where(np.abs(atil) > _TINY, atil, 1.0)
    nvals_all = -nvals_all / atil_safe[nrows_all]
    n_ident = len(plan.order) - len(nvals_all)
    terms = np.concatenate([np.ones(n_ident), nvals_all])
    data = np.bincount(plan.group, weights=terms[plan.order],
                       minlength=len(plan.indices))
    P = CSRMatrix(plan.shape, plan.indptr, plan.indices, data).eliminate_zeros()

    a_bytes = A.nnz * (VAL_BYTES + IDX_BYTES) + (n + 1) * PTR_BYTES
    gathered = plan.expansion * (VAL_BYTES + IDX_BYTES) + plan.afs_nnz * 2 * PTR_BYTES
    # Branch model: the irreducible sparse-accumulator branch per expanded
    # term, plus (baseline only) a per-term C/F/sign classification branch
    # that the 3-way partial sort removes.
    branches = float(plan.expansion) if reordered else float(2 * plan.expansion + A.nnz)
    count(
        "interp.extended_i",
        flops=5 * plan.expansion + 4 * A.nnz,
        bytes_read=a_bytes + gathered,
        bytes_written=P.nnz * (VAL_BYTES + IDX_BYTES) + (n + 1) * PTR_BYTES,
        branches=branches,
    )
    if truncate:
        P = truncate_interpolation(
            P, trunc_fact, max_elmts, fused=fused_truncation
        )
    return P


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
    return_plan: bool = False,
) -> CSRMatrix | tuple[CSRMatrix, ExtIPlan]:
    """Vectorized extended+i interpolation ``P`` (``n x n_coarse``):
    :func:`extended_i_values` through :func:`extended_i_symbolic`.

    ``active_rows`` (bool mask) restricts which rows get interpolation
    entries: inactive rows still serve as distance-two neighbours (their
    strong-C sets feed ``Chat``) but receive no P rows.  The distributed
    construction uses this to interpolate only locally owned rows while
    gathered ghost rows provide the distance-two information (§4.3).
    With ``return_plan`` the :class:`ExtIPlan` is returned alongside ``P``
    (for :func:`extended_i_numeric`).
    """
    plan = extended_i_symbolic(A, S, cf_marker, active_rows=active_rows)
    P = extended_i_values(
        plan, A,
        trunc_fact=trunc_fact, max_elmts=max_elmts, reordered=reordered,
        fused_truncation=fused_truncation, truncate=truncate,
    )
    return (P, plan) if return_plan else P


def extended_i_numeric(
    plan: ExtIPlan,
    A: CSRMatrix,
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
    CF split, ``Chat``, and the truncation keep-set) did not, only the
    value pass through the captured *plan* runs — the ``b_ik`` sums, the
    weight numerators, the row scalings and the truncation.

    Returns the recomputed ``P``, or ``None`` when a degenerate ``b_ik``
    appeared or vanished, or the resulting pattern deviates from *pattern*
    (values drifted far enough to change the interpolation structure —
    e.g. a truncation keep-set flipped); the caller must then fall back to
    a full rebuild.  On success the counted record charges only the
    irreducible numeric work, with **zero** data-dependent branches.
    """
    with collect():  # counted below as numeric-only work
        P = extended_i_values(
            plan, A,
            trunc_fact=trunc_fact, max_elmts=max_elmts,
            reordered=reordered, fused_truncation=fused_truncation,
        )
    if P is None or P.shape != pattern.shape or not (
        np.array_equal(P.indptr, pattern.indptr)
        and np.array_equal(P.indices, pattern.indices)
    ):
        return None
    n = A.nrows
    # Irreducible numeric work on a frozen pattern: abar sign filter and
    # diagonal accumulations over A's entries (~4 per entry), one
    # multiply-divide-accumulate per contributing distance-two term, the
    # row scaling, and the (frozen keep-set) truncation rescale.
    flops = 3 * plan.contrib + 4 * A.nnz + 2 * P.nnz + 2 * plan.afs_nnz
    a_bytes = A.nnz * (VAL_BYTES + IDX_BYTES) + (n + 1) * PTR_BYTES
    gathered = plan.expansion * VAL_BYTES + plan.afs_nnz * 2 * PTR_BYTES
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
