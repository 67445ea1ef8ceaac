"""Gathering external matrix rows (§4.1 Fig. 3c, §4.3).

SpGEMM-like operations (coarse-operator construction, interpolation,
transpose) exchange matrix *rows* rather than vector elements.  Rank *p*
requests the rows listed in its ``colmap`` from their owners; the owner
extracts each row, converts its column indices to *global* ids, and ships
``(row sizes, global columns, values)``.

§4.3: for interpolation construction most of a shipped row is never used —
only entries whose column is a C point (candidate ``Chat_i`` member), the
diagonal, and entries pointing back into the requester's row range whose
sign differs from the diagonal's can contribute to Eq. (1).  The *filtered*
gather drops everything else at the sender, cutting the communication
volume by >3x on the paper's inputs; results are bit-identical because the
dropped entries are exactly the ones the receiving kernel would zero or
never read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..perf.counters import IDX_BYTES, VAL_BYTES, count
from ..sparse.ops import coo_order
from .comm import SimComm
from .parcsr import ParCSRMatrix

__all__ = ["GatheredRows", "gather_matrix_rows", "GLOBAL_IDX_BYTES"]

#: Global column ids travel as 64-bit ints (HYPRE_BigInt).
GLOBAL_IDX_BYTES = 8


@dataclass
class GatheredRows:
    """External rows received by one rank, in CSR-with-global-columns form.

    ``row_gids`` are the gathered rows' global ids (ascending); ``indptr``
    delimits rows within ``gcols``/``vals``.  ``extra`` carries any
    per-entry side payloads shipped along (e.g. strong-connection flags).
    """

    row_gids: np.ndarray
    indptr: np.ndarray
    gcols: np.ndarray
    vals: np.ndarray
    extra: dict[str, np.ndarray]

    @property
    def nnz(self) -> int:
        return len(self.gcols)


def gather_matrix_rows(
    comm: SimComm,
    B: ParCSRMatrix,
    needed: list[np.ndarray],
    *,
    tag: str = "rowgather",
    entry_filter=None,
    extra_payloads: dict[str, list[np.ndarray]] | None = None,
    extra_bytes_per_entry: float = 0.0,
) -> list[GatheredRows]:
    """Gather the global rows in ``needed[p]`` for every rank *p*.

    ``entry_filter(owner_rank, row_gids_expanded, gcols, vals) -> keep mask``
    implements §4.3 sender-side filtering.  ``extra_payloads[name][q]`` is a
    per-owner-rank array aligned with rank *q*'s stored entries (diag then
    offd, in ``row_arrays_global`` order) to ship alongside the values;
    ``extra_bytes_per_entry`` is their counted wire size.
    """
    nranks = comm.nranks
    results: list[GatheredRows] = []

    # Pre-extract each owner's triplets once.
    owner_rows: list[np.ndarray] = []
    owner_cols: list[np.ndarray] = []
    owner_vals: list[np.ndarray] = []
    owner_extra: list[dict[str, np.ndarray]] = []
    for q, blk in enumerate(B.blocks):
        r, c, v = blk.row_arrays_global(B.col_part.lo(q))
        order = coo_order(B.shape, r, c)
        owner_rows.append(r[order])
        owner_cols.append(c[order])
        owner_vals.append(v[order])
        ex = {}
        if extra_payloads:
            for name, per_rank in extra_payloads.items():
                ex[name] = per_rank[q][order]
        owner_extra.append(ex)

    for p in range(nranks):
        want = np.asarray(needed[p], dtype=np.int64)
        want = np.unique(want)
        owners = B.row_part.owner_of(want)
        pieces_rows, pieces_cols, pieces_vals = [], [], []
        pieces_extra: dict[str, list[np.ndarray]] = {
            name: [] for name in (extra_payloads or {})
        }
        for q in np.unique(owners):
            q = int(q)
            rows_q = want[owners == q]
            if q != p:
                # The request message: row ids p -> q.
                comm.log_message(p, q, len(rows_q) * GLOBAL_IDX_BYTES,
                                 tag=tag + ".req")
            local = rows_q - B.row_part.lo(q)
            # Select the owner's entries belonging to the requested rows.
            sel = np.isin(owner_rows[q], local)
            r_sel = owner_rows[q][sel] + B.row_part.lo(q)
            c_sel = owner_cols[q][sel]
            v_sel = owner_vals[q][sel]
            ex_sel = {name: arr[sel] for name, arr in owner_extra[q].items()}
            if entry_filter is not None:
                keep = entry_filter(p, r_sel, c_sel, v_sel)
                r_sel, c_sel, v_sel = r_sel[keep], c_sel[keep], v_sel[keep]
                ex_sel = {name: arr[keep] for name, arr in ex_sel.items()}
            if q != p:
                nbytes = len(v_sel) * (
                    VAL_BYTES + GLOBAL_IDX_BYTES + extra_bytes_per_entry
                ) + len(rows_q) * IDX_BYTES
                comm.log_message(q, p, nbytes, tag=tag)
                with comm.on_rank(q):
                    count("rowgather.pack",
                          bytes_read=len(v_sel) * (VAL_BYTES + IDX_BYTES),
                          bytes_written=len(v_sel) * (VAL_BYTES + GLOBAL_IDX_BYTES))
            pieces_rows.append(r_sel)
            pieces_cols.append(c_sel)
            pieces_vals.append(v_sel)
            for name in pieces_extra:
                pieces_extra[name].append(ex_sel[name])

        if pieces_rows:
            ar = np.concatenate(pieces_rows)
            ac = np.concatenate(pieces_cols)
            av = np.concatenate(pieces_vals)
            aextra = {n: np.concatenate(v) for n, v in pieces_extra.items()}
        else:
            ar = np.empty(0, dtype=np.int64)
            ac = np.empty(0, dtype=np.int64)
            av = np.empty(0, dtype=np.float64)
            aextra = {n: np.empty(0) for n in pieces_extra}
        # Assemble received rows in ascending global-row order.
        order = coo_order(B.shape, ar, ac)
        ar, ac, av = ar[order], ac[order], av[order]
        aextra = {n: v[order] for n, v in aextra.items()}
        counts = np.bincount(
            np.searchsorted(want, ar), minlength=len(want)
        ) if len(want) else np.empty(0, dtype=np.int64)
        indptr = np.zeros(len(want) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        with comm.on_rank(p):
            count("rowgather.assemble",
                  bytes_read=len(av) * (VAL_BYTES + GLOBAL_IDX_BYTES),
                  bytes_written=len(av) * (VAL_BYTES + GLOBAL_IDX_BYTES),
                  branches=float(len(av)))
        results.append(GatheredRows(want, indptr, ac, av, aextra))
    return results
