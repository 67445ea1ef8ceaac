"""Sparse matrix–matrix multiplication (SpGEMM) kernels (§3.1.1).

Three faithful code paths:

* :func:`spgemm` — the production kernel.  Numerically it is a vectorized
  Gustavson expansion (one product term per ``(a_ij, b_jk)`` pair) followed
  by a duplicate-eliminating compression.  Its *instrumentation* switches
  between the two implementations the paper contrasts:

  - ``method="two_pass"`` — the traditional implementation: a symbolic pass
    counts each output row's non-zeros (reading both inputs), memory is
    allocated, then a numeric pass reads the inputs *again*.
  - ``method="one_pass"`` — the paper's optimization: each thread writes
    into a pre-allocated chunk during a single read of the inputs, and the
    chunks are copied (contiguously) into the final matrix.  This trades a
    streaming copy of the (smaller) output for a second irregular read of
    the inputs.

* :class:`SpGEMMPlan` / :func:`spgemm_numeric` — "pattern reuse": when
  ``rowptr``/``colidx`` of the output are already populated, the numeric
  product runs with no sparse-accumulator branches.  The paper uses this to
  bound the branching overhead (2.1x speedup, §3.1.1).

* :func:`spgemm_gustavson` (in :mod:`repro.sparse.accumulator`) — the
  literal marker-array row loop, kept as the reference implementation and
  used by the tests as a second, independently-written oracle.

Branch accounting: the marker-array sparse accumulator executes one
data-dependent branch per expanded product term (``marker[k] <
C.rowptr[i]``, the Fig. in §3.1.1); a symbolic pass executes the same
branch again.  Pattern-reuse numeric products execute none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..perf.counters import IDX_BYTES, PTR_BYTES, VAL_BYTES, collect, count
from .csr import CSRMatrix
from .ops import coalesce, gather_range_indices

__all__ = [
    "spgemm",
    "spgemm_plan",
    "spgemm_symbolic",
    "spgemm_numeric",
    "SpGEMMPlan",
    "sp_add",
    "sp_add_plan",
    "sp_add_numeric",
    "SpAddPlan",
    "expansion_size",
    "spgemm_traffic",
]


# ---------------------------------------------------------------------------
# Expansion machinery (shared by all variants)
# ---------------------------------------------------------------------------

def _expand(A: CSRMatrix, B: CSRMatrix):
    """All product terms of ``C = A B``, as entry ids.

    Returns ``(a_src, b_src)``: term *t* contributes
    ``A.data[a_src[t]] * B.data[b_src[t]]`` to
    ``C[row of a_src[t], B.indices[b_src[t]]]``.
    """
    if A.ncols != B.nrows:
        raise ValueError(f"dimension mismatch: {A.shape} @ {B.shape}")
    bcounts = B.indptr[A.indices + 1] - B.indptr[A.indices]
    b_src = gather_range_indices(B.indptr[A.indices], bcounts)
    a_src = np.repeat(np.arange(A.nnz, dtype=np.int64), bcounts)
    return a_src, b_src


def expansion_size(A: CSRMatrix, B: CSRMatrix) -> int:
    """Number of product terms in ``A B`` (= flops/2 of the Gustavson kernel)."""
    bcounts = B.indptr[A.indices + 1] - B.indptr[A.indices]
    return int(bcounts.sum())


# ---------------------------------------------------------------------------
# Traffic model
# ---------------------------------------------------------------------------

def _matrix_bytes(M: CSRMatrix) -> float:
    return float(M.nnz * (VAL_BYTES + IDX_BYTES) + (M.nrows + 1) * PTR_BYTES)


def spgemm_traffic(
    A: CSRMatrix, B: CSRMatrix, C: CSRMatrix, expansion: int, method: str
) -> tuple[float, float, float]:
    """(bytes_read, bytes_written, branches) of one SpGEMM.

    ``B`` is accessed row-by-gathered-row: each product term reads one
    ``(value, index)`` pair of ``B`` non-contiguously; every distinct
    ``a_ij`` also reads two ``B`` row-pointer entries.
    """
    read_A = _matrix_bytes(A)
    read_B = expansion * (VAL_BYTES + IDX_BYTES) + A.nnz * 2 * PTR_BYTES
    write_C = _matrix_bytes(C)
    if method == "one_pass":
        # Single read of the inputs; thread chunks copied into the final
        # contiguous allocation (streaming read + write of C).
        bytes_read = read_A + read_B + write_C
        bytes_written = 2 * write_C
        branches = float(expansion)
    elif method == "two_pass":
        # Symbolic pass reads the index structure of both inputs, numeric
        # pass reads everything again.
        sym_read = A.nnz * IDX_BYTES + (A.nrows + 1) * PTR_BYTES
        sym_read += expansion * IDX_BYTES + A.nnz * 2 * PTR_BYTES
        bytes_read = sym_read + read_A + read_B
        bytes_written = write_C
        branches = 2.0 * expansion
    elif method == "numeric_only":
        # Pattern reuse: read inputs once, write values only, no branches.
        bytes_read = read_A + read_B + C.nnz * IDX_BYTES
        bytes_written = C.nnz * VAL_BYTES
        branches = 0.0
    else:  # pragma: no cover - guarded by callers
        raise ValueError(f"unknown SpGEMM method {method!r}")
    return bytes_read, bytes_written, branches


# ---------------------------------------------------------------------------
# Public kernels
# ---------------------------------------------------------------------------

def _product(A: CSRMatrix, B: CSRMatrix, method: str, kernel: str, parallel: bool):
    """``C = A @ B`` from one expansion and one coalescing sort, plus the
    term mapping: ``(C, a_src, b_src, order, group)`` where expanded term
    ``order[t]`` (factors ``a_src``/``b_src``) lands in slot ``group[t]``."""
    a_src, b_src = _expand(A, B)
    shape = (A.nrows, B.ncols)
    indptr, indices, order, group = coalesce(
        shape, A.row_ids()[a_src], B.indices[b_src])
    evals = A.data[a_src] * B.data[b_src]
    vals = np.bincount(group, weights=evals[order], minlength=len(indices))
    C = CSRMatrix(shape, indptr, indices, vals)
    expansion = len(a_src)
    br, bw, branches = spgemm_traffic(A, B, C, expansion, method)
    count(
        f"{kernel}.{method}",
        flops=2 * expansion,
        bytes_read=br,
        bytes_written=bw,
        branches=branches,
        parallel=parallel,
    )
    return C, a_src, b_src, order, group


def spgemm(
    A: CSRMatrix,
    B: CSRMatrix,
    *,
    method: str = "one_pass",
    kernel: str = "spgemm",
    parallel: bool = True,
) -> CSRMatrix:
    """``C = A @ B`` with the traffic/branch profile of *method*."""
    return _product(A, B, method, kernel, parallel)[0]


@dataclass
class SpGEMMPlan:
    """Symbolic SpGEMM result: the output pattern plus the term mapping.

    ``a_src``/``b_src`` gather every expanded product term's two factors
    from ``A.data``/``B.data``, already in coalesced order, and
    ``term_group`` is the term's output slot, so a numeric pass is a
    gather–multiply–segment-sum with no expansion and no
    sparse-accumulator branches.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    a_src: np.ndarray
    b_src: np.ndarray
    term_group: np.ndarray
    expansion: int


def spgemm_plan(
    A: CSRMatrix,
    B: CSRMatrix,
    *,
    method: str = "one_pass",
    kernel: str = "spgemm",
    parallel: bool = True,
) -> tuple[CSRMatrix, SpGEMMPlan]:
    """:func:`spgemm` plus its :class:`SpGEMMPlan`, from a single pass.

    One expansion and one coalescing sort yield the product and its term
    mapping together — the plan is a by-product, so this is counted exactly
    like :func:`spgemm` (no symbolic record).
    """
    C, a_src, b_src, order, group = _product(A, B, method, kernel, parallel)
    return C, SpGEMMPlan(C.shape, C.indptr, C.indices, a_src[order],
                         b_src[order], group, len(a_src))


def spgemm_symbolic(A: CSRMatrix, B: CSRMatrix, *, kernel: str = "spgemm") -> SpGEMMPlan:
    """Symbolic phase: compute the pattern of ``A B`` and the term mapping."""
    with collect():  # counted below as a symbolic pass
        _, plan = spgemm_plan(A, B)
    if plan.expansion:
        count(
            f"{kernel}.symbolic",
            bytes_read=(A.nnz * IDX_BYTES + (A.nrows + 1) * PTR_BYTES
                        + plan.expansion * IDX_BYTES + A.nnz * 2 * PTR_BYTES),
            bytes_written=len(plan.indices) * IDX_BYTES + (A.nrows + 1) * PTR_BYTES,
            branches=float(plan.expansion),
        )
    return plan


def spgemm_numeric(
    plan: SpGEMMPlan, A: CSRMatrix, B: CSRMatrix, *, kernel: str = "spgemm"
) -> CSRMatrix:
    """Numeric phase with a pre-populated pattern (no accumulator branches).

    This is the §3.1.1 experiment: repeated products with an unchanged
    pattern run ~2.1x faster because the hit/miss branch of the marker array
    disappears.  *A* and *B* must have the patterns the plan was built from;
    the product is bit-identical to a fresh :func:`spgemm` on their values.
    """
    if A.ncols != B.nrows or (A.nrows, B.ncols) != plan.shape:
        raise ValueError(
            f"dimension mismatch: {A.shape} @ {B.shape} vs plan {plan.shape}")
    vals = np.bincount(plan.term_group,
                       weights=A.data[plan.a_src] * B.data[plan.b_src],
                       minlength=len(plan.indices))
    C = CSRMatrix(plan.shape, plan.indptr.copy(), plan.indices.copy(), vals)
    br, bw, branches = spgemm_traffic(A, B, C, plan.expansion, "numeric_only")
    count(
        f"{kernel}.numeric_only",
        flops=2 * plan.expansion,
        bytes_read=br,
        bytes_written=bw,
        branches=branches,
    )
    return C


def sp_add(
    A: CSRMatrix, B: CSRMatrix, alpha: float = 1.0, beta: float = 1.0, *, kernel: str = "sp_add"
) -> CSRMatrix:
    """``alpha*A + beta*B`` with union sparsity (explicit zeros kept)."""
    return sp_add_plan(A, B, alpha, beta, kernel=kernel)[0]


def _union(A: CSRMatrix, B: CSRMatrix):
    """Coalesce the stacked entries of *A* then *B* (see :func:`coalesce`)."""
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    return coalesce(
        A.shape,
        np.concatenate([A.row_ids(), B.row_ids()]),
        np.concatenate([A.indices, B.indices]),
    )


@dataclass
class SpAddPlan:
    """Pattern-reuse plan for :func:`sp_add`: union pattern + scatter slots.

    ``slot_a[t]``/``slot_b[t]`` give the output position of the *t*-th
    stored entry of ``A``/``B``, so a numeric re-add is two branch-free
    scatter-accumulates.  Entries are summed A-before-B per output slot —
    the same order :func:`sp_add`'s stable compression uses — so
    :func:`sp_add_numeric` is bit-identical to a fresh :func:`sp_add`.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    slot_a: np.ndarray
    slot_b: np.ndarray

    @classmethod
    def capture(cls, A: CSRMatrix, B: CSRMatrix) -> "SpAddPlan":
        """Symbolic union of two patterns (uncounted capture helper)."""
        return cls._from_union(A, *_union(A, B))

    @classmethod
    def _from_union(cls, A, indptr, indices, order, group) -> "SpAddPlan":
        slot = np.empty(len(order), dtype=np.int64)
        slot[order] = group
        return cls(A.shape, indptr, indices, slot[: A.nnz], slot[A.nnz:])


def sp_add_plan(
    A: CSRMatrix, B: CSRMatrix, alpha: float = 1.0, beta: float = 1.0, *, kernel: str = "sp_add"
) -> tuple[CSRMatrix, SpAddPlan]:
    """:func:`sp_add` plus its :class:`SpAddPlan`, from one coalescing sort.

    Counted exactly like :func:`sp_add`.
    """
    indptr, indices, order, group = _union(A, B)
    evals = np.concatenate([alpha * A.data, beta * B.data])
    vals = np.bincount(group, weights=evals[order], minlength=len(indices))
    C = CSRMatrix(A.shape, indptr, indices, vals)
    count(
        kernel,
        flops=2 * (A.nnz + B.nnz),
        bytes_read=_matrix_bytes(A) + _matrix_bytes(B),
        bytes_written=_matrix_bytes(C),
        branches=float(A.nnz + B.nnz),
    )
    return C, SpAddPlan._from_union(A, indptr, indices, order, group)


def sp_add_numeric(
    plan: SpAddPlan, A: CSRMatrix, B: CSRMatrix,
    alpha: float = 1.0, beta: float = 1.0, *, kernel: str = "sp_add"
) -> CSRMatrix:
    """``alpha*A + beta*B`` through a pre-captured union pattern.

    Pattern reuse (§3.1.1 applied to the Galerkin additions): the output
    structure and both scatter maps are frozen, so the numeric pass is a
    pair of gathered accumulations with **no** merge branches.  Bit-identical
    to :func:`sp_add` on the same inputs (same per-slot summation order).
    """
    if A.shape != plan.shape or B.shape != plan.shape:
        raise ValueError(f"shape mismatch: {A.shape} / {B.shape} vs plan {plan.shape}")
    vals = np.zeros(len(plan.indices))
    # Unique slots per operand (each input is duplicate-free), summed
    # A-then-B exactly as the fresh kernel's stable compression does.
    vals[plan.slot_a] += alpha * A.data
    vals[plan.slot_b] += beta * B.data
    C = CSRMatrix(plan.shape, plan.indptr.copy(), plan.indices.copy(), vals)
    mul_a = 2 if alpha != 1.0 else 1
    mul_b = 2 if beta != 1.0 else 1
    count(
        f"{kernel}.numeric_only",
        flops=mul_a * A.nnz + mul_b * B.nnz,
        bytes_read=(A.nnz + B.nnz) * (VAL_BYTES + IDX_BYTES),
        bytes_written=C.nnz * VAL_BYTES,
        branches=0.0,
    )
    return C
