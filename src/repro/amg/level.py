"""One level of the AMG hierarchy.

The grid transfers of a level are applied through its prebound
:class:`~repro.amg.solveplan.LevelExec` (``hierarchy.solve_plan.levels[l]``),
which resolves the restrict/interpolate strategy once per hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.csr import CSRMatrix
from .smoothers import HybridGSSmoother

__all__ = ["Level"]


@dataclass
class Level:
    """Level *l* of the hierarchy.

    ``A`` is stored in this level's own ordering (CF-permuted when the
    ``cf_reorder`` optimization is on, so C points occupy rows
    ``[0, n_coarse)``); the parent level's ``P``/``R`` columns are expressed
    in this ordering too, so no vector ever needs permuting between levels.
    """

    A: CSRMatrix
    cf_marker: np.ndarray | None = None
    #: Full interpolation to the next level (rows: this level's ordering).
    P: CSRMatrix | None = None
    #: Fine-point block of P when CF-reordered (``P = [I; P_F]``).
    P_F: CSRMatrix | None = None
    #: Kept restriction ``R = P^T`` (``keep_transpose`` optimization).
    R: CSRMatrix | None = None
    smoother: HybridGSSmoother | None = None
    #: Permutation from the level's *incoming* ordering (the parent's coarse
    #: numbering, or the user ordering at level 0) to the stored ordering.
    new2old: np.ndarray | None = None
    #: When the *next* level was CF-permuted, the coarse block of ``P`` is a
    #: permutation matrix rather than the identity: ``P[i, cperm[i]] = 1``
    #: for coarse point *i* (``cperm = old2new`` of the child level).
    cperm: np.ndarray | None = None
    n_coarse: int = 0

    @property
    def n(self) -> int:
        return self.A.nrows
