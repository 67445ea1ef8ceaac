"""Unit tests for the SpGEMM kernels (§3.1.1)."""

import numpy as np
import pytest

from repro.perf import collect
from repro.sparse import (
    CSRMatrix,
    expansion_size,
    sp_add,
    spgemm,
    spgemm_gustavson,
    spgemm_numeric,
    spgemm_symbolic,
)
from repro.sparse.spgemm import spgemm_traffic

from conftest import assert_csr_equal, random_csr


class TestSpGEMM:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scipy(self, seed):
        A = random_csr(25, 18, density=0.15, seed=seed)
        B = random_csr(18, 22, density=0.15, seed=seed + 100)
        assert_csr_equal(spgemm(A, B), A.to_scipy() @ B.to_scipy())

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spgemm(CSRMatrix.identity(3), CSRMatrix.identity(4))

    def test_empty_result(self):
        A = CSRMatrix.zeros((4, 5))
        B = random_csr(5, 3, seed=1)
        C = spgemm(A, B)
        assert C.nnz == 0 and C.shape == (4, 3)

    def test_identity_neutral(self):
        A = random_csr(9, 9, seed=2)
        assert spgemm(CSRMatrix.identity(9), A).allclose(A)
        assert spgemm(A, CSRMatrix.identity(9)).allclose(A)

    def test_result_has_sorted_unique_columns(self):
        A = random_csr(12, 12, density=0.3, seed=3)
        C = spgemm(A, A)
        assert C.has_sorted_indices()

    def test_one_pass_vs_two_pass_same_values(self):
        A = random_csr(15, 15, seed=4)
        assert spgemm(A, A, method="one_pass").allclose(
            spgemm(A, A, method="two_pass")
        )

    def test_unknown_method_rejected(self):
        A = random_csr(4, 4, seed=5)
        with pytest.raises(ValueError):
            spgemm_traffic(A, A, A, 4, "bogus")


class TestTrafficModel:
    def test_two_pass_branches_twice(self):
        A = random_csr(30, 30, density=0.2, seed=6)
        with collect() as one:
            spgemm(A, A, method="one_pass")
        with collect() as two:
            spgemm(A, A, method="two_pass")
        assert two.total("branches") == pytest.approx(2 * one.total("branches"))

    def test_one_pass_wins_when_output_smaller(self, lap3d27_small):
        """§3.1.1: saving one input read beats the output copy when the
        output matrix is a couple of times smaller than the inputs — the
        AMG coarse-operator regime."""
        from repro.amg import extended_i_interpolation, pmis, strength_matrix
        from repro.sparse import transpose

        A = lap3d27_small
        S = strength_matrix(A, 0.25, 0.8)
        cf = pmis(S, seed=1, nthreads=4)
        P = extended_i_interpolation(A, S, cf)
        R = transpose(P)
        with collect() as one:
            spgemm(R, A, method="one_pass")
        with collect() as two:
            spgemm(R, A, method="two_pass")
        assert one.total("bytes_total") < two.total("bytes_total")

    def test_one_pass_writes_output_twice(self):
        A = random_csr(30, 30, density=0.2, seed=7)
        with collect() as one:
            spgemm(A, A, method="one_pass")
        with collect() as two:
            spgemm(A, A, method="two_pass")
        assert one.total("bytes_written") > two.total("bytes_written")

    def test_flops_equal_twice_expansion(self):
        A = random_csr(20, 20, seed=8)
        with collect() as log:
            spgemm(A, A)
        assert log.total("flops") == 2 * expansion_size(A, A)


class TestGustavsonReference:
    @pytest.mark.parametrize("preallocate", [True, False])
    def test_matches_vectorized(self, preallocate):
        A = random_csr(15, 12, density=0.25, seed=9)
        B = random_csr(12, 10, density=0.25, seed=10)
        C = spgemm_gustavson(A, B, preallocate=preallocate)
        assert C.allclose(spgemm(A, B))

    def test_counts_branches(self):
        A = random_csr(10, 10, density=0.3, seed=11)
        with collect() as log:
            spgemm_gustavson(A, A)
        assert log.total("branches") >= expansion_size(A, A)


class TestPatternReuse:
    def test_numeric_matches_full(self):
        A = random_csr(20, 20, density=0.2, seed=12)
        B = random_csr(20, 20, density=0.2, seed=13)
        plan = spgemm_symbolic(A, B)
        C = spgemm_numeric(plan, A, B)
        assert C.allclose(spgemm(A, B))

    def test_numeric_reuse_with_new_values(self):
        A = random_csr(20, 20, density=0.2, seed=14)
        plan = spgemm_symbolic(A, A)
        A2 = CSRMatrix(A.shape, A.indptr.copy(), A.indices.copy(), A.data * 3.0)
        C = spgemm_numeric(plan, A2, A2)
        assert C.allclose(spgemm(A2, A2))

    def test_numeric_has_no_branches(self):
        A = random_csr(20, 20, seed=15)
        plan = spgemm_symbolic(A, A)
        with collect() as log:
            spgemm_numeric(plan, A, A)
        assert log.total("branches") == 0

    def test_empty_plan(self):
        A = CSRMatrix.zeros((5, 5))
        plan = spgemm_symbolic(A, A)
        C = spgemm_numeric(plan, A, A)
        assert C.nnz == 0

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("canonical", [True, False])
    def test_numeric_on_new_values_bit_identical_to_fresh(self, seed, canonical):
        """Replaying the gather maps on new values reproduces a fresh
        product bit for bit, also for inputs with unsorted, duplicated
        column indices."""
        rng = np.random.default_rng(seed)
        A = random_csr(30, 24, density=0.2, seed=seed)
        B = random_csr(24, 28, density=0.2, seed=seed + 50)
        if not canonical:
            rows = np.concatenate([A.row_ids(), A.row_ids()[::3]])
            cols = np.concatenate([A.indices, A.indices[::3]])
            perm = rng.permutation(len(rows))
            A = CSRMatrix.from_coo(A.shape, rows[perm], cols[perm],
                                   rng.standard_normal(len(rows)),
                                   sum_duplicates=False)
        plan = spgemm_symbolic(A, B)
        A2 = CSRMatrix(A.shape, A.indptr, A.indices, rng.standard_normal(A.nnz))
        B2 = CSRMatrix(B.shape, B.indptr, B.indices, rng.standard_normal(B.nnz))
        C = spgemm_numeric(plan, A2, B2)
        ref = spgemm(A2, B2)
        np.testing.assert_array_equal(C.indptr, ref.indptr)
        np.testing.assert_array_equal(C.indices, ref.indices)
        np.testing.assert_array_equal(C.data, ref.data)

    def test_numeric_rejects_mismatched_shapes(self):
        A = random_csr(6, 6, seed=3)
        plan = spgemm_symbolic(A, A)
        with pytest.raises(ValueError, match="dimension mismatch"):
            spgemm_numeric(plan, A, random_csr(6, 5, seed=4))


class TestSpAdd:
    def test_matches_scipy(self):
        A = random_csr(10, 12, seed=16)
        B = random_csr(10, 12, seed=17)
        assert_csr_equal(
            sp_add(A, B, 2.0, -0.5),
            (2.0 * A.to_scipy() - 0.5 * B.to_scipy()),
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sp_add(CSRMatrix.identity(3), CSRMatrix.identity(4))

    def test_cancellation_keeps_explicit_zero(self):
        A = CSRMatrix.from_coo((1, 1), [0], [0], [1.0])
        C = sp_add(A, A, 1.0, -1.0)
        np.testing.assert_allclose(C.to_dense(), [[0.0]])
