import numpy as np
import pytest

from repro.eigen import eigh_batched, eigh_dispatch, eigh_kedv, tridiagonalize_batched
from repro.eigen.kedv import ql_implicit_batched

from .oracles import kedv_reference


def random_symmetric(rng, B, k, dtype=np.float64):
    A = rng.normal(size=(B, k, k)).astype(dtype)
    return (A + np.swapaxes(A, 1, 2)) * 0.5


def letkf_like(rng, B, k, no, dtype=np.float32):
    """(m-1)I + Yb^T R^-1 Yb matrices — what the LETKF actually solves."""
    Yb = rng.normal(size=(B, no, k)).astype(dtype)
    A = np.einsum("bok,bol->bkl", Yb, Yb)
    idx = np.arange(k)
    A[:, idx, idx] += k - 1
    return A


class TestTridiagonalization:
    @pytest.mark.parametrize("k", [2, 3, 5, 16])
    def test_reconstruction(self, k):
        rng = np.random.default_rng(0)
        A = random_symmetric(rng, 4, k)
        d, e, Q = tridiagonalize_batched(A)
        T = np.zeros_like(A)
        for b in range(4):
            T[b] = np.diag(d[b]) + np.diag(e[b], 1) + np.diag(e[b], -1)
        rec = Q @ T @ np.swapaxes(Q, 1, 2)
        assert np.allclose(rec, A, atol=1e-12)

    def test_q_orthogonal(self):
        rng = np.random.default_rng(1)
        A = random_symmetric(rng, 3, 12)
        _, _, Q = tridiagonalize_batched(A)
        eye = np.eye(12)
        for b in range(3):
            assert np.allclose(Q[b].T @ Q[b], eye, atol=1e-12)

    def test_already_tridiagonal_unchanged(self):
        k = 8
        d0 = np.arange(1.0, k + 1)
        e0 = np.full(k - 1, 0.5)
        A = np.diag(d0) + np.diag(e0, 1) + np.diag(e0, -1)
        d, e, Q = tridiagonalize_batched(A[None])
        assert np.allclose(d[0], d0)
        assert np.allclose(np.abs(e[0]), np.abs(e0))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            tridiagonalize_batched(np.zeros((2, 3, 4)))


class TestQLIteration:
    def test_diagonal_input_is_fixed_point(self):
        d = np.array([[3.0, 1.0, 2.0]])
        e = np.zeros((1, 2))
        Q = np.eye(3)[None].copy()
        w, V = ql_implicit_batched(d, e, Q)
        assert np.allclose(np.sort(w[0]), [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(V[0]), np.eye(3))

    def test_2x2_analytic(self):
        # [[2, 1], [1, 2]] -> eigenvalues 1, 3
        d = np.array([[2.0, 2.0]])
        e = np.array([[1.0]])
        Q = np.eye(2)[None].copy()
        w, _ = ql_implicit_batched(d, e, Q)
        assert np.allclose(np.sort(w[0]), [1.0, 3.0])


class TestKeDVAgainstLAPACK:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_random_batch(self, dtype):
        rng = np.random.default_rng(2)
        A = random_symmetric(rng, 20, 15).astype(dtype)
        w1, V1 = eigh_kedv(A)
        w0, _ = eigh_batched(A)
        tol = 1e-4 if dtype == np.float32 else 1e-10
        assert np.allclose(w1, w0, atol=tol * 20)

    def test_letkf_matrices_f32(self):
        # the exact matrix family of the production workload
        rng = np.random.default_rng(3)
        A = letkf_like(rng, 64, 20, 37)
        w1, V1 = eigh_kedv(A)
        w0, _ = eigh_batched(A)
        anorm = np.abs(A).sum(axis=2).max(axis=1)
        assert np.max(np.abs(w1 - w0) / anorm[:, None]) < 1e-5

    def test_spd_eigenvalues_positive(self):
        rng = np.random.default_rng(4)
        A = letkf_like(rng, 16, 10, 5)
        w, _ = eigh_kedv(A)
        assert np.all(w > 0)

    def test_eigenvectors_orthonormal(self):
        rng = np.random.default_rng(5)
        A = random_symmetric(rng, 8, 12).astype(np.float32)
        _, V = eigh_kedv(A)
        gram = np.swapaxes(V, 1, 2) @ V
        assert np.allclose(gram, np.eye(12), atol=1e-5)

    def test_reconstruction(self):
        rng = np.random.default_rng(6)
        A = random_symmetric(rng, 8, 10)
        w, V = eigh_kedv(A)
        rec = V @ (w[:, :, None] * np.swapaxes(V, 1, 2))
        assert np.allclose(rec, A, atol=1e-10)

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(7)
        A = random_symmetric(rng, 8, 9)
        w, _ = eigh_kedv(A)
        assert np.all(np.diff(w, axis=1) >= -1e-12)

    def test_degenerate_spectrum(self):
        # identity + rank-1: (k-1)-fold degenerate eigenvalue
        rng = np.random.default_rng(8)
        k = 20
        v = rng.normal(size=k).astype(np.float32)
        A = (np.eye(k, dtype=np.float32) * 5.0 + np.outer(v, v))[None]
        w, V = eigh_kedv(A)
        w0 = np.linalg.eigvalsh(A[0])
        assert np.allclose(w[0], w0, atol=1e-3)

    def test_single_matrix_unbatched(self):
        rng = np.random.default_rng(9)
        A = random_symmetric(rng, 1, 6)[0]
        w, V = eigh_kedv(A)
        assert w.shape == (6,)
        assert V.shape == (6, 6)

    def test_k2_and_k3(self):
        for k in (2, 3):
            rng = np.random.default_rng(k)
            A = random_symmetric(rng, 5, k)
            w1, _ = eigh_kedv(A)
            w0, _ = eigh_batched(A)
            assert np.allclose(w1, w0, atol=1e-10)


class TestDispatch:
    def test_backends(self):
        rng = np.random.default_rng(10)
        A = random_symmetric(rng, 4, 8)
        for b in ("lapack", "kedv"):
            w, V = eigh_dispatch(A, backend=b)
            assert w.shape == (4, 8)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            eigh_dispatch(np.eye(3)[None], backend="gpu")


def _bit_identical(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _reference_families(rng, B, k, dtype):
    """Named ``(B, k, k)`` batches covering every branch of the solver."""
    A = letkf_like(rng, B, k, 3 * k, dtype)
    yield "letkf", A
    # identity + rank-1: a (k-1)-fold degenerate eigenvalue per matrix
    v = rng.normal(size=(B, k)).astype(dtype)
    yield "degenerate", 5 * np.eye(k, dtype=dtype) + v[:, :, None] * v[:, None, :]
    # below rmin, above rmax and exactly zero next to in-range matrices:
    # the range guard rescales some rows of the batch and not others
    fin = np.finfo(dtype)
    guarded = A.copy()
    guarded[0] *= np.sqrt(fin.tiny)
    if B > 3:
        guarded[1] *= np.sqrt(fin.max) / 4
        guarded[2] = 0
    yield "range-guard", guarded
    yield "non-contiguous", np.concatenate([A, A], axis=2)[:, :, 1 : k + 1][::-1]
    yield "f-ordered", np.asfortranarray(A)


class TestFrozenReference:
    """The batch-major solver against the frozen pre-refactor kernel."""

    @pytest.mark.parametrize("B", [1, 7, 500])
    @pytest.mark.parametrize("k", [2, 3, 12, 24])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eigh_kedv_bit_identical(self, dtype, k, B):
        rng = np.random.default_rng(1000 * k + B)
        for name, A in _reference_families(rng, B, k, dtype):
            w0, V0 = kedv_reference.eigh_kedv(A)
            w1, V1 = eigh_kedv(A)
            assert _bit_identical(w1, w0), name
            assert _bit_identical(V1, V0), name
            # letkf.core._transform's einsums are pinned to this layout
            assert V1.flags.c_contiguous, name

    @pytest.mark.parametrize("k", [2, 3, 12, 24])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_unbatched_call_bit_identical(self, dtype, k):
        A = letkf_like(np.random.default_rng(k), 1, k, 3 * k, dtype)[0]
        w0, V0 = kedv_reference.eigh_kedv(A)
        w1, V1 = eigh_kedv(A)
        assert w1.shape == (k,) and V1.shape == (k, k)
        assert _bit_identical(w1, w0) and _bit_identical(V1, V0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stage_entry_points_keep_their_contract(self, dtype):
        # (B, k) / (B, k-1) / (B, k, k) in and out, as the stage tests
        # above call them; the batch-major layout never shows
        A = letkf_like(np.random.default_rng(11), 7, 12, 30, dtype)
        d, e, Q = tridiagonalize_batched(A)
        for got, want in zip((d, e, Q), kedv_reference.tridiagonalize_batched(A)):
            assert _bit_identical(got, want)
        w0, V0 = kedv_reference.ql_implicit_batched(d, e, Q.copy())
        w1, V1 = ql_implicit_batched(d, e, Q)
        assert _bit_identical(w1, w0) and _bit_identical(V1, V0)
