# Frozen oracle: src/repro/eigen/kedv.py as of PR 14 (commit b5959c1), verbatim
# below this comment. tests/test_eigen.py requires the batch-major solver to
# reproduce it bit for bit; do not edit it to follow the package.
"""KeDV-style batched symmetric eigensolver, from scratch.

KeDV (Kudo & Imamura 2019, ref [33] of the paper) is a cache-efficient,
*batched* tridiagonalization-based eigensolver developed for manycore
CPUs; the BDA system uses it in place of LAPACK for the per-gridpoint
k x k eigenproblems of the LETKF. The decisive property is not a new
algorithm but the batched dataflow: many same-size decompositions
advance together, turning the memory-bound Householder sweeps into
bandwidth-friendly block operations.

This module reproduces that dataflow in NumPy:

* :func:`tridiagonalize_batched` — Householder reduction A -> Q T Q^T
  with every reflector applied to *all* matrices in the batch at once
  (the k-step loop is over the matrix dimension, never over the batch);
* :func:`ql_implicit_batched` — implicit-shift QL iteration on the
  batched tridiagonal factors, with per-matrix convergence masks so
  finished systems ride along as no-ops;
* :func:`eigh_kedv` — the assembled solver with the same contract as
  :func:`repro.eigen.lapack.eigh_batched`.

Everything runs in the caller's dtype; the LETKF calls it in float32,
matching the paper's single-precision conversion.
"""

from __future__ import annotations

import numpy as np

__all__ = ["tridiagonalize_batched", "ql_implicit_batched", "eigh_kedv"]


def tridiagonalize_batched(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched Householder tridiagonalization.

    Parameters
    ----------
    mats:
        Symmetric matrices, shape ``(B, k, k)`` (a copy is taken).

    Returns
    -------
    (d, e, Q):
        ``d`` (B, k) diagonal, ``e`` (B, k-1) off-diagonal of the
        tridiagonal T, and the orthogonal ``Q`` (B, k, k) with
        A = Q T Q^T.
    """
    A = np.array(mats, copy=True)
    if A.ndim == 2:
        A = A[None]
    B, k, k2 = A.shape
    if k != k2:
        raise ValueError("matrices must be square")
    dtype = A.dtype
    Q = np.broadcast_to(np.eye(k, dtype=dtype), (B, k, k)).copy()
    eps = np.finfo(dtype).tiny

    # columns smaller than this have squares that underflow to
    # subnormals inside norm(), which corrupts the reflector's unit
    # normalization (dlarfg's rescaling case); well-scaled columns take
    # scale=1 and stay bit-identical
    rmin = np.sqrt(np.finfo(dtype).tiny) / np.finfo(dtype).eps

    for j in range(k - 2):
        # Householder vector annihilating column j below the subdiagonal
        x = A[:, j + 1 :, j]  # (B, m) with m = k-1-j
        sigma = np.abs(x).max(axis=1)  # (B,)
        scale = np.where((sigma > 0) & (sigma < rmin), sigma, 1.0)
        xs = x / scale[:, None]
        alpha = np.linalg.norm(xs, axis=1) * scale  # (B,)
        # sign choice for numerical stability
        alpha = -np.sign(np.where(x[:, 0] == 0, 1.0, x[:, 0])) * alpha
        v = xs.copy()
        v[:, 0] -= alpha / scale
        vnorm = np.linalg.norm(v, axis=1, keepdims=True)
        # skip degenerate columns (already tridiagonal there)
        active = vnorm[:, 0] > eps
        v = np.where(vnorm > eps, v / np.maximum(vnorm, eps), 0.0)

        # apply P = I - 2 v v^T to the trailing submatrix S (both sides)
        S = A[:, j + 1 :, j + 1 :]
        w = np.einsum("bij,bj->bi", S, v)  # S v
        vSv = np.einsum("bi,bi->b", v, w)
        # S' = S - 2 v w^T - 2 w v^T + 4 (v^T S v) v v^T
        S -= 2.0 * (v[:, :, None] * w[:, None, :] + w[:, :, None] * v[:, None, :])
        S += (4.0 * vSv)[:, None, None] * (v[:, :, None] * v[:, None, :])

        # update column/row j
        newcol = np.where(active, alpha, x[:, 0])
        A[:, j + 1, j] = newcol
        A[:, j, j + 1] = newcol
        A[:, j + 2 :, j] = 0.0
        A[:, j, j + 2 :] = 0.0

        # accumulate Q <- Q P (apply reflector to trailing columns of Q)
        Qs = Q[:, :, j + 1 :]
        qv = np.einsum("bij,bj->bi", Qs, v)
        Qs -= 2.0 * qv[:, :, None] * v[:, None, :]

    d = np.einsum("bii->bi", A).copy()
    e = np.einsum("bii->bi", A[:, 1:, :-1]).copy()
    return d, e, Q


def ql_implicit_batched(
    d: np.ndarray,
    e: np.ndarray,
    Q: np.ndarray,
    *,
    max_sweeps: int = 60,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched implicit-shift QL iteration (EISPACK tql2 dataflow).

    All rotations are applied to every *unconverged* matrix in the batch
    simultaneously; converged matrices (and, within a sweep, the
    decoupled trailing blocks above each matrix's own deflation point)
    ride along under identity masks. The per-matrix deflation search is
    a vectorized argmax, so the whole batch still advances in lockstep —
    the same trade KeDV makes for cache efficiency.

    Returns eigenvalues (unsorted) and the updated eigenvector matrices.
    """
    d = d.astype(d.dtype, copy=True)
    B, k = d.shape
    if k == 1:
        return d, Q
    ee = np.zeros((B, k), dtype=d.dtype)
    ee[:, :-1] = e
    eps = np.finfo(d.dtype).eps
    # Absolute tolerance against the matrix norm: eps*||T|| is the
    # standard accuracy guarantee of tridiagonal QL, and roundoff keeps
    # off-diagonals at about this level no matter how long we iterate.
    anorm = np.max(np.abs(d), axis=1) + np.max(np.abs(ee), axis=1)
    batch_idx = np.arange(B)

    # floor at the smallest normal number: sub-normal off-diagonals are
    # zero for all purposes, and sub-normal Givens quotients lose so much
    # precision that the rotations would stop being orthogonal
    tiny = np.finfo(d.dtype).tiny

    for l in range(k - 1):
        for _ in range(max_sweeps):
            tol = np.maximum(
                2.0 * eps * np.maximum(anorm, np.abs(d[:, l]) + np.abs(d[:, l + 1])),
                tiny,
            )
            # deflation search: first index >= l with negligible
            # off-diagonal (ee[:, k-1] is always 0, so one exists)
            negligible = np.abs(ee[:, l:]) <= tol[:, None]
            m_defl = l + np.argmax(negligible, axis=1)
            unconv = m_defl > l
            if not np.any(unconv):
                break
            # Wilkinson shift from the leading 2x2 block at l
            el_safe = np.where(ee[:, l] == 0, eps, ee[:, l])
            g0 = (d[:, l + 1] - d[:, l]) / (2.0 * el_safe)
            r0 = np.hypot(g0, 1.0)
            denom = g0 + np.where(g0 >= 0, np.abs(r0), -np.abs(r0))
            shift = d[:, l] - ee[:, l] / denom
            shift = np.where(unconv, shift, 0.0)

            s = np.ones(B, dtype=d.dtype)
            c = np.ones(B, dtype=d.dtype)
            p = np.zeros(B, dtype=d.dtype)
            # the implicit chain starts at each matrix's own deflation
            # point: gg = d[m_defl] - shift
            gg = d[batch_idx, m_defl] - shift

            for i in range(k - 2, l - 1, -1):
                act = unconv & (i < m_defl)
                if not np.any(act):
                    continue
                f = s * ee[:, i]
                b = c * ee[:, i]
                r = np.hypot(f, gg)
                r_safe = np.where(r == 0, eps, r)
                ee[:, i + 1] = np.where(act, r, ee[:, i + 1])
                # r == 0 can only happen from exact cancellation; fall
                # back to an identity rotation there (s=0, c=1)
                s_new = np.where(act, np.where(r == 0, 0.0, f / r_safe), s)
                c_new = np.where(act, np.where(r == 0, 1.0, gg / r_safe), c)
                s, c = s_new, c_new
                gg_new = d[:, i + 1] - p
                r2 = (d[:, i] - gg_new) * s + 2.0 * c * b
                p = np.where(act, s * r2, p)
                d[:, i + 1] = np.where(act, gg_new + p, d[:, i + 1])
                gg = np.where(act, c * r2 - b, gg)

                # rotate eigenvector columns i and i+1
                qi = Q[:, :, i]
                qi1 = Q[:, :, i + 1]
                new_qi1 = s[:, None] * qi + c[:, None] * qi1
                new_qi = c[:, None] * qi - s[:, None] * qi1
                mask = act[:, None]
                Q[:, :, i + 1] = np.where(mask, new_qi1, qi1)
                Q[:, :, i] = np.where(mask, new_qi, qi)

            d[:, l] = np.where(unconv, d[:, l] - p, d[:, l])
            ee[:, l] = np.where(unconv, gg, ee[:, l])
            ee[batch_idx[unconv], m_defl[unconv]] = 0.0
        else:
            raise np.linalg.LinAlgError("QL iteration failed to converge")
    return d, Q


def eigh_kedv(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full batched eigendecomposition, same contract as ``eigh_batched``.

    Eigenvalues ascending; eigenvectors as columns.
    """
    arr = np.asarray(mats)
    squeeze = arr.ndim == 2
    if squeeze:
        arr = arr[None]
    lead = arr.shape[:-2]
    k = arr.shape[-1]
    flat = arr.reshape(-1, k, k)

    # LAPACK-style range guard (dsyev's rmin/rmax): matrices whose norm
    # sits below sqrt(tiny)/eps push the QL off-diagonals under the
    # deflation floor mid-rotation and the Givens chain stops being
    # orthogonal; above sqrt(max) the hypot squares overflow. Scale those
    # to O(1) and scale the eigenvalues back. In-range batches pass
    # through untouched (bit-identical to the unguarded path).
    fin = np.finfo(arr.dtype if np.issubdtype(arr.dtype, np.floating) else np.float64)
    absmax = np.abs(flat).max(axis=(1, 2))
    rmin = np.sqrt(fin.tiny) / fin.eps
    rmax = np.sqrt(fin.max) / k  # k-entry row sums of squares must not overflow
    need = (absmax > 0) & ((absmax < rmin) | (absmax > rmax))
    scale = np.where(need, absmax, 1.0)
    if np.any(need):
        flat = flat / scale[:, None, None]

    d, e, Q = tridiagonalize_batched(flat)
    w, V = ql_implicit_batched(d, e, Q)
    if np.any(need):
        w = w * scale[:, None]

    order = np.argsort(w, axis=1)
    w = np.take_along_axis(w, order, axis=1)
    V = np.take_along_axis(V, order[:, None, :], axis=2)

    w = w.reshape(*lead, k)
    V = V.reshape(*lead, k, k)
    if squeeze:
        return w[0], V[0]
    return w, V
