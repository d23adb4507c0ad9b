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

Layout. The public functions take and return matrix-major arrays —
``d`` (B, k), ``e`` (B, k-1), ``Q``/``V`` (B, k, k) — but the QL sweeps,
nine tenths of the time of a matrix-major solve, run *batch-major*:
``d`` and ``e`` as ``(k, B)`` and the eigenvectors as ``(k, B, k)`` with
the column index first. One Givens step touches elements ``i`` and
``i+1`` of every diagonal and columns ``i`` and ``i+1`` of every
eigenvector matrix; in that layout each is one contiguous block (a
``(B,)`` row, a ``(2, B, k)`` slab), where ``Q[:, :, i]`` of a
``(B, k, k)`` array is one cache line per element. The step's scalars live in preallocated ``(B,)``
buffers and every masked update is an in-place write (``out=`` /
``where=``), so a sweep allocates nothing per step.

The Householder stage stays matrix-major: its ``S v`` and ``Q v``
products are ``einsum`` reductions over the column index, and NumPy
groups the partial sums of a reduction by the stride of the reduced
axis, so accumulating the reflectors batch-major would change the
low bits. ``Q`` is therefore transposed once into ``(k, B, k)`` at the
hand-off to QL, and the eigenvectors leave through one gather that
applies the eigenvalue sort and writes the C-contiguous ``(B, k, k)``
array whose layout ``letkf.core._transform`` pins. Every scalar
operation runs in the same order per matrix as in the matrix-major
kernel this replaced (frozen as ``tests/oracles/kedv_reference.py``):
``w`` and ``V`` are bit-identical to it in both precisions.

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


def _to_batch_major(
    d: np.ndarray, e: np.ndarray, Q: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Copy ``d`` (B, k), ``e`` (B, k-1), ``Q`` (B, k, k) into the QL layout.

    Returns ``d`` (k, B), the off-diagonal padded with a zero last row
    (k, B), and ``Qt`` (k, B, k) with ``Qt[i, b, r] == Q[b, r, i]``.
    All three are fresh C-contiguous arrays the sweeps may overwrite.
    """
    B, k = d.shape
    ee = np.zeros((k, B), dtype=d.dtype)
    ee[:-1] = e.T
    return d.T.copy(), ee, Q.transpose(2, 0, 1).copy()


def _ql_sweeps(d: np.ndarray, ee: np.ndarray, Qt: np.ndarray, max_sweeps: int = 60) -> None:
    """Implicit-shift QL on batch-major factors, in place.

    ``d`` and ``ee`` are ``(k, B)`` (``ee[k-1] == 0``), ``Qt`` is
    ``(k, B, k)``: row ``i`` of ``d``/``ee`` and plane ``i`` of ``Qt`` —
    element ``i`` / eigenvector column ``i`` of every matrix in the
    batch — are each one contiguous block, which is all a Givens step
    touches. On return ``d`` holds the (unsorted) eigenvalues and plane
    ``i`` of ``Qt`` the eigenvector of ``d[i]``.
    """
    k, B = d.shape
    dtype = d.dtype
    eps = np.finfo(dtype).eps
    # Absolute tolerance against the matrix norm: eps*||T|| is the
    # standard accuracy guarantee of tridiagonal QL, and roundoff keeps
    # off-diagonals at about this level no matter how long we iterate.
    anorm = np.max(np.abs(d), axis=0) + np.max(np.abs(ee), axis=0)
    batch_idx = np.arange(B)
    levels = np.arange(k)[:, None]

    # floor at the smallest normal number: sub-normal off-diagonals are
    # zero for all purposes, and sub-normal Givens quotients lose so much
    # precision that the rotations would stop being orthogonal
    tiny = np.finfo(dtype).tiny

    # per-matrix scalars of the Givens chain and their scratch, reused by
    # every step; s and c broadcast over a plane through the views below
    s, c, p, f, b, r, quot, gg_new, r2, tmp = np.empty((10, B), dtype=dtype)
    zero = np.empty(B, dtype=bool)
    s_col = s[:, None]
    c_col = c[:, None]
    # columns i and i+1 times s, times c, and the rotated pair
    qs, qc, rot = np.empty((3, 2, B, k), dtype=Qt.dtype)

    for l in range(k - 1):
        for _ in range(max_sweeps):
            tol = np.maximum(
                2.0 * eps * np.maximum(anorm, np.abs(d[l]) + np.abs(d[l + 1])),
                tiny,
            )
            # deflation search: first index >= l with negligible
            # off-diagonal (ee[k-1] is always 0, so one exists)
            negligible = np.abs(ee[l:]) <= tol
            m_defl = l + np.argmax(negligible, axis=0)
            unconv = m_defl > l
            if not np.any(unconv):
                break
            # Wilkinson shift from the leading 2x2 block at l
            el_safe = np.where(ee[l] == 0, eps, ee[l])
            g0 = (d[l + 1] - d[l]) / (2.0 * el_safe)
            r0 = np.hypot(g0, 1.0)
            denom = g0 + np.where(g0 >= 0, np.abs(r0), -np.abs(r0))
            shift = d[l] - ee[l] / denom
            shift = np.where(unconv, shift, 0.0)

            s.fill(1.0)
            c.fill(1.0)
            p.fill(0.0)
            # the implicit chain starts at each matrix's own deflation
            # point: gg = d[m_defl] - shift
            gg = d[m_defl, batch_idx] - shift
            # step i rotates the matrices still below their deflation
            # point; the rest ride along untouched
            active = unconv & (levels < m_defl)
            active_col = active[:, :, None]

            for i in range(int(m_defl.max()) - 1, l - 1, -1):
                act = active[i]
                np.multiply(s, ee[i], out=f)
                np.multiply(c, ee[i], out=b)
                np.hypot(f, gg, out=r)
                np.copyto(ee[i + 1], r, where=act)
                # r == 0 can only happen from exact cancellation; fall
                # back to an identity rotation there (s=0, c=1)
                np.equal(r, 0, out=zero)
                np.copyto(r, eps, where=zero)
                np.divide(f, r, out=quot)
                np.copyto(quot, 0.0, where=zero)
                np.copyto(s, quot, where=act)
                np.divide(gg, r, out=quot)
                np.copyto(quot, 1.0, where=zero)
                np.copyto(c, quot, where=act)
                np.subtract(d[i + 1], p, out=gg_new)
                # r2 = (d[i] - gg_new) * s + 2 c b
                np.subtract(d[i], gg_new, out=r2)
                np.multiply(r2, s, out=r2)
                np.multiply(2.0, c, out=tmp)
                np.multiply(tmp, b, out=tmp)
                np.add(r2, tmp, out=r2)
                np.multiply(s, r2, out=p, where=act)
                np.add(gg_new, p, out=d[i + 1], where=act)
                np.multiply(c, r2, out=tmp)
                np.subtract(tmp, b, out=gg, where=act)

                # rotate eigenvector columns i and i+1
                pair = Qt[i : i + 2]
                np.multiply(pair, s_col, out=qs)
                np.multiply(pair, c_col, out=qc)
                np.subtract(qc[0], qs[1], out=rot[0])
                np.add(qs[0], qc[1], out=rot[1])
                np.copyto(pair, rot, where=active_col[i])

            np.subtract(d[l], p, out=d[l], where=unconv)
            np.copyto(ee[l], gg, where=unconv)
            ee[m_defl[unconv], batch_idx[unconv]] = 0.0
        else:
            raise np.linalg.LinAlgError("QL iteration failed to converge")


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

    Takes ``d`` (B, k), ``e`` (B, k-1) and ``Q`` (B, k, k) and returns
    eigenvalues (unsorted) and the updated eigenvector matrices as new
    arrays of the same shapes; the inputs are left untouched.
    """
    dt, ee, Qt = _to_batch_major(d, e, Q)
    _ql_sweeps(dt, ee, Qt, max_sweeps)
    return dt.T.copy(), Qt.transpose(1, 2, 0).copy()


def eigh_kedv(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full batched eigendecomposition, same contract as ``eigh_batched``.

    Eigenvalues ascending; eigenvectors as columns of a C-contiguous
    ``(..., k, k)`` array.
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

    d, ee, Qt = _to_batch_major(*tridiagonalize_batched(flat))
    _ql_sweeps(d, ee, Qt)
    w = d.T.copy()
    if np.any(need):
        w = w * scale[:, None]

    order = np.argsort(w, axis=1)
    w = np.take_along_axis(w, order, axis=1)
    # the one copy out of the batch-major layout: V[b, r, n] is row r of
    # the plane holding matrix b's n-th smallest eigenvalue
    V = Qt[order[:, None, :], np.arange(len(w))[:, None, None], np.arange(k)[None, :, None]]

    w = w.reshape(*lead, k)
    V = V.reshape(*lead, k, k)
    if squeeze:
        return w[0], V[0]
    return w, V
