"""Ablation: KeDV-style batched eigensolver vs the LAPACK baseline.

Sec. 5: "We applied KeDV for the eigenvalue solver in place of the
standard LAPACK solver to accelerate the computation" — on Fugaku,
where the batched cache-friendly dataflow wins. In NumPy the LAPACK
path (syevd, compiled) usually remains faster; what this reproduction
preserves is the *structure* (both paths batched over all grid points,
bit-compatible interfaces, single precision) and it reports the honest
measured ratio on this host. Accuracy equivalence is asserted.
"""

import statistics
import time

import numpy as np
from conftest import write_artifact

from repro.eigen import eigh_batched, eigh_kedv, tridiagonalize_batched
from repro.eigen.kedv import ql_implicit_batched


def letkf_matrices(B=400, m=24, no=40, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    Yb = rng.normal(size=(B, no, m)).astype(dtype)
    A = np.einsum("bok,bol->bkl", Yb, Yb)
    idx = np.arange(m)
    A[:, idx, idx] += m - 1
    return A


def warm_median_ms(fn, *args, repeats=3):
    """Median wall time of ``repeats`` calls after one untimed warm-up."""
    fn(*args)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def test_eigen_ablation(benchmark):
    A = letkf_matrices()
    m = A.shape[-1]

    t_kedv = warm_median_ms(eigh_kedv, A)
    t_lapack = warm_median_ms(eigh_batched, A)
    # the two halves of KeDV through their public (B, k, k) entry points
    # (the QL figure includes the layout copies eigh_kedv makes only once)
    d, e, Q = tridiagonalize_batched(A)
    t_tridiag = warm_median_ms(tridiagonalize_batched, A)
    t_ql = warm_median_ms(ql_implicit_batched, d, e, Q)

    benchmark.pedantic(eigh_kedv, args=(A,), rounds=2, iterations=1)

    w_k, V_k = eigh_kedv(A)
    w_l, V_l = eigh_batched(A)
    # accuracy equivalence on the production matrix family
    anorm = np.abs(A).sum(axis=2).max()
    assert np.max(np.abs(w_k - w_l)) < 1e-4 * anorm
    # both deliver orthonormal eigenvectors
    for V in (V_k, V_l):
        gram = np.swapaxes(V, 1, 2) @ V
        assert np.allclose(gram, np.eye(m), atol=1e-4)

    write_artifact(
        "ablation_eigen.txt",
        f"batch of {A.shape[0]} symmetric {m}x{m} (f32, LETKF family), "
        "warm, median of 3:\n"
        f"  kedv   : {t_kedv:8.1f} ms  "
        f"(tridiagonalisation {t_tridiag:.1f} ms, QL {t_ql:.1f} ms)\n"
        f"  lapack : {t_lapack:8.1f} ms\n"
        f"  ratio  : {t_kedv/t_lapack:.2f}x "
        "(paper: KeDV faster on Fugaku; NumPy's compiled syevd wins here — "
        "see EXPERIMENTS.md)\n",
    )
