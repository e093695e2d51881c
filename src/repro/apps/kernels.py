"""Kernel cost formulas and real NumPy kernels for functional mode.

The simulator needs task durations; they are derived from textbook flop counts
and a sustained per-core throughput (see
:class:`~repro.simulator.machine.MachineSpec`).  Functional mode needs actual
kernels operating on NumPy arrays; the small set used by the functional
benchmarks lives here so both tests and examples share one implementation.
"""

from __future__ import annotations

import math

import numpy as np

#: Bytes per double-precision real / complex element.
DOUBLE = 8
COMPLEX_DOUBLE = 16

#: Default sustained per-core throughput used to convert flops to seconds.
DEFAULT_CORE_FLOPS = 10e9


# -- duration estimation --------------------------------------------------------


def duration_for_flops(flops: float, core_flops: float = DEFAULT_CORE_FLOPS) -> float:
    """Seconds to execute ``flops`` floating point operations on one core."""
    if flops < 0:
        raise ValueError(f"flops must be >= 0, got {flops}")
    if core_flops <= 0:
        raise ValueError(f"core_flops must be > 0, got {core_flops}")
    return flops / core_flops


def gemm_flops(m: float, n: float = None, k: float = None) -> float:
    """Flops of a dense matrix multiply ``C += A(mxk) * B(kxn)``."""
    n = m if n is None else n
    k = m if k is None else k
    return 2.0 * m * n * k


def potrf_flops(b: float) -> float:
    """Flops of a blocked Cholesky factorisation of a ``b x b`` tile."""
    return b ** 3 / 3.0


def trsm_flops(b: float) -> float:
    """Flops of a triangular solve against a ``b x b`` tile."""
    return float(b ** 3)


def syrk_flops(b: float) -> float:
    """Flops of a symmetric rank-k update of a ``b x b`` tile."""
    return float(b ** 3)


def getrf_flops(b: float) -> float:
    """Flops of an LU factorisation of a ``b x b`` tile."""
    return 2.0 * b ** 3 / 3.0


def fft_flops(n: float) -> float:
    """Flops of a complex 1D FFT of length ``n`` (5 n log2 n)."""
    if n <= 1:
        return 0.0
    return 5.0 * n * math.log2(n)


# -- real kernels for functional mode --------------------------------------------


def kernel_lu0(diag: np.ndarray) -> None:
    """Unblocked LU factorisation (no pivoting) of a square tile, in place."""
    n = diag.shape[0]
    for k in range(n - 1):
        pivot = diag[k, k]
        if pivot == 0:
            pivot = 1e-300
        diag[k + 1 :, k] /= pivot
        diag[k + 1 :, k + 1 :] -= np.outer(diag[k + 1 :, k], diag[k, k + 1 :])


def kernel_fwd(diag: np.ndarray, col: np.ndarray) -> None:
    """Forward solve of a column tile against the factored diagonal tile."""
    n = diag.shape[0]
    for k in range(n - 1):
        col[k + 1 :, :] -= np.outer(diag[k + 1 :, k], col[k, :])


def kernel_bdiv(diag: np.ndarray, row: np.ndarray) -> None:
    """Backward division of a row tile against the factored diagonal tile."""
    n = diag.shape[0]
    for k in range(n):
        pivot = diag[k, k]
        if pivot == 0:
            pivot = 1e-300
        row[:, k] = (row[:, k] - row[:, :k] @ diag[:k, k]) / pivot


def kernel_bmod(row: np.ndarray, col: np.ndarray, inner: np.ndarray) -> None:
    """Trailing update ``inner -= row @ col`` of SparseLU."""
    inner -= row @ col


def kernel_potrf(tile: np.ndarray) -> None:
    """Cholesky factorisation of a tile, in place (lower triangular)."""
    tile[:] = np.linalg.cholesky(tile)


def kernel_trsm(diag: np.ndarray, tile: np.ndarray) -> None:
    """Triangular solve ``tile = tile * diag^-T`` used by tiled Cholesky."""
    import scipy.linalg as sla

    tile[:] = sla.solve_triangular(diag, tile.T, lower=True).T


def kernel_syrk(col: np.ndarray, diag: np.ndarray) -> None:
    """Symmetric rank-k update ``diag -= col @ col.T``."""
    diag -= col @ col.T


def kernel_gemm(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    """Dense update ``c -= a @ b.T`` (tiled Cholesky's trailing update)."""
    c -= a @ b.T


def kernel_matmul(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    """Dense update ``c += a @ b``."""
    c += a @ b


def kernel_stream_copy(src: np.ndarray, dst: np.ndarray) -> None:
    """STREAM copy: ``dst = src``."""
    np.copyto(dst, src)


def kernel_stream_scale(src: np.ndarray, dst: np.ndarray, scalar: float) -> None:
    """STREAM scale: ``dst = scalar * src``."""
    np.multiply(src, scalar, out=dst)


def kernel_stream_add(a: np.ndarray, b: np.ndarray, dst: np.ndarray) -> None:
    """STREAM add: ``dst = a + b``."""
    np.add(a, b, out=dst)


def kernel_stream_triad(a: np.ndarray, b: np.ndarray, dst: np.ndarray, scalar: float) -> None:
    """STREAM triad: ``dst = a + scalar * b``."""
    np.add(a, scalar * b, out=dst)


def kernel_perlin_block(pixels: np.ndarray, phase: float) -> None:
    """A cheap value-noise stand-in for the Perlin noise block kernel.

    The exact noise function does not matter for the reproduction (only the
    task structure and argument sizes do); this kernel is deterministic in the
    pixel index and the phase so replicas agree bit-for-bit.
    """
    idx = np.arange(pixels.size, dtype=np.float64)
    pixels += np.sin(idx * 0.01 + phase) * np.cos(idx * 0.003 - phase)
