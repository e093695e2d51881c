"""Simulator loop backends: the pure-Python loop and a self-built C kernel.

Both execute the same compiled-graph replay loop and are bit-identical to the
reference :func:`repro.simulator.execution.simulate_graph`, which the
equivalence suite asserts for each of them directly:

``python``
    :func:`repro.simulator.fastpath._simulate_python`, the one pure-Python
    event loop.  Always available, in bounded memory at any graph size; the
    fallback on hosts without a C compiler.
``cext``
    ``_simkernel.c`` compiled on first use with the system C compiler
    (``-O2 -ffp-contract=off``, no Python headers needed) and driven through
    :mod:`ctypes`.  The shared object is cached under
    ``$REPRO_KERNEL_CACHE`` (default ``~/.cache/repro/kernels``), named by a
    hash of the source *and* the compile command, so later runs only
    ``dlopen`` it and a changed compiler or flag set never reuses a stale
    build.

Selection: ``REPRO_SIM_BACKEND`` picks one of ``auto|python|cext``.
``auto`` — the default — uses ``cext`` when it builds and loads, and the
python loop otherwise.  Forcing an unavailable backend raises with the
recorded reason.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

#: Environment variable naming the backend to use.
BACKEND_ENV = "REPRO_SIM_BACKEND"

#: Environment variable overriding the compiled-kernel cache directory.
KERNEL_CACHE_ENV = "REPRO_KERNEL_CACHE"

#: Environment variable overriding the C compiler (default: cc/gcc/clang).
CC_ENV = "REPRO_CC"

_KERNEL_SOURCE = os.path.join(os.path.dirname(__file__), "_simkernel.c")

#: Compiler flags of the kernel build.  ``-ffp-contract=off`` forbids
#: multiply-add contraction so the compiler cannot alter float results (the
#: loop has no multiplies, but the flag makes the bit-identity guarantee
#: explicit); ``-march`` is left at the default for the same reason.
KERNEL_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Return codes of the kernels (matching ``_simkernel.c``).
_ERRORS = {
    1: "kernel workspace allocation failed",
    2: "event heap overflow (kernel bug)",
    3: "pre-drawn uniform block exhausted (draw-bound bug)",
}


class BackendUnavailable(RuntimeError):
    """Raised when a requested backend cannot run on this machine."""


#: Positional metadata passed to every kernel ahead of the arrays:
#: (n, n_nodes, cores_per_node, spares_per_node, net_latency, net_bandwidth,
#:  contention, collect, p_crash, p_sdc, decision_s).
Meta = Tuple[int, int, int, int, float, float, int, int, float, float, float]


class KernelBackend:
    """A compiled execution of the replay loop.

    ``run_batch`` replays ``n_lanes`` seed lanes: ``uniforms`` holds one
    pre-drawn row per lane, outputs are written at lane offsets.  Returns the
    kernel status code (0 = OK).
    """

    name: str = "python"

    def run_batch(
        self,
        n_lanes: int,
        meta: Meta,
        arrays: Tuple[np.ndarray, ...],
        uniforms: np.ndarray,
        n_uniforms: int,
        out_scalars: np.ndarray,
        out_counts: np.ndarray,
        record_arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ) -> int:
        raise NotImplementedError


class CExtBackend(KernelBackend):
    """ctypes driver over the self-compiled ``_simkernel.c`` shared object."""

    name = "cext"

    def __init__(self) -> None:
        self._lib = _load_kernel_lib()
        i64 = ctypes.c_longlong
        f64 = ctypes.c_double
        i32 = ctypes.c_int
        ptr = ctypes.c_void_p
        fn = self._lib.simulate_kernel_batch
        fn.restype = i32
        fn.argtypes = (
            [i64, i64, i64, i64, i64, f64, f64, i32, i32, f64, f64, f64]
            + [ptr] * 10  # replay arrays
            + [ptr, ptr, ptr, ptr, ptr, ptr]  # csr + degrees + placement + flags
            + [ptr, i64]  # uniforms
            + [ptr, ptr]  # out scalars/counts
            + [ptr, ptr, ptr, ptr]  # record arrays
        )
        self._fn = fn

    def run_batch(self, n_lanes, meta, arrays, uniforms, n_uniforms, out_scalars, out_counts, record_arrays):
        (n, n_nodes, cores, spares, net_lat, net_bw, contention, collect, p_crash, p_sdc, decision_s) = meta
        def p(a: np.ndarray):
            return a.ctypes.data_as(ctypes.c_void_p)
        return self._fn(
            n_lanes, n, n_nodes, cores, spares, net_lat, net_bw,
            contention, collect, p_crash, p_sdc, decision_s,
            *[p(a) for a in arrays],
            p(uniforms), n_uniforms,
            p(out_scalars), p(out_counts),
            *[p(a) for a in record_arrays],
        )


class PythonBackend(KernelBackend):
    """Marker backend: the fastpath's python loop handles execution."""

    name = "python"

    def run_batch(self, *args, **kwargs):  # pragma: no cover - never called
        raise RuntimeError("the python backend has no kernel; fastpath runs the python loop")


# -- C kernel build ---------------------------------------------------------


def kernel_cache_dir() -> str:
    """Directory holding compiled kernel shared objects."""
    override = os.environ.get(KERNEL_CACHE_ENV)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "kernels")


def _find_cc() -> Optional[str]:
    override = os.environ.get(CC_ENV)
    if override:
        return shutil.which(override) or (override if os.path.exists(override) else None)
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    return None


def kernel_lib_path(cc: Optional[str] = None, flags: Sequence[str] = KERNEL_CFLAGS) -> str:
    """Path of the compiled kernel for the current source and compile command.

    The name hashes the source together with the compiler (``cc``, default
    :func:`_find_cc`) and ``flags``, so a build made by another compiler or
    with other flags is never reused.  The path may not be built yet.
    """
    if cc is None:
        cc = _find_cc() or ""
    digest = hashlib.sha256()
    with open(_KERNEL_SOURCE, "rb") as fh:
        digest.update(fh.read())
    digest.update("\0".join([cc, *flags]).encode())
    return os.path.join(kernel_cache_dir(), f"simkernel-{digest.hexdigest()[:16]}.so")


def build_kernel_lib(verbose: bool = False) -> str:
    """Compile ``_simkernel.c`` into the kernel cache; returns the .so path.

    Idempotent: if the shared object for the current source and compile
    command (:func:`kernel_lib_path`) exists it is reused.
    """
    cc = _find_cc()
    if cc is None:
        raise BackendUnavailable("no C compiler found (set REPRO_CC or install gcc/clang)")
    target = kernel_lib_path(cc)
    if os.path.exists(target):
        return target
    os.makedirs(os.path.dirname(target), exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(target))
    os.close(fd)
    cmd = [cc, *KERNEL_CFLAGS, "-o", tmp, _KERNEL_SOURCE]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BackendUnavailable(
                f"kernel compilation failed ({' '.join(cmd)}):\n{proc.stderr.strip()}"
            )
        os.replace(tmp, target)  # atomic: concurrent builders race benignly
    finally:
        if os.path.exists(tmp):
            try:
                os.remove(tmp)
            except OSError:
                pass
    if verbose:  # pragma: no cover - debugging aid
        print(f"built {target} with {cc}")
    return target


def _load_kernel_lib() -> ctypes.CDLL:
    try:
        return ctypes.CDLL(build_kernel_lib())
    except OSError as exc:  # corrupt cache entry: rebuild once
        path = kernel_lib_path()
        try:
            os.remove(path)
        except OSError:
            pass
        try:
            return ctypes.CDLL(build_kernel_lib())
        except OSError:
            raise BackendUnavailable(f"cannot load compiled kernel {path}: {exc}")


# -- selection --------------------------------------------------------------

_FACTORIES: Dict[str, Callable[[], KernelBackend]] = {
    "python": PythonBackend,
    "cext": CExtBackend,
}

_instances: Dict[str, KernelBackend] = {}
_failures: Dict[str, str] = {}


def _get_backend(name: str) -> KernelBackend:
    inst = _instances.get(name)
    if inst is not None:
        return inst
    if name in _failures:
        raise BackendUnavailable(_failures[name])
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(f"unknown simulator backend {name!r} (expected auto|{'|'.join(_FACTORIES)})")
    try:
        inst = factory()
    except BackendUnavailable as exc:
        _failures[name] = str(exc)
        raise
    _instances[name] = inst
    return inst


def resolve_backend(name: Optional[str] = None) -> KernelBackend:
    """The backend to use: explicit ``name``, else ``$REPRO_SIM_BACKEND``, else auto.

    ``auto`` falls back to the pure-Python loop when the C kernel is
    unavailable; a *named* backend that is unavailable raises
    :class:`BackendUnavailable` with the reason.
    """
    name = name or os.environ.get(BACKEND_ENV) or "auto"
    name = name.strip().lower()
    if name == "auto":
        try:
            return _get_backend("cext")
        except BackendUnavailable:
            return _get_backend("python")
    return _get_backend(name)


def backend_status() -> Dict[str, str]:
    """Availability of every backend, for diagnostics (``repro targets``-style)."""
    status: Dict[str, str] = {}
    for name in _FACTORIES:
        try:
            _get_backend(name)
            status[name] = "available"
        except BackendUnavailable as exc:
            status[name] = f"unavailable: {exc}"
    return status


def kernel_error(rc: int) -> str:
    """Human-readable message of a nonzero kernel status code."""
    return _ERRORS.get(rc, f"unknown kernel error {rc}")
