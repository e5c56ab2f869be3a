"""Dense tensor primitives and a deterministic, seedable PRNG.

Tensors are plain ``numpy.ndarray`` objects holding 64-bit floats;
the one kernel here is a numerically stable softmax.  On glibc,
``_pin_heap_thresholds`` keeps training's per-step arrays on the heap.
``on_both_cores`` runs independent work items, predict's slices and
explain's shuffles, on two worker threads with OpenBLAS held to one
thread, and its idle helper threads stopped, while they run
(``openblas_threads``); a call that finds a run under way runs its
items on its own thread.

Randomness comes from :class:`SeededRng`, a SplitMix64 counter
generator.  The algorithm is fixed and documented here rather than
borrowed from a platform default so that identical seeds give
bit-identical streams on every machine:

    state <- state + 0x9E3779B97F4A7C15          (per draw)
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)                        (64 random bits)

Uniform doubles take the top 53 bits of the output, giving values in
[0, 1) on an exact 2^-53 grid.
"""

from __future__ import annotations

import ctypes
import functools
import operator
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import RangeError

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = np.float64(1.0 / (1 << 53))

# glibc's mallopt parameters (malloc.h) and the values pinned for them
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_MMAP_THRESHOLD = 4 << 20
_TRIM_THRESHOLD = 32 << 20

# OpenBLAS's thread-count functions are <prefix>_{get,set}_num_threads<suffix>;
# the scipy-openblas wheels numpy ships with rename them, but not the
# function that stops its helper threads, which OpenBLAS calls before a fork
_OPENBLAS_PREFIXES = ("scipy_openblas", "openblas")
_OPENBLAS_SUFFIXES = ("64_", "")
_OPENBLAS_STOP = "blas_thread_shutdown_"

# held by the one run on both cores; see on_both_cores
_lock = threading.Lock()


def _pin_heap_thresholds():
    """Fix glibc's mmap and trim thresholds and its arena count for the
    whole process.

    By default glibc serves each block of at least 128 KiB (raised to
    the largest block freed so far) from a fresh mmap, and returns the
    heap top to the kernel once twice that threshold lies free there,
    so every training step faults its activations in again.  Pinned,
    the largest per-step training array (a 2 MiB window-16 LSTM input
    projection) stays on the heap, a whole window-16 flagship step
    (about 18 MiB) stays mapped below the trim threshold, and predict's
    one larger buffer, a 128-row slice's 4 MiB window-16 LSTM input
    projection ([128, 16, 256]), still goes to mmap and back to the kernel.
    Up to 32 MiB of freed heap stays resident.  One arena for all
    threads keeps predict's workers on that heap too, instead of each
    worker keeping up to 32 MiB of its own.  Elsewhere this does nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    libc = ctypes.CDLL(None)
    # the parameter numbers are glibc's; other C libraries may differ
    if not hasattr(libc, "gnu_get_libc_version"):
        return
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_ARENA_MAX, 1)


@functools.cache
def openblas_threads():
    """OpenBLAS's (get, set) thread-count functions and its helper
    threads' stop function (None where not exported), or None.

    They are looked up in the OpenBLAS library mapped into this
    process, so only on Linux; None where numpy uses another BLAS.
    """
    if not sys.platform.startswith("linux"):
        return None
    with open("/proc/self/maps") as maps:
        fields = [line.split(maxsplit=5) for line in maps]
    paths = {f[5].strip() for f in fields if len(f) == 6}
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        lib = ctypes.CDLL(path)
        for prefix in _OPENBLAS_PREFIXES:
            for suffix in _OPENBLAS_SUFFIXES:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = (), ctypes.c_int
                    put.argtypes, put.restype = (ctypes.c_int,), None
                    stop = getattr(lib, _OPENBLAS_STOP, None)
                    if stop is not None:
                        stop.argtypes, stop.restype = (), ctypes.c_int
                    return get, put, stop
    return None


def on_both_cores(fn, items) -> list:
    """``[fn(item) for item in items]``, on two worker threads made for
    this call, with OpenBLAS held to one thread while they run.

    Only the call that takes the lock runs on the workers.  A call that
    finds it taken (from a worker, from another thread, or in a child
    forked mid-run, whose copy stays taken) runs its items one after
    another on its own thread and leaves OpenBLAS alone, as does a call
    with fewer than two items, without OpenBLAS control or without two
    usable CPUs.  On the workers, an item's error reaches the caller
    only after every item has finished.

    After a GEMM split over two threads, OpenBLAS's helper busy-waits
    for about 0.1 s (2-core x86-64), and lowering the count does not
    end that, so where the count was above 1 the helpers are stopped
    before the run and again after the restore, which starts them
    spinning.  Only the process's only Python thread stops them:
    stopping them while another thread is inside OpenBLAS could hang
    both.
    """
    blas = openblas_threads() if len(items) > 1 else None
    if blas is None or len(os.sched_getaffinity(0)) < 2 or not _lock.acquire(blocking=False):
        return [fn(item) for item in items]
    get, put, stop = blas
    before = get()
    if before < 2 or threading.active_count() > 1:
        stop = None
    try:
        put(1)
        if stop is not None:
            stop()
        # leaving the pool waits for every item, before BLAS gets its threads back
        with ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(fn, item) for item in items]
    finally:
        put(before)
        if stop is not None and threading.active_count() == 1:
            stop()
        _lock.release()
    return [future.result() for future in futures]


def softmax_last_axis(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, stabilized by max subtraction.

    Every slice of the output is nonnegative and sums to 1; inputs of
    magnitude up to ~1e308 cannot overflow because the largest shifted
    exponent is exp(0).
    """
    x = np.asarray(x, dtype=np.float64)
    # the reductions np.max and np.sum make, without their Python wrappers
    shifted = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


class SeededRng:
    """SplitMix64 stream; identical seeds give identical sequences.

    The generator is single-threaded by design: code that needs
    independent streams creates one instance per stream, each with its
    own seed, instead of sharing one.
    """

    def __init__(self, seed: int):
        try:
            seed = operator.index(seed)
        except TypeError:
            raise RangeError(f"seed must be an integer, got {seed!r}") from None
        self._state = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)

    def _next_block(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs, identical to n scalar draws."""
        with np.errstate(over="ignore"):
            steps = (np.arange(1, n + 1, dtype=np.uint64)) * _GAMMA
            z = self._state + steps
            self._state = self._state + np.uint64(n) * _GAMMA
            z = (z ^ (z >> np.uint64(30))) * _MIX1
            z = (z ^ (z >> np.uint64(27))) * _MIX2
            return z ^ (z >> np.uint64(31))

    def uniform(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """Array of i.i.d. draws from [lo, hi)."""
        if not lo < hi:
            raise RangeError(f"uniform needs lo < hi, got lo={lo}, hi={hi}")
        if np.isscalar(shape):
            shape = (int(shape),)
        n = int(np.prod(shape)) if len(shape) else 1
        bits = self._next_block(n)
        u01 = (bits >> np.uint64(11)).astype(np.float64) * _U53
        return (lo + (hi - lo) * u01).reshape(shape)

    def normal(self, shape) -> np.ndarray:
        """Standard normal draws via Box-Muller on the uniform stream."""
        if np.isscalar(shape):
            shape = (int(shape),)
        n = int(np.prod(shape)) if len(shape) else 1
        pairs = (n + 1) // 2
        u = self.uniform((2, pairs))
        r = np.sqrt(-2.0 * np.log1p(-u[0]))  # 1-u in (0,1], log finite
        theta = 2.0 * np.pi * u[1]
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return z.reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) by sorting random keys."""
        return np.argsort(self.uniform(n), kind="stable")
