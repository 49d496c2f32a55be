"""Execution fronting for compiled kernels.

``KernelDispatcher`` owns the per-context work counters; the compiled
artifacts themselves live in a process-wide ``KernelCache`` shared by
every device and executor, so an N-device pool compiles each kernel
once:

* stateless tiers (generated-source ``NativeKernel``, the
  vectorized/specvec kernels) are cached globally under a lock, keyed
  ``(ir_fingerprint, tier/flavor)``;
* the stateful scalar interpreter (``CompiledKernel`` closures capture
  their counters and backend) is cached per *thread*, which still
  deduplicates the per-device copies of the old per-instance caches.

With the native backend on, every launch runs on the ``src`` tier from
the kernel's first launch, the way a kernel is compiled before it ever
runs on a device.  The ``interp`` tier is the ``native=False`` engine,
the oracle that ``crosscheck`` mode replays every native launch through
(comparing results bitwise; the oracle's effects always win), and the
fallback for a kernel the generator cannot compile.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

import numpy as np

from ...errors import NativeMismatch
from ...obs.metrics import NULL_INSTRUMENTATION, Instrumentation
from ...obs.tracer import PLANE_HOST
from ..columnar import ColumnarLanes
from ..instructions import IRFunction
from ..interpreter import (
    ArrayStorage,
    C_TOTAL,
    CompiledKernel,
    Counts,
    DirectBackend,
    N_COUNTERS,
    SpeculativeBackend,
    TracingBackend,
)
from ..specvec import VectorizedSpecKernel
from ..vectorizer import VectorizedKernel
from .codegen import NativeKernel

TIER_INTERP = "interp"
TIER_SRC = "src"

_BACKENDS = {
    "direct": DirectBackend,
    "buffered": SpeculativeBackend,
    "tracing": TracingBackend,
}


class KernelCache:
    """Process-wide cache of compiled kernel artifacts.

    Stateless artifacts (src/vectorized kernels) are shared across
    threads; interpreter kernels are stateful and cached thread-locally.
    ``compiles`` counts real compilations per tier (test observability).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._src: dict[tuple[str, str], NativeKernel] = {}
        self._src_failed: set[tuple[str, str]] = set()
        self._vector: dict[str, VectorizedKernel] = {}
        self._specvec: dict[str, VectorizedSpecKernel] = {}
        self._local = threading.local()
        self.compiles = {"interp": 0, "src": 0, "vector": 0}

    # -- interpreter tier (thread-local, stateful) ----------------------

    def interp(self, fn: IRFunction) -> CompiledKernel:
        kernels = getattr(self._local, "kernels", None)
        if kernels is None:
            kernels = self._local.kernels = {}
        key = fn.fingerprint()
        kern = kernels.get(key)
        if kern is None:
            kern = kernels[key] = CompiledKernel(fn)
            with self._lock:
                self.compiles["interp"] += 1
        return kern

    # -- stateless tiers ------------------------------------------------

    def src(self, fn: IRFunction, flavor: str) -> Optional[NativeKernel]:
        """The src kernel of ``(fn, flavor)``, or ``None`` if it fails
        to compile.

        Only compiling (generate, ``compile``, ``exec``) is guarded, and
        a failed pair is remembered: it is attempted once per process.
        """
        key = (fn.fingerprint(), flavor)
        kern = self._src.get(key)
        if kern is not None or key in self._src_failed:
            return kern
        with self._lock:
            kern = self._src.get(key)
            if kern is None and key not in self._src_failed:
                try:
                    kern = NativeKernel(fn, flavor)
                except Exception:  # noqa: BLE001 - the interpreter runs it
                    self._src_failed.add(key)
                    return None
                self._src[key] = kern
                self.compiles["src"] += 1
        return kern

    def vectorized(self, fn: IRFunction) -> VectorizedKernel:
        key = fn.fingerprint()
        kern = self._vector.get(key)
        if kern is None:
            with self._lock:
                kern = self._vector.get(key)
                if kern is None:
                    kern = self._vector[key] = VectorizedKernel(fn)
                    self.compiles["vector"] += 1
        return kern

    def specvec(self, fn: IRFunction) -> VectorizedSpecKernel:
        key = fn.fingerprint()
        kern = self._specvec.get(key)
        if kern is None:
            with self._lock:
                kern = self._specvec.get(key)
                if kern is None:
                    kern = self._specvec[key] = VectorizedSpecKernel(fn)
        return kern

    def clear(self) -> None:
        with self._lock:
            self._src.clear()
            self._src_failed.clear()
            self._vector.clear()
            self._specvec.clear()
            self._local = threading.local()
            for k in self.compiles:
                self.compiles[k] = 0


#: The default process-wide cache every context shares.
GLOBAL_KERNEL_CACHE = KernelCache()


class KernelDispatcher:
    """Runs every kernel launch on one tier and counts the work.

    One dispatcher is shared by all devices and the CPU executor of an
    execution context; it owns the per-kernel raw work counters, so
    partial counts from faulted attempts accumulate exactly as the old
    per-device ``CompiledKernel`` counters did.  With ``native`` on, a
    launch runs on the src tier from the kernel's first launch; with it
    off, or when the kernel fails to compile, on the interpreter.  The
    ``kernel.tier.*`` counters name the tier each launch ran on.
    """

    def __init__(
        self,
        cache: Optional[KernelCache] = None,
        obs: Optional[Instrumentation] = None,
        native: bool = True,
        crosscheck: bool = False,
    ):
        self.cache = cache or GLOBAL_KERNEL_CACHE
        self.obs = obs or NULL_INSTRUMENTATION
        self.native = native
        self.crosscheck = crosscheck
        self._raw: dict[str, list[int]] = {}

    # -- counters -------------------------------------------------------

    def counters(self, fn: IRFunction) -> list[int]:
        key = fn.fingerprint()
        raw = self._raw.get(key)
        if raw is None:
            raw = self._raw[key] = [0] * N_COUNTERS
        return raw

    def take_counts(self, fn: IRFunction) -> Counts:
        """Return and reset the kernel's accumulated work counters."""
        raw = self.counters(fn)
        counts = Counts.from_raw(raw)
        for k in range(N_COUNTERS):
            raw[k] = 0
        return counts

    def peek_counts(self, fn: IRFunction) -> Counts:
        return Counts.from_raw(self.counters(fn))

    # -- tier accounting ------------------------------------------------

    def _record(self, tier: str, flavor: str, n: int) -> None:
        m = self.obs.metrics
        m.counter(f"kernel.tier.{tier}", PLANE_HOST).inc()
        m.counter(f"kernel.tier.{tier}.iterations", PLANE_HOST).inc(n)
        m.counter(f"kernel.dispatch.{flavor}", PLANE_HOST).inc()

    # -- execution ------------------------------------------------------

    def run_direct(
        self,
        fn: IRFunction,
        indices: Sequence[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
    ) -> list[int]:
        """Run indices in order, writes straight to storage.

        Returns the per-index instruction totals (the divergence input).
        """
        return self._run(fn, "direct", indices, scalar_env, storage)

    def run_buffered(
        self,
        fn: IRFunction,
        indices: Sequence[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
    ):
        """SE-phase run: per-lane write buffers + read/write logs.

        Returns ``(per_lane, ColumnarLanes)`` on either tier: the src
        kernel writes the columns itself, the interpreter's
        ``{index: LaneSpecState}`` dict goes through ``from_states``.
        """
        return self._run(fn, "buffered", indices, scalar_env, storage)

    def run_tracing(
        self,
        fn: IRFunction,
        indices: Sequence[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
    ):
        """Profiling run: direct writes + per-lane address traces.

        Returns ``(per_lane, {index: [AccessRecord]})``.
        """
        return self._run(fn, "tracing", indices, scalar_env, storage)

    def _run(self, fn, flavor, indices, scalar_env, storage):
        indices = list(indices)
        kern = self.cache.src(fn, flavor) if self.native else None
        if kern is None:
            if self.native:
                self.obs.metrics.counter(
                    "kernel.compile.failed", PLANE_HOST
                ).inc()
            self._record(TIER_INTERP, flavor, len(indices))
            return self._run_interp(fn, flavor, indices, scalar_env, storage)
        self._record(TIER_SRC, flavor, len(indices))
        if self.crosscheck:
            return self._run_crosschecked(
                kern, fn, flavor, indices, scalar_env, storage
            )
        return self._run_src(kern, fn, flavor, indices, scalar_env, storage)

    def _run_interp(self, fn, flavor, indices, scalar_env, storage):
        kern = self.cache.interp(fn)
        backend = _BACKENDS[flavor](storage)
        per_lane: list[int] = []
        counters = kern.counters
        try:
            for i in indices:
                before = counters[C_TOTAL]
                kern.run_index(i, scalar_env, backend)
                per_lane.append(counters[C_TOTAL] - before)
        finally:
            # drain into the dispatcher-owned counters so the shared,
            # thread-local CompiledKernel stays clean between callers
            # and partial counts survive exceptions
            kern.take_counts().add_to_raw(self.counters(fn))
        if flavor == "buffered":
            return per_lane, ColumnarLanes.from_states(
                backend.lanes, indices, storage
            )
        if flavor == "tracing":
            return per_lane, backend.traces
        return per_lane

    def _run_src(self, kern, fn, flavor, indices, scalar_env, storage):
        per_lane: list[int] = []
        aux = kern.run(
            indices, scalar_env, storage, self.counters(fn), per_lane
        )
        if flavor == "direct":
            return per_lane
        return per_lane, aux

    # -- crosscheck mode ------------------------------------------------

    def _run_crosschecked(
        self, kern, fn, flavor, indices, scalar_env, storage
    ):
        """Replay through the interpreter oracle and compare bitwise.

        The src tier runs against a scratch copy of memory; the
        interpreter runs against the real storage so its effects (and
        its counts) are the ones the caller keeps.
        """
        scratch = ArrayStorage(storage.snapshot())
        native_raw = [0] * N_COUNTERS
        native_pl: list[int] = []
        native_aux = native_err = None
        try:
            native_aux = kern.run(
                indices, scalar_env, scratch, native_raw, native_pl
            )
        except Exception as exc:  # noqa: BLE001 - compared to the oracle
            native_err = exc

        interp_raw_before = list(self.counters(fn))
        interp_aux = interp_err = None
        try:
            result = self._run_interp(fn, flavor, indices, scalar_env, storage)
        except Exception as exc:  # noqa: BLE001
            interp_err = exc
        else:
            if flavor == "direct":
                interp_pl = result
            else:
                interp_pl, interp_aux = result

        diffs: list[str] = []
        if (native_err is None) != (interp_err is None) or (
            interp_err is not None
            and (
                type(native_err) is not type(interp_err)
                or str(native_err) != str(interp_err)
            )
        ):
            diffs.append(
                f"exception: interp={interp_err!r} native={native_err!r}"
            )
        if interp_err is None and native_err is None:
            if native_pl != interp_pl:
                diffs.append("per-lane instruction totals differ")
            delta = [
                after - before
                for before, after in zip(
                    interp_raw_before, self.counters(fn)
                )
            ]
            if native_raw != delta:
                diffs.append(
                    f"work counters differ: interp={delta} native={native_raw}"
                )
            for name, arr in storage.arrays.items():
                other = scratch.arrays.get(name)
                if (
                    other is None
                    or other.dtype != arr.dtype
                    or not np.array_equal(arr, other)
                ):
                    diffs.append(f"array {name!r} differs")
            if flavor == "buffered":
                columns = interp_aux.differing_columns(native_aux)
                if columns:
                    diffs.append(
                        "buffered log columns differ: " + ", ".join(columns)
                    )
            elif flavor == "tracing" and native_aux != interp_aux:
                diffs.append("tracing lane state differs")
        if diffs:
            self.obs.metrics.counter(
                "kernel.crosscheck.mismatch", PLANE_HOST
            ).inc()
            raise NativeMismatch(
                f"native tier {TIER_SRC!r} diverged from the interpreter on "
                f"kernel {fn.name!r} ({flavor}): " + "; ".join(diffs)
            )
        self.obs.metrics.counter("kernel.crosscheck.ok", PLANE_HOST).inc()
        if interp_err is not None:
            raise interp_err
        if flavor == "direct":
            return interp_pl
        return interp_pl, interp_aux
