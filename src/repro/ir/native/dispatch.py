"""Execution fronting for compiled kernels.

``KernelDispatcher`` owns the per-context work counters; the compiled
artifacts live in a process-wide ``KernelCache`` shared by every device
and executor, so an N-device pool compiles each kernel once: stateless
kernels (src ``NativeKernel``, lock-step ``VectorizedKernel`` and
``VectorizedSpecKernel``) globally under a lock, the stateful
interpreter (``CompiledKernel`` closures capture counters and backend)
per thread.  A launch runs on one tier:

``lockstep``
    every lane at once under an active-lane mask
    (:mod:`repro.ir.vectorizer`): every buffered launch, and every
    lane-parallel direct launch that is straight-line or at least
    :data:`LOCKSTEP_MIN_LANES` wide.  One whose lanes touch one
    another's cells, or that faults, is undone and rerun lane by lane:
    the sequential result, or the interpreter's exact error;
``src``
    one lane after another in generated Python: lane-sequential work
    (DOACROSS, ``CpuExecutor.run_serial``), narrow control flow;
``interp``
    the ``native=False`` engine (straight-line launches keep
    lock-step), the oracle ``crosscheck`` mode replays every launch
    through (bitwise; the oracle's effects win), and the fallback for a
    kernel the generator cannot compile.
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
    DEFAULT_FUEL,
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
TIER_LOCKSTEP = "lockstep"

#: The narrowest lane-parallel direct launch of a kernel with control
#: flow that runs lock-step; a narrower one runs lane by lane, whose
#: host time is lower there.  Either way the outputs are the same.
LOCKSTEP_MIN_LANES = 128

_BACKENDS = {
    "direct": DirectBackend,
    "buffered": SpeculativeBackend,
    "tracing": TracingBackend,
}


class KernelCache:
    """Process-wide cache of compiled kernel artifacts.

    Stateless artifacts (src and lock-step kernels) are shared across
    threads; interpreter kernels are stateful and cached thread-locally.
    ``compiles`` counts real compilations per tier (test observability).
    Every kernel gets the per-index instruction budget ``fuel``.
    """

    def __init__(self, fuel: int = DEFAULT_FUEL):
        self.fuel = fuel
        self._lock = threading.Lock()
        self._compiled: dict[tuple[str, str, str], object] = {}
        self._failed: set[tuple[str, str, str]] = set()
        self._local = threading.local()
        self.compiles = {TIER_INTERP: 0, TIER_SRC: 0, TIER_LOCKSTEP: 0}

    # -- interpreter tier (thread-local, stateful) ----------------------

    def interp(self, fn: IRFunction) -> CompiledKernel:
        kernels = getattr(self._local, "kernels", None)
        if kernels is None:
            kernels = self._local.kernels = {}
        key = fn.fingerprint()
        kern = kernels.get(key)
        if kern is None:
            kern = kernels[key] = CompiledKernel(fn, self.fuel)
            with self._lock:
                self.compiles[TIER_INTERP] += 1
        return kern

    # -- stateless tiers ------------------------------------------------

    def src(self, fn: IRFunction, flavor: str) -> Optional[NativeKernel]:
        """The src kernel of ``(fn, flavor)``, or ``None`` if it fails
        to compile."""
        return self._compile(TIER_SRC, fn, flavor)

    def lockstep(self, fn: IRFunction, flavor: str):
        """The lock-step kernel of ``fn`` for ``direct`` or ``buffered``
        launches, or ``None`` if it fails to compile."""
        return self._compile(TIER_LOCKSTEP, fn, flavor)

    def _compile(self, tier: str, fn: IRFunction, flavor: str):
        """Only compiling (generate, ``compile``, ``exec``) is guarded,
        and a failed triple is remembered: it is attempted once per
        process."""
        key = (tier, fn.fingerprint(), flavor)
        kern = self._compiled.get(key)
        if kern is not None or key in self._failed:
            return kern
        with self._lock:
            kern = self._compiled.get(key)
            if kern is None and key not in self._failed:
                try:
                    if tier == TIER_SRC:
                        kern = NativeKernel(fn, flavor, self.fuel)
                    elif flavor == "buffered":
                        kern = VectorizedSpecKernel(fn, self.fuel)
                    else:
                        kern = VectorizedKernel(fn, self.fuel)
                except Exception:  # noqa: BLE001 - the interpreter runs it
                    self._failed.add(key)
                    return None
                self._compiled[key] = kern
                self.compiles[tier] += 1
        return kern

    def clear(self) -> None:
        with self._lock:
            self._compiled.clear()
            self._failed.clear()
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
    per-device ``CompiledKernel`` counters did.  The module docstring
    says which tier a launch runs on; ``native`` off, or a kernel that
    fails to compile, leaves the interpreter.  The ``kernel.tier.*``
    counters name the tier each launch was dispatched to, and
    ``kernel.tier.lockstep.fallbacks`` the lock-step launches rerun
    lane by lane.
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
        parallel: bool = False,
    ) -> list[int]:
        """Run indices, writes straight to storage, with the sequential
        result.  ``parallel``: the launch is lane-parallel (DOALL), so it
        may run lock-step.

        Returns the per-index instruction totals (the divergence input).
        """
        return self._run(fn, "direct", indices, scalar_env, storage, parallel)

    def run_buffered(
        self,
        fn: IRFunction,
        indices: Sequence[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
    ):
        """SE-phase run: per-lane write buffers + read/write logs.

        Returns ``(per_lane, ColumnarLanes)`` on every tier: the
        lock-step kernel builds the columns itself, the interpreter's
        ``{index: LaneSpecState}`` dict goes through ``from_states``.
        """
        return self._run(fn, "buffered", indices, scalar_env, storage, True)

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
        return self._run(fn, "tracing", indices, scalar_env, storage, False)

    def _kernel(self, fn, flavor, n, parallel):
        """The compiled kernel a launch runs on; ``None``: the
        interpreter."""
        if parallel and (
            fn.is_straightline
            or (self.native
                and (flavor == "buffered" or n >= LOCKSTEP_MIN_LANES))
        ):
            kern = self.cache.lockstep(fn, flavor)
            if kern is not None:
                return kern
        if self.native and flavor != "buffered":
            return self.cache.src(fn, flavor)
        return None

    def _run(self, fn, flavor, indices, scalar_env, storage, parallel):
        kern = self._kernel(fn, flavor, len(indices), parallel)
        if kern is None:
            if self.native:
                self.obs.metrics.counter(
                    "kernel.compile.failed", PLANE_HOST
                ).inc()
            self._record(TIER_INTERP, flavor, len(indices))
            per_lane, aux = self._run_interp(
                fn, flavor, indices, scalar_env, storage, self.counters(fn)
            )
        else:
            self._record(kern.tier, flavor, len(indices))
            if self.crosscheck:
                per_lane, aux = self._run_crosschecked(
                    kern, fn, flavor, indices, scalar_env, storage
                )
            else:
                per_lane = []
                aux = self._run_kernel(
                    kern, fn, flavor, indices, scalar_env, storage,
                    self.counters(fn), per_lane,
                )
        return per_lane if flavor == "direct" else (per_lane, aux)

    def _run_kernel(
        self, kern, fn, flavor, indices, scalar_env, storage, raw, per_lane
    ):
        """Run a compiled kernel.  A lock-step launch whose lanes
        conflict, or that faults, has left no effect; it reruns lane by
        lane, on the src tier or the interpreter, for the sequential
        result or the exact error."""
        if kern.tier != TIER_LOCKSTEP:
            return kern.run(indices, scalar_env, storage, raw, per_lane)
        try:
            return kern.run(indices, scalar_env, storage, raw, per_lane)
        except Exception:  # noqa: BLE001 - the rerun decides the outcome
            self.obs.metrics.counter(
                "kernel.tier.lockstep.fallbacks", PLANE_HOST
            ).inc()
        src = self.cache.src(fn, flavor) if (
            self.native and flavor == "direct"
        ) else None
        if src is not None:
            return src.run(indices, scalar_env, storage, raw, per_lane)
        lanes, aux = self._run_interp(
            fn, flavor, indices, scalar_env, storage, raw
        )
        per_lane.extend(lanes)
        return aux

    def _run_interp(self, fn, flavor, indices, scalar_env, storage, raw):
        """``(per_lane, aux)`` of an interpreter run; its work lands in
        ``raw``, partial counts of a faulted run included."""
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
            # drain so the shared, thread-local CompiledKernel stays
            # clean between callers
            kern.take_counts().add_to_raw(raw)
        if flavor == "buffered":
            return per_lane, ColumnarLanes.from_states(
                backend.lanes, indices, storage
            )
        if flavor == "tracing":
            return per_lane, backend.traces
        return per_lane, None

    # -- crosscheck mode ------------------------------------------------

    def _run_crosschecked(
        self, kern, fn, flavor, indices, scalar_env, storage
    ):
        """Replay through the interpreter oracle and compare bitwise.

        The native tier runs against a scratch copy of memory; the
        interpreter runs against the real storage so its effects (and
        its counts) are the ones the caller keeps.
        """
        scratch = ArrayStorage(storage.snapshot())
        native_raw = [0] * N_COUNTERS
        native_pl: list[int] = []
        native_aux = native_err = None
        try:
            native_aux = self._run_kernel(
                kern, fn, flavor, indices, scalar_env, scratch, native_raw,
                native_pl,
            )
        except Exception as exc:  # noqa: BLE001 - compared to the oracle
            native_err = exc

        interp_raw = [0] * N_COUNTERS
        interp_pl = interp_aux = interp_err = None
        try:
            interp_pl, interp_aux = self._run_interp(
                fn, flavor, indices, scalar_env, storage, interp_raw
            )
        except Exception as exc:  # noqa: BLE001
            interp_err = exc
        Counts.from_raw(interp_raw).add_to_raw(self.counters(fn))

        diffs: list[str] = []
        if (type(native_err), str(native_err)) != (
            type(interp_err), str(interp_err)
        ):
            diffs.append(
                f"exception: interp={interp_err!r} native={native_err!r}"
            )
        if interp_err is None and native_err is None:
            if native_pl != interp_pl:
                diffs.append("per-lane instruction totals differ")
            if native_raw != interp_raw:
                diffs.append(
                    f"work counters differ: interp={interp_raw} "
                    f"native={native_raw}"
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
                f"native tier {kern.tier!r} diverged from the interpreter "
                f"on kernel {fn.name!r} ({flavor}): " + "; ".join(diffs)
            )
        self.obs.metrics.counter("kernel.crosscheck.ok", PLANE_HOST).inc()
        if interp_err is not None:
            raise interp_err
        return interp_pl, interp_aux
