"""Content-keyed artifact cache for compile and profile results.

The pipeline's two expensive host-side phases — parse→analyze→translate
and dependency profiling — are pure functions of their inputs, so their
outputs memoize by content:

* **translation units** key on ``(schema, cpu_threads, source sha256)``;
* **dependency profiles** key on ``(schema, kernel fingerprint, warp
  size, platform signature, sampled indices, scalar env, array contents)``
  — array *contents* matter because irregular kernels (BFS, CFD) compute
  addresses from loaded values.

Two layers: an in-process LRU (always on) and an optional on-disk pickle
layer (``cache_dir``) that survives across processes — the TornadoVM
lesson that persisted compile/profile artifacts are what make a
managed-runtime GPU pipeline production-viable.  Lookups report
``cache.hit`` / ``cache.miss`` counters through the observability plane
when an :class:`Instrumentation` is supplied.

Correctness notes: profile lookups must be *bypassed* while fault
injection is on (profiling launches consume fault-schedule probes — the
caller guards this); memory-layer hits return a deep copy so one run's
consumer can never mutate another run's artifact; disk entries that fail
to read or unpickle are treated as misses.

Crash safety (the serve plane shares one directory across worker
processes, any of which may be killed mid-write): writes go to a private
temp file, are fsync'd, then atomically renamed into place, so a reader
can never observe a torn entry; a corrupt entry (e.g. from a pre-fsync
power cut) is *quarantined* — renamed aside to ``*.corrupt`` and counted
— instead of raised or endlessly re-read, so one bad file can never
poison cross-tenant hits.  All in-process state is behind a lock so the
serve plane's worker threads can share one cache object.
"""

from __future__ import annotations

import copy
import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from typing import Optional, Sequence

import numpy as np

from ..ir.columnar import lane_vector

#: Bump to invalidate every previously persisted artifact.
CACHE_SCHEMA = 1


class ArtifactCache:
    """Two-layer (memory + optional disk) content-keyed artifact store."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        max_memory_entries: int = 256,
        enabled: bool = True,
    ):
        self.cache_dir = cache_dir
        self.max_memory_entries = max_memory_entries
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self._mem: OrderedDict[str, object] = OrderedDict()
        self._lock = threading.Lock()
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)

    # -- generic get/put --------------------------------------------------

    def get(self, key: str, kind: str, obs=None, copy_value: bool = False):
        """Look up ``key``; returns the artifact or None.

        ``kind`` labels the metrics (``cache.hit.profile`` etc.).  With
        ``copy_value`` a memory-layer hit returns a deep copy (disk hits
        are fresh unpickles already).
        """
        if not self.enabled:
            return None
        with self._lock:
            value = self._mem.get(key)
            if value is not None:
                self._mem.move_to_end(key)
                self._record(True, kind, obs)
                return copy.deepcopy(value) if copy_value else value
        value = self._disk_get(key, obs)
        if value is not None:
            with self._lock:
                self._mem_put(key, value)
                self._record(True, kind, obs)
            return value
        with self._lock:
            self._record(False, kind, obs)
        return None

    def put(self, key: str, value: object) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._mem_put(key, value)
        self._disk_put(key, value)

    def _record(self, hit: bool, kind: str, obs) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        if obs is not None:
            word = "hit" if hit else "miss"
            obs.metrics.counter(f"cache.{word}").inc()
            obs.metrics.counter(f"cache.{word}.{kind}").inc()

    # -- layers -----------------------------------------------------------

    def _mem_put(self, key: str, value: object) -> None:
        self._mem[key] = value
        self._mem.move_to_end(key)
        while len(self._mem) > self.max_memory_entries:
            self._mem.popitem(last=False)

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.pkl")

    def _disk_get(self, key: str, obs=None):
        if self.cache_dir is None:
            return None
        try:
            with open(self._path(key), "rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            return None  # plain miss
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            # corrupt entry (e.g. a worker was killed mid-write on a
            # filesystem without atomic rename durability): quarantine it
            # so it is never re-read, and report a miss — never an error
            self._quarantine(key, obs)
            return None

    def _quarantine(self, key: str, obs=None) -> None:
        path = self._path(key)
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            try:  # rename failed (permissions?): drop it instead
                os.unlink(path)
            except OSError:
                pass
        with self._lock:
            self.quarantined += 1
        if obs is not None:
            obs.metrics.counter("cache.quarantined").inc()

    def _disk_put(self, key: str, value: object) -> None:
        if self.cache_dir is None:
            return
        try:
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
                    fh.flush()
                    os.fsync(fh.fileno())  # durable before the rename
                os.replace(tmp, self._path(key))  # atomic publish
            except BaseException:
                os.unlink(tmp)
                raise
        except (OSError, pickle.PicklingError, TypeError, AttributeError):
            pass  # disk layer is best-effort; the memory layer still has it

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "quarantined": self.quarantined,
                "memory_entries": len(self._mem)}


# ---------------------------------------------------------------------------
# Key derivation
# ---------------------------------------------------------------------------


def unit_key(source: str, cpu_threads: int, infer: bool = False) -> str:
    """Cache key of a translation unit (parse→analyze→translate output).

    ``infer`` marks units compiled with annotation inference: the same
    source compiled with and without inference produces different units
    (and an inference report), so the two must never alias in the cache.
    """
    h = hashlib.sha256()
    h.update(f"unit/{CACHE_SCHEMA}/{cpu_threads}/{int(infer)}\n".encode())
    h.update(source.encode())
    return "unit-" + h.hexdigest()


def jit_unit_key(
    code_fingerprint: str, signature: str, cpu_threads: int
) -> str:
    """Cache key of a translation unit lifted from CPython bytecode.

    ``code_fingerprint`` must already include the Python version tag —
    the same source file compiles to different bytecode across 3.10–3.12,
    so a version upgrade must miss rather than replay a stale lift.
    ``signature`` is the call-site type signature the unit was
    specialized against.
    """
    h = hashlib.sha256()
    h.update(f"jit/{CACHE_SCHEMA}/{cpu_threads}\n".encode())
    h.update(code_fingerprint.encode())
    h.update(b"\n")
    h.update(signature.encode())
    return "jit-" + h.hexdigest()


def profile_key(
    fn,
    sample_indices: Sequence[int],
    scalar_env: dict[str, object],
    storage,
    warp_size: int,
    platform_sig: str,
) -> str:
    """Cache key of a dependency profile.

    ``fn`` is the kernel IRFunction (content-fingerprinted), ``storage``
    the bound :class:`ArrayStorage` whose array contents feed the
    sampled address streams.
    """
    h = hashlib.sha256()
    h.update(f"profile/{CACHE_SCHEMA}/{fn.fingerprint()}/{warp_size}\n".encode())
    h.update(platform_sig.encode())
    h.update(b"\nindices\n")
    h.update(lane_vector(sample_indices).tobytes())
    h.update(b"\nscalars\n")
    for name in sorted(scalar_env):
        h.update(f"{name}={scalar_env[name]!r};".encode())
    for name in sorted(storage.arrays):
        arr = storage.arrays[name]
        h.update(
            f"\narray {name} {arr.dtype.str} {arr.shape}\n".encode()
        )
        h.update(np.ascontiguousarray(arr).tobytes())
    return "profile-" + h.hexdigest()
