"""The compilation service: gates composed end to end (thread backend)."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import JaponicaError
from repro.serve import CompilationService, ServeConfig
from repro.serve.degrade import DegradationLadder
from repro.serve.jobs import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    STATUS_BREAKER_OPEN,
    STATUS_DEADLINE,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_SHED,
    JobSpec,
)

#: Ladder that is pinned at a level regardless of load (escalate at 0,
#: never relax): lets tests exercise one rung deterministically.
PIN_CACHE_ONLY = ((0.0, 0.0), (0.0, 0.0), (1.0, 0.0))
PIN_SHED_LOW = ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))


def run_service(coro_fn, config=None):
    """Start a service, run the test coroutine against it, stop it."""
    async def go():
        svc = CompilationService(config or ServeConfig(workers=2))
        await svc.start()
        try:
            return await coro_fn(svc)
        finally:
            await svc.stop()

    return asyncio.run(go())


class TestHappyPath:
    def test_run_job_completes_and_settles(self):
        async def body(svc):
            result = await svc.submit(JobSpec(tenant="t", workload="VectorAdd"))
            return result, svc.stats()

        result, stats = run_service(body)
        assert result.status == STATUS_OK
        assert result.sim_time_ms > 0
        assert stats["ledger"]["unsettled"] == 0
        assert stats["ledger"]["counts"] == {STATUS_OK: 1}

    def test_compile_job_completes(self):
        from repro.workloads import get

        async def body(svc):
            return await svc.submit(JobSpec(
                tenant="t", kind="compile", source=get("GEMM").source
            ))

        result = run_service(body)
        assert result.status == STATUS_OK
        assert result.compile["loops"]

    def test_malformed_spec_raises_for_the_transport_to_map(self):
        async def body(svc):
            with pytest.raises(JaponicaError, match="workload"):
                await svc.submit(JobSpec(tenant="t", workload=None))
            return svc.stats()

        stats = run_service(body)
        assert stats["ledger"]["admitted"] == 0

    def test_report_request_streams_a_report_section(self):
        async def body(svc):
            return await svc.submit(JobSpec(
                tenant="t", workload="VectorAdd", report=True
            ))

        result = run_service(body)
        assert result.status == STATUS_OK
        assert result.report is not None
        assert "totals" in result.report


class TestAdmission:
    def test_quota_exhaustion_rejects_with_retry_after(self):
        config = ServeConfig(workers=1, quota_rate=0.001, quota_burst=1.0)

        async def body(svc):
            first = await svc.submit(JobSpec(tenant="t", workload="VectorAdd"))
            second = await svc.submit(JobSpec(tenant="t", workload="VectorAdd"))
            return first, second

        first, second = run_service(body, config)
        assert first.status == STATUS_OK
        assert second.status == STATUS_REJECTED
        assert second.retry_after_s > 0
        assert "quota" in second.error


class TestDeadlines:
    def test_tiny_deadline_yields_deadline_status(self):
        async def body(svc):
            return await svc.submit(JobSpec(
                tenant="t", workload="VectorAdd", deadline_ms=0.001
            ))

        result = run_service(body)
        assert result.status == STATUS_DEADLINE
        assert "deadline" in result.error

    def test_deadline_job_still_settles_exactly_once(self):
        async def body(svc):
            await svc.submit(JobSpec(
                tenant="t", workload="VectorAdd", deadline_ms=0.001
            ))
            return svc.stats()

        stats = run_service(body)
        assert stats["ledger"]["unsettled"] == 0
        assert stats["ledger"]["counts"] == {STATUS_DEADLINE: 1}


class TestDegradation:
    def test_drop_report_rung_strips_reports(self):
        async def body(svc):
            svc.ladder = DegradationLadder(((0.0, 0.0), (1.0, 0.0),
                                            (1.0, 0.0)))
            return await svc.submit(JobSpec(
                tenant="t", workload="VectorAdd", report=True
            ))

        result = run_service(body)
        assert result.status == STATUS_OK
        assert result.report is None
        assert "report_dropped" in result.degraded

    def test_cache_only_rung_serves_cached_and_sheds_fresh(self):
        async def body(svc):
            shape = dict(tenant="a", workload="VectorAdd", n=1, seed=0)
            warm = await svc.submit(JobSpec(**shape))
            svc.ladder = DegradationLadder(PIN_CACHE_ONLY)
            # same shape, different tenant: served from the results cache
            cached = await svc.submit(JobSpec(**{**shape, "tenant": "b"}))
            # a shape nobody computed: shed
            fresh = await svc.submit(JobSpec(
                tenant="b", workload="VectorAdd", n=1, seed=99
            ))
            return warm, cached, fresh

        warm, cached, fresh = run_service(body)
        assert warm.status == STATUS_OK and not warm.served_from_cache
        assert cached.status == STATUS_OK and cached.served_from_cache
        assert cached.sim_time_ms == pytest.approx(warm.sim_time_ms)
        assert fresh.status == STATUS_SHED
        assert "cache-only" in fresh.error

    def test_cache_only_verify_needs_a_verified_answer(self):
        # the reproduced bug: an unverified job's answer served a
        # verify request at the cache-only rung
        async def body(svc):
            shape = dict(tenant="a", workload="MVT", n=1, seed=0)
            await svc.submit(JobSpec(**shape, verify=False, report=True))
            svc.ladder = DegradationLadder(PIN_CACHE_ONLY)
            refused = await svc.submit(JobSpec(**shape, verify=True))
            unverified = await svc.submit(JobSpec(**shape, verify=False))
            svc.ladder = DegradationLadder()
            await svc.submit(JobSpec(**shape, verify=True))
            await svc.submit(JobSpec(**shape, verify=False))
            svc.ladder = DegradationLadder(PIN_CACHE_ONLY)
            verified = await svc.submit(JobSpec(**shape, verify=True))
            return refused, unverified, verified

        refused, unverified, verified = run_service(body)
        assert refused.status == STATUS_SHED
        assert "cache-only" in refused.error
        assert unverified.status == STATUS_OK and unverified.served_from_cache
        # a later unverified run of the shape keeps the verified mark
        assert verified.status == STATUS_OK and verified.served_from_cache

    def test_cache_only_answer_carries_no_report(self):
        async def body(svc):
            shape = dict(tenant="a", workload="MVT", n=1, seed=0)
            first = await svc.submit(JobSpec(**shape, report=True))
            svc.ladder = DegradationLadder(PIN_CACHE_ONLY)
            asked = await svc.submit(JobSpec(**shape, report=True))
            plain = await svc.submit(JobSpec(**shape))
            return first, asked, plain

        first, asked, plain = run_service(body)
        assert first.report is not None and first.degraded == []
        for cached in (asked, plain):
            assert cached.status == STATUS_OK and cached.served_from_cache
            assert cached.report is None
            assert cached.sim_time_ms == first.sim_time_ms
        assert asked.degraded == ["report_dropped"]
        assert plain.degraded == []

    def test_shed_low_rung_drops_low_priority_first(self):
        async def body(svc):
            shape = dict(tenant="a", workload="VectorAdd", n=1, seed=0)
            await svc.submit(JobSpec(**shape, priority=PRIORITY_HIGH))
            svc.ladder = DegradationLadder(PIN_SHED_LOW)
            low = await svc.submit(JobSpec(**shape, priority=PRIORITY_LOW))
            high = await svc.submit(JobSpec(**shape, priority=PRIORITY_HIGH))
            return low, high

        low, high = run_service(body)
        assert low.status == STATUS_SHED
        assert "priority" in low.error
        # high priority still gets the cache-only answer at this level
        assert high.status == STATUS_OK and high.served_from_cache


class TestBreakers:
    #: Every execution lane faults, so the resilience ladder has nowhere
    #: left to degrade to and the run fails terminally every time.
    ALWAYS_FAILS = "gpu.hang:1.0,cpu.worker:1.0,transfer:1.0"

    def test_consecutive_failures_trip_then_recover(self):
        config = ServeConfig(
            workers=1, breaker_failures=3, breaker_recovery_s=0.2,
        )

        async def body(svc):
            bad = dict(tenant="bad", workload="VectorAdd",
                       faults=self.ALWAYS_FAILS)
            fails = [await svc.submit(JobSpec(**bad)) for _ in range(3)]
            refused = await svc.submit(JobSpec(**bad))
            # a healthy tenant is unaffected
            ok = await svc.submit(JobSpec(tenant="good", workload="VectorAdd"))
            await asyncio.sleep(0.25)  # breaker half-opens
            recovered = await svc.submit(JobSpec(
                tenant="bad", workload="VectorAdd"
            ))
            return fails, refused, ok, recovered, svc.stats()

        fails, refused, ok, recovered, stats = run_service(body, config)
        assert all(r.status == STATUS_FAILED for r in fails)
        assert refused.status == STATUS_BREAKER_OPEN
        assert refused.retry_after_s > 0
        assert ok.status == STATUS_OK
        assert recovered.status == STATUS_OK
        assert stats["breakers"]["trips"] == 1
        assert stats["breakers"]["recoveries"] == 1

    def test_breaker_refusals_do_not_enter_the_ledger_admitted_set(self):
        config = ServeConfig(
            workers=1, breaker_failures=1, breaker_recovery_s=60.0,
        )

        async def body(svc):
            bad = dict(tenant="bad", workload="VectorAdd",
                       faults=self.ALWAYS_FAILS)
            await svc.submit(JobSpec(**bad))       # fails, trips
            await svc.submit(JobSpec(**bad))       # refused instantly
            return svc.stats()

        stats = run_service(body, config)
        assert stats["ledger"]["admitted"] == 1
        assert stats["ledger"]["counts"][STATUS_BREAKER_OPEN] == 1


class TestHalfOpenProbeRelease:
    """A probe that passes the breaker but never reaches a success or
    failure verdict must hand its half-open slot back — otherwise the
    breaker wedges half-open and locks the tenant out forever."""

    ALWAYS_FAILS = TestBreakers.ALWAYS_FAILS

    @staticmethod
    def _tripped_config():
        return ServeConfig(
            workers=1, breaker_failures=1, breaker_recovery_s=0.05,
            breaker_half_open_max=1,
        )

    async def _trip_and_half_open(self, svc):
        await svc.submit(JobSpec(
            tenant="bad", workload="VectorAdd", faults=self.ALWAYS_FAILS
        ))
        await asyncio.sleep(0.1)  # breaker half-opens

    def test_probe_shed_by_ladder_does_not_wedge_the_breaker(self):
        async def body(svc):
            await self._trip_and_half_open(svc)
            svc.ladder = DegradationLadder(PIN_SHED_LOW)
            shed = await svc.submit(JobSpec(
                tenant="bad", workload="VectorAdd", priority=PRIORITY_LOW
            ))
            svc.ladder = DegradationLadder()  # pressure is gone
            probe = await svc.submit(JobSpec(
                tenant="bad", workload="VectorAdd"
            ))
            return shed, probe

        shed, probe = run_service(body, self._tripped_config())
        assert shed.status == STATUS_SHED
        assert probe.status == STATUS_OK  # slot was released, not leaked

    def test_probe_rejected_by_admission_does_not_wedge_the_breaker(self):
        config = self._tripped_config()
        config.quota_rate = 0.001
        config.quota_burst = 1.0

        async def body(svc):
            await self._trip_and_half_open(svc)  # spends the one token
            rejected = await svc.submit(JobSpec(
                tenant="bad", workload="VectorAdd"
            ))
            svc.admission.bucket("bad")._tokens = 1.0  # quota refilled
            probe = await svc.submit(JobSpec(
                tenant="bad", workload="VectorAdd"
            ))
            return rejected, probe

        rejected, probe = run_service(body, config)
        assert rejected.status == STATUS_REJECTED
        assert probe.status == STATUS_OK

    def test_probe_hitting_deadline_does_not_wedge_the_breaker(self):
        async def body(svc):
            await self._trip_and_half_open(svc)
            timed_out = await svc.submit(JobSpec(
                tenant="bad", workload="VectorAdd", deadline_ms=0.001
            ))
            probe = await svc.submit(JobSpec(
                tenant="bad", workload="VectorAdd"
            ))
            return timed_out, probe

        timed_out, probe = run_service(body, self._tripped_config())
        assert timed_out.status == STATUS_DEADLINE
        assert probe.status == STATUS_OK


class TestDispatchFaults:
    def test_unexpected_dispatch_error_still_settles_the_ledger(self):
        async def body(svc):
            async def boom(job, level, deadline, **kw):
                raise TypeError("unexpected pipeline explosion")

            svc.pool.run = boom
            with pytest.raises(TypeError, match="explosion"):
                await svc.submit(JobSpec(tenant="t", workload="VectorAdd"))
            return svc.stats()

        stats = run_service(body)
        assert stats["ledger"]["unsettled"] == 0
        assert stats["ledger"]["duplicate_settlements"] == 0
        assert stats["ledger"]["counts"] == {STATUS_FAILED: 1}


class TestRetries:
    def test_worker_death_is_retried_to_success(self):
        config = ServeConfig(
            workers=1, faults="serve.worker@1", fault_seed=5,
        )

        async def body(svc):
            result = await svc.submit(JobSpec(tenant="t", workload="VectorAdd"))
            return result, svc.stats()

        result, stats = run_service(body, config)
        assert result.status == STATUS_OK
        assert result.attempts == 2
        assert stats["pool"]["worker_deaths"] == 1
        assert stats["ledger"]["unsettled"] == 0

    def test_retries_exhausted_becomes_failed(self):
        # every dispatch dies: 1 try + 3 retries, then a terminal failure
        config = ServeConfig(
            workers=1, faults="serve.worker:1.0", fault_seed=5,
            max_retries=3, retry_base_s=1e-4,
        )

        async def body(svc):
            return await svc.submit(JobSpec(tenant="t", workload="VectorAdd"))

        result = run_service(body, config)
        assert result.status == STATUS_FAILED
        assert result.attempts == 4
        assert "worker died" in result.error


class TestResultsCacheAccounting:
    def test_artifact_cache_hits_accumulate_across_tenants(self):
        async def body(svc):
            for tenant in ("a", "b", "c"):
                await svc.submit(JobSpec(tenant=tenant, workload="VectorAdd"))
            return svc.cache_hit_rate()

        rate = run_service(body)
        assert rate > 0.5  # tenants b and c hit a's compiled artifacts
