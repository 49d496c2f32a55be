"""Device-pool unit tests: topology, heterogeneity, liveness, weights."""

import numpy as np
import pytest

from repro.gpusim.pool import (
    HETERO_BW_FACTORS,
    HETERO_FREQ_FACTORS,
    DevicePool,
    pool_spec,
)
from repro.scheduler.context import ExecutionContext, JaponicaConfig
from repro.translate.datamove import DataMove, DataPlan


def make_pool(size):
    ctx = ExecutionContext(config=JaponicaConfig(devices=size))
    return ctx, ctx.pool


class TestTopology:
    def test_size_one_is_the_seed_device(self):
        ctx, pool = make_pool(1)
        assert pool.size == 1
        assert pool.primary is ctx.device
        assert pool.cost_of(0) is ctx.cost

    def test_primary_shared_at_any_size(self):
        ctx, pool = make_pool(4)
        assert pool.size == 4
        assert pool.device(0) is ctx.device
        assert pool.cost_of(0) is ctx.cost

    def test_rejects_empty_pool(self):
        ctx, pool = make_pool(1)
        with pytest.raises(ValueError):
            DevicePool(ctx.device, ctx.cost, ctx.platform, size=0)

    def test_hetero_specs_cycle_the_factor_tables(self):
        ctx, pool = make_pool(4)
        base = ctx.platform.gpu
        for k in range(4):
            spec = pool.device(k).spec
            f = HETERO_FREQ_FACTORS[k % len(HETERO_FREQ_FACTORS)]
            b = HETERO_BW_FACTORS[k % len(HETERO_BW_FACTORS)]
            assert spec.freq_ghz == pytest.approx(base.freq_ghz * f)
            assert spec.mem_bandwidth_gbps == pytest.approx(
                base.mem_bandwidth_gbps * b
            )

    def test_pool_spec_identity_for_unit_factors(self):
        ctx, _ = make_pool(1)
        base = ctx.platform.gpu
        assert pool_spec(base, 0) is base

    def test_signature_distinguishes_sizes(self):
        _, p1 = make_pool(1)
        _, p2 = make_pool(2)
        assert p1.signature() != p2.signature()
        _, p2b = make_pool(2)
        assert p2.signature() == p2b.signature()

    def test_device_ids_threaded(self):
        _, pool = make_pool(3)
        assert [d.device_id for d in pool.devices] == [0, 1, 2]


class TestLiveness:
    def test_mark_dead_and_revive(self):
        _, pool = make_pool(3)
        assert pool.alive_ids() == [0, 1, 2]
        pool.mark_dead(1)
        assert not pool.is_alive(1)
        assert pool.alive_ids() == [0, 2]
        pool.revive_all()
        assert pool.alive_ids() == [0, 1, 2]

    def test_reset_memory_revives(self):
        _, pool = make_pool(2)
        pool.mark_dead(0)
        pool.mark_dead(1)
        pool.reset_memory()
        assert pool.alive_ids() == [0, 1]


class TestResidency:
    def test_mark_stale_reaches_every_device(self):
        _, pool = make_pool(3)
        plan = DataPlan(copyin=[DataMove("a", "in")])
        for k in (0, 2):
            pool.device(k).memory.stage(plan, {"a": np.zeros(4)}, {})
        pool.mark_stale(["a"], 0.5)
        for k in (0, 2):
            assert pool.device(k).memory.allocations["a"].stale_fraction == 0.5
        assert "a" not in pool.device(1).memory.allocations


class TestWeights:
    def test_weight_is_cores_times_freq(self):
        _, pool = make_pool(2)
        for k in range(2):
            spec = pool.device(k).spec
            assert pool.weight(k) == spec.cores * spec.freq_ghz

    def test_boundary_matches_platform_at_size_one(self):
        ctx, pool = make_pool(1)
        assert pool.sharing_boundary() == pytest.approx(
            ctx.platform.sharing_boundary()
        )

    def test_boundary_grows_with_pool(self):
        _, p1 = make_pool(1)
        _, p4 = make_pool(4)
        assert p4.sharing_boundary() > p1.sharing_boundary()

    def test_boundary_zero_when_all_dead(self):
        _, pool = make_pool(2)
        pool.mark_dead(0)
        pool.mark_dead(1)
        assert pool.alive_weight() == 0.0
        assert pool.sharing_boundary() == 0.0

    def test_context_boundary_uses_pool_at_size_gt_one(self):
        ctx, pool = make_pool(2)
        assert ctx.boundary() == pytest.approx(pool.sharing_boundary())
        ctx1, _ = make_pool(1)
        assert ctx1.boundary() == pytest.approx(
            ctx1.platform.sharing_boundary()
        )
