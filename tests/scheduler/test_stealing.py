"""Task-stealing scheduler tests: PDG batches, rules, stealing dynamics."""

import numpy as np
import pytest

from repro.errors import SchedulerError
from repro.ir import ArrayStorage
from repro.scheduler.context import ExecutionContext
from repro.scheduler.stealing import TaskStealingScheduler
from repro.scheduler.task import Task
from repro.translate.translator import Translator

TWO_PHASE_SRC = """
class T {
  static void run(double[] a, double[] b, double[] c, int n) {
    /* acc parallel scheme(stealing) */
    for (int i = 0; i < n / 2; i++) { b[i] = a[i] * 2.0; }
    /* acc parallel */
    for (int i = n / 2; i < n; i++) { b[i] = a[i] * 2.0; }
    /* acc parallel */
    for (int i = 0; i < n; i++) { c[i] = b[i] + 1.0; }
  }
}
"""


def setup(src=TWO_PHASE_SRC, n=512):
    ctx = ExecutionContext()
    unit = Translator().translate_source(src)
    tasks = [Task(tl) for tl in unit.all_loops]
    rng = np.random.default_rng(0)
    storage = ArrayStorage(
        {"a": rng.standard_normal(n), "b": np.zeros(n), "c": np.zeros(n)}
    )
    return ctx, TaskStealingScheduler(ctx), tasks, storage, {"n": n}


class TestPdgSections:
    def test_subloops_independent_consumer_ordered(self):
        ctx, sched, tasks, storage, env = setup()
        pdg = sched.build_task_pdg(tasks, storage, env)
        batches = pdg.batches()
        assert len(batches) == 2
        assert len(batches[0]) == 2  # the two half-range producers
        assert batches[1] == [tasks[2].id]

    def test_overlapping_writes_ordered(self):
        src = """
        class T {
          static void run(double[] a, double[] b, double[] c, int n) {
            /* acc parallel scheme(stealing) */
            for (int i = 0; i < n; i++) { b[i] = a[i]; }
            /* acc parallel */
            for (int i = 0; i < n; i++) { b[i] = b[i] * 2.0; }
            /* acc parallel */
            for (int i = 0; i < n; i++) { c[i] = 1.0; }
          }
        }
        """
        ctx, sched, tasks, storage, env = setup(src)
        pdg = sched.build_task_pdg(tasks, storage, env)
        batches = pdg.batches()
        # loop 0 and loop 1 conflict on b; loop 2 is independent
        assert batches[0] == sorted([tasks[0].id, tasks[2].id])
        assert batches[1] == [tasks[1].id]


class TestExecution:
    def test_functional_result(self):
        ctx, sched, tasks, storage, env = setup()
        a = storage.arrays["a"].copy()
        res = sched.execute(tasks, storage, env)
        assert np.array_equal(storage.arrays["b"], a * 2.0)
        assert np.array_equal(storage.arrays["c"], a * 2.0 + 1.0)
        assert res.sim_time_s > 0

    def test_placements_and_batches_recorded(self):
        ctx, sched, tasks, storage, env = setup()
        res = sched.execute(tasks, storage, env)
        stats = res.detail["stats"]
        assert stats.batches == 2
        assert len(stats.placements) == 3
        assert {p.task_id for p in stats.placements} == {t.id for t in tasks}

    def test_cpu_steals_when_gpu_busy(self):
        # many DOALL tasks all initially assigned to the GPU queue: the
        # idle CPU must steal some (Algorithm 1 lines 7-10 + dynamics)
        src_parts = ["class T {",
                     "  static void run(double[] a, double[] b, int n) {"]
        for k in range(6):
            ann = " scheme(stealing)" if k == 0 else ""
            src_parts.append(f"    /* acc parallel{ann} */")
            src_parts.append(
                f"    for (int i = {k} * n / 6; i < {k + 1} * n / 6; i++)"
                " { b[i] = a[i] * 2.0; }"
            )
        src_parts += ["  }", "}"]
        src = "\n".join(src_parts)
        ctx = ExecutionContext()
        unit = Translator().translate_source(src)
        tasks = [Task(tl) for tl in unit.all_loops]
        n = 600
        rng = np.random.default_rng(1)
        storage = ArrayStorage({"a": rng.standard_normal(n), "b": np.zeros(n)})
        sched = TaskStealingScheduler(ctx)
        res = sched.execute(tasks, storage, {"n": n})
        stats = res.detail["stats"]
        cpu_tasks = [p for p in stats.placements if p.worker == "cpu"]
        assert cpu_tasks, "CPU never stole a task"
        assert stats.steals >= len(cpu_tasks) - 1
        assert np.array_equal(storage.arrays["b"], storage.arrays["a"] * 2.0)

    def test_empty_task_set_rejected(self):
        ctx, sched, tasks, storage, env = setup()
        with pytest.raises(SchedulerError):
            sched.execute([], storage, env)

    def test_high_td_task_stays_on_cpu(self):
        src = """
        class T {
          static void run(double[] x, double[] y, int n) {
            /* acc parallel scheme(stealing) */
            for (int i = 1; i < n; i++) { x[i] = x[i - 1] * 0.5 + x[i]; }
            /* acc parallel */
            for (int i = 0; i < n; i++) { y[i] = y[i] * 2.0; }
          }
        }
        """
        ctx = ExecutionContext()
        unit = Translator().translate_source(src)
        tasks = [Task(tl) for tl in unit.all_loops]
        n = 256
        rng = np.random.default_rng(2)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        storage = ArrayStorage({"x": x.copy(), "y": y.copy()})
        res = TaskStealingScheduler(ctx).execute(tasks, storage, {"n": n})
        placements = {p.task_id: p.worker for p in res.detail["stats"].placements}
        assert placements[tasks[0].id] == "cpu"  # obligatory
        expected = x.copy()
        for i in range(1, n):
            expected[i] = expected[i - 1] * 0.5 + expected[i]
        assert np.array_equal(storage.arrays["x"], expected)
        assert np.array_equal(storage.arrays["y"], y * 2.0)


class TestStealingWithTls:
    def test_low_td_task_runs_tls_on_gpu(self):
        """A sparse-TD loop in the job pool takes the GPU TLS path when
        the distribution rules or stealing place it there."""
        import numpy as np

        from repro.workloads.synthetic import (
            SyntheticSpec,
            generate_source,
            make_inputs,
            reference,
        )

        spec = SyntheticSpec(n=1024, td_period=128, td_distance=200, work=2)
        src = generate_source(spec)
        ctx = ExecutionContext()
        unit = Translator().translate_source(src)
        tasks = [Task(unit.all_loops[0])]
        binds = make_inputs(spec)
        storage = ArrayStorage(
            {k: v for k, v in binds.items() if isinstance(v, np.ndarray)}
        )
        sched = TaskStealingScheduler(ctx)
        # profile first so the dd class is 'low'
        dd = sched._dd_class(tasks[0], storage, {"n": spec.n})
        assert dd == "low"
        res = sched.execute(tasks, storage, {"n": spec.n})
        expected = reference(spec, binds)
        for name, want in expected.items():
            assert np.array_equal(storage.arrays[name], want), name
        # low-TD tasks are suited to the CPU by the rule table, but TLS
        # handles them if stolen; either placement must be correct
        assert res.detail["stats"].placements[0].worker in ("cpu", "gpu")


HALF_UPDATE_SRC = """
class T {
  static void run(double[] a, double[] b, int n) {
    /* acc parallel scheme(stealing) */
    for (int i = 0; i < n / 2; i++) { a[i] = a[i] * 2.0 + b[i]; }
  }
}
"""


HOST_EVALUATED_SRC = """
class T {
  static void run(double[] a, double[] b, int n) {
    double s = 0.0;
    /* acc parallel scheme(stealing) */
    for (int i = 0; i < n; i++) { s = s + a[i]; b[i] = s; }
    /* acc parallel */
    for (int i = 0; i < n; i++) { a[i] = b[i] * 2.0; }
  }
}
"""


class TestResidency:
    """Stealing stages through ``DeviceMemory``: a GPU task moves only
    what is stale, and a host write marks device copies stale."""

    def test_crypt_restages_only_the_cpu_written_share(self, monkeypatch):
        from repro.gpusim.memory import DeviceMemory
        from repro.workloads import get

        restaged = []  # bytes each re-stage of a resident crypt1 moved
        stage = DeviceMemory.stage

        def spy(mem, plan, arrays, env):
            resident = "crypt1" in plan.arrays_in() and (
                "crypt1" in mem.allocations
            )
            fresh = sum(
                m.nbytes(env, arrays[m.array])
                for m in plan.copyin if m.array not in mem.allocations
            )
            before = mem.stats.h2d_bytes
            out = stage(mem, plan, arrays, env)
            if resident:
                restaged.append(mem.stats.h2d_bytes - before - fresh)
            return out

        monkeypatch.setattr(DeviceMemory, "stage", spy)
        result = get("Crypt").run("japonica", devices=4)
        crypt1 = result.arrays["crypt1"].nbytes
        assert crypt1 == 32768
        # two of the eight encryption sub-loops ran on the CPU: a device
        # copy re-stages their quarter of crypt1, not the whole array
        assert sorted(b for b in restaged if b) == [crypt1 // 4] * 2

    def test_gpu_task_with_fresh_operands_charges_no_transfer(
        self, monkeypatch
    ):
        ctx, sched, tasks, storage, env = setup()
        task = tasks[0]
        sched._run_on_raw("gpu", task, storage, env, "doall")
        mem = ctx.device.memory
        h2d = mem.stats.h2d_count
        charged = []
        transfer_time = ctx.cost.transfer_time
        monkeypatch.setattr(
            ctx.cost, "transfer_time",
            lambda nbytes, asynchronous: charged.append(nbytes)
            or transfer_time(nbytes, asynchronous),
        )
        sched._run_on_raw("gpu", task, storage, env, "doall")
        assert mem.stats.h2d_count == h2d
        out_bytes = task.loop.data_plan.total_out_bytes(env, storage.arrays)
        assert charged == [out_bytes]  # the copy-back, nothing inbound

    def test_gpu_fault_leaves_written_arrays_fully_stale(self):
        from repro.faults import FaultSchedule, SiteRule
        from repro.scheduler.context import JaponicaConfig

        n = 256
        ctx = ExecutionContext(config=JaponicaConfig(devices=2))
        unit = Translator().translate_source(HALF_UPDATE_SRC)
        task = Task(unit.all_loops[0])
        rng = np.random.default_rng(3)
        storage = ArrayStorage(
            {"a": rng.standard_normal(n), "b": rng.standard_normal(n)}
        )
        env = {"n": n}
        sched = TaskStealingScheduler(ctx)
        sched.build_task_pdg([task], storage, env)
        for worker in ("gpu", "gpu1"):  # resident and fresh on both
            sched._run_on_raw(worker, task, storage, env, "doall")
        a_before = storage.arrays["a"].copy()

        ctx.faults.install(
            FaultSchedule([SiteRule("gpu.launch", rate=1.0, device=0)])
        )
        sched._run_on("gpu", task, storage, env, "doall")
        assert ("gpu.launch", "gpu->cpu") in [
            (e.site, e.action) for e in ctx.faults.recorder.events
        ]
        # the CPU re-run wrote half of a; the rollback staled all of it
        for dev in ctx.pool.devices:
            assert dev.memory.allocations["a"].stale_fraction == 1.0
            assert dev.memory.allocations["b"].stale_fraction == 0.0
        half = n // 2
        assert np.array_equal(
            storage.arrays["a"][:half],
            a_before[:half] * 2.0 + storage.arrays["b"][:half],
        )

        mem = ctx.pool.device(1).memory
        before = mem.stats.h2d_bytes
        b_in, _ = mem.stage(task.loop.data_plan, storage.arrays, env)
        assert b_in == storage.arrays["a"].nbytes
        assert mem.stats.h2d_bytes - before == b_in

    def test_host_evaluated_task_marks_its_writes_stale(self):
        # the scalar live-out ``s`` keeps loop 0 from lowering to a kernel
        n = 64
        ctx = ExecutionContext()
        unit = Translator().translate_source(HOST_EVALUATED_SRC)
        host, kernel = (Task(tl) for tl in unit.all_loops)
        assert host.loop.fn is None
        storage = ArrayStorage({"a": np.ones(n), "b": np.zeros(n)})
        env = {"n": n, "s": 0.0}
        sched = TaskStealingScheduler(ctx)
        sched._run_on_raw("gpu", kernel, storage, env, "doall")
        sched._run_on_raw("cpu", host, storage, env, "high")
        mem = ctx.device.memory
        before = mem.stats.h2d_bytes
        sched._run_on_raw("gpu", kernel, storage, env, "doall")
        assert mem.stats.h2d_bytes - before == storage.arrays["b"].nbytes
