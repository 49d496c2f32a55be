"""Task stealing (Algorithm 1) on BICG's 2x4 sub-loops.

BICG computes q = A p and s = A^T r — two independent DOALL loops that
the paper splits into four sub-loops each.  The section-aware PDG proves
all eight sub-loops independent; the distribution rules put every DOALL
task in the GPU queue; the idle CPU steals.  In the paper the CPU ends
up executing 62.5 % of the sub-loops; this run reproduces that split.

Run:  python examples/stealing_linear_algebra.py
"""

from repro.workloads import BICG


def main() -> None:
    binds = BICG.bindings()
    result = BICG.run(strategy="japonica")
    BICG.verify(result, binds)
    batch_id, batch_res = result.loop_results[0]

    print("=== BICG under the task-stealing scheme ===")
    print(f"tasks in the batch set: {batch_id}")

    stats = batch_res.detail["stats"]
    print()
    print("=== Placements (simulated timeline) ===")
    print(f"{'task':12s} {'worker':6s} {'start':>10s} {'duration':>10s} stolen")
    for p in sorted(stats.placements, key=lambda p: (p.worker, p.start_s)):
        print(
            f"{p.task_id:12s} {p.worker:6s} {p.start_s * 1e3:9.3f}ms "
            f"{p.duration_s * 1e3:9.3f}ms {'yes' if p.stolen else ''}"
        )
    print()
    print(f"batches (PDG topological layers): {stats.batches}")
    print(f"steals: {stats.steals}")
    print(f"CPU share of sub-loops: {stats.share('cpu') * 100:.1f}% "
          f"(paper: 62.5%)")

    print()
    print("=== Section-aware PDG (Graphviz DOT) ===")
    from repro.pdg import to_dot
    from repro.scheduler.stealing import TaskStealingScheduler
    from repro.scheduler.task import Task

    program = BICG.compile()
    loops = program.unit.methods["run"].loops
    ctx = BICG.make_context()
    tasks = [Task(tl) for tl in loops]
    from repro.ir import ArrayStorage
    import numpy as np

    storage = ArrayStorage(
        {k: np.asarray(v) for k, v in binds.items() if not np.isscalar(v)}
    )
    env = {"n": binds["n"]}
    pdg = TaskStealingScheduler(ctx).build_task_pdg(tasks, storage, env)
    dot = to_dot(pdg, name="bicg")
    print("\n".join(dot.splitlines()[:6] + ["  ..."]))
    print(f"(edges: {len(pdg.edges)} — the eight sub-loops are "
          f"mutually independent)")

    print()
    print("=== Speedups (simulated) ===")
    for strategy in ("serial", "cpu", "gpu"):
        other = BICG.run(strategy=strategy)
        print(
            f"{strategy:8s} {other.sim_time_ms:8.3f} ms  "
            f"(stealing is {other.sim_time_s / result.sim_time_s:.2f}x faster)"
        )
    print(f"stealing {result.sim_time_ms:8.3f} ms")
    print()
    print("results verified against the sequential reference.")


if __name__ == "__main__":
    main()
