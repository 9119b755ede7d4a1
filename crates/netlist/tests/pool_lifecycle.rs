//! Lifecycle and leak regression tests for the persistent worker pool.
//!
//! These live in their own integration-test binary (their own process)
//! so the [`netlist::pool::alive_workers`] accounting they assert on is
//! not perturbed by unrelated tests acquiring the shared pool. Within
//! the binary, every test serializes on [`pool_mutex`] for the same
//! reason. The `GATE_SIM_THREADS={1,2,4}` CI matrix runs this file at
//! each thread count, so the join-on-drop guarantee is exercised with
//! real concurrency at every shape.
//!
//! Simulators acquire the pool through [`ShardedSim`]: a sharded
//! simulator with more than one thread holds a handle, one with a
//! single thread holds none.

use netlist::pool::{alive_workers, WorkerPool};
use netlist::{Builder, Netlist, ShardPolicy, ShardedSim, Sim};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes the tests in this binary: each one asserts on the
/// process-wide worker census, which only holds still while it is the
/// sole pool user.
fn pool_mutex() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The thread count the CI matrix asked for, with a multi-threaded
/// default so the pool genuinely spawns when the variable is unset.
fn matrix_threads() -> usize {
    netlist::env_threads().unwrap_or(2)
}

fn counter(bits: usize) -> Netlist {
    let mut b = Builder::new();
    let ffs: Vec<_> = (0..bits).map(|_| b.dff(false)).collect();
    let one = netlist::bus::constant(&mut b, 1, bits);
    let (next, _) = netlist::bus::add(&mut b, &ffs, &one);
    for (ff, d) in ffs.iter().zip(&next) {
        b.connect_dff(*ff, *d);
    }
    b.output_bus("count", &ffs);
    b.finish()
}

/// A sharded simulator over `threads` two-lane shards on `threads`
/// threads (narrow shards never fuse, so every thread gets a shard).
fn sharded(nl: &Netlist, threads: usize) -> ShardedSim {
    ShardedSim::with_policy(
        nl,
        ShardPolicy {
            shards: threads,
            lanes_per_shard: 2,
            threads,
            ..ShardPolicy::single()
        },
    )
}

/// Dropping the last simulator that holds the pool joins every worker:
/// no detached threads survive, at any `GATE_SIM_THREADS` shape.
#[test]
fn dropping_the_last_sim_joins_all_workers() {
    let _guard = pool_mutex();
    let threads = matrix_threads().max(2);
    let before = alive_workers();
    let nl = counter(6);
    {
        let mut a = sharded(&nl, threads);
        let mut b = ShardedSim::with_policy(
            &nl,
            ShardPolicy {
                shards: threads * 2,
                lanes_per_shard: 2,
                threads,
                ..ShardPolicy::single()
            },
        );
        for _ in 0..5 {
            a.eval();
            a.step();
            b.eval();
            b.step();
        }
        assert!(
            alive_workers() >= before + threads - 1,
            "pooled simulators must have spawned workers"
        );
        // Dropping one holder must not tear the pool down under the
        // other.
        drop(a);
        assert!(alive_workers() >= before + threads - 1);
        b.eval();
        drop(b);
    }
    // All simulators are gone: WorkerPool::drop has joined every thread
    // synchronously, so the census is back immediately — no polling.
    assert_eq!(
        alive_workers(),
        before,
        "dropping the last sim must join all pool workers"
    );
}

/// Simulators acquire one shared pool instance, and an explicit
/// [`WorkerPool::shared`] call while they are alive returns that same
/// instance rather than spawning a second roster.
#[test]
fn concurrent_sims_share_one_pool_instance() {
    let _guard = pool_mutex();
    let before = alive_workers();
    let nl = counter(4);
    let a = sharded(&nl, 2);
    let spawned_for_a = alive_workers() - before;
    let b = sharded(&nl, 2);
    assert_eq!(
        alive_workers() - before,
        spawned_for_a,
        "a second sim with the same needs must not spawn a second roster"
    );
    let first = WorkerPool::shared(1);
    let second = WorkerPool::shared(1);
    assert!(
        std::sync::Arc::ptr_eq(&first, &second),
        "the registry must hand out one shared instance"
    );
    drop((first, second, a, b));
    assert_eq!(alive_workers(), before);
}

/// Growing the thread count grows the shared roster in place; shrinking
/// parks the surplus instead of churning threads, and results stay exact
/// throughout (the bit-identity half is property-tested — here we pin
/// the roster census and a smoke-check of the values).
#[test]
fn resize_grows_in_place_and_shrink_parks_workers() {
    let _guard = pool_mutex();
    let before = alive_workers();
    let nl = counter(8);
    let mut reference = Sim::new(&nl);
    let mut sim = sharded(&nl, 4);
    let mut census_high = 0;
    // The schedule never passes back through 1 thread: a sequential
    // simulator releases the pool handle outright (covered by
    // `sequential_policies_keep_no_workers`), which would churn the
    // roster this test pins as stable across shrinks.
    for (cycle, threads) in [2usize, 4, 2, 4, 3].into_iter().enumerate() {
        sim.set_threads(threads);
        census_high = census_high.max(alive_workers() - before);
        reference.eval();
        sim.eval();
        for lane in 0..8 {
            assert_eq!(
                sim.get_bus_lane("count", lane),
                reference.get_bus_u64("count"),
                "cycle {cycle} under {threads} threads"
            );
        }
        reference.step();
        sim.step();
    }
    assert!(
        census_high >= 3,
        "the 4-thread simulator must have grown to 3+"
    );
    assert_eq!(
        alive_workers() - before,
        census_high,
        "shrinking parks workers, it does not churn threads"
    );
    drop(sim);
    assert_eq!(alive_workers(), before, "last handle joins the roster");
}

/// Regression: evaluators nested *two* levels below a pool job must keep
/// running inline instead of submitting. The chain is: a pooled
/// `par_shards` job → a second `ShardedSim` evaluated inside it (runs
/// its shards inline on the claiming thread) → a third `ShardedSim`
/// evaluated inside *that* sim's shard closure. A nested submission that
/// waited for pool workers its ancestors hold could hang; this test
/// would hang instead of passing.
#[test]
fn nested_evaluators_fall_back_instead_of_deadlocking() {
    let _guard = pool_mutex();
    let nl = counter(5);
    let mut outer = sharded(&nl, 2);
    let inner_nl = counter(4);
    let cycles = outer.par_shards(|_, shard| {
        let mut inner = sharded(&inner_nl, 2);
        let innermost = inner.par_shards(|_, _| {
            let mut deepest = sharded(&inner_nl, 2);
            for _ in 0..2 {
                deepest.eval();
                deepest.step();
            }
            deepest.cycles()
        });
        for _ in 0..3 {
            inner.eval();
            inner.step();
            shard.eval();
            shard.step();
        }
        (inner.cycles(), inner.get_bus_lane("count", 0), innermost)
    });
    // 3 stepped cycles; the last settle published the count of cycle 2.
    assert_eq!(cycles, vec![(3, 2, vec![2, 2]), (3, 2, vec![2, 2])]);
}

/// Multi-job admission: two threads submit independent pooled
/// evaluations concurrently — each claims its own job-table slot — and
/// every result is bit-identical to the same run serialized on one
/// thread. Afterwards the census is back at the baseline: concurrent
/// admission leaks neither workers nor job slots.
#[test]
fn concurrent_admissions_are_deterministic_and_leak_free() {
    let _guard = pool_mutex();
    let before = alive_workers();
    let nl_a = counter(8);
    let nl_b = counter(6);
    let run = |nl: &Netlist, cycles: usize| {
        let mut sim = sharded(nl, matrix_threads().max(2));
        for _ in 0..cycles {
            sim.eval();
            sim.step();
        }
        sim.eval();
        (sim.get_bus_lane("count", 0), sim.toggles().to_vec())
    };
    // Serialized reference runs first, on this thread.
    let want_a = run(&nl_a, 37);
    let want_b = run(&nl_b, 53);
    // Now the same two workloads concurrently, from separate submitter
    // threads, several rounds to vary slot/worker interleavings.
    for round in 0..10 {
        let gate = std::sync::Barrier::new(2);
        let (got_a, got_b) = std::thread::scope(|s| {
            let a = s.spawn(|| {
                gate.wait();
                run(&nl_a, 37)
            });
            gate.wait();
            let b = run(&nl_b, 53);
            (a.join().expect("submitter A panicked"), b)
        });
        assert_eq!(
            got_a, want_a,
            "job A diverged under concurrency (round {round})"
        );
        assert_eq!(
            got_b, want_b,
            "job B diverged under concurrency (round {round})"
        );
    }
    assert_eq!(
        alive_workers(),
        before,
        "concurrent admissions must not leak workers or job slots"
    );
}

/// A single-threaded simulator holds no pool handle at all: purely
/// sequential simulators never spawn (or keep alive) a single worker
/// thread.
#[test]
fn sequential_policies_keep_no_workers() {
    let _guard = pool_mutex();
    let before = alive_workers();
    let nl = counter(5);
    let mut sim = ShardedSim::with_policy(
        &nl,
        ShardPolicy {
            shards: 2,
            lanes_per_shard: 2,
            threads: 1,
            ..ShardPolicy::single()
        },
    );
    for _ in 0..3 {
        sim.eval();
        sim.step();
    }
    assert_eq!(alive_workers(), before, "one thread spawns no workers");
    // Going parallel then back to one thread releases the handle.
    sim.set_threads(2);
    sim.eval();
    sim.set_threads(1);
    sim.eval();
    assert_eq!(
        alive_workers(),
        before,
        "a sim back at one thread must have released the pool"
    );
}
