//! Lifecycle regression tests for the scoped-thread claim loop
//! ([`netlist::pool::claim_map`]) as simulators drive it through
//! [`ShardedSim::par_shards`].
//!
//! Helper threads are counted by a thread-local census: a thread that
//! runs a shard registers on first use and deregisters when its
//! thread-locals are destroyed, which happens before the thread can be
//! joined. These tests live in their own integration-test binary (their
//! own process) and serialize on [`census_mutex`], so the census only
//! moves for the test holding it. The `GATE_SIM_THREADS={1,2,4}` CI
//! matrix runs this file at each thread count.

use netlist::{Builder, Netlist, ShardPolicy, ShardedSim};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;

/// Serializes the tests in this binary: each one asserts on the
/// process-wide helper census.
fn census_mutex() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Helper threads that have run a shard and not yet exited.
static LIVE_HELPERS: AtomicUsize = AtomicUsize::new(0);

struct Census;

impl Drop for Census {
    fn drop(&mut self) {
        LIVE_HELPERS.fetch_sub(1, SeqCst);
    }
}

thread_local! {
    static CENSUS: Census = {
        LIVE_HELPERS.fetch_add(1, SeqCst);
        Census
    };
}

/// Registers the current thread in the census unless it is `caller`.
fn enlist(caller: ThreadId) {
    if std::thread::current().id() != caller {
        CENSUS.with(|_| {});
    }
}

/// The thread count the CI matrix asked for, with a multi-threaded
/// default so helpers genuinely spawn when the variable is unset.
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
/// threads, so every thread gets a shard.
fn sharded(nl: &Netlist, threads: usize) -> ShardedSim {
    ShardedSim::with_policy(
        nl,
        ShardPolicy {
            shards: threads,
            lanes_per_shard: 2,
            threads,
        },
    )
}

/// `par_shards` joins every helper before it returns: no detached
/// thread survives a call, at any `GATE_SIM_THREADS` shape, and two
/// simulators alive at once do not hold threads between calls.
#[test]
fn dropping_the_last_sim_joins_all_workers() {
    let _guard = census_mutex();
    let caller = std::thread::current().id();
    let threads = matrix_threads().max(2);
    let nl = counter(6);
    let mut a = sharded(&nl, threads);
    let mut b = sharded(&nl, threads);
    let drive = |sim: &mut ShardedSim| {
        // Every participant holds its shard until all have one, so all
        // `threads - 1` helpers run.
        let barrier = Barrier::new(threads);
        let live = sim.par_shards(|_, shard| {
            enlist(caller);
            barrier.wait();
            let live = LIVE_HELPERS.load(SeqCst);
            // Nobody exits before everyone has looked.
            barrier.wait();
            shard.eval();
            shard.step();
            live
        });
        assert_eq!(live, vec![threads - 1; threads], "every helper ran");
        assert_eq!(LIVE_HELPERS.load(SeqCst), 0, "every helper joined");
    };
    drive(&mut a);
    drive(&mut b);
    drive(&mut a);
    assert_eq!((a.cycles(), b.cycles()), (2, 1));
}

/// Regression: evaluators nested *two* levels below a `par_shards` call
/// each spawn their own helpers instead of waiting on threads their
/// ancestors hold. The chain is: a threaded `par_shards` call → a
/// second `ShardedSim`'s `par_shards` inside one of its shards → a
/// third `ShardedSim`'s `par_shards` inside *that* sim's shard closure. A
/// nested call that waited for its ancestors' threads would hang this
/// test instead of passing.
#[test]
fn nested_evaluators_fall_back_instead_of_deadlocking() {
    let _guard = census_mutex();
    let nl = counter(5);
    let mut outer = sharded(&nl, 2);
    let inner_nl = counter(4);
    let cycles = outer.par_shards(|_, shard| {
        let mut inner = sharded(&inner_nl, 2);
        let innermost = inner.par_shards(|_, _| {
            let mut deepest = sharded(&inner_nl, 2);
            deepest.par_shards(|_, s| {
                for _ in 0..2 {
                    s.eval();
                    s.step();
                }
            });
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

/// Concurrent callers: two threads run independent `par_shards`
/// schedules at the same time, and every result is bit-identical to the
/// same run serialized on one thread. Afterwards no helper is left
/// running.
#[test]
fn concurrent_admissions_are_deterministic_and_leak_free() {
    let _guard = census_mutex();
    let caller = std::thread::current().id();
    let nl_a = counter(8);
    let nl_b = counter(6);
    let run = |nl: &Netlist, cycles: usize| {
        let mut sim = sharded(nl, matrix_threads().max(2));
        let counts = sim.par_shards(|_, shard| {
            enlist(caller);
            for _ in 0..cycles {
                shard.eval();
                shard.step();
            }
            shard.eval();
            shard.get_bus_lane("count", 0)
        });
        (counts, sim.toggles().to_vec())
    };
    // Serialized reference runs first, on this thread.
    let want_a = run(&nl_a, 37);
    let want_b = run(&nl_b, 53);
    // Now the same two workloads concurrently, from separate caller
    // threads, several rounds to vary the interleavings.
    for round in 0..10 {
        let gate = Barrier::new(2);
        let (got_a, got_b) = std::thread::scope(|s| {
            let a = s.spawn(|| {
                gate.wait();
                run(&nl_a, 37)
            });
            gate.wait();
            let b = run(&nl_b, 53);
            (a.join().expect("caller A panicked"), b)
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
        LIVE_HELPERS.load(SeqCst),
        0,
        "concurrent calls must not leak helpers"
    );
}

/// A single-threaded simulator runs every shard on the calling thread:
/// purely sequential simulators never spawn a helper, including after a
/// round trip through two threads.
#[test]
fn sequential_policies_keep_no_workers() {
    let _guard = census_mutex();
    let caller = std::thread::current().id();
    let nl = counter(5);
    let mut sim = ShardedSim::with_policy(
        &nl,
        ShardPolicy {
            shards: 2,
            lanes_per_shard: 2,
            threads: 1,
        },
    );
    let ran_on = |sim: &mut ShardedSim| {
        sim.par_shards(|_, shard| {
            shard.eval();
            shard.step();
            std::thread::current().id()
        })
    };
    assert_eq!(
        ran_on(&mut sim),
        vec![caller; 2],
        "one thread spawns nothing"
    );
    sim.set_threads(2);
    let barrier = Barrier::new(2);
    let parallel = sim.par_shards(|_, _| {
        barrier.wait();
        std::thread::current().id()
    });
    assert!(parallel.contains(&caller) && parallel[0] != parallel[1]);
    sim.set_threads(1);
    assert_eq!(
        ran_on(&mut sim),
        vec![caller; 2],
        "a sim back at one thread runs on the caller"
    );
}
