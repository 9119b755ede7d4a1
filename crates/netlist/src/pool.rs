//! The one parallel primitive: a scoped-thread claim loop over
//! independent, coarse items.
//!
//! The useful parallelism of this system is *across* self-contained
//! units — blocks of a mutation campaign, shards of a verification
//! sweep, workloads of a characterisation run — never inside one
//! settle. [`claim_map`] is the one entry point for that shape: its
//! participants claim item indices off a shared atomic counter and the
//! results come back in index order.
//!
//! Each call spawns its helper threads with [`std::thread::scope`] and
//! joins them before returning; nothing persists between calls. Items
//! are coarse (a whole block campaign, a whole shard schedule), so the
//! spawn — tens of microseconds — is noise next to the work, and a
//! nested call simply spawns its own helpers instead of waiting on
//! threads its ancestors hold.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

/// Runs `f(i, &mut items[i])` for every index of `items` and returns
/// the results in index order.
///
/// With more than one participant (`threads` capped by the item count)
/// the caller and `participants - 1` scoped helper threads claim the
/// next unprocessed index off a single atomic counter the moment they
/// go idle, so uneven per-item loads rebalance automatically.
/// Otherwise the items run in order on the caller. The claim order is a
/// race; the results are not: the counter hands out each index exactly
/// once and each result lands in its own index-addressed slot, so the
/// output is independent of the thread count and the interleaving.
/// Every helper is joined before `claim_map` returns.
///
/// # Panics
///
/// Re-raises a panic of `f` with its original payload once every
/// participant has stopped — the caller's own if it panicked, otherwise
/// the first panicking helper's in spawn order. The other participants
/// keep claiming items after one panics.
pub fn claim_map<T, R, F>(threads: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let participants = threads.min(items.len());
    if participants <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // One lock per item: each index is claimed exactly once, so every
    // lock is uncontended; it only carries the item across threads. The
    // counter publishes no data, hence `Relaxed`: the locks and the joins
    // order every access to an item and its result.
    let slots: Vec<Mutex<(&mut T, Option<R>)>> =
        items.iter_mut().map(|t| Mutex::new((t, None))).collect();
    let next = AtomicUsize::new(0);
    let claim = || loop {
        let i = next.fetch_add(1, Relaxed);
        let Some(slot) = slots.get(i) else { break };
        let mut slot = slot.lock().expect("each slot is locked exactly once");
        let (item, result) = &mut *slot;
        *result = Some(f(i, item));
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..participants).map(|_| scope.spawn(claim)).collect();
        let mut panic = catch_unwind(AssertUnwindSafe(claim)).err();
        for helper in helpers {
            if let Err(payload) = helper.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            // A slot is poisoned only by a panic of `f`, re-raised above.
            let (_, result) = slot.into_inner().expect("no item panicked");
            result.expect("every index claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    /// The string a panic carried, for `&str` and `String` payloads.
    fn message(payload: &(dyn Any + Send)) -> &str {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .expect("payload must still be the original string")
    }

    /// Runs `f` on `n` items with `n` threads, each participant holding
    /// its first item at a barrier until all `n` have one — so every
    /// participant runs exactly one item. Returns the result of `f` and
    /// the thread that ran each item.
    fn one_item_each<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<(ThreadId, R)> {
        let barrier = Barrier::new(n);
        claim_map(n, &mut vec![(); n], |i, _| {
            barrier.wait();
            (std::thread::current().id(), f(i))
        })
    }

    /// The distinct threads an `n`-thread call over `n` items ran on.
    fn threads_used(n: usize) -> HashSet<ThreadId> {
        one_item_each(n, |_| ())
            .into_iter()
            .map(|(t, _)| t)
            .collect()
    }

    #[test]
    fn runs_every_tid_exactly_once() {
        for threads in [2usize, 3, 4] {
            for len in [1usize, 2, 5, 17] {
                let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                let mut items = vec![0u32; len];
                claim_map(threads, &mut items, |i, item| {
                    hits[i].fetch_add(1, Relaxed);
                    *item += 1;
                });
                for (i, hit) in hits.iter().enumerate() {
                    assert_eq!(hit.load(Relaxed), 1, "item {i} of {len}, x{threads}");
                }
                assert!(items.iter().all(|&v| v == 1), "mutated in place");
            }
        }
    }

    /// One thread (or one item) runs on the caller and spawns nothing;
    /// `n` threads over `n` items put every item on its own participant,
    /// the caller being one of them.
    #[test]
    fn grows_on_demand_and_single_participant_runs_inline() {
        let caller = std::thread::current().id();
        for (threads, len) in [(1, 5), (4, 1), (0, 3)] {
            let ran_on = claim_map(threads, &mut vec![(); len], |_, _| {
                std::thread::current().id()
            });
            assert!(ran_on.iter().all(|&t| t == caller), "x{threads} over {len}");
        }
        let ran_on = threads_used(4);
        assert!(ran_on.contains(&caller), "the caller takes part");
        assert_eq!(ran_on.len(), 4, "three helpers joined the caller");
    }

    /// The shared claim loop: every index runs exactly once, results
    /// come back in index order under deliberately uneven loads, and the
    /// sequential, threaded and nested paths agree.
    #[test]
    fn claim_map_returns_results_in_index_order() {
        let run = |threads: usize| {
            let mut items: Vec<u64> = (0..9).collect();
            let out = claim_map(threads, &mut items, |i, item| {
                // Uneven loads: later items take longer.
                for _ in 0..i * 1000 {
                    std::hint::black_box(*item);
                }
                *item += 100;
                (i, *item * 2)
            });
            (out, items)
        };
        let reference = run(1);
        assert_eq!(reference.1, (100..109).collect::<Vec<_>>());
        assert_eq!(reference.0[4], (4, 208));
        for threads in [2, 4, 64] {
            assert_eq!(run(threads), reference, "x{threads}");
        }
        let nested = claim_map(2, &mut [(), ()], |_, _| run(4));
        assert_eq!(nested, vec![reference.clone(), reference]);
    }

    /// Every helper thread has exited — thread-local destructors
    /// included — by the time `claim_map` returns: no detached thread
    /// outlives the call.
    #[test]
    fn drop_joins_synchronously_after_a_job() {
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        struct Census;
        impl Drop for Census {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Relaxed);
            }
        }
        thread_local! {
            static CENSUS: Census = {
                LIVE.fetch_add(1, Relaxed);
                Census
            };
        }
        let caller = std::thread::current().id();
        for _ in 0..3 {
            let barrier = Barrier::new(4);
            let live = claim_map(4, &mut [(); 4], |_, _| {
                if std::thread::current().id() != caller {
                    CENSUS.with(|_| {});
                }
                barrier.wait();
                let live = LIVE.load(Relaxed);
                // Nobody exits before everyone has looked.
                barrier.wait();
                live
            });
            assert_eq!(live, vec![3; 4], "three helpers were running");
            assert_eq!(LIVE.load(Relaxed), 0, "every helper joined");
        }
    }

    #[test]
    fn worker_panic_is_propagated_not_hung() {
        let caller = std::thread::current().id();
        for helper_panics in [true, false] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                one_item_each(2, |_| {
                    if (std::thread::current().id() != caller) == helper_panics {
                        panic!("injected participant failure");
                    }
                })
            }));
            assert!(result.is_err(), "the panic must reach the caller");
        }
        // Nothing is left behind: the next call is clean.
        let ok = claim_map(2, &mut [1, 2], |_, v| *v * 10);
        assert_eq!(ok, vec![10, 20]);
    }

    /// Regression for the old `assert!(!poisoned, ...)`: the caller must
    /// see the panicking participant's *original* message, not a generic
    /// assertion that swallows it — from a helper and from the caller
    /// itself, for `&str` and formatted `String` payloads.
    #[test]
    fn worker_panic_payload_reaches_submitter_verbatim() {
        let caller = std::thread::current().id();
        for helper_panics in [true, false] {
            for formatted in [false, true] {
                let payload = catch_unwind(AssertUnwindSafe(|| {
                    one_item_each(2, |i| {
                        if (std::thread::current().id() != caller) != helper_panics {
                            return;
                        }
                        if formatted {
                            panic!("mutant 0x{:x} diverged in chunk {i}", 0xbeef);
                        }
                        panic!("mutant 0xbeef diverged");
                    })
                }))
                .expect_err("the panic must reach the caller");
                let want = if formatted {
                    assert!(payload.is::<String>());
                    "mutant 0xbeef diverged in chunk"
                } else {
                    assert!(payload.is::<&str>());
                    "mutant 0xbeef diverged"
                };
                let got = message(&*payload);
                assert!(got.starts_with(want), "helper={helper_panics}: got {got:?}");
            }
        }
    }

    /// Several participants panicking at once re-raise exactly one
    /// payload, unmangled, and the next call runs normally.
    #[test]
    fn run_with_returns_typed_worker_panic() {
        let payload = catch_unwind(AssertUnwindSafe(|| {
            one_item_each::<()>(3, |i| panic!("typed failure from item {i}"))
        }))
        .expect_err("every participant panicked");
        let got = message(&*payload);
        assert!(got.starts_with("typed failure from item"), "got: {got}");
        assert_eq!(one_item_each(3, |i| i).len(), 3);
    }

    /// N consecutive panicking calls, then a clean one at full width:
    /// every call re-raises its own payload and the clean call still
    /// gets all of its participants.
    #[test]
    fn repeated_panics_keep_the_pool_at_full_width() {
        let caller = std::thread::current().id();
        for round in 0..8 {
            let payload = catch_unwind(AssertUnwindSafe(|| {
                one_item_each(4, |i| {
                    if std::thread::current().id() != caller {
                        panic!("round {round} item {i} down");
                    }
                })
            }))
            .expect_err("every round panics");
            assert!(message(&*payload).starts_with(&format!("round {round} ")));
        }
        assert_eq!(threads_used(4).len(), 4, "clean call runs at full width");
    }

    /// A nested call also preserves the original payload, and the
    /// other participants keep claiming items after one panics.
    #[test]
    fn scoped_fallback_preserves_panic_payload() {
        let ran = AtomicUsize::new(0);
        let nested = claim_map(2, &mut [0, 1], |outer, _| {
            (outer == 0).then(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    claim_map(4, &mut [(); 4], |i, _| {
                        ran.fetch_add(1, Relaxed);
                        if i == 2 {
                            panic!("nested item 2 died");
                        }
                    })
                }))
            })
        });
        let err = nested[0]
            .as_ref()
            .expect("the nested call ran")
            .as_ref()
            .expect_err("the panic must surface");
        assert_eq!(message(&**err), "nested item 2 died");
        assert_eq!(ran.load(Relaxed), 4, "every item ran despite the panic");
    }

    /// Calls are independent: B runs to completion while A is
    /// deliberately stalled mid-item.
    #[test]
    fn a_job_completes_while_another_is_stalled() {
        let gate_open = AtomicBool::new(false);
        let a_running = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                claim_map(2, &mut [(), ()], |_, _| {
                    a_running.fetch_add(1, Relaxed);
                    while !gate_open.load(Relaxed) {
                        std::thread::yield_now();
                    }
                });
            });
            // Wait until both of A's participants are stalled.
            while a_running.load(Relaxed) < 2 {
                std::thread::yield_now();
            }
            let b = claim_map(2, &mut [1, 2], |_, v| *v + 1);
            assert_eq!(b, vec![2, 3], "call B ran every item");
            assert!(
                !gate_open.load(Relaxed),
                "call A was still stalled when B finished"
            );
            gate_open.store(true, Relaxed);
        });
    }

    /// Concurrent callers from many threads: every call sees exactly its
    /// own items, whatever the interleaving.
    #[test]
    fn concurrent_submitters_each_get_exact_tids() {
        std::thread::scope(|scope| {
            for s in 0..6 {
                scope.spawn(move || {
                    let participants = 2 + s % 3;
                    for _ in 0..25 {
                        let mut items: Vec<usize> = (0..participants).collect();
                        let out = claim_map(participants, &mut items, |i, v| {
                            assert_eq!(i, *v);
                            i + 1
                        });
                        assert_eq!(
                            out.iter().sum::<usize>(),
                            participants * (participants + 1) / 2,
                            "items 0..{participants} each ran exactly once"
                        );
                    }
                });
            }
        });
    }
}
