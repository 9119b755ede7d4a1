//! Multi-threaded sharded simulation backend.
//!
//! [`ShardedSim`] runs N independent [`CompiledSim`]s — the *shards* —
//! over disjoint stimulus lane ranges, optionally spread across threads
//! by [`ShardedSim::par_shards`]. Because shards never share mutable state, the merged results
//! (outputs, FF state, per-net toggle counts) are bit-identical to
//! running the same shards sequentially on one thread: the thread count
//! is purely a scheduling knob and can never change a simulation result.
//! The full contract is written down in `docs/simulation.md` and enforced
//! by the cross-backend property tests in
//! `crates/netlist/tests/properties.rs`.
//!
//! Every shard is its own one-word `CompiledSim` of
//! [`ShardPolicy::lanes_per_shard`] lanes, compiled once and cloned, so
//! all shards share one program and one netlist [`Arc`]. A single wide
//! lane block (up to 512 lanes in one settle walk) is a plain
//! [`CompiledSim::with_lanes_arc`], not a sharded sim.
//!
//! Lane numbering is global: a [`ShardedSim`] with `L` lanes per shard
//! puts global lane `g` in shard `g / L` at local lane `g % L`. Toggle merging
//! is exact because the compiled backend's popcount accounting is
//! per-lane independent — the merged per-net count is simply the sum over
//! shards (see `docs/simulation.md` § "Toggle accounting").
//!
//! Two usage patterns:
//! * **Per-settle** — drive lanes through the [`SimBackend`] trait and call
//!   [`ShardedSim::eval`]; the shards settle in order on the calling
//!   thread (one settle cannot repay a thread spawn). Good when settles
//!   are interleaved with host-side logic.
//! * **Batched** — hand a whole per-shard schedule to
//!   [`ShardedSim::par_shards`]; the only threaded path. This is what
//!   `hwlib`'s verification sweeps and the `gate_sim` bench use.
//!
//! `par_shards` hands the shards out through [`pool::claim_map`]: idle
//! threads claim the next shard index off a single atomic counter.

use crate::compiled::{CompiledSim, EvalMode, LANES_PER_WORD};
use crate::pool;
use crate::sim::{EvalStats, SimBackend};
use crate::{NetId, Netlist};
use std::cell::OnceCell;
use std::sync::Arc;

/// How a stimulus batch is split into shards and scheduled onto threads.
///
/// `shards * lanes_per_shard` is the total lane count; `threads` only
/// controls how many OS threads claim shards and never affects
/// simulation values or toggle counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPolicy {
    /// Number of [`CompiledSim`] shards.
    pub shards: usize,
    /// Stimulus lanes per shard (1..=[`LANES_PER_WORD`]).
    pub lanes_per_shard: usize,
    /// Threads [`ShardedSim::par_shards`] spreads shards over (clamped
    /// to the shard count); per-settle [`ShardedSim::eval`] always runs
    /// on the calling thread.
    pub threads: usize,
}

impl ShardPolicy {
    /// One full-width shard on the calling thread — behaves exactly like a
    /// plain 64-lane [`CompiledSim`].
    pub fn single() -> ShardPolicy {
        ShardPolicy {
            shards: 1,
            lanes_per_shard: LANES_PER_WORD,
            threads: 1,
        }
    }

    /// `n` full-width shards, one thread each.
    pub fn threads(n: usize) -> ShardPolicy {
        ShardPolicy {
            shards: n.max(1),
            lanes_per_shard: LANES_PER_WORD,
            threads: n.max(1),
        }
    }

    /// One full-width shard per thread, honouring the `GATE_SIM_THREADS`
    /// environment override ([`crate::env_threads`]) first and falling
    /// back to one per available CPU (at least one).
    pub fn auto() -> ShardPolicy {
        let n = crate::env_threads().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        });
        ShardPolicy::threads(n)
    }

    /// Total stimulus lanes across all shards.
    pub fn total_lanes(&self) -> usize {
        self.shards * self.lanes_per_shard
    }
}

impl Default for ShardPolicy {
    fn default() -> ShardPolicy {
        ShardPolicy::single()
    }
}

/// Multi-threaded sharded simulator: N independent compiled shards over
/// disjoint stimulus lanes, merged deterministically.
#[derive(Debug)]
pub struct ShardedSim {
    shards: Vec<CompiledSim>,
    lanes_per_shard: usize,
    /// Total stimulus lanes (`policy.shards * policy.lanes_per_shard`).
    total_lanes: usize,
    threads: usize,
    /// Merged per-net toggle counts, rebuilt lazily after each eval.
    merged_toggles: OnceCell<Vec<u64>>,
}

impl ShardedSim {
    /// Compiles `netlist` into `threads` full-width shards, one thread each.
    pub fn new(netlist: &Netlist, threads: usize) -> ShardedSim {
        ShardedSim::with_policy(netlist, ShardPolicy::threads(threads))
    }

    /// Like [`ShardedSim::new`], but shares an already-owned netlist
    /// instead of deep-cloning it.
    pub fn new_arc(netlist: Arc<Netlist>, threads: usize) -> ShardedSim {
        ShardedSim::with_policy_arc(netlist, ShardPolicy::threads(threads))
    }

    /// Compiles `netlist` under an explicit shard policy. Thin wrapper
    /// over [`ShardedSim::with_policy_arc`] that clones the netlist once;
    /// callers that already hold an [`Arc<Netlist>`] should pass it to the
    /// `_arc` constructor so the shard fan-out shares their copy.
    ///
    /// # Panics
    ///
    /// Panics if `policy.shards == 0`, `policy.threads == 0`, or
    /// `policy.lanes_per_shard` is outside `1..=64`.
    pub fn with_policy(netlist: &Netlist, policy: ShardPolicy) -> ShardedSim {
        ShardedSim::with_policy_arc(Arc::new(netlist.clone()), policy)
    }

    /// Compiles the shared `netlist` under an explicit shard policy
    /// without copying the netlist structure: every shard holds the same
    /// [`Arc`], so the gate arena exists once regardless of shard count.
    ///
    /// # Panics
    ///
    /// Panics if `policy.shards == 0`, `policy.threads == 0`, or
    /// `policy.lanes_per_shard` is outside `1..=64`.
    pub fn with_policy_arc(netlist: Arc<Netlist>, policy: ShardPolicy) -> ShardedSim {
        assert!(policy.shards >= 1, "policy needs at least one shard");
        assert!(policy.threads >= 1, "policy needs at least one thread");
        assert!(
            (1..=LANES_PER_WORD).contains(&policy.lanes_per_shard),
            "policy.lanes_per_shard must be in 1..={LANES_PER_WORD}, got {}",
            policy.lanes_per_shard
        );
        // Shards are identical at reset: levelize/compile once and clone
        // (clones share the compiled program and the netlist Arc).
        let first = CompiledSim::with_lanes_arc(netlist, policy.lanes_per_shard);
        let mut sim = ShardedSim {
            shards: vec![first; policy.shards],
            lanes_per_shard: policy.lanes_per_shard,
            total_lanes: policy.total_lanes(),
            threads: 1,
            merged_toggles: OnceCell::new(),
        };
        sim.set_threads(policy.threads);
        sim
    }

    /// Selects every shard's evaluation strategy ([`EvalMode`]). Purely a
    /// performance knob: results are bit-identical in every mode.
    pub fn set_eval_mode(&mut self, mode: EvalMode) {
        for s in &mut self.shards {
            s.set_eval_mode(mode);
        }
    }

    /// Merged work counters: the elementwise sum of every shard's
    /// [`CompiledSim::eval_stats`].
    pub fn eval_stats(&self) -> EvalStats {
        self.shards
            .iter()
            .map(|s| s.eval_stats())
            .fold(EvalStats::default(), EvalStats::merge)
    }

    /// The simulated netlist.
    pub fn netlist(&self) -> &Netlist {
        self.shards[0].netlist()
    }

    /// The shard simulators, in lane order (read access for inspection).
    pub fn shards(&self) -> &[CompiledSim] {
        &self.shards
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Stimulus lanes per shard.
    pub fn lanes_per_shard(&self) -> usize {
        self.lanes_per_shard
    }

    /// Threads used per [`ShardedSim::par_shards`] call.
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// Spreads future [`ShardedSim::par_shards`] calls over `threads`
    /// threads (capped at the shard count). Results are unaffected —
    /// this is purely a performance knob.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1).min(self.shards.len());
    }

    fn shard_of(&self, lane: usize) -> (usize, usize) {
        assert!(
            lane < self.total_lanes,
            "lane {lane} out of range (lanes = {})",
            self.total_lanes
        );
        (lane / self.lanes_per_shard, lane % self.lanes_per_shard)
    }

    /// Runs `f(shard_index, shard)` for every shard, spread over the
    /// configured threads, and returns the results in shard order.
    ///
    /// This is the batched entry point and the only threaded one: put a
    /// whole settle schedule inside `f` so the thread spawns are
    /// amortised over the run. Shards are disjoint, so any interleaving produces
    /// identical state — but keep shards in *cycle lockstep* (equal
    /// [`CompiledSim::step`] counts) if you later read
    /// [`ShardedSim::cycles`] or activity.
    ///
    /// Threads claim shard indices off one atomic counter
    /// ([`pool::claim_map`]), so uneven per-shard loads rebalance
    /// automatically; results are written back by shard index, so `f`'s
    /// return values (and all shard state) are independent of the claim
    /// order and the thread count.
    pub fn par_shards<R, F>(&mut self, f: F) -> Vec<R>
    where
        F: Fn(usize, &mut CompiledSim) -> R + Sync,
        R: Send,
    {
        self.merged_toggles.take();
        pool::claim_map(self.threads, &mut self.shards, f)
    }

    /// Settles all combinational logic on every shard, in order on the
    /// calling thread.
    pub fn eval(&mut self) {
        self.merged_toggles.take();
        for s in &mut self.shards {
            s.eval();
        }
    }

    /// Clock edge on every shard. Cheap (per-DFF word copies), so it runs
    /// on the calling thread.
    pub fn step(&mut self) {
        for s in &mut self.shards {
            s.step();
        }
    }

    /// Drives one global lane of the named input port.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or `lane >= lanes()`.
    pub fn set_bus_lane(&mut self, port: &str, lane: usize, value: u64) {
        let (shard, local) = self.shard_of(lane);
        self.shards[shard].set_bus_lane(port, local, value);
    }

    /// Drives the named input port with one value per global lane
    /// (`values[lane]`'s low bits), splitting the batch across shards.
    ///
    /// Lanes beyond `values.len()` keep their previous stimulus, exactly as
    /// in [`CompiledSim::set_bus_lanes`].
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or `values.len() > lanes()`.
    pub fn set_bus_lanes(&mut self, port: &str, values: &[u64]) {
        assert!(
            values.len() <= self.total_lanes,
            "{} stimuli exceed {} lanes",
            values.len(),
            self.total_lanes
        );
        for (shard, chunk) in values.chunks(self.lanes_per_shard).enumerate() {
            self.shards[shard].set_bus_lanes(port, chunk);
        }
    }

    /// Drives the named input port identically on every lane of every shard.
    pub fn set_bus_u64(&mut self, port: &str, value: u64) {
        for s in &mut self.shards {
            s.set_bus_u64(port, value);
        }
    }

    /// Reads one net on one global lane.
    pub fn get_lane(&self, net: NetId, lane: usize) -> bool {
        let (shard, local) = self.shard_of(lane);
        self.shards[shard].get_lane(net, local)
    }

    /// Reads up to 64 bits of the named output port on one global lane.
    pub fn get_bus_lane(&self, port: &str, lane: usize) -> u64 {
        let (shard, local) = self.shard_of(lane);
        self.shards[shard].get_bus_lane(port, local)
    }

    /// Forces the stored state of a DFF on every lane of every shard.
    pub fn set_ff(&mut self, net: NetId, value: bool) {
        for s in &mut self.shards {
            s.set_ff(net, value);
        }
    }

    /// Merged per-net toggle counts: the exact elementwise sum of every
    /// shard's counts (rebuilt lazily after an eval).
    pub fn toggles(&self) -> &[u64] {
        self.merged_toggles.get_or_init(|| {
            let mut merged = self.shards[0].toggles().to_vec();
            for s in &self.shards[1..] {
                for (m, &t) in merged.iter_mut().zip(s.toggles()) {
                    *m += t;
                }
            }
            merged
        })
    }

    /// Clock cycles stepped so far (shards step in lockstep; shard 0 is
    /// the reference).
    pub fn cycles(&self) -> u64 {
        self.shards[0].cycles()
    }
}

impl SimBackend for ShardedSim {
    fn netlist(&self) -> &Netlist {
        ShardedSim::netlist(self)
    }

    fn lanes(&self) -> usize {
        self.total_lanes
    }

    fn set_bus_u64(&mut self, port: &str, value: u64) {
        ShardedSim::set_bus_u64(self, port, value);
    }

    fn set_bus_lane(&mut self, port: &str, lane: usize, value: u64) {
        ShardedSim::set_bus_lane(self, port, lane, value);
    }

    fn eval(&mut self) {
        ShardedSim::eval(self);
    }

    fn step(&mut self) {
        ShardedSim::step(self);
    }

    fn get_lane(&self, net: NetId, lane: usize) -> bool {
        ShardedSim::get_lane(self, net, lane)
    }

    fn get_bus_lane(&self, port: &str, lane: usize) -> u64 {
        ShardedSim::get_bus_lane(self, port, lane)
    }

    fn set_ff(&mut self, net: NetId, value: bool) {
        ShardedSim::set_ff(self, net, value);
    }

    fn toggles(&self) -> &[u64] {
        ShardedSim::toggles(self)
    }

    fn cycles(&self) -> u64 {
        ShardedSim::cycles(self)
    }

    fn eval_stats(&self) -> EvalStats {
        ShardedSim::eval_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Sim;
    use crate::Builder;

    fn counter(bits: usize) -> Netlist {
        let mut b = Builder::new();
        let ffs: Vec<NetId> = (0..bits).map(|_| b.dff(false)).collect();
        let one = crate::bus::constant(&mut b, 1, bits);
        let (next, _) = crate::bus::add(&mut b, &ffs, &one);
        for (ff, d) in ffs.iter().zip(&next) {
            b.connect_dff(*ff, *d);
        }
        b.output_bus("count", &ffs);
        b.finish()
    }

    #[test]
    fn matches_interpreter_on_counter_any_thread_count() {
        let nl = counter(4);
        for threads in [1, 2, 4] {
            let mut int = Sim::new(&nl);
            let mut sharded = ShardedSim::with_policy(
                &nl,
                ShardPolicy {
                    shards: 4,
                    lanes_per_shard: 1,
                    threads,
                },
            );
            for _ in 0..20 {
                int.eval();
                sharded.eval();
                for lane in 0..4 {
                    assert_eq!(
                        sharded.get_bus_lane("count", lane),
                        int.get_bus_u64("count")
                    );
                }
                int.step();
                sharded.step();
            }
            // Every lane replays the interpreted run, so the merged counts
            // are exactly 4x the single-lane reference.
            let expect: Vec<u64> = int.toggles().iter().map(|&t| 4 * t).collect();
            assert_eq!(sharded.toggles(), &expect[..], "threads = {threads}");
            assert_eq!(sharded.cycles(), 20);
        }
    }

    #[test]
    fn uneven_shard_loads_match_one_thread() {
        // Deliberately uneven per-shard loads: shard i settles (i + 1) * 4
        // times inside one par_shards scope. Stealing rebalances the heavy
        // shards across threads, but state, toggles, and results must be
        // bit-identical to the in-order single-thread run at every thread
        // count.
        let nl = counter(5);
        let run = |threads: usize| {
            let mut sim = ShardedSim::with_policy(
                &nl,
                ShardPolicy {
                    shards: 6,
                    lanes_per_shard: 2,
                    threads,
                },
            );
            let settles = sim.par_shards(|i, s| {
                for _ in 0..(i + 1) * 4 {
                    s.eval();
                    s.step();
                }
                s.cycles()
            });
            (settles, sim.toggles().to_vec())
        };
        let reference = run(1);
        assert_eq!(
            reference.0,
            vec![4, 8, 12, 16, 20, 24],
            "per-shard settle counts are genuinely uneven"
        );
        for threads in [2, 3, 4, 6] {
            assert_eq!(run(threads), reference, "x{threads} diverged");
        }
    }

    #[test]
    fn stealing_queue_claims_every_shard_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let nl = counter(3);
        let mut sim = ShardedSim::with_policy(
            &nl,
            ShardPolicy {
                shards: 9,
                lanes_per_shard: 1,
                threads: 3,
            },
        );
        let claims = AtomicUsize::new(0);
        let indices = sim.par_shards(|i, _| {
            claims.fetch_add(1, Ordering::Relaxed);
            i
        });
        // Results come back in shard order even though claim order is a
        // race, and no shard is processed twice or dropped.
        assert_eq!(indices, (0..9).collect::<Vec<_>>());
        assert_eq!(claims.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let nl = counter(6);
        let run = |threads: usize| {
            let mut sim = ShardedSim::with_policy(
                &nl,
                ShardPolicy {
                    shards: 3,
                    lanes_per_shard: 2,
                    threads,
                },
            );
            for _ in 0..13 {
                sim.eval();
                sim.step();
            }
            sim.eval();
            let outs: Vec<u64> = (0..sim.shard_count() * sim.lanes_per_shard())
                .map(|l| sim.get_bus_lane("count", l))
                .collect();
            (outs, sim.toggles().to_vec(), sim.cycles())
        };
        let reference = run(1);
        assert_eq!(run(2), reference);
        assert_eq!(run(3), reference);
        assert_eq!(run(64), reference);
    }

    #[test]
    fn global_lanes_route_to_the_right_shard() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 8);
        b.output_bus("y", &x);
        let nl = b.finish();
        let mut sim = ShardedSim::with_policy(
            &nl,
            ShardPolicy {
                shards: 2,
                lanes_per_shard: 4,
                threads: 2,
            },
        );
        assert_eq!(SimBackend::lanes(&sim), 8);
        for lane in 0..8u64 {
            sim.set_bus_lane("x", lane as usize, lane * 11);
        }
        sim.eval();
        for lane in 0..8u64 {
            assert_eq!(sim.get_bus_lane("y", lane as usize), (lane * 11) & 0xff);
        }
        // The batch writer resolves to the same lanes.
        let values: Vec<u64> = (0..8).map(|l| 200 - l).collect();
        sim.set_bus_lanes("x", &values);
        sim.eval();
        for (lane, &v) in values.iter().enumerate() {
            assert_eq!(sim.get_bus_lane("y", lane), v & 0xff);
        }
    }

    #[test]
    fn par_shards_preserves_shard_order_and_merges_toggles() {
        let nl = counter(4);
        let mut sim = ShardedSim::with_policy(
            &nl,
            ShardPolicy {
                shards: 5,
                lanes_per_shard: 1,
                threads: 3,
            },
        );
        // Each shard runs a different number of settles inside one scope.
        let indices = sim.par_shards(|i, s| {
            for _ in 0..=i {
                s.eval();
                s.step();
            }
            i
        });
        assert_eq!(indices, vec![0, 1, 2, 3, 4]);
        // Merged toggles must re-merge after the batched run (the lazy cache
        // was invalidated by par_shards).
        let manual: u64 = sim
            .shards()
            .iter()
            .map(|s| s.toggles().iter().sum::<u64>())
            .sum();
        assert_eq!(sim.toggles().iter().sum::<u64>(), manual);
    }

    #[test]
    fn single_shard_is_a_compiled_sim() {
        let nl = counter(5);
        let mut comp = CompiledSim::new(&nl);
        let mut sharded = ShardedSim::with_policy(
            &nl,
            ShardPolicy {
                shards: 1,
                lanes_per_shard: 1,
                threads: 1,
            },
        );
        for _ in 0..17 {
            comp.eval();
            sharded.eval();
            assert_eq!(sharded.get_bus_lane("count", 0), comp.get_bus_u64("count"));
            comp.step();
            sharded.step();
        }
        assert_eq!(sharded.toggles(), comp.toggles());
        assert_eq!(sharded.cycles(), comp.cycles());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lane_routing_rejects_out_of_range() {
        let nl = counter(2);
        let sim = ShardedSim::with_policy(
            &nl,
            ShardPolicy {
                shards: 2,
                lanes_per_shard: 2,
                threads: 1,
            },
        );
        let _ = sim.get_bus_lane("count", 4);
    }

    /// One-word shards promoting together on their own `par_shards`
    /// threads share one emission, and the merged stats count every
    /// shard's native sweeps.
    #[test]
    fn concurrently_promoting_shards_share_one_emission() {
        let nl = counter(6);
        let mut sim = ShardedSim::with_policy(
            &nl,
            ShardPolicy {
                shards: 4,
                lanes_per_shard: 64,
                threads: 4,
            },
        );
        sim.set_eval_mode(EvalMode::Auto);
        let settles = crate::compiled::AUTO_NATIVE_AFTER_SETTLES + 8;
        sim.par_shards(|_, s| {
            for _ in 0..settles {
                s.eval();
                s.step();
            }
        });
        let stats = sim.eval_stats();
        assert_eq!(stats.settles, 4 * u64::from(settles));
        if !(crate::jit::host_supported() && crate::env::jit() != Some(false)) {
            assert_eq!(stats.native_sweeps, 0);
            return;
        }
        assert_eq!(stats.native_sweeps, 4 * 8);
        let code: Vec<_> = sim
            .shards()
            .iter()
            .map(|s| s.native_code().unwrap())
            .collect();
        assert!(
            code.iter().all(|c| Arc::ptr_eq(c, code[0])),
            "every shard runs the same emission"
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let nl = counter(2);
        let _ = ShardedSim::with_policy(
            &nl,
            ShardPolicy {
                shards: 0,
                lanes_per_shard: 1,
                threads: 1,
            },
        );
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let nl = counter(2);
        let _ = ShardedSim::with_policy(
            &nl,
            ShardPolicy {
                threads: 0,
                ..ShardPolicy::single()
            },
        );
    }

    #[test]
    #[should_panic(expected = "lanes_per_shard must be in 1..=64, got 0")]
    fn zero_lanes_per_shard_rejected() {
        let nl = counter(2);
        let _ = ShardedSim::with_policy(
            &nl,
            ShardPolicy {
                lanes_per_shard: 0,
                ..ShardPolicy::single()
            },
        );
    }

    #[test]
    #[should_panic(expected = "lanes_per_shard must be in 1..=64, got 65")]
    fn overwide_lanes_per_shard_rejected() {
        let nl = counter(2);
        let _ = ShardedSim::with_policy(
            &nl,
            ShardPolicy {
                lanes_per_shard: 65,
                ..ShardPolicy::single()
            },
        );
    }
}
