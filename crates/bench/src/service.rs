//! YCSB-style load-mix harness for the simulation service.
//!
//! The simulation stack behaves like a small service: clients submit jobs
//! (verify this core, evaluate that mutant) and the runtime answers them
//! out of two shared resources — the process-wide
//! [`netlist::ProgramCache`] (compiled programs keyed by netlist content)
//! and the multi-job worker pool (concurrent submissions claim disjoint
//! worker subsets). This module measures that service under the classic
//! YCSB load mixes:
//!
//! * a **read** is a functional verify of a library core — the netlist
//!   content is already cached, so the op reuses the compiled program and
//!   only pays for stimulus evaluation;
//! * an **update** is a fresh mutant — previously unseen netlist content,
//!   so the op pays a full compile (a cache miss) before evaluating.
//!
//! [`ServiceMix::builder`] mirrors YCSB's `Workload::builder()`
//! proportions API: `read_proportion(0.95).update_proportion(0.05)` is
//! workload B (read-heavy), `0.5/0.5` is workload A (update-heavy), and
//! so on. [`run_service`] drives the chosen mix from several concurrent
//! submitter threads — each read submits pool jobs, so independent
//! submissions exercise the job-table admission path — and reports
//! jobs/sec plus the cache-hit profile.

use hwlib::mutate::{mutants_of, Mutant};
use hwlib::verify::functional_verify_arc;
use hwlib::{HwLibrary, InstrBlock};
use netlist::{CacheStats, CompiledSim, ProgramCache, ShardPolicy};
use std::sync::Arc;
use std::time::Instant;

/// A YCSB-style operation mix: what fraction of service ops are reads
/// (verify a cached core) vs updates (compile + evaluate a fresh mutant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceMix {
    read: f64,
    update: f64,
}

impl ServiceMix {
    /// Starts a proportions builder (the YCSB `Workload::builder()` idiom).
    pub fn builder() -> ServiceMixBuilder {
        ServiceMixBuilder {
            read: 0.0,
            update: 0.0,
        }
    }

    /// YCSB workload B: 95% reads, 5% updates.
    pub fn read_heavy() -> ServiceMix {
        ServiceMix::builder()
            .read_proportion(0.95)
            .update_proportion(0.05)
            .build()
    }

    /// The inverse of [`ServiceMix::read_heavy`]: 5% reads, 95% updates —
    /// almost every op compiles fresh netlist content.
    pub fn write_heavy() -> ServiceMix {
        ServiceMix::builder()
            .read_proportion(0.05)
            .update_proportion(0.95)
            .build()
    }

    /// YCSB workload A: 50% reads, 50% updates.
    pub fn mixed() -> ServiceMix {
        ServiceMix::builder()
            .read_proportion(0.5)
            .update_proportion(0.5)
            .build()
    }
}

/// Builder for [`ServiceMix`]; proportions must sum to 1.
#[derive(Debug, Clone, Copy)]
pub struct ServiceMixBuilder {
    read: f64,
    update: f64,
}

impl ServiceMixBuilder {
    /// Sets the fraction of ops that verify an already-cached core.
    pub fn read_proportion(mut self, p: f64) -> ServiceMixBuilder {
        self.read = p;
        self
    }

    /// Sets the fraction of ops that compile + evaluate a fresh mutant.
    pub fn update_proportion(mut self, p: f64) -> ServiceMixBuilder {
        self.update = p;
        self
    }

    /// Finalizes the mix.
    ///
    /// # Panics
    ///
    /// Panics unless the proportions are non-negative and sum to 1
    /// (within floating-point slack) — a silently renormalized mix would
    /// make two differently-buggy call sites measure different workloads
    /// under the same name.
    pub fn build(self) -> ServiceMix {
        assert!(
            self.read >= 0.0 && self.update >= 0.0,
            "proportions must be non-negative"
        );
        assert!(
            (self.read + self.update - 1.0).abs() < 1e-9,
            "proportions must sum to 1 (read {} + update {})",
            self.read,
            self.update
        );
        ServiceMix {
            read: self.read,
            update: self.update,
        }
    }
}

/// One service load-mix run's shape.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// The read/update proportions.
    pub mix: ServiceMix,
    /// Concurrent submitter threads (each is an independent service
    /// client; > 1 exercises multi-job pool admission).
    pub submitters: usize,
    /// Ops issued per submitter.
    pub ops_per_submitter: usize,
    /// Worker threads per read's shard policy. At >= 2 every read
    /// submits a real pool job, so concurrent submitters contend on the
    /// job table rather than on a serializing submit lock.
    pub threads: usize,
    /// Seed for the deterministic per-submitter op sequence.
    pub seed: u64,
}

/// What a load-mix run measured.
#[derive(Debug, Clone, Copy)]
pub struct ServiceReport {
    /// Total ops completed (`submitters * ops_per_submitter`).
    pub jobs: u64,
    /// Reads among them.
    pub reads: u64,
    /// Updates among them.
    pub updates: u64,
    /// Wall-clock seconds for the whole mix.
    pub secs: f64,
    /// `jobs / secs`.
    pub jobs_per_sec: f64,
    /// Program-cache activity attributable to this run (counter deltas
    /// against [`ProgramCache::global`]; `entries` is the absolute
    /// post-run table size).
    pub cache: CacheStats,
}

/// Splitmix64: a tiny deterministic stream for op selection, so a mix's
/// read/update schedule depends only on the seed — never on thread
/// timing.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A read op: functionally verify one library core. The core's netlist
/// content is warm in the program cache, so the op's compile is a hit and
/// the cost is the stimulus sweep (which runs as a pool job when
/// `threads > 1`).
fn read_op(block: &InstrBlock, policy: ShardPolicy) {
    functional_verify_arc(block.mnemonic, Arc::new(block.netlist.clone()), policy)
        .expect("library cores verify");
}

/// An update op: evaluate a fresh single-gate mutant of a library core.
/// The mutant's netlist content has never been seen, so the op pays a
/// full compile (a cache miss) before sweeping a handful of stimuli on
/// the submitting thread.
fn update_op(mutant: &Mutant, rng: &mut u64) {
    let mut sim = CompiledSim::with_lanes_arc(Arc::new(mutant.netlist.clone()), 64);
    let mut checksum = 0u64;
    for _ in 0..4 {
        sim.set_bus("insn", splitmix(rng) as u32);
        sim.set_bus("rs1_data", splitmix(rng) as u32);
        sim.set_bus("rs2_data", splitmix(rng) as u32);
        sim.eval();
        checksum ^= sim.get_bus_lane("rd_data", 0);
    }
    std::hint::black_box(checksum);
}

/// Runs one YCSB-style load mix against the simulation service and
/// reports jobs/sec plus the run's program-cache deltas.
///
/// Every submitter thread issues `cfg.ops_per_submitter` ops drawn
/// deterministically from `cfg.mix`; reads rotate over the library's
/// cores, updates walk a per-submitter pool of pre-generated mutants
/// (each mutant is distinct content, so each first evaluation is a
/// genuine compile). The library's cores are warmed into the cache before
/// the clock starts — the read path measures the steady cached state, not
/// the first-touch compiles.
pub fn run_service(lib: &HwLibrary, cfg: &ServiceConfig) -> ServiceReport {
    assert!(cfg.submitters >= 1 && cfg.ops_per_submitter >= 1);
    let blocks: Vec<&InstrBlock> = lib.iter().collect();
    let policy = if cfg.threads > 1 {
        ShardPolicy {
            shards: cfg.threads,
            lanes_per_shard: 2,
            threads: cfg.threads,
            ..ShardPolicy::single()
        }
    } else {
        ShardPolicy::single()
    };

    // Pre-plan each submitter's op sequence outside the timed region.
    let mut plans: Vec<(Vec<bool>, Vec<Mutant>, u64)> = (0..cfg.submitters)
        .map(|s| {
            let mut rng = cfg.seed ^ (s as u64).wrapping_mul(0xa076_1d64_78bd_642f);
            let ops: Vec<bool> = (0..cfg.ops_per_submitter)
                .map(|_| (splitmix(&mut rng) >> 11) as f64 / (1u64 << 53) as f64 >= cfg.mix.read)
                .collect();
            (ops, Vec::new(), rng)
        })
        .collect();
    // The update budget is known up front, so the mutant pool is sized to
    // never wrap (a wrapped mutant would be a cache hit and quietly fake
    // the write-heavy profile). One *global* enumeration keeps every
    // mutant distinct: within a block, `mutants_of` samples without
    // replacement; across blocks, the underlying logic differs — so no
    // two update ops (on any submitter) ever present the same content.
    let total_updates: usize = plans
        .iter()
        .map(|(ops, ..)| ops.iter().filter(|&&u| u).count())
        .sum();
    let per_block = total_updates.div_ceil(blocks.len().max(1));
    let mut pool: Vec<Mutant> = blocks
        .iter()
        .flat_map(|b| mutants_of(b, per_block, cfg.seed))
        .collect();
    assert!(
        pool.len() >= total_updates,
        "mutant enumeration exhausted: {} < {total_updates}",
        pool.len()
    );
    pool.truncate(total_updates);
    for (ops, mutants, _) in plans.iter_mut() {
        let updates = ops.iter().filter(|&&u| u).count();
        *mutants = pool.drain(..updates).collect();
    }

    // Warm the library cores so reads measure the cached steady state.
    for block in &blocks {
        drop(CompiledSim::new_arc(Arc::new(block.netlist.clone())));
    }

    let before = ProgramCache::global().stats();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let blocks = &blocks;
        let policy = &policy;
        for (ops, mutants, seed) in &plans {
            scope.spawn(move || {
                let mut rng = *seed;
                let mut next_read = 0usize;
                let mut next_update = 0usize;
                for &is_update in ops {
                    if is_update {
                        update_op(&mutants[next_update], &mut rng);
                        next_update += 1;
                    } else {
                        read_op(blocks[next_read % blocks.len()], *policy);
                        next_read += 1;
                    }
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let after = ProgramCache::global().stats();

    let jobs = (cfg.submitters * cfg.ops_per_submitter) as u64;
    let updates: u64 = plans
        .iter()
        .map(|(ops, ..)| ops.iter().filter(|&&u| u).count() as u64)
        .sum();
    ServiceReport {
        jobs,
        reads: jobs - updates,
        updates,
        secs,
        jobs_per_sec: jobs as f64 / secs,
        cache: CacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
            bypasses: after.bypasses - before.bypasses,
            entries: after.entries,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportions_must_sum_to_one() {
        let m = ServiceMix::builder()
            .read_proportion(0.75)
            .update_proportion(0.25)
            .build();
        assert!((m.read - 0.75).abs() < 1e-12);
        assert!(
            std::panic::catch_unwind(|| ServiceMix::builder().read_proportion(0.9).build())
                .is_err(),
            "0.9 + 0.0 must be rejected"
        );
    }

    #[test]
    fn canned_mixes_have_the_ycsb_shapes() {
        assert!(ServiceMix::read_heavy().read > ServiceMix::read_heavy().update);
        assert!(ServiceMix::write_heavy().update > ServiceMix::write_heavy().read);
        assert_eq!(ServiceMix::mixed().read, ServiceMix::mixed().update);
    }

    #[test]
    fn a_small_mix_completes_and_accounts_every_op() {
        let lib = HwLibrary::build_full();
        let cfg = ServiceConfig {
            mix: ServiceMix::mixed(),
            submitters: 2,
            ops_per_submitter: 6,
            threads: 2,
            seed: 0x5e41_11ce,
        };
        let report = run_service(&lib, &cfg);
        assert_eq!(report.jobs, 12);
        assert_eq!(report.reads + report.updates, report.jobs);
        assert!(report.jobs_per_sec > 0.0);
        // The op schedule is seeded, so the split is reproducible.
        let again = run_service(&lib, &cfg);
        assert_eq!((again.reads, again.updates), (report.reads, report.updates));
        if netlist::env::program_cache_enabled() {
            // Every read verifies a pre-warmed core: at least the reads'
            // compiles must have been hits.
            assert!(
                report.cache.hits >= report.reads,
                "reads on warmed cores must hit the cache: {:?}",
                report.cache
            );
        }
    }
}
