//! Criterion bench: gate-level execution throughput of a generated RISSP.
//!
//! Measures the interpreted baseline against the compiled bit-parallel
//! backend and the multi-threaded sharded backend on the same crc32 core:
//! per-settle (scalar), with 64/128/256 stimulus lanes packed per settle
//! (K = 1/2/4 words per net), and with 4 shards x 64 lanes on 1 and 4
//! threads — so the `SimBackend` speedup, the lane-block scaling, and the
//! thread-scaling are numbers rather than assertions. Per-vector throughput = settles x lanes / time.
//!
//! The `settle_sparse_*` / `settle_dense_*` pairs compare the full-sweep
//! evaluator against the event-driven one (`EvalMode`) on low-activity
//! and maximum-activity stimulus schedules; each sparse run also prints
//! its measured ops/settle and levels-skipped counters so the README
//! numbers are reproducible.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hwlib::HwLibrary;
use netlist::{CompiledSim, EvalMode, ShardPolicy, ShardedSim, Sim};
use rissp::{processor::GateLevelCpu, profile::InstructionSubset, Rissp};
use std::sync::Arc;
use xcc::OptLevel;

const EVALS: usize = 200;

fn bench(c: &mut Criterion) {
    let lib = HwLibrary::build_full();
    let w = workloads::by_name("crc32").expect("crc32");
    let image = w.compile(OptLevel::O2).expect("compiles");
    let subset = InstructionSubset::from_words(&image.words);
    let rissp = Rissp::generate(&lib, &subset);
    // One shared core handle: every simulator construction below recompiles
    // but never re-clones the gate arena.
    let core_arc = Arc::new(rissp.core.clone());
    let mut g = c.benchmark_group("gate_sim");
    g.sample_size(10);
    g.bench_function("crc32_500_cycles", |b| {
        b.iter(|| {
            let mut cpu = GateLevelCpu::with_core_arc(core_arc.clone(), 0);
            cpu.load_words(0, &image.words);
            for (base, words) in &image.data_segments {
                cpu.load_words(*base, words);
            }
            let _ = cpu.run(500);
            cpu.cycles()
        })
    });

    // Same core, same stimulus schedule, three backends: the interpreted
    // match-per-gate baseline, the compiled scalar stream, and the compiled
    // stream with 64 lanes per settle (64 * EVALS vectors of work).
    let core = &rissp.core;
    let mut interpreted = Sim::new(core);
    g.bench_function("settle_interpreted", |b| {
        b.iter(|| {
            for i in 0..EVALS {
                interpreted.set_bus("insn", black_box(0x0000_0113 ^ (i as u32) << 7));
                interpreted.eval();
                interpreted.step();
            }
            interpreted.cycles()
        })
    });
    // The `settle_compiled*` and `settle_sharded*` rows quantify lane
    // packing and sharding against the interpreted baseline, so they pin
    // the full-sweep evaluator; the event-driven delta is measured by the
    // dedicated `settle_sparse_*`/`settle_dense_*` rows below.
    let mut compiled = CompiledSim::new_arc(core_arc.clone());
    compiled.set_eval_mode(EvalMode::FullSweep);
    g.bench_function("settle_compiled", |b| {
        b.iter(|| {
            for i in 0..EVALS {
                compiled.set_bus("insn", black_box(0x0000_0113 ^ (i as u32) << 7));
                compiled.eval();
                compiled.step();
            }
            compiled.cycles()
        })
    });
    // Lane-block width sweep: 64 lanes is one word per net (K = 1);
    // 128/256 lanes store K = 2/4 contiguous words per net and retire
    // K x the stimulus vectors per settle, so per-vector throughput =
    // settles x lanes / time is the number to compare across rows.
    for lanes in [64usize, 128, 256] {
        let mut wide = CompiledSim::with_lanes_arc(core_arc.clone(), lanes);
        wide.set_eval_mode(EvalMode::FullSweep);
        let mut stimuli = vec![0u64; lanes];
        g.bench_function(format!("settle_compiled_{lanes}_lanes"), |b| {
            b.iter(|| {
                for i in 0..EVALS {
                    for (lane, s) in stimuli.iter_mut().enumerate() {
                        *s = black_box(0x0000_0113u64 ^ ((i * lanes + lane) as u64) << 7);
                    }
                    wide.set_bus_lanes("insn", &stimuli);
                    wide.eval();
                    wide.step();
                }
                wide.cycles()
            })
        });
    }

    // Event-driven vs full-sweep evaluation. Sparse schedule: the packed
    // stimulus changes only every 8th settle (and there is no clock edge),
    // so 7 of 8 settles are fully quiescent — the low-activity shape of a
    // polling cycle loop. Dense schedule: all 64 lanes change every settle
    // plus a clock edge — the worst case for gating, where `Auto` must
    // fall back to full sweeps and stay regression-free.
    for (name, mode) in [
        ("settle_sparse_full_sweep", EvalMode::FullSweep),
        ("settle_sparse_event", EvalMode::EventDriven),
    ] {
        let mut sim = CompiledSim::with_lanes_arc(core_arc.clone(), 64);
        sim.set_eval_mode(mode);
        let mut stimuli = [0u64; 64];
        // The epoch persists across criterion iterations so every 8th
        // settle drives genuinely fresh words (an index-derived stimulus
        // would repeat byte-identically from the second iteration on and
        // the compare-before-write setters would never dirty anything).
        let mut epoch = 0u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                for i in 0..EVALS {
                    if i % 8 == 0 {
                        epoch += 1;
                        for (lane, s) in stimuli.iter_mut().enumerate() {
                            *s = black_box(0x0000_0113u64 ^ (epoch * 64 + lane as u64) << 7);
                        }
                        sim.set_bus_lanes("insn", &stimuli);
                    }
                    sim.eval();
                }
                sim.get_bus_lane("next_pc", 0)
            })
        });
        let st = sim.eval_stats();
        eprintln!(
            "{name}: {:.1} ops/settle over {} settles ({} levels skipped, {} full sweeps)",
            st.ops_executed as f64 / st.settles as f64,
            st.settles,
            st.levels_skipped,
            st.full_sweeps,
        );
    }
    for (name, mode) in [
        ("settle_dense_full_sweep", EvalMode::FullSweep),
        ("settle_dense_auto", EvalMode::Auto),
    ] {
        let mut sim = CompiledSim::with_lanes_arc(core_arc.clone(), 64);
        sim.set_eval_mode(mode);
        let mut stimuli = [0u64; 64];
        // Persistent epoch: every settle of every iteration drives fresh
        // words (see the sparse benches above).
        let mut epoch = 0u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                for _ in 0..EVALS {
                    epoch += 1;
                    for (lane, s) in stimuli.iter_mut().enumerate() {
                        *s = black_box(0x0000_0113u64 ^ (epoch * 64 + lane as u64) << 7);
                    }
                    sim.set_bus_lanes("insn", &stimuli);
                    sim.eval();
                    sim.step();
                }
                sim.cycles()
            })
        });
    }

    // Sharded backend: 4 shards x 64 lanes = 256 vectors per settle, the
    // whole EVALS-settle schedule batched inside one threaded
    // `par_shards` call (shard s's lane l carries global vector s*64 + l, so
    // 1-thread and 4-thread runs do bit-identical work). Per-vector
    // throughput here is over 4x the vectors of `settle_compiled_64_lanes`;
    // `settle_compiled_256_lanes` runs the same vectors as one lane block.
    for threads in [1, 4] {
        let mut sharded = ShardedSim::with_policy(
            core,
            ShardPolicy {
                shards: 4,
                lanes_per_shard: 64,
                threads,
            },
        );
        g.bench_function(
            format!("settle_sharded_4x64_lanes_{threads}_threads"),
            |b| {
                b.iter(|| {
                    sharded.par_shards(|shard, sim| {
                        let mut stimuli = [0u64; 64];
                        for i in 0..EVALS {
                            for (lane, s) in stimuli.iter_mut().enumerate() {
                                let vector = (i * 256 + shard * 64 + lane) as u64;
                                *s = black_box(0x0000_0113u64 ^ vector << 7);
                            }
                            sim.set_bus_lanes("insn", &stimuli);
                            sim.eval();
                            sim.step();
                        }
                    });
                    sharded.cycles()
                })
            },
        );
    }

    // Work stealing on a deliberately uneven load: shard s settles
    // (s + 1) * EVALS / 4 times, so the claim loop has to rebalance the
    // heavy shards across threads.
    {
        let mut sharded = ShardedSim::with_policy_arc(
            core_arc.clone(),
            ShardPolicy {
                shards: 8,
                lanes_per_shard: 64,
                threads: 4,
            },
        );
        g.bench_function("settle_uneven_8_shards_stealing", |b| {
            b.iter(|| {
                sharded.par_shards(|shard, sim| {
                    let mut stimuli = [0u64; 64];
                    for i in 0..(shard + 1) * EVALS / 4 {
                        for (lane, s) in stimuli.iter_mut().enumerate() {
                            let vector = (i * 512 + shard * 64 + lane) as u64;
                            *s = black_box(0x0000_0113u64 ^ vector << 7);
                        }
                        sim.set_bus_lanes("insn", &stimuli);
                        sim.eval();
                        sim.step();
                    }
                });
                black_box(sharded.toggles()[0])
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
