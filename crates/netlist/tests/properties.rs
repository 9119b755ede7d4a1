//! Property-based tests on the netlist substrate's core invariants,
//! including cross-backend equivalence between the interpreted [`Sim`],
//! the compiled 64-lane [`CompiledSim`] (in full-sweep, event-driven, and
//! auto evaluation modes), and the multi-threaded [`ShardedSim`] at 1, 2
//! and 4 threads. These tests enforce the backend contract written down
//! in `docs/simulation.md`: identical outputs, FF state, and exact toggle
//! counts for identical per-lane stimulus, independent of backend, thread
//! count, and evaluation mode.

use netlist::sim::Sim;
use netlist::{
    bus, pool, Builder, CompiledSim, EvalMode, Gate, NetId, Netlist, ShardPolicy, ShardedSim,
    SimBackend, AUTO_NATIVE_AFTER_SETTLES,
};
use proptest::prelude::*;

/// The shard-thread counts the parallel-evaluation properties sweep. Without
/// an override: 1, 2, and 4. When the CI thread-matrix sets
/// `GATE_SIM_THREADS=n`, the sweep becomes exactly `{1, n}` — the
/// sequential reference plus the matrix's thread count — so each matrix
/// leg runs a genuinely different (and cheaper) schedule instead of
/// re-running the default superset three times.
fn property_threads() -> Vec<usize> {
    match netlist::env_threads() {
        None => vec![1, 2, 4],
        Some(1) => vec![1],
        Some(n) => vec![1, n],
    }
}

/// Builds a random combinational circuit from a recipe of byte opcodes.
fn circuit_from_recipe(recipe: &[u8]) -> Netlist {
    let mut b = Builder::new();
    let inputs = b.input_bus("in", 8);
    let mut nets = inputs.clone();
    for chunk in recipe.chunks(3) {
        let (op, i, j) = (
            chunk[0] % 7,
            chunk.get(1).copied().unwrap_or(0),
            chunk.get(2).copied().unwrap_or(1),
        );
        let x = nets[i as usize % nets.len()];
        let y = nets[j as usize % nets.len()];
        let n = match op {
            0 => b.and(x, y),
            1 => b.or(x, y),
            2 => b.xor(x, y),
            3 => b.nand(x, y),
            4 => b.nor(x, y),
            5 => b.not(x),
            _ => b.mux(x, y, nets[(i as usize + 1) % nets.len()]),
        };
        nets.push(n);
    }
    let out: Vec<_> = nets.iter().rev().take(8).copied().collect();
    b.output_bus("out", &out);
    b.finish()
}

/// Like [`circuit_from_recipe`] but sequential: a few DFFs join the net
/// pool up front and are fed back from recipe-chosen nets at the end.
fn sequential_circuit_from_recipe(recipe: &[u8]) -> Netlist {
    let mut b = Builder::new();
    let inputs = b.input_bus("in", 8);
    let mut nets = inputs.clone();
    let ffs: Vec<_> = (0..3).map(|i| b.dff(i == 0)).collect();
    nets.extend(&ffs);
    for chunk in recipe.chunks(3) {
        let (op, i, j) = (
            chunk[0] % 7,
            chunk.get(1).copied().unwrap_or(0),
            chunk.get(2).copied().unwrap_or(1),
        );
        let x = nets[i as usize % nets.len()];
        let y = nets[j as usize % nets.len()];
        let n = match op {
            0 => b.and(x, y),
            1 => b.or(x, y),
            2 => b.xor(x, y),
            3 => b.nand(x, y),
            4 => b.nor(x, y),
            5 => b.not(x),
            _ => b.mux(x, y, nets[(i as usize + 1) % nets.len()]),
        };
        nets.push(n);
    }
    for (k, &ff) in ffs.iter().enumerate() {
        let d = nets[(recipe.first().copied().unwrap_or(0) as usize + 3 * k) % nets.len()];
        b.connect_dff(ff, d);
    }
    let out: Vec<_> = nets.iter().rev().take(8).copied().collect();
    b.output_bus("out", &out);
    b.output_bus("state", &ffs);
    b.finish()
}

proptest! {
    /// The synthesis pass preserves behaviour on arbitrary random circuits.
    #[test]
    fn synthesize_preserves_random_circuits(
        recipe in proptest::collection::vec(any::<u8>(), 3..120),
        seed in any::<u64>(),
    ) {
        let nl = circuit_from_recipe(&recipe);
        let (opt, report) = netlist::opt::synthesize(&nl);
        prop_assert!(report.gates_after <= report.gates_before);
        prop_assert!(netlist::opt::check_equivalence(&nl, &opt, 24, seed).is_ok());
    }

    /// Gate ids are always topologically ordered (fan-in < gate id).
    #[test]
    fn construction_order_is_topological(
        recipe in proptest::collection::vec(any::<u8>(), 3..90),
    ) {
        let nl = circuit_from_recipe(&recipe);
        for (id, gate) in nl.gates().iter().enumerate() {
            for f in gate.fanin() {
                prop_assert!((f as usize) < id);
            }
        }
    }

    /// The ripple adder is associative with constants folded through.
    #[test]
    fn adder_chain_matches_u32(a in any::<u32>(), b in any::<u32>(), c in any::<u32>()) {
        let mut bld = Builder::new();
        let x = bld.input_bus("x", 32);
        let y = bld.input_bus("y", 32);
        let z = bus::constant(&mut bld, c, 32);
        let (s1, _) = bus::add(&mut bld, &x, &y);
        let (s2, _) = bus::add(&mut bld, &s1, &z);
        bld.output_bus("out", &s2);
        let nl = bld.finish();
        let mut sim = Sim::new(&nl);
        sim.set_bus("x", a);
        sim.set_bus("y", b);
        sim.eval();
        prop_assert_eq!(sim.get_bus("out"), a.wrapping_add(b).wrapping_add(c));
    }

    /// `lt_signed`/`lt_unsigned` agree with Rust comparisons everywhere.
    #[test]
    fn comparisons_match_rust(a in any::<u32>(), b in any::<u32>()) {
        let mut bld = Builder::new();
        let x = bld.input_bus("x", 32);
        let y = bld.input_bus("y", 32);
        let lts = bus::lt_signed(&mut bld, &x, &y);
        let ltu = bus::lt_unsigned(&mut bld, &x, &y);
        let eq = bus::eq(&mut bld, &x, &y);
        bld.output_bus("o", &[lts, ltu, eq]);
        let nl = bld.finish();
        let mut sim = Sim::new(&nl);
        sim.set_bus("x", a);
        sim.set_bus("y", b);
        sim.eval();
        let o = sim.get_bus("o");
        prop_assert_eq!(o & 1, ((a as i32) < (b as i32)) as u32);
        prop_assert_eq!((o >> 1) & 1, (a < b) as u32);
        prop_assert_eq!((o >> 2) & 1, (a == b) as u32);
    }

    /// Backend equivalence: the compiled single-lane backend agrees with
    /// the interpreted reference on outputs, FF state, toggle counts, and
    /// activity for random sequential netlists over random stimulus
    /// sequences.
    #[test]
    fn compiled_backend_matches_interpreter(
        recipe in proptest::collection::vec(any::<u8>(), 6..150),
        stimuli in proptest::collection::vec(any::<u8>(), 1..30),
    ) {
        let nl = sequential_circuit_from_recipe(&recipe);
        let mut int = Sim::new(&nl);
        let mut comp = CompiledSim::new(&nl);
        for &s in &stimuli {
            int.set_bus("in", s as u32);
            comp.set_bus("in", s as u32);
            int.eval();
            comp.eval();
            prop_assert_eq!(int.get_bus("out"), comp.get_bus("out"));
            prop_assert_eq!(int.get_bus("state"), comp.get_bus("state"));
            int.step();
            comp.step();
        }
        prop_assert_eq!(int.toggles(), comp.toggles(), "per-net toggle counts diverged");
        prop_assert_eq!(SimBackend::cycles(&int), SimBackend::cycles(&comp));
        let (ai, ac) = (int.average_activity(), comp.average_activity());
        prop_assert!((ai - ac).abs() < 1e-12, "activity {} != {}", ai, ac);
    }

    /// Lane independence: 64 stimulus vectors evaluated in one compiled
    /// pass produce exactly the outputs of 64 scalar interpreted runs.
    #[test]
    fn compiled_lanes_match_scalar_runs(
        recipe in proptest::collection::vec(any::<u8>(), 3..120),
        base in any::<u64>(),
    ) {
        let nl = circuit_from_recipe(&recipe);
        let mut comp = CompiledSim::with_lanes(&nl, 64);
        let stimuli: Vec<u32> = (0..64u64)
            .map(|lane| (base.wrapping_mul(lane * 2 + 1) >> 8) as u32 & 0xff)
            .collect();
        for (lane, &s) in stimuli.iter().enumerate() {
            comp.set_bus_lane("in", lane, s as u64);
        }
        comp.eval();
        for (lane, &s) in stimuli.iter().enumerate() {
            let mut int = Sim::new(&nl);
            int.set_bus("in", s);
            int.eval();
            prop_assert_eq!(
                comp.get_bus_lane("out", lane),
                int.get_bus_u64("out"),
                "lane {} (stimulus {:#x})", lane, s
            );
        }
    }

    /// Sim vs CompiledSim vs ShardedSim at 1, 2, and 4 threads: identical
    /// outputs, FF state, and exact toggle counts on random sequential
    /// netlists over random stimulus sequences (`docs/simulation.md`
    /// § "Determinism guarantees"). Each sharded lane replays the scalar
    /// run, so its merged per-net counts are exactly `shards *
    /// lanes_per_shard` times the interpreted reference's.
    #[test]
    fn sharded_backend_matches_interpreter_and_compiled(
        recipe in proptest::collection::vec(any::<u8>(), 6..100),
        stimuli in proptest::collection::vec(any::<u8>(), 1..20),
    ) {
        let nl = sequential_circuit_from_recipe(&recipe);
        let mut int = Sim::new(&nl);
        let mut comp = CompiledSim::new(&nl);
        let mut shardeds: Vec<ShardedSim> = [1usize, 2, 4]
            .iter()
            .map(|&threads| {
                ShardedSim::with_policy(
                    &nl,
                    ShardPolicy { shards: 4, lanes_per_shard: 2, threads, ..ShardPolicy::single() },
                )
            })
            .collect();
        for &s in &stimuli {
            int.set_bus("in", s as u32);
            comp.set_bus("in", s as u32);
            int.eval();
            comp.eval();
            for sim in &mut shardeds {
                SimBackend::set_bus(sim, "in", s as u32);
                sim.eval();
                for lane in 0..8 {
                    prop_assert_eq!(
                        sim.get_bus_lane("out", lane),
                        int.get_bus_u64("out"),
                        "out lane {} ({} threads)", lane, sim.thread_count()
                    );
                    prop_assert_eq!(
                        sim.get_bus_lane("state", lane),
                        int.get_bus_u64("state"),
                        "state lane {} ({} threads)", lane, sim.thread_count()
                    );
                }
                sim.step();
            }
            prop_assert_eq!(int.get_bus("out"), comp.get_bus("out"));
            prop_assert_eq!(int.get_bus("state"), comp.get_bus("state"));
            int.step();
            comp.step();
        }
        prop_assert_eq!(int.toggles(), comp.toggles());
        let expected: Vec<u64> = int.toggles().iter().map(|&t| 8 * t).collect();
        for sim in &shardeds {
            prop_assert_eq!(
                sim.toggles(), &expected[..],
                "merged toggles diverged at {} threads", sim.thread_count()
            );
            prop_assert_eq!(sim.cycles(), SimBackend::cycles(&int));
            let (ai, a_s) = (int.average_activity(), SimBackend::average_activity(sim));
            prop_assert!((ai - a_s).abs() < 1e-12, "activity {} != {}", ai, a_s);
        }
    }

    /// Sharded lane independence: distinct per-lane stimulus across two
    /// 64-lane shards reproduces 128 scalar interpreted runs, and the
    /// thread count never changes a bit of it.
    #[test]
    fn sharded_lanes_match_scalar_runs(
        recipe in proptest::collection::vec(any::<u8>(), 3..90),
        base in any::<u64>(),
    ) {
        let nl = circuit_from_recipe(&recipe);
        let stimuli: Vec<u32> = (0..128u64)
            .map(|lane| (base.wrapping_mul(lane * 2 + 1) >> 8) as u32 & 0xff)
            .collect();
        let mut runs: Vec<Vec<u64>> = Vec::new();
        let mut merged: Vec<Vec<u64>> = Vec::new();
        for threads in [1usize, 2] {
            let mut sharded = ShardedSim::with_policy(
                &nl,
                ShardPolicy { shards: 2, lanes_per_shard: 64, threads, ..ShardPolicy::single() },
            );
            let values: Vec<u64> = stimuli.iter().map(|&s| s as u64).collect();
            sharded.set_bus_lanes("in", &values);
            sharded.eval();
            let outs: Vec<u64> = (0..128)
                .map(|lane| sharded.get_bus_lane("out", lane))
                .collect();
            runs.push(outs);
            merged.push(sharded.toggles().to_vec());
        }
        prop_assert_eq!(&runs[0], &runs[1], "outputs depend on thread count");
        prop_assert_eq!(&merged[0], &merged[1], "toggles depend on thread count");
        for (lane, &s) in stimuli.iter().enumerate() {
            let mut int = Sim::new(&nl);
            int.set_bus("in", s);
            int.eval();
            prop_assert_eq!(
                runs[0][lane],
                int.get_bus_u64("out"),
                "lane {} (stimulus {:#x})", lane, s
            );
        }
    }

    /// Shard merging is an exact sum: a sharded run over distinct per-lane
    /// sequences produces per-net toggle counts equal to the elementwise
    /// sum of one standalone CompiledSim per shard fed the same lanes.
    #[test]
    fn sharded_toggles_are_sum_of_shard_references(
        recipe in proptest::collection::vec(any::<u8>(), 6..80),
        stimuli in proptest::collection::vec(any::<u8>(), 1..12),
    ) {
        let nl = sequential_circuit_from_recipe(&recipe);
        const SHARDS: usize = 3;
        const LANES: usize = 2;
        let mut sharded = ShardedSim::with_policy(
            &nl,
            ShardPolicy { shards: SHARDS, lanes_per_shard: LANES, threads: 2, ..ShardPolicy::single() },
        );
        let mut refs: Vec<CompiledSim> =
            (0..SHARDS).map(|_| CompiledSim::with_lanes(&nl, LANES)).collect();
        for (t, &s) in stimuli.iter().enumerate() {
            for global in 0..SHARDS * LANES {
                // A distinct, deterministic stimulus per lane per settle.
                let v = (s as u64)
                    .wrapping_mul(global as u64 * 2 + 3)
                    .wrapping_add(t as u64);
                sharded.set_bus_lane("in", global, v & 0xff);
                refs[global / LANES].set_bus_lane("in", global % LANES, v & 0xff);
            }
            sharded.eval();
            for r in &mut refs {
                r.eval();
            }
            for global in 0..SHARDS * LANES {
                let r = &refs[global / LANES];
                prop_assert_eq!(
                    sharded.get_bus_lane("out", global),
                    r.get_bus_lane("out", global % LANES),
                    "out lane {}", global
                );
                prop_assert_eq!(
                    sharded.get_bus_lane("state", global),
                    r.get_bus_lane("state", global % LANES),
                    "state lane {}", global
                );
            }
            sharded.step();
            for r in &mut refs {
                r.step();
            }
        }
        let mut sum = vec![0u64; nl.len()];
        for r in &refs {
            for (acc, &t) in sum.iter_mut().zip(r.toggles()) {
                *acc += t;
            }
        }
        prop_assert_eq!(sharded.toggles(), &sum[..]);
    }

    /// Event-driven evaluation is bit-identical to the full sweep, the
    /// interpreter, and the sharded backend — outputs, FF state, and exact
    /// per-net toggle sums — on random sequential netlists under both
    /// sparse stimulus (the same value re-driven most settles) and dense
    /// stimulus (a fresh value every settle).
    #[test]
    fn event_driven_matches_every_backend_sparse_and_dense(
        recipe in proptest::collection::vec(any::<u8>(), 6..120),
        stimuli in proptest::collection::vec(any::<u8>(), 2..24),
        sparse in any::<bool>(),
    ) {
        let nl = sequential_circuit_from_recipe(&recipe);
        let mut int = Sim::new(&nl);
        let mut full = CompiledSim::new(&nl);
        full.set_eval_mode(EvalMode::FullSweep);
        let mut event = CompiledSim::new(&nl);
        event.set_eval_mode(EvalMode::EventDriven);
        let mut auto_mode = CompiledSim::new(&nl); // EvalMode::Auto default
        let mut sharded = ShardedSim::with_policy(
            &nl,
            ShardPolicy { shards: 2, lanes_per_shard: 2, threads: 2, ..ShardPolicy::single() },
        );
        sharded.set_eval_mode(EvalMode::EventDriven);
        for (t, &s) in stimuli.iter().enumerate() {
            // Sparse schedules only change the stimulus every 4th settle
            // (re-driving an identical value dirties nothing).
            let v = if sparse {
                stimuli[t - t % 4] as u32
            } else {
                s as u32
            };
            int.set_bus("in", v);
            full.set_bus("in", v);
            event.set_bus("in", v);
            auto_mode.set_bus("in", v);
            SimBackend::set_bus(&mut sharded, "in", v);
            int.eval();
            full.eval();
            event.eval();
            auto_mode.eval();
            sharded.eval();
            for port in ["out", "state"] {
                let want = int.get_bus_u64(port);
                prop_assert_eq!(full.get_bus_u64(port), want, "full {} settle {}", port, t);
                prop_assert_eq!(event.get_bus_u64(port), want, "event {} settle {}", port, t);
                prop_assert_eq!(auto_mode.get_bus_u64(port), want, "auto {} settle {}", port, t);
                for lane in 0..4 {
                    prop_assert_eq!(
                        sharded.get_bus_lane(port, lane), want,
                        "sharded {} lane {} settle {}", port, lane, t
                    );
                }
            }
            int.step();
            full.step();
            event.step();
            auto_mode.step();
            sharded.step();
        }
        prop_assert_eq!(int.toggles(), full.toggles());
        prop_assert_eq!(event.toggles(), full.toggles(), "event-driven toggle counts diverged");
        prop_assert_eq!(auto_mode.toggles(), full.toggles(), "auto-mode toggle counts diverged");
        let merged: Vec<u64> = int.toggles().iter().map(|&t| 4 * t).collect();
        prop_assert_eq!(sharded.toggles(), &merged[..]);
        // The gated path may only ever do less work than the full sweep.
        prop_assert!(event.eval_stats().ops_executed <= full.eval_stats().ops_executed);
    }

    /// Sparse 64-lane stimulus — one lane flips per settle, and every
    /// third settle re-drives identical values — matches the full sweep
    /// bit-for-bit on every lane with exact toggle counts, and the
    /// re-driven settles provably skip whole levels.
    #[test]
    fn event_driven_sparse_lane_flips_match_full_sweep(
        recipe in proptest::collection::vec(any::<u8>(), 3..100),
        base in any::<u64>(),
    ) {
        let nl = circuit_from_recipe(&recipe);
        let mut full = CompiledSim::with_lanes(&nl, 64);
        full.set_eval_mode(EvalMode::FullSweep);
        let mut event = CompiledSim::with_lanes(&nl, 64);
        event.set_eval_mode(EvalMode::EventDriven);
        for settle in 0..32usize {
            if settle % 3 != 2 {
                // Flip one lane's stimulus; all other lanes keep theirs.
                let lane = (base as usize + settle * 7) % 64;
                let v = (base.wrapping_mul(settle as u64 * 2 + 3) >> 5) & 0xff;
                full.set_bus_lane("in", lane, v);
                event.set_bus_lane("in", lane, v);
            }
            // On `settle % 3 == 2` nothing is driven: the event-driven
            // settle is fully quiescent.
            full.eval();
            event.eval();
            for lane in 0..64 {
                prop_assert_eq!(
                    event.get_bus_lane("out", lane),
                    full.get_bus_lane("out", lane),
                    "lane {} settle {}", lane, settle
                );
            }
        }
        prop_assert_eq!(event.toggles(), full.toggles(), "exact toggle counts");
        let (es, fs) = (event.eval_stats(), full.eval_stats());
        prop_assert!(es.ops_executed <= fs.ops_executed);
        prop_assert!(
            es.levels_skipped > 0,
            "quiescent settles must skip whole levels: {:?}", es
        );
    }

    /// Work-stealing determinism: deliberately uneven per-shard loads
    /// (shard `i` settles `(i + 1) * 3` times inside one `par_shards`
    /// scope) produce identical per-net toggle sums and per-shard results
    /// across 1/2/4 stealing threads.
    #[test]
    fn work_stealing_is_deterministic_on_uneven_shard_loads(
        recipe in proptest::collection::vec(any::<u8>(), 6..80),
        base in any::<u8>(),
    ) {
        let nl = sequential_circuit_from_recipe(&recipe);
        let run = |threads: usize| {
            let mut sim = ShardedSim::with_policy(
                &nl,
                ShardPolicy {
                    shards: 5,
                    lanes_per_shard: 2,
                    threads,
                    ..ShardPolicy::single()
                },
            );
            let cycles = sim.par_shards(|i, s| {
                for settle in 0..(i + 1) * 3 {
                    s.set_bus("in", (base as u32 + settle as u32 * 17 + i as u32) & 0xff);
                    s.eval();
                    s.step();
                }
                s.cycles()
            });
            (cycles, sim.toggles().to_vec())
        };
        let reference = run(1);
        prop_assert_eq!(&reference.0, &vec![3, 6, 9, 12, 15], "loads are uneven");
        for threads in property_threads() {
            prop_assert_eq!(run(threads), reference.clone(), "x{} diverged", threads);
        }
    }

    /// Mid-run resizing: one sharded simulator whose thread count
    /// shrinks and grows between settles (1 → n → 2 → n threads, each
    /// settle one `par_shards` call) produces bit-identical outputs, FF state, toggle counts, and
    /// [`netlist::EvalStats`] work counters to a never-resized run of
    /// the same schedule.
    #[test]
    fn pool_reuse_and_midrun_resize_is_deterministic(
        recipe in proptest::collection::vec(any::<u8>(), 6..120),
        stimuli in proptest::collection::vec(any::<u8>(), 4..24),
    ) {
        let nl = sequential_circuit_from_recipe(&recipe);
        let n = *property_threads().last().unwrap();
        let run = |resize: bool| {
            let mut sim = ShardedSim::with_policy(
                &nl,
                ShardPolicy { shards: 4, lanes_per_shard: 2, threads: 1, ..ShardPolicy::single() },
            );
            let mut outs = Vec::new();
            for (t, &s) in stimuli.iter().enumerate() {
                if resize {
                    // Shrink/grow mid-run; results cannot move.
                    sim.set_threads([1, n, 2, n][t % 4]);
                }
                SimBackend::set_bus(&mut sim, "in", s as u32);
                sim.par_shards(|_, shard| shard.eval());
                outs.push((sim.get_bus_lane("out", 7), sim.get_bus_lane("state", 7)));
                sim.step();
            }
            (outs, sim.toggles().to_vec(), sim.eval_stats().work())
        };
        let reference = run(false);
        prop_assert_eq!(run(true), reference, "mid-run resize diverged");
    }

    /// Interleaved simulators: a single-lane [`CompiledSim`] and two
    /// multi-threaded [`ShardedSim`]s of different shapes alternate
    /// settles (each sharded settle one `par_shards` call), and all three reproduce the interpreted reference
    /// exactly.
    #[test]
    fn interleaved_compiled_and_sharded_submissions_share_one_pool(
        recipe in proptest::collection::vec(any::<u8>(), 6..80),
        stimuli in proptest::collection::vec(any::<u8>(), 1..12),
    ) {
        let nl = sequential_circuit_from_recipe(&recipe);
        let mut int = Sim::new(&nl);
        // Single-lane so its toggle counts compare 1:1 with the
        // interpreter's.
        let mut comp = CompiledSim::new(&nl);
        let mut narrow = ShardedSim::with_policy(
            &nl,
            ShardPolicy { shards: 3, lanes_per_shard: 2, threads: 2, ..ShardPolicy::single() },
        );
        let mut wide = ShardedSim::with_policy(
            &nl,
            ShardPolicy { shards: 5, lanes_per_shard: 64, threads: 2, lane_words: 2 },
        );
        for &s in &stimuli {
            int.set_bus("in", s as u32);
            comp.set_bus("in", s as u32);
            SimBackend::set_bus(&mut narrow, "in", s as u32);
            SimBackend::set_bus(&mut wide, "in", s as u32);
            int.eval();
            comp.eval();
            narrow.par_shards(|_, shard| shard.eval());
            wide.par_shards(|_, shard| shard.eval());
            let want = int.get_bus_u64("out");
            prop_assert_eq!(comp.get_bus_u64("out"), want);
            for lane in 0..6 {
                prop_assert_eq!(narrow.get_bus_lane("out", lane), want, "lane {}", lane);
            }
            for lane in (0..320).step_by(53) {
                prop_assert_eq!(wide.get_bus_lane("out", lane), want, "wide lane {}", lane);
            }
            int.step();
            comp.step();
            narrow.step();
            wide.step();
        }
        prop_assert_eq!(comp.toggles(), int.toggles());
        let merged: Vec<u64> = int.toggles().iter().map(|&t| 6 * t).collect();
        prop_assert_eq!(narrow.toggles(), &merged[..]);
        let merged: Vec<u64> = int.toggles().iter().map(|&t| 320 * t).collect();
        prop_assert_eq!(wide.toggles(), &merged[..]);
    }

    /// Nested parallelism: `par_shards` runs issued from inside a
    /// two-thread [`pool::claim_map`] (so each spawns its helpers from a
    /// participant, one of them a helper itself) are bit-identical to a
    /// top-level run: per-shard results, merged toggles, and merged work
    /// counters.
    #[test]
    fn scoped_fallback_matches_pooled_execution(
        recipe in proptest::collection::vec(any::<u8>(), 6..100),
        stimuli in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let nl = sequential_circuit_from_recipe(&recipe);
        let sharded_run = || {
            let mut sim = ShardedSim::with_policy(
                &nl,
                ShardPolicy { shards: 4, lanes_per_shard: 2, threads: 2, ..ShardPolicy::single() },
            );
            let settles = sim.par_shards(|i, s| {
                for (t, &v) in stimuli.iter().enumerate() {
                    s.set_bus("in", (v as u32 + i as u32 * 31 + t as u32) & 0xff);
                    s.eval();
                    s.step();
                }
                s.cycles()
            });
            (settles, sim.toggles().to_vec(), sim.eval_stats())
        };
        let top_level = sharded_run();
        let nested = pool::claim_map(2, &mut [(), ()], |_, _| sharded_run());
        for run in nested {
            prop_assert_eq!(&run, &top_level, "nested run diverged");
        }
    }

    /// Stuck-at mutation changes the gate census by at most one gate kind,
    /// and `with_gate_replaced` never breaks topological order.
    #[test]
    fn mutation_preserves_topology(
        recipe in proptest::collection::vec(any::<u8>(), 6..60),
        pick in any::<usize>(),
    ) {
        let nl = circuit_from_recipe(&recipe);
        // Only mutate non-input gates.
        let candidates: Vec<_> = nl
            .gates()
            .iter()
            .enumerate()
            .filter(|(_, g)| !matches!(g, Gate::Input(_) | Gate::Const(_)))
            .map(|(i, _)| i as u32)
            .collect();
        prop_assume!(!candidates.is_empty());
        let target = candidates[pick % candidates.len()];
        let mutant = nl.with_gate_replaced(target, Gate::Const(true));
        for (id, gate) in mutant.gates().iter().enumerate() {
            for f in gate.fanin() {
                prop_assert!((f as usize) < id);
            }
        }
    }
}

proptest! {
    // The wide-lane-block tests sweep lane widths × eval modes *inside*
    // every case, so fewer random circuits per test keep the suite's
    // runtime flat.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// K-word lane blocks are bit-identical to chunked 64-lane runs
    /// (`docs/simulation.md` § "Lane packing"): a 128-lane (K = 2) and a
    /// 256-lane (K = 4) [`CompiledSim`] driven with distinct per-lane
    /// stimuli reproduce 2/4 independent 64-lane sims chunk-for-chunk —
    /// per-lane outputs and FF state every settle, cycle counts, and
    /// per-net toggle counts summing exactly across chunks — in both Auto
    /// and pinned-full-sweep modes. In full-sweep mode the wide block's
    /// [`netlist::EvalStats`] additionally equal each chunk's: every
    /// settle walks the whole
    /// program either way, K only changes the words per op. (Auto-mode
    /// *stats* can legitimately differ on uncorrelated stimuli — a wide
    /// block gates each net on the union of its lanes' activity — which
    /// is what [`wide_lane_auto_stats_match_chunked_on_replicated_stimuli`]
    /// pins down instead.)
    #[test]
    fn wide_lane_blocks_match_chunked_64_lane_sims(
        recipe in proptest::collection::vec(any::<u8>(), 6..60),
        stimuli in proptest::collection::vec(any::<u8>(), 1..8),
        base in any::<u64>(),
    ) {
        let nl = sequential_circuit_from_recipe(&recipe);
        for lanes in [128usize, 256] {
            let chunks = lanes / 64;
            for mode in [EvalMode::Auto, EvalMode::FullSweep] {
                let mut wide = CompiledSim::with_lanes(&nl, lanes);
                wide.set_eval_mode(mode);
                let mut refs: Vec<CompiledSim> = (0..chunks)
                    .map(|_| {
                        let mut sim = CompiledSim::with_lanes(&nl, 64);
                        sim.set_eval_mode(mode);
                        sim
                    })
                    .collect();
                for (t, &s) in stimuli.iter().enumerate() {
                    for g in 0..lanes {
                        // A distinct, deterministic stimulus per
                        // lane per settle.
                        let v = (s as u64)
                            .wrapping_mul(g as u64 * 2 + 3)
                            .wrapping_add(base ^ t as u64)
                            & 0xff;
                        wide.set_bus_lane("in", g, v);
                        refs[g / 64].set_bus_lane("in", g % 64, v);
                    }
                    wide.eval();
                    for r in &mut refs {
                        r.eval();
                    }
                    for g in (0..lanes).step_by(17) {
                        let r = &refs[g / 64];
                        prop_assert_eq!(
                            wide.get_bus_lane("out", g),
                            r.get_bus_lane("out", g % 64),
                            "out lane {} of {} ({:?})",
                            g, lanes, mode
                        );
                        prop_assert_eq!(
                            wide.get_bus_lane("state", g),
                            r.get_bus_lane("state", g % 64),
                            "state lane {} of {}", g, lanes
                        );
                    }
                    wide.step();
                    for r in &mut refs {
                        r.step();
                    }
                }
                let mut sum = vec![0u64; nl.len()];
                for r in &refs {
                    for (acc, &t) in sum.iter_mut().zip(r.toggles()) {
                        *acc += t;
                    }
                }
                prop_assert_eq!(
                    wide.toggles(), &sum[..],
                    "toggles at {} lanes ({:?})",
                    lanes, mode
                );
                prop_assert_eq!(
                    SimBackend::cycles(&wide),
                    SimBackend::cycles(&refs[0])
                );
                if mode == EvalMode::FullSweep {
                    for r in &refs {
                        prop_assert_eq!(
                            wide.eval_stats(), r.eval_stats(),
                            "full-sweep stats at {} lanes",
                            lanes
                        );
                    }
                }
            }
        }
    }

    /// Auto-mode work accounting for wide blocks: when every 64-lane
    /// chunk of the block receives the *same* per-lane stimulus pattern
    /// (so the per-net activity union across the block equals each
    /// chunk's own activity), a 128/256-lane sim's full
    /// [`netlist::EvalStats`] — ops executed, levels skipped, full
    /// sweeps — equal each chunked 64-lane reference's, settle for
    /// settle. The stimulus schedule only changes
    /// every third settle so the event-driven gating actually engages.
    #[test]
    fn wide_lane_auto_stats_match_chunked_on_replicated_stimuli(
        recipe in proptest::collection::vec(any::<u8>(), 6..60),
        stimuli in proptest::collection::vec(any::<u8>(), 3..12),
        base in any::<u64>(),
    ) {
        let nl = sequential_circuit_from_recipe(&recipe);
        for lanes in [128usize, 256] {
            let chunks = lanes / 64;
            let mut wide = CompiledSim::with_lanes(&nl, lanes);
            let mut refs: Vec<CompiledSim> =
                (0..chunks).map(|_| CompiledSim::with_lanes(&nl, 64)).collect();
            for (t, &_s) in stimuli.iter().enumerate() {
                let s = stimuli[t - t % 3]; // sparse: re-drive 2 of 3
                for lane in 0..64usize {
                    let v = (s as u64)
                        .wrapping_mul(lane as u64 * 2 + 3)
                        .wrapping_add(base)
                        & 0xff;
                    for chunk in 0..chunks {
                        wide.set_bus_lane("in", chunk * 64 + lane, v);
                    }
                    for r in &mut refs {
                        r.set_bus_lane("in", lane, v);
                    }
                }
                wide.eval();
                for r in &mut refs {
                    r.eval();
                }
                for lane in (0..64usize).step_by(13) {
                    for (c, r) in refs.iter().enumerate() {
                        prop_assert_eq!(
                            wide.get_bus_lane("out", c * 64 + lane),
                            r.get_bus_lane("out", lane),
                            "out chunk {} lane {} settle {}", c, lane, t
                        );
                    }
                }
                wide.step();
                for r in &mut refs {
                    r.step();
                }
            }
            for r in &refs {
                prop_assert_eq!(
                    wide.eval_stats(), r.eval_stats(),
                    "auto-mode stats diverged at {} lanes", lanes
                );
            }
            let expected: Vec<u64> =
                refs[0].toggles().iter().map(|&t| chunks as u64 * t).collect();
            prop_assert_eq!(wide.toggles(), &expected[..]);
        }
    }

    /// The program cache is invisible to results: a simulator whose
    /// construction hit the process-wide [`netlist::ProgramCache`] (the
    /// second construction of a content-equal netlist behind a fresh
    /// `Arc`) is bit-identical to the first-construction simulator and to
    /// the cache-free interpreted reference — outputs, FF state, exact
    /// toggle counts, and [`netlist::EvalStats`] — across lane widths
    /// and eval modes. (With `GATE_SIM_PROGRAM_CACHE=0`
    /// both constructions compile fresh and the property must hold all
    /// the same.)
    #[test]
    fn cache_hit_sims_are_bit_identical_to_fresh_compiles(
        recipe in proptest::collection::vec(any::<u8>(), 6..100),
        stimuli in proptest::collection::vec(any::<u8>(), 2..16),
    ) {
        let nl = sequential_circuit_from_recipe(&recipe);
        let mut int = Sim::new(&nl);
        let int_outs: Vec<(u64, u64)> = stimuli
            .iter()
            .map(|&s| {
                int.set_bus("in", s as u32);
                int.eval();
                let out = (int.get_bus_u64("out"), int.get_bus_u64("state"));
                int.step();
                out
            })
            .collect();
        for lanes in [1usize, 64, 128] {
            for mode in [EvalMode::FullSweep, EvalMode::EventDriven] {
                let run = |netlist: std::sync::Arc<Netlist>| {
                    let mut sim = CompiledSim::with_lanes_arc(netlist, lanes);
                    sim.set_eval_mode(mode);
                    let mut outs = Vec::new();
                    for &s in &stimuli {
                        sim.set_bus("in", s as u32); // broadcast: all lanes alike
                        sim.eval();
                        outs.push((
                            sim.get_bus_lane("out", 0),
                            sim.get_bus_lane("state", 0),
                            sim.get_bus_lane("out", lanes - 1),
                        ));
                        sim.step();
                    }
                    (outs, sim.toggles().to_vec(), sim.eval_stats())
                };
                // First construction compiles (or hits a prior
                // iteration's entry); the second is the cache-hit
                // path: same content behind a brand-new allocation.
                let first = run(std::sync::Arc::new(nl.clone()));
                let hit = run(std::sync::Arc::new(nl.clone()));
                prop_assert_eq!(&hit, &first, "cached construction diverged");
                for (got, want) in first.0.iter().zip(&int_outs) {
                    prop_assert_eq!((got.0, got.1), *want, "vs interpreter");
                    prop_assert_eq!(got.2, want.0, "last lane vs interpreter");
                }
                let scaled: Vec<u64> =
                    int.toggles().iter().map(|&t| lanes as u64 * t).collect();
                prop_assert_eq!(&first.1, &scaled, "exact toggles");
            }
        }
    }

    /// The JIT axis of the backend contract (`docs/jit.md`): Jit-mode
    /// settles — natively emitted code where the host supports it, the
    /// interpreted fallback everywhere else — are bit-identical to
    /// pinned full sweeps *and* to the interpreted reference backend on
    /// random sequential netlists: per-lane outputs, FF state, exact
    /// per-net toggle counts, and [`netlist::EvalStats`] (but for the
    /// engine counter, `native_sweeps`), across lane widths (one-word,
    /// multi-word, partial-word blocks) × distinct per-lane stimulus.
    #[test]
    fn jit_matches_interpreter_and_full_sweep_everywhere(
        recipe in proptest::collection::vec(any::<u8>(), 6..100),
        stimuli in proptest::collection::vec(any::<u8>(), 2..12),
        base in any::<u64>(),
    ) {
        let nl = sequential_circuit_from_recipe(&recipe);
        let lane_stim = |s: u8, g: usize, t: usize| {
            (s as u64).wrapping_mul(g as u64 * 2 + 3).wrapping_add(base ^ t as u64) & 0xff
        };
        for lanes in [1usize, 64, 100, 256] {
            let mut int = Sim::new(&nl);
            let mut full = CompiledSim::with_lanes(&nl, lanes);
            full.set_eval_mode(EvalMode::FullSweep);
            let mut jit = CompiledSim::with_lanes(&nl, lanes);
            jit.set_eval_mode(EvalMode::Jit);
            for (t, &s) in stimuli.iter().enumerate() {
                for g in 0..lanes {
                    let v = lane_stim(s, g, t);
                    full.set_bus_lane("in", g, v);
                    jit.set_bus_lane("in", g, v);
                }
                int.set_bus("in", lane_stim(s, 0, t) as u32);
                int.eval();
                full.eval();
                jit.eval();
                for g in (0..lanes).step_by(13) {
                    for port in ["out", "state"] {
                        prop_assert_eq!(
                            jit.get_bus_lane(port, g),
                            full.get_bus_lane(port, g),
                            "jit vs full, {} lane {} of {} settle {}",
                            port, g, lanes, t
                        );
                    }
                }
                // Lane 0 doubles as the interpreter cross-check.
                prop_assert_eq!(
                    jit.get_bus_lane("out", 0),
                    int.get_bus_u64("out"),
                    "jit vs interpreter, {} lanes settle {}", lanes, t
                );
                int.step();
                full.step();
                jit.step();
            }
            prop_assert_eq!(
                jit.toggles(), full.toggles(),
                "exact toggles, {} lanes", lanes
            );
            prop_assert_eq!(
                jit.eval_stats().work(), full.eval_stats(),
                "eval stats, {} lanes", lanes
            );
        }
    }

    /// [`EvalMode::Auto`]'s native tier (`docs/jit.md` § "Fallback
    /// rules"): a one-word Auto simulator driven across its promotion
    /// point — [`AUTO_NATIVE_AFTER_SETTLES`] interpreted settles, native
    /// full sweeps after — matches the pinned full-sweep interpreter
    /// settle for settle at 1, 25 and 64 lanes: per-lane outputs and FF
    /// state, then exact toggles. Each case also runs a mutant with a
    /// few gates replaced by constants (`with_gate_replaced`), whose
    /// const-operand gates take the lowerer's folding path. Wherever
    /// codegen is available, `native_sweeps` counts exactly the settles
    /// past the threshold.
    #[test]
    fn auto_promotion_matches_full_sweep_interpreter(
        recipe in proptest::collection::vec(any::<u8>(), 6..80),
        stimuli in proptest::collection::vec(any::<u8>(), 1..6),
        victims in proptest::collection::vec((any::<usize>(), any::<bool>()), 1..6),
        base in any::<u64>(),
    ) {
        let nl = sequential_circuit_from_recipe(&recipe);
        let logic: Vec<NetId> = (0..nl.len() as NetId)
            .filter(|&id| !matches!(nl.gates()[id as usize], Gate::Input(_) | Gate::Dff { .. }))
            .collect();
        let mut mutant = nl.clone();
        if !logic.is_empty() {
            for &(victim, konst) in &victims {
                mutant = mutant.with_gate_replaced(logic[victim % logic.len()], Gate::Const(konst));
            }
        }
        let settles = AUTO_NATIVE_AFTER_SETTLES as usize + 24;
        let codegen = netlist::jit::host_supported() && netlist::env::jit() != Some(false);
        for nl in [&nl, &mutant] {
            for lanes in [1usize, 25, 64] {
                let mut full = CompiledSim::with_lanes(nl, lanes);
                full.set_eval_mode(EvalMode::FullSweep);
                let mut auto = CompiledSim::with_lanes(nl, lanes);
                auto.set_eval_mode(EvalMode::Auto);
                for t in 0..settles {
                    // A fresh stimulus every 4th settle, so the
                    // interpreted tier really skips work.
                    if t % 4 == 0 {
                        let s = stimuli[(t / 4) % stimuli.len()] as u64;
                        for g in 0..lanes {
                            let v = s.wrapping_mul(g as u64 * 2 + 3).wrapping_add(base ^ t as u64) & 0xff;
                            full.set_bus_lane("in", g, v);
                            auto.set_bus_lane("in", g, v);
                        }
                    }
                    full.eval();
                    auto.eval();
                    for g in (0..lanes).step_by(7) {
                        for port in ["out", "state"] {
                            prop_assert_eq!(
                                auto.get_bus_lane(port, g),
                                full.get_bus_lane(port, g),
                                "{} lane {} of {}, settle {}", port, g, lanes, t
                            );
                        }
                    }
                    full.step();
                    auto.step();
                }
                prop_assert_eq!(auto.toggles(), full.toggles(), "toggles, {} lanes", lanes);
                let stats = auto.eval_stats();
                prop_assert_eq!(stats.settles, settles as u64);
                let past = (settles - AUTO_NATIVE_AFTER_SETTLES as usize) as u64;
                prop_assert_eq!(stats.native_sweeps, if codegen { past } else { 0 });
                prop_assert_eq!(auto.jit_active(), codegen);
            }
        }
    }

    /// [`ShardedSim::set_eval_mode`] forwards [`EvalMode::Jit`] to every
    /// shard (including a reshaped partial trailing block): per-lane
    /// results and merged toggle counts match the full-sweep schedule.
    #[test]
    fn sharded_jit_mode_matches_full_sweep(
        recipe in proptest::collection::vec(any::<u8>(), 6..80),
        stimuli in proptest::collection::vec(any::<u8>(), 2..10),
    ) {
        let nl = sequential_circuit_from_recipe(&recipe);
        // 3 shards × 40 lanes: forces a fused multi-word block plus a
        // partial trailing shape through `reshaped`.
        let policy = ShardPolicy { shards: 3, lanes_per_shard: 40, threads: 2, ..ShardPolicy::single() };
        let run = |mode: EvalMode| {
            let mut sim = ShardedSim::with_policy(&nl, policy);
            sim.set_eval_mode(mode);
            let mut outs = Vec::new();
            for (t, &s) in stimuli.iter().enumerate() {
                for lane in 0..sim.lanes() {
                    sim.set_bus_lane("in", lane, (s as u64).wrapping_add(lane as u64 * 5 + t as u64) & 0xff);
                }
                sim.eval();
                for lane in (0..sim.lanes()).step_by(7) {
                    outs.push((sim.get_bus_lane("out", lane), sim.get_bus_lane("state", lane)));
                }
                sim.step();
            }
            (outs, sim.toggles().to_vec())
        };
        let full = run(EvalMode::FullSweep);
        let jit = run(EvalMode::Jit);
        prop_assert_eq!(&jit.0, &full.0, "sharded per-lane outputs");
        prop_assert_eq!(&jit.1, &full.1, "sharded merged toggles");
    }
}

/// Forcing an op stream the lowerer rejects must surface as a fallback
/// signal from [`netlist::jit::compile`] — never a miscompile. The
/// rejection shape is an [`netlist::level::OpCode::Input`] scheduled
/// outside level 0, which [`netlist::level::Program::compile`] can
/// never emit but the public (all-`pub`-fields) `Program` can express.
#[test]
fn jit_rejects_unsupported_op_stream_and_falls_back() {
    use netlist::jit::{self, JitError, JitOptions};
    use netlist::level::{OpCode, Program};

    let mut b = Builder::new();
    let x = b.input("x");
    let y = b.input("y");
    let n = b.and(x, y);
    let o = b.xor(n, x);
    b.output("o", o);
    let prog = Program::compile(&b.finish());
    assert!(prog.levels() >= 2, "need a level-1 op to corrupt");
    let mut bad = prog.clone();
    let i = bad.level_ops(1).start;
    bad.opcodes[i] = OpCode::Input;
    bad.a[i] = 0;
    match jit::compile(&bad, 1, &JitOptions::default()) {
        Err(JitError::UnsupportedOp { index, opcode }) => {
            assert_eq!(index, i);
            assert_eq!(opcode, OpCode::Input);
        }
        // GATE_SIM_JIT=0 legs and non-x86-64 hosts fail earlier — both
        // are fallback signals too.
        Err(JitError::Disabled | JitError::HostUnsupported) => {}
        other => panic!("unsupported op must be rejected, got {other:?}"),
    }
    // The cached-slot path memoizes the same verdict: no code for this
    // stream, on any host, under any `GATE_SIM_JIT` setting.
    assert!(
        bad.jit(1).is_none(),
        "rejected stream must never yield code"
    );
    // And the pristine clone source is unaffected: the mutation cannot
    // have poisoned the original program's cache (clones start empty).
    if jit::host_supported() && netlist::env::jit() != Some(false) {
        assert!(prog.jit(1).is_some(), "pristine program still compiles");
    }
}
