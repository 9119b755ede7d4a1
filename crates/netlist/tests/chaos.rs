//! The chaos property axis: bit-identity and typed-failure contracts
//! under seeded failpoint schedules (`docs/robustness.md`).
//!
//! Every test here holds [`failpoints::exclusive`] for its whole body —
//! schedules are process-global — and installs its own [`Plan`], so the
//! suite is deterministic regardless of test interleaving. The CI
//! `chaos-smoke` job runs this binary across a matrix of
//! `GATE_SIM_FAILPOINTS` seeds; [`ambient_plan`] picks that schedule up
//! when present so each matrix leg genuinely exercises different fire
//! patterns.
//!
//! Two invariants are pinned:
//!
//! * **Bit-identity** — cache and JIT chaos may change *how* a result
//!   is computed (recompiled or cached, native or interpreted) but never
//!   the result: outputs, FF state, and exact toggle counts must match
//!   the interpreted [`Sim`] ground truth.
//! * **Typed failure** — refused mappings, `mprotect` calls and
//!   emissions surface as the documented [`JitError`] / [`MapError`]
//!   values and release everything they reserved.

#![cfg(feature = "failpoints")]

use netlist::failpoints::{self, coin, Plan};
use netlist::jit::emit::EmitError;
use netlist::jit::exec::{self, ExecBuf, MapError};
use netlist::jit::{self, JitError, JitOptions};
use netlist::level::Program;
use netlist::sim::Sim;
use netlist::{
    Builder, CompiledSim, EvalMode, Netlist, ProgramCache, ShardPolicy, ShardedSim, SimBackend,
    AUTO_NATIVE_AFTER_SETTLES,
};

/// The default chaos schedule when CI does not provide one: every
/// benign site armed at a rate that fires often within a short test.
const DEFAULT_SCHEDULE: &str = "1:cache::miss=25%,cache::evict=25%,jit::emit=50%,jit::map=50%";

/// The schedule under test: `GATE_SIM_FAILPOINTS` when the CI matrix
/// sets it, the built-in default otherwise.
fn ambient_plan() -> Plan {
    match std::env::var("GATE_SIM_FAILPOINTS") {
        Ok(v) if !v.trim().is_empty() => Plan::parse(&v),
        _ => Plan::parse(DEFAULT_SCHEDULE),
    }
}

/// A deterministic random sequential circuit, seeded through the same
/// [`coin`] the failpoint machinery uses (no other RNG exists in the
/// test environment). Distinct seeds give structurally distinct
/// netlists — important because JIT failure memoization is per
/// [`Program`], and the [`ProgramCache`] dedupes identical content.
fn chaos_circuit(seed: u64) -> Netlist {
    let mut b = Builder::new();
    let inputs = b.input_bus("in", 8);
    let mut nets = inputs.clone();
    let ffs: Vec<_> = (0..3).map(|i| b.dff(i == 0)).collect();
    nets.extend(&ffs);
    for k in 0..40u64 {
        let r = coin(seed, "chaos::circuit", k);
        let x = nets[(r >> 8) as usize % nets.len()];
        let y = nets[(r >> 24) as usize % nets.len()];
        let n = match r % 7 {
            0 => b.and(x, y),
            1 => b.or(x, y),
            2 => b.xor(x, y),
            3 => b.nand(x, y),
            4 => b.nor(x, y),
            5 => b.not(x),
            _ => b.mux(x, y, nets[(r >> 40) as usize % nets.len()]),
        };
        nets.push(n);
    }
    for (k, &ff) in ffs.iter().enumerate() {
        let d = nets[nets.len() - 1 - 2 * k];
        b.connect_dff(ff, d);
    }
    let out: Vec<_> = nets.iter().rev().take(8).copied().collect();
    b.output_bus("out", &out);
    b.output_bus("state", &ffs);
    b.finish()
}

/// Deterministic stimulus sequence for `chaos_circuit`.
fn stimuli(seed: u64, cycles: usize) -> Vec<u8> {
    (0..cycles as u64)
        .map(|k| coin(seed, "chaos::stimulus", k) as u8)
        .collect()
}

/// The tentpole bit-identity property: under the ambient chaos
/// schedule, the compiled backends (auto, run past its promotion to
/// native code so a refused mapping or emission lands mid-run,
/// JIT-with-fallback, and the sharded evaluator) replay the
/// interpreted [`Sim`] bit for bit — outputs, FF state, and exact toggle
/// counts — no matter which failpoints fire along the way.
#[test]
fn ambient_chaos_is_bit_identical_across_backends() {
    let _guard = failpoints::exclusive();
    failpoints::configure(ambient_plan());

    for seed in [3, 7] {
        let nl = chaos_circuit(seed);
        let mut int = Sim::new(&nl);
        let mut comp = CompiledSim::new(&nl);
        comp.set_eval_mode(EvalMode::Auto);
        let mut jitted = CompiledSim::new(&nl);
        jitted.set_eval_mode(EvalMode::Jit);
        let mut sharded = ShardedSim::with_policy(
            &nl,
            ShardPolicy {
                shards: 2,
                lanes_per_shard: 2,
                threads: 2,
            },
        );

        for &s in &stimuli(seed, AUTO_NATIVE_AFTER_SETTLES as usize + 16) {
            int.set_bus("in", s as u32);
            comp.set_bus("in", s as u32);
            jitted.set_bus("in", s as u32);
            SimBackend::set_bus(&mut sharded, "in", s as u32);
            int.eval();
            comp.eval();
            jitted.eval();
            sharded.eval();
            for (name, sim) in [("auto", &comp), ("jit", &jitted)] {
                assert_eq!(sim.get_bus("out"), int.get_bus("out"), "{name} out");
                assert_eq!(sim.get_bus("state"), int.get_bus("state"), "{name} state");
            }
            for lane in 0..4 {
                assert_eq!(
                    sharded.get_bus_lane("out", lane),
                    int.get_bus_u64("out"),
                    "sharded out lane {lane}"
                );
                assert_eq!(
                    sharded.get_bus_lane("state", lane),
                    int.get_bus_u64("state"),
                    "sharded state lane {lane}"
                );
            }
            int.step();
            comp.step();
            jitted.step();
            sharded.step();
        }

        assert_eq!(int.toggles(), comp.toggles(), "auto toggles (seed {seed})");
        assert_eq!(int.toggles(), jitted.toggles(), "jit toggles (seed {seed})");
        let scaled: Vec<u64> = int.toggles().iter().map(|&t| 4 * t).collect();
        assert_eq!(
            sharded.toggles(),
            &scaled[..],
            "sharded merged toggles (seed {seed})"
        );
    }
    failpoints::clear();
}

/// Forced misses and evictions churn the program cache's counters but
/// can never change what a simulator computes — a recompiled program is
/// the same program.
#[test]
fn cache_chaos_moves_counters_never_results() {
    let _guard = failpoints::exclusive();
    failpoints::configure(Plan::parse("5:cache::miss=always,cache::evict=always"));

    let nl = chaos_circuit(11);
    let mut int = Sim::new(&nl);
    let before = ProgramCache::global().stats();
    let mut a = CompiledSim::new(&nl);
    let mut b = CompiledSim::new(&nl); // forced miss: recompiles despite `a`
    for &s in &stimuli(11, 12) {
        int.set_bus("in", s as u32);
        a.set_bus("in", s as u32);
        b.set_bus("in", s as u32);
        int.eval();
        a.eval();
        b.eval();
        assert_eq!(a.get_bus("out"), int.get_bus("out"));
        assert_eq!(b.get_bus("out"), int.get_bus("out"));
        int.step();
        a.step();
        b.step();
    }
    assert_eq!(int.toggles(), a.toggles());
    assert_eq!(int.toggles(), b.toggles());
    let after = ProgramCache::global().stats();
    if netlist::env::program_cache_enabled() {
        assert!(
            after.misses >= before.misses + 2,
            "forced misses must recompile: {before:?} -> {after:?}"
        );
    }
    failpoints::clear();
}

/// JIT chaos — refused mappings and synthesized emit overflows — must
/// be invisible: the simulator silently falls back to the interpreter,
/// stays bit-identical (values *and* toggles), and reports coherent
/// eval statistics for the interpreted path it actually took.
#[test]
fn jit_chaos_falls_back_bit_identically_with_coherent_stats() {
    let _guard = failpoints::exclusive();
    for (seed, spec) in [(21u64, "5:jit::map=always"), (22, "5:jit::emit=always")] {
        failpoints::configure(Plan::parse(spec));
        let nl = chaos_circuit(seed); // fresh program: failures memoize per Program
        let mut int = Sim::new(&nl);
        let mut sim = CompiledSim::new(&nl);
        sim.set_eval_mode(EvalMode::Jit);
        let cycles = 10;
        for &s in &stimuli(seed, cycles) {
            int.set_bus("in", s as u32);
            sim.set_bus("in", s as u32);
            int.eval();
            sim.eval();
            assert_eq!(sim.get_bus("out"), int.get_bus("out"), "{spec}");
            assert_eq!(sim.get_bus("state"), int.get_bus("state"), "{spec}");
            int.step();
            sim.step();
        }
        assert!(
            !sim.jit_active(),
            "{spec}: codegen must not be active after a forced failure"
        );
        assert_eq!(int.toggles(), sim.toggles(), "{spec}: toggles");
        let stats = sim.eval_stats();
        assert_eq!(stats.settles, cycles as u64, "{spec}: settles");
        assert_eq!(
            stats.full_sweeps, stats.settles,
            "{spec}: interpreter fallback is a full sweep per settle"
        );
        assert!(stats.ops_executed > 0, "{spec}: ops accounted");
        assert_eq!(
            stats.ops_executed % stats.settles,
            0,
            "{spec}: sweeps execute the whole op stream each settle"
        );
        assert_eq!(stats.native_sweeps, 0, "{spec}: the fallback is visible");
    }
    failpoints::clear();
}

/// A refused mapping, `mprotect` or emission at `Auto`'s promotion
/// point: the simulator keeps interpreting bit-identically, the refusal
/// is visible as settles past the threshold with no native sweeps, and
/// it is memoized on the program — with the schedule cleared, a later
/// request still gets no code.
#[test]
fn refused_promotion_is_bit_identical_visible_and_memoized() {
    let _guard = failpoints::exclusive();
    for (seed, spec) in [
        (41u64, "5:jit::map=always"),
        (42, "5:jit::protect=always"),
        (43, "5:jit::emit=always"),
    ] {
        failpoints::configure(Plan::parse(spec));
        let nl = chaos_circuit(seed); // fresh program: refusals memoize per Program
        let mut int = Sim::new(&nl);
        let mut sim = CompiledSim::new(&nl);
        sim.set_eval_mode(EvalMode::Auto);
        let cycles = AUTO_NATIVE_AFTER_SETTLES as usize + 16;
        for &s in &stimuli(seed, cycles) {
            int.set_bus("in", s as u32);
            sim.set_bus("in", s as u32);
            int.eval();
            sim.eval();
            assert_eq!(sim.get_bus("out"), int.get_bus("out"), "{spec}");
            assert_eq!(sim.get_bus("state"), int.get_bus("state"), "{spec}");
            int.step();
            sim.step();
        }
        assert_eq!(int.toggles(), sim.toggles(), "{spec}: toggles");
        assert!(
            !sim.jit_active(),
            "{spec}: promotion must have been refused"
        );
        let stats = sim.eval_stats();
        assert_eq!(stats.settles, cycles as u64, "{spec}: settles");
        assert_eq!(
            stats.native_sweeps, 0,
            "{spec}: a refusal runs nothing native"
        );
        failpoints::clear();
        assert!(
            sim.program().jit(1).is_none(),
            "{spec}: the refusal is memoized on the program"
        );
    }
}

/// In-place emission releases its reservation on every error path: a
/// code-size cap hit mid-emission and a refused `mprotect` both leave
/// the process's mapped code bytes where they were; a success maps
/// code until its last holder drops.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[test]
fn failed_emission_unmaps_its_reservation() {
    let _guard = failpoints::exclusive();
    failpoints::clear();
    let prog = Program::compile(&chaos_circuit(51));
    let opts = JitOptions {
        enabled: true,
        ..JitOptions::default()
    };
    let before = exec::mapped_bytes();
    let capped = JitOptions {
        max_code_bytes: 64,
        ..opts.clone()
    };
    assert!(matches!(
        jit::compile(&prog, 1, &capped),
        Err(JitError::Emit(EmitError::CodeTooLarge { cap: 64, .. }))
    ));
    assert_eq!(exec::mapped_bytes(), before, "cap hit mid-emission");
    failpoints::configure(Plan::parse("7:jit::protect=always"));
    assert!(matches!(
        jit::compile(&prog, 1, &opts),
        Err(JitError::Map(MapError::Protect(13)))
    ));
    assert_eq!(exec::mapped_bytes(), before, "mprotect refusal");
    failpoints::clear();
    let code = jit::compile(&prog, 1, &opts).expect("codegen without chaos");
    assert!(exec::mapped_bytes() > before);
    drop(code);
    assert_eq!(
        exec::mapped_bytes(),
        before,
        "unmapped with its last holder"
    );
}

/// The mapping layer's typed refusal: the scheduled errno comes back
/// verbatim (`@0` defaults to ENOMEM), and the site disarms once spent.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[test]
fn exec_buf_map_refusal_is_typed() {
    let _guard = failpoints::exclusive();
    let code = [0xc3u8]; // ret
    failpoints::configure(Plan::parse("7:jit::map=always@13"));
    assert!(matches!(ExecBuf::new(&code), Err(MapError::Map(13))));
    failpoints::configure(Plan::parse("7:jit::map=once"));
    assert!(
        matches!(ExecBuf::new(&code), Err(MapError::Map(12))),
        "@0 defaults to ENOMEM"
    );
    assert!(
        ExecBuf::new(&code).is_ok(),
        "a spent `once` site must let the real mapping through"
    );
    failpoints::clear();
}

/// `jit::compile` surfaces both chaos sites as the typed errors the
/// fallback layer keys on.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[test]
fn jit_compile_surfaces_typed_errors() {
    let _guard = failpoints::exclusive();
    let nl = chaos_circuit(31);
    let prog = Program::compile(&nl);
    let opts = JitOptions {
        enabled: true,
        ..JitOptions::default()
    };
    failpoints::configure(Plan::parse("7:jit::emit=always"));
    assert!(matches!(
        jit::compile(&prog, 1, &opts),
        Err(JitError::Emit(_))
    ));
    failpoints::configure(Plan::parse("7:jit::map=always@9"));
    assert!(matches!(
        jit::compile(&prog, 1, &opts),
        Err(JitError::Map(MapError::Map(9)))
    ));
    failpoints::clear();
}
