//! Campaign driver: mass mutation coverage, differential fuzzing, and
//! compliance sweeps from one CLI entry point.
//!
//! ```text
//! campaign smoke                      # bounded CI sweep: all three runners, pinned seeds
//! campaign mutation [--limit N] [--seed S] [--lanes L] [--threads T]
//!                   [--checkpoint PATH [--resume] [--max-chunks N]]
//! campaign fuzz [--iterations N] [--seed S] [--lanes L] [--opt 0..4] [--max-cycles N]
//!               [--checkpoint PATH [--resume] [--max-waves N]]
//! campaign compliance
//! ```
//!
//! Every runner is seeded and deterministic; see `docs/campaigns.md` for
//! the campaign semantics (fault dropping on cones, divergence contract,
//! seed pinning, checkpoint formats). The exit status distinguishes the
//! ways a run can stop:
//!
//! | code | meaning |
//! | --- | --- |
//! | 0 | campaign ran to completion and the verdict passed |
//! | 1 | campaign ran to completion and the verdict **failed** (survivors / divergences / mismatches) |
//! | 2 | usage error (bad flags) |
//! | 3 | runtime error (unreadable/corrupt/mismatched checkpoint, persistence failure) |
//! | 4 | interrupted by `--max-chunks`/`--max-waves` with progress checkpointed |
//!
//! `--checkpoint PATH` persists chunk-/wave-grained progress atomically
//! after every unit of work; `--resume` picks an existing checkpoint
//! back up (a checkpoint written under different campaign knobs is a
//! runtime error, never a silent restart). A resumed campaign's report
//! is bit-identical to an uninterrupted one.

use hwlib::campaign::{
    library_mutation_coverage, library_mutation_coverage_checkpointed, BlockCoverage,
    CampaignConfig, MutationCheckpoint, SweepOutcome,
};
use hwlib::HwLibrary;
use rissp::campaign::{
    compliance_corpus, compliance_sweep, differential_fuzz, differential_fuzz_resumable,
    FuzzCheckpoint, FuzzConfig, FuzzOutcome, FuzzReport,
};
use std::path::PathBuf;
use std::time::Instant;
use xcc::OptLevel;

/// Verdict passed.
const EXIT_PASS: i32 = 0;
/// Verdict failed (survivors, divergences, or compliance mismatches).
const EXIT_VERDICT: i32 = 1;
/// Usage error.
const EXIT_USAGE: i32 = 2;
/// Runtime error (checkpoint load/save/mismatch).
const EXIT_RUNTIME: i32 = 3;
/// Interrupted by a work budget, progress checkpointed.
const EXIT_INTERRUPTED: i32 = 4;

fn usage() -> ! {
    eprintln!(
        "usage: campaign smoke\n\
         \x20      campaign mutation [--limit N] [--seed S] [--lanes L] [--threads T]\n\
         \x20                        [--checkpoint PATH [--resume] [--max-chunks N]]\n\
         \x20      campaign fuzz [--iterations N] [--seed S] [--lanes L] [--opt 0..4] [--max-cycles N]\n\
         \x20                    [--checkpoint PATH [--resume] [--max-waves N]]\n\
         \x20      campaign compliance"
    );
    std::process::exit(EXIT_USAGE);
}

fn parse<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage())
}

/// Checkpoint-related flags shared by `mutation` and `fuzz`.
#[derive(Default)]
struct CheckpointOpts {
    path: Option<PathBuf>,
    resume: bool,
    budget: Option<usize>,
}

impl CheckpointOpts {
    /// `--resume` / budget flags without `--checkpoint` are usage errors:
    /// an interruption without persistence would just discard work.
    fn validate(&self) {
        if self.path.is_none() && (self.resume || self.budget.is_some()) {
            usage();
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let code = match args.next().as_deref() {
        Some("smoke") => smoke(),
        Some("mutation") => {
            let mut cfg = CampaignConfig::default();
            let mut opts = CheckpointOpts::default();
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--limit" => cfg.limit = parse(&mut args),
                    "--seed" => cfg.seed = parse(&mut args),
                    "--lanes" => cfg.lanes = parse(&mut args),
                    "--threads" => cfg.threads = parse(&mut args),
                    "--checkpoint" => opts.path = Some(parse(&mut args)),
                    "--resume" => opts.resume = true,
                    "--max-chunks" => opts.budget = Some(parse(&mut args)),
                    _ => usage(),
                }
            }
            opts.validate();
            mutation(&cfg, &opts)
        }
        Some("fuzz") => {
            let mut cfg = FuzzConfig::default();
            let mut opts = CheckpointOpts::default();
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--iterations" => cfg.iterations = parse(&mut args),
                    "--seed" => cfg.seed = parse(&mut args),
                    "--lanes" => cfg.lanes = parse(&mut args),
                    "--max-cycles" => cfg.max_cycles = parse(&mut args),
                    "--opt" => cfg.opt_level = OptLevel::ALL[parse::<usize>(&mut args).min(4)],
                    "--checkpoint" => opts.path = Some(parse(&mut args)),
                    "--resume" => opts.resume = true,
                    "--max-waves" => opts.budget = Some(parse(&mut args)),
                    _ => usage(),
                }
            }
            opts.validate();
            fuzz(&cfg, &opts)
        }
        Some("compliance") => {
            if compliance() {
                EXIT_PASS
            } else {
                EXIT_VERDICT
            }
        }
        _ => usage(),
    };
    std::process::exit(code);
}

/// The bounded CI sweep: every runner with pinned seeds, sized to finish
/// well under a minute on a shared runner. The mutation leg takes every
/// mutant of every block (no block has more than 1024), so each push
/// checks the whole library against the MCY admission bar.
fn smoke() -> i32 {
    let mutation_cfg = CampaignConfig {
        limit: 1024,
        seed: 0xca3b_a161,
        ..CampaignConfig::default()
    };
    let fuzz_cfg = FuzzConfig {
        iterations: 64,
        lanes: 64,
        ..FuzzConfig::default()
    };
    let none = CheckpointOpts::default();
    let codes = [
        mutation(&mutation_cfg, &none),
        fuzz(&fuzz_cfg, &none),
        if compliance() {
            EXIT_PASS
        } else {
            EXIT_VERDICT
        },
    ];
    codes.into_iter().max().unwrap_or(EXIT_PASS)
}

/// Loads (or freshly creates) a checkpoint bound to the current config.
/// A `--resume` against a checkpoint written under different knobs is a
/// runtime error; without `--resume` any existing file is overwritten.
fn load_checkpoint<C>(
    opts: &CheckpointOpts,
    fresh: impl FnOnce() -> C,
    load: impl FnOnce(&std::path::Path) -> std::io::Result<Option<C>>,
    matches: impl FnOnce(&C) -> bool,
) -> Result<C, i32> {
    let Some(path) = &opts.path else {
        return Ok(fresh());
    };
    if !opts.resume {
        return Ok(fresh());
    }
    match load(path) {
        Ok(None) => Ok(fresh()),
        Ok(Some(ckpt)) if matches(&ckpt) => {
            eprintln!("campaign: resuming from {}", path.display());
            Ok(ckpt)
        }
        Ok(Some(_)) => {
            eprintln!(
                "campaign: checkpoint {} was written under different campaign knobs; \
                 refusing to resume (delete it or rerun with matching flags)",
                path.display()
            );
            Err(EXIT_RUNTIME)
        }
        Err(e) => {
            eprintln!("campaign: cannot load checkpoint {}: {e}", path.display());
            Err(EXIT_RUNTIME)
        }
    }
}

fn mutation(cfg: &CampaignConfig, opts: &CheckpointOpts) -> i32 {
    eprintln!(
        "campaign: mutation sweep (limit {}, seed {:#x}, {} lanes, {} threads)",
        cfg.limit, cfg.seed, cfg.lanes, cfg.threads
    );
    let lib = HwLibrary::build_full();
    let start = Instant::now();
    let reports = if opts.path.is_some() || opts.budget.is_some() {
        let mut ckpt = match load_checkpoint(
            opts,
            || MutationCheckpoint::new(cfg),
            MutationCheckpoint::load,
            |c| c.matches(cfg),
        ) {
            Ok(c) => c,
            Err(code) => return code,
        };
        match library_mutation_coverage_checkpointed(
            &lib,
            cfg,
            &mut ckpt,
            opts.path.as_deref(),
            opts.budget,
        ) {
            Ok(SweepOutcome::Complete(reports)) => reports,
            Ok(SweepOutcome::Interrupted { chunks_run }) => {
                eprintln!(
                    "campaign: interrupted after {chunks_run} chunk(s); progress checkpointed"
                );
                return EXIT_INTERRUPTED;
            }
            Err(e) => {
                eprintln!("campaign: checkpoint persistence failed: {e}");
                return EXIT_RUNTIME;
            }
        }
    } else {
        library_mutation_coverage(&lib, cfg)
    };
    if report_mutation(&reports, start.elapsed().as_secs_f64()) {
        EXIT_PASS
    } else {
        EXIT_VERDICT
    }
}

/// Prints the per-block coverage table; true when no observable mutant
/// survived.
fn report_mutation(reports: &[BlockCoverage], elapsed: f64) -> bool {
    let mut ok = true;
    let (mut generated, mut observable, mut killed) = (0usize, 0usize, 0usize);
    println!(
        "{:<8} {:>9} {:>10} {:>6} {:>9}",
        "block", "generated", "observable", "killed", "coverage"
    );
    for bc in reports {
        let r = &bc.report;
        generated += r.generated;
        observable += r.observable;
        killed += r.killed;
        let survived = r.observable - r.killed;
        println!(
            "{:<8} {:>9} {:>10} {:>6} {:>8.0}%{}",
            bc.mnemonic,
            r.generated,
            r.observable,
            r.killed,
            r.coverage() * 100.0,
            if survived > 0 { "  <-- SURVIVORS" } else { "" }
        );
        ok &= survived == 0;
    }
    println!(
        "total: {generated} mutants, {observable} observable, {killed} killed \
         in {elapsed:.2}s ({:.0} mutants/sec)",
        generated as f64 / elapsed.max(1e-9)
    );
    ok
}

fn fuzz(cfg: &FuzzConfig, opts: &CheckpointOpts) -> i32 {
    eprintln!(
        "campaign: differential fuzz ({} programs, seed {:#x}, {} lanes, {:?})",
        cfg.iterations, cfg.seed, cfg.lanes, cfg.opt_level
    );
    let lib = HwLibrary::build_full();
    let start = Instant::now();
    let report = if opts.path.is_some() || opts.budget.is_some() {
        let mut ckpt = match load_checkpoint(
            opts,
            || FuzzCheckpoint::new(cfg),
            FuzzCheckpoint::load,
            |c| c.matches(cfg),
        ) {
            Ok(c) => c,
            Err(code) => return code,
        };
        match differential_fuzz_resumable(&lib, cfg, &mut ckpt, opts.path.as_deref(), opts.budget) {
            Ok(FuzzOutcome::Complete(report)) => report,
            Ok(FuzzOutcome::Interrupted { waves_run }) => {
                eprintln!("campaign: interrupted after {waves_run} wave(s); progress checkpointed");
                return EXIT_INTERRUPTED;
            }
            Err(e) => {
                eprintln!("campaign: checkpoint persistence failed: {e}");
                return EXIT_RUNTIME;
            }
        }
    } else {
        differential_fuzz(&lib, cfg)
    };
    if report_fuzz(&report, start.elapsed().as_secs_f64()) {
        EXIT_PASS
    } else {
        EXIT_VERDICT
    }
}

/// Prints the fuzz summary and reproducers; true when nothing diverged.
fn report_fuzz(report: &FuzzReport, elapsed: f64) -> bool {
    println!(
        "fuzz: {} programs in {} waves (widest {}) in {elapsed:.2}s — {} divergence(s)",
        report.programs,
        report.waves,
        report.max_wave_width,
        report.reproducers.len()
    );
    for r in &report.reproducers {
        println!("\n--- reproducer ---\n{}", r.listing);
    }
    report.reproducers.is_empty()
}

fn compliance() -> bool {
    eprintln!("campaign: riscof compliance sweep");
    let lib = HwLibrary::build_full();
    let cases = compliance_corpus();
    let start = Instant::now();
    match compliance_sweep(&lib, &cases, 100_000) {
        Ok(reports) => {
            for (name, r) in &reports {
                println!(
                    "{name:<14} {} cycles, {} ref instructions, {}-word signature",
                    r.dut_cycles,
                    r.ref_instructions,
                    r.signature.len()
                );
            }
            println!(
                "compliance: {} case(s) passed in {:.2}s",
                reports.len(),
                start.elapsed().as_secs_f64()
            );
            true
        }
        Err((name, e)) => {
            println!("compliance: {name} FAILED: {e}");
            false
        }
    }
}
