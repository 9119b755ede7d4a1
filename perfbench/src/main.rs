//! Benchmark binary for the RISSP reproduction.
//!
//! `run.py` is the entry point; it builds this binary and starts one
//! fresh process per timed repetition, so every repetition begins with a
//! cold process-wide `ProgramCache` and worker pool. Every such process
//! runs under `perfbench exec` (see `launch.rs`). Each other mode does
//! its set-up, times its work, and prints one JSON line on stdout:
//!
//! ```text
//! perfbench exec <program> [args...]
//! perfbench host
//! perfbench calibrate
//! perfbench pipeline-setup --seed N
//! perfbench mutation --seed N
//! perfbench mutation-reference --seed N
//! perfbench fuzz-plan --seed N
//! perfbench fuzz --bases B1,B2
//! perfbench service --seed N
//! perfbench trace --seed N --spans <dir> --golden <dir>
//! ```
//!
//! Only public functions of the repository's crates are called; no
//! tracing is added inside the program.

mod calib;
mod launch;
mod service;
mod span;
mod walk;

use hwlib::campaign::{lane_mutation_coverage, library_mutation_coverage, CampaignConfig};
use hwlib::mutate::{mutation_coverage, CoverageReport};
use hwlib::HwLibrary;
use netlist::{CacheStats, ProgramCache};
use riscv_emu::Emulator;
use rissp::campaign::{differential_fuzz, random_program, FuzzConfig};
use rissp::processor::GateLevelCpu;
use rissp::profile::InstructionSubset;
use rissp::Rissp;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;
use xcc::OptLevel;

/// Lanes per mutation sweep: 255 mutants plus the reference lane, one
/// K=4 lane block.
pub const MUTATION_LANES: usize = 256;
/// Mutants sampled per block: every block's full mutant set, 27 701
/// mutants in 133 chunks.
pub const MUTATION_LIMIT: usize = 1024;
/// Program seeds per differential-fuzz wave.
pub const FUZZ_LANES: usize = 64;
/// One-wave campaigns per fuzz repetition.
pub const FUZZ_WAVES: usize = 2;

/// Builds one flat JSON object.
#[derive(Default)]
pub struct Json(String);

impl Json {
    fn key(&mut self, k: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "\"{k}\":");
    }
    pub fn num(mut self, k: &str, v: f64) -> Json {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.0, "{v:e}");
        } else {
            self.0.push_str("null");
        }
        self
    }
    pub fn int(mut self, k: &str, v: u64) -> Json {
        self.key(k);
        let _ = write!(self.0, "{v}");
        self
    }
    pub fn boolean(mut self, k: &str, v: bool) -> Json {
        self.key(k);
        let _ = write!(self.0, "{v}");
        self
    }
    pub fn list(mut self, k: &str, vs: &[f64]) -> Json {
        self.key(k);
        self.0.push('[');
        for (i, v) in vs.iter().enumerate() {
            let _ = write!(self.0, "{}{v:.3}", if i == 0 { "" } else { "," });
        }
        self.0.push(']');
        self
    }
    pub fn object(mut self, k: &str, inner: Json) -> Json {
        self.key(k);
        let s = inner.finish();
        self.0.push_str(&s);
        self
    }
    pub fn finish(mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        self.0
    }
}

/// SplitMix64 step: the benchmark's only random stream, so every input
/// is a function of `--seed`.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A per-purpose seed derived from the command-line seed.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut s = seed ^ salt.wrapping_mul(0xa076_1d64_78bd_642f);
    splitmix(&mut s)
}

/// Counter deltas of the process-wide program cache.
pub fn cache_delta(before: CacheStats, after: CacheStats) -> Json {
    Json::default()
        .int("hits", after.hits - before.hits)
        .int("misses", after.misses - before.misses)
        .int("evictions", after.evictions - before.evictions)
}

pub struct Args {
    pub mode: String,
    pub seed: u64,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let mode = it.next().ok_or("missing mode")?;
        let mut flags = Vec::new();
        while let Some(k) = it.next() {
            let name = k
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{k}`"))?;
            let v = it.next().ok_or_else(|| format!("`{k}` needs a value"))?;
            flags.push((name.to_string(), v));
        }
        let mut a = Args {
            mode,
            seed: 0,
            flags,
        };
        a.seed = a.get("seed", Some(0))?;
        Ok(a)
    }

    pub fn get<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.flags.iter().rev().find(|(k, _)| k == name) {
            Some((_, v)) => v.parse().map_err(|_| format!("bad --{name} `{v}`")),
            None => default.ok_or_else(|| format!("missing --{name}")),
        }
    }

    pub fn text(&self, name: &str) -> Result<String, String> {
        self.get::<String>(name, None)
    }
}

/// The set-up the paper pipeline does before its first simulated cycle:
/// the instruction-block library, the FlexIC technology, the 25
/// workloads compiled at `-O2`, and each workload's RISSP generated and
/// loaded into a gate-level CPU, which compiles its program.
fn pipeline_setup(_: &Args) -> Result<String, String> {
    let t0 = Instant::now();
    let lib = HwLibrary::build_full();
    let tech = flexic::tech::Tech::flexic_gen();
    let cpus: Vec<GateLevelCpu> = workloads::all()
        .iter()
        .map(|w| {
            let image = w.compile(OptLevel::O2).expect("workload compiles");
            let rissp = Rissp::generate(&lib, &InstructionSubset::from_words(&image.words));
            let mut cpu = GateLevelCpu::new(&rissp, 0);
            cpu.load_words(0, &image.words);
            for (base, words) in &image.data_segments {
                cpu.load_words(*base, words);
            }
            cpu
        })
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();
    black_box((&lib, &tech, &cpus));
    Ok(Json::default().num("setup_s", setup_s).finish())
}

pub fn mutation_config(seed: u64, threads: usize) -> CampaignConfig {
    CampaignConfig {
        limit: MUTATION_LIMIT,
        seed: derive(seed, 1),
        lanes: MUTATION_LANES,
        threads,
    }
}

/// Mutants per block in the library-wide reference check: the first
/// draws of each block's seeded sample.
const REFERENCE_PREFIX: usize = 128;

/// The scalar MCY loop (`hwlib::mutate::mutation_coverage`), which the
/// lane-parallel campaign must match bit for bit.
pub struct Reference {
    /// A block chosen by seed, and the scalar report on its full sample.
    pub block: usize,
    pub report: CoverageReport,
    /// Blocks whose lane-parallel report on the first
    /// [`REFERENCE_PREFIX`] mutants differs from the scalar loop's.
    pub mismatches: u64,
}

pub fn reference(lib: &HwLibrary, cfg: &CampaignConfig) -> Reference {
    let block = reference_block(lib, cfg);
    let b = lib.iter().nth(block).expect("index below library size");
    let mismatches = lib
        .iter()
        .filter(|b| {
            lane_mutation_coverage(b, REFERENCE_PREFIX, cfg.seed, cfg.lanes)
                != mutation_coverage(b, REFERENCE_PREFIX, cfg.seed)
        })
        .count() as u64;
    Reference {
        block,
        report: mutation_coverage(b, cfg.limit, cfg.seed),
        mismatches,
    }
}

fn reference_block(lib: &HwLibrary, cfg: &CampaignConfig) -> usize {
    (derive(cfg.seed, 5) % lib.len() as u64) as usize
}

fn report_json(block: usize, r: CoverageReport) -> Json {
    Json::default()
        .int("block", block as u64)
        .int("generated", r.generated as u64)
        .int("observable", r.observable as u64)
        .int("killed", r.killed as u64)
}

/// FNV-1a over every block's (generated, observable, killed), in library
/// order: one exact count that pins each block's verdicts.
pub fn verdict_digest(reports: impl Iterator<Item = CoverageReport>) -> u64 {
    reports
        .flat_map(|r| [r.generated, r.observable, r.killed])
        .fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ v as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

fn mutation(a: &Args) -> Result<String, String> {
    let t0 = Instant::now();
    let lib = HwLibrary::build_full();
    let cfg = mutation_config(a.seed, 2);
    let setup_s = t0.elapsed().as_secs_f64();
    let before = ProgramCache::global().stats();
    let t = Instant::now();
    let cov = library_mutation_coverage(&lib, &cfg);
    let run_s = t.elapsed().as_secs_f64();
    let after = ProgramCache::global().stats();
    let probe = reference_block(&lib, &cfg);

    let (mut generated, mut observable, mut killed, mut chunks) = (0, 0, 0, 0);
    for b in &cov {
        let r = b.report;
        generated += r.generated;
        observable += r.observable;
        killed += r.killed;
        chunks += r.generated.div_ceil(MUTATION_LANES - 1);
    }
    Ok(Json::default()
        .num("setup_s", setup_s)
        .num("run_s", run_s)
        // Verdicts are checked by the caller: the probed block against
        // `mutation-reference`, every block against the golden counts.
        .int("attempted", cov.len() as u64)
        .int("failed", 0)
        .object(
            "counts",
            Json::default()
                .int("blocks", cov.len() as u64)
                .int("mutants", generated as u64)
                .int("observable", observable as u64)
                .int("killed", killed as u64)
                .int("chunks", chunks as u64)
                .int("verdicts_fnv", verdict_digest(cov.iter().map(|b| b.report))),
        )
        .object("reference", report_json(probe, cov[probe].report))
        .object("cache", cache_delta(before, after))
        .finish())
}

fn mutation_reference(a: &Args) -> Result<String, String> {
    let lib = HwLibrary::build_full();
    let r = reference(&lib, &mutation_config(a.seed, 1));
    Ok(Json::default()
        .object("probe", report_json(r.block, r.report))
        .int("blocks", lib.len() as u64)
        .int("mismatches", r.mismatches)
        .finish())
}

/// Batched cycles and program cycles of one fuzz wave, each held to
/// within 4 %. A wave settles until its slowest program halts, so a
/// seed's campaign cost follows these two counts, not its program count;
/// fixing them keeps the work of a repetition close for every seed.
const WAVE_STEPS: u64 = 6_000;
const WAVE_CYCLES: u64 = 45_000;

pub fn fuzz_config(base: u64) -> FuzzConfig {
    FuzzConfig {
        iterations: FUZZ_LANES as u64,
        seed: base,
        lanes: FUZZ_LANES,
        opt_level: OptLevel::O1,
        ..FuzzConfig::default()
    }
}

/// Base seeds of [`FUZZ_WAVES`] one-wave campaigns of the target size,
/// drawn from `seed`. Sizes come from the reference emulator, not the
/// gates.
pub fn fuzz_plan(seed: u64) -> Vec<u64> {
    let cfg = fuzz_config(0);
    let (max_steps, max_cycles) = (WAVE_STEPS + WAVE_STEPS / 25, WAVE_CYCLES + WAVE_CYCLES / 25);
    let mut rng = derive(seed, 2);
    let mut bases = Vec::new();
    while bases.len() < FUZZ_WAVES {
        let base = splitmix(&mut rng) >> 1;
        let (mut steps, mut cycles) = (0, 0);
        for s in base..base + FUZZ_LANES as u64 {
            let image = xcc::compile(&random_program(s), cfg.opt_level)
                .expect("generated programs compile");
            let mut emu = Emulator::with_entry(xcc::CODE_BASE);
            image.load(&mut emu);
            let r = emu
                .run(cfg.max_cycles)
                .expect("generated programs never fault")
                .retired
                + 1;
            steps = steps.max(r);
            cycles += r;
            if steps > max_steps || cycles > max_cycles {
                break;
            }
        }
        if steps.abs_diff(WAVE_STEPS) <= WAVE_STEPS / 25
            && cycles.abs_diff(WAVE_CYCLES) <= WAVE_CYCLES / 25
        {
            bases.push(base);
        }
    }
    bases
}

fn plan_fuzz(a: &Args) -> Result<String, String> {
    let bases = fuzz_plan(a.seed);
    let list: Vec<String> = bases.iter().map(u64::to_string).collect();
    Ok(format!("{{\"bases\":\"{}\"}}", list.join(",")))
}

fn fuzz(a: &Args) -> Result<String, String> {
    let t0 = Instant::now();
    let lib = HwLibrary::build_full();
    let bases = a
        .text("bases")?
        .split(',')
        .map(|b| b.parse::<u64>().map_err(|_| format!("bad base seed `{b}`")))
        .collect::<Result<Vec<_>, _>>()?;
    let setup_s = t0.elapsed().as_secs_f64();
    let before = ProgramCache::global().stats();
    let t = Instant::now();
    let reports: Vec<_> = bases
        .iter()
        .map(|&b| differential_fuzz(&lib, &fuzz_config(b)))
        .collect();
    let run_s = t.elapsed().as_secs_f64();
    let after = ProgramCache::global().stats();
    let programs: u64 = reports.iter().map(|r| r.programs).sum();
    let divergences: u64 = reports.iter().map(|r| r.reproducers.len() as u64).sum();
    Ok(Json::default()
        .num("setup_s", setup_s)
        .num("run_s", run_s)
        .int("attempted", programs)
        .int("failed", divergences)
        .object(
            "counts",
            Json::default()
                .int("programs", programs)
                .int("waves", reports.iter().map(|r| r.waves as u64).sum())
                .int("divergences", divergences),
        )
        .object("cache", cache_delta(before, after))
        .finish())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The launcher's arguments are a command line, not `--flag value`s.
    if argv.first().map(String::as_str) == Some("exec") {
        return finish(launch::run(&argv[1..]));
    }
    finish(Args::parse().and_then(|a| {
        match a.mode.as_str() {
            "host" => Ok(Json::default()
                .boolean("jit_host_supported", netlist::jit::host_supported())
                .finish()),
            "calibrate" => calib::run(),
            "pipeline-setup" => pipeline_setup(&a),
            "mutation" => mutation(&a),
            "mutation-reference" => mutation_reference(&a),
            "fuzz-plan" => plan_fuzz(&a),
            "fuzz" => fuzz(&a),
            "service" => service::run(&a),
            "trace" => walk::run(&a),
            other => Err(format!("unknown mode `{other}`")),
        }
    }))
}

fn finish(result: Result<String, String>) {
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
