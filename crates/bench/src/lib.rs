//! Shared harness for regenerating every table and figure of the paper.
//!
//! Each `src/bin/figN.rs` / `src/bin/tableN.rs` binary prints the rows of
//! the corresponding exhibit; this library holds the common pipeline:
//! compile workload → extract subset → generate RISSP → measure activity on
//! the gate-level core → run the FlexIC flow.  See `EXPERIMENTS.md` at the
//! repository root for paper-vs-measured values.

pub mod service;

use flexic::tech::Tech;
use flexic::DesignMetrics;
use hwlib::HwLibrary;
use netlist::compiled::MAX_TOTAL_LANES;
use netlist::pool;
use netlist::stats::GateCounts;
use rissp::processor::{BatchedGateLevelCpu, GateLevelCpu};
use rissp::profile::InstructionSubset;
use rissp::Rissp;
use serv_model::{serv_gate_counts, ServTiming, SERV_ACTIVITY, SERV_CRITICAL_PATH_NS};
use workloads::Workload;
use xcc::OptLevel;

/// Gate-level simulation window used for switching-activity measurement.
pub const ACTIVITY_CYCLES: u64 = 1500;

/// Parses a `--threads N` (or `--threads=N`) knob from the process
/// arguments; defaults to 1 so the figure binaries stay single-threaded
/// unless asked. Thread counts only change wall-clock time, never results
/// — characterisation is deterministic per workload. An explicit but
/// unusable value (not a number, or zero) aborts instead of silently
/// running single-threaded.
pub fn threads_from_args() -> usize {
    let parse = |v: &str| -> usize {
        match v.parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("error: `--threads {v}` is not a positive integer");
                std::process::exit(2);
            }
        }
    };
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--threads" {
            let Some(v) = args.next() else {
                eprintln!("error: `--threads` needs a value");
                std::process::exit(2);
            };
            return parse(&v);
        }
        if let Some(v) = a.strip_prefix("--threads=") {
            return parse(v);
        }
    }
    1
}

/// A fully characterised design: the RISSP plus its FlexIC metrics.
pub struct CharacterisedDesign {
    /// `RISSP-<app>` or a baseline name.
    pub name: String,
    /// Number of distinct instructions supported.
    pub distinct: usize,
    /// The analysis-ready metrics.
    pub metrics: DesignMetrics,
}

/// Builds the RISSP for one workload (compiled at `-O2`, as §4.2 fixes) and
/// measures its switching activity by running the actual application
/// through the gates for [`ACTIVITY_CYCLES`] cycles.
pub fn characterise_workload(lib: &HwLibrary, w: &Workload, t: &Tech) -> CharacterisedDesign {
    let image = w.compile(OptLevel::O2).expect("workload compiles");
    let subset = InstructionSubset::from_words(&image.words);
    let rissp = Rissp::generate(lib, &subset);
    let mut cpu = GateLevelCpu::new(&rissp, 0);
    cpu.load_words(0, &image.words);
    for (base, words) in &image.data_segments {
        cpu.load_words(*base, words);
    }
    let _ = cpu.run(ACTIVITY_CYCLES);
    let activity = flexic::power::measured_activity(cpu.sim());
    CharacterisedDesign {
        name: format!("RISSP-{}", w.name),
        distinct: subset.len(),
        metrics: DesignMetrics::of_netlist(format!("RISSP-{}", w.name), &rissp.core, t, activity),
    }
}

/// Builds the `RISSP-RV32E` full-ISA baseline. Its activity is measured by
/// one batched gate-level run: the full evaluation suite executes on a
/// single lane-parallel core simulation (up to 512 lanes as a K-word lane
/// block), one workload per lane with per-lane
/// memory and register-file models. The α is normalised by the *committed*
/// cycle total (lanes that halt early stop contributing both toggles and
/// cycles), so it is the cycle-weighted average of the per-workload scalar
/// α values — methodologically identical to [`characterise_workload`],
/// just over the whole suite instead of one representative workload.
/// All lanes share one simulation, so the run is single-threaded.
pub fn characterise_rv32e(lib: &HwLibrary, t: &Tech) -> CharacterisedDesign {
    let rissp = Rissp::generate_full_isa(lib);
    let suite = workloads::all();
    assert!(
        suite.len() <= MAX_TOTAL_LANES,
        "evaluation suite ({} workloads) no longer fits one {MAX_TOTAL_LANES}-lane batch — chunk it",
        suite.len()
    );
    let images: Vec<_> = suite
        .iter()
        .map(|w| w.compile(OptLevel::O2).expect("workload compiles"))
        .collect();
    let entries = vec![0u32; images.len()];
    let mut cpu = BatchedGateLevelCpu::new(&rissp, &entries);
    for (lane, image) in images.iter().enumerate() {
        cpu.load_words(lane, 0, &image.words);
        for (base, words) in &image.data_segments {
            cpu.load_words(lane, *base, words);
        }
    }
    let _ = cpu.run(ACTIVITY_CYCLES);
    let activity = flexic::power::activity_from_counts(
        cpu.sim().toggles().iter().sum(),
        cpu.sim().toggles().len(),
        cpu.committed_cycles(),
        1,
    );
    CharacterisedDesign {
        name: "RISSP-RV32E".into(),
        distinct: riscv_isa::ALL_MNEMONICS.len(),
        metrics: DesignMetrics::of_netlist("RISSP-RV32E", &rissp.core, t, activity),
    }
}

/// Characterises several workloads, claimed one at a time off a shared
/// counter by `threads` threads ([`pool::claim_map`];
/// each workload's RISSP generation and gate-level activity run is
/// independent). Results are returned in input order and are identical
/// for every thread count — the knob only changes wall-clock time.
pub fn characterise_workloads(
    lib: &HwLibrary,
    ws: &[Workload],
    t: &Tech,
    threads: usize,
) -> Vec<CharacterisedDesign> {
    let mut ws: Vec<&Workload> = ws.iter().collect();
    pool::claim_map(threads, &mut ws, |_, w| characterise_workload(lib, w, t))
}

/// Builds the Serv baseline's metrics; its CPI is measured by running the
/// given workload through the bit-serial cycle model.
pub fn characterise_serv(cpi_workload: &Workload) -> CharacterisedDesign {
    let image = cpi_workload.compile(OptLevel::O2).expect("compiles");
    let cpi = ServTiming.measure_cpi(&image.words, &image.data_segments);
    CharacterisedDesign {
        name: "Serv".into(),
        distinct: riscv_isa::ALL_MNEMONICS.len(),
        metrics: DesignMetrics {
            name: "Serv".into(),
            counts: serv_gate_counts(),
            critical_path_ns: SERV_CRITICAL_PATH_NS,
            activity: SERV_ACTIVITY,
            cpi,
        },
    }
}

/// Counts the distinct instructions of a compiled image.
pub fn distinct_of(words: &[u32]) -> InstructionSubset {
    InstructionSubset::from_words(words)
}

/// Gate counts of a RISSP core.
pub fn counts_of(rissp: &Rissp) -> GateCounts {
    GateCounts::of(&rissp.core)
}

/// Prints a standard experiment header.
pub fn header(title: &str) {
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}
