//! Shared harness for regenerating every table and figure of the paper.
//!
//! Each `src/bin/figN.rs` / `src/bin/tableN.rs` binary prints the rows of
//! the corresponding exhibit; this library holds the common pipeline:
//! compile workload → extract subset → generate RISSP → measure activity on
//! the gate-level core → run the FlexIC flow.  Each bin ends with
//! "summary vs paper" lines; `perfbench/golden/` holds every bin's
//! expected stdout byte for byte, and the README's CI paragraph describes
//! the `exhibits` job that diffs against it.

use flexic::tech::Tech;
use flexic::DesignMetrics;
use hwlib::HwLibrary;
use netlist::stats::GateCounts;
use rissp::profile::InstructionSubset;
use rissp::Rissp;
use serv_model::{serv_gate_counts, ServTiming, SERV_ACTIVITY, SERV_CRITICAL_PATH_NS};
use std::slice;
use std::sync::Arc;
use workloads::Workload;
use xcc::OptLevel;

pub mod activity;

/// Gate-level simulation window used for switching-activity measurement.
pub const ACTIVITY_CYCLES: u64 = 1500;

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
/// through the gates for [`ACTIVITY_CYCLES`] cycles
/// ([`activity::activity_run`]: the sequential run's counts, settled as
/// 64 contiguous segments of cycles, one per lane).
pub fn characterise_workload(lib: &HwLibrary, w: &Workload, t: &Tech) -> CharacterisedDesign {
    let image = w.compile(OptLevel::O2).expect("workload compiles");
    let subset = InstructionSubset::from_words(&image.words);
    let core = Arc::new(Rissp::generate(lib, &subset).core);
    let activity =
        activity::activity_run(&core, slice::from_ref(&image), ACTIVITY_CYCLES).activity();
    CharacterisedDesign {
        name: format!("RISSP-{}", w.name),
        distinct: subset.len(),
        metrics: DesignMetrics::of_netlist(format!("RISSP-{}", w.name), &core, t, activity),
    }
}

/// Builds the `RISSP-RV32E` full-ISA baseline. Its activity is measured
/// by running the whole evaluation suite through the full-ISA core, each
/// workload for [`ACTIVITY_CYCLES`] cycles in one [`activity::activity_run`]
/// call. The α divides the suite's summed toggles by its summed cycles,
/// so it is the cycle-weighted average of the per-workload α values —
/// methodologically identical to [`characterise_workload`], just over the
/// whole suite instead of one representative workload.
pub fn characterise_rv32e(lib: &HwLibrary, t: &Tech) -> CharacterisedDesign {
    let core = Arc::new(Rissp::generate(lib, &InstructionSubset::full_isa()).core);
    let images: Vec<_> = workloads::all()
        .iter()
        .map(|w| w.compile(OptLevel::O2).expect("workload compiles"))
        .collect();
    let activity = activity::activity_run(&core, &images, ACTIVITY_CYCLES).activity();
    CharacterisedDesign {
        name: "RISSP-RV32E".into(),
        distinct: riscv_isa::ALL_MNEMONICS.len(),
        metrics: DesignMetrics::of_netlist("RISSP-RV32E", &core, t, activity),
    }
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
