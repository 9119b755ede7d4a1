//! Exactness of the time-parallel activity engine
//! ([`bench::activity::activity_run`]): on every workload the paper
//! pipeline characterises, and on seeded random programs, its counts and
//! activity f64 equal the sequential `GateLevelCpu::run` reduced by
//! `flexic::power::measured_activity`, with no fallback; on a sabotaged
//! library and on a core missing an instruction the program uses, it
//! falls back to that sequential run and says so in
//! [`bench::activity::fallbacks`].

use bench::activity::{activity_run, fallbacks, ActivityRun};
use bench::ACTIVITY_CYCLES;
use hwlib::HwLibrary;
use netlist::Netlist;
use riscv_isa::Mnemonic;
use rissp::campaign::{random_program, sabotage_rd_data};
use rissp::processor::{ExecError, GateLevelCpu};
use rissp::profile::InstructionSubset;
use rissp::Rissp;
use std::sync::{Arc, Mutex, MutexGuard};
use xcc::{CompiledProgram, OptLevel};

/// [`fallbacks`] is process-wide and the tests of this file run on
/// parallel threads: each test holds this lock, so the counter deltas it
/// asserts are its own.
static COUNTER: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    COUNTER.lock().unwrap_or_else(|e| e.into_inner())
}

/// The reference: a fresh sequential CPU's run, its counts, and the α
/// `measured_activity` reads off its simulator.
fn sequential(
    core: &Arc<Netlist>,
    image: &CompiledProgram,
    max_cycles: u64,
) -> (Result<u64, ExecError>, ActivityRun, f64) {
    let mut cpu = GateLevelCpu::with_core_arc(Arc::clone(core), 0);
    for (base, words) in image.segments() {
        cpu.load_words(base, words);
    }
    let result = cpu.run(max_cycles);
    let toggles = cpu.sim().toggles();
    let counts = ActivityRun {
        cycles: cpu.cycles(),
        toggle_total: toggles.iter().sum(),
        nets: toggles.len(),
    };
    (result, counts, flexic::power::measured_activity(cpu.sim()))
}

/// Asserts `activity_run` equals the sequential reference in every count
/// and in the activity's bits; returns the reference's outcome.
fn assert_exact(
    core: &Arc<Netlist>,
    image: &CompiledProgram,
    max_cycles: u64,
    what: &str,
) -> (Result<u64, ExecError>, ActivityRun) {
    let got = activity_run(core, image, max_cycles);
    let (result, want, alpha) = sequential(core, image, max_cycles);
    assert_eq!(got, want, "{what}: counts");
    assert_eq!(
        got.activity().to_bits(),
        alpha.to_bits(),
        "{what}: activity {} vs {alpha}",
        got.activity()
    );
    (result, got)
}

fn core_for(lib: &HwLibrary, subset: &InstructionSubset) -> Arc<Netlist> {
    Arc::new(Rissp::generate(lib, subset).core)
}

fn crc32() -> CompiledProgram {
    workloads::by_name("crc32")
        .expect("crc32")
        .compile(OptLevel::O2)
        .expect("compiles")
}

#[test]
fn every_workload_matches_the_sequential_run_without_fallback() {
    let _serial = serial();
    let lib = HwLibrary::build_full();
    let before = fallbacks();
    for w in workloads::all() {
        let image = w.compile(OptLevel::O2).expect("compiles");
        let core = core_for(&lib, &InstructionSubset::from_words(&image.words));
        let _ = assert_exact(&core, &image, ACTIVITY_CYCLES, w.name);
    }
    assert_eq!(fallbacks(), before, "a workload fell back");
}

#[test]
fn random_programs_match_the_sequential_run_without_fallback() {
    let _serial = serial();
    let lib = HwLibrary::build_full();
    let images: Vec<_> = (0..64)
        .map(|seed| xcc::compile(&random_program(seed), OptLevel::O1).expect("compiles"))
        .collect();
    // One core for all, as the fuzz campaign builds per wave: the union
    // of the programs' subsets.
    let union = images.iter().fold(InstructionSubset::new(), |u, image| {
        u.union(&InstructionSubset::from_words(&image.words))
    });
    let core = core_for(&lib, &union);
    let before = fallbacks();
    let mut halts = Vec::new();
    for (seed, image) in images.iter().enumerate() {
        let what = format!("seed {seed}");
        match assert_exact(&core, image, ACTIVITY_CYCLES, &what) {
            (Ok(cycles), run) => {
                assert_eq!(cycles, run.cycles, "{what}");
                halts.push(cycles);
            }
            (Err(ExecError::StepLimit { cycles }), _) => assert_eq!(cycles, ACTIVITY_CYCLES),
            (Err(e), _) => panic!("{what}: {e}"),
        }
    }
    assert_eq!(fallbacks(), before, "a random program fell back");
    // The seeds must cover a halt inside the first batch and partly
    // filled tail batches.
    assert!(halts.iter().any(|&c| c < 64), "halts: {halts:?}");
    assert!(
        halts.iter().any(|&c| c > 64 && c % 64 != 0),
        "halts: {halts:?}"
    );
}

#[test]
fn a_sabotaged_block_falls_back_to_the_sequential_run() {
    let _serial = serial();
    let mut lib = HwLibrary::build_full();
    let bad = sabotage_rd_data(lib.block(Mnemonic::Addi));
    lib.replace_block(bad);
    let image = crc32();
    let subset = InstructionSubset::from_words(&image.words);
    assert!(subset.contains(Mnemonic::Addi));
    let core = core_for(&lib, &subset);
    let before = fallbacks();
    let _ = assert_exact(&core, &image, ACTIVITY_CYCLES, "sabotaged addi");
    assert_eq!(fallbacks(), before + 1);
}

#[test]
fn a_missing_instruction_falls_back_to_the_faulting_sequential_run() {
    let _serial = serial();
    let lib = HwLibrary::build_full();
    let image = crc32();
    let full = InstructionSubset::from_words(&image.words);
    assert!(full.contains(Mnemonic::Lui));
    let subset: InstructionSubset = full.iter().filter(|&m| m != Mnemonic::Lui).collect();
    let core = core_for(&lib, &subset);
    let before = fallbacks();
    let (result, _) = assert_exact(&core, &image, ACTIVITY_CYCLES, "no lui");
    assert!(
        matches!(result, Err(ExecError::Unsupported { .. })),
        "{result:?}"
    );
    assert_eq!(fallbacks(), before + 1);
}
