//! Exactness of the time-parallel activity engine
//! ([`bench::activity::activity_run`]): on every workload the paper
//! pipeline characterises, on seeded random programs, and at budgets that
//! give every segment shape, its counts and activity f64 equal the
//! sequential `GateLevelCpu::run` reduced by
//! `flexic::power::measured_activity`, with no fallback; the whole suite
//! in one call on the full-ISA core equals one `BatchedGateLevelCpu` run
//! of it; on a sabotaged library and on a core missing an instruction the
//! program uses, it falls back to that sequential run and says so in
//! [`bench::activity::fallbacks`], image by image, but not for a sabotage
//! the sequential run never reads.

use bench::activity::{activity_run, fallbacks, ActivityRun};
use bench::ACTIVITY_CYCLES;
use hwlib::HwLibrary;
use netlist::Netlist;
use riscv_isa::Mnemonic;
use rissp::campaign::{random_program, sabotage_rd_data};
use rissp::processor::{BatchedGateLevelCpu, ExecError, GateLevelCpu};
use rissp::profile::InstructionSubset;
use rissp::Rissp;
use std::slice;
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
    let got = activity_run(core, slice::from_ref(image), max_cycles);
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

fn workload(name: &str) -> CompiledProgram {
    workloads::by_name(name)
        .expect(name)
        .compile(OptLevel::O2)
        .expect("compiles")
}

fn crc32() -> CompiledProgram {
    workload("crc32")
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
    // The seeds must cover a halt inside one batch (idle lanes) and
    // padded last segments.
    assert!(halts.iter().any(|&c| c < 64), "halts: {halts:?}");
    assert!(
        halts.iter().any(|&c| c > 64 && c % 64 != 0),
        "halts: {halts:?}"
    );
}

#[test]
fn every_budget_shape_matches_the_sequential_run() {
    let _serial = serial();
    let lib = HwLibrary::build_full();
    let before = fallbacks();
    // crc32 hits every budget without halting, so its last cycle's next
    // PC moves on: one batch, idle lanes, a padded last lane, and pad
    // lanes that must stay on the last PC.
    let image = crc32();
    let core = core_for(&lib, &InstructionSubset::from_words(&image.words));
    for budget in [1, 2, 63, 64, 65, 127, 128, 129, 1000, 4097] {
        let (result, _) = assert_exact(&core, &image, budget, &format!("crc32 at {budget}"));
        assert_eq!(result, Err(ExecError::StepLimit { cycles: budget }));
    }
    // A halting program on both sides of its halt.
    let (image, halt) = (0..64)
        .map(|seed| xcc::compile(&random_program(seed), OptLevel::O1).expect("compiles"))
        .find_map(|image| {
            let core = core_for(&lib, &InstructionSubset::from_words(&image.words));
            match sequential(&core, &image, ACTIVITY_CYCLES).0 {
                Ok(cycles) if cycles > 129 && cycles % 64 != 0 => Some((image, cycles)),
                _ => None,
            }
        })
        .expect("a random program halts after 129 cycles");
    let core = core_for(&lib, &InstructionSubset::from_words(&image.words));
    for budget in [halt - 1, halt, halt + 1, 4097] {
        let (result, run) =
            assert_exact(&core, &image, budget, &format!("halt {halt} at {budget}"));
        assert_eq!(run.cycles, budget.min(halt));
        assert_eq!(result.is_ok(), budget >= halt, "{result:?}");
    }
    assert_eq!(fallbacks(), before, "a budget fell back");
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
fn a_sabotage_the_sequential_run_never_reads_does_not_fall_back() {
    let _serial = serial();
    // `sw` writes no register, so the sequential run never reads its
    // `rd_data`: the lane checks must not either.
    let mut lib = HwLibrary::build_full();
    let bad = sabotage_rd_data(lib.block(Mnemonic::Sw));
    lib.replace_block(bad);
    let image = crc32();
    let subset = InstructionSubset::from_words(&image.words);
    assert!(subset.contains(Mnemonic::Sw));
    let core = core_for(&lib, &subset);
    let before = fallbacks();
    let _ = assert_exact(&core, &image, ACTIVITY_CYCLES, "sabotaged sw rd_data");
    assert_eq!(fallbacks(), before);
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

#[test]
fn the_suite_on_the_full_isa_core_matches_one_batched_run_without_fallback() {
    let _serial = serial();
    let lib = HwLibrary::build_full();
    let rissp = Rissp::generate_full_isa(&lib);
    let images: Vec<_> = workloads::all()
        .iter()
        .map(|w| w.compile(OptLevel::O2).expect("compiles"))
        .collect();

    // The reference: one workload per lane of one batched CPU, the α
    // normalised by the committed cycles of every lane.
    let mut cpu = BatchedGateLevelCpu::new(&rissp, &vec![0; images.len()]);
    for (lane, image) in images.iter().enumerate() {
        for (base, words) in image.segments() {
            cpu.load_words(lane, base, words);
        }
    }
    let _ = cpu.run(ACTIVITY_CYCLES);
    let toggles = cpu.sim().toggles();
    let want = ActivityRun {
        cycles: cpu.committed_cycles(),
        toggle_total: toggles.iter().sum(),
        nets: toggles.len(),
    };
    let alpha = flexic::power::activity_from_counts(want.toggle_total, want.nets, want.cycles, 1);

    let before = fallbacks();
    let got = activity_run(&Arc::new(rissp.core.clone()), &images, ACTIVITY_CYCLES);
    assert_eq!(got, want);
    assert_eq!(
        got.activity().to_bits(),
        alpha.to_bits(),
        "activity {} vs {alpha}",
        got.activity()
    );
    assert_eq!(fallbacks(), before, "a workload fell back");
}

#[test]
fn a_fallback_between_images_leaves_the_others_exact() {
    let _serial = serial();
    let lib = HwLibrary::build_full();
    // crc32 runs `xor`, armpit does not: on the union core without it,
    // only crc32 misses the prediction, and armpit runs again on the
    // simulator crc32's aborted batch left behind.
    let (a, b) = (workload("armpit"), crc32());
    let (sa, sb) = (
        InstructionSubset::from_words(&a.words),
        InstructionSubset::from_words(&b.words),
    );
    assert!(sb.contains(Mnemonic::Xor) && !sa.contains(Mnemonic::Xor));
    let subset: InstructionSubset = sa
        .union(&sb)
        .iter()
        .filter(|&m| m != Mnemonic::Xor)
        .collect();
    let core = core_for(&lib, &subset);
    let images = [a.clone(), b, a];

    let before = fallbacks();
    let got = activity_run(&core, &images, ACTIVITY_CYCLES);
    assert_eq!(fallbacks(), before + 1);
    let runs: Vec<_> = images
        .iter()
        .map(|image| sequential(&core, image, ACTIVITY_CYCLES).1)
        .collect();
    let want = ActivityRun {
        cycles: runs.iter().map(|r| r.cycles).sum(),
        toggle_total: runs.iter().map(|r| r.toggle_total).sum(),
        nets: runs[0].nets,
    };
    assert_eq!(got, want);
}
