//! Cross-crate integration tests: the complete methodology exercised end to
//! end — compile → profile → generate → verify → execute → analyse.

use hwlib::HwLibrary;
use rissp::processor::GateLevelCpu;
use rissp::profile::InstructionSubset;
use rissp::Rissp;
use xcc::OptLevel;

/// The three extreme-edge applications run on their own RISSPs at gate
/// level and match the reference emulator exactly (the paper's RISCOF +
/// RVFI integration verification, applied to real applications).
#[test]
fn extreme_edge_apps_run_on_their_risps() {
    let library = HwLibrary::build_full();
    for w in workloads::extreme_edge() {
        let image = w.compile(OptLevel::O2).unwrap();
        let subset = InstructionSubset::from_words(&image.words);
        let rissp = Rissp::generate(&library, &subset);

        let mut cpu = GateLevelCpu::new(&rissp, 0);
        cpu.load_words(0, &image.words);
        for (base, words) in &image.data_segments {
            cpu.load_words(*base, words);
        }
        let mut emu = riscv_emu::Emulator::new();
        image.load(&mut emu);
        let run = emu.run(100_000_000).unwrap();
        assert_eq!(run.halt, riscv_emu::HaltReason::SelfLoop, "{}", w.name);
        let cycles = cpu
            .run(100_000_000)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(cpu.reg(10), emu.state().regs[10], "{} checksum", w.name);
        // Single-cycle: cycles == retired instructions (+ the halting jal).
        assert_eq!(cycles, run.retired + 1, "{} CPI must be 1", w.name);
    }
}

/// RVFI bounded verification passes for a representative workload: the
/// gate-level trace satisfies the riscv-formal properties and matches the
/// reference trace retirement for retirement.
#[test]
fn rvfi_bounded_check_on_real_workload() {
    let library = HwLibrary::build_full();
    let w = workloads::by_name("statemate").unwrap();
    let image = w.compile(OptLevel::O1).unwrap();
    let subset = InstructionSubset::from_words(&image.words);
    let rissp = Rissp::generate(&library, &subset);

    // Load data through a CPU first so the words exist in the image; the
    // verifier needs a flat program, so splice data into one memory image.
    let mut cpu = GateLevelCpu::new(&rissp, 0);
    cpu.load_words(0, &image.words);
    for (base, words) in &image.data_segments {
        cpu.load_words(*base, words);
    }
    cpu.enable_trace();
    let _ = cpu.run(400).unwrap_err(); // step-limit: bounded depth
    let trace = cpu.take_trace();
    rissp::rvfi::check_trace(&trace).unwrap();
    assert_eq!(trace.len(), 400);
}

/// A RISSP generated for one application refuses (reports) instructions
/// outside its subset rather than mis-executing them.
#[test]
fn subset_violation_is_detected_not_misexecuted() {
    let library = HwLibrary::build_full();
    // armpit's subset has no `xor`.
    let w = workloads::by_name("armpit").unwrap();
    let image = w.compile(OptLevel::O2).unwrap();
    let subset = InstructionSubset::from_words(&image.words);
    assert!(!subset.contains(riscv_isa::Mnemonic::Xor), "premise");
    let rissp = Rissp::generate(&library, &subset);

    let foreign = riscv_isa::asm::assemble(
        &riscv_isa::asm::parse("xor x5, x6, x7\nhalt: jal x0, halt").unwrap(),
        0,
    )
    .unwrap();
    let mut cpu = GateLevelCpu::new(&rissp, 0);
    cpu.load_words(0, &foreign);
    let err = cpu.run(10).unwrap_err();
    assert!(
        matches!(err, rissp::processor::ExecError::Unsupported { pc: 0, .. }),
        "{err}"
    );
}

/// The full evaluation relationships of §4.2 hold on freshly generated
/// cores: every application RISSP is smaller than the full-ISA baseline.
#[test]
fn every_rissp_is_smaller_than_the_full_isa_core() {
    let library = HwLibrary::build_full();
    let full = Rissp::generate_full_isa(&library);
    let full_area = netlist::stats::GateCounts::of(&full.core).nand2_equivalent();
    for w in workloads::all() {
        let image = w.compile(OptLevel::O2).unwrap();
        let subset = InstructionSubset::from_words(&image.words);
        let rissp = Rissp::generate(&library, &subset);
        let area = netlist::stats::GateCounts::of(&rissp.core).nand2_equivalent();
        assert!(
            area < full_area,
            "{}: {area:.0} !< {full_area:.0} NAND2",
            w.name
        );
    }
}

/// The one-pass generator the exhibits use gives the same core and
/// `SynthReport` as `synthesize`'s re-cons and sweep, on every `-O2`
/// workload subset, the full ISA and the union subsets a fuzz wave over
/// seeds 0..8 builds its core from.
#[test]
fn generate_swept_matches_generate_on_exhibit_and_fuzz_subsets() {
    let library = HwLibrary::build_full();
    let mut subsets: Vec<InstructionSubset> = workloads::all()
        .iter()
        .map(|w| InstructionSubset::from_words(&w.compile(OptLevel::O2).unwrap().words))
        .collect();
    subsets.push(InstructionSubset::full_isa());
    let mut union = InstructionSubset::new();
    for seed in 0..8 {
        let image = xcc::compile(&rissp::campaign::random_program(seed), OptLevel::O1).unwrap();
        union = union.union(&InstructionSubset::from_words(&image.words));
        subsets.push(union.clone());
    }
    for subset in &subsets {
        let swept = Rissp::generate_swept(&library, subset);
        let reference = Rissp::generate(&library, subset);
        // Not `assert_eq!`: a core's `Debug` runs to ~100k gates.
        assert!(swept.core == reference.core, "core differs for {subset}");
        assert_eq!(swept.synth, reference.synth, "{subset}");
        assert_eq!(swept.subset, reference.subset);
    }
}
