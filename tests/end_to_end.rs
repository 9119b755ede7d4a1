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

/// One digest per subset of [`generated_cores_match_frozen_digest`], in its
/// order, recorded from the generator before it was folded into one path.
const FROZEN_DIGESTS: [u64; 34] = [
    // The 25 `-O2` workload subsets, in `workloads::all()` order.
    0xb5b6057010206633,
    0xccd9bbc2b73f8592,
    0x651e9108d226cffc,
    0xd69087838d199331,
    0x070b99af68c799a7,
    0x485e9218f9a47802,
    0x00927585be5a5d97,
    0x651e9108d226cffc,
    0x2cface6d52815c05,
    0x89fad7285507ea1e,
    0x4b264f303808bc6d,
    0xd3a7064ee8de56a7,
    0x425049dad7127f9d,
    0x8e786d57ed565cac,
    0xc5e24c9c828df7db,
    0x7ebe7402bc2154f7,
    0xcf0acb0aeb2d90ad,
    0x8525f9ee074f4a86,
    0x6f2c62e204ee5f13,
    0x30793025ae4b6835,
    0x6718940109bf98cf,
    0x25fb7c482d939ad5,
    0x5be25e2522552540,
    0xcd9a49b9baec668c,
    0x4c742e7d77c62548,
    // The full ISA.
    0xfb7b9316238d62a7,
    // The fuzz union subsets, seeds 0..1 through 0..8.
    0xa5996c4c3d30cfb1,
    0x7881b6601cdfdec8,
    0x3a6b7df45a5df2c1,
    0x3a6b7df45a5df2c1,
    0x9982d0b76f67e4e3,
    0x9982d0b76f67e4e3,
    0x9982d0b76f67e4e3,
    0x88bf79a91b8baf14,
];

/// FNV-1a over whatever a `Hash` impl feeds it: a digest that does not
/// depend on `std`'s randomly seeded hasher.
struct Fnv1a(u64);

impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The generator's output is frozen: on every `-O2` workload subset, the
/// full ISA and the union subsets a fuzz wave over seeds 0..8 builds its
/// core from, the core and its `SynthReport` hash to the digests the
/// generator gave before it was folded into one path, and re-consing the
/// core through `synthesize` is a fixed point.
#[test]
fn generated_cores_match_frozen_digest() {
    use std::hash::{Hash, Hasher};
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
    let digests: Vec<u64> = subsets
        .iter()
        .map(|subset| {
            let rissp = Rissp::generate(&library, subset);
            assert_eq!(&rissp.subset, subset);
            // Not `assert_eq!`: a core's `Debug` runs to ~100k gates.
            assert!(
                netlist::opt::synthesize(&rissp.core).0 == rissp.core,
                "re-consing the core for {subset} changed it"
            );
            let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
            rissp.core.hash(&mut h);
            rissp.synth.gates_before.hash(&mut h);
            rissp.synth.gates_after.hash(&mut h);
            h.finish()
        })
        .collect();
    assert_eq!(digests, FROZEN_DIGESTS);
}
