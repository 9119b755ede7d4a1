//! Property-based tests over the repository's core invariants (proptest).

use proptest::prelude::*;
use riscv_isa::asm::{self, Item};
use riscv_isa::semantics::{block_semantics, BlockInputs};
use riscv_isa::{Instruction, Mnemonic, Reg, ALL_MNEMONICS};

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0usize..16).prop_map(|i| Reg::from_index(i).unwrap())
}

fn arb_instruction() -> impl Strategy<Value = Instruction> {
    (
        0usize..ALL_MNEMONICS.len(),
        arb_reg(),
        arb_reg(),
        arb_reg(),
        any::<i32>(),
    )
        .prop_map(|(mi, rd, rs1, rs2, raw_imm)| {
            let m = ALL_MNEMONICS[mi];
            match m.format() {
                riscv_isa::Format::R => Instruction::r(m, rd, rs1, rs2),
                riscv_isa::Format::I => {
                    let imm = if m.funct7().is_some() {
                        raw_imm.rem_euclid(32)
                    } else {
                        (raw_imm % 2048).clamp(-2048, 2047)
                    };
                    Instruction::i(m, rd, rs1, imm)
                }
                riscv_isa::Format::S => {
                    Instruction::s(m, rs1, rs2, (raw_imm % 2048).clamp(-2048, 2047))
                }
                riscv_isa::Format::B => Instruction::b(m, rs1, rs2, (raw_imm % 2048) * 2),
                riscv_isa::Format::U => Instruction::u(m, rd, raw_imm & !0xfff),
                riscv_isa::Format::J => Instruction::j(m, rd, (raw_imm % 262144) * 2),
            }
        })
}

proptest! {
    /// Encode/decode is a bijection over well-formed instructions.
    #[test]
    fn encode_decode_roundtrip(instr in arb_instruction()) {
        let word = instr.encode();
        prop_assert_eq!(Instruction::decode(word), Ok(instr));
    }

    /// The golden semantics never writes x0 and never drives memory writes
    /// for non-stores.
    #[test]
    fn semantics_invariants(
        instr in arb_instruction(),
        pc in any::<u32>(),
        rs1 in any::<u32>(),
        rs2 in any::<u32>(),
        rdata in any::<u32>(),
    ) {
        let pc = pc & !3;
        let out = block_semantics(instr, &BlockInputs {
            pc, insn: instr.encode(), rs1_data: rs1, rs2_data: rs2, dmem_rdata: rdata,
        });
        if out.rd_addr == 0 {
            prop_assert!(!out.rd_we);
        }
        if !instr.mnemonic.is_store() {
            prop_assert_eq!(out.dmem_wmask, 0);
        }
        if !instr.mnemonic.is_branch() && !instr.mnemonic.is_jump() {
            prop_assert_eq!(out.next_pc, pc.wrapping_add(4));
        }
        // Branch targets are even (B/J immediates have bit 0 clear).
        prop_assert_eq!(out.next_pc & 1, 0);
    }

    /// Disassembly of any valid instruction re-parses to the same encoding.
    #[test]
    fn disassemble_reparse(instr in arb_instruction()) {
        let text = instr.to_string();
        let items = asm::parse(&text).unwrap();
        prop_assert_eq!(items.len(), 1);
        if let Item::Instr(_) = &items[0] {
            let words = asm::assemble(&items, 0).unwrap();
            prop_assert_eq!(words[0], instr.encode());
        }
    }

    /// The xcc constant folder agrees with the emulator on every operator.
    #[test]
    fn fold_matches_execution(a in any::<i32>(), b in any::<i32>()) {
        use xcc::ast::BinOp;
        for op in [BinOp::Add, BinOp::Sub, BinOp::And, BinOp::Or, BinOp::Xor,
                   BinOp::Shl, BinOp::ShrU, BinOp::ShrS, BinOp::LtS, BinOp::LtU,
                   BinOp::Eq, BinOp::Ne] {
            let Some(folded) = xcc::opt::eval_const(op, a, b) else { continue };
            // Execute the same operation through the compiler + emulator.
            use xcc::ast::build::*;
            use xcc::ast::{Function, Program};
            let p = Program {
                functions: vec![Function {
                    name: "main", params: 0, locals: 1,
                    body: vec![set(0, bin(op, c(a), c(b))), ret(v(0))],
                }],
                data: vec![],
            };
            // -O0 performs no folding, so the ALU actually executes it.
            let image = xcc::compile(&p, xcc::OptLevel::O0).unwrap();
            let mut emu = riscv_emu::Emulator::new();
            image.load(&mut emu);
            emu.run(500_000).unwrap();
            prop_assert_eq!(emu.state().regs[10], folded as u32, "{:?} {} {}", op, a, b);
        }
    }

    /// Netlist synthesis preserves combinational behaviour on random adder
    /// trees (sampled equivalence).
    #[test]
    fn synthesis_preserves_behaviour(seed in any::<u64>()) {
        let mut b = netlist::Builder::new();
        let x = b.input_bus("x", 16);
        let y = b.input_bus("y", 16);
        let (s, _) = netlist::bus::add(&mut b, &x, &y);
        let (d, _) = netlist::bus::sub(&mut b, &s, &y);
        b.output_bus("out", &d);
        let nl = b.finish();
        let (opt, _) = netlist::opt::synthesize(&nl);
        prop_assert!(netlist::opt::check_equivalence(&nl, &opt, 32, seed).is_ok());
    }
}

/// Mutation coverage sanity on a sampled set of blocks: the architecture
/// testbench kills every observable single-gate mutant.
#[test]
fn mutation_coverage_holds_for_sampled_blocks() {
    for m in [
        Mnemonic::Add,
        Mnemonic::Lw,
        Mnemonic::Sh,
        Mnemonic::Jal,
        Mnemonic::Sltu,
    ] {
        let block = hwlib::HwLibrary::build_full().block(m).clone();
        let report = hwlib::mutate::mutation_coverage(&block, 15, 0xfeed);
        assert_eq!(report.killed, report.observable, "{m}: {report:?}");
    }
}

/// The subset whose bits are set in `mask`, over `ALL_MNEMONICS`.
fn subset_of(mask: u64) -> rissp::profile::InstructionSubset {
    ALL_MNEMONICS
        .iter()
        .enumerate()
        .filter(|(i, _)| (mask >> i) & 1 == 1)
        .map(|(_, &m)| m)
        .collect()
}

/// ModularEX stitched into `b`: the five block input buses, then
/// `modularex::stitch`, then its outputs as ports.
fn stitched_modularex(
    mut b: netlist::Builder,
    library: &hwlib::HwLibrary,
    subset: &rissp::profile::InstructionSubset,
) -> netlist::Netlist {
    use hwlib::ports;
    let mut bindings = std::collections::HashMap::new();
    for name in [
        ports::PC,
        ports::INSN,
        ports::RS1_DATA,
        ports::RS2_DATA,
        ports::DMEM_RDATA,
    ] {
        bindings.insert(name, b.input_bus(name, 32));
    }
    for (name, nets) in rissp::modularex::stitch(&mut b, library, subset, &bindings) {
        b.output_bus(name, &nets);
    }
    b.finish()
}

/// The reference for `processor::build_core`: ModularEX built as a netlist
/// of its own, then imported into the core's builder after the four data
/// input buses and the 32 PC flip-flops, with `next_pc` feeding the PC.
fn imported_core(
    library: &hwlib::HwLibrary,
    subset: &rissp::profile::InstructionSubset,
) -> netlist::Netlist {
    use hwlib::ports;
    let modularex = rissp::modularex::build_modularex(library, subset);
    let mut b = netlist::Builder::new();
    let mut bindings = std::collections::HashMap::new();
    for name in [
        ports::INSN,
        ports::RS1_DATA,
        ports::RS2_DATA,
        ports::DMEM_RDATA,
    ] {
        bindings.insert(name, b.input_bus(name, 32));
    }
    let pc: Vec<netlist::NetId> = (0..32).map(|_| b.dff(false)).collect();
    bindings.insert(ports::PC, pc.clone());
    let outs = b.import(&modularex, &bindings);
    let (_, next_pc) = outs
        .iter()
        .find(|(name, _)| name == ports::NEXT_PC)
        .expect("ModularEX exposes next_pc");
    for (&ff, &d) in pc.iter().zip(next_pc) {
        b.connect_dff(ff, d);
    }
    b.output_bus("pc", &pc);
    for (name, nets) in &outs {
        b.output_bus(name, nets);
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `build_core`, which stitches ModularEX straight into the core's
    /// pre-sized builder, gives the core that building ModularEX on its own
    /// and importing it gives; and ModularEX stitched into a fresh builder
    /// of any capacity is `build_modularex`'s netlist.
    #[test]
    fn stitched_core_and_modularex_match_the_imported_ones(mask in 1u64..1 << 37) {
        use std::sync::OnceLock;
        static LIBRARY: OnceLock<hwlib::HwLibrary> = OnceLock::new();
        let library = LIBRARY.get_or_init(hwlib::HwLibrary::build_full);
        let subset = subset_of(mask);
        // Not `prop_assert_eq!`: a core's `Debug` runs to ~100k gates.
        prop_assert!(
            rissp::processor::build_core(library, &subset) == imported_core(library, &subset),
            "core differs for {}", subset
        );
        let modularex = rissp::modularex::build_modularex(library, &subset);
        let block_gates: usize = subset.iter().map(|m| library.block(m).netlist.len()).sum();
        prop_assert!(stitched_modularex(netlist::Builder::new(), library, &subset) == modularex);
        for capacity in [0, block_gates / 16, 4 * block_gates] {
            prop_assert!(
                stitched_modularex(netlist::Builder::with_capacity(capacity), library, &subset)
                    == modularex,
                "capacity {} for {}", capacity, subset
            );
        }
    }
}
