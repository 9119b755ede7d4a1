//! ModularEX: the switch-stitched modular execution unit (Step 2).
//!
//! [`stitch`] imports the subset's instruction hardware blocks into the
//! caller's builder and adds an automatically generated switch — "a simple
//! case statement ... with N cases" (§3.2) — that selects which block's
//! outputs drive the shared interface; [`build_modularex`] wraps it in a
//! netlist of its own. Each block's `sel` output is its own full decode,
//! so the switch is the one-hot AND/OR mux layer synthesis makes of a `case`.

use hwlib::{ports, HwLibrary};
use netlist::{Builder, NetId, Netlist};
use std::collections::HashMap;

use crate::profile::InstructionSubset;

/// Builds the ModularEX netlist for `subset`: the five block input buses,
/// [`stitch`] and its outputs as ports, in a builder of its own.
///
/// Interface: the standard block ports (Table 2) plus a 1-bit `valid`
/// output that asserts when the presented instruction decodes to *some*
/// block in the subset (used by the testbench to detect out-of-subset
/// instructions).
///
/// # Panics
///
/// Panics if `subset` is empty.
pub fn build_modularex(library: &HwLibrary, subset: &InstructionSubset) -> Netlist {
    let mut b = Builder::new();
    let mut bindings: HashMap<&str, Vec<NetId>> = HashMap::new();
    for name in [
        ports::PC,
        ports::INSN,
        ports::RS1_DATA,
        ports::RS2_DATA,
        ports::DMEM_RDATA,
    ] {
        bindings.insert(name, b.input_bus(name, 32));
    }
    for (name, nets) in stitch(&mut b, library, subset, &bindings) {
        b.output_bus(name, &nets);
    }
    b.finish()
}

/// Stitches ModularEX for `subset` straight into the caller's builder: the
/// blocks are imported with their input ports bound to `bindings`, and the
/// switch and `valid` are built there, so no intermediate netlist exists.
///
/// Returns the outputs in [`ports::OUTPUTS`] order without `sel`, then
/// `valid`, without declaring them as ports.
///
/// # Panics
///
/// Panics if `subset` is empty or `bindings` lacks a block input port.
pub fn stitch(
    b: &mut Builder,
    library: &HwLibrary,
    subset: &InstructionSubset,
    bindings: &HashMap<&str, Vec<NetId>>,
) -> Vec<(&'static str, Vec<NetId>)> {
    assert!(!subset.is_empty(), "ModularEX needs at least one block");
    let mut selected: Vec<(NetId, HashMap<String, Vec<NetId>>)> = Vec::new();
    for m in subset.iter() {
        let by_name: HashMap<String, Vec<NetId>> = b
            .import(&library.block(m).netlist, bindings)
            .into_iter()
            .collect();
        selected.push((by_name[ports::SEL][0], by_name));
    }

    // The switch: for every output bus, OR together (sel_i AND out_i).
    // Blocks already zero their unused outputs, but gating with sel is what
    // the generated SystemVerilog case statement does, and it guarantees
    // exactly one driver even for overlapping don't-care outputs.
    let mut outs = Vec::with_capacity(ports::OUTPUTS.len());
    for (name, width) in ports::OUTPUTS {
        if name == ports::SEL {
            continue;
        }
        let mut acc: Vec<NetId> = vec![b.zero(); width];
        for (sel, by_name) in &selected {
            for (bit, &net) in by_name[name].iter().enumerate() {
                let gated = b.and(*sel, net);
                acc[bit] = b.or(acc[bit], gated);
            }
        }
        outs.push((name, acc));
    }
    let sels: Vec<NetId> = selected.iter().map(|(s, _)| *s).collect();
    outs.push(("valid", vec![netlist::bus::tree_or(b, &sels)]));
    outs
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::sim::Sim;
    use riscv_isa::{Instruction, Mnemonic, Reg};

    fn drive_and_eval(nl: &Netlist, instr: Instruction, rs1: u32, rs2: u32) -> Sim {
        let mut sim = Sim::new(nl);
        sim.set_bus(ports::PC, 0x100);
        sim.set_bus(ports::INSN, instr.encode());
        sim.set_bus(ports::RS1_DATA, rs1);
        sim.set_bus(ports::RS2_DATA, rs2);
        sim.set_bus(ports::DMEM_RDATA, 0);
        sim.eval();
        sim
    }

    #[test]
    fn switch_routes_the_selected_block() {
        let lib = HwLibrary::build_full();
        let subset: InstructionSubset = [Mnemonic::Add, Mnemonic::Sub, Mnemonic::Xor]
            .into_iter()
            .collect();
        let mex = build_modularex(&lib, &subset);
        let add = Instruction::r(Mnemonic::Add, Reg::X1, Reg::X2, Reg::X3);
        let sim = drive_and_eval(&mex, add, 40, 2);
        assert_eq!(sim.get_bus(ports::RD_DATA), 42);
        assert_eq!(sim.get_bus("valid"), 1);
        let sub = Instruction::r(Mnemonic::Sub, Reg::X1, Reg::X2, Reg::X3);
        let sim = drive_and_eval(&mex, sub, 40, 2);
        assert_eq!(sim.get_bus(ports::RD_DATA), 38);
    }

    #[test]
    fn out_of_subset_instruction_deasserts_valid() {
        let lib = HwLibrary::build_full();
        let subset: InstructionSubset = [Mnemonic::Add].into_iter().collect();
        let mex = build_modularex(&lib, &subset);
        let xor = Instruction::r(Mnemonic::Xor, Reg::X1, Reg::X2, Reg::X3);
        let sim = drive_and_eval(&mex, xor, 1, 2);
        assert_eq!(sim.get_bus("valid"), 0);
        assert_eq!(sim.get_bus(ports::RD_WE), 0, "invalid insn must not write");
    }

    #[test]
    fn modularex_is_fully_combinational() {
        let lib = HwLibrary::build_full();
        let subset: InstructionSubset = [Mnemonic::Addi, Mnemonic::Beq].into_iter().collect();
        let mex = build_modularex(&lib, &subset);
        assert_eq!(mex.dffs().count(), 0);
    }

    #[test]
    fn sharing_grows_sublinearly_with_blocks() {
        // Importing add and sub should share the field/imm extraction.
        let lib = HwLibrary::build_full();
        let one: InstructionSubset = [Mnemonic::Add].into_iter().collect();
        let two: InstructionSubset = [Mnemonic::Add, Mnemonic::Sub].into_iter().collect();
        let n1 = build_modularex(&lib, &one).len();
        let n2 = build_modularex(&lib, &two).len();
        let add_alone = lib.block(Mnemonic::Add).netlist.len();
        assert!(
            n2 - n1 < add_alone,
            "second block added {} gates, standalone is {}",
            n2 - n1,
            add_alone
        );
    }
}
