//! The pre-verified full-ISA hardware library (Step 0 of the paper).
//!
//! Every RV32I/E instruction is implemented as a discrete, fully functional
//! gate-level block with the standard interface of Table 2 (PC, instruction
//! word, register-file ports and the data-memory port).  Before a block is
//! admitted to the library it passes the paper's three-stage verification
//! (Figure 4):
//!
//! 1. **Architecture-test style testbenches** ([`verify::functional_verify`])
//!    — corner-case operand vectors per instruction, checked against the
//!    golden semantics in [`riscv_isa::semantics`].
//! 2. **Testbench self-checking via mutation coverage** ([`mutate`]) — the
//!    MCY step: single-gate mutants that observably change behaviour must be
//!    killed by the testbench.
//! 3. **Formal verification** ([`verify::formal_verify`]) — randomised +
//!    exhaustive-corner equivalence against the instruction's specification,
//!    plus interface assertions (the SVA step).
//!
//! # Examples
//!
//! ```
//! use hwlib::HwLibrary;
//! use riscv_isa::Mnemonic;
//!
//! let lib = HwLibrary::build_full();
//! let add = lib.block(Mnemonic::Add);
//! assert!(add.netlist.output("rd_data").is_some());
//! // Every block in the library has passed its pre-verification.
//! hwlib::verify::formal_verify(add, 256, 1).unwrap();
//! ```

pub mod blocks;
pub mod campaign;
pub mod mutate;
pub mod verify;

use netlist::Netlist;
use riscv_isa::{Mnemonic, ALL_MNEMONICS};
use std::collections::BTreeMap;

/// Canonical port names of the instruction-block interface (Table 2).
pub mod ports {
    /// 32-bit current PC (input).
    pub const PC: &str = "pc";
    /// 32-bit raw instruction word (input).
    pub const INSN: &str = "insn";
    /// 32-bit register-file read data, port 1 (input).
    pub const RS1_DATA: &str = "rs1_data";
    /// 32-bit register-file read data, port 2 (input).
    pub const RS2_DATA: &str = "rs2_data";
    /// 32-bit aligned word from data memory (input).
    pub const DMEM_RDATA: &str = "dmem_rdata";
    /// 1-bit decode match: this block implements the presented insn (output).
    pub const SEL: &str = "sel";
    /// 32-bit next PC (output).
    pub const NEXT_PC: &str = "next_pc";
    /// 4-bit register-file read address, port 1 (output).
    pub const RS1_ADDR: &str = "rs1_addr";
    /// 4-bit register-file read address, port 2 (output).
    pub const RS2_ADDR: &str = "rs2_addr";
    /// 4-bit destination register address (output).
    pub const RD_ADDR: &str = "rd_addr";
    /// 32-bit write-back data (output).
    pub const RD_DATA: &str = "rd_data";
    /// 1-bit write-back enable (output).
    pub const RD_WE: &str = "rd_we";
    /// 32-bit data memory byte address (output).
    pub const DMEM_ADDR: &str = "dmem_addr";
    /// 32-bit lane-aligned store data (output).
    pub const DMEM_WDATA: &str = "dmem_wdata";
    /// 4-bit per-byte store mask (output).
    pub const DMEM_WMASK: &str = "dmem_wmask";
    /// 1-bit memory read enable (output).
    pub const DMEM_RE: &str = "dmem_re";

    /// All input ports with widths, in declaration order.
    pub const INPUTS: [(&str, usize); 5] = [
        (PC, 32),
        (INSN, 32),
        (RS1_DATA, 32),
        (RS2_DATA, 32),
        (DMEM_RDATA, 32),
    ];
    /// All output ports with widths, in declaration order.
    pub const OUTPUTS: [(&str, usize); 11] = [
        (SEL, 1),
        (NEXT_PC, 32),
        (RS1_ADDR, 4),
        (RS2_ADDR, 4),
        (RD_ADDR, 4),
        (RD_DATA, 32),
        (RD_WE, 1),
        (DMEM_ADDR, 32),
        (DMEM_WDATA, 32),
        (DMEM_WMASK, 4),
        (DMEM_RE, 1),
    ];
}

/// One instruction hardware block: a mnemonic plus its gate-level netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstrBlock {
    /// The instruction this block implements.
    pub mnemonic: Mnemonic,
    /// The block's combinational netlist with the Table 2 interface.
    pub netlist: Netlist,
}

/// The pre-verified full-ISA hardware library.
///
/// Analogous to a standard-cell library: built (and verified) once, then
/// reused for every RISSP generated from it.
#[derive(Debug, Clone)]
pub struct HwLibrary {
    blocks: BTreeMap<Mnemonic, InstrBlock>,
}

impl HwLibrary {
    /// Builds the library for the full RV32I/E base ISA.
    pub fn build_full() -> HwLibrary {
        let blocks = ALL_MNEMONICS
            .iter()
            .map(|&m| {
                (
                    m,
                    InstrBlock {
                        mnemonic: m,
                        netlist: blocks::build_block(m),
                    },
                )
            })
            .collect();
        HwLibrary { blocks }
    }

    /// Fetches the block for `mnemonic`.
    ///
    /// # Panics
    ///
    /// Panics if the mnemonic is not in the library (cannot happen for
    /// libraries from [`HwLibrary::build_full`]).
    pub fn block(&self, mnemonic: Mnemonic) -> &InstrBlock {
        &self.blocks[&mnemonic]
    }

    /// Iterates over all blocks in deterministic mnemonic order.
    pub fn iter(&self) -> impl Iterator<Item = &InstrBlock> {
        self.blocks.values()
    }

    /// Number of blocks in the library.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when the library holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Replaces the block for `mnemonic`, returning the previous one.
    ///
    /// This exists for *sabotage testing*: campaign-layer tests swap in a
    /// deliberately faulty netlist and require the differential fuzzer or
    /// the mutation sweep to notice. Libraries handed to production RISSP
    /// generation must never be patched this way.
    ///
    /// # Panics
    ///
    /// Panics if the mnemonic is not in the library.
    pub fn replace_block(&mut self, block: InstrBlock) -> InstrBlock {
        let slot = self
            .blocks
            .get_mut(&block.mnemonic)
            .unwrap_or_else(|| panic!("{} is not in the library", block.mnemonic));
        std::mem::replace(slot, block)
    }

    /// Runs the full pre-verification pipeline over every block: functional
    /// testbench, formal check and interface assertions.
    ///
    /// This is the library's admission gate — the "one-time NRE" of the
    /// paper.  Mutation coverage is exercised separately (see [`mutate`])
    /// because it is quadratic in block size.
    ///
    /// # Errors
    ///
    /// Returns the first failing block and a description of the failure.
    pub fn verify_all(&self, samples: usize, seed: u64) -> Result<(), (Mnemonic, String)> {
        self.verify_all_with(samples, seed, netlist::ShardPolicy::single())
    }

    /// [`HwLibrary::verify_all`] under an explicit shard policy: each
    /// block's vector sweeps settle `policy.total_lanes()` stimuli at a
    /// time across `policy.threads` threads. Verdicts are independent of
    /// the thread count (see `docs/simulation.md`).
    ///
    /// # Errors
    ///
    /// Returns the first failing block and a description of the failure.
    pub fn verify_all_with(
        &self,
        samples: usize,
        seed: u64,
        policy: netlist::ShardPolicy,
    ) -> Result<(), (Mnemonic, String)> {
        for block in self.iter() {
            // One shared handle per block: both verification sweeps (and
            // every shard inside them) reuse it instead of deep-cloning
            // the netlist again.
            let netlist = std::sync::Arc::new(block.netlist.clone());
            verify::functional_verify_arc(block.mnemonic, netlist.clone(), policy)
                .map_err(|e| (block.mnemonic, format!("functional: {e}")))?;
            verify::formal_verify_arc(block.mnemonic, netlist, samples, seed, policy)
                .map_err(|e| (block.mnemonic, format!("formal: {e}")))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_contains_all_mnemonics() {
        let lib = HwLibrary::build_full();
        assert_eq!(lib.len(), ALL_MNEMONICS.len());
        assert!(!lib.is_empty());
        for m in ALL_MNEMONICS {
            assert_eq!(lib.block(m).mnemonic, m);
        }
    }

    #[test]
    fn blocks_have_standard_interface() {
        let lib = HwLibrary::build_full();
        for block in lib.iter() {
            for (name, width) in ports::INPUTS {
                let p = block
                    .netlist
                    .input(name)
                    .unwrap_or_else(|| panic!("{}: missing input {name}", block.mnemonic));
                assert_eq!(p.nets.len(), width, "{}: {name}", block.mnemonic);
            }
            for (name, width) in ports::OUTPUTS {
                let p = block
                    .netlist
                    .output(name)
                    .unwrap_or_else(|| panic!("{}: missing output {name}", block.mnemonic));
                assert_eq!(p.nets.len(), width, "{}: {name}", block.mnemonic);
            }
        }
    }

    #[test]
    fn blocks_are_purely_combinational() {
        let lib = HwLibrary::build_full();
        for block in lib.iter() {
            assert_eq!(
                block.netlist.dffs().count(),
                0,
                "{} contains state",
                block.mnemonic
            );
        }
    }

    #[test]
    fn full_library_passes_preverification() {
        let lib = HwLibrary::build_full();
        lib.verify_all(64, 0xbeef).unwrap();
    }
}
