//! RISSP — RISC-V Instruction Subset Processor generation.
//!
//! This crate is the paper's primary contribution: given an application (or
//! a domain of applications), it
//!
//! 1. profiles the distinct RV32E instructions the compiled binary uses
//!    ([`profile`], Step 1 of Figure 2);
//! 2. pulls the corresponding pre-verified instruction hardware blocks from
//!    the [`hwlib`] library and stitches them behind an automatically
//!    generated switch into the **ModularEX** execution unit
//!    ([`modularex`], Step 2);
//! 3. attaches the fixed units — fetch/PC and the register file — plus the
//!    memory interfaces to produce a complete single-cycle processor
//!    ([`processor`], Step 3), with redundancy removal performed by the
//!    synthesis pass in [`netlist::opt`];
//! 4. verifies the integrated core by RISCOF-style signature comparison
//!    against the reference simulator and by RVFI trace checking
//!    ([`riscof`] and [`rvfi`], §3.4.2).
//!
//! # Examples
//!
//! Generate a RISSP for a tiny program and run it at gate level:
//!
//! ```
//! use hwlib::HwLibrary;
//! use riscv_isa::asm;
//! use rissp::{processor::GateLevelCpu, profile::InstructionSubset, Rissp};
//!
//! let words = asm::assemble(
//!     &asm::parse("addi a0, zero, 7\nadd a0, a0, a0\nhalt: jal x0, halt").unwrap(),
//!     0,
//! ).unwrap();
//! let subset = InstructionSubset::from_words(&words);
//! let lib = HwLibrary::build_full();
//! let rissp = Rissp::generate(&lib, &subset);
//! let mut cpu = GateLevelCpu::new(&rissp, 0);
//! cpu.load_words(0, &words);
//! cpu.run(100).unwrap();
//! assert_eq!(cpu.reg(10), 14);
//! ```

pub mod campaign;
pub mod modularex;
pub mod processor;
pub mod profile;
pub mod riscof;
pub mod rvfi;

use hwlib::HwLibrary;
use netlist::opt::{sweep, SynthReport};
use netlist::Netlist;
use profile::InstructionSubset;

/// A generated RISC-V instruction subset processor.
#[derive(Debug, Clone)]
pub struct Rissp {
    /// The instruction subset this core supports.
    pub subset: InstructionSubset,
    /// The synthesised ModularEX + fetch core netlist (combinational logic
    /// plus the 32 PC flip-flops; the register file is a fixed pre-verified
    /// unit attached behaviourally, and — as in the paper's synthesis
    /// experiments — excluded from the synthesised netlist).
    pub core: Netlist,
    /// Synthesis statistics (gates before/after redundancy removal).
    pub synth: SynthReport,
}

impl Rissp {
    /// Generates a RISSP for `subset` from the pre-verified library
    /// (Steps 2–3 of the methodology): [`processor::build_core`] stitches
    /// the design in one hash-consing [`Builder`](netlist::Builder), which
    /// already shares and folds everything, so [`sweep`] removing the dead
    /// logic is the whole synthesis pass. The core is allocated at its
    /// exact length.
    ///
    /// # Panics
    ///
    /// Panics if `subset` is empty.
    pub fn generate(library: &HwLibrary, subset: &InstructionSubset) -> Rissp {
        assert!(
            !subset.is_empty(),
            "cannot generate a RISSP for an empty subset"
        );
        let unoptimised = processor::build_core(library, subset);
        let core = sweep(&unoptimised);
        let synth = SynthReport {
            gates_before: unoptimised.len(),
            gates_after: core.len(),
        };
        Rissp {
            subset: subset.clone(),
            core,
            synth,
        }
    }

    /// Generates the application-independent baseline supporting the full
    /// RV32E ISA (`RISSP-RV32E` in the paper's evaluation).
    pub fn generate_full_isa(library: &HwLibrary) -> Rissp {
        Rissp::generate(library, &InstructionSubset::full_isa())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::Mnemonic;

    #[test]
    fn generation_shrinks_with_subset_size() {
        let lib = HwLibrary::build_full();
        let small: InstructionSubset = [Mnemonic::Addi, Mnemonic::Add, Mnemonic::Jal]
            .into_iter()
            .collect();
        let rissp_small = Rissp::generate(&lib, &small);
        let rissp_full = Rissp::generate_full_isa(&lib);
        assert!(
            rissp_small.core.len() < rissp_full.core.len(),
            "small {} !< full {}",
            rissp_small.core.len(),
            rissp_full.core.len()
        );
    }

    #[test]
    fn synthesis_removes_redundancy() {
        let lib = HwLibrary::build_full();
        let rissp = Rissp::generate_full_isa(&lib);
        assert!(rissp.synth.gates_after < rissp.synth.gates_before);
    }

    #[test]
    #[should_panic(expected = "empty subset")]
    fn empty_subset_is_rejected() {
        let lib = HwLibrary::build_full();
        let empty = InstructionSubset::default();
        let _ = Rissp::generate(&lib, &empty);
    }
}
