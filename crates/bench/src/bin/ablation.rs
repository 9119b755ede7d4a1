//! Ablation study of three RISSP design choices from the paper's §3:
//!
//! 1. **Synthesis off** — stitch ModularEX without the redundancy-removal
//!    pass (§3.3 argues synthesis recovers cross-block sharing; this
//!    quantifies how much).
//! 2. **Subset-size scaling** — area/fmax as instructions are added one at
//!    a time, showing where the "unused-instruction tax" of a full core
//!    comes from (shifters and loads dominate).
//! 3. **Switch overhead** — the cost of the ModularEX case-statement mux
//!    relative to the datapath blocks it steers.

use bench::header;
use flexic::{sta, tech::Tech};
use hwlib::HwLibrary;
use netlist::stats::GateCounts;
use riscv_isa::Mnemonic;
use rissp::processor::build_core;
use rissp::profile::InstructionSubset;
use rissp::Rissp;

fn main() {
    header("Ablation — synthesis, subset scaling, switch overhead");
    let lib = HwLibrary::build_full();
    let t = Tech::flexic_gen();

    // 1. Synthesis on/off.
    println!("1) redundancy removal by synthesis (§3.3):");
    for names in [
        vec!["addi", "add", "jal"],
        vec![
            "addi", "add", "sub", "and", "or", "xor", "jal", "beq", "lw", "sw",
        ],
        Vec::new(), // full ISA
    ] {
        let subset = if names.is_empty() {
            InstructionSubset::full_isa()
        } else {
            InstructionSubset::from_names(names.iter().copied())
        };
        let unopt = build_core(&lib, &subset);
        let core = netlist::opt::sweep(&unopt);
        let before = GateCounts::of(&unopt).nand2_equivalent();
        let after = GateCounts::of(&core).nand2_equivalent();
        println!(
            "   {:>2} instructions: stitched {:>7.0} → synthesised {:>7.0} NAND2 ({:>4.1}% removed)",
            subset.len(),
            before,
            after,
            100.0 * (1.0 - after / before)
        );
    }

    // 2. Subset scaling: grow from a seed core, adding instruction groups.
    println!();
    println!("2) incremental cost per instruction group:");
    let groups: [(&str, Vec<Mnemonic>); 7] = [
        (
            "control (jal/jalr/beq/bne)",
            vec![Mnemonic::Jal, Mnemonic::Jalr, Mnemonic::Beq, Mnemonic::Bne],
        ),
        (
            "add/sub",
            vec![Mnemonic::Add, Mnemonic::Addi, Mnemonic::Sub],
        ),
        (
            "logic",
            vec![
                Mnemonic::And,
                Mnemonic::Andi,
                Mnemonic::Or,
                Mnemonic::Ori,
                Mnemonic::Xor,
                Mnemonic::Xori,
            ],
        ),
        (
            "compares",
            vec![
                Mnemonic::Slt,
                Mnemonic::Slti,
                Mnemonic::Sltu,
                Mnemonic::Sltiu,
                Mnemonic::Blt,
                Mnemonic::Bge,
                Mnemonic::Bltu,
                Mnemonic::Bgeu,
            ],
        ),
        ("word memory", vec![Mnemonic::Lw, Mnemonic::Sw]),
        (
            "sub-word memory",
            vec![
                Mnemonic::Lb,
                Mnemonic::Lbu,
                Mnemonic::Lh,
                Mnemonic::Lhu,
                Mnemonic::Sb,
                Mnemonic::Sh,
            ],
        ),
        (
            "shifts",
            vec![
                Mnemonic::Sll,
                Mnemonic::Slli,
                Mnemonic::Srl,
                Mnemonic::Srli,
                Mnemonic::Sra,
                Mnemonic::Srai,
            ],
        ),
    ];
    let mut subset = InstructionSubset::new();
    let mut prev_area = 0.0;
    for (label, members) in groups {
        subset.extend(members);
        let rissp = Rissp::generate(&lib, &subset);
        let area = GateCounts::of(&rissp.core).nand2_equivalent();
        let cp = sta::critical_path_ns(&rissp.core, &t);
        println!(
            "   +{:<28} {:>2} ins, {:>7.0} NAND2 (+{:>5.0}), fmax {:>5.0} kHz",
            label,
            subset.len(),
            area,
            area - prev_area,
            1e6 / cp
        );
        prev_area = area;
    }

    // 3. Switch overhead: ModularEX vs the sum of its standalone blocks.
    println!();
    println!("3) ModularEX switch overhead vs standalone blocks:");
    for names in [
        vec!["add", "sub"],
        vec!["add", "sub", "xor", "and", "lw", "sw", "beq", "jal"],
    ] {
        let subset = InstructionSubset::from_names(names.iter().copied());
        let mex = rissp::modularex::build_modularex(&lib, &subset);
        let mex_area = GateCounts::of(&mex).nand2_equivalent();
        let blocks_area: f64 = subset
            .iter()
            .map(|m| GateCounts::of(&lib.block(m).netlist).nand2_equivalent())
            .sum();
        println!(
            "   {:>2} blocks: Σ standalone {:>7.0} NAND2, ModularEX {:>7.0} (switch/steering overhead {:+.1}%)",
            subset.len(),
            blocks_area,
            mex_area,
            100.0 * (mex_area / blocks_area - 1.0)
        );
    }
}
