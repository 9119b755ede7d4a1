//! `rissp-gen` — command-line RISSP generator, the user-facing face of the
//! methodology: feed it a binary (or a workload name, or an explicit
//! instruction list) and get the generated core's report.
//!
//! ```sh
//! cargo run --release -p bench --bin rissp_gen -- --workload crc32
//! cargo run --release -p bench --bin rissp_gen -- --subset addi,add,jal,lw,sw,beq
//! ```

use flexic::sweep::frequency_sweep;
use flexic::tech::Tech;
use flexic::DesignMetrics;
use hwlib::HwLibrary;
use netlist::stats::GateCounts;
use rissp::profile::InstructionSubset;
use rissp::Rissp;
use xcc::OptLevel;

fn usage() -> ! {
    eprintln!("usage: rissp_gen --workload <name> | --subset <m1,m2,...> [--opt O0|O1|O2|O3|Oz]");
    eprintln!(
        "workloads: {}",
        workloads::all()
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut subset_arg = None;
    let mut opt = OptLevel::O2;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => workload = it.next().cloned(),
            "--subset" => subset_arg = it.next().cloned(),
            "--opt" => {
                opt = match it.next().map(String::as_str) {
                    Some("O0") => OptLevel::O0,
                    Some("O1") => OptLevel::O1,
                    Some("O2") => OptLevel::O2,
                    Some("O3") => OptLevel::O3,
                    Some("Oz") => OptLevel::Oz,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }

    let (name, subset, activity) = if let Some(wname) = workload {
        let Some(w) = workloads::by_name(&wname) else {
            eprintln!("unknown workload `{wname}`");
            usage()
        };
        let image = w.compile(opt).expect("workload compiles");
        let subset = InstructionSubset::from_words(&image.words);
        println!(
            "profiled {wname} at {}: {} bytes, {} distinct instructions",
            opt.flag(),
            image.code_bytes(),
            subset.len()
        );
        (wname, subset, 0.10)
    } else if let Some(list) = subset_arg {
        let subset = InstructionSubset::from_names(list.split(','));
        if subset.is_empty() {
            eprintln!("no valid mnemonics in `{list}`");
            usage()
        }
        ("custom".to_string(), subset, 0.10)
    } else {
        usage()
    };

    println!("subset: {subset}");
    let lib = HwLibrary::build_full();
    let rissp = Rissp::generate(&lib, &subset);
    let counts = GateCounts::of(&rissp.core);
    println!(
        "generated RISSP-{name}: {} gates / {:.0} NAND2-equivalents ({} FFs, {:.1}% FF area)",
        counts.logic_gates(),
        counts.nand2_equivalent(),
        counts.dff,
        100.0 * counts.ff_area_fraction()
    );
    println!(
        "synthesis: {} → {} gates ({:.1}% redundancy removed)",
        rissp.synth.gates_before,
        rissp.synth.gates_after,
        100.0 * rissp.synth.reduction()
    );
    let t = Tech::flexic_gen();
    let metrics = DesignMetrics::of_netlist(format!("RISSP-{name}"), &rissp.core, &t, activity);
    let sweep = frequency_sweep(&metrics);
    println!(
        "FlexIC ({}): fmax {} kHz, avg area {:.0} NAND2, avg power {:.3} mW",
        t.name, sweep.fmax_khz, sweep.avg_area_nand2, sweep.avg_power_mw
    );
}
