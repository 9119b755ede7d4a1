//! Figure 10: full physical implementation at 300 kHz of the three
//! extreme-edge RISSPs plus the two baselines — die dimensions, area,
//! flip-flop fraction and power.

use bench::{characterise_rv32e, characterise_serv, characterise_workload, header};
use flexic::physical::implement;
use flexic::tech::Tech;
use hwlib::HwLibrary;

fn main() {
    header("Figure 10 — FlexIC physical implementation at 300 kHz");
    let t = Tech::flexic_gen();
    let lib = HwLibrary::build_full();

    let mut layouts = Vec::new();
    let rv32e = characterise_rv32e(&lib, &t);
    layouts.push(implement(&rv32e.metrics, &t, None));
    let edge: Vec<_> = ["af_detect", "armpit", "xgboost"]
        .into_iter()
        .map(|name| workloads::by_name(name).expect("edge app"))
        .collect();
    for d in edge.iter().map(|w| characterise_workload(&lib, w, &t)) {
        layouts.push(implement(&d.metrics, &t, Some(d.distinct)));
    }
    let serv = characterise_serv(&workloads::by_name("crc32").expect("crc32"));
    layouts.push(implement(&serv.metrics, &t, None));
    // A fallback or a refused emission changes no number, only the speed:
    // report it on stderr, off the golden stdout.
    let fallbacks = bench::activity::fallbacks();
    if fallbacks != 0 {
        eprintln!("activity fallbacks: {fallbacks}");
    }
    let refusals = bench::activity::native_refusals();
    if refusals != 0 {
        eprintln!("activity native refusals: {refusals}");
    }

    println!(
        "{:<18} {:>9} {:>9} {:>10} {:>7} {:>9} {:>10} {:>6}",
        "design", "X(um)", "Y(um)", "area(mm2)", "FF(%)", "pwr(mW)", "clk bufs", "#ins"
    );
    for l in &layouts {
        println!(
            "{:<18} {:>9.0} {:>9.0} {:>10.2} {:>7.1} {:>9.3} {:>10} {:>6}",
            l.name,
            l.die_w_um,
            l.die_h_um,
            l.die_area_mm2,
            l.ff_pct,
            l.power_mw,
            l.clock_buffers,
            l.distinct_instructions
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into())
        );
    }

    println!();
    let area = |name: &str| {
        layouts
            .iter()
            .find(|l| l.name.contains(name))
            .map(|l| l.die_area_mm2)
    };
    let (Some(rv), Some(af), Some(ap), Some(xg), Some(sv)) = (
        area("RV32E"),
        area("af_detect"),
        area("armpit"),
        area("xgboost"),
        area("Serv"),
    ) else {
        return;
    };
    println!("summary vs paper (§4.3):");
    println!(
        "  af_detect vs RV32E: {:.0}% smaller (paper: 8 %)",
        100.0 * (1.0 - af / rv)
    );
    println!(
        "  armpit   vs RV32E: {:.0}% smaller (paper: ~35 %)",
        100.0 * (1.0 - ap / rv)
    );
    println!(
        "  xgboost  vs RV32E: {:.0}% smaller (paper: ~42 %)",
        100.0 * (1.0 - xg / rv)
    );
    println!(
        "  xgboost  vs Serv : {:.0}% smaller after layout (paper: ~11 %, the clock-tree flip)",
        100.0 * (1.0 - xg / sv)
    );
}
