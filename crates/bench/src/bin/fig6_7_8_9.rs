//! Figures 6–9: maximum frequency, sweep-averaged NAND2 area, sweep-averaged
//! power, and energy per instruction for all 25 RISSPs and both baselines
//! (RISSP-RV32E, Serv).
//!
//! One binary regenerates all four figures because they share the expensive
//! pipeline (RISSP generation + gate-level activity measurement + sweep).

use bench::{characterise_rv32e, characterise_serv, characterise_workload, header};
use flexic::sweep::{energy_per_instruction_nj, frequency_sweep};
use flexic::tech::Tech;
use hwlib::HwLibrary;

fn main() {
    header("Figures 6–9 — fmax, average area, average power, energy per instruction");
    let t = Tech::flexic_gen();
    let lib = HwLibrary::build_full();

    println!(
        "{:<22} {:>4} {:>10} {:>12} {:>11} {:>8} {:>10}",
        "design", "#ins", "fmax(kHz)", "area(NAND2)", "power(mW)", "CPI", "EPI(nJ)"
    );

    let mut risp_results = Vec::new();
    for d in workloads::all()
        .iter()
        .map(|w| characterise_workload(&lib, w, &t))
    {
        let sweep = frequency_sweep(&d.metrics);
        let epi = energy_per_instruction_nj(&d.metrics, &sweep);
        println!(
            "{:<22} {:>4} {:>10} {:>12.0} {:>11.3} {:>8.1} {:>10.3}",
            d.name,
            d.distinct,
            sweep.fmax_khz,
            sweep.avg_area_nand2,
            sweep.avg_power_mw,
            d.metrics.cpi,
            epi
        );
        risp_results.push((d, sweep, epi));
    }

    let rv32e = characterise_rv32e(&lib, &t);
    let rv32e_sweep = frequency_sweep(&rv32e.metrics);
    let rv32e_epi = energy_per_instruction_nj(&rv32e.metrics, &rv32e_sweep);
    println!(
        "{:<22} {:>4} {:>10} {:>12.0} {:>11.3} {:>8.1} {:>10.3}",
        rv32e.name,
        rv32e.distinct,
        rv32e_sweep.fmax_khz,
        rv32e_sweep.avg_area_nand2,
        rv32e_sweep.avg_power_mw,
        rv32e.metrics.cpi,
        rv32e_epi
    );

    let serv = characterise_serv(&workloads::by_name("crc32").expect("crc32"));
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
    let serv_sweep = frequency_sweep(&serv.metrics);
    let serv_epi = energy_per_instruction_nj(&serv.metrics, &serv_sweep);
    println!(
        "{:<22} {:>4} {:>10} {:>12.0} {:>11.3} {:>8.1} {:>10.3}",
        serv.name,
        serv.distinct,
        serv_sweep.fmax_khz,
        serv_sweep.avg_area_nand2,
        serv_sweep.avg_power_mw,
        serv.metrics.cpi,
        serv_epi
    );

    println!();
    println!("summary vs paper:");
    let areas: Vec<f64> = risp_results
        .iter()
        .map(|(_, s, _)| s.avg_area_nand2)
        .collect();
    let powers: Vec<f64> = risp_results
        .iter()
        .map(|(_, s, _)| s.avg_power_mw)
        .collect();
    let area_red_min =
        100.0 * (1.0 - areas.iter().cloned().fold(f64::MIN, f64::max) / rv32e_sweep.avg_area_nand2);
    let area_red_max =
        100.0 * (1.0 - areas.iter().cloned().fold(f64::MAX, f64::min) / rv32e_sweep.avg_area_nand2);
    let pow_red_min =
        100.0 * (1.0 - powers.iter().cloned().fold(f64::MIN, f64::max) / rv32e_sweep.avg_power_mw);
    let pow_red_max =
        100.0 * (1.0 - powers.iter().cloned().fold(f64::MAX, f64::min) / rv32e_sweep.avg_power_mw);
    println!(
        "  Fig 7: RISSP area reduction vs RV32E: {area_red_min:.0}%–{area_red_max:.0}%  (paper: 8–43 %)"
    );
    println!(
        "  Fig 8: RISSP power reduction vs RV32E: {pow_red_min:.0}%–{pow_red_max:.0}%  (paper: 3–30 %)"
    );
    println!(
        "  Fig 8: Serv power / RV32E power: {:.2}×  (paper: ≈1.4×)",
        serv_sweep.avg_power_mw / rv32e_sweep.avg_power_mw
    );
    let mean_risp_epi: f64 =
        risp_results.iter().map(|(_, _, e)| *e).sum::<f64>() / risp_results.len() as f64;
    println!(
        "  Fig 9: Serv EPI / mean RISSP EPI: {:.0}×  (paper: ≈40×);  Serv EPI / RV32E EPI: {:.0}× (paper: ≈35×)",
        serv_epi / mean_risp_epi,
        serv_epi / rv32e_epi
    );
    println!(
        "  Fig 6: RISSP fmax range {}–{} kHz; RV32E {} kHz; Serv {} kHz  (paper: 1500–1850 / ≤1700 / 2050)",
        risp_results.iter().map(|(_, s, _)| s.fmax_khz).min().unwrap_or(0),
        risp_results.iter().map(|(_, s, _)| s.fmax_khz).max().unwrap_or(0),
        rv32e_sweep.fmax_khz,
        serv_sweep.fmax_khz
    );
}
