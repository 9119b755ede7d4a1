//! Campaign-engine regression: the lane-parallel mutation-coverage path
//! must be bit-identical to the scalar MCY loop for every block in the
//! library, at every lane width and thread count.
//!
//! The CI test matrix runs this suite under `GATE_SIM_THREADS={1,2,4}`;
//! the tests read that knob (like the rest of the suite) so each leg
//! checks a different thread count against the same scalar reference.

use hwlib::campaign::{lane_mutation_coverage, library_mutation_coverage, CampaignConfig};
use hwlib::mutate::mutation_coverage;
use hwlib::HwLibrary;
use netlist::compiled::LANES_PER_WORD;

fn env_campaign_config() -> CampaignConfig {
    CampaignConfig {
        limit: 6,
        seed: 0xc0ff_ee11,
        lanes: LANES_PER_WORD * 4,
        threads: netlist::env_threads().unwrap_or(2),
    }
}

#[test]
fn lane_batched_coverage_matches_scalar_for_every_block() {
    let lib = HwLibrary::build_full();
    let cfg = env_campaign_config();
    let batched = library_mutation_coverage(&lib, &cfg);
    assert_eq!(batched.len(), lib.len());
    for bc in &batched {
        let scalar = mutation_coverage(lib.block(bc.mnemonic), cfg.limit, cfg.seed);
        assert_eq!(bc.report, scalar, "{}: lane-batched != scalar", bc.mnemonic);
        assert!(
            (bc.report.coverage() - scalar.coverage()).abs() < f64::EPSILON,
            "{}: coverage() moved",
            bc.mnemonic
        );
    }
}

#[test]
fn campaign_reports_are_lane_width_and_thread_independent() {
    // The same blocks at deliberately mismatched shapes: a 3-lane
    // multi-chunk sweep, a one-word sweep, and the env-configured shape
    // all agree mutant for mutant.
    let lib = HwLibrary::build_full();
    let cfg = env_campaign_config();
    for m in [
        riscv_isa::Mnemonic::Add,
        riscv_isa::Mnemonic::Lbu,
        riscv_isa::Mnemonic::Jalr,
    ] {
        let block = lib.block(m);
        let reference = lane_mutation_coverage(block, 12, 5, 3);
        for lanes in [64, cfg.lanes] {
            assert_eq!(
                lane_mutation_coverage(block, 12, 5, lanes),
                reference,
                "{m} at {lanes} lanes"
            );
        }
    }
    // Thread count is a pure scheduling knob for the library sweep.
    let narrow = CampaignConfig {
        limit: 3,
        threads: 1,
        ..cfg
    };
    let wide = CampaignConfig {
        threads: 4,
        ..narrow
    };
    assert_eq!(
        library_mutation_coverage(&lib, &narrow),
        library_mutation_coverage(&lib, &wide)
    );
}

/// The bounded CI campaign-smoke sweep: full library, pinned seeds,
/// small mutant budget (see `.github/workflows/ci.yml`, `campaign-smoke`
/// job, and `docs/campaigns.md`).
#[test]
fn campaign_smoke_mutation_sweep_kills_observable_mutants() {
    let lib = HwLibrary::build_full();
    let cfg = env_campaign_config();
    for bc in library_mutation_coverage(&lib, &cfg) {
        // The library is pre-verified: its testbenches kill every
        // observable mutant (the paper's MCY admission bar).
        assert_eq!(
            bc.report.killed, bc.report.observable,
            "{}: {:?}",
            bc.mnemonic, bc.report
        );
        assert!((bc.report.coverage() - 1.0).abs() < f64::EPSILON);
    }
}
