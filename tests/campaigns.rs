//! Campaign-engine regression: the cone-evaluated mutation-coverage path
//! must be bit-identical to the scalar MCY loop for every block in the
//! library, at every chunk grain and thread count.
//!
//! The CI test matrix runs this suite under `GATE_SIM_THREADS={1,2,4}`;
//! the tests read that knob (like the rest of the suite) so each leg
//! checks a different thread count against the same scalar reference.

use hwlib::campaign::{
    lane_mutation_coverage, library_mutation_coverage, BlockCoverage, CampaignConfig,
};
use hwlib::mutate::{mutation_coverage, mutation_sites, CoverageReport, Mutation};
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

/// A small-budget stand-in for the CI campaign-smoke sweep, which takes
/// every mutant: full library, pinned seeds (see
/// `.github/workflows/ci.yml`, `campaign-smoke` job, and
/// `docs/campaigns.md`).
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

/// The two campaign seeds of the repository benchmark's
/// `mutation_campaign` (its `--seed 1` and `--seed 7` runs).
const BENCH_SEEDS: [u64; 2] = [0x63a1_8318_3ed6_d2e0, 0x5aea_0893_d43c_1309];

fn bench_config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        limit: 1024,
        seed,
        lanes: LANES_PER_WORD * 4,
        threads: netlist::env_threads().unwrap_or(2),
    }
}

/// FNV-1a over a sequence of counts.
fn fnv(values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The benchmark's `verdicts_fnv`: FNV-1a over every block's
/// (generated, observable, killed), in library order.
fn verdict_digest(reports: &[BlockCoverage]) -> u64 {
    fnv(reports.iter().flat_map(|b| {
        let CoverageReport {
            generated,
            observable,
            killed,
        } = b.report;
        [generated as u64, observable as u64, killed as u64]
    }))
}

/// The benchmark's verdicts, pinned: every mutant of every block (limit
/// 1024 exceeds every block's population), so a verdict drift fails here
/// without a benchmark run.
#[test]
fn benchmark_mutation_verdicts_are_pinned() {
    let lib = HwLibrary::build_full();
    let expected = [
        (22_332, 1_285_516_333_940_046_474),
        (22_342, 17_482_703_021_557_021_234),
    ];
    for (seed, (observable, digest)) in BENCH_SEEDS.into_iter().zip(expected) {
        let reports = library_mutation_coverage(&lib, &bench_config(seed));
        let total = |f: fn(&CoverageReport) -> usize| -> usize {
            reports.iter().map(|b| f(&b.report)).sum()
        };
        assert_eq!(reports.len(), 37, "seed {seed:#x}");
        assert_eq!(total(|r| r.generated), 27_701, "seed {seed:#x}");
        assert_eq!(total(|r| r.observable), observable, "seed {seed:#x}");
        assert_eq!(total(|r| r.killed), observable, "seed {seed:#x}");
        assert_eq!(verdict_digest(&reports), digest, "seed {seed:#x}");
    }
}

/// The sampled populations behind those verdicts, pinned as FNV-1a over
/// every block's `(net, mutation)` sites in order.
#[test]
fn benchmark_mutation_sites_are_pinned() {
    let lib = HwLibrary::build_full();
    let expected = [6_836_621_770_019_563_174, 10_231_940_232_896_275_995];
    for (seed, digest) in BENCH_SEEDS.into_iter().zip(expected) {
        let sites = lib.iter().flat_map(|b| mutation_sites(b, 1024, seed));
        let kind = |m: Mutation| match m {
            Mutation::FlipKind => 0,
            Mutation::StuckAtZero => 1,
            Mutation::StuckAtOne => 2,
            Mutation::SwapMuxInputs => 3,
        };
        let digest_now = fnv(sites.flat_map(|(net, m)| [u64::from(net), kind(m)]));
        assert_eq!(digest_now, digest, "seed {seed:#x}");
    }
}

/// Whole populations against the scalar MCY loop, on three blocks of
/// different shape (R-type ALU, load, jump).
#[test]
fn full_block_populations_match_scalar() {
    let lib = HwLibrary::build_full();
    let cfg = bench_config(BENCH_SEEDS[0]);
    for m in [
        riscv_isa::Mnemonic::Add,
        riscv_isa::Mnemonic::Lbu,
        riscv_isa::Mnemonic::Jalr,
    ] {
        let block = lib.block(m);
        assert_eq!(
            lane_mutation_coverage(block, cfg.limit, cfg.seed, cfg.lanes),
            mutation_coverage(block, cfg.limit, cfg.seed),
            "{m}"
        );
    }
}
