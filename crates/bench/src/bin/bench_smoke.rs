//! Quick, machine-readable gate-simulation throughput probe for the CI
//! perf-trajectory job.
//!
//! Runs a small fixed settle schedule on the crc32 RISSP core through the
//! interesting backend × thread-count configurations and writes one JSON
//! report (`BENCH_pr.json` by default): ops/settle and settles/sec per
//! configuration. CI uploads the report as an artifact on every PR and
//! diffs it against the checked-in `BENCH_baseline.json` with a *soft*
//! threshold — regressions emit `::warning::` annotations but never fail
//! the job, because the shared 1–2 CPU runners are far too noisy for a
//! hard gate. The value is the trajectory: every PR leaves a comparable
//! number behind.
//!
//! ```text
//! bench_smoke [--out BENCH_pr.json] [--check-against BENCH_baseline.json]
//!             [--settles 2000]
//! ```
//!
//! The report format is intentionally line-oriented (one config per line)
//! so the checker can parse its own output without a JSON dependency.

use bench::service::{run_service, ServiceConfig, ServiceMix};
use hwlib::campaign::{library_mutation_coverage, CampaignConfig};
use netlist::sim::SimBackend;
use netlist::{CompiledSim, EvalMode, ShardPolicy, ShardedSim, Sim};
use rissp::profile::InstructionSubset;
use rissp::Rissp;
use std::sync::Arc;
use std::time::Instant;
use xcc::OptLevel;

/// Fraction of the baseline's settles/sec below which a configuration is
/// flagged. Generous on purpose: shared CI runners jitter by 2x and the
/// gate is advisory (warn, never fail).
const SOFT_THRESHOLD: f64 = 0.5;

/// One measured configuration.
struct Row {
    name: &'static str,
    backend: &'static str,
    threads: usize,
    lanes: usize,
    ops_per_settle: f64,
    settles_per_sec: f64,
    /// Per-lane-vector throughput: `settles_per_sec * lanes`. The
    /// apples-to-apples number across lane widths — a 256-lane settle
    /// retires 4x the stimulus vectors of a 64-lane settle.
    lane_vectors_per_sec: f64,
}

/// One measured mutation-campaign configuration (a full-library
/// lane-parallel sweep; see `hwlib::campaign` and `docs/campaigns.md`).
struct CampaignRow {
    name: &'static str,
    threads: usize,
    lanes: usize,
    mutants: usize,
    mutants_per_sec: f64,
}

/// One measured service load-mix configuration (a YCSB-style read/update
/// mix against the program cache and concurrent callers; see
/// `bench::service` and `docs/simulation.md` § "Simulation as a
/// service").
struct ServiceRow {
    name: &'static str,
    submitters: usize,
    jobs: u64,
    jobs_per_sec: f64,
    hit_rate: f64,
}

fn usage() -> ! {
    eprintln!("usage: bench_smoke [--out PATH] [--check-against PATH] [--settles N]");
    std::process::exit(2);
}

fn main() {
    let mut out = String::from("BENCH_pr.json");
    let mut baseline: Option<String> = None;
    // 2000 timed settles per config: ~20-100 ms of measured time each.
    // The old 200-settle default measured ~2 ms, which on a shared 1-CPU
    // runner swings +/-40% run to run — enough to fake a regression.
    let mut settles: u64 = 2000;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--check-against" => baseline = Some(args.next().unwrap_or_else(|| usage())),
            "--settles" => {
                settles = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            _ => usage(),
        }
    }

    eprintln!("bench_smoke: building crc32 RISSP core...");
    let lib = hwlib::HwLibrary::build_full();
    let w = workloads::by_name("crc32").expect("crc32 workload");
    let image = w.compile(OptLevel::O2).expect("crc32 compiles");
    let subset = InstructionSubset::from_words(&image.words);
    let rissp = Rissp::generate(&lib, &subset);
    let core = Arc::new(rissp.core.clone());

    let rows = measure(&core, settles);
    eprintln!("bench_smoke: running mutation-campaign probes...");
    let campaigns = measure_campaigns(&lib);
    eprintln!("bench_smoke: running service load-mix probes...");
    let services = measure_service(&lib);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": 1,\n");
    json.push_str("  \"generated_by\": \"bench_smoke\",\n");
    json.push_str(&format!("  \"settles_per_config\": {settles},\n"));
    json.push_str("  \"configs\": [\n");
    for r in rows.iter() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"backend\": \"{}\", \"threads\": {}, \
             \"lanes\": {}, \"ops_per_settle\": {:.1}, \"settles_per_sec\": {:.1}, \
             \"lane_vectors_per_sec\": {:.1}}},\n",
            r.name,
            r.backend,
            r.threads,
            r.lanes,
            r.ops_per_settle,
            r.settles_per_sec,
            r.lane_vectors_per_sec
        ));
    }
    for r in campaigns.iter() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"backend\": \"campaign\", \"threads\": {}, \
             \"lanes\": {}, \"mutants\": {}, \"mutants_per_sec\": {:.1}}},\n",
            r.name, r.threads, r.lanes, r.mutants, r.mutants_per_sec
        ));
    }
    for (i, r) in services.iter().enumerate() {
        let comma = if i + 1 == services.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"backend\": \"service\", \"submitters\": {}, \
             \"jobs\": {}, \"jobs_per_sec\": {:.1}, \"cache_hit_rate\": {:.3}}}{comma}\n",
            r.name, r.submitters, r.jobs, r.jobs_per_sec, r.hit_rate
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, &json).unwrap_or_else(|e| {
        eprintln!("bench_smoke: cannot write {out}: {e}");
        std::process::exit(1);
    });

    println!(
        "{:<28} {:>8} {:>6} {:>14} {:>14} {:>12}",
        "config", "threads", "lanes", "ops/settle", "settles/sec", "Mlanevec/s"
    );
    for r in &rows {
        println!(
            "{:<28} {:>8} {:>6} {:>14.1} {:>14.1} {:>12.2}",
            r.name,
            r.threads,
            r.lanes,
            r.ops_per_settle,
            r.settles_per_sec,
            r.lane_vectors_per_sec / 1e6
        );
    }
    println!(
        "\n{:<28} {:>8} {:>6} {:>10} {:>14}",
        "campaign", "threads", "lanes", "mutants", "mutants/sec"
    );
    for r in &campaigns {
        println!(
            "{:<28} {:>8} {:>6} {:>10} {:>14.1}",
            r.name, r.threads, r.lanes, r.mutants, r.mutants_per_sec
        );
    }
    println!(
        "\n{:<28} {:>10} {:>8} {:>12} {:>10}",
        "service mix", "submitters", "jobs", "jobs/sec", "hit rate"
    );
    for r in &services {
        println!(
            "{:<28} {:>10} {:>8} {:>12.1} {:>9.1}%",
            r.name,
            r.submitters,
            r.jobs,
            r.jobs_per_sec,
            r.hit_rate * 100.0
        );
    }
    eprintln!("bench_smoke: wrote {out}");

    if let Some(path) = baseline {
        let fresh: Vec<(String, f64)> = rows
            .iter()
            .map(|r| (r.name.to_string(), r.settles_per_sec))
            .chain(
                campaigns
                    .iter()
                    .map(|r| (r.name.to_string(), r.mutants_per_sec)),
            )
            .chain(
                services
                    .iter()
                    .map(|r| (r.name.to_string(), r.jobs_per_sec)),
            )
            .collect();
        check_against(&fresh, &path);
    }
}

/// Times full-library lane-parallel mutation sweeps (`hwlib::campaign`)
/// at one and two threads. Pinned seed and mutant budget, so the mutant
/// population is identical run to run and the mutants/sec trajectory is
/// comparable across PRs.
fn measure_campaigns(lib: &hwlib::HwLibrary) -> Vec<CampaignRow> {
    [
        ("campaign_mutation_256l_1t", 256, 1),
        ("campaign_mutation_256l_2t", 256, 2),
    ]
    .into_iter()
    .map(|(name, lanes, threads)| {
        let cfg = CampaignConfig {
            limit: 16,
            seed: 0xbe_ac_11,
            lanes,
            threads,
        };
        // Warm once (first run compiles the instrumented netlists cold),
        // then time a fresh sweep.
        library_mutation_coverage(lib, &cfg);
        let start = Instant::now();
        let reports = library_mutation_coverage(lib, &cfg);
        let elapsed = start.elapsed().as_secs_f64();
        let mutants: usize = reports.iter().map(|bc| bc.report.generated).sum();
        CampaignRow {
            name,
            threads,
            lanes,
            mutants,
            mutants_per_sec: mutants as f64 / elapsed.max(1e-9),
        }
    })
    .collect()
}

/// Times the YCSB-style service load mixes (`bench::service`): two
/// concurrent submitters drive read-heavy / write-heavy / 50-50 mixes
/// against the shared program cache. Reads verify cached library cores
/// (compile hits); updates evaluate fresh mutants (compile misses). Pinned seeds, so the op schedule — and
/// therefore the hit-rate profile — is identical run to run; only
/// jobs/sec moves with the machine.
fn measure_service(lib: &hwlib::HwLibrary) -> Vec<ServiceRow> {
    [
        // One distinct seed per row: a shared seed would re-generate the
        // previous row's mutants, turning its "fresh" updates into cache
        // hits and faking the hit-rate profile.
        ("service_read_heavy_2s", ServiceMix::read_heavy(), 0x51),
        ("service_write_heavy_2s", ServiceMix::write_heavy(), 0x52),
        ("service_mixed_50_50_2s", ServiceMix::mixed(), 0x53),
    ]
    .into_iter()
    .map(|(name, mix, seed)| {
        let cfg = ServiceConfig {
            mix,
            submitters: 2,
            ops_per_submitter: 25,
            threads: 2,
            seed,
        };
        let report = run_service(lib, &cfg);
        ServiceRow {
            name,
            submitters: cfg.submitters,
            jobs: report.jobs,
            jobs_per_sec: report.jobs_per_sec,
            hit_rate: report.cache.hit_rate(),
        }
    })
    .collect()
}

/// Runs every configuration for `settles` timed settles (after a short
/// warmup) and returns the measured rows.
fn measure(core: &Arc<netlist::Netlist>, settles: u64) -> Vec<Row> {
    let mut rows = Vec::new();

    // Interpreted reference: the scalar one-gate-at-a-time baseline.
    {
        let mut sim = Sim::new(core);
        let f = time_settles(settles, |i| {
            sim.set_bus("insn", 0x0000_0113 ^ (i as u32) << 7);
            sim.eval();
            sim.step();
        });
        rows.push(row("interpreted_1_lane", "Sim", 1, 1, &sim, f));
    }

    // Compiled full sweep across lane-block widths: scalar, the classic
    // 64-lane single word, and the K = 2 / K = 4 wide blocks. One settle
    // of the 256-lane row retires 4x the stimulus vectors of the 64-lane
    // row, which is what the lane_vectors_per_sec column normalises.
    for (name, lanes) in [
        ("compiled_1_lane", 1),
        ("compiled_64_lanes", 64),
        ("compiled_128_lanes", 128),
        ("compiled_256_lanes", 256),
    ] {
        let mut sim = CompiledSim::with_lanes_arc(core.clone(), lanes);
        sim.set_eval_mode(EvalMode::FullSweep);
        let f = time_settles(settles, |i| {
            sim.set_bus("insn", 0x0000_0113 ^ (i as u32) << 7);
            sim.eval();
            sim.step();
        });
        rows.push(row(name, "CompiledSim", 1, lanes, &sim, f));
    }

    // The same full-sweep schedule through natively emitted code
    // (`EvalMode::Jit`, docs/jit.md): the per-op interpreter dispatch
    // is the cost these rows exist to measure the removal of. On hosts
    // without codegen support they silently measure the interpreted
    // fallback — the `::notice::` below flags that so a flat jit row on
    // CI is attributable.
    for (name, lanes) in [
        ("compiled_1_lane_jit", 1),
        ("compiled_64_lanes_jit", 64),
        ("compiled_256_lanes_jit", 256),
    ] {
        let mut sim = CompiledSim::with_lanes_arc(core.clone(), lanes);
        sim.set_eval_mode(EvalMode::Jit);
        if !sim.jit_active() {
            println!("::notice::bench-smoke: {name} is running the interpreter fallback (codegen unavailable on this host)");
        }
        let f = time_settles(settles, |i| {
            sim.set_bus("insn", 0x0000_0113 ^ (i as u32) << 7);
            sim.eval();
            sim.step();
        });
        rows.push(row(name, "CompiledSim", 1, lanes, &sim, f));
    }

    // Event-driven sparse schedule: stimulus changes every 8th settle.
    {
        let mut sim = CompiledSim::with_lanes_arc(core.clone(), 64);
        sim.set_eval_mode(EvalMode::EventDriven);
        let f = time_settles(settles, |i| {
            if i % 8 == 0 {
                sim.set_bus("insn", 0x0000_0113 ^ (i as u32) << 7);
            }
            sim.eval();
        });
        rows.push(row("event_driven_sparse", "CompiledSim", 1, 64, &sim, f));
    }

    // Sharded: 4 shards x 64 lanes configured for 2 threads; per-settle
    // `eval` runs them in order on the caller (the row name predates
    // that and stays for baseline continuity). `lane_words: 1` pins the
    // historical one-CompiledSim-per-64-lanes layout so this row stays
    // comparable with its pre-lane-block baseline; the `sharded_block_*` row below
    // measures the same 256 lanes fused into one K = 4 lane block.
    {
        let mut sim = ShardedSim::with_policy_arc(
            core.clone(),
            ShardPolicy {
                shards: 4,
                lanes_per_shard: 64,
                threads: 2,
                lane_words: 1,
            },
        );
        let f = time_settles(settles, |i| {
            sim.set_bus("insn", 0x0000_0113 ^ (i as u32) << 7);
            sim.eval();
            sim.step();
        });
        rows.push(row("sharded_4x64_pool_2t", "ShardedSim", 2, 256, &sim, f));
    }

    // Block-sharded: the same 4 x 64 = 256 lanes, but fused into a
    // single 256-lane (K = 4) lane block — one compile, one state arena,
    // one settle walk. One block leaves one thread to use, so the settle
    // runs on the caller.
    {
        let mut sim = ShardedSim::with_policy_arc(
            core.clone(),
            ShardPolicy {
                shards: 4,
                lanes_per_shard: 64,
                threads: 2,
                lane_words: 4,
            },
        );
        let f = time_settles(settles, |i| {
            sim.set_bus("insn", 0x0000_0113 ^ (i as u32) << 7);
            sim.eval();
            sim.step();
        });
        rows.push(row(
            "sharded_block_256_pool_2t",
            "ShardedSim",
            2,
            256,
            &sim,
            f,
        ));
    }

    rows
}

/// Times `settles` invocations of `step` (plus an untimed 8-settle
/// warmup, which also absorbs the priming full sweep) and returns
/// settles/sec.
fn time_settles(settles: u64, mut step: impl FnMut(u64)) -> f64 {
    for i in 0..8 {
        step(i);
    }
    let start = Instant::now();
    for i in 8..8 + settles {
        step(i);
    }
    settles as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

fn row(
    name: &'static str,
    backend: &'static str,
    threads: usize,
    lanes: usize,
    sim: &dyn SimBackend,
    settles_per_sec: f64,
) -> Row {
    let st = sim.eval_stats();
    Row {
        name,
        backend,
        threads,
        lanes,
        ops_per_settle: st.ops_executed as f64 / st.settles.max(1) as f64,
        settles_per_sec,
        lane_vectors_per_sec: settles_per_sec * lanes as f64,
    }
}

/// Parses the `(name, rate)` pairs out of a bench_smoke report, where
/// the rate is `settles_per_sec` for simulator configs,
/// `mutants_per_sec` for campaign configs and `jobs_per_sec` for service
/// load-mix configs. Line-oriented on purpose: one
/// config object per line, fields in a fixed order, so a substring scan
/// is sufficient and exact for the format this binary writes.
fn parse_rows(text: &str) -> Vec<(String, f64)> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let Some(name) =
            field(line, "\"name\": \"").map(|v| v.split('"').next().unwrap_or("").to_string())
        else {
            continue;
        };
        // The rate is not necessarily the last field in the line, so cut
        // at the first delimiter rather than trimming from the end.
        let Some(rate) = field(line, "\"settles_per_sec\": ")
            .or_else(|| field(line, "\"mutants_per_sec\": "))
            .or_else(|| field(line, "\"jobs_per_sec\": "))
            .and_then(|v| v.split([',', '}']).next()?.trim().parse::<f64>().ok())
        else {
            continue;
        };
        rows.push((name, rate));
    }
    rows
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.find(key).map(|i| &line[i + key.len()..])
}

/// Diffs the fresh rows against a baseline report. Soft gate: prints a
/// GitHub `::warning::` annotation per regressed configuration and a
/// comparison table, but always exits 0 — the 1-CPU runners are too noisy
/// for a hard perf gate, and new configurations simply have no baseline
/// yet.
fn check_against(fresh: &[(String, f64)], path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            println!("::warning::bench-smoke: no baseline at {path} ({e}); skipping diff");
            return;
        }
    };
    let baseline = parse_rows(&text);
    println!(
        "\n{:<28} {:>14} {:>14} {:>8}",
        "config", "baseline rate", "pr rate", "ratio"
    );
    let mut unbaselined: Vec<&str> = Vec::new();
    for (name, rate) in fresh {
        let Some((_, base)) = baseline.iter().find(|(n, _)| n == name) else {
            println!("{name:<28} {:>14} {rate:>14.1} {:>8}", "-", "new");
            unbaselined.push(name);
            continue;
        };
        let ratio = rate / base.max(1e-9);
        println!("{name:<28} {base:>14.1} {rate:>14.1} {ratio:>8.2}");
        if ratio < SOFT_THRESHOLD {
            println!(
                "::warning::bench-smoke: {name} rate regressed to {:.0}% of baseline \
                 ({rate:.1} vs {base:.1}); advisory only — shared runners are noisy",
                ratio * 100.0
            );
        }
    }
    // A row with no baseline entry has no regression tracking at all, so a
    // newly added config (or a renamed one) must not vanish into the table
    // silently — flag it until the baseline is regenerated.
    if !unbaselined.is_empty() {
        println!(
            "::warning::bench-smoke: {} row(s) missing from the baseline: {}; regenerate it \
             with `cargo run --release -p bench --bin bench_smoke -- --out {path}` so they \
             get regression tracking",
            unbaselined.len(),
            unbaselined.join(", ")
        );
    }
    // And the reverse direction: baseline rows the fresh run no longer
    // produces usually mean a config was renamed or dropped — either way the
    // baseline is stale for them.
    let stale: Vec<&str> = baseline
        .iter()
        .filter(|(n, _)| !fresh.iter().any(|(f, _)| f == n))
        .map(|(n, _)| n.as_str())
        .collect();
    if !stale.is_empty() {
        println!(
            "::warning::bench-smoke: {} baseline row(s) not measured by this run: {}; \
             stale until the baseline is regenerated",
            stale.len(),
            stale.join(", ")
        );
    }
}
