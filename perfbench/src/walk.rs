//! The traced run: re-walks every workload through the same public calls
//! with a span around each, then probes single layers on the cores the
//! walks built.
//!
//! Each walk runs twice from a cleared program cache, untraced and then
//! traced; `trace.overhead_share` is their ratio minus one. Per-layer
//! numbers come from the traced walk's spans and from the probes, which
//! run after the walks and are not part of either timing. Spans are
//! written to `<--spans>/spans-<workload>.jsonl` and the self time of
//! every layer is printed on stderr.

use crate::service::{self, Op};
use crate::span::Tracer;
use crate::{
    derive, fuzz_config, fuzz_plan, mutation_config, reference, splitmix, verdict_digest, Args,
    Json, FUZZ_LANES, MUTATION_LANES,
};
use flexic::physical::implement;
use flexic::power::{activity_from_counts, measured_activity};
use flexic::sweep::{energy_per_instruction_nj, frequency_sweep};
use flexic::tech::Tech;
use flexic::DesignMetrics;
use hwlib::campaign::{
    instrument, lane_mutation_coverage, library_mutation_coverage, BlockCoverage,
};
use hwlib::mutate::mutants_of;
use hwlib::{ports, HwLibrary, InstrBlock};
use netlist::jit::{self, JitOptions};
use netlist::level::Program;
use netlist::stats::GateCounts;
use netlist::{CompiledSim, EvalMode, EvalStats, Netlist, ProgramCache};
use riscv_emu::Emulator;
use rissp::campaign::random_program;
use rissp::processor::{BatchedGateLevelCpu, GateLevelCpu};
use rissp::profile::InstructionSubset;
use rissp::Rissp;
use serv_model::{serv_gate_counts, ServTiming, SERV_ACTIVITY, SERV_CRITICAL_PATH_NS};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use workloads::Workload;
use xcc::{CompiledProgram, OptLevel, CODE_BASE};

/// Gate-level activity window of the released exhibits.
const ACTIVITY_CYCLES: u64 = 1500;
/// Ops per traced service walk.
const TRACE_SERVICE_OPS: usize = 1000;
/// Cores each probe samples, chosen by seed.
const PROBE_CORES: usize = 3;
/// Span-name prefixes of the program's layers. Time in any other span
/// (the walk itself, an exhibit, a service request) is the benchmark's
/// own and counts as unattributed.
const LAYERS: [&str; 11] = [
    "xcc",
    "profile",
    "rissp",
    "processor",
    "flexic",
    "hwlib",
    "netlist",
    "sim",
    "emu",
    "serv",
    "retarget",
];

type Metrics = BTreeMap<String, f64>;

/// Work counts a walk must repeat exactly.
#[derive(Default, PartialEq, Debug)]
struct Counts(BTreeMap<&'static str, u64>);

impl Counts {
    fn add(&mut self, k: &'static str, v: u64) {
        *self.0.entry(k).or_default() += v;
    }
    fn get(&self, k: &str) -> u64 {
        self.0.get(k).copied().unwrap_or(0)
    }
    fn stats(&mut self, settles: &'static str, ops: &'static str, s: EvalStats) {
        self.add(settles, s.settles);
        self.add(ops, s.ops_executed);
    }
}

/// What one walk hands back besides its counts.
#[derive(Default)]
struct Out {
    counts: Counts,
    failed: u64,
    attempted: u64,
    cores: Vec<Arc<Netlist>>,
    blocks: Vec<BlockCoverage>,
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// `n` distinct indices below `len`, chosen by seed.
fn sample(seed: u64, len: usize, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..len).collect();
    let mut rng = seed;
    for i in (1..len).rev() {
        idx.swap(i, (splitmix(&mut rng) % (i as u64 + 1)) as usize);
    }
    idx.truncate(n);
    idx
}

// ---------------------------------------------------------------------
// paper_pipeline: the six exhibits, computed as the released bins do
// ---------------------------------------------------------------------

struct Design {
    name: String,
    distinct: usize,
    metrics: DesignMetrics,
}

fn row(d: &Design) -> String {
    let sweep = frequency_sweep(&d.metrics);
    let epi = energy_per_instruction_nj(&d.metrics, &sweep);
    format!(
        "{:<22} {:>4} {:>10} {:>12.0} {:>11.3} {:>8.1} {:>10.3}",
        d.name,
        d.distinct,
        sweep.fmax_khz,
        sweep.avg_area_nand2,
        sweep.avg_power_mw,
        d.metrics.cpi,
        epi
    )
}

fn load(tr: &mut Tracer, w: &Workload, level: OptLevel) -> CompiledProgram {
    tr.span("xcc.compile", |_| {
        w.compile(level).expect("workload compiles")
    })
}

fn characterise(tr: &mut Tracer, o: &mut Out, lib: &HwLibrary, w: &Workload, t: &Tech) -> Design {
    let image = load(tr, w, OptLevel::O2);
    let subset = tr.span("profile.subset", |_| {
        InstructionSubset::from_words(&image.words)
    });
    let rissp = tr.span("rissp.generate", |_| Rissp::generate(lib, &subset));
    o.counts.add("rissp.generates", 1);
    let mut cpu = tr.span("processor.new", |_| {
        let mut cpu = GateLevelCpu::new(&rissp, 0);
        cpu.load_words(0, &image.words);
        for (base, words) in &image.data_segments {
            cpu.load_words(*base, words);
        }
        cpu
    });
    let _ = tr.span("processor.run.scalar", |_| cpu.run(ACTIVITY_CYCLES));
    o.counts.add("cycles.scalar", cpu.cycles());
    o.counts
        .stats("settles.scalar", "ops.scalar", cpu.sim().eval_stats());
    let name = format!("RISSP-{}", w.name);
    let metrics = tr.span("flexic.sta", |_| {
        DesignMetrics::of_netlist(name.clone(), &rissp.core, t, measured_activity(cpu.sim()))
    });
    Design {
        name,
        distinct: subset.len(),
        metrics,
    }
}

fn characterise_rv32e(tr: &mut Tracer, o: &mut Out, lib: &HwLibrary, t: &Tech) -> Design {
    let rissp = tr.span("rissp.generate", |_| Rissp::generate_full_isa(lib));
    o.counts.add("rissp.generates", 1);
    let images: Vec<_> = workloads::all()
        .iter()
        .map(|w| load(tr, w, OptLevel::O2))
        .collect();
    let mut cpu = tr.span("processor.new", |_| {
        let mut cpu = BatchedGateLevelCpu::new(&rissp, &vec![0u32; images.len()]);
        for (lane, image) in images.iter().enumerate() {
            cpu.load_words(lane, 0, &image.words);
            for (base, words) in &image.data_segments {
                cpu.load_words(lane, *base, words);
            }
        }
        cpu
    });
    let _ = tr.span("processor.run.batched", |_| cpu.run(ACTIVITY_CYCLES));
    let steps = (0..cpu.lanes()).map(|l| cpu.cycles(l)).max().unwrap_or(0);
    o.counts.add("steps.batched", steps);
    o.counts.add("cycles.batched", cpu.committed_cycles());
    o.counts
        .stats("settles.batched", "ops.batched", cpu.sim().eval_stats());
    let activity = activity_from_counts(
        cpu.sim().toggles().iter().sum(),
        cpu.sim().toggles().len(),
        cpu.committed_cycles(),
        1,
    );
    let metrics = tr.span("flexic.sta", |_| {
        DesignMetrics::of_netlist("RISSP-RV32E", &rissp.core, t, activity)
    });
    Design {
        name: "RISSP-RV32E".into(),
        distinct: riscv_isa::ALL_MNEMONICS.len(),
        metrics,
    }
}

fn characterise_serv(tr: &mut Tracer) -> Design {
    let w = workloads::by_name("crc32").expect("crc32");
    let image = load(tr, &w, OptLevel::O2);
    let cpi = tr.span("serv.cpi", |_| {
        ServTiming.measure_cpi(&image.words, &image.data_segments)
    });
    Design {
        name: "Serv".into(),
        distinct: riscv_isa::ALL_MNEMONICS.len(),
        metrics: DesignMetrics {
            name: "Serv".into(),
            counts: serv_gate_counts(),
            critical_path_ns: SERV_CRITICAL_PATH_NS,
            activity: SERV_ACTIVITY,
            cpi,
        },
    }
}

/// Counts a row the walk computed that the golden exhibit lacks.
fn expect_row(o: &mut Out, golden: &str, row: &str) {
    o.attempted += 1;
    if !golden.lines().any(|l| l == row) {
        eprintln!("perfbench: traced walk computed a row missing from the golden output:\n  {row}");
        o.failed += 1;
    }
}

fn exhibit(tr: &mut Tracer, name: &'static str, f: impl FnOnce(&mut Tracer)) {
    // Each released exhibit is its own process: start from a cold cache.
    ProgramCache::global().clear();
    tr.span(name, f);
}

fn walk_pipeline(tr: &mut Tracer, golden: &BTreeMap<String, String>) -> Out {
    let mut o = Out::default();
    let t = Tech::flexic_gen();
    let gold = |n: &str| golden.get(n).cloned().unwrap_or_default();
    exhibit(tr, "exhibit.fig5", |tr| {
        for w in &workloads::all() {
            for level in OptLevel::ALL {
                let image = load(tr, w, level);
                tr.span("profile.subset", |_| {
                    InstructionSubset::from_words(&image.words)
                });
            }
        }
    });
    exhibit(tr, "exhibit.fig6_7_8_9", |tr| {
        let lib = tr.span("hwlib.build_full", |_| HwLibrary::build_full());
        let mut designs: Vec<Design> = workloads::all()
            .iter()
            .map(|w| characterise(tr, &mut o, &lib, w, &t))
            .collect();
        designs.push(characterise_rv32e(tr, &mut o, &lib, &t));
        designs.push(characterise_serv(tr));
        let g = gold("fig6_7_8_9");
        for d in &designs {
            let r = tr.span("flexic.sweep", |_| row(d));
            expect_row(&mut o, &g, &r);
        }
    });
    exhibit(tr, "exhibit.fig10", |tr| {
        let lib = tr.span("hwlib.build_full", |_| HwLibrary::build_full());
        let mut designs = vec![characterise_rv32e(tr, &mut o, &lib, &t)];
        for name in ["af_detect", "armpit", "xgboost"] {
            let w = workloads::by_name(name).expect("edge app");
            designs.push(characterise(tr, &mut o, &lib, &w, &t));
        }
        designs.push(characterise_serv(tr));
        let g = gold("fig10");
        for (i, d) in designs.iter().enumerate() {
            let edge = (1..=3).contains(&i).then_some(d.distinct);
            let l = tr.span("flexic.implement", |_| implement(&d.metrics, &t, edge));
            let r = format!(
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
            expect_row(&mut o, &g, &r);
        }
    });
    exhibit(tr, "exhibit.fig12", |tr| {
        for name in ["armpit", "xgboost", "af_detect"] {
            let w = workloads::by_name(name).expect("edge app");
            let image = load(tr, &w, OptLevel::O2);
            let report = tr.span("retarget.retarget", |_| {
                retarget::Retargeter::new(retarget::minimal_subset(), 0xecc5)
                    .retarget(&image.items)
                    .expect("retarget succeeds")
            });
            let run = |tr: &mut Tracer, words: &[u32]| {
                tr.span("emu.run", |_| {
                    let mut emu = Emulator::new();
                    emu.load_words(0, words);
                    for (base, data) in &image.data_segments {
                        emu.load_words(*base, data);
                    }
                    emu.run(400_000_000).expect("runs");
                    emu.state().regs[10]
                })
            };
            o.attempted += 1;
            if run(tr, &image.words) != run(tr, &report.words) {
                o.failed += 1;
            }
        }
    });
    exhibit(tr, "exhibit.table2", |tr| {
        let lib = tr.span("hwlib.build_full", |_| HwLibrary::build_full());
        for b in lib.iter() {
            tr.span("netlist.stats", |_| {
                GateCounts::of(&b.netlist).nand2_equivalent()
            });
        }
    });
    exhibit(tr, "exhibit.table3", |tr| {
        for w in &workloads::all() {
            let image = load(tr, w, OptLevel::O2);
            tr.span("profile.subset", |_| {
                InstructionSubset::from_words(&image.words)
            });
        }
    });
    o
}

// ---------------------------------------------------------------------
// mutation_campaign, fuzz_campaign, verify_service
// ---------------------------------------------------------------------

fn walk_mutation(tr: &mut Tracer, seed: u64) -> Out {
    let mut o = Out::default();
    let lib = tr.span("hwlib.build_full", |_| HwLibrary::build_full());
    let cfg = mutation_config(seed, 1);
    for b in lib.iter() {
        let report = tr.span("hwlib.campaign_block", |_| {
            lane_mutation_coverage(b, cfg.limit, cfg.seed, cfg.lanes)
        });
        o.counts.add("mutants", report.generated as u64);
        o.counts.add("observable", report.observable as u64);
        o.counts.add("killed", report.killed as u64);
        o.blocks.push(BlockCoverage {
            mnemonic: b.mnemonic,
            report,
        });
    }
    o.counts.add(
        "verdicts_fnv",
        verdict_digest(o.blocks.iter().map(|b| b.report)),
    );
    o
}

fn walk_fuzz(tr: &mut Tracer, bases: &[u64]) -> Out {
    let mut o = Out::default();
    let lib = tr.span("hwlib.build_full", |_| HwLibrary::build_full());
    for &base in bases {
        let cfg = fuzz_config(base);
        let wave: Vec<u64> = (base..base + cfg.iterations).collect();
        let programs: Vec<_> = tr.span("rissp.random_program", |_| {
            wave.iter().map(|&s| random_program(s)).collect()
        });
        let images: Vec<CompiledProgram> = programs
            .iter()
            .map(|p| {
                tr.span("xcc.compile", |_| {
                    xcc::compile(p, cfg.opt_level).expect("generated programs compile")
                })
            })
            .collect();
        let subset = tr.span("profile.subset", |_| {
            images
                .iter()
                .map(|i| InstructionSubset::from_words(&i.words))
                .fold(InstructionSubset::new(), |a, b| a.union(&b))
        });
        let rissp = tr.span("rissp.generate", |_| Rissp::generate(&lib, &subset));
        o.counts.add("rissp.generates", 1);
        let mut cpu = tr.span("processor.new", |_| {
            let mut cpu = BatchedGateLevelCpu::new(&rissp, &vec![CODE_BASE; wave.len()]);
            for (lane, image) in images.iter().enumerate() {
                for (base, words) in image.segments() {
                    cpu.load_words(lane, base, words);
                }
            }
            cpu
        });
        let refs: Vec<(Emulator, u64)> = images
            .iter()
            .map(|image| {
                tr.span("emu.run", |_| {
                    let mut emu = Emulator::with_entry(CODE_BASE);
                    image.load(&mut emu);
                    let s = emu
                        .run(cfg.max_cycles)
                        .expect("generated programs never fault");
                    (emu, s.retired)
                })
            })
            .collect();
        let slowest = refs.iter().map(|r| r.1).max().unwrap_or(0);
        let results = tr.span("processor.run.batched", |_| {
            cpu.run(cfg.max_cycles.min(slowest + 2))
        });
        let steps = (0..cpu.lanes()).map(|l| cpu.cycles(l)).max().unwrap_or(0);
        o.counts.add("steps.batched", steps);
        o.counts.add("cycles.batched", cpu.committed_cycles());
        o.counts.add("emu.retired", refs.iter().map(|r| r.1).sum());
        o.counts
            .stats("settles.batched", "ops.batched", cpu.sim().eval_stats());
        for (lane, (emu, retired)) in refs.iter().enumerate() {
            o.attempted += 1;
            let regs_match =
                (0..riscv_isa::REG_COUNT).all(|i| cpu.reg(lane, i) == emu.state().regs[i]);
            if results[lane].as_ref().ok() != Some(&(retired + 1)) || !regs_match {
                o.failed += 1;
            }
        }
        o.cores.push(Arc::new(rissp.core));
    }
    o
}

fn walk_service(tr: &mut Tracer, seed: u64) -> Out {
    let mut o = Out::default();
    let (lib, plan) = tr.span("service.setup", |tr| {
        let lib = tr.span("hwlib.build_full", |_| HwLibrary::build_full());
        let plan = service::plan(&lib, seed, TRACE_SERVICE_OPS);
        for b in lib.iter() {
            service::read_op(b, tr);
        }
        (lib, plan)
    });
    let blocks: Vec<&InstrBlock> = lib.iter().collect();
    let before = ProgramCache::global().stats();
    // One client at a time: spans nest on one thread.
    for &op in plan.clients.iter().flatten() {
        o.attempted += 1;
        let ok = match op {
            Op::Read(b) => {
                o.counts.add("reads", 1);
                tr.span("service.read", |tr| service::read_op(blocks[b], tr))
            }
            Op::Update(u) => {
                o.counts.add("updates", 1);
                tr.span("service.update", |tr| {
                    service::update_op(&plan.updates[u], tr)
                })
            }
        };
        o.failed += u64::from(!ok);
    }
    let after = ProgramCache::global().stats();
    o.counts.add("ops.hits", after.hits - before.hits);
    o.counts.add("ops.misses", after.misses - before.misses);
    o
}

// ---------------------------------------------------------------------
// Probes: single layers on the cores the walks built
// ---------------------------------------------------------------------

/// Median µs per settle of `lanes`-wide random stimulus on every input
/// port, plus the eval statistics.
fn settle_probe(core: &Arc<Netlist>, lanes: usize, mode: EvalMode, seed: u64) -> (f64, EvalStats) {
    let mut sim = CompiledSim::with_lanes_arc(Arc::clone(core), lanes);
    sim.set_eval_mode(mode);
    let ports: Vec<String> = core.inputs().iter().map(|p| p.name.clone()).collect();
    let mut rng = seed;
    let mut stimulus = |sim: &mut CompiledSim| {
        for p in &ports {
            let vals: Vec<u64> = (0..lanes).map(|_| splitmix(&mut rng)).collect();
            sim.set_bus_lanes(p, &vals);
        }
    };
    stimulus(&mut sim);
    sim.eval();
    let settles = (4096 / lanes).clamp(16, 256);
    let mut batches = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..settles {
            stimulus(&mut sim);
            sim.eval();
            sim.step();
        }
        batches.push(t.elapsed().as_secs_f64() * 1e6 / settles as f64);
    }
    (median(batches), sim.eval_stats())
}

#[derive(Default)]
struct JitProbe {
    emit_us: Vec<f64>,
    code_bytes: u64,
    refusals: u64,
}

impl JitProbe {
    fn emit(&mut self, core: &Netlist, lane_words: usize) {
        let prog = Program::compile(core);
        let (r, s) = time(|| jit::compile(&prog, lane_words, &JitOptions::default()));
        match r {
            Ok(code) => {
                self.emit_us.push(s * 1e6);
                self.code_bytes += code.code_bytes() as u64;
            }
            Err(_) => self.refusals += 1,
        }
    }
}

/// Replays a scalar core's recorded cycles (the exact four-settle
/// sequence `GateLevelCpu::step` drives) on a bare simulator, returning
/// the replay time and total toggles.
fn replay(core: &Arc<Netlist>, trace: &[riscv_emu::RvfiRecord], mode: EvalMode) -> (f64, u64) {
    let mut sim = CompiledSim::new_arc(Arc::clone(core));
    sim.set_eval_mode(mode);
    for net in &core.output("pc").expect("core exposes pc").nets {
        sim.set_ff(*net, false);
    }
    let t = Instant::now();
    for r in trace {
        sim.eval();
        sim.set_bus(ports::INSN, r.insn);
        sim.eval();
        sim.set_bus(ports::RS1_DATA, r.rs1_data);
        sim.set_bus(ports::RS2_DATA, r.rs2_data);
        sim.eval();
        sim.set_bus(ports::DMEM_RDATA, r.mem_rdata);
        sim.eval();
        sim.step();
    }
    (t.elapsed().as_secs_f64(), sim.toggles().iter().sum())
}

fn probe_pipeline(m: &mut Metrics, jp: &mut JitProbe, seed: u64) -> u64 {
    let lib = HwLibrary::build_full();
    let all = workloads::all();
    let (mut run_s, mut interp_s, mut jit_s, mut settles, mut mismatches) =
        (0.0, 0.0, 0.0, 0u64, 0);
    for i in sample(derive(seed, 30), all.len(), PROBE_CORES) {
        let image = all[i].compile(OptLevel::O2).expect("workload compiles");
        let rissp = Rissp::generate(&lib, &InstructionSubset::from_words(&image.words));
        let core = Arc::new(rissp.core.clone());
        let cpu_run = |trace: bool| {
            let mut cpu = GateLevelCpu::with_core_arc(Arc::clone(&core), 0);
            if trace {
                cpu.enable_trace();
            }
            cpu.load_words(0, &image.words);
            for (base, words) in &image.data_segments {
                cpu.load_words(*base, words);
            }
            let (_, s) = time(|| cpu.run(ACTIVITY_CYCLES));
            (cpu, s)
        };
        let (_, s) = cpu_run(false);
        run_s += s;
        let (mut cpu, _) = cpu_run(true);
        let trace = cpu.take_trace();
        let (si, toggles) = replay(&core, trace.records(), EvalMode::Auto);
        let (sj, _) = replay(&core, trace.records(), EvalMode::Jit);
        if toggles != cpu.sim().toggles().iter().sum::<u64>() {
            mismatches += 1;
        }
        interp_s += si;
        jit_s += sj;
        settles += 4 * trace.len() as u64;
        jp.emit(&core, 1);
    }
    m.insert("processor.settle_share".into(), interp_s / run_s);
    m.insert(
        "sim.settle_us.interp.l1".into(),
        interp_s * 1e6 / settles as f64,
    );
    m.insert("sim.settle_us.jit.l1".into(), jit_s * 1e6 / settles as f64);
    mismatches
}

fn probe_fuzz(m: &mut Metrics, jp: &mut JitProbe, cores: &[Arc<Netlist>], seed: u64) {
    let (mut interp, mut native) = (Vec::new(), Vec::new());
    for core in cores {
        interp.push(settle_probe(core, FUZZ_LANES, EvalMode::Auto, derive(seed, 31)).0);
        native.push(settle_probe(core, FUZZ_LANES, EvalMode::Jit, derive(seed, 31)).0);
        jp.emit(core, 1);
    }
    m.insert("sim.settle_us.interp.l64".into(), median(interp));
    m.insert("sim.settle_us.jit.l64".into(), median(native));
}

fn probe_mutation(m: &mut Metrics, c: &mut Counts, seed: u64) -> JitProbe {
    let lib = HwLibrary::build_full();
    let blocks: Vec<&InstrBlock> = lib.iter().collect();
    let mut jp = JitProbe::default();
    let (mut mutants_s, mut instr_s, mut compile_s, mut interp, mut native) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in sample(derive(seed, 32), blocks.len(), PROBE_CORES) {
        let cfg = mutation_config(seed, 1);
        let (mutants, s) = time(|| mutants_of(blocks[i], cfg.limit, cfg.seed));
        mutants_s.push(s * 1e3);
        let chunk: Vec<_> = mutants.iter().take(MUTATION_LANES - 1).collect();
        let (inst, s) = time(|| instrument(&blocks[i].netlist, &chunk));
        instr_s.push(s * 1e3);
        let (_, s) = time(|| Program::compile(&inst));
        compile_s.push(s * 1e6);
        let inst = Arc::new(inst);
        let (us, stats) = settle_probe(&inst, MUTATION_LANES, EvalMode::Auto, derive(seed, 33));
        interp.push(us);
        c.add("probe.settles", stats.settles);
        c.add("probe.ops", stats.ops_executed);
        native.push(settle_probe(&inst, MUTATION_LANES, EvalMode::Jit, derive(seed, 33)).0);
        jp.emit(&inst, MUTATION_LANES / 64);
    }
    m.insert("hwlib.mutants_of_ms".into(), median(mutants_s));
    m.insert("hwlib.instrument_ms".into(), median(instr_s));
    m.insert("netlist.compile_us.mutation".into(), median(compile_s));
    m.insert("sim.settle_us.interp.l256".into(), median(interp));
    m.insert("sim.settle_us.jit.l256".into(), median(native));

    // Pool scaling: the whole campaign at one and two threads, each from
    // a cold cache; the reports must agree.
    let run = |threads| {
        ProgramCache::global().clear();
        time(|| library_mutation_coverage(&lib, &mutation_config(seed, threads)))
    };
    let (r1, s1) = run(1);
    let (r2, s2) = run(2);
    m.insert("pool.speedup_2t".into(), s1 / s2);
    c.add("pool.mismatch", u64::from(r1 != r2));
    jp
}

fn probe_service(m: &mut Metrics, seed: u64) {
    let lib = HwLibrary::build_full();
    let plan = service::plan(&lib, seed, 200);
    let mut hash = Vec::new();
    let mut hit = Vec::new();
    for b in lib.iter() {
        drop(CompiledSim::new_arc(Arc::new(b.netlist.clone())));
    }
    for b in lib.iter() {
        let fresh = Arc::new(b.netlist.clone());
        hash.push(time(|| ProgramCache::content_hash(&fresh)).1 * 1e6);
        hit.push(time(|| ProgramCache::global().get_or_compile(&fresh)).1 * 1e6);
    }
    let compile: Vec<f64> = plan
        .updates
        .iter()
        .map(|u| time(|| Program::compile(&u.netlist)).1 * 1e6)
        .collect();
    m.insert("cache.hash_us".into(), median(hash));
    m.insert("cache.hit_us".into(), median(hit));
    m.insert("netlist.compile_us.service".into(), median(compile));
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

fn per_call_ms(tr: &Tracer, name: &str) -> f64 {
    let d = tr.durations(name);
    d.iter().sum::<f64>() * 1e3 / d.len().max(1) as f64
}

fn total_s(tr: &Tracer, name: &str) -> f64 {
    tr.durations(name).iter().sum()
}

/// Walks `name` untraced and then traced, from a cold cache each time;
/// reports the overhead, the unattributed share, the cache deltas, and
/// the self time per layer on stderr. Returns the traced walk.
fn measure(
    name: &'static str,
    short: &str,
    m: &mut Metrics,
    spans_dir: &str,
    walk: &mut dyn FnMut(&mut Tracer) -> Out,
) -> Result<(Tracer, Out), String> {
    ProgramCache::global().clear();
    let mut plain = Tracer::new(false);
    let (first, untraced_s) = time(|| walk(&mut plain));
    ProgramCache::global().clear();
    let before = ProgramCache::global().stats();
    let mut tr = Tracer::new(true);
    let mut out = tr.span("workload", |tr| walk(tr));
    let after = ProgramCache::global().stats();
    if first.counts != out.counts {
        eprintln!("perfbench: {name}: untraced and traced walks counted different work");
        out.failed += 1;
    }
    let layers = tr.layers();
    let root = &layers["workload"];
    let traced_s = root.total_ns as f64 * 1e-9;
    let unattributed_ns: u64 = layers
        .iter()
        .filter(|(name, _)| !LAYERS.iter().any(|l| name.split('.').next() == Some(*l)))
        .map(|(_, l)| l.self_ns)
        .sum();
    m.insert(
        format!("trace.overhead_share.{short}"),
        traced_s / untraced_s - 1.0,
    );
    m.insert(
        format!("trace.unattributed_share.{short}"),
        unattributed_ns as f64 / root.total_ns as f64,
    );
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    m.insert(format!("cache.hits.{short}"), hits as f64);
    m.insert(format!("cache.misses.{short}"), misses as f64);
    m.insert(
        format!("cache.hit_ratio.{short}"),
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.counts.add("cache.hits", hits);
    out.counts.add("cache.misses", misses);

    eprintln!("{name}: traced {traced_s:.3} s, untraced {untraced_s:.3} s");
    eprintln!(
        "  {:<26} {:>7} {:>11} {:>11} {:>7}",
        "layer", "calls", "total_ms", "self_ms", "self%"
    );
    let mut by_self: Vec<_> = layers.iter().collect();
    by_self.sort_by_key(|l| std::cmp::Reverse(l.1.self_ns));
    for (layer, l) in by_self {
        eprintln!(
            "  {:<26} {:>7} {:>11.3} {:>11.3} {:>6.1}%",
            layer,
            l.calls,
            l.total_ns as f64 * 1e-6,
            l.self_ns as f64 * 1e-6,
            100.0 * l.self_ns as f64 / root.total_ns as f64
        );
    }
    std::fs::write(format!("{spans_dir}/spans-{name}.jsonl"), tr.to_jsonl(name))
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok((tr, out))
}

pub fn run(a: &Args) -> Result<String, String> {
    let seed = a.seed;
    let spans_dir = a.text("spans")?;
    let golden_dir = a.text("golden")?;
    let mut golden = BTreeMap::new();
    for n in ["fig6_7_8_9", "fig10"] {
        let text = std::fs::read_to_string(format!("{golden_dir}/{n}.txt"))
            .map_err(|e| format!("reading golden {n}: {e}"))?;
        golden.insert(n.to_string(), text);
    }
    let mut m = Metrics::new();
    let mut counts = Json::default();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // paper_pipeline
    let (tr, o) = measure(
        "paper_pipeline",
        "pipeline",
        &mut m,
        &spans_dir,
        &mut |tr| walk_pipeline(tr, &golden),
    )?;
    let c = &o.counts;
    let root_s = total_s(&tr, "workload");
    m.insert(
        "hwlib.build_full_ms".into(),
        per_call_ms(&tr, "hwlib.build_full"),
    );
    m.insert(
        "xcc.compile_ms.pipeline".into(),
        per_call_ms(&tr, "xcc.compile"),
    );
    m.insert(
        "profile.subset_ms.pipeline".into(),
        per_call_ms(&tr, "profile.subset"),
    );
    m.insert(
        "rissp.generate_ms.pipeline".into(),
        per_call_ms(&tr, "rissp.generate"),
    );
    m.insert(
        "rissp.generates.pipeline".into(),
        c.get("rissp.generates") as f64,
    );
    let scalar_s = total_s(&tr, "processor.run.scalar");
    let batched_s = total_s(&tr, "processor.run.batched");
    m.insert(
        "processor.cycle_us.scalar".into(),
        scalar_s * 1e6 / c.get("cycles.scalar") as f64,
    );
    m.insert(
        "processor.cycle_us.batched.pipeline".into(),
        batched_s * 1e6 / c.get("steps.batched") as f64,
    );
    m.insert("processor.run_share.scalar".into(), scalar_s / root_s);
    m.insert("processor.run_share.batched".into(), batched_s / root_s);
    let cycles = c.get("cycles.scalar") + c.get("cycles.batched");
    m.insert("processor.cycles.pipeline".into(), cycles as f64);
    m.insert(
        "sim.ops_per_settle.pipeline".into(),
        c.get("ops.scalar") as f64 / c.get("settles.scalar") as f64,
    );
    m.insert("flexic.sta_ms".into(), per_call_ms(&tr, "flexic.sta"));
    m.insert("flexic.sweep_ms".into(), per_call_ms(&tr, "flexic.sweep"));
    m.insert(
        "flexic.implement_ms".into(),
        per_call_ms(&tr, "flexic.implement"),
    );
    m.insert("serv.cpi_ms".into(), per_call_ms(&tr, "serv.cpi"));
    counts = counts.object("paper_pipeline", counts_json(c));
    attempted += o.attempted;
    failed += o.failed;
    let mut jit_k1 = JitProbe::default();
    let replay_mismatches = probe_pipeline(&mut m, &mut jit_k1, seed);
    attempted += 1;
    failed += u64::from(replay_mismatches > 0);

    // mutation_campaign
    let (tr, mut o) = measure(
        "mutation_campaign",
        "mutation",
        &mut m,
        &spans_dir,
        &mut |tr| walk_mutation(tr, seed),
    )?;
    m.insert(
        "netlist.compiles.mutation".into(),
        o.counts.get("cache.misses") as f64,
    );
    drop(tr);
    let lib = HwLibrary::build_full();
    let r = reference(&lib, &mutation_config(seed, 1));
    let mismatches = r.mismatches + u64::from(o.blocks[r.block].report != r.report);
    let mut probe_counts = Counts::default();
    let jit_k4 = probe_mutation(&mut m, &mut probe_counts, seed);
    m.insert(
        "sim.ops_per_settle.mutation".into(),
        probe_counts.get("probe.ops") as f64 / probe_counts.get("probe.settles") as f64,
    );
    attempted += o.attempted + lib.len() as u64 + 2;
    failed += o.failed + probe_counts.get("pool.mismatch") + mismatches;
    o.counts
        .add("probe.settles", probe_counts.get("probe.settles"));
    o.counts.add("probe.ops", probe_counts.get("probe.ops"));
    counts = counts.object("mutation_campaign", counts_json(&o.counts));

    // fuzz_campaign
    let bases = fuzz_plan(seed);
    let (tr, o) = measure("fuzz_campaign", "fuzz", &mut m, &spans_dir, &mut |tr| {
        walk_fuzz(tr, &bases)
    })?;
    let c = &o.counts;
    m.insert(
        "xcc.compile_ms.fuzz".into(),
        per_call_ms(&tr, "xcc.compile"),
    );
    m.insert(
        "profile.subset_ms.fuzz".into(),
        per_call_ms(&tr, "profile.subset"),
    );
    m.insert(
        "rissp.generate_ms.fuzz".into(),
        per_call_ms(&tr, "rissp.generate"),
    );
    m.insert(
        "rissp.generates.fuzz".into(),
        c.get("rissp.generates") as f64,
    );
    m.insert(
        "processor.cycle_us.batched.fuzz".into(),
        total_s(&tr, "processor.run.batched") * 1e6 / c.get("steps.batched") as f64,
    );
    m.insert(
        "processor.cycles.fuzz".into(),
        c.get("cycles.batched") as f64,
    );
    m.insert(
        "sim.ops_per_settle.fuzz".into(),
        c.get("ops.batched") as f64 / c.get("settles.batched") as f64,
    );
    m.insert("emu.run_ms".into(), per_call_ms(&tr, "emu.run"));
    m.insert("emu.retired".into(), c.get("emu.retired") as f64);
    probe_fuzz(&mut m, &mut jit_k1, &o.cores, seed);
    attempted += o.attempted;
    failed += o.failed;
    counts = counts.object("fuzz_campaign", counts_json(c));

    // verify_service
    let (tr, o) = measure("verify_service", "service", &mut m, &spans_dir, &mut |tr| {
        walk_service(tr, seed)
    })?;
    m.insert("hwlib.verify_ms".into(), per_call_ms(&tr, "hwlib.verify"));
    m.insert(
        "netlist.compiles.service".into(),
        o.counts.get("ops.misses") as f64,
    );
    probe_service(&mut m, seed);
    attempted += o.attempted;
    failed += o.failed;
    counts = counts.object("verify_service", counts_json(&o.counts));

    m.insert("jit.emit_us.k1".into(), median(jit_k1.emit_us));
    m.insert("jit.emit_us.k4".into(), median(jit_k4.emit_us));
    m.insert("jit.code_bytes.k1".into(), jit_k1.code_bytes as f64);
    m.insert("jit.code_bytes.k4".into(), jit_k4.code_bytes as f64);
    m.insert(
        "jit.refusals".into(),
        (jit_k1.refusals + jit_k4.refusals) as f64,
    );

    let metrics = m.iter().fold(Json::default(), |j, (k, v)| j.num(k, *v));
    Ok(Json::default()
        .int("attempted", attempted)
        .int("failed", failed)
        .boolean("jit_host_supported", jit::host_supported())
        .object("metrics", metrics)
        .object("counts", counts)
        .finish())
}

fn counts_json(c: &Counts) -> Json {
    c.0.iter().fold(Json::default(), |j, (k, v)| j.int(k, *v))
}
