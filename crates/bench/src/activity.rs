//! Time-parallel switching-activity runs.
//!
//! A RISSP core's only state is its 32 PC flip-flops: the register file
//! and the memories are behavioural models outside the netlist
//! ([`rissp::processor::build_core`]). So one cycle's four settles are a
//! pure function of that cycle's `pc`, `insn`, `rs1/rs2_data` and
//! `dmem_rdata` plus the previous cycle's input words, which phases 0–2
//! still see. Given those, 64 consecutive cycles settle as the 64 lanes of
//! one block: lane `j` of batch `b` is cycle `64b + j`.
//!
//! The inputs come from a *predictor*, the reference emulator's RVFI
//! trace of the same image and budget. Every instruction block is
//! pre-verified against `riscv_isa::semantics::block_semantics`, so the
//! emulator's per-step outputs are what the gates must produce; every
//! lane's actual outputs are checked against them, and any miss runs the
//! sequential [`GateLevelCpu`] instead. Exactness follows by induction on
//! cycles: a lane driven exactly as the sequential run drives that cycle
//! settles to the same words, so it counts the same toggles. The rules
//! (phase-0 recount, frozen padding, checks, one simulator for many
//! images) are in `docs/simulation.md` § "Time-parallel activity runs".

use hwlib::ports;
use netlist::compiled::{CompiledSim, EvalMode, PortId, LANES_PER_WORD};
use netlist::{NetId, Netlist};
use riscv_emu::{Emulator, RvfiRecord};
use riscv_isa::Instruction;
use rissp::processor::GateLevelCpu;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xcc::CompiledProgram;

/// Cycles per batch: one lane per cycle, one lane word per net.
const LANES: usize = LANES_PER_WORD;

static FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of [`activity_run`] images that ran on the
/// sequential [`GateLevelCpu`] because the prediction failed (an emulator
/// fault, or a lane whose gate outputs disagreed with it). The results
/// are exact either way; this says which engine produced them.
pub fn fallbacks() -> u64 {
    FALLBACKS.load(Ordering::Relaxed)
}

/// The raw switching-activity counts of one or more runs on one core, as
/// [`GateLevelCpu::run`] plus its simulator would report them (summed
/// over the runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivityRun {
    /// Clock cycles stepped (the halting cycle counts; a faulting one does
    /// not).
    pub cycles: u64,
    /// Toggles summed over every net.
    pub toggle_total: u64,
    /// Nets in the simulated core.
    pub nets: usize,
}

impl ActivityRun {
    /// The α activity factor: the same f64 expression as
    /// [`flexic::power::measured_activity`] on the sequential simulator.
    pub fn activity(&self) -> f64 {
        flexic::power::activity_from_counts(self.toggle_total, self.nets, self.cycles, 1)
    }
}

/// Runs each of `images` from PC 0 on `core` for at most `max_cycles`
/// cycles and returns their switching-activity counts summed over the
/// images: each image's counts are bit-identical to [`GateLevelCpu::run`]
/// on a fresh CPU with that image loaded.
///
/// One 64-lane simulator of `core` settles every image, so the core is
/// emitted once per call. Each image settles 64 cycles per batch when the
/// emulator's prediction holds on every lane; otherwise that image runs
/// on the sequential CPU and bumps [`fallbacks`].
///
/// # Panics
///
/// Panics if the netlist does not expose the core's ports.
pub fn activity_run(
    core: &Arc<Netlist>,
    images: &[CompiledProgram],
    max_cycles: u64,
) -> ActivityRun {
    let mut sim = CompiledSim::with_lanes_arc(Arc::clone(core), LANES);
    sim.set_eval_mode(EvalMode::Jit);
    let p = Ports::resolve(&sim, core);
    let mut total = ActivityRun {
        cycles: 0,
        toggle_total: 0,
        nets: sim.toggles().len(),
    };
    for image in images {
        let run = predict(image, max_cycles)
            .and_then(|cycles| time_parallel(&mut sim, &p, &cycles))
            .unwrap_or_else(|| {
                FALLBACKS.fetch_add(1, Ordering::Relaxed);
                sequential(core, image, max_cycles)
            });
        total.cycles += run.cycles;
        total.toggle_total += run.toggle_total;
    }
    total
}

/// The reference: one sequential gate-level run.
fn sequential(core: &Arc<Netlist>, image: &CompiledProgram, max_cycles: u64) -> ActivityRun {
    let mut cpu = GateLevelCpu::with_core_arc(Arc::clone(core), 0);
    for (base, words) in image.segments() {
        cpu.load_words(base, words);
    }
    let _ = cpu.run(max_cycles);
    let toggles = cpu.sim().toggles();
    ActivityRun {
        cycles: cpu.sim().cycles(),
        toggle_total: toggles.iter().sum(),
        nets: toggles.len(),
    }
}

/// One cycle as the sequential run drives it, and what it must commit.
#[derive(Debug, Clone, Copy)]
struct Cycle {
    /// The emulator's record: the inputs to drive and the outputs to
    /// check.
    rec: RvfiRecord,
    /// Whether the instruction reads data memory (`dmem_re`).
    load: bool,
}

impl Cycle {
    /// The word driven on `Ports::inputs[k]` (`insn`, `rs1_data`,
    /// `rs2_data`, `dmem_rdata`) in its phase (1, 2, 2, 3). A register
    /// read at address 0 sees x0.
    fn input(&self, k: usize) -> u64 {
        let r = &self.rec;
        let reg = |addr: u8, data: u32| if addr == 0 { 0 } else { data };
        let words = [
            r.insn,
            reg(r.rs1_addr, r.rs1_data),
            reg(r.rs2_addr, r.rs2_data),
            r.mem_rdata,
        ];
        words[k].into()
    }
}

/// The emulator's trace of `image`, one [`Cycle`] per gate-level cycle
/// (the halting self-loop included, as [`GateLevelCpu::run`] counts it).
/// `None` when the emulator faults, or for an instruction that both reads
/// and writes memory: the record holds the read after the write, the
/// sequential run reads before it.
fn predict(image: &CompiledProgram, max_cycles: u64) -> Option<Vec<Cycle>> {
    let mut emu = Emulator::new();
    image.load(&mut emu);
    emu.enable_trace();
    emu.run(max_cycles).ok()?;
    emu.take_trace()
        .records()
        .iter()
        .map(|&rec| {
            let load = Instruction::decode(rec.insn).ok()?.mnemonic.is_load();
            (!load || rec.mem_wmask == 0).then_some(Cycle { rec, load })
        })
        .collect()
}

/// The core ports a batch drives and checks, resolved once.
struct Ports {
    /// `insn`, `rs1_data`, `rs2_data`, `dmem_rdata`, in [`Cycle::input`]
    /// order.
    inputs: [PortId; 4],
    rs1_addr: PortId,
    rs2_addr: PortId,
    dmem_re: PortId,
    dmem_addr: PortId,
    valid: PortId,
    next_pc: PortId,
    rd_we: PortId,
    rd_addr: PortId,
    rd_data: PortId,
    dmem_wmask: PortId,
    dmem_wdata: PortId,
    /// The PC flip-flops, bit 0 first.
    pc: Vec<NetId>,
}

impl Ports {
    fn resolve(sim: &CompiledSim, core: &Netlist) -> Ports {
        let output = |n| sim.output_port(n);
        Ports {
            inputs: [
                ports::INSN,
                ports::RS1_DATA,
                ports::RS2_DATA,
                ports::DMEM_RDATA,
            ]
            .map(|n| sim.input_port(n)),
            rs1_addr: output(ports::RS1_ADDR),
            rs2_addr: output(ports::RS2_ADDR),
            dmem_re: output(ports::DMEM_RE),
            dmem_addr: output(ports::DMEM_ADDR),
            valid: output("valid"),
            next_pc: output(ports::NEXT_PC),
            rd_we: output(ports::RD_WE),
            rd_addr: output(ports::RD_ADDR),
            rd_data: output(ports::RD_DATA),
            dmem_wmask: output(ports::DMEM_WMASK),
            dmem_wdata: output(ports::DMEM_WDATA),
            pc: core
                .output(ports::PC)
                .expect("core exposes pc")
                .nets
                .clone(),
        }
    }
}

/// True when every lane of `port` reads what `want` predicts for it
/// (`None`: not checked on that lane).
fn lanes_match(
    sim: &CompiledSim,
    port: PortId,
    batch: &[&Cycle; LANES],
    want: impl Fn(&Cycle) -> Option<u64>,
) -> bool {
    let mut got = [0u64; LANES];
    sim.get_port_lanes(port, &mut got);
    got.iter()
        .zip(batch)
        .all(|(&g, c)| want(c).is_none_or(|w| w == g))
}

/// Settles `cycles` 64 to a block on `sim`; `None` on the first lane
/// whose outputs miss the prediction.
///
/// `sim` may have settled another image before: every batch sets all
/// lanes' PC flops and all four input ports before its phase-0 settle,
/// whose simulator count is discarded, and phases 1–3 diff within the
/// batch, so nothing left from an earlier run reaches the counts.
fn time_parallel(sim: &mut CompiledSim, p: &Ports, cycles: &[Cycle]) -> Option<ActivityRun> {
    let nets = sim.toggles().len();
    let toggle_sum = |sim: &CompiledSim| sim.toggles().iter().sum::<u64>();

    // Tail lanes are frozen copies of the last cycle: the same PC and
    // inputs in every phase, so they settle to its phase-3 words and add
    // no toggles. Lane `t`'s phase 0 sees cycle `t − 1`'s inputs.
    let at = |t: usize| &cycles[t.min(cycles.len() - 1)];
    let mut v0 = vec![0u64; nets];
    let mut carry = vec![0u64; nets];
    let mut toggle_total = 0;
    for b in 0..cycles.len().div_ceil(LANES) {
        let batch: [&Cycle; LANES] = std::array::from_fn(|j| at(b * LANES + j));
        let inputs = |k: usize| -> [u64; LANES] { std::array::from_fn(|j| batch[j].input(k)) };

        // Phase 0: the PC flops, with the previous cycle's inputs.
        for (j, c) in batch.iter().enumerate() {
            for (i, &net) in p.pc.iter().enumerate() {
                sim.set_ff_lane(net, j, (c.rec.pc >> i) & 1 == 1);
            }
        }
        for (k, &port) in p.inputs.iter().enumerate() {
            let prev: [u64; LANES] = std::array::from_fn(|j| {
                (b * LANES + j).checked_sub(1).map_or(0, |t| at(t).input(k))
            });
            sim.set_port_lanes(port, &prev);
        }
        sim.eval();
        for (net, w) in v0.iter_mut().enumerate() {
            *w = sim.lane_word(net as NetId);
        }
        let phase0_total = toggle_sum(sim);

        // Phase 1: instruction fetch.
        sim.set_port_lanes(p.inputs[0], &inputs(0));
        sim.eval();
        if !(lanes_match(sim, p.rs1_addr, &batch, |c| Some(c.rec.rs1_addr.into()))
            && lanes_match(sim, p.rs2_addr, &batch, |c| Some(c.rec.rs2_addr.into())))
        {
            return None;
        }

        // Phase 2: register file read.
        sim.set_port_lanes(p.inputs[1], &inputs(1));
        sim.set_port_lanes(p.inputs[2], &inputs(2));
        sim.eval();
        if !(lanes_match(sim, p.dmem_re, &batch, |c| Some(c.load.into()))
            && lanes_match(sim, p.dmem_addr, &batch, |c| {
                c.load.then_some(c.rec.mem_addr.into())
            }))
        {
            return None;
        }

        // Phase 3: data memory read, then the commit.
        sim.set_port_lanes(p.inputs[3], &inputs(3));
        sim.eval();
        let writes = |c: &Cycle| c.rec.mem_wmask != 0;
        let commits = lanes_match(sim, p.valid, &batch, |_| Some(1))
            && lanes_match(sim, p.next_pc, &batch, |c| Some(c.rec.next_pc.into()))
            && lanes_match(sim, p.rd_we, &batch, |c| Some(c.rec.rd_we.into()))
            && lanes_match(sim, p.rd_addr, &batch, |c| {
                c.rec.rd_we.then_some(c.rec.rd_addr.into())
            })
            && lanes_match(sim, p.rd_data, &batch, |c| {
                c.rec.rd_we.then_some(c.rec.rd_wdata.into())
            })
            && lanes_match(sim, p.dmem_wmask, &batch, |c| Some(c.rec.mem_wmask.into()))
            && lanes_match(sim, p.dmem_addr, &batch, |c| {
                writes(c).then_some(c.rec.mem_addr.into())
            })
            && lanes_match(sim, p.dmem_wdata, &batch, |c| {
                writes(c).then_some(c.rec.mem_wdata.into())
            });
        if !commits {
            return None;
        }

        // Phases 1–3 diff against the same lane's previous phase, as in
        // the sequential run; phase 0 diffs against the previous *cycle*'s
        // phase 3, one lane down (lane 63 carries into the next batch).
        // The sequential run's very first settle counts nothing
        // (`CompiledSim::eval`), so this image's cycle 0 is masked.
        toggle_total += toggle_sum(sim) - phase0_total;
        let mask = if b == 0 { !1 } else { !0 };
        for (net, (&w0, c)) in v0.iter().zip(carry.iter_mut()).enumerate() {
            let w3 = sim.lane_word(net as NetId);
            toggle_total += u64::from(((w0 ^ ((w3 << 1) | *c)) & mask).count_ones());
            *c = w3 >> 63;
        }
    }
    Some(ActivityRun {
        cycles: cycles.len() as u64,
        toggle_total,
        nets,
    })
}
