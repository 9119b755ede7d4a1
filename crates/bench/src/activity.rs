//! Time-parallel switching-activity runs.
//!
//! A RISSP core's only state is its 32 PC flip-flops: the register file
//! and the memories are behavioural models outside the netlist
//! ([`rissp::processor::build_core`]). So one cycle's four settles are a
//! pure function of that cycle's `pc`, `insn`, `rs1/rs2_data` and
//! `dmem_rdata` plus the previous cycle's input words, which phases 0–2
//! still see. Given those, a run of `n` cycles splits into 64 contiguous
//! segments of `B = ⌈n/64⌉` cycles, one per lane of one block: batch `b`
//! settles cycle `j·B + b` on lane `j`, and the simulator's own clock
//! edge carries every lane from one of its cycles to the next.
//!
//! The inputs come from a *predictor*, the reference emulator's RVFI
//! trace of the same image and budget. Every instruction block is
//! pre-verified against `riscv_isa::semantics::block_semantics`, so the
//! emulator's per-step outputs are what the gates must produce; every
//! lane's actual outputs are checked against them, one lane word per port
//! bit, and any miss runs the sequential [`GateLevelCpu`] instead.
//! Exactness follows by induction on cycles: a lane driven exactly as the
//! sequential run drives that cycle settles to the same words, so it
//! counts the same toggles. From batch 1 on, each phase changes one
//! source group only, so it may settle on that group's static fan-out
//! cone instead of the whole program (`Cones`). The rules (the seam
//! recount, frozen pad lanes, checks, cone settles, one simulator for many
//! images) are in `docs/simulation.md` § "Time-parallel activity runs".

use hwlib::ports;
use netlist::compiled::{CompiledSim, Cone, EvalMode, PortId, LANES_PER_WORD};
use netlist::{NetId, Netlist};
use riscv_emu::{Emulator, RvfiRecord};
use riscv_isa::Instruction;
use rissp::processor::GateLevelCpu;
use std::array;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xcc::CompiledProgram;

/// Lanes per simulator: one contiguous segment of a run per lane.
const LANES: usize = LANES_PER_WORD;

/// `E`, what emitting native code for one op costs in native settles of
/// one op at 64 lanes. Over the 26 exhibit cores, emission ran 55 ns per
/// op (46–49 ns in two reruns) and a native full settle 1.6 ns per op
/// (x86-64, 2 vCPUs, one thread). A cone is emitted when the settles it
/// saves repay its emission ([`Cones::choose`]).
const EMIT_COST_IN_SETTLES: u64 = 34;

static FALLBACKS: AtomicU64 = AtomicU64::new(0);
static NATIVE_REFUSALS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of [`activity_run`] images that ran on the
/// sequential [`GateLevelCpu`] because the prediction failed (an emulator
/// fault, or a lane whose gate outputs disagreed with it). The results
/// are exact either way; this says which engine produced them.
pub fn fallbacks() -> u64 {
    FALLBACKS.load(Ordering::Relaxed)
}

/// Process-wide count of [`activity_run`] calls whose full program or
/// any chosen cone ran interpreted because codegen refused it (an
/// unsupported host, a refused emission, or `GATE_SIM_JIT=0`). The
/// results are exact either way; this says which engine produced them.
pub fn native_refusals() -> u64 {
    NATIVE_REFUSALS.load(Ordering::Relaxed)
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
/// One 64-lane simulator of `core` settles every image, over a program
/// compiled for this call alone (not through the process-wide program
/// cache, so nothing of it outlives the call). Its phase cones and the
/// full program are emitted at most once per call (`Cones::choose`);
/// a refused emission bumps [`native_refusals`]. Each image settles as
/// 64 contiguous segments, one per lane, when the emulator's prediction
/// holds on every lane; otherwise that image runs on the sequential CPU
/// and bumps [`fallbacks`].
///
/// # Panics
///
/// Panics if the netlist does not expose the core's ports.
pub fn activity_run(
    core: &Arc<Netlist>,
    images: &[CompiledProgram],
    max_cycles: u64,
) -> ActivityRun {
    let mut sim = CompiledSim::with_lanes_uncached(Arc::clone(core), LANES);
    let p = Ports::resolve(&sim, core);
    let batches = images.len() as u64 * max_cycles.div_ceil(LANES as u64);
    let cones = Cones::choose(&mut sim, &p, batches);
    let mut total = ActivityRun {
        cycles: 0,
        toggle_total: 0,
        nets: sim.toggles().len(),
    };
    for image in images {
        let run = predict(image, max_cycles)
            .and_then(|cycles| time_parallel(&mut sim, &p, &cones, &cycles))
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

/// Where a checked output's predicted bits sit in a [`Cycle`]'s
/// prediction words: `width` bits of word `word` from bit `at`.
#[derive(Debug, Clone, Copy)]
struct Field {
    word: usize,
    at: usize,
    width: usize,
}

const fn field(word: usize, at: usize, width: usize) -> Field {
    Field { word, at, width }
}

/// Words per cycle's prediction.
const WORDS: usize = 3;
const PC: Field = field(0, 0, 32);
const NEXT_PC: Field = field(0, 32, 32);
const MEM_ADDR: Field = field(1, 0, 32);
const RD_DATA: Field = field(1, 32, 32);
const MEM_WDATA: Field = field(2, 0, 32);
const RS1_ADDR: Field = field(2, 32, 5);
const RS2_ADDR: Field = field(2, 37, 5);
const RD_ADDR: Field = field(2, 42, 5);
const MEM_WMASK: Field = field(2, 47, 4);
const LOAD: Field = field(2, 51, 1);
const RD_WE: Field = field(2, 52, 1);
const VALID: Field = field(2, 53, 1);

/// One cycle as the sequential run drives it, and what it must commit.
#[derive(Debug, Clone, Copy)]
struct Cycle {
    /// The words driven on `Ports::inputs` (`insn`, `rs1_data`,
    /// `rs2_data`, `dmem_rdata`) in their phases (1, 2, 2, 3).
    input: [u64; 4],
    /// The outputs the gates must read, laid out by the [`Field`]s.
    want: [u64; WORDS],
}

impl Cycle {
    /// The cycle the emulator's record `rec` describes; `load` says
    /// whether it reads data memory (`dmem_re`). A register read at
    /// address 0 sees x0. `None` when a value does not fit its field.
    fn new(rec: &RvfiRecord, load: bool) -> Option<Cycle> {
        let reg = |addr: u8, data: u32| if addr == 0 { 0 } else { data };
        let mut want = [0; WORDS];
        for (f, v) in [
            (PC, rec.pc.into()),
            (NEXT_PC, rec.next_pc.into()),
            (MEM_ADDR, rec.mem_addr.into()),
            (RD_DATA, rec.rd_wdata.into()),
            (MEM_WDATA, rec.mem_wdata.into()),
            (RS1_ADDR, rec.rs1_addr.into()),
            (RS2_ADDR, rec.rs2_addr.into()),
            (RD_ADDR, rec.rd_addr.into()),
            (MEM_WMASK, rec.mem_wmask.into()),
            (LOAD, load.into()),
            (RD_WE, rec.rd_we.into()),
            (VALID, 1),
        ] {
            if v >> f.width != 0 {
                return None;
            }
            want[f.word] |= v << f.at;
        }
        Some(Cycle {
            input: [
                rec.insn,
                reg(rec.rs1_addr, rec.rs1_data),
                reg(rec.rs2_addr, rec.rs2_data),
                rec.mem_rdata,
            ]
            .map(u64::from),
            want,
        })
    }

    fn pc(&self) -> u32 {
        (self.want[PC.word] >> PC.at) as u32
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
    for _ in 0..max_cycles {
        if emu.step().ok()? {
            break;
        }
    }
    emu.take_trace()
        .records()
        .iter()
        .map(|rec| {
            let load = Instruction::decode(rec.insn).ok()?.mnemonic.is_load();
            if load && rec.mem_wmask != 0 {
                return None;
            }
            Cycle::new(rec, load)
        })
        .collect()
}

/// The core ports a batch drives and checks, resolved once; outputs as
/// their nets, bit 0 first.
struct Ports {
    /// `insn`, `rs1_data`, `rs2_data`, `dmem_rdata`, in
    /// [`Cycle::input`] order, each with its width in bits.
    inputs: [(PortId, usize); 4],
    /// The PC flip-flops.
    pc: Vec<NetId>,
    rs1_addr: Vec<NetId>,
    rs2_addr: Vec<NetId>,
    dmem_re: Vec<NetId>,
    dmem_addr: Vec<NetId>,
    valid: Vec<NetId>,
    next_pc: Vec<NetId>,
    rd_we: Vec<NetId>,
    rd_addr: Vec<NetId>,
    rd_data: Vec<NetId>,
    dmem_wmask: Vec<NetId>,
    dmem_wdata: Vec<NetId>,
}

impl Ports {
    fn resolve(sim: &CompiledSim, core: &Netlist) -> Ports {
        let output = |n: &str| {
            core.output(n)
                .unwrap_or_else(|| panic!("no output port `{n}`"))
                .nets
                .clone()
        };
        Ports {
            inputs: [
                ports::INSN,
                ports::RS1_DATA,
                ports::RS2_DATA,
                ports::DMEM_RDATA,
            ]
            .map(|n| {
                let width = core
                    .input(n)
                    .unwrap_or_else(|| panic!("no input port `{n}`"))
                    .nets
                    .len();
                (sim.input_port(n), width)
            }),
            pc: output(ports::PC),
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
        }
    }
}

/// Transposes a 64×64 bit matrix in place: bit `j` of `a[i]` trades
/// places with bit `i` of `a[j]` (Hacker's Delight §7-3, six rounds of
/// block swaps).
fn transpose(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Drives input `k` of `p.inputs` with one value per lane: one transpose
/// of the 64 lanes' values, then one word per port bit.
fn drive(sim: &mut CompiledSim, p: &Ports, k: usize, mut values: [u64; LANES]) {
    let (port, width) = p.inputs[k];
    transpose(&mut values);
    sim.set_port_words(port, &values[..width]);
}

/// The lanes in `care` on which a port's lane words `got` (bit 0 first)
/// differ from `want`, its field's predicted lane words. A bit that one
/// side lacks reads 0.
fn missed(got: impl IntoIterator<Item = u64>, want: &[u64], care: u64) -> u64 {
    let mut got = got.into_iter();
    let mut want = want.iter().copied();
    let mut miss = 0;
    loop {
        match (got.next(), want.next()) {
            (None, None) => return miss,
            (g, w) => miss |= (g.unwrap_or(0) ^ w.unwrap_or(0)) & care,
        }
    }
}

/// The input ports each phase writes, as indices into [`Ports::inputs`].
/// Phase 0 writes none: its change is the clock edge.
const PHASE_INPUTS: [&[usize]; 4] = [&[], &[0], &[1, 2], &[3]];

/// Each phase's static fan-out cone, or `None` where the phase settles
/// with a full `eval`. Phase 0's cone covers the flip-flops, which on a
/// RISSP core are the PC flops; it runs from batch 1 on, because batch 0's
/// phase 0 writes every source and is always a full `eval`.
///
/// A cone settle is exact: each phase changes its own source group only,
/// on a simulator the previous phase left settled, so every op outside
/// the group's cone would store what it holds and count no toggle
/// ([`CompiledSim::settle_cone`] asserts the preconditions).
struct Cones([Option<Cone>; 4]);

impl Cones {
    /// The cones a call of at most `batches` batches settles on: a phase's
    /// cone when `batches × (|P| − |cone|) ≥ E × |cone|`, that is when the
    /// full-program settle work it saves over the call repays emitting it
    /// (`P` the full program, `E` [`EMIT_COST_IN_SETTLES`]).
    fn choose(sim: &mut CompiledSim, p: &Ports, batches: u64) -> Cones {
        let ops = sim.program().len() as u64;
        Cones::new(sim, p, |cone| {
            let len = cone.len() as u64;
            batches * (ops - len) >= EMIT_COST_IN_SETTLES * len
        })
    }

    /// Cuts every phase's cone from `sim`'s program and emits those that
    /// `keep` accepts. Then sets `sim` to native full sweeps when some
    /// phase still sweeps the whole program, else to interpreted ones
    /// (batch 0's phase 0 only), and bumps [`native_refusals`] when
    /// codegen refuses the full program or a kept cone.
    fn new(sim: &mut CompiledSim, p: &Ports, keep: impl Fn(&Cone) -> bool) -> Cones {
        let cones = array::from_fn(|phase| {
            let ports: Vec<PortId> = PHASE_INPUTS[phase].iter().map(|&k| p.inputs[k].0).collect();
            let mut cone = sim.cone(&ports, phase == 0);
            keep(&cone).then(|| {
                // A refusal leaves the cone interpreted, counted below.
                let _ = sim.emit_cone(&mut cone);
                cone
            })
        });
        let sweeps = cones.iter().any(Option::is_none);
        sim.set_eval_mode(if sweeps {
            EvalMode::Jit
        } else {
            EvalMode::FullSweep
        });
        if (sweeps && !sim.jit_active()) || cones.iter().flatten().any(|c| !c.is_native()) {
            NATIVE_REFUSALS.fetch_add(1, Ordering::Relaxed);
        }
        Cones(cones)
    }

    /// Writes phase `phase`'s input ports with `batch`'s words, one lane
    /// word per port bit, and settles: on the phase's cone if there is
    /// one, else with a full `eval`.
    fn settle(&self, sim: &mut CompiledSim, p: &Ports, phase: usize, batch: &[&Cycle; LANES]) {
        let inputs = PHASE_INPUTS[phase];
        let mut values = [[0; LANES]; 2];
        let mut words: [&[u64]; 2] = [&[]; 2];
        for ((words, values), &k) in words.iter_mut().zip(&mut values).zip(inputs) {
            *values = array::from_fn(|j| batch[j].input[k]);
            transpose(values);
            *words = &values[..p.inputs[k].1];
        }
        let words = &words[..inputs.len()];
        match &self.0[phase] {
            Some(cone) => sim.settle_cone(cone, words),
            None => {
                for (&k, words) in inputs.iter().zip(words) {
                    sim.set_port_words(p.inputs[k].0, words);
                }
                sim.eval();
            }
        }
    }
}

/// Settles `cycles` as 64 contiguous segments on `sim`; `None` on the
/// first lane whose outputs miss the prediction.
///
/// Lane `j` runs cycles `j·B … j·B + B − 1` (`B = ⌈n/64⌉`), and batch `b`
/// settles cycle `j·B + b` on every lane. From batch 1 on, `step` latches
/// each lane's checked next PC and the ports still hold its previous
/// cycle's inputs, so phase 0 is the sequential settle and the simulator
/// counts every toggle but the seams: batch 0's phase 0, which diffs
/// against lane `j − 1`'s last phase 3 and is recounted once at the end.
/// Lanes past the last cycle are frozen copies of it. Every phase but
/// batch 0's phase 0 settles on its cone in `cones` where there is one.
///
/// `sim` may have settled another image before: batch 0 sets every
/// lane's PC flops and all four input ports before its phase-0 settle,
/// whose simulator count is replaced by the seam recount, so nothing left
/// from an earlier run reaches the counts.
fn time_parallel(
    sim: &mut CompiledSim,
    p: &Ports,
    cones: &Cones,
    cycles: &[Cycle],
) -> Option<ActivityRun> {
    let nets = sim.toggles().len();
    let toggle_sum = |sim: &CompiledSim| sim.toggles().iter().sum::<u64>();
    let Some(last) = cycles.last() else {
        return Some(ActivityRun {
            cycles: 0,
            toggle_total: 0,
            nets,
        });
    };
    let n = cycles.len();
    let seg = n.div_ceil(LANES);
    // Lanes past the end (the last segment's tail, idle lanes) keep the
    // last cycle's PC and inputs in every phase: they settle to its
    // phase-3 words throughout and add no toggles.
    let at = |t: usize| &cycles[t.min(n - 1)];
    let set_pc = |sim: &mut CompiledSim, lane: usize, pc: u32| {
        for (i, &net) in p.pc.iter().enumerate() {
            sim.set_ff_lane(net, lane, (pc >> i) & 1 == 1);
        }
    };

    // Batch 0's phase 0: every lane's first PC, with its predecessor's
    // inputs (all zero before cycle 0).
    for j in 0..LANES {
        set_pc(sim, j, at(j * seg).pc());
    }
    for k in 0..p.inputs.len() {
        let prev = array::from_fn(|j| (j * seg).checked_sub(1).map_or(0, |t| at(t).input[k]));
        drive(sim, p, k, prev);
    }
    sim.eval();
    let v0: Vec<u64> = (0..nets).map(|net| sim.lane_word(net as NetId)).collect();
    // Counted against whatever `sim` held before: replaced by the seams.
    let discarded = toggle_sum(sim);

    for b in 0..seg {
        let batch: [&Cycle; LANES] = array::from_fn(|j| at(j * seg + b));
        if b > 0 {
            // Phase 0: the clock edge, then the re-forced frozen lanes.
            sim.step();
            for j in (n - b).div_ceil(seg)..LANES {
                set_pc(sim, j, last.pc());
            }
            cones.settle(sim, p, 0, &batch);
        }
        let want: [[u64; LANES]; WORDS] = array::from_fn(|w| {
            let mut t = array::from_fn(|j| batch[j].want[w]);
            transpose(&mut t);
            t
        });
        let bits = |f: Field| &want[f.word][f.at..f.at + f.width];
        let holds = |sim: &CompiledSim, checks: &[(&[NetId], Field, u64)]| {
            checks.iter().all(|&(nets, f, care)| {
                missed(nets.iter().map(|&net| sim.lane_word(net)), bits(f), care) == 0
            })
        };
        let all = !0;
        let loads = bits(LOAD)[0];
        let writes_rd = bits(RD_WE)[0];
        let stores = bits(MEM_WMASK).iter().fold(0, |m, &w| m | w);

        // Phase 1: instruction fetch, at the PC the flops hold.
        cones.settle(sim, p, 1, &batch);
        if !holds(
            sim,
            &[
                (&p.pc, PC, all),
                (&p.rs1_addr, RS1_ADDR, all),
                (&p.rs2_addr, RS2_ADDR, all),
            ],
        ) {
            return None;
        }

        // Phase 2: register file read.
        cones.settle(sim, p, 2, &batch);
        if !holds(
            sim,
            &[(&p.dmem_re, LOAD, all), (&p.dmem_addr, MEM_ADDR, loads)],
        ) {
            return None;
        }

        // Phase 3: data memory read, then the commit.
        cones.settle(sim, p, 3, &batch);
        if !holds(
            sim,
            &[
                (&p.valid, VALID, all),
                (&p.next_pc, NEXT_PC, all),
                (&p.rd_we, RD_WE, all),
                (&p.rd_addr, RD_ADDR, writes_rd),
                (&p.rd_data, RD_DATA, writes_rd),
                (&p.dmem_wmask, MEM_WMASK, all),
                (&p.dmem_addr, MEM_ADDR, stores),
                (&p.dmem_wdata, MEM_WDATA, stores),
            ],
        ) {
            return None;
        }
    }

    // The seams: batch 0's phase 0 on lane `j` diffs against lane
    // `j − 1`'s last phase 3, one lane down. The sequential run's very
    // first settle counts nothing (`CompiledSim::eval`), so lane 0 is
    // masked.
    let seam_toggles: u64 = v0
        .iter()
        .enumerate()
        .map(|(net, &w0)| {
            let w3 = sim.lane_word(net as NetId);
            u64::from(((w0 ^ (w3 << 1)) & !1).count_ones())
        })
        .sum();
    Some(ActivityRun {
        cycles: n as u64,
        toggle_total: toggle_sum(sim) - discarded + seam_toggles,
        nets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: seeded test matrices without a dependency.
    fn matrix(seed: u64) -> [u64; 64] {
        let mut s = seed;
        array::from_fn(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
    }

    #[test]
    fn transpose_moves_every_bit_across_the_diagonal_and_is_an_involution() {
        for seed in 0..16 {
            let a = matrix(seed);
            let mut t = a;
            transpose(&mut t);
            for (i, &row) in a.iter().enumerate() {
                for (j, &col) in t.iter().enumerate() {
                    assert_eq!((row >> j) & 1, (col >> i) & 1, "seed {seed}: ({i}, {j})");
                }
            }
            transpose(&mut t);
            assert_eq!(t, a, "seed {seed}");
        }
    }

    /// The lane words a port would read if every lane committed `values`.
    fn lane_words(values: &[u64; 64]) -> [u64; 64] {
        let mut t = *values;
        transpose(&mut t);
        t
    }

    #[test]
    fn a_miss_on_the_first_or_last_lane_is_caught() {
        let values = matrix(7).map(|v| v & 0xFFFF_FFFF);
        let want = lane_words(&values);
        assert_eq!(missed(want[..32].iter().copied(), &want[..32], !0), 0);
        for lane in [0, 63] {
            let mut wrong = values;
            wrong[lane] ^= 1 << 17;
            let got = lane_words(&wrong);
            assert_eq!(
                missed(got[..32].iter().copied(), &want[..32], !0),
                1 << lane
            );
        }
    }

    #[test]
    fn a_miss_outside_the_care_mask_is_ignored() {
        let values = matrix(9).map(|v| v & 0x1F);
        let want = lane_words(&values);
        let mut wrong = values;
        wrong[40] ^= 0b10;
        let got = lane_words(&wrong);
        let care = !(1 << 40);
        assert_eq!(missed(got[..5].iter().copied(), &want[..5], care), 0);
        assert_eq!(missed(got[..5].iter().copied(), &want[..5], !0), 1 << 40);
    }

    /// How a test settles the phases: every cone on (in native code or
    /// interpreted) or every cone off.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Forced {
        Native,
        Interpreted,
        Off,
    }

    #[test]
    fn every_budget_shape_matches_the_sequential_run_with_cones_forced_on_or_off() {
        use hwlib::HwLibrary;
        use rissp::campaign::random_program;
        use rissp::profile::InstructionSubset;
        use rissp::Rissp;
        use xcc::OptLevel;

        let lib = HwLibrary::build_full();
        let core_for = |image: &CompiledProgram| {
            Arc::new(Rissp::generate(&lib, &InstructionSubset::from_words(&image.words)).core)
        };
        // The budgets of `every_budget_shape_matches_the_sequential_run`:
        // crc32 runs past every one of them (one batch, idle lanes, a
        // padded last lane, pad lanes held on the last PC), and a random
        // program halts on either side of its budget.
        let crc32 = workloads::by_name("crc32")
            .expect("crc32")
            .compile(OptLevel::O2)
            .expect("compiles");
        let (halting, halt) = (0..64)
            .map(|seed| xcc::compile(&random_program(seed), OptLevel::O1).expect("compiles"))
            .find_map(|image| {
                let n = predict(&image, crate::ACTIVITY_CYCLES)?.len() as u64;
                (n < crate::ACTIVITY_CYCLES && n > 129 && !n.is_multiple_of(64))
                    .then_some((image, n))
            })
            .expect("a random program halts after 129 cycles");
        let runs = [
            (crc32, vec![1, 2, 63, 64, 65, 127, 128, 129, 1000, 4097]),
            (halting, vec![halt - 1, halt, halt + 1, 4097]),
        ];
        for (image, budgets) in runs {
            let core = core_for(&image);
            for forced in [Forced::Native, Forced::Interpreted, Forced::Off] {
                // One simulator and one set of cones for every budget, as
                // `activity_run` settles many images.
                // Codegen on or off whatever `GATE_SIM_JIT` says.
                let mut sim = CompiledSim::with_lanes_uncached(Arc::clone(&core), LANES);
                sim.set_jit_options(netlist::JitOptions {
                    enabled: forced != Forced::Interpreted,
                    ..netlist::JitOptions::default()
                });
                let p = Ports::resolve(&sim, &core);
                let cones = Cones::new(&mut sim, &p, |_| forced != Forced::Off);
                let native = forced == Forced::Native && netlist::jit::host_supported();
                for cone in &cones.0 {
                    assert_eq!(cone.is_some(), forced != Forced::Off);
                    assert_eq!(cone.as_ref().is_some_and(Cone::is_native), native);
                }
                for &budget in &budgets {
                    let cycles = predict(&image, budget).expect("the emulator predicts");
                    let got = time_parallel(&mut sim, &p, &cones, &cycles);
                    assert_eq!(
                        got,
                        Some(sequential(&core, &image, budget)),
                        "{forced:?} at {budget} cycles"
                    );
                }
            }
        }
    }

    #[test]
    fn a_bit_past_the_port_width_must_be_predicted_zero() {
        // A 4-net port checked against a 5-bit field: lane 3 predicts a
        // register address the port cannot show.
        let mut values = [0u64; 64];
        values[3] = 0b1_0010;
        let want = lane_words(&values);
        let got = lane_words(&values.map(|v| v & 0xF));
        assert_eq!(missed(got[..4].iter().copied(), &want[..5], !0), 1 << 3);
    }
}
