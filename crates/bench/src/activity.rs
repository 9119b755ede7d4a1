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
//! counts the same toggles. The rules (the seam recount, frozen pad
//! lanes, checks, one simulator for many images) are in
//! `docs/simulation.md` § "Time-parallel activity runs".

use hwlib::ports;
use netlist::compiled::{CompiledSim, EvalMode, PortId, LANES_PER_WORD};
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
/// emitted once per call. Each image settles as 64 contiguous segments,
/// one per lane, when the emulator's prediction holds on every lane;
/// otherwise that image runs on the sequential CPU and bumps
/// [`fallbacks`].
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

/// Settles `cycles` as 64 contiguous segments on `sim`; `None` on the
/// first lane whose outputs miss the prediction.
///
/// Lane `j` runs cycles `j·B … j·B + B − 1` (`B = ⌈n/64⌉`), and batch `b`
/// settles cycle `j·B + b` on every lane. From batch 1 on, `step` latches
/// each lane's checked next PC and the ports still hold its previous
/// cycle's inputs, so phase 0 is the sequential settle and the simulator
/// counts every toggle but the seams: batch 0's phase 0, which diffs
/// against lane `j − 1`'s last phase 3 and is recounted once at the end.
/// Lanes past the last cycle are frozen copies of it.
///
/// `sim` may have settled another image before: batch 0 sets every
/// lane's PC flops and all four input ports before its phase-0 settle,
/// whose simulator count is replaced by the seam recount, so nothing left
/// from an earlier run reaches the counts.
fn time_parallel(sim: &mut CompiledSim, p: &Ports, cycles: &[Cycle]) -> Option<ActivityRun> {
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
        if b > 0 {
            // Phase 0: the clock edge, then the re-forced frozen lanes.
            sim.step();
            for j in (n - b).div_ceil(seg)..LANES {
                set_pc(sim, j, last.pc());
            }
            sim.eval();
        }
        let batch: [&Cycle; LANES] = array::from_fn(|j| at(j * seg + b));
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
        let inputs = |k: usize| -> [u64; LANES] { array::from_fn(|j| batch[j].input[k]) };
        let all = !0;
        let loads = bits(LOAD)[0];
        let writes_rd = bits(RD_WE)[0];
        let stores = bits(MEM_WMASK).iter().fold(0, |m, &w| m | w);

        // Phase 1: instruction fetch, at the PC the flops hold.
        drive(sim, p, 0, inputs(0));
        sim.eval();
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
        drive(sim, p, 1, inputs(1));
        drive(sim, p, 2, inputs(2));
        sim.eval();
        if !holds(
            sim,
            &[(&p.dmem_re, LOAD, all), (&p.dmem_addr, MEM_ADDR, loads)],
        ) {
            return None;
        }

        // Phase 3: data memory read, then the commit.
        drive(sim, p, 3, inputs(3));
        sim.eval();
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
