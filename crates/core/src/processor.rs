//! RISSP construction (Step 3) and gate-level execution.
//!
//! [`build_core`] stitches ModularEX with the fixed fetch unit (the 32-bit
//! PC register) exactly as Figure 3 shows.  The register file and the
//! instruction/data memories are the pre-verified fixed units outside the
//! synthesised netlist — the paper synthesises each RISSP *without* the RF
//! "to better understand the effects of the instruction subsets in the
//! hardware" (§4.2) — and [`GateLevelCpu`] attaches behavioural models of
//! them to execute real programs through the gates.
//!
//! [`BatchedGateLevelCpu`] is the lane-parallel variant: one compiled core
//! simulation with up to 512 stimulus lanes (K-word lane blocks), one independent program per
//! lane, each lane carrying its own behavioural register file, memory, PC
//! and halt state. Per-lane architectural results are bit-identical to the
//! corresponding scalar [`GateLevelCpu`] runs, and merged toggle counts are
//! their exact sum (`docs/simulation.md` § "Toggle accounting").

use hwlib::{ports, HwLibrary};
use netlist::compiled::{CompiledSim, PortId, MAX_TOTAL_LANES};
use netlist::{Builder, NetId, Netlist};
use riscv_emu::{RvfiRecord, RvfiTrace, SparseMemory};
use riscv_isa::semantics::Memory as _;
use std::collections::HashMap;
use std::sync::Arc;

use crate::modularex::stitch;
use crate::profile::InstructionSubset;

/// Builds the complete core netlist: ModularEX plus the fetch unit, in one
/// builder. [`stitch`] builds ModularEX straight into the core's
/// [`Builder`], which is sized up front for the core's inputs and
/// flip-flops plus every block's gates.
///
/// Interface:
/// * inputs — `insn`, `rs1_data`, `rs2_data`, `dmem_rdata`;
/// * outputs — `pc` (from the PC flip-flops) plus every ModularEX output
///   (`next_pc`, register addresses, write-back, memory command, `valid`).
///
/// # Panics
///
/// Panics if `subset` is empty.
pub fn build_core(library: &HwLibrary, subset: &InstructionSubset) -> Netlist {
    let block_gates: usize = subset.iter().map(|m| library.block(m).netlist.len()).sum();
    let mut b = Builder::with_capacity(160 + block_gates);
    let insn = b.input_bus(ports::INSN, 32);
    let rs1_data = b.input_bus(ports::RS1_DATA, 32);
    let rs2_data = b.input_bus(ports::RS2_DATA, 32);
    let dmem_rdata = b.input_bus(ports::DMEM_RDATA, 32);

    // Fetch unit: the PC register (reset vector 0).
    let pc: Vec<NetId> = (0..32).map(|_| b.dff(false)).collect();

    let mut bindings: HashMap<&str, Vec<NetId>> = HashMap::new();
    bindings.insert(ports::PC, pc.clone());
    bindings.insert(ports::INSN, insn);
    bindings.insert(ports::RS1_DATA, rs1_data);
    bindings.insert(ports::RS2_DATA, rs2_data);
    bindings.insert(ports::DMEM_RDATA, dmem_rdata);
    let outs = stitch(&mut b, library, subset, &bindings);

    // next_pc feeds the PC register.
    let (_, next_pc) = outs
        .iter()
        .find(|(name, _)| *name == ports::NEXT_PC)
        .expect("ModularEX exposes next_pc");
    for (ff, d) in pc.iter().zip(next_pc) {
        b.connect_dff(*ff, *d);
    }

    b.output_bus("pc", &pc);
    for (name, nets) in &outs {
        b.output_bus(name, nets);
    }
    b.finish()
}

/// An execution fault at gate level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The fetched instruction is not in the core's subset (`valid` was 0).
    Unsupported {
        /// PC of the faulting fetch.
        pc: u32,
        /// The raw instruction word.
        insn: u32,
    },
    /// The step budget expired before the program halted.
    StepLimit {
        /// Cycles executed.
        cycles: u64,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Unsupported { pc, insn } => {
                write!(f, "unsupported instruction {insn:#010x} at pc={pc:#010x}")
            }
            ExecError::StepLimit { cycles } => write!(f, "step limit after {cycles} cycles"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The core ports a cycle drives and reads, resolved once per simulator
/// so the cycle loop never scans ports by name.
#[derive(Debug, Clone, Copy)]
struct CorePorts {
    insn: PortId,
    rs1_data: PortId,
    rs2_data: PortId,
    dmem_rdata: PortId,
    pc: PortId,
    rs1_addr: PortId,
    rs2_addr: PortId,
    dmem_re: PortId,
    dmem_addr: PortId,
    valid: PortId,
    dmem_wmask: PortId,
    dmem_wdata: PortId,
    rd_we: PortId,
    rd_addr: PortId,
    rd_data: PortId,
    next_pc: PortId,
}

impl CorePorts {
    /// # Panics
    ///
    /// Panics if the simulator's netlist lacks one of the core's ports.
    fn resolve(sim: &CompiledSim) -> CorePorts {
        let (input, output) = (|n| sim.input_port(n), |n| sim.output_port(n));
        CorePorts {
            insn: input(ports::INSN),
            rs1_data: input(ports::RS1_DATA),
            rs2_data: input(ports::RS2_DATA),
            dmem_rdata: input(ports::DMEM_RDATA),
            pc: output(ports::PC),
            rs1_addr: output(ports::RS1_ADDR),
            rs2_addr: output(ports::RS2_ADDR),
            dmem_re: output(ports::DMEM_RE),
            dmem_addr: output(ports::DMEM_ADDR),
            valid: output("valid"),
            dmem_wmask: output(ports::DMEM_WMASK),
            dmem_wdata: output(ports::DMEM_WDATA),
            rd_we: output(ports::RD_WE),
            rd_addr: output(ports::RD_ADDR),
            rd_data: output(ports::RD_DATA),
            next_pc: output(ports::NEXT_PC),
        }
    }
}

/// Gate-level single-cycle CPU: the synthesised core netlist driven cycle by
/// cycle, with behavioural register file and unified memory attached.
///
/// The cycle loop runs on the compiled bit-parallel backend
/// ([`CompiledSim`]): the core netlist is levelized and lowered to a flat
/// op stream once at construction, then every fetch/decode/execute settle
/// is a dense, branch-predictable sweep instead of a `match` per gate.
#[derive(Debug, Clone)]
pub struct GateLevelCpu {
    sim: CompiledSim,
    ports: CorePorts,
    rf: [u32; riscv_isa::REG_COUNT],
    mem: SparseMemory,
    cycles: u64,
    trace: Option<RvfiTrace>,
}

impl GateLevelCpu {
    /// Creates a CPU over `rissp`'s core with the PC forced to `entry`.
    pub fn new(rissp: &crate::Rissp, entry: u32) -> GateLevelCpu {
        GateLevelCpu::with_core_arc(Arc::new(rissp.core.clone()), entry)
    }

    /// Like [`GateLevelCpu::new`] but over a shared core netlist handle:
    /// constructing many CPUs from one core (e.g. a bench loop, or a
    /// characterisation sweep) compiles each time but never re-clones the
    /// gate arena.
    ///
    /// # Panics
    ///
    /// Panics if the netlist does not expose the core's ports.
    pub fn with_core_arc(core: Arc<Netlist>, entry: u32) -> GateLevelCpu {
        let pc_port = core.output("pc").expect("core exposes pc").nets.clone();
        let mut sim = CompiledSim::new_arc(core);
        for (i, net) in pc_port.iter().enumerate() {
            sim.set_ff(*net, (entry >> i) & 1 == 1);
        }
        GateLevelCpu {
            ports: CorePorts::resolve(&sim),
            sim,
            rf: [0; riscv_isa::REG_COUNT],
            mem: SparseMemory::new(),
            cycles: 0,
            trace: None,
        }
    }

    /// Enables RVFI trace capture.
    pub fn enable_trace(&mut self) {
        self.trace = Some(RvfiTrace::default());
    }

    /// Takes the captured RVFI trace, leaving capture enabled.
    pub fn take_trace(&mut self) -> RvfiTrace {
        self.trace.replace(RvfiTrace::default()).unwrap_or_default()
    }

    /// Copies a binary image into unified memory.
    pub fn load_words(&mut self, base: u32, words: &[u32]) {
        for (i, &w) in words.iter().enumerate() {
            self.mem.store_word(base + (i as u32) * 4, w);
        }
    }

    /// Reads an architectural register.
    pub fn reg(&self, index: usize) -> u32 {
        self.rf[index]
    }

    /// Writes an architectural register (x0 writes are ignored).
    pub fn set_reg(&mut self, index: usize, value: u32) {
        if index != 0 {
            self.rf[index] = value;
        }
    }

    /// The unified instruction/data memory.
    pub fn memory(&self) -> &SparseMemory {
        &self.mem
    }

    /// Mutable access to the unified memory.
    pub fn memory_mut(&mut self) -> &mut SparseMemory {
        &mut self.mem
    }

    /// Cycles executed (equals retired instructions: the core is
    /// single-cycle, CPI = 1).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The gate-level simulation backend (for activity/power extraction).
    pub fn sim(&self) -> &CompiledSim {
        &self.sim
    }

    /// The current PC (settles the netlist to read the flops).
    pub fn pc(&mut self) -> u32 {
        self.sim.eval();
        self.sim.get_port(self.ports.pc) as u32
    }

    /// Executes one cycle through the gates.
    ///
    /// Returns `Ok(true)` when the instruction jumped to itself (the halt
    /// convention).
    ///
    /// # Errors
    ///
    /// [`ExecError::Unsupported`] when the fetched word is outside the
    /// subset (the core's `valid` output is low).
    pub fn step(&mut self) -> Result<bool, ExecError> {
        let p = self.ports;
        let read = |sim: &CompiledSim, port| sim.get_port(port) as u32;
        // Phase 0: settle to read the PC flops.
        self.sim.eval();
        let pc = read(&self.sim, p.pc);
        // Phase 1: instruction fetch (combinational IMEM read).
        let insn = self.mem.load_word(pc);
        self.sim.set_port(p.insn, insn.into());
        self.sim.eval();
        // Phase 2: register file read (combinational RF read).
        let rs1_addr = read(&self.sim, p.rs1_addr) as usize;
        let rs2_addr = read(&self.sim, p.rs2_addr) as usize;
        let rs1_data = self.rf[rs1_addr];
        let rs2_data = self.rf[rs2_addr];
        self.sim.set_port(p.rs1_data, rs1_data.into());
        self.sim.set_port(p.rs2_data, rs2_data.into());
        self.sim.eval();
        // Phase 3: data memory read (combinational DMEM read).
        let dmem_re = read(&self.sim, p.dmem_re) != 0;
        let dmem_addr = read(&self.sim, p.dmem_addr);
        let rdata = if dmem_re {
            self.mem.load_word(dmem_addr)
        } else {
            0
        };
        self.sim.set_port(p.dmem_rdata, rdata.into());
        self.sim.eval();

        if read(&self.sim, p.valid) == 0 {
            return Err(ExecError::Unsupported { pc, insn });
        }

        // Commit: memory write, register write-back, PC update.
        let wmask = read(&self.sim, p.dmem_wmask) as u8;
        let wdata = read(&self.sim, p.dmem_wdata);
        let addr = read(&self.sim, p.dmem_addr);
        if wmask != 0 {
            self.mem.write_word(addr, wdata, wmask);
        }
        let rd_we = read(&self.sim, p.rd_we) != 0;
        let rd_addr = read(&self.sim, p.rd_addr) as usize;
        let rd_data = read(&self.sim, p.rd_data);
        if rd_we {
            self.set_reg(rd_addr, rd_data);
        }
        let next_pc = read(&self.sim, p.next_pc);
        if let Some(trace) = &mut self.trace {
            trace.push(RvfiRecord {
                pc,
                insn,
                rs1_addr: rs1_addr as u8,
                rs2_addr: rs2_addr as u8,
                rs1_data,
                rs2_data,
                rd_addr: rd_addr as u8,
                rd_wdata: rd_data,
                rd_we,
                next_pc,
                mem_addr: addr,
                mem_rdata: rdata,
                mem_wdata: wdata,
                mem_wmask: wmask,
            });
        }
        self.sim.step();
        self.cycles += 1;
        Ok(next_pc == pc)
    }

    /// Runs until halt (self-loop) or the cycle budget expires.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError::Unsupported`]; returns
    /// [`ExecError::StepLimit`] if the budget expires.
    pub fn run(&mut self, max_cycles: u64) -> Result<u64, ExecError> {
        for _ in 0..max_cycles {
            if self.step()? {
                return Ok(self.cycles);
            }
        }
        Err(ExecError::StepLimit {
            cycles: self.cycles,
        })
    }

    /// Reads the RISCOF-style signature region `[begin, end)`.
    pub fn signature(&self, begin: u32, end: u32) -> Vec<u32> {
        (begin..end)
            .step_by(4)
            .map(|a| self.mem.load_word(a))
            .collect()
    }
}

/// Per-lane execution status of a [`BatchedGateLevelCpu`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum LaneState {
    /// Still fetching and committing instructions.
    Running,
    /// Reached the self-loop halt convention.
    Halted,
    /// Faulted (instruction outside the subset); no further commits.
    Faulted(ExecError),
}

/// Lane-parallel gate-level CPU: one compiled core simulation, up to 512
/// independent programs — one per stimulus lane of a K-word lane block —
/// each with its own
/// behavioural register file, unified memory, PC and halt state.
///
/// Every lane follows the exact phase schedule of the scalar
/// [`GateLevelCpu`] (settle → fetch → RF read → DMEM read → commit →
/// clock edge), so per-lane architectural state is bit-identical to a
/// scalar run of the same program on the same core, and — for runs where
/// no lane faults — the merged toggle counts equal the exact sum of the
/// scalar runs' counts, which is what makes `bench`'s batched activity
/// characterisation exact.
///
/// Lanes that halt keep re-executing their self-loop jump (stable inputs,
/// so they contribute no further switching). Lanes that fault stop
/// committing architectural state and have their PC pinned back to the
/// faulting address every cycle, so they too settle to a stable, non-
/// switching state; the settles around the fault itself can still add a
/// few toggles a scalar run (which stops before the clock edge) would
/// not, so exact scalar-sum accounting is only guaranteed fault-free.
#[derive(Debug, Clone)]
pub struct BatchedGateLevelCpu {
    sim: CompiledSim,
    ports: CorePorts,
    lanes: usize,
    rf: Vec<[u32; riscv_isa::REG_COUNT]>,
    mem: Vec<SparseMemory>,
    cycles: Vec<u64>,
    state: Vec<LaneState>,
    /// The PC flip-flop nets, kept for per-lane re-pinning after a fault.
    pc_nets: Vec<NetId>,
    // Per-lane phase buffers, preallocated so the cycle loop never
    // allocates: fetched PCs, the insn/rdata word being driven, the two
    // register-file read ports, and the commit phase's port reads.
    pcs: Vec<u64>,
    words: Vec<u64>,
    rs1: Vec<u64>,
    rs2: Vec<u64>,
    commit: CommitReads,
}

/// Every lane's value of each output port the commit phase reads, one
/// `get_port_lanes` pass per port.
#[derive(Debug, Clone)]
struct CommitReads {
    valid: Vec<u64>,
    wmask: Vec<u64>,
    addr: Vec<u64>,
    wdata: Vec<u64>,
    rd_we: Vec<u64>,
    rd_addr: Vec<u64>,
    rd_data: Vec<u64>,
    next_pc: Vec<u64>,
}

impl CommitReads {
    fn new(lanes: usize) -> CommitReads {
        CommitReads {
            valid: vec![0; lanes],
            wmask: vec![0; lanes],
            addr: vec![0; lanes],
            wdata: vec![0; lanes],
            rd_we: vec![0; lanes],
            rd_addr: vec![0; lanes],
            rd_data: vec![0; lanes],
            next_pc: vec![0; lanes],
        }
    }

    fn read(&mut self, sim: &CompiledSim, p: &CorePorts) {
        sim.get_port_lanes(p.valid, &mut self.valid);
        sim.get_port_lanes(p.dmem_wmask, &mut self.wmask);
        sim.get_port_lanes(p.dmem_addr, &mut self.addr);
        sim.get_port_lanes(p.dmem_wdata, &mut self.wdata);
        sim.get_port_lanes(p.rd_we, &mut self.rd_we);
        sim.get_port_lanes(p.rd_addr, &mut self.rd_addr);
        sim.get_port_lanes(p.rd_data, &mut self.rd_data);
        sim.get_port_lanes(p.next_pc, &mut self.next_pc);
    }
}

impl BatchedGateLevelCpu {
    /// Creates a batched CPU over `rissp`'s core with one lane per entry
    /// point in `entries` (lane `l` starts at `entries[l]`).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or holds more than
    /// [`MAX_TOTAL_LANES`] lanes.
    pub fn new(rissp: &crate::Rissp, entries: &[u32]) -> BatchedGateLevelCpu {
        BatchedGateLevelCpu::with_core_arc(Arc::new(rissp.core.clone()), entries)
    }

    /// Like [`BatchedGateLevelCpu::new`] but over a shared core netlist
    /// handle (no deep clone of the gate arena per construction).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty, holds more than [`MAX_TOTAL_LANES`]
    /// lanes, or the netlist does not expose the core's ports.
    pub fn with_core_arc(core: Arc<Netlist>, entries: &[u32]) -> BatchedGateLevelCpu {
        assert!(
            (1..=MAX_TOTAL_LANES).contains(&entries.len()),
            "lane count must be in 1..={MAX_TOTAL_LANES}, got {}",
            entries.len()
        );
        let lanes = entries.len();
        let pc_nets = core.output("pc").expect("core exposes pc").nets.clone();
        let mut sim = CompiledSim::with_lanes_arc(core, lanes);
        for (lane, &entry) in entries.iter().enumerate() {
            for (i, net) in pc_nets.iter().enumerate() {
                sim.set_ff_lane(*net, lane, (entry >> i) & 1 == 1);
            }
        }
        BatchedGateLevelCpu {
            ports: CorePorts::resolve(&sim),
            sim,
            lanes,
            rf: vec![[0; riscv_isa::REG_COUNT]; lanes],
            mem: vec![SparseMemory::new(); lanes],
            cycles: vec![0; lanes],
            state: vec![LaneState::Running; lanes],
            pc_nets,
            pcs: vec![0; lanes],
            words: vec![0; lanes],
            rs1: vec![0; lanes],
            rs2: vec![0; lanes],
            commit: CommitReads::new(lanes),
        }
    }

    /// Number of stimulus lanes (programs) in the batch.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Copies a binary image into one lane's unified memory.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lanes()`.
    pub fn load_words(&mut self, lane: usize, base: u32, words: &[u32]) {
        for (i, &w) in words.iter().enumerate() {
            self.mem[lane].store_word(base + (i as u32) * 4, w);
        }
    }

    /// Reads an architectural register of one lane.
    pub fn reg(&self, lane: usize, index: usize) -> u32 {
        self.rf[lane][index]
    }

    /// One lane's unified instruction/data memory.
    pub fn memory(&self, lane: usize) -> &SparseMemory {
        &self.mem[lane]
    }

    /// Instructions retired by one lane (CPI = 1 on the single-cycle core).
    pub fn cycles(&self, lane: usize) -> u64 {
        self.cycles[lane]
    }

    /// Total committed cycles summed over lanes. This is the denominator
    /// that makes merged activity comparable with scalar runs: lanes that
    /// halt early stop contributing cycles (their idle self-loop also adds
    /// no toggles), so `total_toggles / (gates * committed_cycles())`
    /// equals the cycle-weighted average of the per-lane scalar α values
    /// instead of being diluted by idle tails.
    pub fn committed_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// The shared gate-level simulation (for merged activity extraction).
    pub fn sim(&self) -> &CompiledSim {
        &self.sim
    }

    /// True when no lane is still running.
    pub fn all_done(&self) -> bool {
        self.state.iter().all(|s| *s != LaneState::Running)
    }

    /// Executes one cycle on every lane through the shared gates.
    pub fn step(&mut self) {
        let p = self.ports;
        // Phase 0: settle to read every lane's PC flops.
        self.sim.eval();
        self.sim.get_port_lanes(p.pc, &mut self.pcs);
        // Phase 1: per-lane instruction fetch (combinational IMEM read).
        for l in 0..self.lanes {
            self.words[l] = self.mem[l].load_word(self.pcs[l] as u32) as u64;
        }
        self.sim.set_port_lanes(p.insn, &self.words);
        self.sim.eval();
        // Phase 2: per-lane register file read (addresses in, data out).
        self.sim.get_port_lanes(p.rs1_addr, &mut self.rs1);
        self.sim.get_port_lanes(p.rs2_addr, &mut self.rs2);
        for l in 0..self.lanes {
            self.rs1[l] = self.rf[l][self.rs1[l] as usize] as u64;
            self.rs2[l] = self.rf[l][self.rs2[l] as usize] as u64;
        }
        self.sim.set_port_lanes(p.rs1_data, &self.rs1);
        self.sim.set_port_lanes(p.rs2_data, &self.rs2);
        self.sim.eval();
        // Phase 3: per-lane data memory read (`commit.addr` is scratch
        // here; the commit phase re-reads it after the final settle).
        self.sim.get_port_lanes(p.dmem_re, &mut self.words);
        self.sim.get_port_lanes(p.dmem_addr, &mut self.commit.addr);
        for l in 0..self.lanes {
            self.words[l] = if self.words[l] != 0 {
                self.mem[l].load_word(self.commit.addr[l] as u32) as u64
            } else {
                0
            };
        }
        self.sim.set_port_lanes(p.dmem_rdata, &self.words);
        self.sim.eval();

        // Commit per running lane: memory write, write-back, halt detection.
        self.commit.read(&self.sim, &p);
        let c = &self.commit;
        for l in 0..self.lanes {
            let pc = self.pcs[l] as u32;
            if self.state[l] != LaneState::Running {
                continue;
            }
            if c.valid[l] == 0 {
                self.state[l] = LaneState::Faulted(ExecError::Unsupported {
                    pc,
                    insn: self.mem[l].load_word(pc),
                });
                continue;
            }
            let wmask = c.wmask[l] as u8;
            if wmask != 0 {
                self.mem[l].write_word(c.addr[l] as u32, c.wdata[l] as u32, wmask);
            }
            if c.rd_we[l] != 0 {
                let rd_addr = c.rd_addr[l] as usize;
                if rd_addr != 0 {
                    self.rf[l][rd_addr] = c.rd_data[l] as u32;
                }
            }
            self.cycles[l] += 1;
            if c.next_pc[l] as u32 == pc {
                self.state[l] = LaneState::Halted;
            }
        }
        self.sim.step();
        // Pin every faulted lane's PC flops back to the faulting address:
        // the lane then re-fetches the same word forever (like a halted
        // lane's self-loop) instead of wandering through memory and
        // polluting the merged toggle counts.
        for l in 0..self.lanes {
            if let LaneState::Faulted(ExecError::Unsupported { pc, .. }) = self.state[l] {
                for (i, net) in self.pc_nets.iter().enumerate() {
                    self.sim.set_ff_lane(*net, l, (pc >> i) & 1 == 1);
                }
            }
        }
    }

    /// Runs until every lane has halted or faulted, or `max_cycles` global
    /// cycles elapse, and returns each lane's outcome: retired instructions
    /// on a clean halt, [`ExecError::Unsupported`] on a subset fault, or
    /// [`ExecError::StepLimit`] if the budget expired first.
    pub fn run(&mut self, max_cycles: u64) -> Vec<Result<u64, ExecError>> {
        for _ in 0..max_cycles {
            if self.all_done() {
                break;
            }
            self.step();
        }
        self.state
            .iter()
            .enumerate()
            .map(|(l, s)| match s {
                LaneState::Halted => Ok(self.cycles[l]),
                LaneState::Faulted(e) => Err(e.clone()),
                LaneState::Running => Err(ExecError::StepLimit {
                    cycles: self.cycles[l],
                }),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rissp;
    use riscv_isa::asm;

    fn cpu_for(program: &str) -> (GateLevelCpu, Vec<u32>) {
        let words = asm::assemble(&asm::parse(program).unwrap(), 0).unwrap();
        let subset = InstructionSubset::from_words(&words);
        let lib = HwLibrary::build_full();
        let rissp = Rissp::generate(&lib, &subset);
        let mut cpu = GateLevelCpu::new(&rissp, 0);
        cpu.load_words(0, &words);
        (cpu, words)
    }

    #[test]
    fn gate_level_arithmetic_program() {
        let (mut cpu, _) = cpu_for(
            "
            addi a0, zero, 10
            addi a1, zero, 3
            sub  a2, a0, a1
            xor  a3, a0, a1
            halt: jal x0, halt
            ",
        );
        cpu.run(100).unwrap();
        assert_eq!(cpu.reg(12), 7);
        assert_eq!(cpu.reg(13), 9);
        assert_eq!(cpu.cycles(), 5); // 4 instructions + the halting jal
    }

    #[test]
    fn gate_level_memory_and_branches() {
        let (mut cpu, _) = cpu_for(
            "
            addi a0, zero, 5     # n
            addi a1, zero, 0     # sum
            loop:
            beq  a0, zero, done
            add  a1, a1, a0
            addi a0, a0, -1
            jal  x0, loop
            done:
            sw   a1, 0x100(zero)
            halt: jal x0, halt
            ",
        );
        cpu.run(1000).unwrap();
        assert_eq!(cpu.reg(11), 15);
        assert_eq!(cpu.memory().load_word(0x100), 15);
    }

    #[test]
    fn unsupported_instruction_faults() {
        let lib = HwLibrary::build_full();
        let subset: InstructionSubset = [riscv_isa::Mnemonic::Addi, riscv_isa::Mnemonic::Jal]
            .into_iter()
            .collect();
        let rissp = Rissp::generate(&lib, &subset);
        let mut cpu = GateLevelCpu::new(&rissp, 0);
        // `xor` is not in the subset.
        let words = asm::assemble(
            &asm::parse("addi a0, zero, 1\nxor a0, a0, a0\nhalt: jal x0, halt").unwrap(),
            0,
        )
        .unwrap();
        cpu.load_words(0, &words);
        let err = cpu.run(10).unwrap_err();
        assert!(matches!(err, ExecError::Unsupported { pc: 4, .. }), "{err}");
    }

    #[test]
    fn batched_lanes_match_scalar_runs_exactly() {
        // Two different programs share one core (union subset), one lane
        // each; both architectural state and merged toggle counts must be
        // bit-identical to the two scalar runs.
        let prog_a = "
            addi a0, zero, 10
            addi a1, zero, 3
            sub  a2, a0, a1
            xor  a3, a0, a1
            halt: jal x0, halt
            ";
        let prog_b = "
            addi a0, zero, 5
            addi a1, zero, 0
            loop:
            beq  a0, zero, done
            add  a1, a1, a0
            addi a0, a0, -1
            jal  x0, loop
            done:
            sw   a1, 0x100(zero)
            halt: jal x0, halt
            ";
        let words_a = asm::assemble(&asm::parse(prog_a).unwrap(), 0).unwrap();
        let words_b = asm::assemble(&asm::parse(prog_b).unwrap(), 0).unwrap();
        let union: Vec<u32> = words_a.iter().chain(&words_b).copied().collect();
        let subset = InstructionSubset::from_words(&union);
        let lib = HwLibrary::build_full();
        let rissp = Rissp::generate(&lib, &subset);

        let scalar = |words: &[u32]| {
            let mut cpu = GateLevelCpu::new(&rissp, 0);
            cpu.load_words(0, words);
            let cycles = cpu.run(1000).unwrap();
            (cycles, cpu)
        };
        let (cycles_a, cpu_a) = scalar(&words_a);
        let (cycles_b, cpu_b) = scalar(&words_b);

        let mut batch = BatchedGateLevelCpu::new(&rissp, &[0, 0]);
        batch.load_words(0, 0, &words_a);
        batch.load_words(1, 0, &words_b);
        let results = batch.run(1000);
        assert_eq!(results[0].as_ref().unwrap(), &cycles_a);
        assert_eq!(results[1].as_ref().unwrap(), &cycles_b);
        for r in 10..14 {
            assert_eq!(batch.reg(0, r), cpu_a.reg(r), "lane 0 x{r}");
            assert_eq!(batch.reg(1, r), cpu_b.reg(r), "lane 1 x{r}");
        }
        assert_eq!(batch.memory(1).load_word(0x100), 15);
        // Exact toggle accounting: lanes are independent, so the merged
        // per-net counts are the sum of the scalar runs' counts (halted
        // lanes re-execute their stable self-loop and add nothing).
        let merged: Vec<u64> = cpu_a
            .sim()
            .toggles()
            .iter()
            .zip(cpu_b.sim().toggles())
            .map(|(&a, &b)| a + b)
            .collect();
        assert_eq!(batch.sim().toggles(), &merged[..]);
    }

    #[test]
    fn batched_lane_fault_is_isolated() {
        let lib = HwLibrary::build_full();
        let subset: InstructionSubset = [riscv_isa::Mnemonic::Addi, riscv_isa::Mnemonic::Jal]
            .into_iter()
            .collect();
        let rissp = Rissp::generate(&lib, &subset);
        let good = asm::assemble(
            &asm::parse("addi a0, zero, 7\nhalt: jal x0, halt").unwrap(),
            0,
        )
        .unwrap();
        // `xor` is outside the subset: lane 1 faults at pc 4.
        let bad = asm::assemble(
            &asm::parse("addi a0, zero, 1\nxor a0, a0, a0\nhalt: jal x0, halt").unwrap(),
            0,
        )
        .unwrap();
        let mut batch = BatchedGateLevelCpu::new(&rissp, &[0, 0]);
        batch.load_words(0, 0, &good);
        batch.load_words(1, 0, &bad);
        let results = batch.run(100);
        assert_eq!(results[0], Ok(2));
        assert!(
            matches!(results[1], Err(ExecError::Unsupported { pc: 4, .. })),
            "{:?}",
            results[1]
        );
        // The healthy lane's state is untouched by the faulting one.
        assert_eq!(batch.reg(0, 10), 7);
        // Once every lane is halted or faulted (and the faulted lane's PC
        // is pinned), the whole batch is stable: further cycles add no
        // switching, so a fault cannot pollute activity without bound.
        batch.step();
        let settled: u64 = batch.sim().toggles().iter().sum();
        for _ in 0..5 {
            batch.step();
        }
        assert_eq!(batch.sim().toggles().iter().sum::<u64>(), settled);
    }

    #[test]
    fn batched_entry_points_are_per_lane() {
        let words = asm::assemble(
            &asm::parse("addi a0, zero, 9\nhalt: jal x0, halt").unwrap(),
            0x200,
        )
        .unwrap();
        let subset = InstructionSubset::from_words(&words);
        let lib = HwLibrary::build_full();
        let rissp = Rissp::generate(&lib, &subset);
        let mut batch = BatchedGateLevelCpu::new(&rissp, &[0x200, 0x200]);
        for lane in 0..2 {
            batch.load_words(lane, 0x200, &words);
        }
        let results = batch.run(10);
        assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
        assert_eq!(batch.reg(0, 10), 9);
        assert_eq!(batch.reg(1, 10), 9);
    }

    #[test]
    fn entry_point_is_respected() {
        let words = asm::assemble(
            &asm::parse("addi a0, zero, 9\nhalt: jal x0, halt").unwrap(),
            0x200,
        )
        .unwrap();
        let subset = InstructionSubset::from_words(&words);
        let lib = HwLibrary::build_full();
        let rissp = Rissp::generate(&lib, &subset);
        let mut cpu = GateLevelCpu::new(&rissp, 0x200);
        cpu.load_words(0x200, &words);
        assert_eq!(cpu.pc(), 0x200);
        cpu.run(10).unwrap();
        assert_eq!(cpu.reg(10), 9);
    }
}
