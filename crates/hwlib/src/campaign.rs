//! Mutation-coverage campaigns by fault dropping on fan-out cones (the MCY
//! step at scale).
//!
//! [`mutate::mutation_coverage`](crate::mutate::mutation_coverage) runs one
//! mutant at a time through the interpreted [`netlist::Sim`], settling the
//! whole faulty netlist on every vector — fine for a handful of blocks,
//! hopeless for "millions of scenarios". This module reaches the same
//! verdicts by parallel-pattern single-fault propagation (PPSFP;
//! Waicukauski et al., "Fault Simulation for Structured VLSI", 1985):
//!
//! 1. **Golden pass, once per block.** The unmutated netlist settles 64
//!    vectors per word ([`Gate::eval_word`], vectors in the lanes), once
//!    for the observability probes and once for the full testbench; the
//!    `block_semantics` results are transposed into lane words per
//!    compared output bit.
//! 2. **One cone per mutant.** Only the mutated net's static fan-out cone
//!    is evaluated, in id order, the faulty gate first; every operand
//!    outside the cone is read from the golden words. A mutant is
//!    dropped at its first distinguishing probe word (observable) and at
//!    its first killing testbench word (killed).
//!
//! # Exactness
//!
//! A mutant replaces one gate, so every net outside that gate's fan-out
//! cone keeps its golden value on every vector; evaluating the cone in
//! topological (id) order over the golden words therefore yields exactly
//! the values a full settle of
//! [`Netlist::with_gate_replaced`](netlist::Netlist::with_gate_replaced)
//! would. Observability compares the compared output bits inside the cone
//! with golden (those outside cannot differ). Kill compares every
//! compared output bit with the semantics words: an in-cone bit takes the
//! cone's value, an out-of-cone bit the golden value. The compared
//! ports are exactly the ten [`BlockOutputs`] fields, never `sel`, under
//! each word's valid-lane mask — so the verdicts are **bit-identical** to
//! the scalar loop's (`tests/campaigns.rs` pins this across the whole
//! block library).

use crate::mutate::{mutation_sites, observability_probes, CoverageReport, Mutant, Mutation};
use crate::verify::arch_test_vectors;
use crate::{ports, HwLibrary, InstrBlock};
use netlist::compiled::{word_lane_mask, LANES_PER_WORD, MAX_TOTAL_LANES};
use netlist::pool;
use netlist::{Builder, Gate, NetId, Netlist};
use riscv_isa::semantics::{block_semantics, BlockInputs, BlockOutputs};
use riscv_isa::Mnemonic;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Tuning knobs for a mutation-coverage campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Mutants sampled per block (the `limit` of
    /// [`mutation_sites`]).
    pub limit: usize,
    /// Mutant-sampling seed, shared by every block (each block's mutant
    /// set still differs because its netlist differs).
    pub seed: u64,
    /// The chunk and checkpoint grain: a block's mutants are evaluated
    /// and checkpointed `lanes - 1` at a time. Clamped to
    /// [`MAX_TOTAL_LANES`], so chunk counts match the campaigns that
    /// settled one chunk per lane block. No simulator settles this many
    /// lanes: the golden pass packs 64 vectors per word.
    pub lanes: usize,
    /// Threads for the library-wide sweep (blocks are claimed off a
    /// shared counter, [`pool::claim_map`]). `1` runs on the caller.
    pub threads: usize,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            limit: 24,
            seed: 0x5eed_cafe,
            lanes: LANES_PER_WORD * 4,
            threads: netlist::env_threads().unwrap_or(1),
        }
    }
}

/// One block's campaign outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockCoverage {
    /// The block the mutants were drawn from.
    pub mnemonic: Mnemonic,
    /// The kill report, bit-identical to the scalar MCY loop's.
    pub report: CoverageReport,
}

/// Builds the instrumented netlist for one chunk of mutants: every mutated
/// net's driver is wrapped in `mux(__mut{i}, original, mutated)` with a
/// fresh 1-bit `__mut{i}` input per mutant, so lane `i` with only
/// `__mut{i}` high computes exactly the mutant-`i` netlist and a lane with
/// all selects low computes the original block.
///
/// The campaigns no longer use this (they evaluate fan-out cones); it is
/// kept only for the callers that measure or cache-test an instrumented
/// netlist: the `hwlib.instrument_ms` row of `perfbench`'s walk and
/// `tests/service_cache.rs`.
///
/// # Panics
///
/// Panics if the block netlist contains flip-flops (instruction blocks are
/// purely combinational) or a mutant refers to an out-of-range net.
pub fn instrument(netlist: &Netlist, mutants: &[&Mutant]) -> Netlist {
    let mut b = Builder::new();
    let mut map: Vec<NetId> = vec![NetId::MAX; netlist.len()];

    // Re-declare the input ports first, in declaration order, so the
    // instrumented netlist keeps the block's port interface; the injection
    // selects follow as fresh single-bit ports.
    for port in netlist.inputs() {
        let nets = b.input_bus(&port.name, port.nets.len());
        for (&old, &new) in port.nets.iter().zip(&nets) {
            map[old as usize] = new;
        }
    }
    let sels: Vec<NetId> = (0..mutants.len())
        .map(|i| b.input(&format!("__mut{i}")))
        .collect();

    for (id, &gate) in netlist.gates().iter().enumerate() {
        if let Gate::Input(_) = gate {
            continue; // mapped with its port above
        }
        let mut new = emit(&mut b, gate, &map);
        for (i, mutant) in mutants.iter().enumerate() {
            if mutant.net as usize != id {
                continue;
            }
            let faulty = mutant
                .mutation
                .apply(gate)
                .expect("a mutant's mutation applies to its gate");
            let faulty = emit(&mut b, faulty, &map);
            // sel high (lane i) selects the faulty value.
            new = b.mux(sels[i], new, faulty);
        }
        map[id] = new;
    }

    for port in netlist.outputs() {
        let nets: Vec<NetId> = port.nets.iter().map(|&n| map[n as usize]).collect();
        b.output_bus(&port.name, &nets);
    }
    b.finish()
}

/// Re-emits one logic gate through `b`, with fan-ins remapped by `map`.
fn emit(b: &mut Builder, gate: Gate, map: &[NetId]) -> NetId {
    let m = |n: NetId| map[n as usize];
    match gate {
        Gate::Const(v) => b.constant(v),
        Gate::Not(x) => b.not(m(x)),
        Gate::And(x, y) => b.and(m(x), m(y)),
        Gate::Or(x, y) => b.or(m(x), m(y)),
        Gate::Xor(x, y) => b.xor(m(x), m(y)),
        Gate::Nand(x, y) => b.nand(m(x), m(y)),
        Gate::Nor(x, y) => b.nor(m(x), m(y)),
        Gate::Xnor(x, y) => b.xnor(m(x), m(y)),
        Gate::Mux { sel, a, b: bb } => b.mux(m(sel), m(a), m(bb)),
        Gate::Input(_) | Gate::Dff { .. } => {
            panic!("instrument: instruction blocks are combinational")
        }
    }
}

/// Reads one [`BlockOutputs`] field as a word.
type OutputField = fn(&BlockOutputs) -> u32;

/// Reads one [`BlockInputs`] field as a word.
type InputField = fn(&BlockInputs) -> u32;

/// The compared output ports — every [`BlockOutputs`] field, never `sel` —
/// each with its field.
const COMPARED: [(&str, OutputField); 10] = [
    (ports::NEXT_PC, |o| o.next_pc),
    (ports::RS1_ADDR, |o| o.rs1_addr.into()),
    (ports::RS2_ADDR, |o| o.rs2_addr.into()),
    (ports::RD_ADDR, |o| o.rd_addr.into()),
    (ports::RD_DATA, |o| o.rd_data),
    (ports::RD_WE, |o| o.rd_we.into()),
    (ports::DMEM_ADDR, |o| o.dmem_addr),
    (ports::DMEM_WDATA, |o| o.dmem_wdata),
    (ports::DMEM_WMASK, |o| o.dmem_wmask.into()),
    (ports::DMEM_RE, |o| o.dmem_re.into()),
];

/// The [`BlockInputs`] field an input port of the block interface reads.
fn input_field(port: &str) -> InputField {
    match port {
        ports::PC => |i| i.pc,
        ports::INSN => |i| i.insn,
        ports::RS1_DATA => |i| i.rs1_data,
        ports::RS2_DATA => |i| i.rs2_data,
        ports::DMEM_RDATA => |i| i.dmem_rdata,
        other => panic!("`{other}` is not a block input port"),
    }
}

/// Transposes per-item bit rows into lane words, 64 items per word:
/// `row(item, bits)` pushes one item's `width` bits, and entry
/// `w * width + b` of the result holds bit `b` of items `64w..64w + 64`,
/// item `64w + l` on lane `l`.
fn transpose<T>(items: &[T], width: usize, mut row: impl FnMut(&T, &mut Vec<bool>)) -> Vec<u64> {
    let mut words = vec![0u64; items.len().div_ceil(LANES_PER_WORD) * width];
    let mut bits = Vec::with_capacity(width);
    for (i, item) in items.iter().enumerate() {
        bits.clear();
        row(item, &mut bits);
        debug_assert_eq!(bits.len(), width);
        let (w, lane) = (i / LANES_PER_WORD, i % LANES_PER_WORD);
        for (word, &bit) in words[w * width..].iter_mut().zip(&bits) {
            *word |= u64::from(bit) << lane;
        }
    }
    words
}

/// Pushes the low `width` bits of `value`, LSB first.
fn push_bits(bits: &mut Vec<bool>, value: u32, width: usize) {
    bits.extend((0..width).map(|j| (u64::from(value) >> j) & 1 == 1));
}

/// Rows of `u32`s, flattened: row `r` is `items[start[r]..start[r + 1]]`.
struct Csr {
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    /// Groups `(row, item)` pairs by row, keeping their order within a row.
    fn new(rows: usize, pairs: &[(u32, u32)]) -> Csr {
        let mut start = vec![0u32; rows + 1];
        for &(r, _) in pairs {
            start[r as usize + 1] += 1;
        }
        for r in 0..rows {
            start[r + 1] += start[r];
        }
        let mut next = start.clone();
        let mut items = vec![0; pairs.len()];
        for &(r, item) in pairs {
            items[next[r as usize] as usize] = item;
            next[r as usize] += 1;
        }
        Csr { start, items }
    }

    fn row(&self, r: u32) -> &[u32] {
        &self.items[self.start[r as usize] as usize..self.start[r as usize + 1] as usize]
    }
}

/// A combinational netlist prepared for single-fault evaluation on fan-out
/// cones: the gate arena plus its fan-out lists.
struct ConeSim<'n> {
    gates: &'n [Gate],
    fanout: Csr,
}

impl<'n> ConeSim<'n> {
    fn new(netlist: &'n Netlist) -> ConeSim<'n> {
        let gates = netlist.gates();
        let edges: Vec<(u32, u32)> = gates
            .iter()
            .enumerate()
            .flat_map(|(id, g)| g.fanin().map(move |f| (f, id as u32)))
            .collect();
        ConeSim {
            gates,
            fanout: Csr::new(gates.len(), &edges),
        }
    }

    /// Settles the unmutated netlist on `words` lane words: entry
    /// `w * bits + i` of `inputs` drives input bit `i` on word `w`, and
    /// entry `w * len + id` of the result is net `id`'s word `w`.
    fn settle(&self, inputs: &[u64], words: usize) -> Vec<u64> {
        let (n, bits) = (self.gates.len(), inputs.len() / words.max(1));
        let mut values = vec![0u64; words * n];
        for (w, vals) in values.chunks_exact_mut(n).enumerate() {
            for (id, gate) in self.gates.iter().enumerate() {
                vals[id] = match *gate {
                    Gate::Input(i) => inputs[w * bits + i as usize],
                    ref g => g.eval_word(vals),
                };
            }
        }
        values
    }

    /// The static fan-out cone of `net` in id order, `net` first. `seen`
    /// is all-false scratch of the netlist's length, and is left so.
    fn cone(&self, net: NetId, seen: &mut [bool]) -> Vec<NetId> {
        let mut cone = vec![net];
        seen[net as usize] = true;
        let mut next = 0;
        while let Some(&id) = cone.get(next) {
            for &f in self.fanout.row(id) {
                if !seen[f as usize] {
                    seen[f as usize] = true;
                    cone.push(f);
                }
            }
            next += 1;
        }
        for &id in &cone {
            seen[id as usize] = false;
        }
        // Fan-outs have larger ids than their fan-ins: `net` sorts first.
        cone.sort_unstable();
        cone
    }

    /// Evaluates one word of the mutant that puts `faulty` in place of
    /// `cone[0]`'s gate: `values` holds golden words, and afterwards the
    /// mutant's words on the cone (and golden words everywhere else).
    fn eval_cone(&self, faulty: Gate, cone: &[NetId], values: &mut [u64]) {
        values[cone[0] as usize] = faulty.eval_word(values);
        for &id in &cone[1..] {
            values[id as usize] = self.gates[id as usize].eval_word(values);
        }
    }
}

/// One vector set settled on the unmutated block.
struct Golden {
    /// Entry `w * len + id`: net `id` on vectors `64w..64w + 64`.
    values: Vec<u64>,
    /// Valid lanes of each word (the last word may be partial).
    valid: Vec<u64>,
}

impl Golden {
    fn settle(sim: &ConeSim, netlist: &Netlist, vectors: &[BlockInputs]) -> Golden {
        let fields: Vec<(InputField, usize)> = netlist
            .inputs()
            .iter()
            .map(|p| (input_field(&p.name), p.nets.len()))
            .collect();
        let width = fields.iter().map(|&(_, w)| w).sum();
        let inputs = transpose(vectors, width, |v, bits| {
            for &(field, w) in &fields {
                push_bits(bits, field(v), w);
            }
        });
        let words = vectors.len().div_ceil(LANES_PER_WORD);
        Golden {
            values: sim.settle(&inputs, words),
            valid: (0..words)
                .map(|w| word_lane_mask((vectors.len() - w * LANES_PER_WORD).min(LANES_PER_WORD)))
                .collect(),
        }
    }

    fn words(&self) -> usize {
        self.valid.len()
    }

    /// Evaluates word `w` of the mutant that puts `faulty` in place of
    /// `cone[0]`'s gate ([`ConeSim::eval_cone`]) in `work`, a copy of
    /// `values`, and returns `diff(mutant, golden)` under the valid mask.
    /// `work` holds the golden words again on return.
    fn fault_word(
        &self,
        sim: &ConeSim,
        work: &mut [u64],
        w: usize,
        faulty: Gate,
        cone: &[NetId],
        diff: impl FnOnce(&[u64], &[u64]) -> u64,
    ) -> u64 {
        let n = sim.gates.len();
        let (vals, gold) = (
            &mut work[w * n..(w + 1) * n],
            &self.values[w * n..(w + 1) * n],
        );
        sim.eval_cone(faulty, cone, vals);
        let d = diff(vals, gold) & self.valid[w];
        for &id in cone {
            vals[id as usize] = gold[id as usize];
        }
        d
    }
}

/// Lanes where the compared outputs in `vals` miss one word's semantics
/// words `spec`, valid or not.
fn spec_miss(out_nets: &[NetId], vals: &[u64], spec: &[u64]) -> u64 {
    out_nets
        .iter()
        .zip(spec)
        .fold(0, |d, (&id, &bit)| d | (vals[id as usize] ^ bit))
}

/// One block's prepared campaign: its mutation sites plus the golden pass
/// every chunk is evaluated against. This is the unit both the one-shot
/// sweep and the checkpoint-resume loop iterate over — a chunk's verdicts
/// depend only on the chunk's own sites and the block's golden pass,
/// which is what makes resumption bit-identical.
struct ChunkRunner<'b> {
    sim: ConeSim<'b>,
    sites: Vec<(NetId, Mutation)>,
    lanes: usize,
    /// The compared output bits each net drives (indices into a spec row).
    drives: Csr,
    /// The net driving each compared output bit.
    out_nets: Vec<NetId>,
    probes: Golden,
    vectors: Golden,
    /// Entry `w * bits + b`: compared bit `b` of the semantics on vector
    /// word `w`.
    spec: Vec<u64>,
    /// Per vector word: valid lanes where the golden netlist itself
    /// misses the semantics (zero on a verified block).
    miss: Vec<u64>,
}

impl<'b> ChunkRunner<'b> {
    fn new(block: &'b InstrBlock, limit: usize, seed: u64, lanes: usize) -> ChunkRunner<'b> {
        let lanes = lanes.min(MAX_TOTAL_LANES);
        assert!(lanes >= 2, "lane_mutation_coverage needs >= 2 lanes");
        let netlist = &block.netlist;
        let sim = ConeSim::new(netlist);
        let vectors = arch_test_vectors(block.mnemonic);
        let probes = Golden::settle(&sim, netlist, &observability_probes(&vectors));

        let compared: Vec<(&str, OutputField, &[NetId])> = COMPARED
            .iter()
            .map(|&(name, field)| {
                let port = netlist
                    .output(name)
                    .unwrap_or_else(|| panic!("{}: no output `{name}`", block.mnemonic));
                (name, field, port.nets.as_slice())
            })
            .collect();
        let out_nets: Vec<NetId> = compared
            .iter()
            .flat_map(|&(_, _, nets)| nets)
            .copied()
            .collect();
        let bits = out_nets.len();
        let spec = transpose(&vectors, bits, |v, row| {
            let instr = riscv_isa::Instruction::decode(v.insn).expect("vector decodes");
            let out = block_semantics(instr, v);
            for &(name, field, nets) in &compared {
                // A wider value would miss on every netlist; the testbench
                // draws only registers the 4-bit address ports can name.
                assert!(
                    u64::from(field(&out)) >> nets.len() == 0,
                    "{}: the semantics of `{name}` overflow the port",
                    block.mnemonic
                );
                push_bits(row, field(&out), nets.len());
            }
        });
        let golden = Golden::settle(&sim, netlist, &vectors);
        let n = netlist.len();
        let miss = (0..golden.words())
            .map(|w| {
                let spec = &spec[w * bits..(w + 1) * bits];
                spec_miss(&out_nets, &golden.values[w * n..], spec) & golden.valid[w]
            })
            .collect();
        let drives: Vec<(u32, u32)> = out_nets
            .iter()
            .enumerate()
            .map(|(b, &id)| (id, b as u32))
            .collect();
        ChunkRunner {
            sites: mutation_sites(block, limit, seed),
            lanes,
            drives: Csr::new(n, &drives),
            out_nets,
            probes,
            vectors: golden,
            spec,
            miss,
            sim,
        }
    }

    /// Chunks this block's campaign spans (`lanes - 1` mutants each).
    fn chunk_count(&self) -> usize {
        self.sites.len().div_ceil(self.lanes - 1)
    }

    /// Evaluates chunk `index`, returning its `(observable, killed)`
    /// counts.
    fn run_chunk(&self, index: usize) -> (usize, usize) {
        let chunk = self
            .sites
            .chunks(self.lanes - 1)
            .nth(index)
            .expect("chunk index in range");
        let mut seen = vec![false; self.sim.gates.len()];
        let mut probe_work = self.probes.values.clone();
        let mut vector_work = self.vectors.values.clone();
        chunk.iter().fold((0, 0), |(o, k), &site| {
            let (observable, killed) =
                self.verdict(site, &mut seen, &mut probe_work, &mut vector_work);
            (o + usize::from(observable), k + usize::from(killed))
        })
    }

    /// One mutant's `(observable, killed)` verdict. `probe_work` and
    /// `vector_work` hold the golden words on entry and on return.
    fn verdict(
        &self,
        (net, mutation): (NetId, Mutation),
        seen: &mut [bool],
        probe_work: &mut [u64],
        vector_work: &mut [u64],
    ) -> (bool, bool) {
        let faulty = mutation
            .apply(self.sim.gates[net as usize])
            .expect("a site names a mutation that applies");
        let cone = self.sim.cone(net, seen);
        // The compared bits inside the cone, as (net, bit) pairs: a mutant
        // whose cone reaches none of them (only `sel`, say) can never
        // change a compared output.
        let outs: Vec<(usize, usize)> = cone
            .iter()
            .flat_map(|&id| {
                self.drives
                    .row(id)
                    .iter()
                    .map(move |&b| (id as usize, b as usize))
            })
            .collect();
        if outs.is_empty() {
            return (false, false);
        }
        let observable = (0..self.probes.words()).any(|w| {
            self.probes
                .fault_word(&self.sim, probe_work, w, faulty, &cone, |vals, gold| {
                    outs.iter().fold(0, |d, &(id, _)| d | (vals[id] ^ gold[id]))
                })
                != 0
        });
        if !observable {
            return (false, false);
        }

        let bits = self.out_nets.len();
        let killed = (0..self.vectors.words()).any(|w| {
            let spec = &self.spec[w * bits..(w + 1) * bits];
            self.vectors
                .fault_word(&self.sim, vector_work, w, faulty, &cone, |vals, _| {
                    if self.miss[w] == 0 {
                        // Out-of-cone bits hold golden values, which match
                        // the semantics on this word: only the cone can miss.
                        outs.iter().fold(0, |d, &(id, b)| d | (vals[id] ^ spec[b]))
                    } else {
                        spec_miss(&self.out_nets, vals, spec)
                    }
                })
                != 0
        });
        (true, killed)
    }
}

/// Cone-evaluated [`mutate::mutation_coverage`](crate::mutate::mutation_coverage):
/// same mutants, same probes, same testbench vectors, same verdicts — but
/// each mutant evaluates only its fan-out cone against one golden pass
/// per block, 64 vectors per word, and stops at its first deciding word.
/// `lanes` sets the chunk grain only (see [`CampaignConfig::lanes`]).
///
/// # Panics
///
/// Panics if `lanes < 2` after clamping (a chunk holds `lanes - 1`
/// mutants).
pub fn lane_mutation_coverage(
    block: &InstrBlock,
    limit: usize,
    seed: u64,
    lanes: usize,
) -> CoverageReport {
    let runner = ChunkRunner::new(block, limit, seed, lanes);
    let (observable, killed) = (0..runner.chunk_count())
        .map(|index| runner.run_chunk(index))
        .fold((0, 0), |(o, k), (co, ck)| (o + co, k + ck));
    CoverageReport {
        generated: runner.sites.len(),
        observable,
        killed,
    }
}

/// Runs the cone-evaluated MCY loop over every block in the library, with
/// blocks claimed off a shared counter by `cfg.threads` threads
/// ([`pool::claim_map`]). Results are in deterministic mnemonic order and
/// independent of the thread count (each block's campaign is
/// self-contained).
pub fn library_mutation_coverage(lib: &HwLibrary, cfg: &CampaignConfig) -> Vec<BlockCoverage> {
    let mut blocks: Vec<&InstrBlock> = lib.iter().collect();
    pool::claim_map(cfg.threads, &mut blocks, |_, block| BlockCoverage {
        mnemonic: block.mnemonic,
        report: lane_mutation_coverage(block, cfg.limit, cfg.seed, cfg.lanes),
    })
}

// ---------------------------------------------------------------------------
// Resumable campaigns: chunk-grained checkpoints
// ---------------------------------------------------------------------------

/// Per-block resume state: how many chunks of the block's mutant
/// population have been fully evaluated and the verdict counts they
/// accumulated. A chunk's verdicts depend only on that chunk's own
/// mutation sites and the block's golden pass (see `ChunkRunner`), so
/// replaying the remaining chunks after a restart yields the same totals as an
/// uninterrupted sweep, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockProgress {
    /// Chunks fully evaluated so far.
    pub chunks_done: usize,
    /// Mutants generated for the block (fixed by `limit`/`seed`; recorded
    /// so a finished checkpoint can rebuild the report without re-running
    /// the mutant generator... it is re-derived on resume anyway and must
    /// match).
    pub generated: usize,
    /// Observable verdicts accumulated over the finished chunks.
    pub observable: usize,
    /// Killed verdicts accumulated over the finished chunks.
    pub killed: usize,
    /// True once every chunk of the block has been evaluated.
    pub complete: bool,
}

/// On-disk checkpoint of a library mutation sweep: the campaign knobs the
/// verdicts depend on plus one [`BlockProgress`] line per started block.
///
/// The format is a line-oriented text file (version-tagged, written
/// atomically via a `.tmp` sibling + rename) so interrupted runs can be
/// inspected with a pager:
///
/// ```text
/// gate-sim-checkpoint v1 mutation
/// config limit=24 seed=0x5eedcafe lanes=256
/// block add chunks=1 generated=24 observable=20 killed=20 done
/// block and chunks=1 generated=24 observable=19 killed=19
/// ```
///
/// A checkpoint is only valid for the exact `(limit, seed, lanes)` it was
/// written under — [`MutationCheckpoint::matches`] gates resumption, and
/// the `campaign` binary turns a mismatch into a runtime error rather
/// than silently restarting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutationCheckpoint {
    /// Mutants sampled per block when the checkpoint was written.
    pub limit: usize,
    /// Mutant-sampling seed when the checkpoint was written.
    pub seed: u64,
    /// Stimulus lanes per settle when the checkpoint was written. The
    /// chunk grain is `lanes - 1` mutants, so resuming under a different
    /// width would mis-slice the population.
    pub lanes: usize,
    /// Progress per block, keyed by the mnemonic's display name.
    pub blocks: BTreeMap<String, BlockProgress>,
}

impl MutationCheckpoint {
    /// Fresh, empty checkpoint bound to `cfg`'s verdict-relevant knobs.
    pub fn new(cfg: &CampaignConfig) -> MutationCheckpoint {
        MutationCheckpoint {
            limit: cfg.limit,
            seed: cfg.seed,
            lanes: cfg.lanes,
            blocks: BTreeMap::new(),
        }
    }

    /// True when the checkpoint was written under the same
    /// verdict-relevant knobs as `cfg` and may therefore be resumed.
    /// (`threads` intentionally excluded: it never affects verdicts.)
    pub fn matches(&self, cfg: &CampaignConfig) -> bool {
        self.limit == cfg.limit && self.seed == cfg.seed && self.lanes == cfg.lanes
    }

    /// Serializes to the v1 text format (see the type docs).
    pub fn render(&self) -> String {
        let mut out = String::from("gate-sim-checkpoint v1 mutation\n");
        out.push_str(&format!(
            "config limit={} seed={:#x} lanes={}\n",
            self.limit, self.seed, self.lanes
        ));
        for (name, p) in &self.blocks {
            out.push_str(&format!(
                "block {name} chunks={} generated={} observable={} killed={}{}\n",
                p.chunks_done,
                p.generated,
                p.observable,
                p.killed,
                if p.complete { " done" } else { "" }
            ));
        }
        out
    }

    /// Parses the v1 text format, rejecting anything malformed — a
    /// corrupt checkpoint must fail loudly, never resume wrong.
    pub fn parse(text: &str) -> Result<MutationCheckpoint, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("gate-sim-checkpoint v1 mutation") => {}
            other => return Err(format!("bad checkpoint header: {other:?}")),
        }
        let config = lines.next().ok_or("missing config line")?;
        let mut limit = None;
        let mut seed = None;
        let mut lanes = None;
        let mut fields = config.split_whitespace();
        if fields.next() != Some("config") {
            return Err(format!("bad config line: {config:?}"));
        }
        for field in fields {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("bad config field: {field:?}"))?;
            match key {
                "limit" => limit = Some(parse_usize(value)?),
                "seed" => seed = Some(parse_u64(value)?),
                "lanes" => lanes = Some(parse_usize(value)?),
                _ => return Err(format!("unknown config key: {key:?}")),
            }
        }
        let (Some(limit), Some(seed), Some(lanes)) = (limit, seed, lanes) else {
            return Err(format!("incomplete config line: {config:?}"));
        };
        let mut blocks = BTreeMap::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let mut fields = line.split_whitespace();
            if fields.next() != Some("block") {
                return Err(format!("bad block line: {line:?}"));
            }
            let name = fields.next().ok_or("block line without a name")?;
            let mut p = BlockProgress::default();
            for field in fields {
                if field == "done" {
                    p.complete = true;
                    continue;
                }
                let (key, value) = field
                    .split_once('=')
                    .ok_or_else(|| format!("bad block field: {field:?}"))?;
                match key {
                    "chunks" => p.chunks_done = parse_usize(value)?,
                    "generated" => p.generated = parse_usize(value)?,
                    "observable" => p.observable = parse_usize(value)?,
                    "killed" => p.killed = parse_usize(value)?,
                    _ => return Err(format!("unknown block key: {key:?}")),
                }
            }
            if blocks.insert(name.to_string(), p).is_some() {
                return Err(format!("duplicate block line for {name:?}"));
            }
        }
        Ok(MutationCheckpoint {
            limit,
            seed,
            lanes,
            blocks,
        })
    }

    /// Loads a checkpoint from `path`. `Ok(None)` when the file does not
    /// exist (a fresh run); malformed contents are an
    /// [`io::ErrorKind::InvalidData`] error, never a silent restart.
    pub fn load(path: &Path) -> io::Result<Option<MutationCheckpoint>> {
        let text = match fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        MutationCheckpoint::parse(&text)
            .map(Some)
            .map_err(|msg| io::Error::new(io::ErrorKind::InvalidData, msg))
    }

    /// Atomically persists the checkpoint: the rendered text is written
    /// to a `.tmp` sibling and renamed over `path`, so a crash mid-write
    /// leaves either the previous checkpoint or the new one — never a
    /// torn file.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        fs::write(&tmp, self.render())?;
        fs::rename(&tmp, path)
    }
}

fn parse_usize(value: &str) -> Result<usize, String> {
    value
        .parse::<usize>()
        .map_err(|_| format!("bad integer: {value:?}"))
}

fn parse_u64(value: &str) -> Result<u64, String> {
    if let Some(hex) = value.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).map_err(|_| format!("bad hex integer: {value:?}"))
    } else {
        value
            .parse::<u64>()
            .map_err(|_| format!("bad integer: {value:?}"))
    }
}

/// Result of a checkpointed sweep: either every block finished, or the
/// chunk budget ran out with the checkpoint recording where to pick up.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepOutcome {
    /// Every block completed; the per-block reports are in library
    /// (mnemonic) order and bit-identical to an uninterrupted
    /// [`library_mutation_coverage`] run at the same knobs.
    Complete(Vec<BlockCoverage>),
    /// The chunk budget ran out first. `chunks_run` chunks were evaluated
    /// this invocation and the checkpoint (in memory and, when a path was
    /// given, on disk) records the frontier.
    Interrupted {
        /// Chunks evaluated before the budget ran out.
        chunks_run: usize,
    },
}

/// [`library_mutation_coverage`] with chunk-grained checkpointing: blocks
/// already marked complete in `checkpoint` are skipped, a partially
/// finished block resumes at its first unevaluated chunk, and the
/// checkpoint is re-persisted to `path` (atomically) after **every**
/// chunk, so an interruption at any point loses at most one chunk of
/// work. `chunk_budget` bounds how many chunks this invocation may
/// evaluate (`None` = unbounded) — the deterministic stand-in for a
/// mid-run SIGKILL in tests and the `--max-chunks` flag of the `campaign`
/// binary.
///
/// Unlike the plain sweep this walks blocks sequentially (checkpoint
/// writes serialize the block loop); each chunk is evaluated exactly as
/// in the plain sweep.
///
/// # Errors
///
/// Only checkpoint persistence can fail; verdict evaluation itself never
/// returns an error.
///
/// # Panics
///
/// Panics if `checkpoint` does not [`match`](MutationCheckpoint::matches)
/// `cfg` — callers decide whether a mismatch is a usage error (the
/// `campaign` binary refuses with a runtime error) before getting here.
pub fn library_mutation_coverage_checkpointed(
    lib: &HwLibrary,
    cfg: &CampaignConfig,
    checkpoint: &mut MutationCheckpoint,
    path: Option<&Path>,
    chunk_budget: Option<usize>,
) -> io::Result<SweepOutcome> {
    assert!(
        checkpoint.matches(cfg),
        "checkpoint knobs (limit={} seed={:#x} lanes={}) do not match the campaign config",
        checkpoint.limit,
        checkpoint.seed,
        checkpoint.lanes
    );
    let mut chunks_run = 0usize;
    for block in lib.iter() {
        let key = block.mnemonic.to_string();
        let mut progress = checkpoint.blocks.get(&key).copied().unwrap_or_default();
        if progress.complete {
            continue;
        }
        let runner = ChunkRunner::new(block, cfg.limit, cfg.seed, cfg.lanes);
        progress.generated = runner.sites.len();
        let total = runner.chunk_count();
        loop {
            if progress.chunks_done >= total {
                progress.complete = true;
                checkpoint.blocks.insert(key.clone(), progress);
                if let Some(path) = path {
                    checkpoint.save(path)?;
                }
                break;
            }
            if chunk_budget.is_some_and(|budget| chunks_run >= budget) {
                checkpoint.blocks.insert(key.clone(), progress);
                if let Some(path) = path {
                    checkpoint.save(path)?;
                }
                return Ok(SweepOutcome::Interrupted { chunks_run });
            }
            let (o, k) = runner.run_chunk(progress.chunks_done);
            progress.chunks_done += 1;
            progress.observable += o;
            progress.killed += k;
            chunks_run += 1;
            checkpoint.blocks.insert(key.clone(), progress);
            if let Some(path) = path {
                checkpoint.save(path)?;
            }
        }
    }
    let results = lib
        .iter()
        .map(|block| {
            let p = checkpoint.blocks[&block.mnemonic.to_string()];
            BlockCoverage {
                mnemonic: block.mnemonic,
                report: CoverageReport {
                    generated: p.generated,
                    observable: p.observable,
                    killed: p.killed,
                },
            }
        })
        .collect();
    Ok(SweepOutcome::Complete(results))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::build_block;
    use crate::mutate::{is_observable, mutants_of, mutation_coverage, mutation_sites};
    use crate::verify::read_outputs_lane;
    use netlist::{CompiledSim, Sim};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn block(m: Mnemonic) -> InstrBlock {
        InstrBlock {
            mnemonic: m,
            netlist: build_block(m),
        }
    }

    #[test]
    fn lane_coverage_matches_scalar_for_representative_blocks() {
        // The last block is the `sub` netlist passed off as `add`: its
        // golden words miss the semantics, so out-of-cone bits count too.
        let wrong = InstrBlock {
            mnemonic: Mnemonic::Add,
            netlist: build_block(Mnemonic::Sub),
        };
        let blocks = [Mnemonic::Add, Mnemonic::Beq, Mnemonic::Sb, Mnemonic::Sra].map(block);
        for b in blocks.iter().chain([&wrong]) {
            let m = b.mnemonic;
            let scalar = mutation_coverage(b, 25, 23);
            for lanes in [4, 64, 96] {
                let batched = lane_mutation_coverage(b, 25, 23, lanes);
                assert_eq!(batched, scalar, "{m} at {lanes} lanes");
            }
        }
    }

    #[test]
    fn chunking_never_changes_the_report() {
        // 3 lanes -> 2 mutants per chunk: the 20-mutant campaign spans 10
        // chunks and must still agree with the widest case.
        let b = block(Mnemonic::Xor);
        let narrow = lane_mutation_coverage(&b, 20, 7, 3);
        let wide = lane_mutation_coverage(&b, 20, 7, MAX_TOTAL_LANES);
        assert_eq!(narrow, wide);
        assert_eq!(narrow, mutation_coverage(&b, 20, 7));
    }

    #[test]
    fn instrumented_netlist_with_idle_selects_matches_original() {
        let b = block(Mnemonic::And);
        let mutants = mutants_of(&b, 6, 3);
        let refs: Vec<&Mutant> = mutants.iter().collect();
        let instrumented = instrument(&b.netlist, &refs);
        let mut sim = CompiledSim::with_lanes_arc(std::sync::Arc::new(instrumented), 2);
        for v in arch_test_vectors(b.mnemonic).iter().take(40) {
            for (port, _) in ports::INPUTS {
                sim.set_bus(port, input_field(port)(v));
            }
            sim.eval();
            let hw = crate::verify::run_hw_block(&b, v);
            assert_eq!(read_outputs_lane(&sim, 0), hw);
            assert_eq!(read_outputs_lane(&sim, 1), hw);
        }
    }

    /// A random combinational netlist over two 6-bit inputs with three
    /// 8-bit output ports, holding every gate kind: the `Builder` lowers
    /// NAND/NOR/XNOR to a NOT of AND/OR/XOR, so some of those are swapped
    /// in afterwards.
    fn random_netlist(rng: &mut StdRng) -> Netlist {
        let mut b = Builder::new();
        let mut nets = b.input_bus("a", 6);
        nets.extend(b.input_bus("c", 6));
        for _ in 0..60 {
            let mut pick = || nets[rng.gen_range(0..nets.len())];
            let (x, y, z) = (pick(), pick(), pick());
            let net = match rng.gen_range(0..5) {
                0 => b.not(x),
                1 => b.and(x, y),
                2 => b.or(x, y),
                3 => b.xor(x, y),
                _ => b.mux(x, y, z),
            };
            nets.push(net);
        }
        for name in ["x", "y", "z"] {
            let outs: Vec<NetId> = (0..8)
                .map(|_| nets[rng.gen_range(nets.len() / 2..nets.len())])
                .collect();
            b.output_bus(name, &outs);
        }
        let mut nl = b.finish();
        for _ in 0..12 {
            let id = rng.gen_range(0..nl.len()) as NetId;
            let swapped = match nl.gates()[id as usize] {
                Gate::And(x, y) => Gate::Nand(x, y),
                Gate::Or(x, y) => Gate::Nor(x, y),
                Gate::Xor(x, y) => Gate::Xnor(x, y),
                _ => continue,
            };
            nl = nl.with_gate_replaced(id, swapped);
        }
        nl
    }

    /// Reads every output bit of `nl` on 64 vectors through the scalar
    /// interpreter, lane `l` driving input bit `i` from bit `l` of
    /// `inputs[i]`: `out[lane][port][bit]`.
    fn scalar_outputs(nl: &Netlist, inputs: &[u64]) -> Vec<Vec<Vec<bool>>> {
        (0..LANES_PER_WORD)
            .map(|lane| {
                let mut sim = Sim::new(nl);
                let mut i = 0;
                for port in nl.inputs() {
                    let mut value = 0u64;
                    for j in 0..port.nets.len() {
                        value |= ((inputs[i] >> lane) & 1) << j;
                        i += 1;
                    }
                    sim.set_bus_u64(&port.name, value);
                }
                sim.eval();
                nl.outputs()
                    .iter()
                    .map(|p| {
                        let v = sim.get_bus_u64(&p.name);
                        (0..p.nets.len()).map(|j| (v >> j) & 1 == 1).collect()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn cone_evaluation_matches_a_full_settle_of_the_faulty_netlist() {
        let mut rng = StdRng::seed_from_u64(0xc0de);
        let mut tried = [0usize; 4];
        for _ in 0..24 {
            let nl = random_netlist(&mut rng);
            let sim = ConeSim::new(&nl);
            let inputs: Vec<u64> = (0..12).map(|_| rng.gen()).collect();
            let golden = sim.settle(&inputs, 1);
            let words = |values: &[u64]| -> Vec<Vec<Vec<bool>>> {
                (0..LANES_PER_WORD)
                    .map(|lane| {
                        nl.outputs()
                            .iter()
                            .map(|p| {
                                p.nets
                                    .iter()
                                    .map(|&n| (values[n as usize] >> lane) & 1 == 1)
                                    .collect()
                            })
                            .collect()
                    })
                    .collect()
            };
            assert_eq!(words(&golden), scalar_outputs(&nl, &inputs));
            let mut seen = vec![false; nl.len()];
            for (kind, mutation) in [
                Mutation::FlipKind,
                Mutation::StuckAtZero,
                Mutation::StuckAtOne,
                Mutation::SwapMuxInputs,
            ]
            .into_iter()
            .enumerate()
            {
                let sites: Vec<NetId> = (0..nl.len() as NetId)
                    .filter(|&id| {
                        let gate = nl.gates()[id as usize];
                        !matches!(gate, Gate::Const(_) | Gate::Input(_))
                            && mutation.apply(gate).is_some()
                    })
                    .collect();
                for _ in 0..3.min(sites.len()) {
                    let net = sites[rng.gen_range(0..sites.len())];
                    let faulty = mutation.apply(nl.gates()[net as usize]).unwrap();
                    let cone = sim.cone(net, &mut seen);
                    assert!(seen.iter().all(|&s| !s), "cone left scratch dirty");
                    let mut values = golden.clone();
                    sim.eval_cone(faulty, &cone, &mut values);
                    let expected = scalar_outputs(&nl.with_gate_replaced(net, faulty), &inputs);
                    assert_eq!(words(&values), expected, "{mutation:?} at net {net}");
                    tried[kind] += 1;
                }
            }
        }
        assert!(
            tried.iter().all(|&t| t > 0),
            "a mutation kind went untried: {tried:?}"
        );
    }

    #[test]
    fn a_mutant_reaching_only_sel_is_not_observable() {
        // Stuck-at-0 on the net that drives `sel` itself: the decode AND
        // chain feeds no compared port in `add`, so the fault changes
        // `sel` on every testbench vector and nothing that either path
        // compares.
        let b = block(Mnemonic::Add);
        let sel = b.netlist.output(ports::SEL).expect("sel port").nets[0];
        let site = (sel, Mutation::StuckAtZero);
        let runner = ChunkRunner::new(&b, 0, 0, 64);
        let mut seen = vec![false; b.netlist.len()];
        let cone = runner.sim.cone(sel, &mut seen);
        assert!(
            cone.iter().all(|&id| runner.drives.row(id).is_empty()),
            "sel's driver reaches a compared port"
        );
        let (mut probe_work, mut vector_work) =
            (runner.probes.values.clone(), runner.vectors.values.clone());
        assert_eq!(
            runner.verdict(site, &mut seen, &mut probe_work, &mut vector_work),
            (false, false)
        );

        let faulty = b.netlist.with_gate_replaced(sel, Gate::Const(false));
        let mutant = Mutant {
            net: sel,
            mutation: Mutation::StuckAtZero,
            netlist: faulty.clone(),
        };
        let probes = observability_probes(&arch_test_vectors(b.mnemonic));
        assert!(!is_observable(&b, &mutant, &probes));
        // The fault is real: a comparison that read `sel` would see it.
        let faulty = InstrBlock {
            mnemonic: b.mnemonic,
            netlist: faulty,
        };
        let sel_of = |blk: &InstrBlock| {
            let mut sim = Sim::new(&blk.netlist);
            for (port, _) in ports::INPUTS {
                sim.set_bus(port, input_field(port)(&probes[0]));
            }
            sim.eval();
            sim.get_bus(ports::SEL)
        };
        assert_ne!(sel_of(&b), sel_of(&faulty));
    }

    #[test]
    fn a_mutant_repairing_one_of_two_faults_is_still_killed() {
        // `add` with two flipped gates whose cones are disjoint: flipping
        // the first back repairs every output in its cone, so only the
        // out-of-cone golden words — still wrong through the second flip
        // — can kill the mutant, as they do on the scalar path.
        let add = block(Mnemonic::Add);
        let runner = ChunkRunner::new(&add, 0, 0, 64);
        let mut seen = vec![false; add.netlist.len()];
        let flips: Vec<(NetId, Vec<NetId>)> = mutation_sites(&add, usize::MAX, 0)
            .into_iter()
            .filter(|&(_, m)| m == Mutation::FlipKind)
            .map(|(net, _)| (net, runner.sim.cone(net, &mut seen)))
            .filter(|(_, cone)| cone.iter().any(|&id| !runner.drives.row(id).is_empty()))
            .collect();
        let (a, b) = flips
            .iter()
            .enumerate()
            .find_map(|(i, (a, cone_a))| {
                let disjoint = |(_, cone_b): &&(NetId, Vec<NetId>)| {
                    cone_b.iter().all(|id| cone_a.binary_search(id).is_err())
                };
                flips[i + 1..].iter().find(disjoint).map(|&(b, _)| (*a, b))
            })
            .expect("two flips with disjoint cones");
        let flip = |nl: &Netlist, net: NetId| {
            let gate = Mutation::FlipKind.apply(nl.gates()[net as usize]).unwrap();
            nl.with_gate_replaced(net, gate)
        };
        let wrong = InstrBlock {
            mnemonic: Mnemonic::Add,
            netlist: flip(&flip(&add.netlist, a), b),
        };
        let runner = ChunkRunner::new(&wrong, 0, 0, 64);
        let (mut probe_work, mut vector_work) =
            (runner.probes.values.clone(), runner.vectors.values.clone());
        let verdict = runner.verdict(
            (a, Mutation::FlipKind),
            &mut seen,
            &mut probe_work,
            &mut vector_work,
        );
        assert_eq!(verdict, (true, true));

        let mutant = &mutants_of(&wrong, usize::MAX, 0)
            .into_iter()
            .find(|m| (m.net, m.mutation) == (a, Mutation::FlipKind))
            .expect("the repairing flip is a site");
        let vectors = arch_test_vectors(Mnemonic::Add);
        assert!(is_observable(
            &wrong,
            mutant,
            &observability_probes(&vectors)
        ));
        let repaired = InstrBlock {
            mnemonic: Mnemonic::Add,
            netlist: mutant.netlist.clone(),
        };
        assert!(crate::verify::functional_verify(&repaired).is_err());
    }

    #[test]
    fn library_sweep_is_thread_count_independent() {
        let lib = HwLibrary::build_full();
        let cfg = CampaignConfig {
            limit: 3,
            seed: 11,
            lanes: 64,
            threads: 1,
        };
        let seq = library_mutation_coverage(&lib, &cfg);
        assert_eq!(seq.len(), lib.len());
        let par = library_mutation_coverage(&lib, &CampaignConfig { threads: 4, ..cfg });
        assert_eq!(seq, par);
    }

    #[test]
    fn checkpoint_roundtrips_through_text() {
        let cfg = CampaignConfig {
            limit: 24,
            seed: 0x5eed_cafe,
            lanes: 256,
            threads: 1,
        };
        let mut ckpt = MutationCheckpoint::new(&cfg);
        ckpt.blocks.insert(
            "add".into(),
            BlockProgress {
                chunks_done: 1,
                generated: 24,
                observable: 20,
                killed: 20,
                complete: true,
            },
        );
        ckpt.blocks.insert(
            "and".into(),
            BlockProgress {
                chunks_done: 1,
                generated: 24,
                observable: 19,
                killed: 19,
                complete: false,
            },
        );
        let parsed = MutationCheckpoint::parse(&ckpt.render()).expect("roundtrip");
        assert_eq!(parsed, ckpt);
        assert!(parsed.matches(&cfg));
        assert!(!parsed.matches(&CampaignConfig { seed: 1, ..cfg }));
        assert!(!parsed.matches(&CampaignConfig { lanes: 64, ..cfg }));
        // `threads` never affects verdicts, so it never invalidates.
        assert!(parsed.matches(&CampaignConfig { threads: 8, ..cfg }));
    }

    #[test]
    fn checkpoint_parse_rejects_corruption() {
        let good = MutationCheckpoint::new(&CampaignConfig::default()).render();
        assert!(MutationCheckpoint::parse("").is_err(), "empty file");
        assert!(
            MutationCheckpoint::parse(&good.replace("v1", "v9")).is_err(),
            "unknown version"
        );
        assert!(
            MutationCheckpoint::parse(&good.replace("limit=", "limit=x")).is_err(),
            "bad integer"
        );
        assert!(
            MutationCheckpoint::parse(&good.replace("lanes=", "sharks=")).is_err(),
            "unknown config key"
        );
        let dup = format!("{good}block add chunks=1\nblock add chunks=2\n");
        assert!(MutationCheckpoint::parse(&dup).is_err(), "duplicate block");
        assert!(
            MutationCheckpoint::parse(&format!("{good}block add chunks=nope\n")).is_err(),
            "bad block field"
        );
    }

    #[test]
    fn interrupted_sweep_resumes_bit_identically() {
        let lib = HwLibrary::build_full();
        let cfg = CampaignConfig {
            limit: 3,
            seed: 11,
            lanes: 64,
            threads: 1,
        };
        let baseline = library_mutation_coverage(&lib, &cfg);
        let path = std::env::temp_dir().join(format!(
            "gate-sim-mutation-resume-{}.checkpoint",
            std::process::id()
        ));
        let _ = fs::remove_file(&path);

        // Drive the sweep a few chunks at a time, dropping the in-memory
        // checkpoint after every interruption: each round reloads from
        // disk exactly as a restarted process would.
        let mut ckpt = MutationCheckpoint::new(&cfg);
        let mut interruptions = 0;
        let final_reports = loop {
            match library_mutation_coverage_checkpointed(
                &lib,
                &cfg,
                &mut ckpt,
                Some(&path),
                Some(7),
            )
            .expect("checkpoint persistence")
            {
                SweepOutcome::Complete(reports) => break reports,
                SweepOutcome::Interrupted { chunks_run } => {
                    assert!(chunks_run <= 7);
                    interruptions += 1;
                    assert!(interruptions < 1_000, "sweep never completes");
                    ckpt = MutationCheckpoint::load(&path)
                        .expect("readable checkpoint")
                        .expect("checkpoint was saved");
                    assert!(ckpt.matches(&cfg));
                }
            }
        };
        assert!(interruptions >= 1, "budget never interrupted the sweep");
        assert_eq!(
            final_reports, baseline,
            "resumed sweep must be bit-identical to the uninterrupted one"
        );
        // A completed checkpoint resumes to the same reports without
        // re-running any chunk.
        let mut done = MutationCheckpoint::load(&path).unwrap().unwrap();
        match library_mutation_coverage_checkpointed(&lib, &cfg, &mut done, None, Some(0)).unwrap()
        {
            SweepOutcome::Complete(reports) => assert_eq!(reports, baseline),
            other => panic!("completed checkpoint re-ran work: {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }
}
