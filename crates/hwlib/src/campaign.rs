//! Lane-parallel mutation-coverage campaigns (the MCY step at scale).
//!
//! [`mutate::mutation_coverage`](crate::mutate::mutation_coverage) runs one
//! mutant at a time through the interpreted [`netlist::Sim`] — fine for a
//! handful of blocks, hopeless for "millions of scenarios". This module
//! drives the same MCY loop through the batched backends: up to
//! `lanes - 1` mutants of a block settle *simultaneously*, one mutant per
//! stimulus lane of a single [`CompiledSim`], with the last lane reserved
//! as the unmutated reference.
//!
//! # Lane ↔ mutant mapping
//!
//! A chunk of mutants is compiled into one *instrumented* netlist: every
//! mutated net's driver is wrapped in an injection mux
//!
//! ```text
//! value(net) = mux(__mut{i}, original_gate, mutated_gate)
//! ```
//!
//! where `__mut{i}` is a fresh 1-bit input asserted **only on lane `i`**.
//! Lane `i` therefore computes exactly the function of
//! [`Netlist::with_gate_replaced`] applied for mutant `i` alone, while the
//! reference lane (all selects low) computes the original block — so one
//! broadcast settle evaluates the whole chunk against one stimulus.
//! Mutants of the *same* net chain their muxes in mutant order; at most
//! one select is high per lane, so the chain resolves to the single
//! requested fault.
//!
//! The verdicts — which mutants are observable and which of those the
//! architecture testbench kills — are **bit-identical** to the scalar
//! [`mutate::mutation_coverage`](crate::mutate::mutation_coverage) loop
//! for every lane width and thread count (`tests/campaigns.rs` pins this
//! across the whole block library), because both paths compare the same
//! output ports on the same vector sets; only the evaluation schedule
//! changes.

use crate::mutate::{mutants_of, observability_probes, CoverageReport, Mutant, Mutation};
use crate::verify::{arch_test_vectors, read_outputs_lane};
use crate::{HwLibrary, InstrBlock};
use netlist::compiled::{CompiledSim, LANES_PER_WORD, MAX_TOTAL_LANES};
use netlist::pool;
use netlist::{Builder, Gate, NetId, Netlist};
use riscv_isa::semantics::{block_semantics, BlockInputs};
use riscv_isa::Mnemonic;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Tuning knobs for a mutation-coverage campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Mutants sampled per block (the `limit` of
    /// [`mutants_of`]).
    pub limit: usize,
    /// Mutant-sampling seed, shared by every block (each block's mutant
    /// set still differs because its netlist differs).
    pub seed: u64,
    /// Stimulus lanes per settle: `lanes - 1` mutants evaluate per chunk
    /// and the last lane carries the unmutated reference. Clamped to
    /// [`MAX_TOTAL_LANES`].
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
/// fresh 1-bit `__mut{i}` input per mutant.
///
/// The rebuild walks the gate arena in topological (id) order through a
/// fresh [`Builder`], so hash-consing and constant folding re-apply; that
/// cannot change any lane's I/O function — lane `i` with only `__mut{i}`
/// high computes exactly the mutant-`i` netlist, and a lane with all
/// selects low computes the original block.
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

    for (id, gate) in netlist.gates().iter().enumerate() {
        let m = |n: NetId| map[n as usize];
        let mut new = match *gate {
            Gate::Input(_) => continue, // mapped with its port above
            Gate::Const(v) => b.constant(v),
            Gate::Not(x) => b.not(m(x)),
            Gate::And(x, y) => b.and(m(x), m(y)),
            Gate::Or(x, y) => b.or(m(x), m(y)),
            Gate::Xor(x, y) => b.xor(m(x), m(y)),
            Gate::Nand(x, y) => b.nand(m(x), m(y)),
            Gate::Nor(x, y) => b.nor(m(x), m(y)),
            Gate::Xnor(x, y) => b.xnor(m(x), m(y)),
            Gate::Mux { sel, a, b: bb } => b.mux(m(sel), m(a), m(bb)),
            Gate::Dff { .. } => panic!("instrument: instruction blocks are combinational"),
        };
        for (i, mutant) in mutants.iter().enumerate() {
            if mutant.net as usize != id {
                continue;
            }
            let faulty = mutated_value(&mut b, gate, mutant.mutation, &map);
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

/// Emits the faulty replacement value for one mutation of `gate`, with
/// fan-ins remapped into the instrumented netlist.
fn mutated_value(b: &mut Builder, gate: &Gate, mutation: Mutation, map: &[NetId]) -> NetId {
    let m = |n: NetId| map[n as usize];
    match mutation {
        Mutation::StuckAtZero => b.zero(),
        Mutation::StuckAtOne => b.one(),
        Mutation::FlipKind => match *gate {
            Gate::And(x, y) => b.or(m(x), m(y)),
            Gate::Or(x, y) => b.and(m(x), m(y)),
            Gate::Xor(x, y) => b.xnor(m(x), m(y)),
            Gate::Xnor(x, y) => b.xor(m(x), m(y)),
            Gate::Nand(x, y) => b.nor(m(x), m(y)),
            Gate::Nor(x, y) => b.nand(m(x), m(y)),
            ref g => panic!("FlipKind has no flip for {g:?}"),
        },
        Mutation::SwapMuxInputs => match *gate {
            Gate::Mux { sel, a, b: bb } => b.mux(m(sel), m(bb), m(a)),
            ref g => panic!("SwapMuxInputs on non-mux {g:?}"),
        },
    }
}

/// Drives every input port of the block interface identically on all
/// lanes (the injection selects are left untouched).
fn broadcast(sim: &mut CompiledSim, inputs: &BlockInputs) {
    sim.set_bus(crate::ports::PC, inputs.pc);
    sim.set_bus(crate::ports::INSN, inputs.insn);
    sim.set_bus(crate::ports::RS1_DATA, inputs.rs1_data);
    sim.set_bus(crate::ports::RS2_DATA, inputs.rs2_data);
    sim.set_bus(crate::ports::DMEM_RDATA, inputs.dmem_rdata);
}

/// One block's prepared campaign: the mutant population plus the shared
/// probe and testbench vector sets, ready to evaluate chunk by chunk.
/// This is the unit both the one-shot sweep and the checkpoint-resume
/// loop iterate over — a chunk's verdicts depend only on the chunk's own
/// instrumented simulator, which is what makes resumption bit-identical.
struct ChunkRunner<'b> {
    block: &'b InstrBlock,
    vectors: Vec<BlockInputs>,
    probes: Vec<BlockInputs>,
    mutants: Vec<Mutant>,
    lanes: usize,
}

impl<'b> ChunkRunner<'b> {
    fn new(block: &'b InstrBlock, limit: usize, seed: u64, lanes: usize) -> ChunkRunner<'b> {
        let lanes = lanes.min(MAX_TOTAL_LANES);
        assert!(lanes >= 2, "lane_mutation_coverage needs >= 2 lanes");
        let vectors = arch_test_vectors(block.mnemonic);
        let probes = observability_probes(&vectors);
        let mutants = mutants_of(block, limit, seed);
        ChunkRunner {
            block,
            vectors,
            probes,
            mutants,
            lanes,
        }
    }

    /// Chunks this block's campaign spans (`lanes - 1` mutants each).
    fn chunk_count(&self) -> usize {
        self.mutants.chunks(self.lanes - 1).count()
    }

    /// Evaluates chunk `index`, returning its `(observable, killed)`
    /// counts.
    fn run_chunk(&self, index: usize) -> (usize, usize) {
        let chunk = self
            .mutants
            .chunks(self.lanes - 1)
            .nth(index)
            .expect("chunk index in range");
        let refs: Vec<&Mutant> = chunk.iter().collect();
        let instrumented = instrument(&self.block.netlist, &refs);
        let width = refs.len() + 1; // + reference lane
        let reference = refs.len();
        let mut sim = CompiledSim::with_lanes_arc(std::sync::Arc::new(instrumented), width);
        // Assert each mutant's select on its own lane only. The selects
        // never change again, so the per-chunk sweeps below are pure
        // stimulus broadcasts.
        for (i, _) in refs.iter().enumerate() {
            let pattern: Vec<u64> = (0..width).map(|l| u64::from(l == i)).collect();
            sim.set_bus_lanes(&format!("__mut{i}"), &pattern);
        }

        // MCY observability filter: a mutant is observable iff some probe
        // vector distinguishes its lane from the reference lane.
        let mut is_observable = vec![false; refs.len()];
        for probe in &self.probes {
            broadcast(&mut sim, probe);
            sim.eval();
            let golden = read_outputs_lane(&sim, reference);
            for (i, seen) in is_observable.iter_mut().enumerate() {
                if !*seen && read_outputs_lane(&sim, i) != golden {
                    *seen = true;
                }
            }
            if is_observable.iter().all(|&o| o) {
                break;
            }
        }

        // Kill check: an observable mutant is killed iff some testbench
        // vector makes its lane differ from the golden semantics.
        let mut is_killed = vec![false; refs.len()];
        let mut open = is_observable.iter().filter(|&&o| o).count();
        'vectors: for v in &self.vectors {
            if open == 0 {
                break;
            }
            let instr = riscv_isa::Instruction::decode(v.insn).expect("vector decodes");
            let golden = block_semantics(instr, v);
            broadcast(&mut sim, v);
            sim.eval();
            for i in 0..refs.len() {
                if !is_observable[i] || is_killed[i] {
                    continue;
                }
                if read_outputs_lane(&sim, i) != golden {
                    is_killed[i] = true;
                    open -= 1;
                    if open == 0 {
                        break 'vectors;
                    }
                }
            }
        }

        (
            is_observable.iter().filter(|&&o| o).count(),
            is_killed.iter().filter(|&&k| k).count(),
        )
    }
}

/// Lane-parallel [`mutate::mutation_coverage`](crate::mutate::mutation_coverage):
/// same mutants, same probes, same testbench vectors, same verdicts — but
/// up to `lanes - 1` mutants settle per evaluation instead of one mutant
/// per interpreted sweep.
///
/// # Panics
///
/// Panics if `lanes < 2` after clamping (one mutant lane plus the
/// reference lane is the minimum useful width).
pub fn lane_mutation_coverage(
    block: &InstrBlock,
    limit: usize,
    seed: u64,
    lanes: usize,
) -> CoverageReport {
    let runner = ChunkRunner::new(block, limit, seed, lanes);
    let mut observable = 0;
    let mut killed = 0;
    for index in 0..runner.chunk_count() {
        let (o, k) = runner.run_chunk(index);
        observable += o;
        killed += k;
    }
    CoverageReport {
        generated: runner.mutants.len(),
        observable,
        killed,
    }
}

/// Runs the lane-parallel MCY loop over every block in the library, with
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
/// instrumented simulator (see `ChunkRunner`), so replaying the
/// remaining chunks after a restart yields the same totals as an
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
/// writes serialize the block loop); the lane parallelism *within* each
/// chunk is unchanged, which is where the actual speedup lives.
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
        progress.generated = runner.mutants.len();
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
    use crate::mutate::mutation_coverage;

    fn block(m: Mnemonic) -> InstrBlock {
        InstrBlock {
            mnemonic: m,
            netlist: build_block(m),
        }
    }

    #[test]
    fn lane_coverage_matches_scalar_for_representative_blocks() {
        for m in [Mnemonic::Add, Mnemonic::Beq, Mnemonic::Sb, Mnemonic::Sra] {
            let b = block(m);
            let scalar = mutation_coverage(&b, 25, 23);
            for lanes in [4, 64, 96] {
                let batched = lane_mutation_coverage(&b, 25, 23, lanes);
                assert_eq!(batched, scalar, "{m} at {lanes} lanes");
            }
        }
    }

    #[test]
    fn chunking_never_changes_the_report() {
        // 3 lanes -> 2 mutants per chunk: the 20-mutant campaign spans 10
        // instrumented netlists and must still agree with the widest case.
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
            broadcast(&mut sim, v);
            sim.eval();
            let hw = crate::verify::run_hw_block(&b, v);
            assert_eq!(read_outputs_lane(&sim, 0), hw);
            assert_eq!(read_outputs_lane(&sim, 1), hw);
        }
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
