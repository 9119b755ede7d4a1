//! Compiled, bit-parallel simulation backend over K-word lane blocks.
//!
//! [`CompiledSim`] executes the flat op stream produced by
//! [`crate::level::Program`]: each net's value is a *lane block* of
//! `lane_words` contiguous `u64` words (word-major SoA, lane `l` lives in
//! word `l / 64`, bit `l % 64`), so AND/OR/XOR/NOT/MUX settle up to
//! [`MAX_TOTAL_LANES`] independent input vectors per eval as straight-line
//! loops over K contiguous words — loops the compiler autovectorizes. The
//! common K = 1 and K = 4 block widths dispatch to monomorphized fast
//! paths; other widths run the same kernel with a runtime word count.
//! Toggle counting stays exact — `popcount((old ^ new) & mask[w])` summed
//! over the words of the block accumulates per-net switching over the
//! active lanes, so [`SimBackend::average_activity`] feeds the `flexic`
//! power model the same α it would get from `lanes` interpreted runs.
//!
//! With `lanes == 1` the backend is a drop-in replacement for the
//! interpreted [`crate::sim::Sim`] (same values, same toggle counts, same
//! cycle semantics) that trades a one-time compile for a much tighter,
//! branch-predictable eval loop.
//!
//! # Event-driven evaluation
//!
//! By default ([`EvalMode::Auto`]) `eval` is *activity-gated*: the
//! simulator tracks which input/FF words were dirtied since the last
//! settle and which nets changed a destination word during the current
//! settle (the `diff != 0` toggle test computes this for free), and skips
//! work at two granularities — a whole level when none of its dirt
//! sources (fan-in levels plus the input-fed/FF-fed sources, recorded at
//! compile time in [`Program::level_deps`]) changed, and a single op when
//! none of its operand nets changed this settle. Skipping is bit-exact:
//! skipped work would recompute exactly the values it already holds (and
//! accumulate zero toggles), so results and per-net toggle counts are
//! identical to a full sweep in every mode. When the dirty fraction is
//! high the evaluator falls back to plain full sweeps for a while so
//! dense stimuli never pay the gating overhead; see `docs/simulation.md`
//! § "Event-driven evaluation".
//!
//! `Auto` is also tiered: a simulator of at most 64 lanes (one-word
//! lane blocks) that has run [`AUTO_NATIVE_AFTER_SETTLES`] settles moves
//! to full sweeps through natively emitted code ([`crate::jit`]), which
//! beat the gated interpreter at that width once the emission is repaid.
//! Results do not change.
//!
//! A settle always runs on the calling thread. Parallelism lives one
//! level up, across independent simulators: [`crate::ShardedSim::par_shards`]
//! spreads its lane blocks over threads with [`crate::pool::claim_map`].

use crate::level::{OpCode, Program};
use crate::sim::{port_bit, EvalStats, SimBackend};
use crate::{Gate, NetId, Netlist};
use std::sync::Arc;

/// Stimulus lanes per `u64` value word (bit `l % 64` of word `l / 64`).
pub const LANES_PER_WORD: usize = 64;

/// Maximum words per lane block (K in the `[u64; K]`-strided layout).
pub const MAX_LANE_WORDS: usize = 8;

/// Maximum stimulus lanes per evaluation:
/// `LANES_PER_WORD * MAX_LANE_WORDS`.
pub const MAX_TOTAL_LANES: usize = LANES_PER_WORD * MAX_LANE_WORDS;

/// The active-lane mask for one value word carrying `lanes` lanes
/// (`lanes == 64` means all bits — the shift that would overflow a plain
/// `(1 << lanes) - 1` at a block boundary).
///
/// # Panics
///
/// Panics if `lanes > 64`.
pub fn word_lane_mask(lanes: usize) -> u64 {
    assert!(
        lanes <= LANES_PER_WORD,
        "a value word holds at most 64 lanes"
    );
    if lanes == LANES_PER_WORD {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// Per-word active-lane masks for a `lanes`-lane block: full words are
/// all-ones, the final partial word (if any) masks to `lanes % 64` bits.
fn block_lane_masks(lanes: usize) -> Vec<u64> {
    let words = lanes.div_ceil(LANES_PER_WORD);
    (0..words)
        .map(|w| word_lane_mask((lanes - w * LANES_PER_WORD).min(LANES_PER_WORD)))
        .collect()
}

/// A port of a simulator's netlist resolved once by name
/// ([`CompiledSim::input_port`], [`CompiledSim::output_port`]), so a hot
/// loop skips the by-name scan. Valid for simulators over the netlist it
/// was resolved against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortId(usize);

/// How [`CompiledSim::eval`] sweeps the op stream. Every mode produces
/// bit-identical values and toggle counts; the mode only changes how much
/// work a settle performs, and on which engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EvalMode {
    /// Tiered. Settles start on the interpreter, event-driven with a
    /// dense-stimulus fallback: they skip unchanged levels, but when a
    /// settle executes nearly every level the next [`AUTO_DENSE_BACKOFF`]
    /// settles use plain full sweeps before probing the event-driven
    /// path again. A simulator whose lane block is one word (≤ 64 lanes)
    /// that has run
    /// [`AUTO_NATIVE_AFTER_SETTLES`] settles since entering `Auto` then
    /// moves for good to native full sweeps ([`crate::jit`]) — the width
    /// where they beat the interpreter, after enough settles to repay the
    /// emission. If codegen refuses (any [`crate::jit::JitError`],
    /// including `GATE_SIM_JIT=0`), it keeps interpreting. Either way the
    /// results are bit-identical; [`EvalStats::native_sweeps`] says which
    /// engine ran.
    #[default]
    Auto,
    /// Always sweep every op (the pre-event-driven behavior).
    FullSweep,
    /// Always run the level-skipping evaluator (no dense fallback).
    EventDriven,
    /// Full sweeps through natively emitted code ([`crate::jit`]) when
    /// codegen is available for this host, program, and lane width —
    /// otherwise interpreted full sweeps, bit-identically. Selected by
    /// default when `GATE_SIM_JIT=1`; `GATE_SIM_JIT=0` disables the
    /// native path even under an explicit `Jit` mode (see
    /// `docs/jit.md`).
    Jit,
}

/// Full-sweep settles an [`EvalMode::Auto`] simulator runs after a settle
/// that executed more than ⅞ of the scheduled ops anyway.
pub const AUTO_DENSE_BACKOFF: u32 = 32;

/// Settles a qualifying [`EvalMode::Auto`] simulator runs on the
/// interpreter before it moves to native code. Both the emission cost and
/// the per-settle saving scale with the op count, so emission repays
/// itself after a fixed number of settles (~100–150 on the RISSP cores)
/// whatever the netlist's size; a CPU run is thousands of settles, a
/// verification read or a service update a handful.
pub const AUTO_NATIVE_AFTER_SETTLES: u32 = 256;

/// Dirty fraction (executed ops / scheduled ops) above which
/// [`EvalMode::Auto`] falls back to full sweeps, as a numerator over 8.
const AUTO_DENSE_THRESHOLD_EIGHTHS: usize = 7;

/// Compiled bit-parallel simulator for one netlist.
///
/// The immutable structure (netlist + compiled program) is behind [`Arc`],
/// so cloning a `CompiledSim` — e.g. [`crate::sharded::ShardedSim`]
/// fanning out shards — shares it and only duplicates the per-lane
/// value/FF/toggle arrays.
#[derive(Debug, Clone)]
pub struct CompiledSim {
    netlist: Arc<Netlist>,
    prog: Arc<Program>,
    /// Per-net lane blocks (`lane_words` contiguous words per net: net `n`
    /// occupies `values[n * lane_words .. (n + 1) * lane_words]`).
    values: Vec<u64>,
    /// Per-DFF stored lane blocks (indexed by net id; non-DFF blocks
    /// unused), same `lane_words` stride as `values`.
    ff_state: Vec<u64>,
    /// Per-primary-input-bit lane blocks, same stride.
    input_values: Vec<u64>,
    /// Per-net toggle counts over active lanes (one counter per net — the
    /// per-word popcounts of a block sum into it).
    toggles: Vec<u64>,
    cycles: u64,
    lanes: usize,
    /// Words per lane block (K): `lanes.div_ceil(64)`.
    lane_words: usize,
    /// Per-word active-lane masks (`lane_words` entries; full words are
    /// all-ones, the final partial word masks its active low bits).
    lane_masks: Vec<u64>,
    /// False until the first eval settles arbitrary reset state; that first
    /// pass's pseudo-toggles are discarded so activity numbers start clean.
    primed: bool,
    mode: EvalMode,
    /// True when a `set_bus*` call changed an input word since the last
    /// settle — level 0's `Input` ops may publish new values.
    inputs_dirty: bool,
    /// True when `step`/`set_ff*` left a stored FF word different from the
    /// published one — level 0's `DffOut` ops may publish new values.
    ffs_dirty: bool,
    /// Scratch bitset (stride `prog.dep_stride`): dirt sources (levels +
    /// the input-fed/FF-fed bits) that changed a destination word during
    /// the current settle.
    changed_levels: Vec<u64>,
    /// Per-net change stamps: `changed_stamp[net] == settle_id` iff the
    /// net's word changed during the current settle. Stamps avoid an
    /// O(nets) clear per settle; a wrapped stale stamp can only cause a
    /// spurious (exact, value-preserving) re-execution.
    changed_stamp: Vec<u32>,
    /// Current settle's stamp (incremented by every `eval`).
    settle_id: u32,
    /// Remaining full-sweep settles before [`EvalMode::Auto`] re-probes
    /// the event-driven path.
    dense_backoff: u32,
    /// Native code for this program at this lane width, held while the
    /// mode is [`EvalMode::Jit`] or a promoted [`EvalMode::Auto`] and
    /// codegen succeeded; `None` is the interpreter state
    /// ([`CompiledSim::jit_active`]). Holding it keeps it mapped.
    jit: Option<Arc<crate::jit::JitProgram>>,
    /// Settles run since entering [`EvalMode::Auto`], saturating one past
    /// [`AUTO_NATIVE_AFTER_SETTLES`] once promotion has been tried.
    auto_settles: u32,
    /// Codegen options the `Jit` mode compiles under
    /// ([`CompiledSim::set_jit_options`]); defaults consult
    /// `GATE_SIM_JIT` and CPU feature detection.
    jit_options: crate::jit::JitOptions,
    stats: EvalStats,
}

/// Raw view of one simulator's per-net arrays, handed to the op-range
/// executors so their hot loops index without bounds checks.
///
/// # Safety contract
///
/// The pointers alias the simulator's own arrays and are used only while
/// the simulator is exclusively borrowed (`&mut self`). Each scheduled op
/// writes exactly one destination net (`values[dst]`, `toggles[dst]`,
/// `stamp[dst]`) and reads only nets of strictly earlier levels (ASAP
/// levelization), and [`Program::compile`] guarantees every index is in
/// bounds of arrays sized by [`Program::net_count`].
struct NetArrays {
    values: *mut u64,
    toggles: *mut u64,
    stamp: *mut u32,
}

/// Expands to a `match` on the runtime lane-block word count that calls
/// `$body::<K>($args...)` with the matching const generic. Every legal
/// width (1..=[`MAX_LANE_WORDS`]) gets its own monomorphization: the
/// const `K` makes the per-op `[u64; K]` scratch buffer register-sized
/// and fully unrolls the word loops — a runtime `k` parameter would keep
/// the buffer on the stack and the loops rolled, costing ~30% at K = 1.
macro_rules! dispatch_lane_words {
    ($k:expr, $body:ident($($args:expr),* $(,)?)) => {
        match $k {
            1 => $body::<1>($($args),*),
            2 => $body::<2>($($args),*),
            3 => $body::<3>($($args),*),
            4 => $body::<4>($($args),*),
            5 => $body::<5>($($args),*),
            6 => $body::<6>($($args),*),
            7 => $body::<7>($($args),*),
            8 => $body::<8>($($args),*),
            k => unreachable!("lane-block word count {k} outside 1..={}", MAX_LANE_WORDS),
        }
    };
}

/// Executes ops `range` of the stream unconditionally; returns true when
/// any destination word changed on an active lane. Dispatches to a body
/// monomorphized per lane-block word count (the `masks` slice length).
///
/// # Safety
///
/// `range` must lie within the op stream, the caller must uphold the
/// [`NetArrays`] contract, and all operand nets must already hold their
/// settled values for this settle.
unsafe fn exec_chunk_full(
    prog: &Program,
    arrays: &NetArrays,
    inputs: &[u64],
    ffs: &[u64],
    masks: &[u64],
    range: std::ops::Range<usize>,
) -> bool {
    dispatch_lane_words!(
        masks.len(),
        exec_chunk_full_impl(prog, arrays, inputs, ffs, masks, range)
    )
}

/// The width-monomorphized body of [`exec_chunk_full`]; `K == masks.len()`
/// is the lane-block word count.
///
/// The operand arrays are sliced to the range up front so the hot loop's
/// stream indexing is bounds-check free.
///
/// # Safety
///
/// See [`exec_chunk_full`].
// Indexed `0..K` word loops on purpose: the const trip count unrolls them.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
unsafe fn exec_chunk_full_impl<const K: usize>(
    prog: &Program,
    arrays: &NetArrays,
    inputs: &[u64],
    ffs: &[u64],
    masks: &[u64],
    range: std::ops::Range<usize>,
) -> bool {
    let n = range.len();
    let ops = &prog.opcodes[range.clone()][..n];
    let pa = &prog.a[range.clone()][..n];
    let pb = &prog.b[range.clone()][..n];
    let pc = &prog.c[range.clone()][..n];
    let pd = &prog.dst[range][..n];
    // A register-resident copy: the raw-pointer `values` stores could
    // alias the `masks` slice as far as LLVM knows (the noalias attribute
    // dies at inlining), which would force a reload per op.
    let masks: [u64; K] = masks[..K].try_into().unwrap();
    let values = arrays.values;
    let mut changed = false;
    for i in 0..n {
        let a = pa[i] as usize * K;
        let b = pb[i] as usize * K;
        let d = pd[i] as usize * K;
        let mut v = [0u64; K];
        match ops[i] {
            OpCode::Input => v.copy_from_slice(&inputs[a..a + K]),
            OpCode::Not => {
                for w in 0..K {
                    v[w] = !*values.add(a + w);
                }
            }
            OpCode::And => {
                for w in 0..K {
                    v[w] = *values.add(a + w) & *values.add(b + w);
                }
            }
            OpCode::Or => {
                for w in 0..K {
                    v[w] = *values.add(a + w) | *values.add(b + w);
                }
            }
            OpCode::Xor => {
                for w in 0..K {
                    v[w] = *values.add(a + w) ^ *values.add(b + w);
                }
            }
            OpCode::Nand => {
                for w in 0..K {
                    v[w] = !(*values.add(a + w) & *values.add(b + w));
                }
            }
            OpCode::Nor => {
                for w in 0..K {
                    v[w] = !(*values.add(a + w) | *values.add(b + w));
                }
            }
            OpCode::Xnor => {
                for w in 0..K {
                    v[w] = !(*values.add(a + w) ^ *values.add(b + w));
                }
            }
            OpCode::Mux => {
                let c = pc[i] as usize * K;
                for w in 0..K {
                    let sel = *values.add(c + w);
                    v[w] = (sel & *values.add(b + w)) | (!sel & *values.add(a + w));
                }
            }
            OpCode::DffOut => v.copy_from_slice(&ffs[d..d + K]),
        }
        let mut toggled = 0u64;
        let mut any = 0u64;
        for w in 0..K {
            let diff = (*values.add(d + w) ^ v[w]) & masks[w];
            toggled += diff.count_ones() as u64;
            any |= diff;
            *values.add(d + w) = v[w];
        }
        if any != 0 {
            *arrays.toggles.add(pd[i] as usize) += toggled;
            changed = true;
        }
    }
    changed
}

/// Executes a chunk of level 0 — exactly the Input/DffOut ops — stamping
/// changed nets and reporting which of the two external dirt sources
/// actually changed a published word: `(input-fed changed, FF-fed
/// changed)`.
///
/// # Safety
///
/// Same contract as [`exec_chunk_full`]; additionally `cur` must be the
/// current settle's stamp.
unsafe fn exec_chunk_level0(
    prog: &Program,
    arrays: &NetArrays,
    inputs: &[u64],
    ffs: &[u64],
    masks: &[u64],
    cur: u32,
    range: std::ops::Range<usize>,
) -> (bool, bool) {
    dispatch_lane_words!(
        masks.len(),
        exec_chunk_level0_impl(prog, arrays, inputs, ffs, masks, cur, range)
    )
}

/// The width-monomorphized body of [`exec_chunk_level0`].
///
/// # Safety
///
/// See [`exec_chunk_level0`].
// Indexed `0..K` word loops on purpose: the const trip count unrolls them.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
unsafe fn exec_chunk_level0_impl<const K: usize>(
    prog: &Program,
    arrays: &NetArrays,
    inputs: &[u64],
    ffs: &[u64],
    masks: &[u64],
    cur: u32,
    range: std::ops::Range<usize>,
) -> (bool, bool) {
    let n = range.len();
    let ops = &prog.opcodes[range.clone()][..n];
    let pa = &prog.a[range.clone()][..n];
    let pd = &prog.dst[range][..n];
    // A register-resident copy: the raw-pointer `values` stores could
    // alias the `masks` slice as far as LLVM knows (the noalias attribute
    // dies at inlining), which would force a reload per op.
    let masks: [u64; K] = masks[..K].try_into().unwrap();
    let (mut in_changed, mut ff_changed) = (false, false);
    for i in 0..n {
        let d = pd[i] as usize * K;
        let (src, is_input): (&[u64], bool) = match ops[i] {
            OpCode::Input => {
                let a = pa[i] as usize * K;
                (&inputs[a..a + K], true)
            }
            OpCode::DffOut => (&ffs[d..d + K], false),
            op => unreachable!("level 0 holds only Input/DffOut ops, found {op:?}"),
        };
        let mut toggled = 0u64;
        let mut any = 0u64;
        for w in 0..K {
            let v = src[w];
            let diff = (*arrays.values.add(d + w) ^ v) & masks[w];
            toggled += diff.count_ones() as u64;
            any |= diff;
            *arrays.values.add(d + w) = v;
        }
        if any != 0 {
            *arrays.toggles.add(pd[i] as usize) += toggled;
            *arrays.stamp.add(pd[i] as usize) = cur;
            if is_input {
                in_changed = true;
            } else {
                ff_changed = true;
            }
        }
    }
    (in_changed, ff_changed)
}

/// Executes a chunk of one dirty level (`level >= 1`) with per-op gating:
/// an op runs only when one of its operand nets carries the current
/// settle's change stamp — a skipped op's fan-in is bit-identical to the
/// previous settle, so its output already holds the settled value.
/// Returns `(ops executed, any destination changed)`.
///
/// # Safety
///
/// Same contract as [`exec_chunk_full`]; additionally every operand net's
/// change stamp for this settle must already be final (they are — operand
/// nets live in earlier levels, which executed first).
unsafe fn exec_chunk_gated(
    prog: &Program,
    arrays: &NetArrays,
    masks: &[u64],
    cur: u32,
    range: std::ops::Range<usize>,
) -> (u64, bool) {
    dispatch_lane_words!(
        masks.len(),
        exec_chunk_gated_impl(prog, arrays, masks, cur, range)
    )
}

/// The width-monomorphized body of [`exec_chunk_gated`]. Gating stays per
/// net: one change stamp covers the whole lane block (a net is "changed"
/// when any active lane of any word flipped), so wider blocks gate exactly
/// as often as a 64-lane sim driven with the union of the block's stimuli.
///
/// # Safety
///
/// See [`exec_chunk_gated`].
// Indexed `0..K` word loops on purpose: the const trip count unrolls them.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
unsafe fn exec_chunk_gated_impl<const K: usize>(
    prog: &Program,
    arrays: &NetArrays,
    masks: &[u64],
    cur: u32,
    range: std::ops::Range<usize>,
) -> (u64, bool) {
    let n = range.len();
    let ops = &prog.opcodes[range.clone()][..n];
    let pa = &prog.a[range.clone()][..n];
    let pb = &prog.b[range.clone()][..n];
    let pc = &prog.c[range.clone()][..n];
    let pd = &prog.dst[range][..n];
    // A register-resident copy: the raw-pointer `values` stores could
    // alias the `masks` slice as far as LLVM knows (the noalias attribute
    // dies at inlining), which would force a reload per op.
    let masks: [u64; K] = masks[..K].try_into().unwrap();
    let values = arrays.values;
    let stamp = arrays.stamp;
    let mut executed = 0u64;
    let mut changed = false;
    for i in 0..n {
        let a = pa[i] as usize;
        let b = pb[i] as usize;
        let mut v = [0u64; K];
        match ops[i] {
            OpCode::Not => {
                if *stamp.add(a) != cur {
                    continue;
                }
                for w in 0..K {
                    v[w] = !*values.add(a * K + w);
                }
            }
            OpCode::Mux => {
                let c = pc[i] as usize;
                if *stamp.add(a) != cur && *stamp.add(b) != cur && *stamp.add(c) != cur {
                    continue;
                }
                for w in 0..K {
                    let sel = *values.add(c * K + w);
                    v[w] = (sel & *values.add(b * K + w)) | (!sel & *values.add(a * K + w));
                }
            }
            op => {
                if *stamp.add(a) != cur && *stamp.add(b) != cur {
                    continue;
                }
                for w in 0..K {
                    let (x, y) = (*values.add(a * K + w), *values.add(b * K + w));
                    v[w] = match op {
                        OpCode::And => x & y,
                        OpCode::Or => x | y,
                        OpCode::Xor => x ^ y,
                        OpCode::Nand => !(x & y),
                        OpCode::Nor => !(x | y),
                        OpCode::Xnor => !(x ^ y),
                        _ => unreachable!("Input/DffOut ops live in level 0, found {op:?}"),
                    };
                }
            }
        }
        executed += 1;
        let d = pd[i] as usize * K;
        let mut toggled = 0u64;
        let mut any = 0u64;
        for w in 0..K {
            let diff = (*values.add(d + w) ^ v[w]) & masks[w];
            toggled += diff.count_ones() as u64;
            any |= diff;
            *values.add(d + w) = v[w];
        }
        if any != 0 {
            *arrays.toggles.add(pd[i] as usize) += toggled;
            *stamp.add(pd[i] as usize) = cur;
            changed = true;
        }
    }
    (executed, changed)
}

fn broadcast(bit: bool) -> u64 {
    if bit {
        u64::MAX
    } else {
        0
    }
}

impl CompiledSim {
    /// Compiles `netlist` for single-lane (scalar-equivalent) execution.
    pub fn new(netlist: &Netlist) -> CompiledSim {
        CompiledSim::with_lanes(netlist, 1)
    }

    /// Like [`CompiledSim::new`], but shares an already-owned netlist
    /// instead of deep-cloning it.
    pub fn new_arc(netlist: Arc<Netlist>) -> CompiledSim {
        CompiledSim::with_lanes_arc(netlist, 1)
    }

    /// Compiles `netlist` for `lanes` parallel stimulus lanes. Thin
    /// wrapper over [`CompiledSim::with_lanes_arc`] that clones the
    /// netlist once; callers that already hold an [`Arc<Netlist>`] should
    /// use the `_arc` constructor to share it instead.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= lanes <= `[`MAX_TOTAL_LANES`].
    pub fn with_lanes(netlist: &Netlist, lanes: usize) -> CompiledSim {
        CompiledSim::with_lanes_arc(Arc::new(netlist.clone()), lanes)
    }

    /// Compiles the shared `netlist` for `lanes` parallel stimulus lanes
    /// without copying the netlist structure: the [`Arc`] is stored as-is,
    /// so fanning out many simulators over one netlist (shards, repeated
    /// CPU constructions) pays for the gate arena once.
    ///
    /// The compile itself goes through the process-wide
    /// [`crate::cache::ProgramCache`]: a netlist whose *content* was
    /// compiled before (even behind a different `Arc`) reuses the cached
    /// [`Program`] instead of re-levelizing. `GATE_SIM_PROGRAM_CACHE=0`
    /// forces a fresh compile; results are bit-identical either way.
    ///
    /// Lane counts above 64 round the state arena up to whole 64-lane
    /// words: every net stores `lanes.div_ceil(64)` contiguous `u64`s
    /// (a *lane block*), and the kernels loop over the block.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= lanes <= `[`MAX_TOTAL_LANES`].
    pub fn with_lanes_arc(netlist: Arc<Netlist>, lanes: usize) -> CompiledSim {
        let prog = crate::cache::ProgramCache::compile_via_global(&netlist);
        CompiledSim::from_parts(netlist, prog, lanes)
    }

    /// Shared constructor body: allocates the K-word state arena for
    /// `lanes` over an already-compiled `prog`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= lanes <= `[`MAX_TOTAL_LANES`].
    fn from_parts(netlist: Arc<Netlist>, prog: Arc<Program>, lanes: usize) -> CompiledSim {
        assert!(
            (1..=MAX_TOTAL_LANES).contains(&lanes),
            "lanes must be in 1..={MAX_TOTAL_LANES}, got {lanes}: a CompiledSim packs \
             up to {MAX_LANE_WORDS} 64-lane words into one lane block; for more \
             stimulus vectors, split the sweep into multiple lane blocks \
             (e.g. `ShardedSim`) or multiple settles"
        );
        let k = lanes.div_ceil(LANES_PER_WORD);
        let mut values = vec![0u64; prog.net_count * k];
        for &(net, v) in &prog.consts {
            values[net as usize * k..(net as usize + 1) * k].fill(broadcast(v));
        }
        let mut ff_state = vec![0u64; prog.net_count * k];
        for (id, gate) in netlist.gates().iter().enumerate() {
            if let Gate::Dff { init, .. } = gate {
                ff_state[id * k..(id + 1) * k].fill(broadcast(*init));
            }
        }
        let mut sim = CompiledSim {
            values,
            ff_state,
            input_values: vec![0u64; prog.input_count * k],
            toggles: vec![0u64; prog.net_count],
            cycles: 0,
            lanes,
            lane_words: k,
            lane_masks: block_lane_masks(lanes),
            primed: false,
            mode: EvalMode::Auto,
            inputs_dirty: true,
            ffs_dirty: true,
            changed_levels: vec![0u64; prog.dep_stride],
            changed_stamp: vec![0u32; prog.net_count],
            settle_id: 0,
            dense_backoff: 0,
            jit: None,
            auto_settles: 0,
            jit_options: crate::jit::JitOptions::default(),
            stats: EvalStats::default(),
            prog,
            netlist,
        };
        // `GATE_SIM_JIT=1` makes native full sweeps the default mode for
        // every construction (unsupported hosts fall back, bit-identically).
        if crate::env::jit() == Some(true) {
            sim.set_eval_mode(EvalMode::Jit);
        }
        sim
    }

    /// The compiled op stream (level-major, structure-of-arrays).
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// The shared netlist handle (cloning it is free — see
    /// [`CompiledSim::with_lanes_arc`]).
    pub fn netlist_arc(&self) -> &Arc<Netlist> {
        &self.netlist
    }

    /// How [`CompiledSim::eval`] sweeps the op stream (results are
    /// mode-independent; see [`EvalMode`]).
    pub fn eval_mode(&self) -> EvalMode {
        self.mode
    }

    /// Selects the evaluation strategy. Purely a performance knob: values
    /// and toggle counts are bit-identical in every mode.
    ///
    /// Entering [`EvalMode::Jit`] acquires (emitting on first use) native
    /// code for this program at this lane width; when codegen is
    /// unavailable the mode still holds but settles run the interpreter
    /// ([`CompiledSim::jit_active`] reports which). Entering any other
    /// mode releases the code and restarts [`EvalMode::Auto`]'s count
    /// towards promotion.
    pub fn set_eval_mode(&mut self, mode: EvalMode) {
        self.mode = mode;
        self.dense_backoff = 0;
        self.auto_settles = 0;
        self.jit = if mode == EvalMode::Jit {
            self.acquire_jit()
        } else {
            None
        };
    }

    /// Native code for the current (program, lane width) under the
    /// current [`crate::jit::JitOptions`] — `None` is the documented
    /// fallback signal. Default options hit the per-program cache
    /// ([`Program::jit`]); custom options compile privately.
    fn acquire_jit(&self) -> Option<Arc<crate::jit::JitProgram>> {
        if self.jit_options == crate::jit::JitOptions::default() {
            self.prog.jit(self.lane_words)
        } else {
            crate::jit::compile(&self.prog, self.lane_words, &self.jit_options)
                .ok()
                .map(Arc::new)
        }
    }

    /// Replaces the codegen options (a test/bench seam — e.g. forcing
    /// the portable non-BMI1 encodings or a tiny code-size cap to
    /// exercise fallback) and re-acquires code if the simulator holds
    /// some or is in [`EvalMode::Jit`]. An [`EvalMode::Auto`] simulator
    /// not yet promoted uses the new options when it is.
    pub fn set_jit_options(&mut self, options: crate::jit::JitOptions) {
        self.jit_options = options;
        if self.mode == EvalMode::Jit || self.jit.is_some() {
            self.jit = self.acquire_jit();
        }
    }

    /// True when sequential settles execute emitted native code: in
    /// [`EvalMode::Jit`], or in [`EvalMode::Auto`] after promotion, when
    /// codegen succeeded. False in every other mode and in the fallback
    /// state (unsupported host, codegen refusal, or `GATE_SIM_JIT=0`).
    pub fn jit_active(&self) -> bool {
        self.jit.is_some()
    }

    /// The native code this simulator runs, if any
    /// ([`CompiledSim::jit_active`]).
    #[cfg(test)]
    pub(crate) fn native_code(&self) -> Option<&Arc<crate::jit::JitProgram>> {
        self.jit.as_ref()
    }

    /// Work counters for this simulator's settles (diagnostic only).
    pub fn eval_stats(&self) -> EvalStats {
        self.stats
    }

    /// The first lane word of one net (bit `l` = lane `l`'s value for
    /// lanes 0..64). Bits beyond the active lane count hold garbage.
    pub fn lane_word(&self, net: NetId) -> u64 {
        self.values[net as usize * self.lane_words]
    }

    /// Words per lane block (`lanes.div_ceil(64)`): the stride of the
    /// `values`/`ff_state`/`input_values` arrays.
    pub fn lane_words(&self) -> usize {
        self.lane_words
    }

    /// Per-word active-lane masks (`lane_words` entries; see
    /// [`word_lane_mask`]).
    pub fn lane_masks(&self) -> &[u64] {
        &self.lane_masks
    }

    /// Drives one lane of the named input port with `value`'s low bits.
    /// Port bits at and beyond 64 are driven to 0.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist, a port net is not an input, or
    /// `lane >= lanes`.
    pub fn set_bus_lane(&mut self, port: &str, lane: usize, value: u64) {
        assert!(
            lane < self.lanes,
            "lane {lane} out of range (lanes = {})",
            self.lanes
        );
        let port = self
            .netlist
            .input(port)
            .unwrap_or_else(|| panic!("no input port `{port}`"));
        let (w, bit) = (lane / LANES_PER_WORD, lane % LANES_PER_WORD);
        for (i, &net) in port.nets.iter().enumerate() {
            match self.netlist.gates()[net as usize] {
                Gate::Input(idx) => {
                    let word = &mut self.input_values[idx as usize * self.lane_words + w];
                    let new = (*word & !(1u64 << bit)) | (port_bit(value, i) << bit);
                    if *word != new {
                        *word = new;
                        self.inputs_dirty = true;
                    }
                }
                ref g => panic!("net {net} is not an input: {g:?}"),
            }
        }
    }

    /// Drives the named input port with one value per lane
    /// (`values[lane]`'s low bits), resolving the port once.
    ///
    /// Lanes beyond `values.len()` keep their previous stimulus. This is
    /// the fast path for batched sweeps: one transpose per port instead of
    /// a port lookup per lane.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist, a port net is not an input, or
    /// `values.len() > lanes`.
    pub fn set_bus_lanes(&mut self, port: &str, values: &[u64]) {
        self.set_port_lanes(self.input_port(port), values);
    }

    /// Resolves the named input port once, for [`CompiledSim::set_port`]
    /// and [`CompiledSim::set_port_lanes`].
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn input_port(&self, name: &str) -> PortId {
        let index = self.netlist.inputs().iter().position(|p| p.name == name);
        PortId(index.unwrap_or_else(|| panic!("no input port `{name}`")))
    }

    /// Resolves the named output port once, for [`CompiledSim::get_port`]
    /// and [`CompiledSim::get_port_lanes`].
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn output_port(&self, name: &str) -> PortId {
        let index = self.netlist.outputs().iter().position(|p| p.name == name);
        PortId(index.unwrap_or_else(|| panic!("no output port `{name}`")))
    }

    /// [`CompiledSim::set_bus_lanes`] on a resolved input port.
    ///
    /// # Panics
    ///
    /// Panics if a port net is not an input or `values.len() > lanes`.
    pub fn set_port_lanes(&mut self, port: PortId, values: &[u64]) {
        assert!(
            values.len() <= self.lanes,
            "{} stimuli exceed {} lanes",
            values.len(),
            self.lanes
        );
        let port = &self.netlist.inputs()[port.0];
        let k = self.lane_words;
        for (i, &net) in port.nets.iter().enumerate() {
            match self.netlist.gates()[net as usize] {
                Gate::Input(idx) => {
                    let base = idx as usize * k;
                    let mut block = [0u64; MAX_LANE_WORDS];
                    block[..k].copy_from_slice(&self.input_values[base..base + k]);
                    for (lane, &v) in values.iter().enumerate() {
                        let (w, bit) = (lane / LANES_PER_WORD, lane % LANES_PER_WORD);
                        block[w] = (block[w] & !(1u64 << bit)) | (port_bit(v, i) << bit);
                    }
                    if self.input_values[base..base + k] != block[..k] {
                        self.input_values[base..base + k].copy_from_slice(&block[..k]);
                        self.inputs_dirty = true;
                    }
                }
                ref g => panic!("net {net} is not an input: {g:?}"),
            }
        }
    }

    /// Drives the named input port identically on every lane. Port bits at
    /// and beyond 64 are driven to 0.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn set_bus_u64(&mut self, port: &str, value: u64) {
        self.set_port(self.input_port(port), value);
    }

    /// [`CompiledSim::set_bus_u64`] on a resolved input port.
    pub fn set_port(&mut self, port: PortId, value: u64) {
        let port = &self.netlist.inputs()[port.0];
        let k = self.lane_words;
        for (i, &net) in port.nets.iter().enumerate() {
            match self.netlist.gates()[net as usize] {
                Gate::Input(idx) => {
                    let base = idx as usize * k;
                    let word = broadcast(port_bit(value, i) == 1);
                    if self.input_values[base..base + k].iter().any(|&w| w != word) {
                        self.input_values[base..base + k].fill(word);
                        self.inputs_dirty = true;
                    }
                }
                ref g => panic!("net {net} is not an input: {g:?}"),
            }
        }
    }

    /// Drives the named input port with the low bits of `value` (all lanes).
    pub fn set_bus(&mut self, port: &str, value: u32) {
        self.set_bus_u64(port, value as u64);
    }

    /// Settles all combinational logic for the current inputs and FF state.
    ///
    /// Depending on [`CompiledSim::eval_mode`] this is either one full
    /// forward sweep of the op stream (interpreted or native) or an
    /// event-driven sweep that skips levels whose fan-in did not change;
    /// all produce bit-identical values and toggle counts. The very first
    /// settle is always a full sweep (the all-zero reset words must be
    /// replaced everywhere).
    pub fn eval(&mut self) {
        let event = self.primed
            && match self.mode {
                EvalMode::FullSweep | EvalMode::Jit => false,
                EvalMode::EventDriven => true,
                EvalMode::Auto => {
                    if self.jit.is_some() {
                        false // promoted: native full sweeps from here on
                    } else if self.dense_backoff > 0 {
                        self.dense_backoff -= 1;
                        false
                    } else {
                        true
                    }
                }
            };
        // A fresh stamp per settle: "changed this settle" comparisons never
        // need an O(nets) clear.
        self.settle_id = self.settle_id.wrapping_add(1);
        if event {
            self.eval_event();
        } else {
            self.eval_full();
        }
        self.stats.settles += 1;
        if self.mode == EvalMode::Auto && self.jit.is_none() {
            self.count_towards_promotion();
        }
        // The settle consumed all external dirtiness: values now reflect
        // the current input words and stored FF state.
        self.inputs_dirty = false;
        self.ffs_dirty = false;
        if !self.primed {
            // The pre-first-eval state is arbitrary (all-zero words), so the
            // transitions of the first settle are not real switching.
            self.toggles.iter_mut().for_each(|t| *t = 0);
            self.primed = true;
        }
    }

    /// [`EvalMode::Auto`]'s tiering: counts interpreted settles and, once
    /// [`AUTO_NATIVE_AFTER_SETTLES`] have run on a one-word simulator,
    /// acquires native code — a single attempt; a refusal
    /// leaves the simulator interpreting for good.
    fn count_towards_promotion(&mut self) {
        if self.auto_settles < AUTO_NATIVE_AFTER_SETTLES {
            self.auto_settles += 1;
        }
        if self.auto_settles == AUTO_NATIVE_AFTER_SETTLES && self.lane_words == 1 {
            self.auto_settles += 1;
            self.jit = self.acquire_jit();
        }
    }

    /// The raw array view the op-range executors operate on. The returned
    /// pointers alias `self`'s arrays; see [`NetArrays`] for the rules.
    fn net_arrays(&mut self) -> NetArrays {
        NetArrays {
            values: self.values.as_mut_ptr(),
            toggles: self.toggles.as_mut_ptr(),
            stamp: self.changed_stamp.as_mut_ptr(),
        }
    }

    /// One unconditional forward sweep of the whole op stream — through
    /// the emitted native code when the simulator holds some, else the
    /// interpreter. Both paths are bit-identical (values, exact popcount
    /// toggles) and report identical [`EvalStats`] but for
    /// [`EvalStats::native_sweeps`].
    fn eval_full(&mut self) {
        let n = self.prog.len();
        if let Some(jit) = &self.jit {
            // SAFETY: `&mut self` is exclusive, and the arrays are exactly
            // the layout the code was emitted for — same program, same
            // `lane_words` (acquire_jit pins both), array sizes fixed by
            // `from_parts`.
            unsafe {
                jit.run(
                    self.values.as_mut_ptr(),
                    self.input_values.as_ptr(),
                    self.ff_state.as_ptr(),
                    self.toggles.as_mut_ptr(),
                    self.lane_masks.as_ptr(),
                );
            }
            self.stats.full_sweeps += 1;
            self.stats.native_sweeps += 1;
            self.stats.ops_executed += n as u64;
            return;
        }
        let arrays = self.net_arrays();
        // SAFETY: `&mut self` is exclusive — no other thread can touch the
        // arrays — and `0..n` is the whole (valid) op stream.
        unsafe {
            exec_chunk_full(
                &self.prog,
                &arrays,
                &self.input_values,
                &self.ff_state,
                &self.lane_masks,
                0..n,
            );
        }
        self.stats.full_sweeps += 1;
        self.stats.ops_executed += n as u64;
    }

    /// Event-driven settle, two tiers of exact skipping:
    ///
    /// 1. **Whole levels** — a level is skipped outright when none of its
    ///    dirt sources ([`Program::level_deps`]) changed: level 0 when no
    ///    input or stored FF word was dirtied since the last settle, any
    ///    later level when no fan-in level (nor the input-fed/FF-fed
    ///    source it reads) changed a published word during *this* settle.
    /// 2. **Per op** — inside a dirty level, an op executes only when one
    ///    of its operand nets carries the current settle's change stamp
    ///    ([`CompiledSim::exec_level_gated`]).
    ///
    /// Both tiers are bit-exact: skipped work would recompute values that
    /// are already settled and accumulate zero toggles.
    fn eval_event(&mut self) {
        let levels = self.prog.levels();
        self.changed_levels.iter_mut().for_each(|w| *w = 0);
        let cur = self.settle_id;
        let arrays = self.net_arrays();
        let mut ops_run = 0u64;
        for level in 0..levels {
            let range = self.prog.level_ops(level);
            if range.is_empty() {
                continue; // constants-only level: nothing scheduled
            }
            if level == 0 {
                if !self.inputs_dirty && !self.ffs_dirty {
                    self.stats.levels_skipped += 1;
                    continue;
                }
                ops_run += range.len() as u64;
                // SAFETY: `&mut self` is exclusive; the range is level 0.
                let (in_changed, ff_changed) = unsafe {
                    exec_chunk_level0(
                        &self.prog,
                        &arrays,
                        &self.input_values,
                        &self.ff_state,
                        &self.lane_masks,
                        cur,
                        range,
                    )
                };
                // Bits `levels` / `levels + 1`: the input-fed and FF-fed
                // dirt sources (`Program::dep_bit_inputs`/`dep_bit_ffs`).
                for (changed, bit) in [(in_changed, levels), (ff_changed, levels + 1)] {
                    if changed {
                        self.changed_levels[bit / 64] |= 1u64 << (bit % 64);
                    }
                }
                continue;
            }
            let dirty = self
                .prog
                .level_dep_set(level)
                .iter()
                .zip(self.changed_levels.iter())
                .any(|(d, c)| d & c != 0);
            if !dirty {
                self.stats.levels_skipped += 1;
                continue;
            }
            // SAFETY: `&mut self` is exclusive; all earlier levels have
            // already executed, so operand values and stamps are final.
            let (executed, changed) =
                unsafe { exec_chunk_gated(&self.prog, &arrays, &self.lane_masks, cur, range) };
            ops_run += executed;
            if changed {
                self.changed_levels[level / 64] |= 1u64 << (level % 64);
            }
        }
        self.stats.ops_executed += ops_run;
        // Dense stimulus: when nearly every op ran anyway, the gating
        // bookkeeping is pure overhead — fall back to plain full sweeps
        // for a while before probing the event-driven path again.
        self.auto_dense_check(ops_run);
    }

    /// Applies [`EvalMode::Auto`]'s dense-stimulus fallback decision for a
    /// settle that executed `ops_run` ops.
    fn auto_dense_check(&mut self, ops_run: u64) {
        if self.mode == EvalMode::Auto
            && ops_run * 8 > self.prog.len() as u64 * AUTO_DENSE_THRESHOLD_EIGHTHS as u64
        {
            self.dense_backoff = AUTO_DENSE_BACKOFF;
        }
    }

    /// Clock edge: latches every DFF's `d` lane block into its state.
    pub fn step(&mut self) {
        let k = self.lane_words;
        for &(ff, d) in &self.prog.dffs {
            let (fb, db) = (ff as usize * k, d as usize * k);
            for w in 0..k {
                let next = self.values[db + w];
                // The FF output publishes the *stored* block on the next
                // settle, so level 0 only needs re-evaluation when a newly
                // latched word differs from the currently published one.
                if self.values[fb + w] != next {
                    self.ffs_dirty = true;
                }
                self.ff_state[fb + w] = next;
            }
        }
        self.cycles += 1;
    }

    /// Reads one net on one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lanes` (inactive lane bits hold garbage).
    pub fn get_lane(&self, net: NetId, lane: usize) -> bool {
        assert!(
            lane < self.lanes,
            "lane {lane} out of range (lanes = {})",
            self.lanes
        );
        let (w, bit) = (lane / LANES_PER_WORD, lane % LANES_PER_WORD);
        (self.values[net as usize * self.lane_words + w] >> bit) & 1 == 1
    }

    /// Reads one net on lane 0.
    pub fn get(&self, net: NetId) -> bool {
        self.get_lane(net, 0)
    }

    /// Reads up to 64 bits of the named output port on one lane. Port bits
    /// at and beyond 64 do not fit in the result and read as 0 (they are
    /// simply not included).
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or `lane >= lanes`.
    pub fn get_bus_lane(&self, port: &str, lane: usize) -> u64 {
        assert!(
            lane < self.lanes,
            "lane {lane} out of range (lanes = {})",
            self.lanes
        );
        let port = self
            .netlist
            .output(port)
            .unwrap_or_else(|| panic!("no output port `{port}`"));
        let (w, bit) = (lane / LANES_PER_WORD, lane % LANES_PER_WORD);
        port.nets
            .iter()
            .take(64)
            .enumerate()
            .fold(0u64, |acc, (i, &n)| {
                acc | (((self.values[n as usize * self.lane_words + w] >> bit) & 1) << i)
            })
    }

    /// Reads up to 64 bits of the named output port on every lane at
    /// once: `out[lane]` for lanes `0..out.len()`, with one port lookup
    /// and one pass over the port's nets. The read-side twin of
    /// [`CompiledSim::set_bus_lanes`].
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or `out.len() > lanes`.
    pub fn get_bus_lanes(&self, port: &str, out: &mut [u64]) {
        self.get_port_lanes(self.output_port(port), out);
    }

    /// [`CompiledSim::get_bus_lanes`] on a resolved output port.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() > lanes`.
    pub fn get_port_lanes(&self, port: PortId, out: &mut [u64]) {
        assert!(
            out.len() <= self.lanes,
            "{} reads exceed {} lanes",
            out.len(),
            self.lanes
        );
        out.fill(0);
        let k = self.lane_words;
        for (i, &net) in self.netlist.outputs()[port.0]
            .nets
            .iter()
            .take(64)
            .enumerate()
        {
            let block = &self.values[net as usize * k..(net as usize + 1) * k];
            for (&word, lanes) in block.iter().zip(out.chunks_mut(LANES_PER_WORD)) {
                for (bit, v) in lanes.iter_mut().enumerate() {
                    *v |= ((word >> bit) & 1) << i;
                }
            }
        }
    }

    /// Reads the named output port on lane 0.
    pub fn get_bus_u64(&self, port: &str) -> u64 {
        self.get_bus_lane(port, 0)
    }

    /// Reads up to 64 bits of a resolved output port on lane 0.
    pub fn get_port(&self, port: PortId) -> u64 {
        let k = self.lane_words;
        self.netlist.outputs()[port.0]
            .nets
            .iter()
            .take(64)
            .enumerate()
            .fold(0u64, |acc, (i, &n)| {
                acc | ((self.values[n as usize * k] & 1) << i)
            })
    }

    /// Reads up to 32 bits of the named output port on lane 0.
    pub fn get_bus(&self, port: &str) -> u32 {
        self.get_bus_u64(port) as u32
    }

    /// Forces the stored state of a DFF on every lane.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a DFF.
    pub fn set_ff(&mut self, net: NetId, value: bool) {
        assert!(
            self.netlist.gates()[net as usize].is_dff(),
            "net {net} is not a DFF"
        );
        let k = self.lane_words;
        let base = net as usize * k;
        let word = broadcast(value);
        if self.values[base..base + k].iter().any(|&w| w != word) {
            self.ffs_dirty = true;
        }
        self.ff_state[base..base + k].fill(word);
    }

    /// Forces the stored state of a DFF on one lane only (e.g. a per-lane
    /// reset PC when every lane runs a different program).
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a DFF or `lane >= lanes`.
    pub fn set_ff_lane(&mut self, net: NetId, lane: usize, value: bool) {
        assert!(
            lane < self.lanes,
            "lane {lane} out of range (lanes = {})",
            self.lanes
        );
        assert!(
            self.netlist.gates()[net as usize].is_dff(),
            "net {net} is not a DFF"
        );
        let (w, bit) = (lane / LANES_PER_WORD, lane % LANES_PER_WORD);
        let idx = net as usize * self.lane_words + w;
        let word = &mut self.ff_state[idx];
        *word = (*word & !(1u64 << bit)) | ((value as u64) << bit);
        if *word != self.values[idx] {
            self.ffs_dirty = true;
        }
    }

    /// Total toggles per net since construction (summed over active lanes).
    pub fn toggles(&self) -> &[u64] {
        &self.toggles
    }

    /// Clock cycles stepped so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Average switching activity: toggles per gate per cycle per lane.
    pub fn average_activity(&self) -> f64 {
        if self.cycles == 0 || self.toggles.is_empty() {
            return 0.0;
        }
        let total: u64 = self.toggles.iter().sum();
        total as f64 / (self.toggles.len() as f64 * self.cycles as f64 * self.lanes as f64)
    }

    /// Drives a resolved input port from lane words: `words` holds
    /// [`CompiledSim::lane_words`] words per port bit, bit 0's first
    /// (bit `l` of a bit's word `w` is lane `64w + l`'s value). This is
    /// [`CompiledSim::set_port_lanes`] with every lane given, after one
    /// 64×64 transpose per word of lanes, and it marks the inputs dirty
    /// the same way: only when a word changes. Bits past the last lane
    /// are stored as given and, as in every lane word, belong to no lane.
    ///
    /// # Panics
    ///
    /// Panics if a port net is not an input or `words.len()` is not the
    /// port width times `lane_words`.
    #[inline]
    pub fn set_port_words(&mut self, port: PortId, words: &[u64]) {
        let port = &self.netlist.inputs()[port.0];
        let k = self.lane_words;
        assert_eq!(
            words.len(),
            port.nets.len() * k,
            "port words must be the port width times the lane words"
        );
        for (&net, block) in port.nets.iter().zip(words.chunks_exact(k)) {
            match self.netlist.gates()[net as usize] {
                Gate::Input(idx) => {
                    let base = idx as usize * k;
                    if self.input_values[base..base + k] != *block {
                        self.input_values[base..base + k].copy_from_slice(block);
                        self.inputs_dirty = true;
                    }
                }
                ref g => panic!("net {net} is not an input: {g:?}"),
            }
        }
    }
}

impl SimBackend for CompiledSim {
    fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    fn lanes(&self) -> usize {
        self.lanes
    }

    fn set_bus_u64(&mut self, port: &str, value: u64) {
        CompiledSim::set_bus_u64(self, port, value);
    }

    fn set_bus_lane(&mut self, port: &str, lane: usize, value: u64) {
        CompiledSim::set_bus_lane(self, port, lane, value);
    }

    fn eval(&mut self) {
        CompiledSim::eval(self);
    }

    fn step(&mut self) {
        CompiledSim::step(self);
    }

    fn get_lane(&self, net: NetId, lane: usize) -> bool {
        CompiledSim::get_lane(self, net, lane)
    }

    fn get_bus_lane(&self, port: &str, lane: usize) -> u64 {
        CompiledSim::get_bus_lane(self, port, lane)
    }

    fn set_ff(&mut self, net: NetId, value: bool) {
        CompiledSim::set_ff(self, net, value);
    }

    fn toggles(&self) -> &[u64] {
        CompiledSim::toggles(self)
    }

    fn cycles(&self) -> u64 {
        CompiledSim::cycles(self)
    }

    fn average_activity(&self) -> f64 {
        CompiledSim::average_activity(self)
    }

    fn eval_stats(&self) -> EvalStats {
        CompiledSim::eval_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Sim;
    use crate::Builder;

    #[test]
    fn matches_interpreter_on_counter() {
        let mut b = Builder::new();
        let ffs: Vec<NetId> = (0..4).map(|_| b.dff(false)).collect();
        let one = crate::bus::constant(&mut b, 1, 4);
        let (next, _) = crate::bus::add(&mut b, &ffs, &one);
        for (ff, d) in ffs.iter().zip(&next) {
            b.connect_dff(*ff, *d);
        }
        b.output_bus("count", &ffs);
        let nl = b.finish();
        let mut int = Sim::new(&nl);
        let mut comp = CompiledSim::new(&nl);
        for _ in 0..20 {
            int.eval();
            comp.eval();
            assert_eq!(comp.get_bus("count"), int.get_bus("count"));
            int.step();
            comp.step();
        }
        assert_eq!(comp.cycles(), 20);
        assert_eq!(
            comp.toggles(),
            int.toggles(),
            "toggle accounting must agree"
        );
        assert!((comp.average_activity() - int.average_activity()).abs() < 1e-12);
    }

    #[test]
    fn lanes_evaluate_independent_stimuli() {
        // 8-bit adder driven with 64 different (x, y) pairs in one eval.
        let mut b = Builder::new();
        let x = b.input_bus("x", 8);
        let y = b.input_bus("y", 8);
        let (sum, _) = crate::bus::add(&mut b, &x, &y);
        b.output_bus("sum", &sum);
        let nl = b.finish();
        let mut sim = CompiledSim::with_lanes(&nl, 64);
        for lane in 0..64u64 {
            sim.set_bus_lane("x", lane as usize, lane * 3);
            sim.set_bus_lane("y", lane as usize, lane * 5 + 1);
        }
        sim.eval();
        for lane in 0..64u64 {
            assert_eq!(
                sim.get_bus_lane("sum", lane as usize),
                (lane * 3 + lane * 5 + 1) & 0xff,
                "lane {lane}"
            );
        }
    }

    #[test]
    fn wide_lane_blocks_evaluate_independent_stimuli() {
        // Same adder, but the stimuli span multiple words of a lane block
        // (including the deliberately awkward 65- and 512-lane shapes).
        let mut b = Builder::new();
        let x = b.input_bus("x", 8);
        let y = b.input_bus("y", 8);
        let (sum, _) = crate::bus::add(&mut b, &x, &y);
        b.output_bus("sum", &sum);
        let nl = b.finish();
        for lanes in [65usize, 128, 256, 512] {
            let mut sim = CompiledSim::with_lanes(&nl, lanes);
            assert_eq!(sim.lane_words(), lanes.div_ceil(64), "lanes = {lanes}");
            for lane in 0..lanes as u64 {
                sim.set_bus_lane("x", lane as usize, lane * 3);
                sim.set_bus_lane("y", lane as usize, lane * 5 + 1);
            }
            sim.eval();
            for lane in 0..lanes as u64 {
                assert_eq!(
                    sim.get_bus_lane("sum", lane as usize),
                    (lane * 3 + lane * 5 + 1) & 0xff,
                    "lanes = {lanes}, lane {lane}"
                );
            }
        }
    }

    #[test]
    fn wide_block_matches_chunked_64_lane_runs() {
        // A 256-lane sequential run must be bit-identical — values and
        // exact per-net toggle counts — to the same stimuli run as four
        // chunked 64-lane sims. (The property tests sweep this across
        // every eval mode; this is the fast pin.)
        let nl = {
            let mut b = Builder::new();
            let ffs: Vec<NetId> = (0..6).map(|_| b.dff(false)).collect();
            let x = b.input_bus("x", 6);
            let (next, _) = crate::bus::add(&mut b, &ffs, &x);
            for (ff, d) in ffs.iter().zip(&next) {
                b.connect_dff(*ff, *d);
            }
            b.output_bus("count", &ffs);
            b.finish()
        };
        let stim = |lane: u64, cycle: u64| (lane * 7 + cycle * 13 + 1) & 0x3f;
        let mut wide = CompiledSim::with_lanes(&nl, 256);
        let mut chunks: Vec<CompiledSim> =
            (0..4).map(|_| CompiledSim::with_lanes(&nl, 64)).collect();
        for cycle in 0..11 {
            for lane in 0..256u64 {
                wide.set_bus_lane("x", lane as usize, stim(lane, cycle));
                chunks[lane as usize / 64].set_bus_lane("x", lane as usize % 64, stim(lane, cycle));
            }
            wide.eval();
            chunks.iter_mut().for_each(|c| c.eval());
            for lane in 0..256usize {
                assert_eq!(
                    wide.get_bus_lane("count", lane),
                    chunks[lane / 64].get_bus_lane("count", lane % 64),
                    "cycle {cycle}, lane {lane}"
                );
            }
            wide.step();
            chunks.iter_mut().for_each(|c| c.step());
        }
        let merged: Vec<u64> = (0..nl.len())
            .map(|n| chunks.iter().map(|c| c.toggles()[n]).sum())
            .collect();
        assert_eq!(wide.toggles(), &merged[..], "exact toggle accounting");
    }

    #[test]
    fn broadcast_set_bus_drives_all_lanes() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 4);
        b.output_bus("y", &x);
        let nl = b.finish();
        let mut sim = CompiledSim::with_lanes(&nl, 64);
        sim.set_bus("x", 0b1010);
        sim.eval();
        for lane in [0, 17, 63] {
            assert_eq!(sim.get_bus_lane("y", lane), 0b1010);
        }
    }

    #[test]
    fn first_eval_does_not_count_reset_transients() {
        let mut b = Builder::new();
        let x = b.input("x");
        let nx = b.not(x);
        b.output("y", nx);
        let nl = b.finish();
        let mut sim = CompiledSim::new(&nl);
        // Constant stimulus: nothing ever switches after the reset settle.
        for _ in 0..10 {
            sim.set_bus("x", 0);
            sim.eval();
            sim.step();
        }
        assert_eq!(sim.toggles().iter().sum::<u64>(), 0);
        assert_eq!(sim.average_activity(), 0.0);
    }

    #[test]
    fn event_driven_skips_settled_levels_and_stays_exact() {
        // 4-bit counter with an 8-bit adder bolted on: plenty of levels.
        let mut b = Builder::new();
        let ffs: Vec<NetId> = (0..4).map(|_| b.dff(false)).collect();
        let one = crate::bus::constant(&mut b, 1, 4);
        let (next, _) = crate::bus::add(&mut b, &ffs, &one);
        for (ff, d) in ffs.iter().zip(&next) {
            b.connect_dff(*ff, *d);
        }
        let x = b.input_bus("x", 8);
        let y = b.input_bus("y", 8);
        let (sum, _) = crate::bus::add(&mut b, &x, &y);
        b.output_bus("sum", &sum);
        b.output_bus("count", &ffs);
        let nl = b.finish();

        let mut full = CompiledSim::new(&nl);
        full.set_eval_mode(EvalMode::FullSweep);
        let mut event = CompiledSim::new(&nl);
        event.set_eval_mode(EvalMode::EventDriven);
        for cycle in 0..30u32 {
            // The adder inputs only change every 10th settle: the cone
            // between changes is quiescent and must be skipped.
            let (a, c) = ((cycle / 10) * 37, (cycle / 10) * 11 + 1);
            for sim in [&mut full, &mut event] {
                sim.set_bus("x", a);
                sim.set_bus("y", c);
                sim.eval();
                sim.step();
            }
            assert_eq!(event.get_bus("sum"), full.get_bus("sum"), "cycle {cycle}");
            assert_eq!(
                event.get_bus("count"),
                full.get_bus("count"),
                "cycle {cycle}"
            );
        }
        assert_eq!(event.toggles(), full.toggles(), "exact toggle counts");
        let (fs, es) = (full.eval_stats(), event.eval_stats());
        assert_eq!(fs.settles, 30);
        assert_eq!(fs.full_sweeps, 30);
        assert_eq!(fs.levels_skipped, 0);
        assert_eq!(es.settles, 30);
        assert_eq!(es.full_sweeps, 1, "only the priming settle sweeps");
        // The adder cone is quiescent between the every-10th-settle input
        // changes, so per-op gating must strip most of its work even
        // though the counter keeps its levels nominally dirty.
        assert!(
            es.ops_executed * 2 < fs.ops_executed,
            "event-driven must execute far fewer ops ({} vs {})",
            es.ops_executed,
            fs.ops_executed
        );
    }

    #[test]
    fn idempotent_evals_skip_everything() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 8);
        let y = b.input_bus("y", 8);
        let (sum, _) = crate::bus::add(&mut b, &x, &y);
        b.output_bus("sum", &sum);
        let nl = b.finish();
        let mut sim = CompiledSim::with_lanes(&nl, 64);
        sim.set_eval_mode(EvalMode::EventDriven);
        sim.set_bus("x", 170);
        sim.set_bus("y", 85);
        sim.eval(); // priming full sweep
        let after_first = sim.eval_stats();
        sim.set_bus("x", 170); // identical stimulus: no input word changes
        sim.eval();
        sim.eval();
        let stats = sim.eval_stats();
        assert_eq!(sim.get_bus("sum"), 255);
        assert_eq!(
            stats.ops_executed, after_first.ops_executed,
            "settled netlist must execute zero ops"
        );
        assert_eq!(stats.settles, 3);
        assert!(
            stats.levels_skipped > 0,
            "idempotent settles must skip whole levels: {stats:?}"
        );
        assert_eq!(sim.toggles().iter().sum::<u64>(), 0);
    }

    #[test]
    fn auto_mode_falls_back_to_full_sweeps_on_dense_stimulus() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 8);
        let y = b.input_bus("y", 8);
        let (sum, _) = crate::bus::add(&mut b, &x, &y);
        b.output_bus("sum", &sum);
        let nl = b.finish();
        let mut sim = CompiledSim::with_lanes(&nl, 64);
        // Pinned explicitly: GATE_SIM_JIT=1 changes the construction
        // default, and this test is about Auto's dense fallback.
        sim.set_eval_mode(EvalMode::Auto);
        for i in 0..8u64 {
            // Every lane changes every settle: maximally dense stimulus.
            for lane in 0..64 {
                sim.set_bus_lane("x", lane, i * 67 + lane as u64);
                sim.set_bus_lane("y", lane, i * 31 + lane as u64 * 3);
            }
            sim.eval();
        }
        let stats = sim.eval_stats();
        // Settle 0 primes (full); settle 1 probes event-driven, detects the
        // dense stimulus, and the remaining settles fall back to full.
        assert!(
            stats.full_sweeps >= 7,
            "dense stimulus must fall back to full sweeps: {stats:?}"
        );
    }

    #[test]
    fn wide_ports_drive_and_read_without_shift_overflow() {
        // Regression: ports wider than 64 bits used to compute
        // `value >> i` / `<< i` with `i >= 64` — a panic in debug and a
        // silently wrapped shift in release. Bits at and beyond 64 now
        // drive as 0 and are not included in `u64` reads.
        let mut b = Builder::new();
        let x = b.input_bus("x", 70);
        let notx: Vec<NetId> = x.iter().map(|&n| b.not(n)).collect();
        b.output_bus("y", &x);
        b.output_bus("ny", &notx);
        let nl = b.finish();
        let mut sim = CompiledSim::with_lanes(&nl, 2);
        sim.set_bus_u64("x", u64::MAX);
        sim.eval();
        // All 64 driveable bits read back; bits 64..70 were driven to 0.
        assert_eq!(sim.get_bus_lane("y", 0), u64::MAX);
        for (i, &n) in x.iter().enumerate() {
            assert_eq!(sim.get_lane(n, 0), i < 64, "bit {i}");
        }
        // The inverted port's low 64 bits are 0; bits 64+ are 1 but do not
        // fit in (and must not corrupt) the u64 read.
        assert_eq!(sim.get_bus_lane("ny", 0), 0);
        // The per-lane and batched writers follow the same rule.
        sim.set_bus_lane("x", 1, 0xdead_beef);
        sim.set_bus_lanes("x", &[0x1234]);
        sim.eval();
        assert_eq!(sim.get_bus_lane("y", 0), 0x1234);
        assert_eq!(sim.get_bus_lane("y", 1), 0xdead_beef);
        let mut both = [0u64; 2];
        sim.get_bus_lanes("ny", &mut both);
        assert_eq!(both, [!0x1234, !0xdead_beef]);
    }

    /// The resolved-port readers and writers agree with the by-name,
    /// per-lane ones at one-word, partial, and multi-word blocks.
    #[test]
    fn resolved_ports_match_by_name_access() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 12);
        let y = b.input_bus("y", 12);
        let (sum, _) = crate::bus::add(&mut b, &x, &y);
        b.output_bus("sum", &sum);
        let nl = b.finish();
        for lanes in [1usize, 25, 100, 512] {
            let mut sim = CompiledSim::with_lanes(&nl, lanes);
            let (px, sum) = (sim.input_port("x"), sim.output_port("sum"));
            let xs: Vec<u64> = (0..lanes as u64).map(|l| l * 37 + 5).collect();
            sim.set_port_lanes(px, &xs);
            sim.set_bus_u64("y", 0x123);
            sim.eval();
            let mut all = vec![0u64; lanes];
            sim.get_port_lanes(sum, &mut all);
            for (lane, &got) in all.iter().enumerate() {
                assert_eq!(got, sim.get_bus_lane("sum", lane), "lane {lane} of {lanes}");
                assert_eq!(got, (xs[lane] + 0x123) & 0xfff);
            }
            assert_eq!(sim.get_port(sum), all[0]);
            let mut prefix = [u64::MAX; 1];
            sim.get_bus_lanes("sum", &mut prefix);
            assert_eq!(prefix[0], all[0], "a short buffer reads the leading lanes");
            sim.set_port(px, 7);
            sim.eval();
            assert_eq!(sim.get_port(sum), 7 + 0x123);
        }
    }

    #[test]
    fn arc_constructors_share_one_netlist() {
        let mut b = Builder::new();
        let x = b.input("x");
        b.output("y", x);
        let nl = std::sync::Arc::new(b.finish());
        // Regression: `with_lanes` used to deep-clone the netlist into a
        // fresh Arc on every construction; the `_arc` constructors share
        // the caller's allocation.
        let a = CompiledSim::with_lanes_arc(nl.clone(), 2);
        let c = CompiledSim::new_arc(nl.clone());
        assert!(std::sync::Arc::ptr_eq(a.netlist_arc(), &nl));
        assert!(std::sync::Arc::ptr_eq(c.netlist_arc(), &nl));
        let sharded = crate::sharded::ShardedSim::with_policy_arc(
            nl.clone(),
            crate::sharded::ShardPolicy {
                shards: 3,
                lanes_per_shard: 4,
                threads: 1,
            },
        );
        for shard in sharded.shards() {
            assert!(std::sync::Arc::ptr_eq(shard.netlist_arc(), &nl));
        }
    }

    /// A mixed sequential/combinational circuit whose levels hold
    /// several ops each, with a quiescent-capable adder cone.
    fn mixed_test_circuit() -> Netlist {
        let mut b = Builder::new();
        let ffs: Vec<NetId> = (0..6).map(|i| b.dff(i % 2 == 0)).collect();
        let one = crate::bus::constant(&mut b, 1, 6);
        let (next, _) = crate::bus::add(&mut b, &ffs, &one);
        for (ff, d) in ffs.iter().zip(&next) {
            b.connect_dff(*ff, *d);
        }
        let x = b.input_bus("x", 16);
        let y = b.input_bus("y", 16);
        let (sum, _) = crate::bus::add(&mut b, &x, &y);
        let xo = crate::bus::xor(&mut b, &sum, &x);
        b.output_bus("sum", &xo);
        b.output_bus("count", &ffs);
        b.finish()
    }

    /// Runs one stimulus schedule (sparse-ish: inputs change every 3rd
    /// settle) and returns (per-settle output reads, toggles, stats).
    fn run_schedule(mut sim: CompiledSim) -> (Vec<(u64, u64)>, Vec<u64>, EvalStats) {
        let mut outs = Vec::new();
        for cycle in 0..40u64 {
            if cycle % 3 == 0 {
                sim.set_bus_u64("x", cycle.wrapping_mul(0x9e37) & 0xffff);
                sim.set_bus_u64("y", cycle.wrapping_mul(0x79b9) & 0xffff);
            }
            sim.eval();
            outs.push((sim.get_bus_u64("sum"), sim.get_bus_u64("count")));
            sim.step();
        }
        let toggles = sim.toggles().to_vec();
        let stats = sim.eval_stats();
        (outs, toggles, stats)
    }

    /// Jit-mode settles (native code where supported, interpreted
    /// fallback elsewhere) are bit-identical to pinned full sweeps —
    /// outputs, FF state, exact toggle counts, *and* EvalStats but for
    /// the engine counter — at one-word, partial-word, and multi-word
    /// lane widths.
    #[test]
    fn jit_mode_matches_full_sweep_bit_identically() {
        let nl = mixed_test_circuit();
        for lanes in [1usize, 2, 64, 100, 256] {
            let mut full = CompiledSim::with_lanes(&nl, lanes);
            full.set_eval_mode(EvalMode::FullSweep);
            let reference = run_schedule(full);
            let mut jit = CompiledSim::with_lanes(&nl, lanes);
            jit.set_eval_mode(EvalMode::Jit);
            let active = jit.jit_active();
            if crate::jit::host_supported() && crate::env::jit() != Some(false) {
                assert!(active, "codegen must engage on a supported host");
            }
            let native = run_schedule(jit);
            assert_eq!(native.0, reference.0, "outputs, {lanes} lanes");
            assert_eq!(native.1, reference.1, "toggles, {lanes} lanes");
            assert_eq!(native.2.work(), reference.2, "stats, {lanes} lanes");
            let native_sweeps = if active { native.2.settles } else { 0 };
            assert_eq!(native.2.native_sweeps, native_sweeps, "{lanes} lanes");
        }
    }

    /// Forcing the portable (non-BMI1) encodings must not change a bit.
    #[test]
    fn jit_without_bmi1_matches() {
        let nl = mixed_test_circuit();
        let mut full = CompiledSim::with_lanes(&nl, 64);
        full.set_eval_mode(EvalMode::FullSweep);
        let reference = run_schedule(full);
        let mut jit = CompiledSim::with_lanes(&nl, 64);
        jit.set_eval_mode(EvalMode::Jit);
        jit.set_jit_options(crate::jit::JitOptions {
            use_bmi1: false,
            ..crate::jit::JitOptions::default()
        });
        let portable = run_schedule(jit);
        assert_eq!(portable.0, reference.0);
        assert_eq!(portable.1, reference.1);
        assert_eq!(portable.2.work(), reference.2);
    }

    /// A code-size cap the program cannot fit under must downgrade to
    /// the interpreter — same results, `jit_active()` reporting false.
    #[test]
    fn jit_code_cap_falls_back_to_interpreter() {
        let nl = mixed_test_circuit();
        let mut full = CompiledSim::with_lanes(&nl, 64);
        full.set_eval_mode(EvalMode::FullSweep);
        let reference = run_schedule(full);
        let mut capped = CompiledSim::with_lanes(&nl, 64);
        capped.set_eval_mode(EvalMode::Jit);
        capped.set_jit_options(crate::jit::JitOptions {
            max_code_bytes: 8,
            ..crate::jit::JitOptions::default()
        });
        assert!(
            !capped.jit_active(),
            "an 8-byte cap cannot hold the program"
        );
        let fallback = run_schedule(capped);
        assert_eq!(fallback.0, reference.0);
        assert_eq!(fallback.1, reference.1);
        assert_eq!(fallback.2, reference.2);
    }

    /// True when this host and environment can emit code at all.
    fn codegen_available() -> bool {
        crate::jit::host_supported() && crate::env::jit() != Some(false)
    }

    /// Runs `settles` settles of a toggling stimulus.
    fn settle_n(sim: &mut CompiledSim, settles: u32) {
        for t in 0..settles {
            sim.set_bus_u64("x", u64::from(t % 5));
            sim.eval();
            sim.step();
        }
    }

    /// An `Auto` simulator over `nl` at `lanes` lanes, whatever
    /// `GATE_SIM_JIT` makes the default mode.
    fn auto_sim(nl: &Netlist, lanes: usize) -> CompiledSim {
        let mut sim = CompiledSim::with_lanes(nl, lanes);
        sim.set_eval_mode(EvalMode::Auto);
        sim
    }

    #[test]
    fn auto_promotes_one_word_sims_after_the_threshold() {
        let nl = mixed_test_circuit();
        for lanes in [1usize, 25, 64] {
            let mut sim = auto_sim(&nl, lanes);
            settle_n(&mut sim, AUTO_NATIVE_AFTER_SETTLES - 1);
            assert!(!sim.jit_active(), "below the threshold, {lanes} lanes");
            settle_n(&mut sim, 1);
            assert_eq!(sim.jit_active(), codegen_available(), "{lanes} lanes");
            assert_eq!(sim.eval_stats().native_sweeps, 0, "promotion is lazy");
            settle_n(&mut sim, 10);
            let stats = sim.eval_stats();
            let native = if codegen_available() { 10 } else { 0 };
            assert_eq!(stats.native_sweeps, native, "{lanes} lanes");
            assert_eq!(stats.settles, u64::from(AUTO_NATIVE_AFTER_SETTLES) + 10);
        }
    }

    #[test]
    fn auto_never_promotes_wide_sims() {
        // Multi-word lane blocks stay on the interpreter, which beats
        // native code there: lane width is the only promotion gate.
        let nl = mixed_test_circuit();
        for lanes in [65usize, 256] {
            let mut sim = auto_sim(&nl, lanes);
            settle_n(&mut sim, 2 * AUTO_NATIVE_AFTER_SETTLES);
            assert!(!sim.jit_active(), "{lanes} lanes");
            assert_eq!(sim.eval_stats().native_sweeps, 0, "{lanes} lanes");
        }
    }

    /// A refusal is visible: settles past the threshold, no native ones.
    #[test]
    fn auto_refused_promotion_keeps_interpreting() {
        let nl = mixed_test_circuit();
        let mut sim = auto_sim(&nl, 1);
        sim.set_jit_options(crate::jit::JitOptions {
            enabled: false,
            ..crate::jit::JitOptions::default()
        });
        settle_n(&mut sim, AUTO_NATIVE_AFTER_SETTLES + 20);
        assert!(!sim.jit_active());
        let stats = sim.eval_stats();
        assert!(stats.settles > u64::from(AUTO_NATIVE_AFTER_SETTLES));
        assert_eq!(stats.native_sweeps, 0);
        assert_eq!(
            sim.auto_settles,
            AUTO_NATIVE_AFTER_SETTLES + 1,
            "one attempt, then never again"
        );
    }

    #[test]
    fn set_eval_mode_restarts_the_promotion_count() {
        let nl = mixed_test_circuit();
        let mut sim = auto_sim(&nl, 1);
        settle_n(&mut sim, AUTO_NATIVE_AFTER_SETTLES - 10);
        sim.set_eval_mode(EvalMode::Auto);
        settle_n(&mut sim, 20);
        assert!(!sim.jit_active(), "the count restarted with the mode");
        assert_eq!(sim.auto_settles, 20);
    }

    /// Code lives as long as its users: a program that outlives its
    /// simulators (as a cache entry does) keeps no code mapped, and the
    /// next simulator over it emits afresh.
    #[test]
    fn code_is_unmapped_with_its_last_simulator() {
        if !codegen_available() {
            return;
        }
        let nl = Arc::new(mixed_test_circuit());
        // A private program, not the process-wide cache's: concurrently
        // running tests over the same circuit would otherwise share (and
        // keep alive) its emission.
        let prog = Arc::new(Program::compile(&nl));
        let mut a = CompiledSim::from_parts(Arc::clone(&nl), Arc::clone(&prog), 1);
        a.set_eval_mode(EvalMode::Jit);
        let weak = Arc::downgrade(a.native_code().expect("codegen available"));
        let mut b = CompiledSim::from_parts(Arc::clone(&nl), Arc::clone(&prog), 1);
        b.set_eval_mode(EvalMode::Auto);
        settle_n(&mut b, AUTO_NATIVE_AFTER_SETTLES);
        let shared = b.native_code().expect("promoted");
        assert!(
            std::ptr::eq(Arc::as_ptr(shared), weak.as_ptr()),
            "a live emission is shared"
        );
        drop((a, b));
        assert!(weak.upgrade().is_none(), "unmapped with its last user");
        let mut c = CompiledSim::from_parts(nl, prog, 1);
        c.set_eval_mode(EvalMode::Jit);
        assert!(c.jit_active(), "the program emits fresh code");
    }

    #[test]
    #[should_panic(expected = "lanes must be in 1..=512")]
    fn zero_lanes_rejected() {
        let mut b = Builder::new();
        let x = b.input("x");
        b.output("y", x);
        let nl = b.finish();
        let _ = CompiledSim::with_lanes(&nl, 0);
    }
}
