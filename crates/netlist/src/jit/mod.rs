//! Native code emission for the compiled op stream.
//!
//! The interpreter in [`crate::compiled`] pays a dispatch branch plus
//! stream-array loads for every op of every settle. This module lowers
//! a levelized [`Program`] one step further: each level becomes a
//! straight-line x86-64 function over the simulator's existing arrays
//! (values / inputs / FF state / toggles / lane masks), executed from
//! an mmap'd W^X buffer. The layers, bottom to top:
//!
//! * [`emit`] — ISA-agnostic [`EmitState`](emit::EmitState): code
//!   buffer, label offsets, pending fixups.
//! * [`x86`] — the x86-64 instruction encoders the kernels need.
//! * [`exec`] — the W^X mappings: a read+write
//!   [`Reservation`](exec::Reservation) code is emitted into, sealed
//!   into a read+execute [`ExecBuf`](exec::ExecBuf) (raw Linux
//!   syscalls; the workspace has no `libc`).
//! * [`lower`] — op stream → [`Lir`](lower::Lir) (constant folding,
//!   ANDN fusion) → machine code, op by op, straight into the
//!   reservation.
//! * this file — [`JitProgram`] (compiled code + entry metadata),
//!   [`JitOptions`], [`JitSlots`] (the per-[`Program`] memo, one slot
//!   per lane-block width, holding a weak reference: code lives exactly
//!   as long as the simulators running it).
//!
//! **The contract is bit-identity.** JIT-evaluated settles must produce
//! exactly the interpreter's values, exact popcount toggle counts, and
//! the same [`crate::EvalStats`] a pinned full sweep would report.
//! Anything the code generator cannot honor that contract for — a
//! non-x86-64/non-Linux host, a missing `popcnt` feature, an op stream
//! it does not implement, an operand offset past the 32-bit
//! displacement range, a code-size cap hit, or an `mmap` refusal —
//! downgrades to the interpreter, never to an error. The normative
//! prose lives in `docs/jit.md`; the enforcement lives in the property
//! tests (`tests/properties.rs`, JIT axis).

pub mod emit;
pub mod exec;
pub mod lower;
pub mod x86;

use crate::compiled::MAX_LANE_WORDS;
use crate::level::{OpCode, Program};
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// Why codegen was not available for a program. Every variant maps to
/// interpreter fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JitError {
    /// Disabled by [`JitOptions::enabled`] (the `GATE_SIM_JIT=0` path).
    Disabled,
    /// Not an x86-64 Linux host with the `popcnt` feature.
    HostUnsupported,
    /// The stream contains an op shape the lowerer does not implement.
    UnsupportedOp {
        /// Index of the offending op in the stream.
        index: usize,
        /// Its opcode.
        opcode: OpCode,
    },
    /// An operand's byte offset exceeds the 32-bit displacement field.
    OperandOutOfRange {
        /// Index of the offending op in the stream.
        index: usize,
    },
    /// Emission failed (code-size cap, unbound label, reloc range).
    Emit(emit::EmitError),
    /// The executable mapping failed.
    Map(exec::MapError),
}

impl std::fmt::Display for JitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JitError::Disabled => write!(f, "jit disabled (options or GATE_SIM_JIT=0)"),
            JitError::HostUnsupported => write!(f, "host lacks x86-64 Linux + popcnt"),
            JitError::UnsupportedOp { index, opcode } => {
                write!(f, "op {index} ({opcode:?}) unsupported outside level 0")
            }
            JitError::OperandOutOfRange { index } => {
                write!(f, "op {index} operand offset exceeds disp32")
            }
            JitError::Emit(e) => write!(f, "emission failed: {e}"),
            JitError::Map(e) => write!(f, "executable mapping failed: {e}"),
        }
    }
}

/// True when this host can run emitted code at all: x86-64 Linux (the
/// only target [`exec`] has syscall shims for) with the `popcnt`
/// feature the toggle-accounting template requires.
pub fn host_supported() -> bool {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    {
        std::arch::is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    {
        false
    }
}

/// True when the emitter may use the BMI1 `andn` encoding.
fn bmi1_supported() -> bool {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    {
        std::arch::is_x86_feature_detected!("bmi1")
    }
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    {
        false
    }
}

/// Codegen tuning and escape hatches. [`Default`] reads the
/// `GATE_SIM_JIT` knob and probes CPU features; tests override fields
/// to force specific fallback paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JitOptions {
    /// Master switch; `false` makes every compile return
    /// [`JitError::Disabled`]. Defaults to `GATE_SIM_JIT != 0`.
    pub enabled: bool,
    /// Cap on emitted code bytes per (program, lane width); exceeding
    /// it falls back. Defaults to 256 MiB — far above any real design,
    /// present so a pathological stream degrades gracefully.
    pub max_code_bytes: usize,
    /// Allow BMI1 `andn` in mux/and-not templates. Defaults to runtime
    /// detection; forcing `false` pins the portable encoding.
    pub use_bmi1: bool,
}

impl Default for JitOptions {
    fn default() -> Self {
        JitOptions {
            enabled: crate::env::jit() != Some(false),
            max_code_bytes: 256 << 20,
            use_bmi1: bmi1_supported(),
        }
    }
}

/// A program compiled to native code for one lane-block width.
///
/// Owns the W^X mapping; unmapped when the last `Arc` goes away — when
/// the last simulator running the code drops or leaves the native path.
/// The [`Program`]'s [`JitSlots`] hold only a weak reference, so neither
/// the program nor a [`crate::cache::ProgramCache`] entry keeps it
/// mapped, and simulators holding `Arc` clones can never outlive it.
#[derive(Debug)]
pub struct JitProgram {
    buf: exec::ExecBuf,
    level_entries: Vec<u32>,
    lane_words: usize,
    code_bytes: usize,
    uses_bmi1: bool,
}

/// The sysv64 signature of the emitted entry: five base pointers, no
/// return value. See `docs/jit.md` § "Calling convention".
type SweepFn = unsafe extern "sysv64" fn(
    values: *mut u64,
    inputs: *const u64,
    ffs: *const u64,
    toggles: *mut u64,
    masks: *const u64,
);

impl JitProgram {
    /// Lane-block word count this code was emitted for.
    pub fn lane_words(&self) -> usize {
        self.lane_words
    }

    /// Emitted code size in bytes (pre page-rounding).
    pub fn code_bytes(&self) -> usize {
        self.code_bytes
    }

    /// Whether the BMI1 `andn` encoding was used.
    pub fn uses_bmi1(&self) -> bool {
        self.uses_bmi1
    }

    /// Per-level function entry offsets (diagnostics; the whole-stream
    /// entry at offset 0 is what [`JitProgram::run`] calls).
    pub fn level_entries(&self) -> &[u32] {
        &self.level_entries
    }

    /// Execute one full combinational sweep: every scheduled op, in
    /// level order, updating `values` and accumulating exact popcount
    /// toggle counts into `toggles` under the active-lane `masks`.
    ///
    /// # Safety
    ///
    /// The pointers must satisfy the layout the code was emitted for —
    /// exactly the arrays of a [`crate::CompiledSim`] built from the
    /// same [`Program`] at the same lane width: `values` and `ffs` hold
    /// `net_count * lane_words` words, `inputs` holds `input_count *
    /// lane_words` words, `toggles` holds `net_count` counters, `masks`
    /// holds `lane_words` words; `values`/`toggles` must be exclusively
    /// borrowed for the duration of the call.
    pub unsafe fn run(
        &self,
        values: *mut u64,
        inputs: *const u64,
        ffs: *const u64,
        toggles: *mut u64,
        masks: *const u64,
    ) {
        let f: SweepFn = std::mem::transmute(self.buf.entry(0));
        f(values, inputs, ffs, toggles, masks);
    }
}

/// Compile `prog` for `lane_words`-word blocks under `opts`. Every
/// failure is a fallback signal, not a fault.
pub fn compile(
    prog: &Program,
    lane_words: usize,
    opts: &JitOptions,
) -> Result<JitProgram, JitError> {
    if !opts.enabled {
        return Err(JitError::Disabled);
    }
    if !host_supported() {
        return Err(JitError::HostUnsupported);
    }
    assert!(
        (1..=MAX_LANE_WORDS).contains(&lane_words),
        "lane_words {lane_words} outside 1..={MAX_LANE_WORDS}"
    );
    let use_bmi1 = opts.use_bmi1 && bmi1_supported();
    if crate::failpoints::fire("jit::emit").is_some() {
        // Chaos: a synthesized emit-budget overflow, indistinguishable
        // to callers from a genuinely oversized lowering — it must take
        // the same silent interpreter fallback.
        return Err(JitError::Emit(emit::EmitError::CodeTooLarge {
            len: usize::MAX,
            cap: opts.max_code_bytes,
        }));
    }
    // Emit in place: reserve an upper bound read+write, lower into it,
    // then seal the used prefix read+execute. A failure anywhere drops
    // the reservation, which unmaps it.
    let bound = lower::code_bound(prog, lane_words).min(opts.max_code_bytes);
    let mut res = exec::Reservation::new(bound).map_err(JitError::Map)?;
    let (code_bytes, level_entries) =
        lower::lower_program(prog, lane_words, res.bytes(), opts.max_code_bytes, use_bmi1)?;
    let buf = res.seal(code_bytes).map_err(JitError::Map)?;
    Ok(JitProgram {
        buf,
        level_entries,
        lane_words,
        code_bytes,
        uses_bmi1: use_bmi1,
    })
}

/// One lane-block width's memo in [`JitSlots`].
enum Slot {
    /// Not attempted, or the last code for this width was unmapped.
    Empty,
    /// Codegen refused this (program, width); decided once.
    Refused,
    /// Code some simulator may still be running.
    Built(Weak<JitProgram>),
}

/// Per-[`Program`] memo of compiled code, one slot per lane-block
/// width. Lives as a private field on `Program`.
///
/// A slot holds a [`Weak`] reference: simulators own their code through
/// `Arc`s, so it is unmapped as soon as the last one drops, and a
/// program kept warm by the process-wide [`crate::cache::ProgramCache`]
/// pins no code. A later request while any user is alive shares the
/// live code; after the last user, it emits afresh. Refusals are
/// memoized for good, so fallback is decided once, not per request.
/// Each slot's lock is held across emission, so concurrent requests
/// (e.g. shards promoting together on `par_shards` threads) share one
/// emission.
///
/// Slots memoize *default-options* compiles only. Custom [`JitOptions`]
/// bypass them — they are test/bench seams, not hot paths. `Clone`
/// yields empty slots: a cloned `Program` may be mutated, and must never
/// run code emitted for its source.
pub struct JitSlots {
    slots: [Mutex<Slot>; MAX_LANE_WORDS],
}

impl JitSlots {
    /// Code for `lane_words`-word blocks under default options: the live
    /// code if some simulator still holds it, else a fresh emission.
    /// `None` means codegen is unavailable for this (program, width) —
    /// callers fall back to the interpreter.
    pub(crate) fn get_or_build(
        &self,
        prog: &Program,
        lane_words: usize,
    ) -> Option<Arc<JitProgram>> {
        let mut slot = self.slots[lane_words - 1]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match &*slot {
            Slot::Refused => return None,
            Slot::Built(code) => {
                if let Some(code) = code.upgrade() {
                    return Some(code);
                }
            }
            Slot::Empty => {}
        }
        match compile(prog, lane_words, &JitOptions::default()) {
            Ok(code) => {
                let code = Arc::new(code);
                *slot = Slot::Built(Arc::downgrade(&code));
                Some(code)
            }
            Err(_) => {
                *slot = Slot::Refused;
                None
            }
        }
    }
}

impl Default for JitSlots {
    fn default() -> Self {
        JitSlots {
            slots: std::array::from_fn(|_| Mutex::new(Slot::Empty)),
        }
    }
}

impl Clone for JitSlots {
    fn clone(&self) -> Self {
        JitSlots::default()
    }
}

impl std::fmt::Debug for JitSlots {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let live: Vec<usize> = (0..MAX_LANE_WORDS)
            .filter(|&k| {
                let slot = self.slots[k].lock().unwrap_or_else(PoisonError::into_inner);
                matches!(&*slot, Slot::Built(code) if code.strong_count() > 0)
            })
            .map(|k| k + 1)
            .collect();
        f.debug_struct("JitSlots")
            .field("live_lane_words", &live)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Builder;

    fn demo_program() -> Program {
        let mut b = Builder::new();
        let x = b.input("x");
        let y = b.input("y");
        let n = b.nand(x, y);
        let o = b.xor(n, x);
        b.output("o", o);
        Program::compile(&b.finish())
    }

    #[test]
    fn disabled_options_report_disabled() {
        let prog = demo_program();
        let opts = JitOptions {
            enabled: false,
            ..JitOptions::default()
        };
        assert_eq!(compile(&prog, 1, &opts).err(), Some(JitError::Disabled));
    }

    #[test]
    fn code_size_cap_falls_back() {
        let prog = demo_program();
        // `enabled: true` overrides a `GATE_SIM_JIT=0` default — the env
        // knob only seeds `JitOptions::default()`.
        let opts = JitOptions {
            enabled: true,
            max_code_bytes: 16,
            ..JitOptions::default()
        };
        match compile(&prog, 1, &opts) {
            Err(JitError::Emit(emit::EmitError::CodeTooLarge { cap: 16, .. })) => {}
            Err(JitError::HostUnsupported) => {} // non-x86-64 builder
            other => panic!("expected CodeTooLarge fallback, got {other:?}"),
        }
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn compiles_and_reports_metadata() {
        let prog = demo_program();
        let opts = JitOptions {
            enabled: true,
            ..JitOptions::default()
        };
        let jp = compile(&prog, 4, &opts).expect("host supports codegen");
        assert_eq!(jp.lane_words(), 4);
        assert!(jp.code_bytes() > 0);
        assert_eq!(jp.level_entries().len(), prog.levels());
    }

    #[test]
    fn slots_memoize_per_width() {
        let prog = demo_program();
        let a = prog.jit(1);
        let b = prog.jit(1);
        match (&a, &b) {
            (Some(x), Some(y)) => assert!(Arc::ptr_eq(x, y), "per-width slot must memoize"),
            (None, None) => {} // unsupported host: memoized failure
            other => panic!("inconsistent memoization: {other:?}"),
        }
    }

    #[test]
    fn slots_do_not_pin_code() {
        let prog = demo_program();
        let Some(code) = prog.jit(1) else {
            return; // unsupported host or GATE_SIM_JIT=0: nothing to pin
        };
        let weak = Arc::downgrade(&code);
        drop(code);
        assert!(
            weak.upgrade().is_none(),
            "the program must not keep code mapped"
        );
        let again = prog.jit(1).expect("a success is not memoized as a refusal");
        assert!(weak.upgrade().is_none(), "a fresh emission, not a revival");
        assert_eq!(again.lane_words(), 1);
    }

    #[test]
    fn slots_memoize_refusals() {
        let mut prog = demo_program();
        // An `Input` op outside level 0 is a shape the lowerer refuses.
        let i = prog.level_ops(1).start;
        prog.opcodes[i] = OpCode::Input;
        assert!(prog.jit(1).is_none());
        assert!(matches!(*prog.jit.slots[0].lock().unwrap(), Slot::Refused));
        assert!(prog.jit(1).is_none(), "the refusal is final");
    }
}
