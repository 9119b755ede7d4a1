//! The `GATE_SIM_*` environment knobs, parsed in one place.
//!
//! Every knob follows the same contract: **unset (or set to the empty
//! string) means default**, a well-formed value overrides, and a
//! malformed value panics — a typo'd CI matrix or shell export must
//! never silently test the wrong configuration. (The empty string
//! counts as unset because CI matrix legs that omit a key would
//! otherwise export `FOO=""` and panic.) The knobs:
//!
//! | variable | values | default | consumers |
//! | --- | --- | --- | --- |
//! | `GATE_SIM_THREADS` | positive integer | auto | [`crate::ShardPolicy::auto`], CI property sweeps |
//! | `GATE_SIM_PROGRAM_CACHE` | `0/1/true/false/on/off` | on | the process-wide [`crate::cache::ProgramCache`]; off recompiles every construction |
//! | `GATE_SIM_JIT` | `0/1/true/false/on/off` | unset | [`crate::jit`]: unset lets [`crate::EvalMode::Auto`] promote ≤64-lane simulators to native code after [`crate::AUTO_NATIVE_AFTER_SETTLES`] settles; `1` makes [`crate::EvalMode::Jit`] the default eval mode (native from the first settle, every width); `0` disables codegen entirely (no promotion; explicit `Jit` falls back to the interpreter) |
//! | `GATE_SIM_FAILPOINTS` | `<seed>:<site>=<rule>[@<arg>],...` | unset | [`crate::failpoints`] chaos schedules (parsed there, not here) — **only with the `failpoints` cargo feature**; in default builds the variable is ignored and the sites compile to nothing |
//!
//! The same table, with prose semantics, lives in the README's
//! "Environment knobs" section — keep the two in sync.
//!
//! The historical entry point `netlist::env_threads` remains as a
//! re-export, so existing callers and the CI matrix scripts keep working
//! unchanged.

/// Thread-count override from the `GATE_SIM_THREADS` environment
/// variable, used by [`crate::ShardPolicy::auto`] and the CI
/// thread-matrix (the property tests read it so the parallel paths run
/// with real concurrency when CI sets it). Returns `None` when unset.
///
/// # Panics
///
/// Panics if the variable is set to anything but a positive integer.
pub fn threads() -> Option<usize> {
    let v = non_empty("GATE_SIM_THREADS")?;
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => panic!("GATE_SIM_THREADS={v} is not a positive integer"),
    }
}

/// Whether `CompiledSim` construction may consult the process-wide
/// [`crate::cache::ProgramCache`], from the `GATE_SIM_PROGRAM_CACHE`
/// environment variable. Unset or `1`/`true`/`on` means enabled;
/// `0`/`false`/`off` forces a fresh [`crate::level::Program`] compile on
/// every construction (the pre-cache behavior — results are bit-identical
/// either way, this is an A/B and escape hatch, mirrored by a CI leg).
///
/// # Panics
///
/// Panics if the variable is set to anything else.
pub fn program_cache_enabled() -> bool {
    switch("GATE_SIM_PROGRAM_CACHE")
}

/// The `GATE_SIM_JIT` tri-state, governing [`crate::jit`] native code
/// emission:
///
/// * unset (`None`) — the default [`crate::EvalMode`] stays `Auto`,
///   which promotes one-word (≤ 64-lane) simulators to
///   native code after [`crate::AUTO_NATIVE_AFTER_SETTLES`] settles;
///   callers select codegen from the first settle with
///   [`crate::CompiledSim::set_eval_mode`]`(EvalMode::Jit)`.
/// * `1`/`true`/`on` (`Some(true)`) — `EvalMode::Jit` becomes the
///   default eval mode for every newly constructed `CompiledSim` (and
///   therefore every `ShardedSim` shard). Hosts without codegen support
///   fall back to interpreted full sweeps, bit-identically.
/// * `0`/`false`/`off` (`Some(false)`) — codegen is disabled outright:
///   `Auto` never promotes and even an explicit `EvalMode::Jit` runs
///   the interpreter.
///
/// # Panics
///
/// Panics if the variable is set to anything else.
pub fn jit() -> Option<bool> {
    tri_switch("GATE_SIM_JIT")
}

/// `Some(value)` of `name` when set non-empty; empty-string counts as
/// unset (a CI matrix leg without the key exports `""`).
fn non_empty(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|v| !v.is_empty())
}

/// Shared on/off parser: unset defaults to on, junk panics.
fn switch(name: &str) -> bool {
    tri_switch(name).unwrap_or(true)
}

/// On/off parser that preserves the unset case: `None` when unset or
/// empty, `Some(bool)` otherwise, junk panics.
fn tri_switch(name: &str) -> Option<bool> {
    match non_empty(name)?.as_str() {
        "1" | "true" | "on" => Some(true),
        "0" | "false" | "off" => Some(false),
        other => panic!("{name}={other} is not one of 0/1/true/false/on/off"),
    }
}
