//! Deterministic, seeded fault injection for chaos testing.
//!
//! The runtime has fallback paths — forced misses and evictions in the
//! [`crate::cache::ProgramCache`], `mmap`/`mprotect` refusal and emit
//! overflow in the [`crate::jit`] — that are only reachable in production when
//! something actually goes wrong. This module makes them reachable on
//! purpose: named *failpoints* are compiled into those modules behind
//! the `failpoints` cargo feature, and a seeded schedule decides, fully
//! deterministically, which hits of which site fire.
//!
//! # Zero cost by default
//!
//! Without the `failpoints` feature (the default), [`fire`] is a
//! `const`-foldable `None` and every call site compiles away. The
//! feature is only enabled by chaos tests and the CI `chaos-smoke`
//! job; release artifacts never carry it. `docs/robustness.md` is the
//! normative description of the failure model this module exercises.
//!
//! # Spec grammar
//!
//! A schedule is configured either programmatically ([`configure`]) or
//! via the `GATE_SIM_FAILPOINTS` environment variable:
//!
//! ```text
//! GATE_SIM_FAILPOINTS = <seed> ":" <site> "=" <rule> [ "@" <arg> ] ( "," <site> "=" <rule> [ "@" <arg> ] )*
//! rule                = "always" | "never" | "once" | "first" <n> | <n> "%"
//! ```
//!
//! * `<seed>` — decimal or `0x`-prefixed hex `u64`; the only source of
//!   randomness. Two runs with the same seed and spec fire the exact
//!   same hits.
//! * `<site>` — one of [`SITES`]; unknown names panic at parse time so
//!   a typo cannot silently disable a schedule.
//! * `always` / `never` / `once` / `first N` — fire on every / no /
//!   only the first / the first N hits of the site.
//! * `N%` — fire pseudo-randomly on about N% of hits; the decision for
//!   hit *k* is a pure function of `(seed, site, k)`.
//! * `@<arg>` — optional site argument (e.g. an errno for `jit::map`).
//!   Defaults to 0; each site documents how it interprets the argument.
//!
//! Example: `GATE_SIM_FAILPOINTS=7:cache::miss=10%,jit::map=always`
//!
//! # Injection sites
//!
//! | site                  | effect when it fires                                                 |
//! |-----------------------|----------------------------------------------------------------------|
//! | `cache::miss`         | program-cache lookup reports a miss even on a hit                    |
//! | `cache::evict`        | program-cache insert immediately evicts the LRU entry                |
//! | `jit::map`            | `Reservation::new` fails with `MapError::Map(arg)` (0 → ENOMEM)      |
//! | `jit::protect`        | `Reservation::seal` fails with `MapError::Protect(arg)` (0 → EACCES) |
//! | `jit::emit`           | `jit::compile` fails with a synthesized `CodeTooLarge`               |
//!
//! All sites are *soft*: every one lands on a path the runtime already
//! survives (typed error, silent fallback, or recovery), which is
//! exactly the property the chaos axis asserts.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Every failpoint site compiled into the runtime. Parse-time
/// validation rejects any site not in this list.
pub const SITES: &[&str] = &[
    "cache::miss",
    "cache::evict",
    "jit::map",
    "jit::protect",
    "jit::emit",
];

/// Should `site` fire now? `None` means "do not fire"; `Some(arg)`
/// carries the site's `@` argument (0 when omitted).
///
/// With the `failpoints` feature disabled this is a constant `None`
/// and the call site optimizes out entirely.
#[inline(always)]
pub fn fire(site: &str) -> Option<u64> {
    #[cfg(feature = "failpoints")]
    {
        active::fire(site)
    }
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = site;
        None
    }
}

/// When to fire a site, decided per hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Fire on every hit.
    Always,
    /// Never fire (useful to switch a site off inside a broad spec).
    Never,
    /// Fire on the first `n` hits only (`once` is `First(1)`).
    First(u64),
    /// Fire pseudo-randomly on about `pct`% of hits, deterministically
    /// from `(seed, site, hit index)`.
    Percent(u64),
}

/// One parsed `<site>=<rule>[@<arg>]` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clause {
    /// The site name (one of [`SITES`]).
    pub site: &'static str,
    /// When the site fires.
    pub rule: Rule,
    /// The `@` argument (0 when omitted).
    pub arg: u64,
}

/// A full failpoint schedule: a seed plus one clause per armed site.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Plan {
    /// The determinism seed.
    pub seed: u64,
    /// The armed sites. Sites without a clause never fire.
    pub clauses: Vec<Clause>,
}

impl Plan {
    /// Parses `<seed>:<spec>` (the `GATE_SIM_FAILPOINTS` grammar).
    ///
    /// # Panics
    ///
    /// Panics on malformed input or unknown site names — same contract
    /// as every other `GATE_SIM_*` knob (see [`crate::env`]).
    pub fn parse(text: &str) -> Plan {
        let bad = |why: &str| -> ! {
            panic!("GATE_SIM_FAILPOINTS: {why} (spec: `{text}`; grammar: <seed>:<site>=<rule>[@<arg>],...)")
        };
        let (seed_text, spec) = match text.split_once(':') {
            Some(parts) => parts,
            None => bad("missing `:` between seed and spec"),
        };
        let seed = parse_u64(seed_text.trim())
            .unwrap_or_else(|| bad("seed must be a decimal or 0x-prefixed u64"));
        let mut clauses = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (site_text, rule_text) = match part.split_once('=') {
                Some(parts) => parts,
                None => bad("clause missing `=`"),
            };
            let site = match SITES.iter().find(|s| **s == site_text.trim()) {
                Some(s) => *s,
                None => bad("unknown failpoint site"),
            };
            let (rule_text, arg) = match rule_text.split_once('@') {
                Some((r, a)) => (
                    r.trim(),
                    parse_u64(a.trim()).unwrap_or_else(|| bad("`@` argument must be a u64")),
                ),
                None => (rule_text.trim(), 0),
            };
            let rule = if rule_text == "always" {
                Rule::Always
            } else if rule_text == "never" {
                Rule::Never
            } else if rule_text == "once" {
                Rule::First(1)
            } else if let Some(n) = rule_text.strip_prefix("first") {
                Rule::First(parse_u64(n.trim()).unwrap_or_else(|| bad("`first` needs a count")))
            } else if let Some(n) = rule_text.strip_suffix('%') {
                let pct = parse_u64(n.trim()).unwrap_or_else(|| bad("percentage must be a u64"));
                if pct > 100 {
                    bad("percentage above 100");
                }
                Rule::Percent(pct)
            } else {
                bad("rule must be always|never|once|first<N>|<N>%")
            };
            clauses.push(Clause { site, rule, arg });
        }
        Plan { seed, clauses }
    }
}

fn parse_u64(text: &str) -> Option<u64> {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

/// Installs `plan` process-wide, resetting every site's hit counter.
/// Overrides any `GATE_SIM_FAILPOINTS` schedule until [`clear`].
///
/// No-op without the `failpoints` feature.
pub fn configure(plan: Plan) {
    #[cfg(feature = "failpoints")]
    active::install(Some(plan));
    #[cfg(not(feature = "failpoints"))]
    let _ = plan;
}

/// Disarms every failpoint, including any `GATE_SIM_FAILPOINTS`
/// schedule (the environment is only latched when *nothing* was ever
/// installed — an explicit clear wins until the next [`configure`]).
pub fn clear() {
    #[cfg(feature = "failpoints")]
    active::install(None);
}

/// Serializes chaos tests: failpoint schedules are process-global, so
/// tests that [`configure`]/[`clear`] must hold this guard for their
/// whole body. Poisoning is ignored — a failing chaos test must not
/// cascade into every later one.
pub fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The deterministic per-hit coin: SplitMix64 over `(seed, site, hit)`.
/// Public so tests can predict exactly which hits of a `N%` site fire.
pub fn coin(seed: u64, site: &str, hit: u64) -> u64 {
    let mut x = seed ^ fnv1a(site) ^ hit.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    // SplitMix64 finalizer.
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The live machinery, only compiled with the `failpoints` feature.
#[cfg(feature = "failpoints")]
mod active {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{OnceLock, RwLock};

    /// An installed plan plus one hit counter per clause.
    struct Armed {
        plan: Plan,
        hits: Vec<AtomicU64>,
    }

    /// `None` inside the outer `Option` = "not yet initialized from the
    /// environment"; `Some(None)` = "explicitly cleared / env unset".
    static ARMED: RwLock<Option<Option<Armed>>> = RwLock::new(None);

    fn arm(plan: Plan) -> Armed {
        let hits = plan.clauses.iter().map(|_| AtomicU64::new(0)).collect();
        Armed { plan, hits }
    }

    pub(super) fn install(plan: Option<Plan>) {
        let mut slot = ARMED.write().unwrap_or_else(PoisonError::into_inner);
        *slot = Some(plan.map(arm));
    }

    fn env_plan() -> Option<Plan> {
        static ENV: OnceLock<Option<Plan>> = OnceLock::new();
        ENV.get_or_init(|| {
            std::env::var("GATE_SIM_FAILPOINTS")
                .ok()
                .filter(|v| !v.trim().is_empty())
                .map(|v| Plan::parse(&v))
        })
        .clone()
    }

    pub(super) fn fire(site: &str) -> Option<u64> {
        {
            let slot = ARMED.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(state) = slot.as_ref() {
                return fire_in(state.as_ref(), site);
            }
        }
        // First hit ever: latch the environment schedule (possibly
        // "none") and retry under the read lock.
        let from_env = env_plan();
        {
            let mut slot = ARMED.write().unwrap_or_else(PoisonError::into_inner);
            if slot.is_none() {
                *slot = Some(from_env.map(arm));
            }
        }
        let slot = ARMED.read().unwrap_or_else(PoisonError::into_inner);
        fire_in(slot.as_ref().and_then(|s| s.as_ref()), site)
    }

    fn fire_in(armed: Option<&Armed>, site: &str) -> Option<u64> {
        let armed = armed?;
        let idx = armed.plan.clauses.iter().position(|c| c.site == site)?;
        let clause = &armed.plan.clauses[idx];
        let hit = armed.hits[idx].fetch_add(1, Ordering::Relaxed);
        let fires = match clause.rule {
            Rule::Always => true,
            Rule::Never => false,
            Rule::First(n) => hit < n,
            Rule::Percent(pct) => coin(armed.plan.seed, site, hit) % 100 < pct,
        };
        fires.then_some(clause.arg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_grammar() {
        let plan = Plan::parse("0x2a:jit::protect=10%@2,jit::map=always,cache::miss=first3");
        assert_eq!(plan.seed, 42);
        assert_eq!(
            plan.clauses,
            vec![
                Clause {
                    site: "jit::protect",
                    rule: Rule::Percent(10),
                    arg: 2
                },
                Clause {
                    site: "jit::map",
                    rule: Rule::Always,
                    arg: 0
                },
                Clause {
                    site: "cache::miss",
                    rule: Rule::First(3),
                    arg: 0
                },
            ]
        );
        assert_eq!(
            Plan::parse("7:jit::emit=once").clauses[0].rule,
            Rule::First(1)
        );
        assert_eq!(
            Plan::parse("7:cache::evict=never").clauses[0].rule,
            Rule::Never
        );
    }

    #[test]
    #[should_panic(expected = "unknown failpoint site")]
    fn parse_rejects_unknown_sites() {
        Plan::parse("1:cache::nonsense=always");
    }

    #[test]
    #[should_panic(expected = "missing `:`")]
    fn parse_rejects_missing_seed() {
        Plan::parse("cache_miss=always");
    }

    #[test]
    #[should_panic(expected = "seed must be a decimal or 0x-prefixed u64")]
    fn parse_rejects_spec_without_a_seed_prefix() {
        // `cache::miss` splits at its own first colon: the "seed" is the
        // word `cache`, which must be rejected loudly.
        Plan::parse("cache::miss=always");
    }

    #[test]
    #[should_panic(expected = "percentage above 100")]
    fn parse_rejects_overlarge_percentage() {
        Plan::parse("1:cache::miss=150%");
    }

    #[test]
    fn coin_is_deterministic_and_site_dependent() {
        assert_eq!(coin(7, "jit::map", 0), coin(7, "jit::map", 0));
        assert_ne!(coin(7, "jit::map", 0), coin(7, "jit::map", 1));
        assert_ne!(coin(7, "jit::map", 0), coin(7, "cache::miss", 0));
        assert_ne!(coin(7, "jit::map", 0), coin(8, "jit::map", 0));
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn rules_fire_deterministically() {
        let _guard = exclusive();
        configure(Plan::parse(
            "9:jit::map=first2@12,cache::miss=50%,cache::evict=never",
        ));
        assert_eq!(fire("jit::map"), Some(12));
        assert_eq!(fire("jit::map"), Some(12));
        assert_eq!(fire("jit::map"), None, "first2 stops after two hits");
        assert_eq!(fire("cache::evict"), None);
        assert_eq!(fire("jit::emit"), None, "unarmed sites never fire");
        // The percent site replays exactly from the coin.
        let got: Vec<bool> = (0..64).map(|_| fire("cache::miss").is_some()).collect();
        let want: Vec<bool> = (0..64)
            .map(|k| coin(9, "cache::miss", k) % 100 < 50)
            .collect();
        assert_eq!(got, want);
        let on = got.iter().filter(|f| **f).count();
        assert!((10..=54).contains(&on), "50% site fired {on}/64 times");
        // Reconfiguring resets hit counters.
        configure(Plan::parse("9:jit::map=once"));
        assert_eq!(fire("jit::map"), Some(0));
        assert_eq!(fire("jit::map"), None);
        clear();
        assert_eq!(fire("jit::map"), None);
    }

    #[cfg(not(feature = "failpoints"))]
    #[test]
    fn disabled_build_never_fires() {
        configure(Plan::parse("9:jit::map=always"));
        assert_eq!(fire("jit::map"), None);
        clear();
    }
}
