//! Process-wide compiled-program cache.
//!
//! Every [`crate::CompiledSim`] construction lowers its netlist through
//! [`Program::compile`] — levelization plus SoA op-stream emission, the
//! most expensive step of standing up a simulator. A service-shaped
//! process (many verification/characterisation jobs against a shared
//! block library) compiles the *same* netlists over and over: each
//! `verify_all` sweep re-wraps every block in a fresh [`Arc<Netlist>`],
//! each of the 25 workload cores is rebuilt per characterisation run.
//! The [`ProgramCache`] makes the second and every later construction of
//! a structurally identical netlist free.
//!
//! # The content-hash contract
//!
//! Entries are keyed by a **structural content hash** over the netlist's
//! gate arena and named ports — never by pointer identity or [`Arc`]
//! address. Two `Netlist` values that compare equal share one cached
//! [`Program`]; two that differ anywhere (one replaced gate, one renamed
//! port) never do. Hash collisions cannot cause a false hit: each entry
//! stores its full [`Arc<Netlist>`] and a lookup verifies structural
//! equality (`Netlist == Netlist`, an `O(gates)` compare — orders of
//! magnitude cheaper than a compile) before returning the program. This
//! is the correctness boundary mutation testing leans on: a mutant's
//! netlist hashes (and compares) differently from its block's, so it can
//! never be served the block's program.
//!
//! # Invalidation
//!
//! There is none, by construction: a [`Netlist`] is immutable once built
//! (mutation testing goes through [`Netlist::with_gate_replaced`], which
//! returns a *new* netlist with a new content hash), so a cached program
//! can never go stale. Entries leave the cache only by LRU eviction when
//! the capacity bound is hit, and eviction only drops the cache's own
//! `Arc` — simulators already holding the program keep it alive.
//!
//! `GATE_SIM_PROGRAM_CACHE=0` (see [`crate::env`]) bypasses the global
//! cache entirely; results are bit-identical either way.
//!
//! # Native code does not ride the cache
//!
//! A cached [`Program`] also carries its [`crate::jit`] slots, one per
//! lane-block width, but they hold only weak references: a cache hit
//! shares code that some simulator is still running, and otherwise the
//! next simulator to want native code emits it afresh. An entry held by
//! the cache alone keeps no code mapped, so a warm cache of many cores
//! costs their programs, not their machine code. A structurally new
//! netlist — e.g. a mutant — gets a fresh program with
//! empty slots, so stale code can never run for the wrong netlist. See
//! `docs/jit.md` § "Code lifetime".

use crate::level::Program;
use crate::Netlist;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Default capacity of the process-wide cache, in entries. Generous next
/// to the steady-state working set (the hardware library's ~25 blocks
/// plus a handful of cores) so real workloads never thrash, yet small
/// enough that a service compiling thousands of single-use mutant
/// netlists stays bounded.
pub const DEFAULT_CAPACITY: usize = 256;

/// Hit/miss/eviction counters of a [`ProgramCache`], captured by
/// [`ProgramCache::stats`].
///
/// Counters are cumulative over the cache's lifetime; callers interested
/// in one phase (a sweep, a bench window) snapshot before and after and
/// subtract. `hits + misses` equals the number of cache-routed compile
/// requests; `bypasses` counts constructions that skipped the cache
/// because `GATE_SIM_PROGRAM_CACHE=0` disabled it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from a cached program (no compile ran).
    pub hits: u64,
    /// Lookups that compiled and inserted a fresh program.
    pub misses: u64,
    /// Entries dropped by the LRU capacity bound.
    pub evictions: u64,
    /// Compile requests that skipped the cache (disabled by env).
    pub bypasses: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of cache-routed requests served without compiling, in
    /// `0.0..=1.0` (zero when nothing was requested).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// One resident program: the netlist it was compiled from (the equality
/// witness for collision-proof lookups) and an LRU stamp.
struct Entry {
    netlist: Arc<Netlist>,
    prog: Arc<Program>,
    last_used: u64,
}

/// Hash buckets plus the monotonic LRU clock, behind one mutex. The
/// critical section only ever scans one bucket or (on insert past
/// capacity) the entry table — compiles happen *outside* the lock, so
/// concurrent service jobs compiling different netlists never serialize
/// on the cache.
struct Inner {
    buckets: HashMap<u64, Vec<Entry>>,
    len: usize,
    tick: u64,
}

/// A bounded, content-addressed `Netlist` → [`Program`] cache. See the
/// module docs for the hashing and invalidation contract.
///
/// Most code uses the process-wide instance implicitly through
/// [`crate::CompiledSim::with_lanes_arc`]; [`ProgramCache::global`]
/// exposes it for stats and tests. Private instances
/// ([`ProgramCache::new`]) are always enabled regardless of the
/// environment knob, which keeps unit tests independent of process-global
/// state.
pub struct ProgramCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bypasses: AtomicU64,
}

impl std::fmt::Debug for ProgramCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("ProgramCache")
            .field("capacity", &self.capacity)
            .field("stats", &s)
            .finish()
    }
}

impl ProgramCache {
    /// A private cache bounded to `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> ProgramCache {
        ProgramCache {
            inner: Mutex::new(Inner {
                buckets: HashMap::new(),
                len: 0,
                tick: 0,
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
        }
    }

    /// The process-wide cache every `CompiledSim` construction consults
    /// (unless `GATE_SIM_PROGRAM_CACHE=0`; see [`crate::env`]).
    pub fn global() -> &'static ProgramCache {
        static GLOBAL: OnceLock<ProgramCache> = OnceLock::new();
        GLOBAL.get_or_init(|| ProgramCache::new(DEFAULT_CAPACITY))
    }

    /// The stable structural content hash lookups key on: gates, input
    /// ports and output ports, nothing else. Exposed so tests and
    /// diagnostics can reason about the key; equal netlists always hash
    /// equal, and the cache never trusts the hash alone (see module docs).
    pub fn content_hash(netlist: &Netlist) -> u64 {
        let mut h = DefaultHasher::new();
        netlist.hash(&mut h);
        h.finish()
    }

    /// Returns the compiled program for `netlist`, compiling at most once
    /// per distinct content per residency: a hit shares the cached
    /// [`Arc<Program>`], a miss compiles outside the cache lock and
    /// publishes the result (keeping the winner if another thread raced
    /// the same netlist in, so all simulators share one program).
    pub fn get_or_compile(&self, netlist: &Arc<Netlist>) -> Arc<Program> {
        let key = Self::content_hash(netlist);
        // Chaos: a forced miss recompiles and drives the race-convergent
        // `insert` path below — results are bit-identical because equal
        // netlists compile to equal programs; only the counters move.
        let forced_miss = crate::failpoints::fire("cache::miss").is_some();
        if !forced_miss {
            if let Some(prog) = self.lookup(key, netlist) {
                self.hits.fetch_add(1, SeqCst);
                return prog;
            }
        }
        // Miss: compile with the lock released. Two threads racing the
        // same netlist both compile (identical outputs), and `insert`
        // below keeps whichever published first.
        let prog = Arc::new(Program::compile(netlist));
        self.misses.fetch_add(1, SeqCst);
        self.insert(key, netlist, prog)
    }

    fn lookup(&self, key: u64, netlist: &Netlist) -> Option<Arc<Program>> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner
            .buckets
            .get_mut(&key)?
            .iter_mut()
            // Full structural equality, not just the hash: a collision
            // must miss, never serve a foreign program.
            .find(|e| *e.netlist == *netlist)?;
        entry.last_used = tick;
        Some(Arc::clone(&entry.prog))
    }

    fn insert(&self, key: u64, netlist: &Arc<Netlist>, prog: Arc<Program>) -> Arc<Program> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(existing) = inner
            .buckets
            .get_mut(&key)
            .and_then(|b| b.iter_mut().find(|e| *e.netlist == **netlist))
        {
            // Lost a racing compile of the same content: share the
            // published program so every simulator holds one Arc.
            existing.last_used = tick;
            return Arc::clone(&existing.prog);
        }
        inner.buckets.entry(key).or_default().push(Entry {
            netlist: Arc::clone(netlist),
            prog: Arc::clone(&prog),
            last_used: tick,
        });
        inner.len += 1;
        while inner.len > self.capacity {
            Self::evict_lru(&mut inner);
            self.evictions.fetch_add(1, SeqCst);
        }
        // Chaos: a forced eviction exercises the LRU sweep under
        // pressure that the capacity bound alone would not create. The
        // guard keeps the just-inserted entry alive (mirroring the
        // capacity >= 1 invariant of the organic path).
        if inner.len > 1 && crate::failpoints::fire("cache::evict").is_some() {
            Self::evict_lru(&mut inner);
            self.evictions.fetch_add(1, SeqCst);
        }
        prog
    }

    /// Drops the least-recently-used entry (capacity is >= 1, so the
    /// just-inserted entry always survives its own insert).
    fn evict_lru(inner: &mut Inner) {
        let Some((&key, stamp)) = inner
            .buckets
            .iter()
            .filter_map(|(k, b)| Some((k, b.iter().map(|e| e.last_used).min()?)))
            .min_by_key(|&(_, stamp)| stamp)
        else {
            return;
        };
        let bucket = inner.buckets.get_mut(&key).expect("bucket exists");
        if let Some(i) = bucket.iter().position(|e| e.last_used == stamp) {
            bucket.swap_remove(i);
            inner.len -= 1;
        }
        if bucket.is_empty() {
            inner.buckets.remove(&key);
        }
    }

    /// Drops every entry (counters are kept — they are cumulative).
    /// Simulators holding cached programs are unaffected; the next
    /// construction of each netlist recompiles once.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.buckets.clear();
        inner.len = 0;
    }

    /// A consistent snapshot of the counters and residency.
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len;
        CacheStats {
            hits: self.hits.load(SeqCst),
            misses: self.misses.load(SeqCst),
            evictions: self.evictions.load(SeqCst),
            bypasses: self.bypasses.load(SeqCst),
            entries,
        }
    }

    /// The compile entry point [`crate::CompiledSim`] construction uses:
    /// the global cache when enabled, a counted straight compile when
    /// `GATE_SIM_PROGRAM_CACHE=0`.
    pub(crate) fn compile_via_global(netlist: &Arc<Netlist>) -> Arc<Program> {
        let cache = ProgramCache::global();
        if crate::env::program_cache_enabled() {
            cache.get_or_compile(netlist)
        } else {
            cache.bypasses.fetch_add(1, SeqCst);
            Arc::new(Program::compile(netlist))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Builder, Gate};

    /// A small distinctive netlist; `tag` varies the structure so each
    /// call keys differently.
    fn netlist(tag: usize) -> Arc<Netlist> {
        let mut b = Builder::new();
        let x = b.input_bus("x", 4 + (tag % 3));
        let mut acc = x[0];
        for (i, &bit) in x.iter().enumerate().skip(1) {
            acc = if (tag >> i) & 1 == 1 {
                b.xor(acc, bit)
            } else {
                b.and(acc, bit)
            };
        }
        b.output_bus("y", &[acc]);
        Arc::new(b.finish())
    }

    #[test]
    fn content_equal_netlists_hit_pointer_identity_is_irrelevant() {
        let cache = ProgramCache::new(8);
        let a = netlist(1);
        let b = Arc::new((*a).clone()); // distinct allocation, equal content
        let pa = cache.get_or_compile(&a);
        let pb = cache.get_or_compile(&b);
        assert!(
            Arc::ptr_eq(&pa, &pb),
            "equal content must share one program"
        );
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn structurally_different_netlists_never_share() {
        let cache = ProgramCache::new(8);
        let base = netlist(0);
        // One replaced gate: same shape, different content.
        let gate_id = base.len() as u32 - 1;
        let mutated = Arc::new(base.with_gate_replaced(gate_id, Gate::Not(0)));
        let pa = cache.get_or_compile(&base);
        let pb = cache.get_or_compile(&mutated);
        assert!(!Arc::ptr_eq(&pa, &pb));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2));
    }

    #[test]
    fn port_names_are_part_of_the_content() {
        let build = |out: &str| {
            let mut b = Builder::new();
            let x = b.input_bus("x", 2);
            let y = b.and(x[0], x[1]);
            b.output_bus(out, &[y]);
            Arc::new(b.finish())
        };
        let cache = ProgramCache::new(8);
        cache.get_or_compile(&build("y"));
        cache.get_or_compile(&build("z"));
        assert_eq!(cache.stats().misses, 2, "renamed port must not hit");
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = ProgramCache::new(2);
        let (a, b, c) = (netlist(1), netlist(2), netlist(3));
        cache.get_or_compile(&a); // [a]
        cache.get_or_compile(&b); // [a b]
        cache.get_or_compile(&a); // touch a: b is now coldest
        cache.get_or_compile(&c); // evicts b -> [a c]
        let s = cache.stats();
        assert_eq!((s.evictions, s.entries), (1, 2));
        cache.get_or_compile(&a);
        assert_eq!(cache.stats().hits, 2, "a stayed resident");
        cache.get_or_compile(&b);
        assert_eq!(cache.stats().misses, 4, "b was the eviction victim");
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = ProgramCache::new(8);
        cache.get_or_compile(&netlist(5));
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.misses, s.entries), (1, 0));
        cache.get_or_compile(&netlist(5));
        assert_eq!(cache.stats().misses, 2, "cleared entries recompile once");
    }

    #[test]
    fn hit_rate_reflects_the_mix() {
        let cache = ProgramCache::new(8);
        assert_eq!(cache.stats().hit_rate(), 0.0);
        let a = netlist(7);
        cache.get_or_compile(&a);
        cache.get_or_compile(&a);
        cache.get_or_compile(&a);
        cache.get_or_compile(&a);
        assert!((cache.stats().hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn concurrent_requests_for_one_netlist_converge_on_one_program() {
        let cache = ProgramCache::new(8);
        let nl = netlist(9);
        let progs: Vec<Arc<Program>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let nl = Arc::new((*nl).clone());
                    let cache = &cache;
                    scope.spawn(move || cache.get_or_compile(&nl))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for p in &progs[1..] {
            assert!(
                Arc::ptr_eq(&progs[0], p),
                "racing compiles must converge on the published program"
            );
        }
        assert_eq!(cache.stats().entries, 1);
    }
}
