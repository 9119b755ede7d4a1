//! Persistent worker-pool runtime for independent claim-loop jobs, with
//! multi-job admission.
//!
//! The useful parallelism of this system is *across* self-contained
//! units — blocks of a mutation campaign, shards of a verification
//! sweep, workloads of a characterisation run — never inside one
//! settle. [`claim_map`] is the one entry point for that shape: it hands
//! out item indices off a shared atomic counter to the participants of
//! one pool job and returns the results in index order. A
//! [`WorkerPool`] keeps its worker threads parked between jobs, so a
//! submission costs a handful of atomic operations instead of a thread
//! spawn, and workers still spinning from the previous job pick the
//! next one up without a wakeup.
//!
//! # The job table
//!
//! The pool admits up to [`MAX_JOBS`] jobs **concurrently**: each
//! submission claims one slot of a fixed job table (a compare-and-swap
//! on the slot's busy flag), publishes its descriptor there, and idle
//! workers scan the table for claimable work — so two independent
//! submitters run at the same time instead of taking turns. Jobs never
//! wait on each other: a participant only runs its own closure to
//! completion, so a worker busy with one job delays another job's tids
//! but can never strand them. A submission that finds all [`MAX_JOBS`]
//! slots busy, or that is made from inside another job ([`in_job`]),
//! runs *inline*: tids `0..participants` execute in order on the
//! calling thread, and [`inline_runs`] counts the event. Admission never
//! blocks on another job's completion.
//!
//! # The per-slot job protocol
//!
//! A job is a type-erased `Fn(tid)` closure executed by `participants`
//! threads: the **caller is tid 0**, pool threads claim tids
//! `1..participants` off the slot's atomic counter. Publication on a
//! slot is generation-stamped:
//!
//! 1. the submitter resets the slot's claim counter to
//!    `(generation + 1, tid 1)`,
//! 2. stores the job descriptor fields (all individually atomic),
//! 3. publishes the slot's new generation, bumps the pool-wide epoch and
//!    unparks parked workers,
//! 4. runs its own share (`f(0)`),
//! 5. blocks on the slot's completion latch (an atomic countdown; the
//!    last finishing worker unparks the caller), then releases the slot.
//!
//! A worker validates its claim with a compare-and-swap that carries the
//! generation stamp: a stale worker that dozed through an entire job
//! observes a mismatched stamp and discards what it read, so a claim can
//! only ever succeed against the slot's currently-published descriptor
//! (jobs on one slot are serialized by the busy flag). Claimed tids are
//! unique, and every side effect of a job happens-before the submitter
//! returns.
//!
//! # Wakeup and parking
//!
//! Idle workers watch the pool-wide publication epoch: they spin (with
//! [`std::thread::yield_now`] on a single hardware thread, where pure
//! spinning would only steal the submitter's quantum), then park. The
//! park/unpark handshake is race-checked in both directions — a worker
//! re-checks the epoch after announcing itself parked, and a submitter
//! unparks every worker whose parked flag it observes after bumping the
//! epoch — so no wakeup is ever lost.
//!
//! # Failure model
//!
//! The pool survives its own participants (normative description in
//! `docs/robustness.md`):
//!
//! * **Panic payloads.** A worker whose closure panics is caught; the
//!   *first* panicking participant's payload is captured in the slot and
//!   surfaces to the submitter — as [`JobError::WorkerPanic`] from
//!   [`WorkerPool::run_with`], or re-raised verbatim by
//!   [`WorkerPool::run`] so the original message is never replaced by a
//!   generic one. The inline path keeps the same semantics.
//! * **Deadlines and cancellation.** [`JobOptions::deadline`] bounds a
//!   job: a lazily spawned watchdog thread (plus the waiting submitter
//!   itself) converts an overrun into [`JobError::DeadlineExceeded`] by
//!   setting the job's cancel flag — observable from inside closures via
//!   [`job_cancelled`] — and *revoking* every not-yet-claimed tid, so
//!   the submitter only waits for participants that actually started.
//!   A claimed participant that neither polls [`job_cancelled`] nor
//!   returns cannot be abandoned (its closure borrows the submitter's
//!   stack), so the return of `DeadlineExceeded` happens once every
//!   *claimed* participant has exited.
//! * **Self-healing roster.** A worker thread that dies outside the
//!   closure catch (in practice: only the `pool::worker_loss` failpoint,
//!   or a bug) completes its claim with a synthesized payload so the
//!   submitter is never stranded, then respawns a replacement for
//!   itself under the roster lock — pool capacity never decays.
//! * **Failpoints.** With the `failpoints` feature, the
//!   [`crate::failpoints`] sites `pool::worker_panic`,
//!   `pool::worker_loss`, `pool::worker_doze` and `pool::stalled_claim`
//!   inject exactly these faults on a deterministic seeded schedule.
//!
//! # Lifecycle
//!
//! The process-wide pool is created lazily by the first user that wants
//! threads ([`WorkerPool::shared`]), grows on demand (a job asking for
//! more workers than exist), and is reference-counted by the simulators
//! and campaigns holding it: dropping the last handle joins every worker
//! thread — no detached threads survive (regression-tested in
//! `crates/netlist/tests/pool_lifecycle.rs`).
//!
//! Results never depend on the pool: [`claim_map`] writes each result
//! into its own index-addressed slot, so which participant ran an item —
//! a worker, the caller, or the inline fallback — cannot change the
//! output (`docs/simulation.md` § "Simulation as a service").

use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Job-table width: jobs admitted concurrently before submissions run
/// inline. Sixteen is far past any realistic service shape (each job
/// already fans out over multiple workers) while keeping the idle-worker
/// scan trivially cheap.
pub const MAX_JOBS: usize = 16;

/// Spin iterations before an idle worker starts yielding, and yield
/// iterations before it parks. On a single hardware thread the spin
/// phase is skipped entirely (spinning can only delay the submitter).
const IDLE_SPINS: u32 = 256;
const IDLE_YIELDS: u32 = 64;

/// A captured panic payload, exactly as [`std::panic::catch_unwind`]
/// returns it.
pub type PanicPayload = Box<dyn Any + Send + 'static>;

thread_local! {
    /// True while the current thread is executing a pool job (as the
    /// submitting caller or as a pool worker). A nested submission from
    /// inside a job could wait on workers its own ancestors hold, so
    /// [`WorkerPool::run_with`] runs it inline when this is set.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };

    /// Cancel flag of the job the current thread is executing (null
    /// outside jobs). Read by [`job_cancelled`]; set around the closure
    /// call by the caller and by serving workers.
    static CANCEL: Cell<*const AtomicBool> = const { Cell::new(std::ptr::null()) };

    /// Job-table index of the claim the current worker thread is
    /// serving, if any. A dying worker's guard uses it to complete the
    /// abandoned claim so the submitter is never stranded.
    static SERVING: Cell<Option<usize>> = const { Cell::new(None) };
}

/// True while the current thread is (transitively) inside a
/// [`WorkerPool::run`] job. A submission made while this holds runs
/// inline on the calling thread (see [`inline_runs`]).
pub fn in_job() -> bool {
    IN_JOB.with(|f| f.get())
}

/// Cooperative cancellation token: true when the job the current thread
/// is participating in has been cancelled (its deadline expired).
///
/// Long-running closures should poll this at natural boundaries (a
/// chunk, a wave, a level) and return early; a closure that never polls
/// cannot be abandoned — see [`JobError::DeadlineExceeded`]. Outside a
/// pool job (including the inline fallback) this is always false.
pub fn job_cancelled() -> bool {
    CANCEL.with(|c| {
        let p = c.get();
        // SAFETY: non-null only while the current thread executes a job
        // closure, and the flag lives in the pool's `Arc<PoolShared>`,
        // which outlives the job (the submitter holds the pool).
        !p.is_null() && unsafe { (*p).load(SeqCst) }
    })
}

/// Runs `f(i, &mut items[i])` for every index of `items` and returns
/// the results in index order.
///
/// With a pool and more than one participant (`threads` capped by the
/// item count) this is one [`WorkerPool::run`] job whose participants
/// claim the next unprocessed index off a single atomic counter the
/// moment they go idle — lock-free, no queue — so uneven per-item loads
/// rebalance automatically. Otherwise (no pool, one thread, or one item)
/// the items run in order on the caller. The claim order is a race; the
/// results are not: the counter hands out each index exactly once and
/// each result lands in its own index-addressed slot, so the output is
/// independent of the pool, the thread count, and the interleaving.
///
/// # Panics
///
/// Re-raises the first panic of `f`, with its original payload.
pub fn claim_map<T, R, F>(
    pool: Option<&WorkerPool>,
    threads: usize,
    items: &mut [T],
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let participants = threads.min(items.len());
    let Some(pool) = pool.filter(|_| participants > 1) else {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    };
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();

    /// Raw, `Sync` view of the item array and the result slots.
    ///
    /// # Safety contract
    ///
    /// Index `i` of both arrays is touched only by the participant whose
    /// `next.fetch_add(1)` returned `i` — the counter hands out each
    /// index exactly once — so all concurrent access is index-disjoint,
    /// and the job's completion latch orders every slot write before the
    /// caller's reads.
    struct Arena<T, R> {
        items: *mut T,
        results: *mut Option<R>,
        len: usize,
    }
    // SAFETY: see the struct-level contract; `T: Send` and `R: Send`
    // because items are mutated and results produced on other threads.
    unsafe impl<T: Send, R: Send> Sync for Arena<T, R> {}

    let arena = Arena {
        items: items.as_mut_ptr(),
        results: results.as_mut_ptr(),
        len: items.len(),
    };
    pool.run(participants, |_tid| {
        // Capture the whole arena, not its raw-pointer fields: the
        // `Sync` contract lives on the struct (edition-2021 closures
        // would otherwise capture the pointers disjointly).
        let arena = &arena;
        loop {
            let i = next.fetch_add(1, SeqCst);
            if i >= arena.len {
                break;
            }
            // SAFETY: the claim counter yielded `i` to this participant
            // alone.
            let r = f(i, unsafe { &mut *arena.items.add(i) });
            // SAFETY: same claim; the slot was preset to `None` and is
            // read back only after the job completes.
            unsafe { *arena.results.add(i) = Some(r) };
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index claimed exactly once"))
        .collect()
}

/// Pool-spawned worker threads currently alive, process-wide. Purely
/// diagnostic: the shutdown/leak regression tests assert this returns to
/// its prior value once the last simulator holding a pool drops.
pub fn alive_workers() -> usize {
    ALIVE_WORKERS.load(SeqCst)
}

static ALIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Jobs that ran inline on the submitting thread because the job table
/// was full or the submission was nested inside another job
/// ([`in_job`]), process-wide. Results are unaffected; the counter makes
/// the fallback visible.
pub fn inline_runs() -> usize {
    INLINE_RUNS.load(SeqCst)
}

static INLINE_RUNS: AtomicUsize = AtomicUsize::new(0);

/// The process-wide shared pool, held weakly: the pool lives exactly as
/// long as some simulator holds a strong handle.
static SHARED: Mutex<Weak<WorkerPool>> = Mutex::new(Weak::new());

/// True when a single hardware thread backs the whole process: busy
/// spinning then only delays the thread being waited on.
fn single_cpu() -> bool {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    }) == 1
}

/// Per-job submission options for [`WorkerPool::run_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct JobOptions {
    /// Upper bound on the job's wall-clock time. When it expires, the
    /// job is cancelled ([`job_cancelled`] turns true, unclaimed tids
    /// are revoked) and the submitter gets
    /// [`JobError::DeadlineExceeded`] instead of blocking forever.
    /// `None` (the default) waits indefinitely, exactly like
    /// [`WorkerPool::run`].
    pub deadline: Option<Duration>,
}

impl JobOptions {
    /// Options with the given deadline.
    pub fn deadline(deadline: Duration) -> JobOptions {
        JobOptions {
            deadline: Some(deadline),
        }
    }
}

/// Typed failure of a pool job, from [`WorkerPool::run_with`].
pub enum JobError {
    /// A participant's closure panicked. `payload` is the *first*
    /// panicking participant's original payload, verbatim —
    /// [`WorkerPool::run`] re-raises it so `panic!("my message")` inside
    /// a job surfaces as `"my message"` at the submitter, never as a
    /// generic pool assertion.
    WorkerPanic {
        /// The captured panic payload.
        payload: PanicPayload,
    },
    /// The job's [`JobOptions::deadline`] expired before every
    /// participant finished. Side effects of participants that *did*
    /// run (including any that finished after cancellation) are visible;
    /// `revoked` tids never started at all.
    DeadlineExceeded {
        /// The deadline that was exceeded.
        deadline: Duration,
        /// Tids revoked before any worker claimed them.
        revoked: usize,
        /// The job's total participant count (caller included).
        participants: usize,
    },
}

impl JobError {
    /// The panic message, when this is a [`JobError::WorkerPanic`] whose
    /// payload is a string (the overwhelmingly common case).
    pub fn panic_message(&self) -> Option<&str> {
        match self {
            JobError::WorkerPanic { payload } => payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str)),
            JobError::DeadlineExceeded { .. } => None,
        }
    }
}

impl std::fmt::Debug for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::WorkerPanic { .. } => f
                .debug_struct("WorkerPanic")
                .field(
                    "message",
                    &self.panic_message().unwrap_or("<non-string payload>"),
                )
                .finish(),
            JobError::DeadlineExceeded {
                deadline,
                revoked,
                participants,
            } => f
                .debug_struct("DeadlineExceeded")
                .field("deadline", deadline)
                .field("revoked", revoked)
                .field("participants", participants)
                .finish(),
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::WorkerPanic { .. } => write!(
                f,
                "a pool worker panicked during the job: {}",
                self.panic_message().unwrap_or("<non-string payload>")
            ),
            JobError::DeadlineExceeded {
                deadline,
                revoked,
                participants,
            } => write!(
                f,
                "job deadline of {deadline:?} exceeded \
                 ({revoked} of {participants} tids revoked unstarted)"
            ),
        }
    }
}

impl std::error::Error for JobError {}

/// The type-erased entry point of a job: `data` is a `*const F` for the
/// submitted closure, `tid` the claimed participant index.
type JobFn = unsafe fn(*const (), usize);

unsafe fn call_job<F: Fn(usize) + Sync>(data: *const (), tid: usize) {
    // SAFETY: `data` was erased from a live `&F` by `run`, which does not
    // return before every participant has finished (completion latch), so
    // the reference is valid for the whole call.
    unsafe { (*(data as *const F))(tid) }
}

/// One entry of the job table. Submitters serialize on [`JobSlot::busy`];
/// everything else follows the per-slot publication protocol in the
/// module docs.
struct JobSlot {
    /// Slot admission flag: a submitter owns the slot from a successful
    /// `false -> true` compare-and-swap until it stores `false` back
    /// after its completion latch — so at most one job ever occupies a
    /// slot, which is what makes `generation`/`claim` reusable.
    busy: AtomicBool,
    /// Latest published job generation *on this slot*. Bumped by 1 per
    /// job; workers validate claims against it.
    generation: AtomicU64,
    /// Tid claim counter, generation-stamped: high 32 bits are the slot
    /// generation the counter belongs to, low 32 bits the next tid to
    /// hand out. The submitter resets it (with the *new* stamp) before
    /// writing the descriptor below, so a compare-and-swap that succeeds
    /// with stamp `g` proves the descriptor fields still belong to job
    /// `g` — a stale worker's CAS fails and it discards what it read.
    /// Deadline expiry *seals* the counter (stores `participants` as the
    /// next tid) to revoke every unclaimed tid atomically.
    claim: AtomicU64,
    /// Job descriptor: closure data pointer, erased entry point, and the
    /// total participant count (caller included). Individually atomic so
    /// a stale worker's read is a race-free stale value, never a torn one.
    job_data: AtomicPtr<()>,
    job_call: AtomicUsize,
    job_participants: AtomicUsize,
    /// Completion latch: pool-side participants that have finished. The
    /// caller waits for `participants - 1 - revoked`.
    done: AtomicUsize,
    /// Cooperative cancellation flag, set on deadline expiry and polled
    /// by closures via [`job_cancelled`].
    cancel: AtomicBool,
    /// Tids revoked unclaimed by deadline expiry; shrinks the caller's
    /// completion target.
    revoked: AtomicUsize,
    /// The first panicking participant's payload; later panics on the
    /// same job are dropped (first wins).
    panic_payload: Mutex<Option<PanicPayload>>,
    /// Absolute deadline of the current job, if any. Scanned by the
    /// watchdog; cleared (one-shot) by whoever expires it, and by the
    /// submitter on release so a stale deadline can never leak into the
    /// slot's next job.
    deadline: Mutex<Option<Instant>>,
    /// The submitting thread, for the completion unpark. Written only by
    /// the slot owner.
    caller: Mutex<Option<Thread>>,
}

impl JobSlot {
    fn new() -> JobSlot {
        JobSlot {
            busy: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            // Stamp 0xffff_ffff can never match generation 0: freshly
            // created slots are unclaimable until their first publish.
            claim: AtomicU64::new(u64::MAX),
            job_data: AtomicPtr::new(std::ptr::null_mut()),
            job_call: AtomicUsize::new(0),
            job_participants: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            cancel: AtomicBool::new(false),
            revoked: AtomicUsize::new(0),
            panic_payload: Mutex::new(None),
            deadline: Mutex::new(None),
            caller: Mutex::new(None),
        }
    }
}

/// Stores `payload` as the slot's panic payload if it is the first.
fn poison(slot: &JobSlot, payload: PanicPayload) {
    let mut sink = slot
        .panic_payload
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    sink.get_or_insert(payload);
}

/// Counts one pool-side participant as finished and unparks the caller
/// when the (revocation-adjusted) completion target is reached. Shared
/// by the normal serve path and the dying-worker guard.
fn complete_participant(slot: &JobSlot) {
    let done = slot.done.fetch_add(1, SeqCst) + 1;
    let participants = slot.job_participants.load(SeqCst);
    let revoked = slot.revoked.load(SeqCst);
    if done + revoked >= participants.saturating_sub(1) {
        let caller = slot
            .caller
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        if let Some(thread) = caller {
            thread.unpark();
        }
    }
}

/// Expires the job currently on `slot`: sets the cancel flag, seals the
/// claim counter so every unclaimed tid is revoked, and wakes the
/// caller to re-evaluate its completion target. Idempotent — the
/// watchdog and the waiting submitter may both call it.
fn expire(slot: &JobSlot) {
    slot.cancel.store(true, SeqCst);
    let generation = slot.generation.load(SeqCst);
    loop {
        let stamped = slot.claim.load(SeqCst);
        if stamped >> 32 != generation & 0xffff_ffff {
            break; // unpublished, or already a newer job (release race)
        }
        let tid = (stamped & 0xffff_ffff) as usize;
        let participants = slot.job_participants.load(SeqCst);
        if tid >= participants {
            break; // fully claimed (or already sealed): nothing to revoke
        }
        let sealed = (stamped & 0xffff_ffff_0000_0000) | participants as u64;
        if slot
            .claim
            .compare_exchange(stamped, sealed, SeqCst, SeqCst)
            .is_ok()
        {
            slot.revoked.store(participants - tid, SeqCst);
            break;
        }
        // Lost a race against a worker claim; re-read and retry.
    }
    let caller = slot
        .caller
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    if let Some(thread) = caller {
        thread.unpark();
    }
}

/// State shared between the submitting callers, the worker threads and
/// the watchdog.
struct PoolShared {
    /// The job table (see [`JobSlot`] and the module docs).
    slots: [JobSlot; MAX_JOBS],
    /// Pool-wide publication counter: bumped once per published job.
    /// Idle workers wait for it to move, then scan the table — the
    /// cheap "is there anything new?" signal that replaces the old
    /// single-descriptor generation watch.
    epoch: AtomicU64,
    /// Lock-free shadow of the roster length (updated under the roster
    /// lock after growth) so size checks never touch the mutex.
    roster_len: AtomicUsize,
    /// Pool shutdown flag (set once, by [`WorkerPool::drop`]).
    shutdown: AtomicBool,
    /// Worker roster. Lives in the shared state (not the [`WorkerPool`]
    /// facade) so a dying worker's guard can respawn its own
    /// replacement. Held only briefly — growth, the post-publish unpark
    /// sweep, respawn — never across a running job.
    roster: Mutex<Vec<Worker>>,
    /// The deadline watchdog thread, spawned lazily by the first
    /// deadline-carrying submission and joined on pool drop.
    watchdog: Mutex<Option<JoinHandle<()>>>,
}

/// One spawned worker: its join handle plus the parked flag the submitter
/// checks to decide whether an unpark syscall is needed.
struct Worker {
    handle: JoinHandle<()>,
    parked: Arc<AtomicBool>,
}

/// Spawns one pool worker thread, incrementing the census. Returns
/// `None` only if the OS refuses the thread (the self-healing guard
/// degrades rather than aborting the unwind).
fn spawn_worker(shared: &Arc<PoolShared>, index: usize) -> Option<Worker> {
    let parked = Arc::new(AtomicBool::new(false));
    let state = Arc::clone(shared);
    let flag = Arc::clone(&parked);
    ALIVE_WORKERS.fetch_add(1, SeqCst);
    match std::thread::Builder::new()
        .name(format!("gate-sim-pool-{}", index + 1))
        .spawn(move || worker_main(state, flag))
    {
        Ok(handle) => Some(Worker { handle, parked }),
        Err(_) => {
            ALIVE_WORKERS.fetch_sub(1, SeqCst);
            None
        }
    }
}

/// A persistent pool of parked worker threads executing up to
/// [`MAX_JOBS`] jobs concurrently (see the module docs for the protocol
/// and the failure model).
///
/// Simulators normally obtain the process-wide instance through
/// [`WorkerPool::shared`] and hold the `Arc` for as long as they want
/// threads; the pool joins all workers when the last handle drops.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.worker_count())
            .field("epoch", &self.shared.epoch.load(SeqCst))
            .finish()
    }
}

impl WorkerPool {
    /// Creates a private pool with `workers` parked worker threads.
    ///
    /// Most callers want [`WorkerPool::shared`] instead so concurrent
    /// simulators reuse one set of OS threads.
    pub fn new(workers: usize) -> WorkerPool {
        let pool = WorkerPool {
            shared: Arc::new(PoolShared {
                slots: std::array::from_fn(|_| JobSlot::new()),
                epoch: AtomicU64::new(0),
                roster_len: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
                roster: Mutex::new(Vec::new()),
                watchdog: Mutex::new(None),
            }),
        };
        pool.ensure_workers(workers);
        pool
    }

    /// The process-wide pool, created lazily and grown to at least
    /// `min_workers` pool-side workers (a job with `participants` total
    /// threads needs `participants - 1` of them; the caller is worker 0).
    ///
    /// The registry holds the pool weakly: simulators keep it alive by
    /// holding the returned [`Arc`], and dropping the last handle joins
    /// every worker. A `GATE_SIM_THREADS` override seeds the initial size
    /// so the first acquisition already matches the CI matrix shape.
    pub fn shared(min_workers: usize) -> Arc<WorkerPool> {
        let mut slot = SHARED.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(pool) = slot.upgrade() {
            pool.ensure_workers(min_workers);
            return pool;
        }
        let seed = crate::env_threads().map_or(0, |n| n.saturating_sub(1));
        let pool = Arc::new(WorkerPool::new(min_workers.max(seed)));
        *slot = Arc::downgrade(&pool);
        pool
    }

    /// Worker threads currently spawned (jobs may use fewer; a job
    /// needing more grows the roster on submit). Lock-free so it can be
    /// read at any time without contending with submissions.
    pub fn worker_count(&self) -> usize {
        self.shared.roster_len.load(SeqCst)
    }

    /// Grows the roster to at least `workers` threads (never shrinks — a
    /// job asking for fewer threads simply leaves the extras parked,
    /// which costs nothing until shutdown). Safe to call from anywhere,
    /// including inside a job: the roster mutex is only ever held for
    /// the duration of thread spawns or an unpark sweep, never across a
    /// running job.
    pub fn ensure_workers(&self, workers: usize) {
        if self.shared.roster_len.load(SeqCst) >= workers {
            return;
        }
        let mut roster = self
            .shared
            .roster
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Self::grow(&self.shared, &mut roster, workers);
    }

    fn grow(shared: &Arc<PoolShared>, roster: &mut Vec<Worker>, workers: usize) {
        while roster.len() < workers {
            let worker =
                spawn_worker(shared, roster.len()).expect("spawning a gate-sim pool worker failed");
            roster.push(worker);
            shared.roster_len.store(roster.len(), SeqCst);
        }
    }

    /// Runs `f(tid)` on `participants` threads — the calling thread is
    /// tid 0, pool threads claim tids `1..participants` — and returns
    /// once every participant has finished. Independent callers run
    /// concurrently, each on its own job-table slot; a caller finding the
    /// whole table busy, or submitting from inside another job, runs the
    /// job inline instead of queueing (see [`inline_runs`]).
    ///
    /// `f` may rely on tids being exactly `0..participants`, each run by
    /// exactly one thread, and on every side effect of the job
    /// happening-before `run` returns.
    ///
    /// # Panics
    ///
    /// Panics — with the *original payload*, see
    /// [`JobError::WorkerPanic`] — if `f` panicked on any participant.
    pub fn run<F: Fn(usize) + Sync>(&self, participants: usize, f: F) {
        match self.run_with(participants, &JobOptions::default(), f) {
            Ok(()) => {}
            Err(JobError::WorkerPanic { payload }) => std::panic::resume_unwind(payload),
            // No deadline was set, so none can have expired.
            Err(e) => panic!("pool job failed without a deadline: {e}"),
        }
    }

    /// [`WorkerPool::run`] with per-job [`JobOptions`] and a typed
    /// result instead of a panic.
    ///
    /// Returns [`JobError::WorkerPanic`] carrying the first panicking
    /// participant's payload, or [`JobError::DeadlineExceeded`] when
    /// [`JobOptions::deadline`] expired first (see the module's
    /// "Failure model" section for exactly what each guarantees). On the
    /// inline path (full job table, or a nested submission) the deadline
    /// is not enforced — the job runs to completion, reporting panics
    /// only.
    ///
    /// # Panics
    ///
    /// Panics if `f` panicked on the *caller's own* share (tid 0) — the
    /// caller's panic unwinds this frame itself and takes precedence over
    /// any `JobError`.
    pub fn run_with<F: Fn(usize) + Sync>(
        &self,
        participants: usize,
        opts: &JobOptions,
        f: F,
    ) -> Result<(), JobError> {
        if participants <= 1 {
            f(0);
            return Ok(());
        }
        if in_job() {
            // A nested submission could wait on workers its own ancestors
            // hold; the caller runs every tid itself instead.
            return run_inline(participants, &f);
        }
        let shared = &*self.shared;
        self.ensure_workers(participants - 1);
        if opts.deadline.is_some() {
            ensure_watchdog(&self.shared);
        }

        let Some(slot) = shared
            .slots
            .iter()
            .find(|s| s.busy.compare_exchange(false, true, SeqCst, SeqCst).is_ok())
        else {
            // Every slot occupied (MAX_JOBS concurrent jobs): run inline
            // instead of queueing behind an unbounded stall. Deadlines
            // are not enforced on this degraded path (documented above).
            return run_inline(participants, &f);
        };

        // Publish the job on the claimed slot (the order here is what the
        // worker-side stale-claim CAS validates; see `JobSlot::claim`).
        let generation = slot.generation.load(SeqCst).wrapping_add(1);
        slot.done.store(0, SeqCst);
        slot.cancel.store(false, SeqCst);
        slot.revoked.store(0, SeqCst);
        *slot
            .panic_payload
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = None;
        let deadline_at = opts.deadline.map(|d| Instant::now() + d);
        if deadline_at.is_some() {
            *slot.deadline.lock().unwrap_or_else(PoisonError::into_inner) = deadline_at;
        }
        // The stamp carries the generation's low 32 bits — a stale worker
        // would have to doze through 2^32 of this slot's jobs to alias,
        // and even then the claim would merely hand it valid work for the
        // *current* job.
        slot.claim
            .store(((generation & 0xffff_ffff) << 32) | 1, SeqCst);
        slot.job_data
            .store(&f as *const F as *const () as *mut (), SeqCst);
        slot.job_call
            .store(call_job::<F> as *const () as usize, SeqCst);
        slot.job_participants.store(participants, SeqCst);
        *slot.caller.lock().unwrap_or_else(PoisonError::into_inner) = Some(std::thread::current());
        slot.generation.store(generation, SeqCst);
        shared.epoch.fetch_add(1, SeqCst);
        // Wake parked workers. Spinning workers see the epoch bump
        // directly; the parked-flag check keeps the hot consecutive-settle
        // path free of unpark syscalls. The roster lock is held only for
        // this sweep.
        {
            let roster = self
                .shared
                .roster
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for worker in roster.iter() {
                if worker.parked.load(SeqCst) {
                    worker.handle.thread().unpark();
                }
            }
        }

        // The completion wait lives in a drop guard so that even a panic
        // in `f(0)` keeps this frame alive until every worker is done
        // with the borrows the job erased.
        struct CompletionGuard<'p> {
            slot: &'p JobSlot,
            participants: usize,
            deadline: Option<Instant>,
        }
        impl Drop for CompletionGuard<'_> {
            fn drop(&mut self) {
                let mut tries = 0u32;
                loop {
                    let done = self.slot.done.load(SeqCst);
                    let revoked = self.slot.revoked.load(SeqCst);
                    if done + revoked >= self.participants - 1 {
                        break;
                    }
                    if let Some(at) = self.deadline {
                        if Instant::now() >= at {
                            // The watchdog normally gets here first;
                            // expiry is idempotent, so racing it is fine.
                            expire(self.slot);
                            self.deadline = None;
                        }
                    }
                    tries += 1;
                    if tries < IDLE_SPINS && !single_cpu() {
                        std::hint::spin_loop();
                    } else if tries < IDLE_SPINS + IDLE_YIELDS {
                        std::thread::yield_now();
                    } else if let Some(at) = self.deadline {
                        // Bounded so this thread itself notices expiry.
                        std::thread::park_timeout(at.saturating_duration_since(Instant::now()));
                    } else if self.slot.cancel.load(SeqCst) {
                        // Post-expiry: bounded parks so a revocation
                        // racing the done latch can never strand us.
                        std::thread::park_timeout(Duration::from_millis(1));
                    } else {
                        // The last finisher always unparks the caller, and
                        // `park` consumes stale tokens harmlessly.
                        std::thread::park();
                    }
                }
            }
        }
        let guard = CompletionGuard {
            slot,
            participants,
            deadline: deadline_at,
        };
        IN_JOB.with(|flag| flag.set(true));
        CANCEL.with(|c| c.set(&slot.cancel as *const AtomicBool));
        let caller_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(0)));
        CANCEL.with(|c| c.set(std::ptr::null()));
        IN_JOB.with(|flag| flag.set(false));
        drop(guard); // blocks until all live pool-side participants finish
        let payload = slot
            .panic_payload
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let cancelled = slot.cancel.load(SeqCst);
        let revoked = slot.revoked.load(SeqCst);
        if deadline_at.is_some() {
            // One-shot hygiene: never leak this job's deadline into the
            // slot's next occupant.
            *slot.deadline.lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
        *slot.caller.lock().unwrap_or_else(PoisonError::into_inner) = None;
        slot.busy.store(false, SeqCst); // job complete: release the slot
        if let Err(payload) = caller_result {
            std::panic::resume_unwind(payload);
        }
        if let Some(payload) = payload {
            return Err(JobError::WorkerPanic { payload });
        }
        if cancelled {
            return Err(JobError::DeadlineExceeded {
                deadline: opts.deadline.unwrap_or_default(),
                revoked,
                participants,
            });
        }
        Ok(())
    }
}

/// The inline fallback of [`WorkerPool::run_with`]: runs tids
/// `0..participants` in order on the calling thread. A panic on tid 0
/// propagates directly; the first panic of any later tid is returned as
/// [`JobError::WorkerPanic`] after the remaining tids have run — the
/// same semantics as a pooled job.
fn run_inline<F: Fn(usize)>(participants: usize, f: &F) -> Result<(), JobError> {
    INLINE_RUNS.fetch_add(1, SeqCst);
    f(0);
    let mut first: Option<PanicPayload> = None;
    for tid in 1..participants {
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(tid))) {
            first.get_or_insert(payload);
        }
    }
    match first {
        Some(payload) => Err(JobError::WorkerPanic { payload }),
        None => Ok(()),
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Shutdown *before* touching the roster: a dying worker's
        // respawn guard re-checks the flag under the roster lock, so no
        // replacement can be spawned after this store.
        self.shared.shutdown.store(true, SeqCst);
        let workers: Vec<Worker> = {
            let mut roster = self
                .shared
                .roster
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            roster.drain(..).collect()
            // Lock released here: a concurrently dying worker's guard can
            // now run (it finds shutdown set and an empty roster), which
            // its join below requires.
        };
        for worker in &workers {
            worker.handle.thread().unpark();
        }
        for worker in workers {
            // A worker that panicked outside a job has already completed
            // its claim via its guard; joining the corpse is still
            // correct.
            let _ = worker.handle.join();
        }
        let watchdog = self
            .shared
            .watchdog
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(handle) = watchdog {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

/// Spawns the deadline watchdog if it is not already running.
fn ensure_watchdog(shared: &Arc<PoolShared>) {
    let mut slot = shared
        .watchdog
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if slot.is_some() {
        return;
    }
    let state = Arc::clone(shared);
    *slot = Some(
        std::thread::Builder::new()
            .name("gate-sim-watchdog".to_string())
            .spawn(move || watchdog_main(state))
            .expect("spawning the gate-sim deadline watchdog failed"),
    );
}

/// The watchdog body: scan the job table for expired deadlines and
/// convert each into a cancellation + revocation (see [`expire`]). The
/// scan interval bounds how late past its deadline a job is detected —
/// the submitter's own bounded waits back it up, so a stalled watchdog
/// cannot reintroduce an unbounded hang.
fn watchdog_main(shared: Arc<PoolShared>) {
    while !shared.shutdown.load(SeqCst) {
        for slot in shared.slots.iter() {
            if !slot.busy.load(SeqCst) {
                continue;
            }
            let expired = {
                let mut deadline = slot.deadline.lock().unwrap_or_else(PoisonError::into_inner);
                match *deadline {
                    Some(at) if Instant::now() >= at => {
                        *deadline = None; // one-shot
                        true
                    }
                    _ => false,
                }
            };
            if expired {
                expire(slot);
            }
        }
        std::thread::park_timeout(Duration::from_micros(500));
    }
}

/// Census + self-healing guard for one worker thread. On a *panicking*
/// exit it completes any claim the thread died holding (so the
/// submitter's completion latch still closes) and respawns a
/// replacement worker in its own roster seat, so pool capacity never
/// decays. On normal shutdown it only maintains the census.
struct WorkerGuard {
    shared: Arc<PoolShared>,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        ALIVE_WORKERS.fetch_sub(1, SeqCst);
        if !std::thread::panicking() {
            return;
        }
        // Finish the claim we died holding: synthesize a payload (there
        // is no caught one — the panic happened outside the closure
        // catch) and count ourselves done so the submitter is unparked,
        // not stranded.
        if let Some(idx) = SERVING.with(|s| s.take()) {
            let slot = &self.shared.slots[idx];
            poison(
                slot,
                Box::new(
                    "pool worker thread lost during the job \
                     (panicked outside the job closure)"
                        .to_string(),
                ),
            );
            complete_participant(slot);
        }
        // Self-heal: replace ourselves in the roster. Shutdown is
        // re-checked under the roster lock — after WorkerPool::drop sets
        // it and drains the roster, no replacement can slip in.
        let mut roster = self
            .shared
            .roster
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if self.shared.shutdown.load(SeqCst) {
            return;
        }
        let me = std::thread::current().id();
        let Some(pos) = roster.iter().position(|w| w.handle.thread().id() == me) else {
            return;
        };
        if let Some(replacement) = spawn_worker(&self.shared, pos) {
            // Dropping our own handle detaches this dying thread; the
            // census was already decremented above.
            roster[pos] = replacement;
        }
    }
}

/// The worker thread body: wait for the publication epoch to move, scan
/// the job table and serve every claimable tid, repeat until shutdown.
fn worker_main(shared: Arc<PoolShared>, parked: Arc<AtomicBool>) {
    let guard = WorkerGuard { shared };
    let shared = &guard.shared;
    let mut last_epoch = 0u64;
    'live: loop {
        if let Some(ms) = crate::failpoints::fire("pool::worker_doze") {
            // Chaos: this worker oversleeps a wakeup; jobs must complete
            // via other workers, revocation, or the worker's late scan.
            std::thread::sleep(Duration::from_millis(ms.max(1)));
        }
        // Phase 1: wait for an epoch we have not scanned from yet.
        let epoch = {
            let mut tries = 0u32;
            loop {
                if shared.shutdown.load(SeqCst) {
                    break 'live;
                }
                let e = shared.epoch.load(SeqCst);
                if e != last_epoch {
                    break e;
                }
                tries += 1;
                if tries < IDLE_SPINS && !single_cpu() {
                    std::hint::spin_loop();
                } else if tries < IDLE_SPINS + IDLE_YIELDS {
                    std::thread::yield_now();
                } else {
                    // Park handshake: announce, re-check, then sleep. A
                    // submitter that misses the flag has bumped the epoch
                    // first, so the re-check catches it; one that sees the
                    // flag sends an unpark whose token makes an
                    // about-to-park `park()` return immediately.
                    parked.store(true, SeqCst);
                    if shared.epoch.load(SeqCst) == last_epoch && !shared.shutdown.load(SeqCst) {
                        std::thread::park();
                    }
                    parked.store(false, SeqCst);
                }
            }
        };
        // Phase 2: sweep the table until a pass serves nothing. A job
        // published mid-sweep either gets served by this pass or bumps
        // the epoch past `epoch`, so the next phase-1 check rescans —
        // no published tid is ever silently skipped.
        loop {
            let mut served = false;
            for (idx, slot) in shared.slots.iter().enumerate() {
                served |= try_serve(slot, idx);
            }
            if !served {
                break;
            }
        }
        last_epoch = epoch;
    }
}

/// Attempts to claim and run one tid of `slot`'s currently published job.
/// Returns whether a closure was executed. `idx` is the slot's table
/// index, registered thread-locally so the dying-worker guard can find
/// the claim.
fn try_serve(slot: &JobSlot, idx: usize) -> bool {
    let generation = slot.generation.load(SeqCst);
    loop {
        let stamped = slot.claim.load(SeqCst);
        if stamped >> 32 != generation & 0xffff_ffff {
            return false; // unpublished slot, or a newer job owns the counter
        }
        let tid = (stamped & 0xffff_ffff) as usize;
        let participants = slot.job_participants.load(SeqCst);
        if tid >= participants {
            return false; // job fully claimed (or sealed by expiry)
        }
        // Read the descriptor *before* validating the claim: CAS success
        // with our stamp proves no later submitter has begun republishing
        // this slot, so these reads were of this job's fields.
        let data = slot.job_data.load(SeqCst);
        let call = slot.job_call.load(SeqCst);
        if let Some(ms) = crate::failpoints::fire("pool::stalled_claim") {
            // Chaos: widen the read-to-CAS window so stale-claim
            // validation races are exercised on purpose.
            std::thread::sleep(Duration::from_millis(ms.max(1)));
        }
        if slot
            .claim
            .compare_exchange(stamped, stamped + 1, SeqCst, SeqCst)
            .is_err()
        {
            continue; // lost the race for this tid; try the next
        }
        SERVING.with(|s| s.set(Some(idx)));
        if crate::failpoints::fire("pool::worker_loss").is_some() {
            // Chaos: die *outside* the closure catch — the WorkerGuard
            // must complete this claim and respawn a replacement.
            panic!("failpoint pool::worker_loss: worker thread killed");
        }
        IN_JOB.with(|flag| flag.set(true));
        CANCEL.with(|c| c.set(&slot.cancel as *const AtomicBool));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if crate::failpoints::fire("pool::worker_panic").is_some() {
                panic!("failpoint pool::worker_panic: injected worker panic");
            }
            // SAFETY: fn-pointer round trip through usize (the only
            // transmute Rust offers for erased fn pointers); the value
            // was produced from `call_job::<F>` for this descriptor.
            let call: JobFn = unsafe { std::mem::transmute::<usize, JobFn>(call) };
            // SAFETY: validated claim — `data` is the submitter's live
            // closure and `tid` is uniquely ours (see module docs).
            unsafe { call(data, tid) };
        }));
        CANCEL.with(|c| c.set(std::ptr::null()));
        IN_JOB.with(|flag| flag.set(false));
        if let Err(payload) = result {
            poison(slot, payload);
        }
        complete_participant(slot);
        SERVING.with(|s| s.set(None));
        return true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_every_tid_exactly_once() {
        let pool = WorkerPool::new(3);
        for participants in [2usize, 3, 4] {
            let hits: Vec<AtomicUsize> = (0..participants).map(|_| AtomicUsize::new(0)).collect();
            pool.run(participants, |tid| {
                hits[tid].fetch_add(1, SeqCst);
            });
            for (tid, hit) in hits.iter().enumerate() {
                assert_eq!(hit.load(SeqCst), 1, "tid {tid} of {participants}");
            }
        }
    }

    #[test]
    fn reuses_workers_across_many_jobs() {
        let pool = WorkerPool::new(1);
        let total = AtomicUsize::new(0);
        for _ in 0..500 {
            pool.run(2, |_| {
                total.fetch_add(1, SeqCst);
            });
        }
        assert_eq!(total.load(SeqCst), 1000);
        assert_eq!(pool.worker_count(), 1, "no spurious growth");
    }

    #[test]
    fn grows_on_demand_and_single_participant_runs_inline() {
        let pool = WorkerPool::new(0);
        pool.run(1, |tid| assert_eq!(tid, 0));
        assert_eq!(pool.worker_count(), 0, "inline jobs spawn nothing");
        let sum = AtomicUsize::new(0);
        pool.run(4, |tid| {
            sum.fetch_add(tid, SeqCst);
        });
        assert_eq!(sum.load(SeqCst), 6, "tids 0..4 each ran once");
        assert_eq!(pool.worker_count(), 3);
    }

    /// The shared claim loop: every index runs exactly once, results
    /// come back in index order under deliberately uneven loads, and the
    /// pooled, sequential and nested (inline) paths agree.
    #[test]
    fn claim_map_returns_results_in_index_order() {
        let pool = WorkerPool::new(3);
        let run = |pool: Option<&WorkerPool>, threads: usize| {
            let mut items: Vec<u64> = (0..9).collect();
            let out = claim_map(pool, threads, &mut items, |i, item| {
                // Uneven loads: later items take longer.
                for _ in 0..i * 1000 {
                    std::hint::black_box(*item);
                }
                *item += 100;
                (i, *item * 2)
            });
            (out, items)
        };
        let reference = run(None, 1);
        assert_eq!(reference.1, (100..109).collect::<Vec<_>>());
        assert_eq!(reference.0[4], (4, 208));
        for threads in [2, 4, 64] {
            assert_eq!(run(Some(&pool), threads), reference, "x{threads}");
        }
        let nested = Mutex::new(None);
        pool.run(2, |tid| {
            if tid == 0 {
                *nested.lock().unwrap() = Some(run(Some(&pool), 4));
            }
        });
        assert_eq!(nested.into_inner().unwrap(), Some(reference));
    }

    #[test]
    fn in_job_is_visible_to_participants() {
        let pool = WorkerPool::new(1);
        assert!(!in_job());
        let all_in_job = AtomicBool::new(true);
        pool.run(2, |_| {
            if !in_job() {
                all_in_job.store(false, SeqCst);
            }
        });
        assert!(all_in_job.load(SeqCst));
        assert!(!in_job(), "flag restored after the job");
    }

    #[test]
    fn drop_joins_synchronously_after_a_job() {
        // The exact process-wide census assertion lives in
        // tests/pool_lifecycle.rs, which owns its own process and
        // serializes pool users — the global ALIVE_WORKERS counter is
        // racy here, where sibling lib tests create and drop pools
        // concurrently. This test pins the behavioral half: a pool that
        // just ran a job can be dropped (Drop joins its workers) without
        // hanging or panicking.
        let pool = WorkerPool::new(4);
        let ran = AtomicUsize::new(0);
        pool.run(5, |_| {
            ran.fetch_add(1, SeqCst);
        });
        assert_eq!(ran.load(SeqCst), 5);
        assert_eq!(pool.worker_count(), 4);
        drop(pool);
    }

    #[test]
    fn worker_panic_is_propagated_not_hung() {
        let pool = WorkerPool::new(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(2, |tid| {
                if tid == 1 {
                    panic!("injected worker failure");
                }
            });
        }));
        assert!(result.is_err(), "the worker panic must reach the caller");
        // The pool stays usable for the next job.
        let ok = AtomicUsize::new(0);
        pool.run(2, |_| {
            ok.fetch_add(1, SeqCst);
        });
        assert_eq!(ok.load(SeqCst), 2);
    }

    /// Regression for the old `assert!(!poisoned, ...)`: the submitter
    /// must see the panicking worker's *original* message, not a generic
    /// pool assertion that swallows it.
    #[test]
    fn worker_panic_payload_reaches_submitter_verbatim() {
        let pool = WorkerPool::new(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(2, |tid| {
                if tid == 1 {
                    panic!("mutant 0xbeef diverged in chunk 7");
                }
            });
        }));
        let payload = result.expect_err("the worker panic must reach the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .expect("payload must still be the original string");
        assert_eq!(message, "mutant 0xbeef diverged in chunk 7");
    }

    /// The typed flavor: `run_with` returns `JobError::WorkerPanic`
    /// carrying the first payload instead of panicking at all.
    #[test]
    fn run_with_returns_typed_worker_panic() {
        let pool = WorkerPool::new(2);
        let err = pool
            .run_with(3, &JobOptions::default(), |tid| {
                if tid != 0 {
                    panic!("typed failure from tid {tid}");
                }
            })
            .expect_err("a worker panicked");
        let message = err.panic_message().expect("string payload");
        assert!(
            message.starts_with("typed failure from tid"),
            "got: {message}"
        );
        // Exactly one payload is captured (first wins); the pool stays
        // usable.
        assert!(pool.run_with(3, &JobOptions::default(), |_| {}).is_ok());
    }

    /// N consecutive panicking jobs, then a clean one at full width: the
    /// pool must remain usable and at full roster width throughout
    /// (closure panics are caught — no worker thread is ever lost; the
    /// hard thread-loss respawn is chaos-tested in tests/chaos.rs).
    #[test]
    fn repeated_panics_keep_the_pool_at_full_width() {
        let pool = WorkerPool::new(3);
        for round in 0..8 {
            let err = pool
                .run_with(4, &JobOptions::default(), |tid| {
                    if tid != 0 {
                        panic!("round {round} tid {tid} down");
                    }
                })
                .expect_err("every round panics");
            assert!(
                err.panic_message().is_some(),
                "payload survives round {round}"
            );
            assert_eq!(pool.worker_count(), 3, "roster intact after round {round}");
        }
        let hits = AtomicUsize::new(0);
        pool.run(4, |_| {
            hits.fetch_add(1, SeqCst);
        });
        assert_eq!(hits.load(SeqCst), 4, "clean job runs every tid");
        assert_eq!(pool.worker_count(), 3);
    }

    /// A job whose workers only exit when cancelled: the deadline must
    /// convert the stall into a typed error instead of hanging, and the
    /// pool must be fully usable afterwards.
    #[test]
    fn deadline_converts_a_stall_into_a_typed_error() {
        let pool = WorkerPool::new(2);
        let polled = AtomicUsize::new(0);
        let err = pool
            .run_with(3, &JobOptions::deadline(Duration::from_millis(20)), |tid| {
                if tid != 0 {
                    // Cooperative stall: spin until the watchdog (or
                    // the waiting submitter) cancels the job.
                    while !job_cancelled() {
                        std::thread::yield_now();
                    }
                    polled.fetch_add(1, SeqCst);
                }
            })
            .expect_err("the deadline must fire");
        match err {
            JobError::DeadlineExceeded {
                deadline,
                participants,
                ..
            } => {
                assert_eq!(deadline, Duration::from_millis(20));
                assert_eq!(participants, 3);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(polled.load(SeqCst), 2, "both workers saw the cancel flag");
        // No poisoned state: the next (deadline-free) job is clean.
        let hits = AtomicUsize::new(0);
        assert!(pool
            .run_with(3, &JobOptions::default(), |_| {
                hits.fetch_add(1, SeqCst);
            })
            .is_ok());
        assert_eq!(hits.load(SeqCst), 3);
    }

    /// A job that finishes comfortably inside its deadline is Ok — the
    /// watchdog must not cancel healthy jobs.
    #[test]
    fn deadline_does_not_fire_on_healthy_jobs() {
        let pool = WorkerPool::new(2);
        for _ in 0..20 {
            let sum = AtomicUsize::new(0);
            pool.run_with(3, &JobOptions::deadline(Duration::from_secs(30)), |tid| {
                sum.fetch_add(tid + 1, SeqCst);
            })
            .expect("healthy job inside its deadline");
            assert_eq!(sum.load(SeqCst), 6);
        }
    }

    #[test]
    fn job_cancelled_is_false_outside_jobs() {
        assert!(!job_cancelled());
        let pool = WorkerPool::new(1);
        let saw_uncancelled = AtomicBool::new(false);
        pool.run(2, |_| {
            if !job_cancelled() {
                saw_uncancelled.store(true, SeqCst);
            }
        });
        assert!(
            saw_uncancelled.load(SeqCst),
            "healthy jobs are not cancelled"
        );
        assert!(!job_cancelled(), "token cleared after the job");
    }

    /// The inline fallback must also preserve the original payload (it
    /// serves both nested submissions and job-table overflow), and keeps
    /// running the remaining tids after one panics.
    #[test]
    fn scoped_fallback_preserves_panic_payload() {
        let pool = WorkerPool::new(1);
        let ran = AtomicUsize::new(0);
        let inner = Mutex::new(None);
        pool.run(2, |tid| {
            if tid != 0 {
                return;
            }
            let before = inline_runs();
            let result = pool.run_with(4, &JobOptions::default(), |tid| {
                ran.fetch_add(1, SeqCst);
                if tid == 2 {
                    panic!("inline tid 2 died");
                }
            });
            assert!(inline_runs() > before, "a nested job runs inline");
            *inner.lock().unwrap() = Some(result);
        });
        let err = inner
            .into_inner()
            .unwrap()
            .expect("the nested job ran")
            .expect_err("the panic must surface");
        assert_eq!(err.panic_message(), Some("inline tid 2 died"));
        assert_eq!(ran.load(SeqCst), 4, "every tid ran despite the panic");
    }

    /// The multi-job acceptance case: job B runs to completion while job
    /// A is deliberately stalled mid-closure. Under the pre-table
    /// protocol B's submitter would block on the submit lock until A
    /// finished — this test would hang.
    #[test]
    fn a_job_completes_while_another_is_stalled() {
        let pool = WorkerPool::new(4);
        let gate_open = AtomicBool::new(false);
        let a_running = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let (pool_ref, gate, running) = (&pool, &gate_open, &a_running);
            scope.spawn(move || {
                pool_ref.run(2, |_| {
                    running.fetch_add(1, SeqCst);
                    while !gate.load(SeqCst) {
                        std::thread::yield_now();
                    }
                });
            });
            // Wait until job A occupies its slot (both participants are
            // spinning on the gate).
            while a_running.load(SeqCst) < 2 {
                std::thread::yield_now();
            }
            // Job B must be admitted and complete while A stays stalled.
            let b_hits = AtomicUsize::new(0);
            pool.run(2, |_| {
                b_hits.fetch_add(1, SeqCst);
            });
            assert_eq!(b_hits.load(SeqCst), 2, "job B ran every tid");
            assert!(
                !gate_open.load(SeqCst),
                "job A was still stalled when B finished"
            );
            gate_open.store(true, SeqCst);
        });
    }

    /// Concurrent submitters from many threads: every job sees exactly
    /// its own tids, whatever the interleaving of the shared roster.
    #[test]
    fn concurrent_submitters_each_get_exact_tids() {
        let pool = WorkerPool::new(0);
        let submitters = 6;
        let rounds = 25;
        std::thread::scope(|scope| {
            for s in 0..submitters {
                let pool = &pool;
                scope.spawn(move || {
                    let participants = 2 + s % 3;
                    for _ in 0..rounds {
                        let sum = AtomicUsize::new(0);
                        pool.run(participants, |tid| {
                            sum.fetch_add(tid + 1, SeqCst);
                        });
                        assert_eq!(
                            sum.load(SeqCst),
                            participants * (participants + 1) / 2,
                            "tids 0..{participants} each ran exactly once"
                        );
                    }
                });
            }
        });
    }

    /// Saturating the job table runs the next submission inline instead
    /// of blocking: a submission arriving while all MAX_JOBS slots are
    /// stalled still completes, and the fallback is counted.
    #[test]
    fn table_overflow_falls_back_to_scoped() {
        let pool = WorkerPool::new(0);
        let gate_open = AtomicBool::new(false);
        let stalled = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..MAX_JOBS {
                let (pool_ref, gate, count) = (&pool, &gate_open, &stalled);
                scope.spawn(move || {
                    pool_ref.run(2, |tid| {
                        if tid == 0 {
                            count.fetch_add(1, SeqCst);
                        }
                        while !gate.load(SeqCst) {
                            std::thread::yield_now();
                        }
                    });
                });
            }
            while stalled.load(SeqCst) < MAX_JOBS {
                std::thread::yield_now();
            }
            // Table full; the next submission must still complete.
            let before = inline_runs();
            let hits = AtomicUsize::new(0);
            pool.run(3, |_| {
                hits.fetch_add(1, SeqCst);
            });
            assert_eq!(hits.load(SeqCst), 3, "overflow job ran every tid");
            assert!(inline_runs() > before, "the overflow job ran inline");
            gate_open.store(true, SeqCst);
        });
    }
}
