//! Persistent worker-pool runtime: epoch-dispatched, work-stealing,
//! allocation-free parallel fan-out.
//!
//! Every parallel region in this workspace has the same shape: run
//! `f(th)` once for each *logical thread* `0..nthreads` of an
//! nnz-balanced schedule, then join. Spawning fresh OS threads through
//! `std::thread::scope` on every call would cost four call sites per
//! MTTKRP pass, one pass per mode per ALS iteration — hundreds of
//! spawn/join round-trips per CPD, each with its own heap allocations —
//! and a *static* contiguous block of logical threads per worker lets
//! one slow worker stall the whole mode even though the logical-thread
//! decomposition is perfectly balanced.
//!
//! [`WorkerPool`] instead creates its workers **once** and keeps them
//! parked between dispatches:
//!
//! * **Epoch dispatch.** A job is published as a raw function pointer
//!   plus an opaque context pointer (the monomorphizing trampoline the
//!   kernels already use for their `Emitter`s — no `&dyn Fn(usize)`
//!   anywhere on the hot path), guarded by a seqlock-style `seq`
//!   counter: odd while the dispatcher writes the slot, bumped to even
//!   to publish. Workers that observe a torn window simply retry.
//! * **Dynamic claiming (work stealing).** Workers claim logical
//!   threads from a single atomic cursor in small chunks instead of
//!   being assigned static ranges, so a straggler (NUMA, frequency
//!   scaling, co-tenancy) only delays the chunks it actually holds.
//!   The cursor word packs a 32-bit job id next to the 32-bit cursor,
//!   so a stale worker waking up with a previous job's snapshot cannot
//!   claim work from the current one (ids wrap only after 2^32
//!   dispatches — see [`pack`] for why that ABA window is accepted).
//! * **Bounded spin-then-park.** Workers spin briefly (cheap when
//!   dispatches arrive back-to-back inside one ALS sweep), then yield,
//!   then park on a condvar. The dispatcher does the same while
//!   waiting for completion. Mutex/condvar on Linux are futex-based:
//!   steady-state dispatch performs **zero allocator calls**, which
//!   `tests/alloc_free.rs` pins with a counting global allocator.
//! * **Determinism.** Which OS worker runs which logical thread is
//!   scheduling-dependent, but every combining step in the kernels
//!   (privatized reduction, boundary-row handling, gram reduction)
//!   already merges contributions in *logical-thread order*, never in
//!   arrival order — so results are bitwise identical for any worker
//!   count, including a one-worker pool that runs every logical thread
//!   in order on the caller (`tests/determinism.rs`).
//!
//! [`Executor`] is the handle the engine and kernels carry: a shared
//! [`WorkerPool`]. It also implements [`linalg::par::Fanout`], so the
//! dense algebra (the CPD driver's mode update, the Gram, the swap
//! count) runs on whichever pool the caller hands it — the engine's own,
//! in `cpd_als` and engine preparation.
//!
//! A run's state lives on its pool, never in a process global: the
//! cancel token (set once, when the engine is prepared) and the span
//! capture ([`WorkerPool::set_tracing`], drained by `cpd_als` into
//! `CpdResult::telemetry`). Concurrent runs in one process therefore
//! never see each other's cancellation or spans. [`global`] is only the
//! default pool of [`crate::MttkrpEngine::executor`]: no run configures
//! it.

use crate::numa::{self, NumaPolicy, NumaTopology};
use crate::sync::{lock_unpoisoned, wait_unpoisoned};
use crate::telemetry::TraceSpan;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, TryLockError};
use std::time::{Duration, Instant};

/// Spin iterations (with `spin_loop` hints) before a waiter starts
/// yielding. Kept modest so oversubscribed pools cede the core quickly.
const SPIN_HINTS: usize = 256;
/// `yield_now` rounds after the spin phase before parking on a condvar.
const YIELD_ROUNDS: usize = 64;

/// Monotonic nanoseconds since a process-wide anchor, for storing
/// deadlines in an `AtomicU64` (0 is reserved for "no deadline").
pub(crate) fn now_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    let anchor = *ANCHOR.get_or_init(Instant::now);
    (anchor.elapsed().as_nanos() as u64).max(1)
}

/// The shared state behind a [`CancelToken`]: a sticky flag plus an
/// optional deadline.
struct CancelState {
    flag: AtomicBool,
    /// Deadline as [`now_ns`] nanoseconds; 0 = no deadline armed.
    deadline_ns: AtomicU64,
}

impl CancelState {
    /// Returns whether the token is (now) cancelled, promoting an
    /// expired deadline into the sticky flag. Reads the clock only when
    /// a deadline is armed.
    fn expired_promote(&self) -> bool {
        if self.flag.load(Ordering::Relaxed) {
            return true;
        }
        let dl = self.deadline_ns.load(Ordering::Relaxed);
        if dl != 0 && now_ns() >= dl {
            self.flag.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }
}

/// A cooperative cancellation token: a shared sticky flag plus an
/// optional deadline.
///
/// Cancellation is *cooperative*: setting the token never interrupts a
/// running chunk. The worker pool checks the flag once (one relaxed
/// load) per chunk claim and skips the remaining logical threads of the
/// job; the ALS driver checks it between modes and iterations and turns
/// it into a typed [`crate::StefError::Cancelled`] after writing a
/// checkpoint. Clones share state — cancel any clone, all observers see
/// it.
#[derive(Clone)]
pub struct CancelToken {
    state: Arc<CancelState>,
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .field("deadline_armed", &self.deadline_armed())
            .finish()
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A fresh, un-cancelled token with no deadline.
    pub fn new() -> Self {
        CancelToken {
            state: Arc::new(CancelState {
                flag: AtomicBool::new(false),
                deadline_ns: AtomicU64::new(0),
            }),
        }
    }

    /// Requests cancellation. Sticky: there is no un-cancel.
    pub fn cancel(&self) {
        self.state.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested (flag only — does not
    /// read the clock; see [`CancelToken::expired`]).
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.state.flag.load(Ordering::Relaxed)
    }

    /// Arms (or re-arms) a deadline `after` from now. The deadline is
    /// promoted into the sticky flag by whichever observer first calls
    /// [`CancelToken::expired`] past it.
    pub fn set_deadline(&self, after: Duration) {
        let dl = now_ns().saturating_add(after.as_nanos().min(u64::MAX as u128) as u64);
        self.state.deadline_ns.store(dl.max(1), Ordering::Relaxed);
    }

    /// Whether a deadline is armed.
    pub fn deadline_armed(&self) -> bool {
        self.state.deadline_ns.load(Ordering::Relaxed) != 0
    }

    /// Whether an armed deadline has passed — distinguishes a timeout
    /// from an explicit [`CancelToken::cancel`] after the fact.
    pub fn deadline_expired(&self) -> bool {
        let dl = self.state.deadline_ns.load(Ordering::Relaxed);
        dl != 0 && now_ns() >= dl
    }

    /// Whether the token is cancelled *or* its deadline has passed,
    /// promoting an expired deadline into the sticky flag.
    pub fn expired(&self) -> bool {
        self.state.expired_promote()
    }
}

/// Why a fan-out did not run every logical thread to completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FanoutError {
    /// At least one logical thread panicked. The panicked threads are
    /// still counted as completed (the join barrier always resolves);
    /// the message is the last recorded panic payload.
    Panicked(String),
    /// The installed [`CancelToken`] fired; unclaimed logical threads
    /// were skipped. Already-claimed chunks ran to completion.
    Cancelled,
}

impl std::fmt::Display for FanoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FanoutError::Panicked(msg) => write!(f, "worker panicked during fan-out: {msg}"),
            FanoutError::Cancelled => write!(f, "fan-out cancelled"),
        }
    }
}

impl std::error::Error for FanoutError {}

/// Best-effort extraction of a human-readable message from a panic
/// payload (allocates — only ever runs on the panic path).
pub(crate) fn payload_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Counters one pool worker accumulates across its lifetime.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerCounters {
    /// Dispatches in which this worker claimed at least one chunk.
    pub busy: u64,
    /// Chunks dynamically claimed from the shared cursor ("steals").
    pub chunks: u64,
    /// Times this worker gave up spinning and parked on the condvar.
    pub parks: u64,
}

/// Aggregate runtime counters, surfaced through `stef::counters` and
/// the `stef analyze` CLI.
#[derive(Clone, Debug, Default)]
pub struct RuntimeCounters {
    /// Total workers (spawned pool threads + the dispatching caller).
    pub workers: usize,
    /// Jobs dispatched through the pool machinery.
    pub dispatches: u64,
    /// Fan-outs executed inline (single logical thread, reentrant
    /// calls, or a contended dispatcher).
    pub inline_runs: u64,
    /// Chunks the dispatching thread claimed for itself.
    pub dispatcher_chunks: u64,
    /// Dispatches in which at least one logical thread panicked (the
    /// panic was isolated and surfaced as a typed error).
    pub panics: u64,
    /// Dispatches cut short by an installed [`CancelToken`].
    pub cancelled_jobs: u64,
    /// Worker threads revived in place after a panic escaped the
    /// per-chunk isolation boundary.
    pub resurrections: u64,
    /// Dead worker threads replaced with freshly spawned ones.
    pub respawns: u64,
    /// Worker threads the pool wanted but could not spawn (at
    /// construction or during healing); the pool degrades to fewer
    /// workers instead of failing.
    pub spawn_failures: u64,
    /// Per spawned worker: busy/steal/park counts.
    pub per_worker: Vec<WorkerCounters>,
}

/// One spawned worker's counter slab, cache-line padded so neighbours
/// never false-share.
#[repr(align(64))]
#[derive(Default)]
struct WorkerStat {
    busy: AtomicU64,
    chunks: AtomicU64,
    parks: AtomicU64,
}

/// One NUMA segment's claim cursor, cache-line padded so cursors of
/// different nodes never false-share. Packs `(job_id << 32) | cursor`
/// exactly like the single-cursor layout it generalizes.
#[repr(align(64))]
struct ClaimCursor {
    cur: AtomicU64,
}

/// One spawned worker's NUMA placement, fixed at pool construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerPlacement {
    /// Claim-segment index (position in the pool's node list, not the
    /// kernel node id). 0 when placement is off.
    pub node: usize,
    /// Whether `sched_setaffinity` to the node's CPUs succeeded on this
    /// worker's thread. Always `false` when placement is off, off
    /// Linux, or when the affinity call was rejected.
    pub pinned: bool,
}

/// Shared dispatcher/worker state. All job fields are atomics: a worker
/// waking mid-publish may read a torn *combination*, but never tears an
/// individual field, and the seqlock validation below discards any
/// inconsistent snapshot before it can be used.
struct Shared {
    /// Seqlock word: odd while the dispatcher writes the job slot,
    /// even once published. `seq >> 1` is the job id.
    seq: AtomicU64,
    /// Trampoline `fn(*const (), usize)` stored as an address.
    call: AtomicUsize,
    /// Opaque context pointer (the borrowed closure) for the trampoline.
    ctx: AtomicUsize,
    nthreads: AtomicUsize,
    chunk: AtomicUsize,
    /// Per-NUMA-segment claim cursors, each
    /// `(job_id << 32) | next_unclaimed_logical_thread` within its
    /// segment. Segment `i` of a job covers logical threads
    /// `[i·nthreads/N, (i+1)·nthreads/N)`; workers drain their own
    /// node's segment first, then steal from the others. Length 1 when
    /// NUMA placement is off — which degenerates to exactly the single
    /// shared cursor this generalizes.
    work: Vec<ClaimCursor>,
    /// Home segment per spawned worker index (all zeros when placement
    /// is off). The dispatching caller always homes at segment 0.
    home_node: Vec<usize>,
    /// CPUs each spawned worker pins to at startup (empty = no pin).
    pin_cpus: Vec<Vec<usize>>,
    /// Whether each spawned worker's affinity call succeeded.
    pinned: Vec<AtomicBool>,
    /// Logical threads fully executed for the current job.
    completed: AtomicUsize,
    shutdown: AtomicBool,
    /// Parking lot for idle workers.
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    /// Parking lot for a dispatcher waiting on completion.
    done_lock: Mutex<()>,
    done_cv: Condvar,
    done_parked: AtomicBool,
    /// The run's cancel token, set once by [`WorkerPool::set_cancel`]
    /// and owned by the pool from then on.
    cancel: OnceLock<CancelToken>,
    /// Whether claim bursts are recorded into `spans`
    /// ([`WorkerPool::set_tracing`]); off by default.
    trace_on: AtomicBool,
    /// Spans recorded while `trace_on` was set, drained by
    /// [`WorkerPool::take_spans`].
    spans: Mutex<Vec<TraceSpan>>,
    /// Logical threads of the *current* job that panicked (reset at
    /// publish). Panicked threads are still counted in `completed`.
    panicked: AtomicUsize,
    /// Last recorded panic payload of the current job.
    panic_msg: Mutex<Option<String>>,
    /// Whether the current job's cursor was swallowed by cancellation.
    job_cancelled: AtomicBool,
    /// Workers revived in place after an escaped panic.
    resurrections: AtomicU64,
    /// Worker threads that have begun executing (ever; respawns count
    /// again). [`WorkerPool::new`] waits for this to reach the spawn
    /// count so per-thread runtime startup — the stack-overflow-handler
    /// install and its thread-name allocation — happens before the
    /// constructor returns, keeping post-construction dispatch
    /// genuinely allocation-free.
    started: AtomicUsize,
    stats: Vec<WorkerStat>,
    /// Per-worker metrics-registry handles, resolved at construction
    /// (registration locks and allocates; incrementing does neither),
    /// so the worker loop can mirror parks/bursts into the registry
    /// without breaking the zero-alloc dispatch invariant.
    wmetrics: Vec<crate::metrics::WorkerHandles>,
}

/// The installed cancel state, if any.
#[inline]
fn cancel_state(s: &Shared) -> Option<&CancelState> {
    s.cancel.get().map(|t| &*t.state)
}

/// The cancellation check used per chunk claim: the token's relaxed
/// flag load, behind the set-once slot's check (no lock, no allocation).
#[inline]
fn cancel_flag(s: &Shared) -> bool {
    cancel_state(s).is_some_and(|c| c.flag.load(Ordering::Relaxed))
}

/// Starts a span when the pool's capture is on: one relaxed load, and
/// the clock is read only while capturing.
#[inline]
fn span_start(s: &Shared) -> Option<u64> {
    s.trace_on.load(Ordering::Relaxed).then(now_ns)
}

/// Closes a span begun by [`span_start`] into the pool's buffer.
fn record_span(s: &Shared, start: Option<u64>, tid: u32, job: u32, chunks: u64) {
    if let Some(start_ns) = start {
        lock_unpoisoned(&s.spans).push(TraceSpan {
            tid,
            job,
            start_ns,
            end_ns: now_ns(),
            chunks,
        });
    }
}

/// Packs the claim word: `(job_id << 32) | next_unclaimed_thread`.
///
/// The job id is the low 32 bits of `seq >> 1`, so it wraps after 2^32
/// dispatches: a worker stalled with a snapshot *exactly* 2^32 jobs old
/// whose cursor value also matches could in principle pass the CAS and
/// claim stale work (classic ABA). This is an accepted, documented
/// assumption rather than a widened id — at the measured sub-microsecond
/// dispatch latency, 2^32 back-to-back dispatches take over an hour of
/// nothing but dispatch, during which the stalled worker would have to
/// stay descheduled between two adjacent loads without the OS ever
/// running it; no realistic schedule produces that.
#[inline]
fn pack(id: u32, cursor: u32) -> u64 {
    (u64::from(id) << 32) | u64::from(cursor)
}

#[inline]
fn unpack(w: u64) -> (u32, u32) {
    ((w >> 32) as u32, w as u32)
}

thread_local! {
    /// Address of the `Shared` block of the pool this thread serves as
    /// a worker (0 on non-pool threads). Scoped *per pool* so a worker
    /// of one pool can still dispatch on a different, idle pool — e.g.
    /// a closure running on one engine's pool fanning out on another
    /// engine's pool. Only a
    /// fan-out back onto the worker's *own* pool is forced inline:
    /// dispatching there would park on a completion barrier this very
    /// thread is supposed to help drain. Cross-pool dispatch cycles
    /// cannot deadlock because a pool's `dispatch_lock` is only ever
    /// `try_lock`ed, failing over to inline execution.
    static WORKER_OF: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Monomorphized per-closure entry point — the only indirect call per
/// logical thread, same cost as the old closure-ref dispatch.
fn trampoline<F: Fn(usize) + Sync>(ctx: usize, th: usize) {
    // SAFETY: `ctx` was produced from `&F` by the `run::<F>` activation
    // that published this job; the completion barrier keeps that borrow
    // alive until every claimed logical thread has finished.
    let f = unsafe { &*(ctx as *const F) };
    f(th);
}

/// Claims chunks from the shared cursor and runs them until the job is
/// drained (or superseded). Returns the number of chunks claimed.
///
/// `tally(first)` runs once per claimed chunk, after the chunk ran and
/// *before* its `finish_chunk` can release the dispatcher's completion
/// barrier, so counters read right after a fan-out returns include
/// every chunk; `first` marks the first chunk of this drain (a burst).
/// The `notify_done` flag is set for workers (the dispatcher polls the
/// `completed` counter itself and must not be woken by its own claims).
#[allow(clippy::too_many_arguments)]
fn drain_work(
    s: &Shared,
    id: u32,
    nthreads: usize,
    chunk: usize,
    run: impl Fn(usize),
    tally: impl Fn(bool),
    notify_done: bool,
    promote_deadline: bool,
    home: usize,
) -> u64 {
    let nsegs = s.work.len();
    let mut claimed = 0u64;
    // Node-local preference: drain the home segment dry before touching
    // the others (cross-node claims are the straggler insurance, not the
    // steady state). With one segment this is the old single-cursor loop.
    for off in 0..nsegs {
        let i = (home + off) % nsegs;
        let slot = &s.work[i].cur;
        let (_, seg_hi) = numa::node_block(nthreads, nsegs, i);
        loop {
            let cur = slot.load(Ordering::Acquire);
            let (wid, wc) = unpack(cur);
            let lo = wc as usize;
            if wid != id || lo >= seg_hi {
                break;
            }
            // Cooperative cancellation, checked once per claim. Workers pay
            // one relaxed load; the dispatcher (`promote_deadline`) also
            // promotes an armed deadline, so it is the only thread that ever
            // reads the clock. On cancel the claimant swallows the rest of
            // the segment's cursor and accounts the skipped logical threads
            // as completed — the join barrier always resolves (the sticky
            // flag swallows every later segment the same way);
            // already-claimed chunks run to completion (that is the chunk
            // granularity of the cancellation contract).
            let cancelled = if promote_deadline {
                cancel_state(s).is_some_and(CancelState::expired_promote)
            } else {
                cancel_flag(s)
            };
            if cancelled {
                if slot
                    .compare_exchange(cur, pack(id, seg_hi as u32), Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    s.job_cancelled.store(true, Ordering::Release);
                    finish_chunk(s, nthreads, seg_hi - lo, notify_done);
                }
                continue;
            }
            let hi = (lo + chunk).min(seg_hi);
            if slot
                .compare_exchange_weak(cur, pack(id, hi as u32), Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            for th in lo..hi {
                // Panic isolation: a panicking logical thread must still be
                // counted as completed below, or the dispatcher sleeps on
                // `done_cv` forever. The payload is recorded for the
                // dispatcher to surface as a typed error after the barrier.
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(th))) {
                    s.panicked.fetch_add(1, Ordering::Relaxed);
                    *lock_unpoisoned(&s.panic_msg) = Some(payload_message(payload.as_ref()));
                }
            }
            tally(claimed == 0);
            claimed += 1;
            finish_chunk(s, nthreads, hi - lo, notify_done);
        }
    }
    claimed
}

/// Counts `done` logical threads as completed and wakes a parked
/// dispatcher when the job just finished. This path must stay
/// panic-free: it is the only code between a claim and its completion
/// accounting, so a panic here (unlike one inside `run`) could strand
/// the dispatcher.
fn finish_chunk(s: &Shared, nthreads: usize, done: usize, notify_done: bool) {
    // SeqCst: release the work just done to the dispatcher's
    // acquire load AND order against the `done_parked` handshake
    // (see `try_fanout`): if the dispatcher parked before this add became
    // visible, we observe `done_parked == true` and wake it.
    let prev = s.completed.fetch_add(done, Ordering::SeqCst);
    if notify_done && prev + done == nthreads && s.done_parked.load(Ordering::SeqCst) {
        drop(lock_unpoisoned(&s.done_lock));
        s.done_cv.notify_one();
    }
}

/// Spawned-thread entry point: serves the pool, reviving itself in
/// place if a panic ever escapes the per-chunk isolation in
/// [`drain_work`] (an infrastructure fault, not a job fault — job
/// panics are caught and recorded without unwinding the worker).
/// Completion accounting is panic-free outside the isolated region, so
/// no dispatcher is ever stranded by the escape.
fn worker_entry(shared: Arc<Shared>, idx: usize) {
    // NUMA placement: pin this thread to its node's CPUs before serving
    // any job, so every page its fills first-touch lands node-local.
    // Affinity is sticky per OS thread — respawned workers re-pin here.
    if let Some(cpus) = shared.pin_cpus.get(idx) {
        if !cpus.is_empty() && numa::pin_to_cpus(cpus) {
            shared.pinned[idx].store(true, Ordering::Release);
        }
    }
    shared.started.fetch_add(1, Ordering::Release);
    WORKER_OF.with(|c| c.set(Arc::as_ptr(&shared) as usize));
    loop {
        if catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, idx))).is_ok() {
            return; // clean shutdown
        }
        shared.resurrections.fetch_add(1, Ordering::Relaxed);
    }
}

fn worker_loop(shared: &Shared, idx: usize) {
    let stat = &shared.stats[idx];
    let home = shared.home_node.get(idx).copied().unwrap_or(0);
    // Last job id this worker fully processed (seq values are even when
    // stable; `seen` stores the raw even seq).
    let mut seen = 0u64;
    loop {
        // ---- wait for a new published job (spin → yield → park) ----
        let mut rounds = 0usize;
        let e1 = loop {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            let s = shared.seq.load(Ordering::Acquire);
            if s != seen && s & 1 == 0 {
                break s;
            }
            rounds += 1;
            if rounds < SPIN_HINTS {
                std::hint::spin_loop();
            } else if rounds < SPIN_HINTS + YIELD_ROUNDS {
                std::thread::yield_now();
            } else {
                stat.parks.fetch_add(1, Ordering::Relaxed);
                shared.wmetrics[idx].park();
                let mut g = lock_unpoisoned(&shared.idle_lock);
                while shared.seq.load(Ordering::Acquire) == seen
                    && !shared.shutdown.load(Ordering::Acquire)
                {
                    g = wait_unpoisoned(&shared.idle_cv, g);
                }
                rounds = 0;
            }
        };
        // ---- seqlock read of the job slot ----
        let call_addr = shared.call.load(Ordering::Acquire);
        let ctx = shared.ctx.load(Ordering::Acquire);
        let nthreads = shared.nthreads.load(Ordering::Acquire);
        let chunk = shared.chunk.load(Ordering::Acquire);
        if shared.seq.load(Ordering::Acquire) != e1 {
            // Publish raced our read: the snapshot may mix two jobs.
            // Retry from the top; the cursor's job id would reject a
            // stale snapshot anyway, but we never act on one.
            continue;
        }
        seen = e1;
        // SAFETY: fn pointers and `usize` are the same size on every
        // supported target; `call_addr` was stored from a real
        // `fn(usize, usize)` by `run` under the validated seqlock.
        let call: fn(usize, usize) = unsafe { std::mem::transmute(call_addr) };
        let id = (e1 >> 1) as u32;
        // Span capture is behind the pool's relaxed flag, off by
        // default; the timestamp reads and the span push only happen
        // while a trace was explicitly requested, so the steady-state
        // hot path (and the zero-alloc invariant) are untouched.
        let t0 = span_start(shared);
        let tally = |first: bool| {
            if first {
                stat.busy.fetch_add(1, Ordering::Relaxed);
            }
            stat.chunks.fetch_add(1, Ordering::Relaxed);
            shared.wmetrics[idx].chunk(first);
        };
        let claimed = drain_work(
            shared,
            id,
            nthreads,
            chunk,
            |th| call(ctx, th),
            tally,
            true,
            false,
            home,
        );
        if claimed > 0 {
            record_span(shared, t0, idx as u32 + 1, id, claimed);
        }
    }
}

/// A persistent pool of parked OS workers, dispatched by epoch.
///
/// A pool of `workers` executes fan-outs on up to `workers` threads:
/// `workers - 1` spawned pool threads plus the dispatching caller.
/// `workers <= 1` spawns nothing and runs every fan-out inline.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Join handles by worker index; `None` while a slot is being
    /// healed. Behind a mutex so [`WorkerPool::heal`] can respawn dead
    /// workers through `&self` (off the dispatch hot path).
    handles: Mutex<Vec<Option<std::thread::JoinHandle<()>>>>,
    /// Live spawned workers (dispatch width is `spawned + 1`). Shrinks
    /// when a spawn fails and the pool degrades instead of panicking.
    workers: AtomicUsize,
    /// Serializes dispatchers; contended callers fall back to inline
    /// execution rather than blocking (the fan-out contract is "each
    /// logical thread exactly once", which inline trivially satisfies).
    dispatch_lock: Mutex<()>,
    dispatches: AtomicU64,
    inline_runs: AtomicU64,
    dispatcher_chunks: AtomicU64,
    panics: AtomicU64,
    cancelled_jobs: AtomicU64,
    respawns: AtomicU64,
    spawn_failures: AtomicU64,
    /// Registry handles for pool-level metrics (dispatch count +
    /// latency histogram, inline runs, panics, cancellations), resolved
    /// at construction for the same zero-alloc reason as
    /// `Shared::wmetrics`.
    metrics: crate::metrics::PoolHandles,
}

fn spawn_worker(shared: &Arc<Shared>, idx: usize) -> std::io::Result<std::thread::JoinHandle<()>> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("stef-pool-{idx}"))
        .spawn(move || worker_entry(shared, idx))
}

impl WorkerPool {
    /// Creates a pool sized for `workers` concurrent executors
    /// (spawning `workers - 1` OS threads, created once and parked).
    ///
    /// Spawn failure is not fatal: the pool degrades to however many
    /// workers the OS granted (logging once and counting the shortfall
    /// in [`RuntimeCounters::spawn_failures`]) — worst case a pool of
    /// one, which runs every fan-out inline.
    pub fn new(workers: usize) -> Self {
        Self::with_numa(workers, NumaPolicy::from_env(), &NumaTopology::detect())
    }

    /// [`WorkerPool::new`] with an explicit NUMA policy and topology.
    ///
    /// Under [`NumaPolicy::Auto`] with more than one node, spawned
    /// workers are split into contiguous per-node blocks, each worker
    /// pins itself to its node's CPUs at startup, and the job cursor
    /// becomes one cursor per node so workers claim node-local chunks
    /// first and steal cross-node only when their own segment runs dry.
    /// With one node (every laptop and most CI) or `Off`, nothing is
    /// pinned and the single-cursor behavior is byte-for-byte the old
    /// one. The topology is passed in (rather than probed) so tests can
    /// exercise multi-node placement on single-node hosts.
    pub fn with_numa(workers: usize, policy: NumaPolicy, topo: &NumaTopology) -> Self {
        let workers = workers.max(1);
        let planned = workers - 1;
        let place = policy == NumaPolicy::Auto && topo.num_nodes() > 1 && planned > 1;
        let nsegs = if place {
            topo.num_nodes().min(planned)
        } else {
            1
        };
        let (home_node, pin_cpus): (Vec<usize>, Vec<Vec<usize>>) = (0..planned)
            .map(|idx| {
                if !place {
                    return (0usize, Vec::new());
                }
                // Contiguous blocks: worker idx's node is the segment
                // whose `node_block(planned, nsegs, ·)` range contains
                // idx (closed-form inverse of the block partition).
                let node = ((idx * nsegs + nsegs - 1) / planned).min(nsegs - 1);
                debug_assert!({
                    let (lo, hi) = numa::node_block(planned, nsegs, node);
                    lo <= idx && idx < hi
                });
                (node, topo.nodes()[node].cpus.clone())
            })
            .unzip();
        let shared = Arc::new(Shared {
            seq: AtomicU64::new(0),
            call: AtomicUsize::new(0),
            ctx: AtomicUsize::new(0),
            nthreads: AtomicUsize::new(0),
            chunk: AtomicUsize::new(1),
            work: (0..nsegs).map(|_| ClaimCursor { cur: AtomicU64::new(0) }).collect(),
            home_node,
            pin_cpus,
            pinned: (0..planned).map(|_| AtomicBool::new(false)).collect(),
            completed: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
            done_parked: AtomicBool::new(false),
            cancel: OnceLock::new(),
            trace_on: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
            panicked: AtomicUsize::new(0),
            panic_msg: Mutex::new(None),
            job_cancelled: AtomicBool::new(false),
            resurrections: AtomicU64::new(0),
            started: AtomicUsize::new(0),
            stats: (0..planned).map(|_| WorkerStat::default()).collect(),
            wmetrics: (0..planned).map(crate::metrics::worker_handles).collect(),
        });
        let mut handles: Vec<Option<std::thread::JoinHandle<()>>> = Vec::with_capacity(planned);
        let mut spawn_failures = 0u64;
        for idx in 0..planned {
            match spawn_worker(&shared, idx) {
                Ok(h) => handles.push(Some(h)),
                Err(e) => {
                    spawn_failures = (planned - idx) as u64;
                    crate::telemetry::warn("runtime", || {
                        format!(
                            "could not spawn pool worker {idx} of {planned} ({e}); \
                             degrading to a {}-worker pool",
                            idx + 1
                        )
                    });
                    break;
                }
            }
        }
        let spawned = handles.len();
        // Rendezvous: a freshly spawned OS thread performs one-time
        // runtime setup (signal-stack handler, thread-name clone — a
        // heap allocation) the first time the scheduler runs it, which
        // on a loaded single-core box can be arbitrarily far after
        // `spawn` returns. Waiting here pins those allocations inside
        // construction, so steady-state dispatch stays allocation-free
        // (asserted by `tests/alloc_free.rs`).
        while shared.started.load(Ordering::Acquire) < spawned {
            std::thread::yield_now();
        }
        WorkerPool {
            shared,
            handles: Mutex::new(handles),
            workers: AtomicUsize::new(spawned + 1),
            dispatch_lock: Mutex::new(()),
            dispatches: AtomicU64::new(0),
            inline_runs: AtomicU64::new(0),
            dispatcher_chunks: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            cancelled_jobs: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            spawn_failures: AtomicU64::new(spawn_failures),
            metrics: crate::metrics::pool_handles(),
        }
    }

    /// Total workers (spawned threads + the dispatching caller). May be
    /// smaller than requested after degraded spawns.
    pub fn workers(&self) -> usize {
        self.workers.load(Ordering::Relaxed)
    }

    /// Number of NUMA claim segments the pool partitions jobs into
    /// (1 when placement is off or the machine has one node).
    pub fn numa_nodes(&self) -> usize {
        self.shared.work.len()
    }

    /// Per spawned worker: its claim segment and whether its affinity
    /// pin succeeded. Empty for a pool of one (nothing is spawned).
    pub fn placement(&self) -> Vec<WorkerPlacement> {
        self.shared
            .home_node
            .iter()
            .enumerate()
            .map(|(i, &node)| WorkerPlacement {
                node,
                pinned: self.shared.pinned[i].load(Ordering::Acquire),
            })
            .collect()
    }

    /// Installs the run's cancellation token, checked by every chunk
    /// claim of every subsequent dispatch. A pool serves one run, so the
    /// token is set once, when the engine is prepared, and never
    /// swapped or cleared.
    ///
    /// # Panics
    /// Panics if a different token is already installed.
    pub fn set_cancel(&self, token: CancelToken) {
        if let Err(token) = self.shared.cancel.set(token) {
            let installed = self.shared.cancel.get().map(|t| &t.state);
            assert!(
                installed.is_some_and(|s| Arc::ptr_eq(s, &token.state)),
                "a pool's cancel token is set once"
            );
        }
    }

    /// Turns span capture on or off for this pool. While on, every
    /// claim burst of every fan-out records one [`TraceSpan`]; turning
    /// it on clears spans left from an earlier capture.
    pub fn set_tracing(&self, on: bool) {
        if on {
            lock_unpoisoned(&self.shared.spans).clear();
        }
        self.shared.trace_on.store(on, Ordering::Relaxed);
    }

    /// Drains the spans captured so far, sorted by thread then start.
    pub fn take_spans(&self) -> Vec<TraceSpan> {
        let mut spans = std::mem::take(&mut *lock_unpoisoned(&self.shared.spans));
        spans.sort_by_key(|s| (s.tid, s.start_ns));
        spans
    }

    /// Joins and replaces any worker thread that died (a panic escaping
    /// even the in-place resurrection loop). Called off the hot path,
    /// only after a dispatch observed a panic. A failed respawn shrinks
    /// the pool instead of erroring.
    fn heal(&self) {
        let mut handles = lock_unpoisoned(&self.handles);
        for (idx, slot) in handles.iter_mut().enumerate() {
            let dead = slot.as_ref().is_some_and(|h| h.is_finished());
            if !dead && slot.is_some() {
                continue;
            }
            if let Some(h) = slot.take() {
                let _ = h.join();
            }
            match spawn_worker(&self.shared, idx) {
                Ok(h) => {
                    *slot = Some(h);
                    self.respawns.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    self.spawn_failures.fetch_add(1, Ordering::Relaxed);
                    let w = self.workers.load(Ordering::Relaxed).saturating_sub(1).max(1);
                    self.workers.store(w, Ordering::Relaxed);
                    crate::telemetry::warn("runtime", || {
                        format!("could not respawn pool worker {idx} ({e}); degrading to {w} workers")
                    });
                }
            }
        }
    }

    /// Whether the current thread is one of *this* pool's workers (a
    /// reentrant fan-out from it must run inline; see [`WORKER_OF`]).
    fn on_own_worker(&self) -> bool {
        WORKER_OF.with(|c| c.get()) == Arc::as_ptr(&self.shared) as usize
    }

    /// Whether every fan-out on this pool runs its logical threads
    /// sequentially on the calling thread. True for a pool of one: it
    /// never publishes a job (every `try_fanout` takes the inline path).
    /// Kernels use this to drop synchronization whose only purpose is
    /// surviving *concurrent* writers — notably the atomic accumulation
    /// sweep, which degrades to plain fused row adds performing the same
    /// additions in the same order, bit for bit.
    pub fn is_serial(&self) -> bool {
        self.workers() <= 1
    }

    /// Whether the installed token (if any) has requested cancellation.
    /// Kernels check this between multi-pass fan-outs to skip passes
    /// whose inputs were already cut short.
    pub fn cancelled(&self) -> bool {
        cancel_flag(&self.shared)
    }

    /// Runs `f(th)` for every `th in 0..nthreads`, returning after the
    /// join barrier (reads after `fanout` see every write the job
    /// performed). A worker panic is isolated, the pool healed, and the
    /// panic re-raised on this thread; a cancellation leaves the job
    /// partially executed (callers observe the token via
    /// [`WorkerPool::cancelled`]). Prefer [`WorkerPool::try_fanout`] for
    /// typed outcomes.
    pub fn fanout<F: Fn(usize) + Sync>(&self, nthreads: usize, f: F) {
        if let Err(FanoutError::Panicked(msg)) = self.try_fanout(nthreads, f) {
            panic!("worker panicked during parallel fan-out: {msg}");
        }
    }

    /// Runs `f(th)` for every logical thread `0..nthreads` and joins,
    /// reporting worker panics and cancellation as typed errors instead
    /// of deadlocking or unwinding. The join barrier always resolves in
    /// bounded time — panicked and skipped logical threads are counted
    /// as completed.
    ///
    /// Steady-state calls perform no heap allocation.
    pub fn try_fanout<F: Fn(usize) + Sync>(&self, nthreads: usize, f: F) -> Result<(), FanoutError> {
        let f = &f;
        if nthreads == 0 {
            return Ok(());
        }
        let s = &*self.shared;
        if nthreads == 1 || self.workers() <= 1 || self.on_own_worker() {
            self.inline_runs.fetch_add(1, Ordering::Relaxed);
            self.metrics.inline_run();
            return traced_inline(s, nthreads, f);
        }
        // One dispatcher at a time; a second concurrent caller (e.g.
        // two threads sharing one pool) runs inline. A
        // poisoned lock is recovered, not propagated: it guards no data.
        let _guard = match self.dispatch_lock.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.inline_runs.fetch_add(1, Ordering::Relaxed);
                self.metrics.inline_run();
                return traced_inline(s, nthreads, f);
            }
        };
        // Promote an armed deadline once per dispatch and refuse to
        // start a job on an already-cancelled token.
        if cancel_state(s).is_some_and(CancelState::expired_promote) {
            self.cancelled_jobs.fetch_add(1, Ordering::Relaxed);
            return Err(FanoutError::Cancelled);
        }
        assert!(nthreads < u32::MAX as usize, "fan-out width overflows the claim cursor");
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        // Dispatch-latency metric (publish → completion barrier). The
        // enabled check precedes the clock read, mirroring the tracing
        // gate, so a disabled registry costs one relaxed load here.
        let m_on = crate::metrics::enabled();
        let mt0 = if m_on { now_ns() } else { 0 };
        let chunk = (nthreads / (4 * self.workers())).max(1);

        // ---- publish the job (seqlock write) ----
        let s0 = s.seq.load(Ordering::Relaxed);
        s.seq.store(s0 + 1, Ordering::Relaxed); // odd: writer active
        // Release fence between the odd store and the field stores
        // (fence-then-store rule): if a reader's Acquire load observes
        // any of the new field values below, the fence synchronizes-with
        // that load, so the odd `seq` store above happens-before the
        // reader's validating `seq` re-load — which therefore cannot
        // still return the old even value and accept a mixed snapshot.
        // Without this fence the Relaxed field stores may become visible
        // *before* the odd store on weakly-ordered targets (aarch64);
        // x86 TSO hides the bug.
        std::sync::atomic::fence(Ordering::Release);
        let id = ((s0 + 2) >> 1) as u32;
        s.call.store(trampoline::<F> as *const () as usize, Ordering::Relaxed);
        s.ctx.store(f as *const F as usize, Ordering::Relaxed);
        s.nthreads.store(nthreads, Ordering::Relaxed);
        s.chunk.store(chunk, Ordering::Relaxed);
        s.completed.store(0, Ordering::Relaxed);
        s.done_parked.store(false, Ordering::Relaxed);
        s.panicked.store(0, Ordering::Relaxed);
        s.job_cancelled.store(false, Ordering::Relaxed);
        for (i, c) in s.work.iter().enumerate() {
            let (lo, _) = numa::node_block(nthreads, s.work.len(), i);
            c.cur.store(pack(id, lo as u32), Ordering::Relaxed);
        }
        s.seq.store(s0 + 2, Ordering::Release); // even: published

        // Wake parked workers. The empty critical section pairs with
        // the workers' check-under-lock: any worker that checked the
        // old seq is now inside `wait`, so `notify_all` reaches it.
        drop(lock_unpoisoned(&s.idle_lock));
        s.idle_cv.notify_all();

        // ---- participate ----
        let t0 = span_start(s);
        let tally = |_| {
            self.dispatcher_chunks.fetch_add(1, Ordering::Relaxed);
        };
        let claimed = drain_work(s, id, nthreads, chunk, f, tally, false, true, 0);
        if claimed > 0 {
            record_span(s, t0, 0, id, claimed);
        }

        // ---- completion barrier (spin → yield → park) ----
        let mut rounds = 0usize;
        while s.completed.load(Ordering::Acquire) < nthreads {
            rounds += 1;
            if rounds < SPIN_HINTS {
                std::hint::spin_loop();
            } else if rounds < SPIN_HINTS + YIELD_ROUNDS {
                std::thread::yield_now();
            } else {
                s.done_parked.store(true, Ordering::SeqCst);
                let mut g = lock_unpoisoned(&s.done_lock);
                while s.completed.load(Ordering::SeqCst) < nthreads {
                    g = wait_unpoisoned(&s.done_cv, g);
                }
                drop(g);
                s.done_parked.store(false, Ordering::Relaxed);
                break;
            }
        }

        if m_on {
            self.metrics.dispatch(now_ns().saturating_sub(mt0));
        }

        // ---- surface the job's outcome as a typed error ----
        if s.panicked.load(Ordering::Acquire) > 0 {
            self.panics.fetch_add(1, Ordering::Relaxed);
            self.metrics.panic();
            crate::flight::record(crate::flight::FlightEvent::WorkerPanic, 0, 0);
            let msg = lock_unpoisoned(&s.panic_msg).take().unwrap_or_default();
            self.heal();
            return Err(FanoutError::Panicked(msg));
        }
        if s.job_cancelled.load(Ordering::Acquire) {
            self.cancelled_jobs.fetch_add(1, Ordering::Relaxed);
            self.metrics.cancelled();
            return Err(FanoutError::Cancelled);
        }
        Ok(())
    }

    /// Snapshot of the pool's counters.
    pub fn counters(&self) -> RuntimeCounters {
        RuntimeCounters {
            workers: self.workers(),
            dispatches: self.dispatches.load(Ordering::Relaxed),
            inline_runs: self.inline_runs.load(Ordering::Relaxed),
            dispatcher_chunks: self.dispatcher_chunks.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            cancelled_jobs: self.cancelled_jobs.load(Ordering::Relaxed),
            resurrections: self.shared.resurrections.load(Ordering::Relaxed),
            respawns: self.respawns.load(Ordering::Relaxed),
            spawn_failures: self.spawn_failures.load(Ordering::Relaxed),
            per_worker: self
                .shared
                .stats
                .iter()
                .map(|w| WorkerCounters {
                    busy: w.busy.load(Ordering::Relaxed),
                    chunks: w.chunks.load(Ordering::Relaxed),
                    parks: w.parks.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        drop(lock_unpoisoned(&self.shared.idle_lock));
        self.shared.idle_cv.notify_all();
        for h in lock_unpoisoned(&self.handles).drain(..).flatten() {
            let _ = h.join();
        }
    }
}

/// [`inline_fanout`] with a dispatcher-track span when tracing is on,
/// so traces stay informative on machines (or reentrant paths) where
/// fan-outs never reach the spawned workers.
fn traced_inline<F: Fn(usize)>(s: &Shared, nthreads: usize, f: &F) -> Result<(), FanoutError> {
    let t0 = span_start(s);
    let r = inline_fanout(s, nthreads, f);
    record_span(s, t0, 0, 0, 1);
    r
}

/// Inline execution with the same typed-outcome contract as a pool
/// dispatch: per-thread panic isolation and per-thread cancellation
/// checks. Used for single-thread jobs, reentrant fan-outs, contended
/// dispatchers, and pools degraded to one worker.
fn inline_fanout<F: Fn(usize)>(s: &Shared, nthreads: usize, f: &F) -> Result<(), FanoutError> {
    for th in 0..nthreads {
        if cancel_flag(s) {
            return Err(FanoutError::Cancelled);
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(th))) {
            return Err(FanoutError::Panicked(payload_message(payload.as_ref())));
        }
    }
    Ok(())
}

/// The handle every fan-out site goes through: a shared [`WorkerPool`].
/// Clones share one pool; the pool's methods are reached through
/// `Deref`.
#[derive(Clone)]
pub struct Executor(Arc<WorkerPool>);

impl Executor {
    /// A pool sized for `workers` concurrent executors, placed per the
    /// `STEF_NUMA` env default.
    pub fn new(workers: usize) -> Self {
        Executor(Arc::new(WorkerPool::new(workers)))
    }

    /// [`Executor::new`] with an explicit NUMA policy (the engine path:
    /// `StefOptions::numa` instead of the `STEF_NUMA` env default).
    pub fn with_numa(workers: usize, policy: NumaPolicy) -> Self {
        Executor(Arc::new(WorkerPool::with_numa(workers, policy, &NumaTopology::detect())))
    }
}

impl std::ops::Deref for Executor {
    type Target = WorkerPool;

    fn deref(&self) -> &WorkerPool {
        &self.0
    }
}

/// Available hardware parallelism, probed once per process.
pub fn hardware_workers() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Parses a thread-count environment value: a positive integer, else
/// `None` (empty, unparsable, and `0` all fall through to the probe).
fn parse_thread_env(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// Default logical-thread count used when `num_threads == 0`:
/// `STEF_NUM_THREADS` if set, else the hardware probe. Cached once per
/// process.
pub fn default_threads() -> usize {
    static DEF: OnceLock<usize> = OnceLock::new();
    *DEF.get_or_init(|| {
        std::env::var("STEF_NUM_THREADS")
            .ok()
            .as_deref()
            .and_then(parse_thread_env)
            .unwrap_or_else(hardware_workers)
    })
}

/// Resolves an engine's worker budget from `StefOptions::num_threads`:
/// `0` means "the [`default_threads`] resolution" (env override or all
/// hardware workers), an explicit logical-thread count caps the workers
/// at that count (more OS workers than logical threads can never help);
/// either way the pool never exceeds the hardware probe.
pub fn resolve_workers(num_threads: usize) -> usize {
    let n = if num_threads == 0 {
        default_threads()
    } else {
        num_threads
    };
    n.min(hardware_workers())
}

/// A width-only default pool: the executor of engines that own none
/// (the default [`crate::MttkrpEngine::executor`]). No run configures it
/// — it never carries a cancel token or captures spans.
pub fn global() -> &'static Executor {
    // Process-wide: the trait default needs a pool that outlives every
    // engine; it holds no per-run state.
    static GLOBAL: OnceLock<Executor> = OnceLock::new();
    GLOBAL.get_or_init(|| Executor::new(resolve_workers(0)))
}

/// The dense algebra's fan-outs run on the pool like any other job. A
/// cancelled job reports [`linalg::par::Cancelled`]; a worker panic is
/// re-raised on the caller, as [`WorkerPool::fanout`] does.
impl linalg::par::Fanout for Executor {
    fn try_run(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) -> Result<(), linalg::par::Cancelled> {
        match self.try_fanout(tasks, f) {
            Ok(()) => Ok(()),
            Err(FanoutError::Cancelled) => Err(linalg::par::Cancelled),
            Err(FanoutError::Panicked(msg)) => {
                panic!("worker panicked during parallel fan-out: {msg}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn coverage(exec: &Executor, nthreads: usize) {
        let hits: Vec<AtomicUsize> = (0..nthreads).map(|_| AtomicUsize::new(0)).collect();
        exec.fanout(nthreads, |th| {
            hits[th].fetch_add(1, Ordering::Relaxed);
        });
        for (th, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "thread {th} of {nthreads}");
        }
    }

    #[test]
    fn pool_covers_every_logical_thread_once() {
        for workers in [1usize, 2, 4, 8] {
            let exec = Executor::new(workers);
            for nthreads in [0usize, 1, 2, 3, 7, 16, 33, 257] {
                coverage(&exec, nthreads);
            }
        }
    }

    #[test]
    fn join_barrier_publishes_writes() {
        let exec = Executor::new(4);
        let mut data = vec![0usize; 64];
        {
            let shared = crate::sync::SharedSlice::new(&mut data);
            exec.fanout(64, |th| {
                // SAFETY: each logical thread owns exactly one element.
                let slot = unsafe { shared.range_mut(th, th + 1) };
                slot[0] = th * 3;
            });
        }
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i * 3);
        }
    }

    #[test]
    fn reentrant_fanout_runs_inline() {
        let exec = Executor::new(4);
        let outer = AtomicUsize::new(0);
        let inner = AtomicUsize::new(0);
        let e2 = exec.clone();
        exec.fanout(8, |_| {
            outer.fetch_add(1, Ordering::Relaxed);
            // From the dispatcher thread the dispatch lock is held; from
            // a worker the thread-local guard trips — both run inline.
            e2.fanout(4, |_| {
                inner.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(outer.load(Ordering::Relaxed), 8);
        assert_eq!(inner.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn counters_track_dispatches() {
        let exec = Executor::new(4);
        for _ in 0..10 {
            exec.fanout(16, |_| {});
        }
        let c = exec.counters();
        assert_eq!(c.workers, 4);
        assert_eq!(c.dispatches, 10);
        assert_eq!(c.per_worker.len(), 3);
        let worker_chunks: u64 = c.per_worker.iter().map(|w| w.chunks).sum();
        // Every chunk was claimed by somebody; 16 threads / chunk 1 = 16.
        assert_eq!(c.dispatcher_chunks + worker_chunks, 160);
    }

    #[test]
    fn resolve_workers_honors_explicit_counts() {
        assert_eq!(resolve_workers(0), default_threads().min(hardware_workers()));
        assert_eq!(resolve_workers(1), 1);
        let want = 3usize.min(hardware_workers());
        assert_eq!(resolve_workers(3), want);
    }

    #[test]
    fn thread_env_parsing() {
        assert_eq!(parse_thread_env("4"), Some(4));
        assert_eq!(parse_thread_env(" 12\n"), Some(12));
        assert_eq!(parse_thread_env("0"), None);
        assert_eq!(parse_thread_env(""), None);
        assert_eq!(parse_thread_env("lots"), None);
        assert_eq!(parse_thread_env("-2"), None);
    }

    #[test]
    fn cross_pool_nested_fanout_dispatches() {
        // A worker of pool `a` is NOT a worker of pool `b`: nested
        // fan-outs onto the distinct (idle) pool must be allowed to
        // dispatch there, not forced inline by a process-global guard.
        let a = Executor::new(4);
        let b = Executor::new(4);
        let inner = AtomicUsize::new(0);
        a.fanout(8, |_| {
            b.fanout(16, |_| {
                inner.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(inner.load(Ordering::Relaxed), 128);
        let c = b.counters();
        // All 8 nested fan-outs ran through b (dispatched or, under
        // dispatch-lock contention, inline)...
        assert_eq!(c.dispatches + c.inline_runs, 8);
        // ...and at least the first to arrive found the lock free and
        // actually dispatched on b's workers.
        assert!(c.dispatches >= 1, "cross-pool fan-out never dispatched");
    }

    #[test]
    fn global_executor_is_a_pool() {
        assert_eq!(global().workers(), resolve_workers(0));
        coverage(global(), 9);
    }

    #[test]
    fn worker_panic_surfaces_typed_error_and_pool_stays_usable() {
        let exec = Executor::new(4);
        let ran = AtomicUsize::new(0);
        let r = exec.try_fanout(64, |th| {
            if th == 7 {
                panic!("injected panic on thread {th}");
            }
            ran.fetch_add(1, Ordering::Relaxed);
        });
        match r {
            Err(FanoutError::Panicked(msg)) => assert!(msg.contains("injected panic"), "{msg}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(ran.load(Ordering::Relaxed), 63, "non-panicking threads all ran");
        let c = exec.counters();
        assert_eq!(c.panics, 1);
        // The healed pool completes subsequent clean dispatches.
        for _ in 0..5 {
            coverage(&exec, 33);
        }
    }

    #[test]
    fn infallible_fanout_repanics_on_worker_panic() {
        let exec = Executor::new(4);
        let r = catch_unwind(AssertUnwindSafe(|| {
            exec.fanout(16, |th| {
                if th == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err(), "fanout must re-raise a worker panic");
        coverage(&exec, 16);
    }

    #[test]
    fn cancel_mid_job_skips_unclaimed_threads() {
        let exec = Executor::new(4);
        let token = CancelToken::new();
        exec.set_cancel(token.clone());
        let ran = AtomicUsize::new(0);
        let t2 = token.clone();
        // 1000 threads with chunk ~62: at most `workers` chunks are in
        // flight when thread 0 cancels, so some threads must be skipped.
        let r = exec.try_fanout(1000, |th| {
            if th == 0 {
                t2.cancel();
            }
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(r, Err(FanoutError::Cancelled));
        assert!(exec.cancelled());
        let executed = ran.load(Ordering::Relaxed);
        assert!(executed < 1000, "cancellation never took effect");
        let c = exec.counters();
        assert_eq!(c.cancelled_jobs, 1);
        // The token belongs to this pool's run: a fresh executor
        // dispatches normally.
        coverage(&Executor::new(4), 64);
    }

    #[test]
    fn pre_cancelled_token_refuses_dispatch() {
        let exec = Executor::new(4);
        let token = CancelToken::new();
        token.cancel();
        exec.set_cancel(token);
        let ran = AtomicUsize::new(0);
        let r = exec.try_fanout(16, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(r, Err(FanoutError::Cancelled));
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn expired_deadline_promotes_to_cancelled() {
        let token = CancelToken::new();
        assert!(!token.expired());
        token.set_deadline(Duration::from_nanos(1));
        std::thread::sleep(Duration::from_millis(2));
        assert!(token.expired());
        assert!(token.is_cancelled(), "expiry must be promoted to the sticky flag");

        let exec = Executor::new(2);
        exec.set_cancel(token);
        assert_eq!(exec.try_fanout(8, |_| {}), Err(FanoutError::Cancelled));
    }

    #[test]
    fn cancel_token_is_set_once() {
        let exec = Executor::new(2);
        let token = CancelToken::new();
        exec.set_cancel(token.clone());
        // Re-installing the same token is harmless...
        exec.set_cancel(token.clone());
        // ...a second, different token is a contract violation.
        let other = catch_unwind(AssertUnwindSafe(|| exec.set_cancel(CancelToken::new())));
        assert!(other.is_err(), "a second token must not replace the first");
        token.cancel();
        assert!(exec.cancelled());
    }

    #[test]
    fn span_buffer_round_trips_when_enabled() {
        let exec = Executor::new(2);
        exec.set_tracing(true);
        exec.fanout(8, |_| {});
        let spans = exec.take_spans();
        assert!(!spans.is_empty(), "a traced fan-out records its claim bursts");
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns && s.chunks > 0));
        assert!(exec.take_spans().is_empty(), "take_spans drains the buffer");
        // Disabled capture records nothing, and other pools never see
        // this pool's spans.
        exec.set_tracing(false);
        exec.fanout(8, |_| {});
        assert!(exec.take_spans().is_empty());
        assert!(global().take_spans().is_empty());
    }

    #[test]
    fn synthetic_numa_pool_covers_every_thread_once() {
        let topo = NumaTopology::synthetic(vec![vec![0, 1], vec![0, 1]]);
        let pool = WorkerPool::with_numa(4, NumaPolicy::Auto, &topo);
        assert_eq!(pool.numa_nodes(), 2);
        let exec = Executor(Arc::new(pool));
        for nthreads in [1usize, 2, 3, 7, 16, 33, 257] {
            coverage(&exec, nthreads);
        }
    }

    #[test]
    fn numa_off_or_single_node_keeps_single_cursor() {
        let two = NumaTopology::synthetic(vec![vec![0], vec![0]]);
        let off = WorkerPool::with_numa(4, NumaPolicy::Off, &two);
        assert_eq!(off.numa_nodes(), 1);
        assert!(off.placement().iter().all(|p| p.node == 0 && !p.pinned));
        let one = NumaTopology::synthetic(vec![vec![0, 1]]);
        let single = WorkerPool::with_numa(4, NumaPolicy::Auto, &one);
        assert_eq!(single.numa_nodes(), 1);
        // A pool of two (one spawned worker) has nothing to split.
        let tiny = WorkerPool::with_numa(2, NumaPolicy::Auto, &two);
        assert_eq!(tiny.numa_nodes(), 1);
    }

    #[test]
    fn numa_pool_chunk_accounting_stays_exact() {
        let topo = NumaTopology::synthetic(vec![vec![0, 1], vec![0, 1]]);
        let exec = Executor(Arc::new(WorkerPool::with_numa(4, NumaPolicy::Auto, &topo)));
        for _ in 0..10 {
            exec.fanout(16, |_| {});
        }
        let c = exec.counters();
        assert_eq!(c.dispatches, 10);
        let worker_chunks: u64 = c.per_worker.iter().map(|w| w.chunks).sum();
        // Every logical thread claimed exactly once across both
        // segments; 16 threads / chunk 1 = 16 chunks per dispatch.
        assert_eq!(c.dispatcher_chunks + worker_chunks, 160);
    }

    #[test]
    fn numa_pool_cancel_still_resolves_barrier() {
        let topo = NumaTopology::synthetic(vec![vec![0, 1], vec![0, 1]]);
        let exec = Executor(Arc::new(WorkerPool::with_numa(4, NumaPolicy::Auto, &topo)));
        let token = CancelToken::new();
        exec.set_cancel(token.clone());
        let t2 = token.clone();
        // Both segments' cursors must be swallowed or the barrier hangs.
        let r = exec.try_fanout(1000, move |th| {
            if th == 0 {
                t2.cancel();
            }
        });
        assert!(matches!(r, Ok(()) | Err(FanoutError::Cancelled)));
        let fresh = Executor(Arc::new(WorkerPool::with_numa(4, NumaPolicy::Auto, &topo)));
        coverage(&fresh, 64);
    }

    #[test]
    fn numa_placement_blocks_are_contiguous() {
        let topo = NumaTopology::synthetic(vec![vec![0, 1], vec![0, 1]]);
        let pool = WorkerPool::with_numa(5, NumaPolicy::Auto, &topo);
        let p = pool.placement();
        assert_eq!(p.len(), 4);
        assert!(p.windows(2).all(|w| w[0].node <= w[1].node), "{p:?}");
        assert_eq!(p.first().unwrap().node, 0);
        assert_eq!(p.last().unwrap().node, 1);
    }

    #[test]
    fn numa_results_match_single_node_results() {
        // The segmented cursor changes who computes what, never what is
        // computed: summing th*th over claims must agree exactly.
        let multi = Executor(Arc::new(WorkerPool::with_numa(
            4,
            NumaPolicy::Auto,
            &NumaTopology::synthetic(vec![vec![0, 1], vec![0, 1]]),
        )));
        let plain = Executor::new(4);
        for nthreads in [3usize, 17, 64] {
            let total = |exec: &Executor| {
                let acc = AtomicUsize::new(0);
                exec.fanout(nthreads, |th| {
                    acc.fetch_add(th * th + 1, Ordering::Relaxed);
                });
                acc.load(Ordering::Relaxed)
            };
            assert_eq!(total(&multi), total(&plain));
        }
    }

    #[test]
    fn inline_paths_are_cancel_aware_and_panic_isolated() {
        // A 1-worker pool runs everything inline.
        let exec = Executor::new(1);
        match exec.try_fanout(4, |th| {
            if th == 2 {
                panic!("inline boom");
            }
        }) {
            Err(FanoutError::Panicked(msg)) => assert!(msg.contains("inline boom")),
            other => panic!("expected Panicked, got {other:?}"),
        }
        let token = CancelToken::new();
        exec.set_cancel(token.clone());
        let ran = AtomicUsize::new(0);
        let r = exec.try_fanout(8, |th| {
            if th == 1 {
                token.cancel();
            }
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(r, Err(FanoutError::Cancelled));
        assert_eq!(ran.load(Ordering::Relaxed), 2, "threads after the cancel must be skipped");
    }
}
