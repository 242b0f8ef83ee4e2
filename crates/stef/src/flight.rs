//! Always-on ring-buffer **flight recorder**.
//!
//! A fixed set of statically-allocated per-thread rings records coarse
//! events (job lifecycle, ALS iterations, mode sweeps, HTTP requests,
//! pool panics, drain steps). Recording is a few relaxed atomic stores
//! into a pre-sized slot — no allocation, no lock, no syscall — so it
//! can stay on in production and inside the zero-alloc kernel suites.
//!
//! The buffer only pays off when something goes wrong: [`dump`] writes
//! the merged, time-ordered tail to a file. It is invoked
//!
//! - from a panic hook ([`install_panic_hook`]) at `panic!` time —
//!   *before* any `catch_unwind`, so even a panic the worker pool heals
//!   leaves a postmortem behind;
//! - on `SIGUSR1`: the async-signal-safe handler just calls
//!   [`request_dump`] (one relaxed store); the CLI cancel watchdog,
//!   installed with that handler, polls [`take_dump_request`];
//! - on `StefError` CLI exits, so a failed run keeps its last moments.
//!
//! Events are dropped, never blocked on: a ring overwrites its oldest
//! slot, and a torn read during a concurrent dump yields at worst one
//! garbled line.

use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Once;

/// Coarse event kinds. Discriminants are stable (they appear in dumps).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightEvent {
    /// a = job id, b = attempt
    JobStart = 1,
    /// a = job id, b = attempts used
    JobDone = 2,
    /// a = job id, b = attempts used
    JobFailed = 3,
    /// a = job id, b = next attempt
    JobRetry = 4,
    /// a = job id
    JobShed = 5,
    /// a = job id, b = attempts used
    JobInterrupted = 6,
    /// a = iteration, b = fit (f64 bits)
    IterDone = 7,
    /// a = mode, b = nanoseconds
    ModeSweep = 8,
    /// a = HTTP status, b = nanoseconds
    Http = 9,
    /// a = worker index (`u64::MAX` when stamped by the panic hook,
    /// which runs before the pool has identified the worker)
    WorkerPanic = 10,
    /// a = drain step (0 = begin, 1 = grace elapsed, 2 = joined)
    Drain = 11,
    /// a = job id, b = snapshot generation
    SnapshotInstall = 12,
    /// a = signal number
    Signal = 13,
}

impl FlightEvent {
    fn name(self) -> &'static str {
        match self {
            FlightEvent::JobStart => "job_start",
            FlightEvent::JobDone => "job_done",
            FlightEvent::JobFailed => "job_failed",
            FlightEvent::JobRetry => "job_retry",
            FlightEvent::JobShed => "job_shed",
            FlightEvent::JobInterrupted => "job_interrupted",
            FlightEvent::IterDone => "iter_done",
            FlightEvent::ModeSweep => "mode_sweep",
            FlightEvent::Http => "http",
            FlightEvent::WorkerPanic => "worker_panic",
            FlightEvent::Drain => "drain",
            FlightEvent::SnapshotInstall => "snapshot_install",
            FlightEvent::Signal => "signal",
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => FlightEvent::JobStart,
            2 => FlightEvent::JobDone,
            3 => FlightEvent::JobFailed,
            4 => FlightEvent::JobRetry,
            5 => FlightEvent::JobShed,
            6 => FlightEvent::JobInterrupted,
            7 => FlightEvent::IterDone,
            8 => FlightEvent::ModeSweep,
            9 => FlightEvent::Http,
            10 => FlightEvent::WorkerPanic,
            11 => FlightEvent::Drain,
            12 => FlightEvent::SnapshotInstall,
            13 => FlightEvent::Signal,
            _ => return None,
        })
    }
}

/// Threads hash onto [`RINGS`] rings of [`SLOTS`] slots each; a
/// slot is four u64 words (timestamp, kind|thread, a, b). Total
/// footprint: 16 × 256 × 32 B = 128 KiB of static BSS.
const RINGS: usize = 16;
const SLOTS: usize = 256;

struct Slot {
    ns: AtomicU64,
    kind_tid: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

struct Ring {
    head: AtomicUsize,
    slots: [Slot; SLOTS],
}

#[allow(clippy::declare_interior_mutable_const)]
const SLOT_INIT: Slot = Slot {
    ns: AtomicU64::new(0),
    kind_tid: AtomicU64::new(0),
    a: AtomicU64::new(0),
    b: AtomicU64::new(0),
};
#[allow(clippy::declare_interior_mutable_const)]
const RING_INIT: Ring = Ring { head: AtomicUsize::new(0), slots: [SLOT_INIT; SLOTS] };

// Process-wide: a panic hook or a SIGUSR1 dump must reach every
// thread's recent events without a handle to any run.
static BUFFER: [Ring; RINGS] = [RING_INIT; RINGS];
static NEXT_TID: AtomicUsize = AtomicUsize::new(0);
static EVENTS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn tid() -> usize {
    TID.with(|t| {
        let v = t.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Relaxed);
            t.set(v);
            v
        }
    })
}

/// Record one event: four relaxed stores into this thread's ring.
#[inline]
pub fn record(kind: FlightEvent, a: u64, b: u64) {
    let tid = tid();
    let ring = &BUFFER[tid % RINGS];
    let idx = ring.head.fetch_add(1, Relaxed) % SLOTS;
    let slot = &ring.slots[idx];
    slot.kind_tid.store(((kind as u64) << 32) | (tid as u64 & 0xffff_ffff), Relaxed);
    slot.a.store(a, Relaxed);
    slot.b.store(b, Relaxed);
    // Timestamp last and non-zero: a zero timestamp marks an empty
    // (or mid-write) slot, which the dump skips.
    slot.ns.store(crate::runtime::now_ns(), Relaxed);
    EVENTS.fetch_add(1, Relaxed);
}

/// Number of events recorded since process start (monotonic; the
/// buffer itself holds at most the last `RINGS × SLOTS`).
pub fn events_recorded() -> u64 {
    EVENTS.load(Relaxed)
}

/// Render the merged, time-ordered buffer contents. Allocates —
/// dump path only.
pub fn dump_string(reason: &str) -> String {
    let mut rows: Vec<(u64, u64, u64, u64)> = Vec::with_capacity(RINGS * SLOTS);
    for ring in &BUFFER {
        for slot in &ring.slots {
            let ns = slot.ns.load(Relaxed);
            if ns == 0 {
                continue;
            }
            rows.push((ns, slot.kind_tid.load(Relaxed), slot.a.load(Relaxed), slot.b.load(Relaxed)));
        }
    }
    rows.sort_unstable();
    let mut out = String::with_capacity(64 + rows.len() * 64);
    out.push_str(&format!(
        "# stef flight recorder dump: reason={reason} pid={} events_recorded={} retained={}\n\
         # columns: elapsed_s thread kind a b\n",
        std::process::id(),
        events_recorded(),
        rows.len(),
    ));
    for (ns, kind_tid, a, b) in rows {
        let tid = kind_tid & 0xffff_ffff;
        let kind = FlightEvent::from_u8((kind_tid >> 32) as u8);
        let secs = ns as f64 * 1e-9;
        match kind {
            Some(k @ FlightEvent::IterDone) => {
                out.push_str(&format!(
                    "{secs:.6} t{tid} {} iter={a} fit={:.6}\n",
                    k.name(),
                    f64::from_bits(b)
                ));
            }
            Some(k @ (FlightEvent::ModeSweep | FlightEvent::Http)) => {
                out.push_str(&format!(
                    "{secs:.6} t{tid} {} a={a} dt={:.6}s\n",
                    k.name(),
                    b as f64 * 1e-9
                ));
            }
            Some(k @ FlightEvent::WorkerPanic) if a == u64::MAX => {
                out.push_str(&format!("{secs:.6} t{tid} {} at-hook\n", k.name()));
            }
            Some(k) => {
                out.push_str(&format!("{secs:.6} t{tid} {} a={a} b={b}\n", k.name()));
            }
            None => {
                out.push_str(&format!("{secs:.6} t{tid} ?kind a={a} b={b}\n"));
            }
        }
    }
    out
}

/// Write a dump to `$STEF_FLIGHT_DIR` (default: the OS temp dir)
/// and return the path. Returns `None` when nothing was ever
/// recorded (no file litter for trivial CLI errors) or the write
/// fails — the dump path must never panic.
pub fn dump(reason: &str) -> Option<PathBuf> {
    if events_recorded() == 0 {
        return None;
    }
    let dir = std::env::var_os("STEF_FLIGHT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let path = dir.join(format!("stef-flight-{}-{reason}.log", std::process::id()));
    std::fs::write(&path, dump_string(reason)).ok()?;
    Some(path)
}

static DUMP_REQ: AtomicBool = AtomicBool::new(false);

/// Async-signal-safe: one relaxed store. Called from the SIGUSR1
/// handler; serviced by a thread polling [`take_dump_request`] (the
/// CLI's cancel watchdog).
pub fn request_dump() {
    DUMP_REQ.store(true, Relaxed);
}

/// Consume a pending dump request (at most one poller wins).
pub fn take_dump_request() -> bool {
    DUMP_REQ.swap(false, Relaxed)
}

static HOOK: Once = Once::new();

/// Chain a panic hook that dumps the flight buffer before the
/// previous hook runs. Idempotent. The hook fires at `panic!` time,
/// so panics later healed by the worker pool's `catch_unwind`
/// still leave a dump behind.
pub fn install_panic_hook() {
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // Stamp the panic itself: the pool's own WorkerPanic
            // record only lands after catch_unwind heals the
            // unwind — too late for this dump, which must show the
            // event being diagnosed as its last line.
            record(FlightEvent::WorkerPanic, u64::MAX, 0);
            if let Some(path) = dump("panic") {
                eprintln!("stef: flight recorder dump: {}", path.display());
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_retains_recent_events_and_dumps() {
        for i in 0..600u64 {
            record(FlightEvent::IterDone, i, (i as f64).to_bits());
        }
        record(FlightEvent::JobDone, 7, 2);
        let text = dump_string("test");
        assert!(text.starts_with("# stef flight recorder dump"));
        assert!(text.contains("job_done a=7 b=2"));
        // The ring holds only a bounded tail: early iterations from
        // this thread were overwritten.
        assert!(!text.contains("iter=0 "));
        assert!(text.contains("iter=599"));
    }

    #[test]
    fn dump_request_is_one_shot() {
        assert!(!take_dump_request());
        request_dump();
        assert!(take_dump_request());
        assert!(!take_dump_request());
    }
}
