//! Process-level cancellation plumbing: Ctrl-C, SIGTERM and
//! `--timeout`.
//!
//! The handler itself only flips an `AtomicBool` (the one operation
//! that is async-signal-safe); a detached watchdog thread polls the
//! flag and cancels whichever [`CancelToken`] is currently installed.
//! Deadlines need no thread at all — the token carries its own expiry
//! and every cooperative checkpoint in the library consults it.
//!
//! The token reaches the library through the run, not through this
//! module: the command hands it to the engine it builds (whose executor
//! carries it) and to `CpdOptions::cancel`. This module only points the
//! watchdog at it.
//!
//! SIGTERM rides the same ladder as SIGINT: the first signal of either
//! kind cancels cooperatively (so a supervisor's `kill <pid>` gets the
//! same checkpoint-and-drain behavior an interactive Ctrl-C does — this
//! is how `stef serve` drains), and a **second** signal escalates: once
//! the watchdog has delivered a cooperative cancel, the next
//! SIGINT/SIGTERM calls `_exit(130)` straight from the handler — no
//! flushing, no checkpointing, just out. This is the escape hatch for a
//! run whose cancel path is itself wedged.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Duration;
use stef::CancelToken;

/// Set from the signal handler; drained by the watchdog.
static SIGNAL_SEEN: AtomicBool = AtomicBool::new(false);

/// Set by the watchdog after it delivers a cooperative cancel; a signal
/// arriving while this is up skips cooperation and exits immediately.
static ESCALATE: AtomicBool = AtomicBool::new(false);

/// The hard-interrupt exit code: 128 + SIGINT, the convention shells
/// use for signal deaths.
pub const HARD_INTERRUPT_EXIT: i32 = 130;

/// The token the watchdog cancels when Ctrl-C arrives. Process-wide
/// because signals are: one Ctrl-C interrupts the process's run.
static CURRENT: OnceLock<Mutex<Option<CancelToken>>> = OnceLock::new();

/// One-time signal-handler + watchdog installation.
static INSTALL: Once = Once::new();

const SIGINT: i32 = 2;
const SIGUSR1: i32 = 10;
const SIGTERM: i32 = 15;

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    /// Raw process exit — async-signal-safe, unlike `std::process::exit`
    /// (which runs atexit handlers and may take locks).
    fn _exit(code: i32) -> !;
}

extern "C" fn on_signal(_signum: i32) {
    // Second interrupt — in either order: SIGINT then SIGTERM, two
    // SIGTERMs, etc. — or one arriving after the watchdog already
    // cancelled cooperatively: give up on cooperation and exit now.
    // Both loads and `_exit` are async-signal-safe.
    if SIGNAL_SEEN.swap(true, Ordering::Relaxed) || ESCALATE.load(Ordering::Relaxed) {
        unsafe { _exit(HARD_INTERRUPT_EXIT) }
    }
}

extern "C" fn on_sigusr1(_signum: i32) {
    // One relaxed atomic store — async-signal-safe. The actual file
    // write happens on a normal thread: the watchdog below.
    stef::flight::request_dump();
}

fn current() -> &'static Mutex<Option<CancelToken>> {
    CURRENT.get_or_init(|| Mutex::new(None))
}

/// Guard that scopes a token as the process's interruptible run: while
/// it lives, Ctrl-C cancels `token`. Dropping the guard detaches the
/// watchdog, so later runs in the same process start clean.
pub struct CancelScope {
    _private: (),
}

impl Drop for CancelScope {
    fn drop(&mut self) {
        match current().lock() {
            Ok(mut slot) => *slot = None,
            Err(poisoned) => *poisoned.into_inner() = None,
        }
        // A finished run resets the interrupt state so a later run in
        // the same process gets a fresh two-stage Ctrl-C.
        SIGNAL_SEEN.store(false, Ordering::Relaxed);
        ESCALATE.store(false, Ordering::Relaxed);
    }
}

/// Points the Ctrl-C watchdog at `token`, registering the
/// SIGINT/SIGTERM handlers once per process. Returns a guard that
/// detaches the watchdog on drop.
pub fn install(token: &CancelToken) -> CancelScope {
    match current().lock() {
        Ok(mut slot) => *slot = Some(token.clone()),
        Err(poisoned) => *poisoned.into_inner() = Some(token.clone()),
    }
    INSTALL.call_once(|| {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
            signal(SIGUSR1, on_sigusr1);
        }
        std::thread::Builder::new()
            .name("stef-cancel-watchdog".into())
            .spawn(watchdog)
            .ok(); // if the spawn fails, --timeout still works
    });
    CancelScope { _private: () }
}

fn watchdog() {
    loop {
        std::thread::sleep(Duration::from_millis(50));
        // SIGUSR1 service for every command, `stef serve` included:
        // this is the one consumer of the one-shot dump flag.
        if stef::flight::take_dump_request() {
            if let Some(path) = stef::flight::dump("sigusr1") {
                stef::telemetry::info("cancel", || {
                    format!("flight recorder dumped to {}", path.display())
                });
            }
        }
        if SIGNAL_SEEN.load(Ordering::Relaxed) && !ESCALATE.load(Ordering::Relaxed) {
            let token = match current().lock() {
                Ok(slot) => slot.clone(),
                Err(poisoned) => poisoned.into_inner().clone(),
            };
            match token {
                Some(t) => {
                    stef::telemetry::warn("cancel", || {
                        "interrupt received; cancelling (checkpoint will be written if \
                         configured) — signal again to exit immediately"
                            .to_string()
                    });
                    t.cancel();
                    // From here on any further SIGINT/SIGTERM
                    // hard-exits from the handler itself; leave
                    // SIGNAL_SEEN up so the handler's swap also sees
                    // "already interrupted".
                    ESCALATE.store(true, Ordering::Relaxed);
                }
                // No run in flight: restore default Ctrl-C behavior.
                None => std::process::exit(HARD_INTERRUPT_EXIT),
            }
        }
    }
}
