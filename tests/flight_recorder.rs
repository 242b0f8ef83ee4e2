//! Flight-recorder integration: an injected worker panic must leave a
//! dump file behind via the chained panic hook — even though the pool's
//! `catch_unwind` later heals the panic into a typed error — and the
//! dump must carry the recorded event stream (mode sweeps, iterations,
//! the panic itself).

use stef::{cpd_als, CpdOptions, Fault, FaultyEngine, Stef, StefError, StefOptions};
use workloads::power_law_tensor;

#[test]
fn worker_panic_dumps_the_flight_recorder() {
    let dir = std::env::temp_dir().join(format!("stef-flight-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // One test binary, one test — no env-var race inside this process.
    std::env::set_var("STEF_FLIGHT_DIR", &dir);
    stef::flight::install_panic_hook();

    let t = power_law_tensor(&[40, 35, 30], 3_000, &[0.6, 0.3, 0.1], 17);
    let stef = Stef::prepare(&t, StefOptions::new(3));
    let exec = stef.executor().clone();
    let mut faulty = FaultyEngine::new(stef, vec![Fault::WorkerPanicOnce { at: 2, thread: 1 }])
        .with_executor(exec);
    let opts = CpdOptions {
        max_iters: 4,
        tol: 0.0,
        seed: 21,
        ..CpdOptions::new(3)
    };
    match cpd_als(&mut faulty, &opts) {
        Err(StefError::WorkerPanic { .. }) => {}
        other => panic!("expected WorkerPanic, got {other:?}"),
    }

    // The hook fired at panic! time (before catch_unwind healed it)
    // and wrote the dump into $STEF_FLIGHT_DIR.
    let panic_dump = dir.join(format!("stef-flight-{}-panic.log", std::process::id()));
    let text = std::fs::read_to_string(&panic_dump)
        .unwrap_or_else(|e| panic!("no panic dump at {}: {e}", panic_dump.display()));
    assert!(text.starts_with("# stef flight recorder dump"), "{text}");
    assert!(text.contains("reason=panic"), "{text}");
    assert!(text.contains("worker_panic"), "{text}");
    // The ring retained the kernel activity leading up to the panic.
    assert!(text.contains("mode_sweep"), "{text}");

    // An explicit dump (the SIGUSR1 / error-exit path) also lands in
    // the directory and carries at least as many events.
    let explicit = stef::flight::dump("test").expect("events were recorded");
    assert_eq!(explicit, dir.join(format!("stef-flight-{}-test.log", std::process::id())));
    assert!(std::fs::read_to_string(&explicit).unwrap().contains("worker_panic"));

    std::env::remove_var("STEF_FLIGHT_DIR");
    let _ = std::fs::remove_dir_all(&dir);
}
