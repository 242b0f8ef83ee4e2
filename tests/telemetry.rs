//! Telemetry layer, end to end: every iteration must record measured
//! counters for every mode, spans must stay well-formed
//! under worker panics and cancellation, a run's spans must come from
//! its own pool only, the JSONL and Chrome exports must round-trip
//! through the bench crate's tolerant JSON parser, and the
//! model-vs-measured audit must produce finite relative errors.

use stef::{cpd_als, CpdOptions, Fault, FaultyEngine, MemoPolicy, Stef, StefError, StefOptions};
use stef_bench::{parse_json, Json};
use workloads::power_law_tensor;

fn test_tensor() -> sptensor::CooTensor {
    power_law_tensor(&[40, 35, 30], 3_000, &[0.6, 0.3, 0.1], 17)
}

fn engine_options(rank: usize) -> StefOptions {
    let mut o = StefOptions::new(rank);
    o.memo = MemoPolicy::SaveAll;
    o
}

fn cpd_opts(rank: usize, iters: usize) -> CpdOptions {
    CpdOptions {
        max_iters: iters,
        tol: 0.0,
        seed: 21,
        ..CpdOptions::new(rank)
    }
}

fn run_cpd() -> stef::TelemetryReport {
    let t = test_tensor();
    let mut engine = Stef::prepare(&t, engine_options(4));
    cpd_als(&mut engine, &cpd_opts(4, 4)).expect("healthy run").telemetry
}

#[test]
fn model_audit_is_finite_and_covers_every_mode() {
    let report = run_cpd();
    assert_eq!(report.records.len(), 4, "one record per iteration");
    for rec in &report.records {
        assert_eq!(rec.modes.len(), 3);
        for m in &rec.modes {
            let st = m.stats.as_ref().expect("stef records per-mode stats");
            assert!(st.reads > 0.0 && st.writes > 0.0 && st.fibers > 0);
        }
    }
    let audits = report.model_audit();
    assert_eq!(audits.len(), 3, "one audit row per mode");
    for a in &audits {
        assert!(a.measured_elems > 0.0, "mode {}: empty measured side", a.mode);
        assert!(a.predicted_elems > 0.0, "mode {}: empty predicted side", a.mode);
        assert!(a.rel_err.is_finite(), "mode {}: rel_err {}", a.mode, a.rel_err);
        assert!(a.abs_err.is_finite() && a.abs_err >= 0.0);
    }
}

#[test]
fn jsonl_export_round_trips_through_the_bench_parser() {
    let report = run_cpd();
    let body = stef::telemetry::render_metrics_jsonl(&report);
    assert_eq!(body.lines().count(), report.records.len());
    for line in body.lines() {
        let rec = parse_json(line).expect("every JSONL line parses");
        assert_eq!(rec.get("schema").and_then(Json::as_u64), Some(1));
        assert!(rec.get("iteration").and_then(Json::as_u64).is_some());
        assert!(rec.get("fit").and_then(Json::as_f64).is_some());
        let modes = rec.get("modes").and_then(Json::as_arr).expect("modes array");
        assert_eq!(modes.len(), 3);
        for m in modes {
            for key in [
                "seconds",
                "measured_read_bytes",
                "measured_write_bytes",
                "predicted_read_bytes",
                "predicted_write_bytes",
                "rel_err",
            ] {
                let v = m.get(key).and_then(Json::as_f64);
                assert!(
                    v.is_some_and(f64::is_finite),
                    "{key} missing or non-finite in {line}"
                );
            }
        }
    }
}

#[test]
fn spans_stay_well_formed_under_tracing_panic_and_cancel() {
    let t = test_tensor();

    // Clean traced run: spans drain into the result and are well-formed.
    let mut engine = Stef::prepare(&t, engine_options(3));
    engine.executor().set_tracing(true);
    let result = cpd_als(&mut engine, &cpd_opts(3, 2)).expect("traced run");
    assert!(!result.telemetry.spans.is_empty(), "traced run recorded no spans");
    for s in &result.telemetry.spans {
        assert!(s.end_ns >= s.start_ns, "span closed before it started: {s:?}");
        assert!(s.chunks > 0);
    }
    let trace = stef::telemetry::render_chrome_trace(&result.telemetry.spans);
    let events = parse_json(&trace).expect("trace parses").as_arr().unwrap().to_vec();
    assert!(events
        .iter()
        .any(|e| e.get("name").and_then(Json::as_str) == Some("thread_name")));
    let spans_in_trace = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .count();
    assert_eq!(spans_in_trace, result.telemetry.spans.len());

    // A worker panic mid-CPD must not leave half-open spans behind.
    let stef = Stef::prepare(&t, engine_options(3));
    let exec = stef.executor().clone();
    exec.set_tracing(true);
    let mut faulty = FaultyEngine::new(stef, vec![Fault::WorkerPanicOnce { at: 2, thread: 0 }])
        .with_executor(exec.clone());
    match cpd_als(&mut faulty, &cpd_opts(3, 4)) {
        Err(StefError::WorkerPanic { .. }) => {}
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    for s in exec.take_spans() {
        assert!(s.end_ns >= s.start_ns, "panic left a malformed span: {s:?}");
    }

    // A cancelled run likewise: every recorded span is closed.
    let token = stef::CancelToken::new();
    token.cancel();
    let mut opts = engine_options(3);
    opts.cancel = Some(token.clone());
    let mut engine = Stef::prepare(&t, opts);
    engine.executor().set_tracing(true);
    let mut copts = cpd_opts(3, 4);
    copts.cancel = Some(token);
    match cpd_als(&mut engine, &copts) {
        Err(StefError::Cancelled { .. }) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    for s in engine.executor().take_spans() {
        assert!(s.end_ns >= s.start_ns, "cancel left a malformed span: {s:?}");
    }

    // Disabling tracing stops recording entirely.
    engine.executor().set_tracing(false);
    let mut engine = Stef::prepare(&t, engine_options(3));
    let result = cpd_als(&mut engine, &cpd_opts(3, 2)).expect("untraced run");
    assert!(result.telemetry.spans.is_empty(), "tracing off must record nothing");
}

/// Span capture belongs to the run's pool: a traced and an untraced
/// `cpd_als` running at the same time each get exactly their own spans.
#[test]
fn concurrent_runs_keep_their_own_spans() {
    let t = test_tensor();
    for round in 0..5 {
        let run = |traced: bool| {
            let mut engine = Stef::prepare(&t, engine_options(3));
            engine.executor().set_tracing(traced);
            cpd_als(&mut engine, &cpd_opts(3, 3)).expect("healthy run").telemetry.spans
        };
        let (traced, untraced) = std::thread::scope(|s| {
            let traced = s.spawn(|| run(true));
            let untraced = s.spawn(|| run(false));
            (traced.join().unwrap(), untraced.join().unwrap())
        });
        assert!(!traced.is_empty(), "round {round}: the traced run lost its spans");
        assert!(untraced.is_empty(), "round {round}: the untraced run holds {} spans", untraced.len());
    }
}

#[test]
fn stef2_reports_leaf_mode_telemetry() {
    let t = test_tensor();
    let mut engine = stef::Stef2::prepare(&t, engine_options(3));
    let report = cpd_als(&mut engine, &cpd_opts(3, 2)).expect("stef2 run").telemetry;
    for rec in &report.records {
        assert_eq!(rec.modes.len(), 3);
        for m in &rec.modes {
            assert!(m.stats.is_some(), "mode {} missing stats", m.mode);
            assert!(m.predicted.is_some(), "mode {} missing prediction", m.mode);
        }
    }
}
