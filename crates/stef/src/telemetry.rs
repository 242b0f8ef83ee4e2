//! Telemetry: structured spans, per-mode counters, a model-vs-measured
//! data-movement audit, and trace export.
//!
//! Three concerns live here:
//!
//! 1. **Leveled logging** (`STEF_LOG={off,warn,info,debug}`, default
//!    `warn`). Library code never writes to stderr unconditionally —
//!    every diagnostic goes through [`log`], which formats its message
//!    lazily and only when the level is enabled.
//!
//! 2. **Per-mode measurement**. The engine reports, for every MTTKRP
//!    it executes, a [`ModeStats`] derived from the *same counting
//!    rules as `counters.rs`* parameterized by the path actually taken
//!    (memoized short-circuit at level `k`, or full traversal). This
//!    is analytic — O(d) float math per mode, no per-nonzero
//!    instrumentation — so the zero-alloc and determinism invariants
//!    of the kernel layer are untouched. The ALS loop collects these
//!    into per-iteration [`IterationRecord`]s and joins them against
//!    the §IV-C model prediction ([`TelemetryReport::model_audit`]).
//!
//! 3. **Worker spans**. A pool whose capture is on
//!    ([`crate::runtime::WorkerPool::set_tracing`]) records one
//!    [`TraceSpan`] per claim burst (worker id, job id, start/end
//!    nanoseconds, chunks claimed) into its own buffer, and `cpd_als`
//!    drains the engine's pool into [`TelemetryReport::spans`]. The gate
//!    is a single relaxed atomic load on the dispatch path; it is off by
//!    default, so the steady-state allocation-free guarantee holds
//!    whenever tracing is not explicitly requested. Spans export to
//!    Chrome `trace_event` JSON ([`render_chrome_trace`]) with one track
//!    per worker.
//!
//! Measured traffic is cache-oblivious element counting (the
//! `counters.rs` convention: every fiber visit pays its structure and
//! factor reads); the model prediction is the cache-aware §IV-C
//! estimate. The two coincide when the modeled cache is zero and
//! diverge by design otherwise — the audit quantifies exactly that
//! divergence.

// ---------------------------------------------------------------------------
// Leveled logging
// ---------------------------------------------------------------------------

/// Diagnostic verbosity, ordered: `Off < Warn < Info < Debug`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    Off,
    Warn,
    Info,
    Debug,
}

impl LogLevel {
    fn tag(self) -> &'static str {
        match self {
            LogLevel::Off => "off",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }
}

/// The active log level: `STEF_LOG` parsed once per process (default
/// `warn`; unrecognized values also fall back to `warn`).
pub fn log_level() -> LogLevel {
    use std::sync::OnceLock;
    static LEVEL: OnceLock<LogLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| match std::env::var("STEF_LOG").as_deref() {
        Ok("off") => LogLevel::Off,
        Ok("info") => LogLevel::Info,
        Ok("debug") => LogLevel::Debug,
        _ => LogLevel::Warn,
    })
}

/// Whether messages at `level` are emitted.
#[inline]
pub fn log_enabled(level: LogLevel) -> bool {
    level != LogLevel::Off && level <= log_level()
}

/// Seconds elapsed since the process's telemetry anchor (first call
/// wins). Every log line carries this stamp, so daemon logs line up
/// with traces, journal records and flight-recorder dumps, which all
/// use the same monotonic clock family.
pub fn uptime_seconds() -> f64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Emits a diagnostic at `level` for module `target`, formatted as
/// `stef[warn 12.034s supervisor] message` — level tag, monotonic
/// elapsed-time stamp, module target. The message closure runs only
/// when the level is enabled, so disabled logging costs one branch and
/// no formatting or allocation.
#[inline]
pub fn log(level: LogLevel, target: &'static str, msg: impl FnOnce() -> String) {
    if log_enabled(level) {
        eprintln!("stef[{} {:.3}s {target}] {}", level.tag(), uptime_seconds(), msg());
    }
}

/// [`log`] at `Warn`.
#[inline]
pub fn warn(target: &'static str, msg: impl FnOnce() -> String) {
    log(LogLevel::Warn, target, msg);
}

/// [`log`] at `Info`.
#[inline]
pub fn info(target: &'static str, msg: impl FnOnce() -> String) {
    log(LogLevel::Info, target, msg);
}

/// [`log`] at `Debug`.
#[inline]
pub fn debug(target: &'static str, msg: impl FnOnce() -> String) {
    log(LogLevel::Debug, target, msg);
}

// ---------------------------------------------------------------------------
// Per-mode measurement
// ---------------------------------------------------------------------------

/// What one executed MTTKRP pass did, in the element-counting
/// conventions of `counters.rs` (one element = one f64; multiply by 8
/// for bytes).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ModeStats {
    /// CSF level the mode sits at in the engine's mode order.
    pub level: usize,
    /// Leaf nonzeros touched by the pass (0 when a memoized partial
    /// short-circuited the traversal above the leaves).
    pub nnz: u64,
    /// CSF fibers traversed across all visited levels.
    pub fibers: u64,
    /// Floating-point operations: 2 per non-structure element read
    /// (one fused multiply-add each).
    pub flops: f64,
    /// Elements read (structure + factors + memoized partials).
    pub reads: f64,
    /// Elements written (output rows + memoized partials stored).
    pub writes: f64,
}

/// One timed MTTKRP execution inside an ALS iteration. Retries after
/// a recovery event appear as additional samples for the same mode.
#[derive(Clone, Debug, Default)]
pub struct ModeSample {
    pub mode: usize,
    /// Wall time of the MTTKRP call, seconds.
    pub seconds: f64,
    /// Measured traffic; `None` for engines without instrumentation
    /// (baselines).
    pub stats: Option<ModeStats>,
    /// Model-predicted `(reads, writes)` in elements for this mode
    /// under the engine's plan; `None` for unmodeled engines.
    pub predicted: Option<(f64, f64)>,
}

/// Everything telemetry captured for one ALS iteration.
#[derive(Clone, Debug, Default)]
pub struct IterationRecord {
    pub iteration: usize,
    /// Fit after this iteration.
    pub fit: f64,
    /// One entry per executed MTTKRP, in execution order.
    pub modes: Vec<ModeSample>,
    /// Cumulative workspace allocation events at the end of the
    /// iteration (steady state keeps this constant).
    pub alloc_events: u64,
}

/// The telemetry snapshot attached to a `CpdResult`.
#[derive(Clone, Debug, Default)]
pub struct TelemetryReport {
    pub records: Vec<IterationRecord>,
    /// Worker spans drained from the engine's pool at the end of the run
    /// (empty unless its capture was on).
    pub spans: Vec<TraceSpan>,
    /// Name of the engine that ran the sweep (`"stef"`, `"alto"`, ...).
    /// Empty when the driver did not stamp it.
    pub engine: String,
    /// NUMA nodes the engine's executor spread workers over (1 = no
    /// placement or serial).
    pub numa_nodes: usize,
}

/// Per-mode join of measured traffic against the model prediction,
/// summed over all iterations.
#[derive(Clone, Debug, Default)]
pub struct ModeAudit {
    pub mode: usize,
    /// Total wall seconds spent in this mode's MTTKRPs.
    pub seconds: f64,
    /// Total measured elements moved (reads + writes).
    pub measured_elems: f64,
    /// Total model-predicted elements moved (reads + writes).
    pub predicted_elems: f64,
    /// `|measured - predicted|` in elements.
    pub abs_err: f64,
    /// `abs_err / max(predicted, 1)`.
    pub rel_err: f64,
}

impl TelemetryReport {
    /// True when no iterations were recorded (an engine or loop that
    /// does not collect).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Joins measured traffic against the model prediction per mode,
    /// summed over iterations. Modes without both sides are skipped.
    pub fn model_audit(&self) -> Vec<ModeAudit> {
        let mut audits: Vec<ModeAudit> = Vec::new();
        for rec in &self.records {
            for s in &rec.modes {
                let (stats, predicted) = match (&s.stats, s.predicted) {
                    (Some(st), Some(p)) => (st, p),
                    _ => continue,
                };
                let entry = match audits.iter_mut().find(|a| a.mode == s.mode) {
                    Some(a) => a,
                    None => {
                        audits.push(ModeAudit {
                            mode: s.mode,
                            ..ModeAudit::default()
                        });
                        audits.last_mut().expect("just pushed")
                    }
                };
                entry.seconds += s.seconds;
                entry.measured_elems += stats.reads + stats.writes;
                entry.predicted_elems += predicted.0 + predicted.1;
            }
        }
        for a in &mut audits {
            a.abs_err = (a.measured_elems - a.predicted_elems).abs();
            a.rel_err = crate::model::drift_rel_err(a.measured_elems, a.predicted_elems);
        }
        audits.sort_by_key(|a| a.mode);
        audits
    }
}

/// Accumulates [`ModeSample`]s into [`IterationRecord`]s inside the
/// ALS loop.
#[derive(Debug, Default)]
pub struct Collector {
    current: Vec<ModeSample>,
    records: Vec<IterationRecord>,
}

impl Collector {
    pub fn new() -> Self {
        Collector::default()
    }

    /// Records one timed MTTKRP execution.
    pub fn record_mode(
        &mut self,
        mode: usize,
        seconds: f64,
        stats: Option<ModeStats>,
        predicted: Option<(f64, f64)>,
    ) {
        self.current.push(ModeSample {
            mode,
            seconds,
            stats,
            predicted,
        });
    }

    /// Closes the current iteration.
    pub fn end_iteration(&mut self, iteration: usize, fit: f64, alloc_events: u64) {
        self.records.push(IterationRecord {
            iteration,
            fit,
            modes: std::mem::take(&mut self.current),
            alloc_events,
        });
    }

    /// Finishes the run with the worker spans its pool captured.
    /// Samples from a partially-completed iteration (cancel, unrecovered
    /// error) are dropped — records always describe whole iterations.
    pub fn finish(self, spans: Vec<TraceSpan>) -> TelemetryReport {
        TelemetryReport {
            records: self.records,
            spans,
            engine: String::new(),
            numa_nodes: 1,
        }
    }
}

// ---------------------------------------------------------------------------
// Worker spans
// ---------------------------------------------------------------------------

/// One claim burst by one runtime thread: the thread entered the
/// work-claiming loop for job `job` and drained `chunks` chunks
/// between `start_ns` and `end_ns` (monotonic nanoseconds from the
/// runtime's clock anchor). `tid` 0 is the dispatching thread; pool
/// workers are 1-based.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceSpan {
    pub tid: u32,
    pub job: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub chunks: u64,
}

// ---------------------------------------------------------------------------
// Export: JSONL metrics
// ---------------------------------------------------------------------------

/// Formats a finite f64 as JSON; NaN/inf become `null` (JSON has no
/// non-finite numbers).
fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn jopt(x: Option<f64>) -> String {
    match x {
        Some(v) => jnum(v),
        None => "null".to_string(),
    }
}

/// Renders the report as JSONL: one object per ALS iteration, schema
/// version 1. Traffic is reported in **bytes** (8 per element).
///
/// ```json
/// {"schema":1,"iteration":0,"fit":0.91,"alloc_events":0,
///  "engine":"stef","numa_nodes":1,"modes":[
///   {"mode":0,"seconds":1.2e-3,"nnz":1000,"fibers":1430,"flops":256000,
///    "measured_read_bytes":...,"measured_write_bytes":...,
///    "predicted_read_bytes":...,"predicted_write_bytes":...,"rel_err":0.02}]}
/// ```
pub fn render_metrics_jsonl(report: &TelemetryReport) -> String {
    render_metrics_jsonl_tagged(report, None)
}

/// [`render_metrics_jsonl`] with an optional `(job, attempt)` stamp on
/// every iteration record. The serve/batch supervisor passes the
/// HTTP-visible job id and the attempt number so a multi-attempt job's
/// iteration records stay distinguishable across retries; extra keys
/// are ignored by schema-1 consumers.
pub fn render_metrics_jsonl_tagged(
    report: &TelemetryReport,
    job_attempt: Option<(usize, usize)>,
) -> String {
    use std::fmt::Write as _;
    let tag = match job_attempt {
        Some((job, attempt)) => format!("\"job\":{job},\"attempt\":{attempt},"),
        None => String::new(),
    };
    let mut out = String::new();
    for rec in &report.records {
        let mut modes = String::new();
        for (i, s) in rec.modes.iter().enumerate() {
            if i > 0 {
                modes.push(',');
            }
            let measured = s.stats.as_ref().map(|st| (st.reads, st.writes));
            let rel_err = match (measured, s.predicted) {
                (Some((mr, mw)), Some((pr, pw))) => {
                    Some(crate::model::drift_rel_err(mr + mw, pr + pw))
                }
                _ => None,
            };
            let _ = write!(
                modes,
                "{{\"mode\":{},\"seconds\":{},\"nnz\":{},\"fibers\":{},\"flops\":{},\
                 \"measured_read_bytes\":{},\"measured_write_bytes\":{},\
                 \"predicted_read_bytes\":{},\"predicted_write_bytes\":{},\"rel_err\":{}}}",
                s.mode,
                jnum(s.seconds),
                s.stats
                    .as_ref()
                    .map(|st| st.nnz.to_string())
                    .unwrap_or_else(|| "null".into()),
                s.stats
                    .as_ref()
                    .map(|st| st.fibers.to_string())
                    .unwrap_or_else(|| "null".into()),
                jopt(s.stats.as_ref().map(|st| st.flops)),
                jopt(measured.map(|(r, _)| r * 8.0)),
                jopt(measured.map(|(_, w)| w * 8.0)),
                jopt(s.predicted.map(|(r, _)| r * 8.0)),
                jopt(s.predicted.map(|(_, w)| w * 8.0)),
                jopt(rel_err),
            );
        }
        let _ = writeln!(
            out,
            "{{\"schema\":1,{tag}\"iteration\":{},\"fit\":{},\"alloc_events\":{},\
             \"engine\":\"{}\",\"numa_nodes\":{},\"modes\":[{}]}}",
            rec.iteration,
            jnum(rec.fit),
            rec.alloc_events,
            report.engine,
            report.numa_nodes.max(1),
            modes
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Export: Chrome trace_event JSON
// ---------------------------------------------------------------------------

/// Renders spans as a Chrome `trace_event` JSON array (loadable in
/// Perfetto / `chrome://tracing`): one metadata `thread_name` event
/// per runtime thread plus one complete (`"ph":"X"`) event per span,
/// so each worker gets its own track. Timestamps are microseconds.
pub fn render_chrome_trace(spans: &[TraceSpan]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    let mut emit = |s: String, first: &mut bool| {
        // Manual comma threading keeps the array valid for any span count.
        if !*first {
            out.push(',');
        }
        out.push_str("\n  ");
        out.push_str(&s);
        *first = false;
    };
    let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    emit(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"stef\"}}"
            .to_string(),
        &mut first,
    );
    for tid in &tids {
        let name = if *tid == 0 {
            "dispatcher".to_string()
        } else {
            format!("worker {tid}")
        };
        emit(
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ),
            &mut first,
        );
    }
    for s in spans {
        let ts = s.start_ns as f64 / 1e3;
        let dur = (s.end_ns.saturating_sub(s.start_ns)) as f64 / 1e3;
        emit(
            format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"job {}\",\
                 \"ts\":{},\"dur\":{},\"args\":{{\"chunks\":{}}}}}",
                s.tid,
                s.job,
                jnum(ts),
                jnum(dur),
                s.chunks
            ),
            &mut first,
        );
    }
    out.push_str("\n]\n");
    out
}

// ---------------------------------------------------------------------------
// Export: human-readable renders
// ---------------------------------------------------------------------------

/// Human-readable per-mode audit table for `decompose --verbose`.
pub fn render_summary(report: &TelemetryReport) -> String {
    use std::fmt::Write as _;
    let audits = report.model_audit();
    let mut out = String::new();
    if report.records.is_empty() {
        out.push_str("telemetry: no iteration records collected\n");
        return out;
    }
    let _ = writeln!(
        out,
        "telemetry: {} iterations recorded, model audit per mode \
         (measured = cache-oblivious element traffic, model = §IV-C estimate):",
        report.records.len()
    );
    let _ = writeln!(
        out,
        "  {:>4}  {:>10}  {:>12}  {:>12}  {:>8}",
        "mode", "time (s)", "measured MB", "model MB", "rel err"
    );
    for a in &audits {
        let _ = writeln!(
            out,
            "  {:>4}  {:>10.4}  {:>12.3}  {:>12.3}  {:>7.1}%",
            a.mode,
            a.seconds,
            a.measured_elems * 8.0 / 1e6,
            a.predicted_elems * 8.0 / 1e6,
            a.rel_err * 100.0
        );
    }
    if audits.is_empty() {
        out.push_str("  (engine reports no traffic instrumentation)\n");
    }
    out
}

/// Per-worker load-balance table over the runtime pool counters, with
/// a max/mean imbalance ratio over claimed chunks. The dispatching
/// thread participates in every fan-out and is shown as `disp`.
pub fn render_load_balance(c: &crate::runtime::RuntimeCounters) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "runtime pool: {} workers, {} dispatches ({} inline)",
        c.workers, c.dispatches, c.inline_runs
    );
    let _ = writeln!(
        out,
        "  {:>6}  {:>10}  {:>10}  {:>8}",
        "thread", "busy", "chunks", "parks"
    );
    let _ = writeln!(
        out,
        "  {:>6}  {:>10}  {:>10}  {:>8}",
        "disp", "-", c.dispatcher_chunks, "-"
    );
    let mut chunks: Vec<u64> = vec![c.dispatcher_chunks];
    for (i, w) in c.per_worker.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:>6}  {:>10}  {:>10}  {:>8}",
            i + 1,
            w.busy,
            w.chunks,
            w.parks
        );
        chunks.push(w.chunks);
    }
    let max = chunks.iter().copied().max().unwrap_or(0) as f64;
    let mean = chunks.iter().sum::<u64>() as f64 / chunks.len().max(1) as f64;
    if mean > 0.0 {
        let _ = writeln!(
            out,
            "  imbalance (max/mean chunks): {:.2}x over {} threads",
            max / mean,
            chunks.len()
        );
    } else {
        out.push_str("  imbalance: no chunks claimed yet (cold pool)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> TelemetryReport {
        let stats = ModeStats {
            level: 1,
            nnz: 100,
            fibers: 140,
            flops: 9600.0,
            reads: 1000.0,
            writes: 200.0,
        };
        let mut c = Collector::new();
        c.record_mode(0, 0.5e-3, Some(stats.clone()), Some((900.0, 250.0)));
        c.record_mode(1, 0.25e-3, Some(stats), Some((1200.0, 200.0)));
        c.end_iteration(0, 0.9, 3);
        c.finish(Vec::new())
    }

    #[test]
    fn collector_builds_whole_iteration_records() {
        let r = sample_report();
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.records[0].modes.len(), 2);
        assert_eq!(r.records[0].alloc_events, 3);
        let audit = r.model_audit();
        assert_eq!(audit.len(), 2);
        // mode 0: measured 1200 vs predicted 1150 -> rel err 50/1150
        assert!((audit[0].rel_err - 50.0 / 1150.0).abs() < 1e-12);
    }

    #[test]
    fn jsonl_has_one_line_per_iteration_with_schema() {
        let r = sample_report();
        let jsonl = render_metrics_jsonl(&r);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("{\"schema\":1,"));
        assert!(lines[0].contains("\"measured_read_bytes\":8000"));
        assert!(lines[0].contains("\"rel_err\":"));
    }

    #[test]
    fn chrome_trace_renders_tracks_and_events() {
        let spans = [
            TraceSpan {
                tid: 0,
                job: 1,
                start_ns: 1000,
                end_ns: 3000,
                chunks: 2,
            },
            TraceSpan {
                tid: 1,
                job: 1,
                start_ns: 1500,
                end_ns: 2500,
                chunks: 1,
            },
        ];
        let json = render_chrome_trace(&spans);
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"dispatcher\""));
        assert!(json.contains("\"name\":\"worker 1\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":2"));
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        let mut r = sample_report();
        r.records[0].fit = f64::NAN;
        let jsonl = render_metrics_jsonl(&r);
        assert!(jsonl.contains("\"fit\":null"));
    }

    #[test]
    fn load_balance_table_reports_imbalance() {
        let c = crate::runtime::RuntimeCounters {
            workers: 2,
            dispatches: 4,
            inline_runs: 0,
            dispatcher_chunks: 2,
            panics: 0,
            cancelled_jobs: 0,
            resurrections: 0,
            respawns: 0,
            spawn_failures: 0,
            per_worker: vec![
                crate::runtime::WorkerCounters {
                    busy: 4,
                    chunks: 6,
                    parks: 1,
                },
                crate::runtime::WorkerCounters {
                    busy: 2,
                    chunks: 1,
                    parks: 3,
                },
            ],
        };
        let table = render_load_balance(&c);
        assert!(table.contains("disp"));
        assert!(table.contains("imbalance (max/mean chunks): 2.00x"));
    }
}
