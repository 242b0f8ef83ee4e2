//! `stef::metrics` — lock-free, label-aware metrics registry.
//!
//! Counters, gauges and fixed-bucket histograms for the long-running
//! service surfaces (runtime, kernels, supervisor, HTTP). The design
//! budget is the same as [`crate::telemetry`]'s: a *disabled*
//! registry must cost nothing on the hot path, and an
//! *enabled* one must cost a handful of relaxed `fetch_add`s — never a
//! lock, never an allocation.
//!
//! - **Registration** (`counter` / `gauge` / `histogram`) takes a
//!   `Mutex` and may allocate; it happens at construction time
//!   (worker-pool spawn, ALS setup, server bind) and hands back a
//!   leaked `&'static` handle. Steady-state increments through the
//!   handle are relaxed atomics on sharded, cache-line-padded cells.
//! - **Labels** are bounded: a family holds at most
//!   [`MAX_SERIES_PER_FAMILY`] series; registrations past the cap
//!   collapse into a single `overflow="true"` series so a hostile
//!   label source cannot grow memory without bound.
//! - **Gating**: a relaxed [`enabled`] flag, checked *before* any
//!   clock read, turns instrumentation off at run time
//!   ([`set_enabled`]) — the overhead bench uses it to measure
//!   on-vs-off per-op cost.
//!
//! The Prometheus text parser ([`parse_prometheus_text`]) and the
//! bucket-quantile helper serve the scrape consumers, `stef top` and
//! `validate_telemetry`.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

/// Hard cap on distinct label sets per metric family. Registrations
/// past the cap share one `overflow="true"` series.
pub const MAX_SERIES_PER_FAMILY: usize = 64;

/// Latency bucket ladder (seconds) shared by every duration histogram:
/// 1µs … 4s, roughly ×4 per step, spanning SIMD-kernel dispatches
/// through multi-second refit attempts.
pub const TIME_BUCKETS: &[f64] = &[
    1e-6, 4e-6, 1.6e-5, 6.4e-5, 2.56e-4, 1e-3, 4e-3, 1.6e-2, 6.4e-2, 0.25, 1.0, 4.0,
];

/// Coarser ladder (1 ms … 256 s) for job-scale durations (refit
/// attempts, drains) that would pile into [`TIME_BUCKETS`]' tail.
pub const JOB_BUCKETS: &[f64] = &[
    1e-3, 4e-3, 1.6e-2, 6.4e-2, 0.25, 1.0, 4.0, 16.0, 64.0, 256.0,
];

pub(crate) const MODE_LABELS: [&str; 9] = ["0", "1", "2", "3", "4", "5", "6", "7", "8+"];

pub(crate) fn mode_label(mode: usize) -> &'static str {
    MODE_LABELS[mode.min(MODE_LABELS.len() - 1)]
}

const WORKER_LABELS: [&str; 33] = [
    "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16",
    "17", "18", "19", "20", "21", "22", "23", "24", "25", "26", "27", "28", "29", "30", "31",
    "32+",
];

pub(crate) fn worker_label(idx: usize) -> &'static str {
    WORKER_LABELS[idx.min(WORKER_LABELS.len() - 1)]
}

pub(crate) fn status_label(status: u16) -> &'static str {
    match status {
        200 => "200",
        400 => "400",
        404 => "404",
        408 => "408",
        413 => "413",
        429 => "429",
        500 => "500",
        503 => "503",
        _ => "other",
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

// Process-wide: `/metrics` and `stef top` read the one registry every
// job in the daemon feeds.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Runtime on/off switch. Off: every increment returns after one
/// relaxed load, before any clock read at the call site.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

const SHARDS: usize = 8;

#[repr(align(64))]
struct Cell64(AtomicU64);

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn shard_idx() -> usize {
    SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT_SHARD.fetch_add(1, Relaxed) % SHARDS;
            s.set(v);
            v
        }
    })
}

/// Monotonic counter: increments are one relaxed `fetch_add` on a
/// per-thread-sharded, cache-line-padded cell.
pub struct Counter {
    cells: [Cell64; SHARDS],
}

impl Counter {
    const fn new() -> Self {
        Counter {
            cells: [const { Cell64(AtomicU64::new(0)) }; SHARDS],
        }
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if !enabled() {
            return;
        }
        self.cells[shard_idx()].0.fetch_add(n, Relaxed);
    }

    pub fn value(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Relaxed)).sum()
    }
}

/// Last-write-wins gauge storing `f64` bits. Gauges are sampled at
/// scrape/flush time (cold path) so a single cell suffices.
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    const fn new() -> Self {
        Gauge { bits: AtomicU64::new(0) }
    }

    #[inline]
    pub fn set(&self, v: f64) {
        if !enabled() {
            return;
        }
        self.bits.store(v.to_bits(), Relaxed);
    }

    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Relaxed))
    }
}

/// Fixed-bucket histogram of *seconds*. An observation is three
/// relaxed `fetch_add`s (bucket, nanosecond sum, count); the bucket
/// scan is a linear pass over ≤ 16 bounds.
pub struct Histogram {
    bounds: &'static [f64],
    buckets: Box<[AtomicU64]>,
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &'static [f64]) -> Self {
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            sum_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn observe(&self, seconds: f64) {
        if !enabled() {
            return;
        }
        let mut idx = self.bounds.len();
        for (i, b) in self.bounds.iter().enumerate() {
            if seconds <= *b {
                idx = i;
                break;
            }
        }
        self.buckets[idx].fetch_add(1, Relaxed);
        self.sum_nanos
            .fetch_add((seconds.max(0.0) * 1e9) as u64, Relaxed);
        self.count.fetch_add(1, Relaxed);
    }

    #[inline]
    pub fn observe_ns(&self, nanos: u64) {
        self.observe(nanos as f64 * 1e-9);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    pub fn sum_seconds(&self) -> f64 {
        self.sum_nanos.load(Relaxed) as f64 * 1e-9
    }

    /// (upper-bound, cumulative-count) pairs ending with `+Inf`.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut cum = 0u64;
        let mut out = Vec::with_capacity(self.buckets.len());
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Relaxed);
            let le = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((le, cum));
        }
        out
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

#[derive(Clone, Copy)]
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

struct Series {
    labels: Vec<(String, String)>,
    metric: Metric,
}

struct Family {
    name: &'static str,
    help: &'static str,
    kind: Kind,
    bounds: &'static [f64],
    series: Vec<Series>,
}

// Process-wide: `/metrics` and `stef top` render every job's series.
static REGISTRY: Mutex<Vec<Family>> = Mutex::new(Vec::new());

const OVERFLOW_LABELS: &[(&str, &str)] = &[("overflow", "true")];

fn register(
    name: &'static str,
    help: &'static str,
    kind: Kind,
    bounds: &'static [f64],
    labels: &[(&str, &str)],
) -> Metric {
    let mut reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    let fidx = match reg.iter().position(|f| f.name == name) {
        Some(i) => i,
        None => {
            reg.push(Family { name, help, kind, bounds, series: Vec::new() });
            reg.len() - 1
        }
    };
    // A name reused with a different kind is a programming error;
    // fall back to the overflow series of the existing family so
    // release builds stay up.
    debug_assert!(reg[fidx].kind == kind, "metric {name} re-registered with new kind");
    let effective: &[(&str, &str)] =
        if reg[fidx].kind != kind || reg[fidx].series.len() >= MAX_SERIES_PER_FAMILY {
            OVERFLOW_LABELS
        } else {
            labels
        };
    let family = &mut reg[fidx];
    let found = family.series.iter().position(|s| {
        s.labels.len() == effective.len()
            && s.labels
                .iter()
                .zip(effective.iter())
                .all(|((k, v), (ek, ev))| k == ek && v == ev)
    });
    let sidx = match found {
        Some(i) => i,
        None => {
            let metric = match family.kind {
                Kind::Counter => Metric::Counter(Box::leak(Box::new(Counter::new()))),
                Kind::Gauge => Metric::Gauge(Box::leak(Box::new(Gauge::new()))),
                Kind::Histogram => {
                    Metric::Histogram(Box::leak(Box::new(Histogram::new(family.bounds))))
                }
            };
            family.series.push(Series {
                labels: effective
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                metric,
            });
            family.series.len() - 1
        }
    };
    // The metric cells are leaked (&'static), so the enum itself
    // can be handed out by value even though the series Vec may
    // reallocate on later registrations.
    family.series[sidx].metric
}

/// Register (or look up) a counter series. Takes a lock and may
/// allocate — call at construction time and keep the handle.
pub fn counter(
    name: &'static str,
    help: &'static str,
    labels: &[(&str, &str)],
) -> &'static Counter {
    match register(name, help, Kind::Counter, &[], labels) {
        Metric::Counter(c) => c,
        _ => unreachable!("kind mismatch handled in register"),
    }
}

/// Register (or look up) a gauge series.
pub fn gauge(name: &'static str, help: &'static str, labels: &[(&str, &str)]) -> &'static Gauge {
    match register(name, help, Kind::Gauge, &[], labels) {
        Metric::Gauge(g) => g,
        _ => unreachable!("kind mismatch handled in register"),
    }
}

/// Register (or look up) a histogram series with the given bucket
/// bounds (seconds). Bounds are fixed per family; the first
/// registration wins.
pub fn histogram(
    name: &'static str,
    help: &'static str,
    labels: &[(&str, &str)],
    bounds: &'static [f64],
) -> &'static Histogram {
    match register(name, help, Kind::Histogram, bounds, labels) {
        Metric::Histogram(h) => h,
        _ => unreachable!("kind mismatch handled in register"),
    }
}

fn escape_label(v: &str, out: &mut String) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn write_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        escape_label(v, out);
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        escape_label(v, out);
        out.push('"');
    }
    out.push('}');
}

fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else if v.is_nan() {
        "NaN".into()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Render the whole registry in Prometheus text exposition format
/// 0.0.4. Families are sorted by name so output is deterministic.
pub fn render_prometheus() -> String {
    let reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    let mut order: Vec<usize> = (0..reg.len()).collect();
    order.sort_by_key(|&i| reg[i].name);
    let mut out = String::with_capacity(4096);
    for i in order {
        let f = &reg[i];
        out.push_str("# HELP ");
        out.push_str(f.name);
        out.push(' ');
        out.push_str(&f.help.replace('\\', "\\\\").replace('\n', "\\n"));
        out.push('\n');
        out.push_str("# TYPE ");
        out.push_str(f.name);
        out.push(' ');
        out.push_str(match f.kind {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        });
        out.push('\n');
        for s in &f.series {
            match &s.metric {
                Metric::Counter(c) => {
                    out.push_str(f.name);
                    write_labels(&mut out, &s.labels, None);
                    out.push(' ');
                    out.push_str(&fmt_f64(c.value() as f64));
                    out.push('\n');
                }
                Metric::Gauge(g) => {
                    out.push_str(f.name);
                    write_labels(&mut out, &s.labels, None);
                    out.push(' ');
                    out.push_str(&fmt_f64(g.value()));
                    out.push('\n');
                }
                Metric::Histogram(h) => {
                    for (le, cum) in h.cumulative() {
                        out.push_str(f.name);
                        out.push_str("_bucket");
                        write_labels(&mut out, &s.labels, Some(("le", &fmt_f64(le))));
                        out.push(' ');
                        out.push_str(&fmt_f64(cum as f64));
                        out.push('\n');
                    }
                    out.push_str(f.name);
                    out.push_str("_sum");
                    write_labels(&mut out, &s.labels, None);
                    out.push(' ');
                    out.push_str(&fmt_f64(h.sum_seconds()));
                    out.push('\n');
                    out.push_str(f.name);
                    out.push_str("_count");
                    write_labels(&mut out, &s.labels, None);
                    out.push(' ');
                    out.push_str(&fmt_f64(h.count() as f64));
                    out.push('\n');
                }
            }
        }
    }
    out
}

/// Render one JSONL flush record (`{"schema":2,"kind":"metrics_flush",...}`)
/// for the periodic supervisor metrics sink. Histograms flatten to
/// `_count`, `_sum_seconds` and a `_p99` estimate.
pub fn render_flush_jsonl(uptime_s: f64) -> String {
    let reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    let mut out = String::with_capacity(2048);
    out.push_str(&format!(
        "{{\"schema\":2,\"kind\":\"metrics_flush\",\"uptime_s\":{uptime_s:.3},\"samples\":["
    ));
    let mut first = true;
    let push_sample =
        |out: &mut String, first: &mut bool, name: &str, labels: &[(String, String)], v: f64| {
            if !v.is_finite() {
                return;
            }
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str("{\"name\":\"");
            out.push_str(name);
            out.push_str("\",\"labels\":{");
            let mut lf = true;
            for (k, val) in labels {
                if !lf {
                    out.push(',');
                }
                lf = false;
                out.push_str(&format!("\"{k}\":\"{}\"", val.replace('"', "\\\"")));
            }
            out.push_str(&format!("}},\"value\":{v}}}"));
        };
    for f in reg.iter() {
        for s in &f.series {
            match &s.metric {
                Metric::Counter(c) => {
                    push_sample(&mut out, &mut first, f.name, &s.labels, c.value() as f64)
                }
                Metric::Gauge(g) => {
                    push_sample(&mut out, &mut first, f.name, &s.labels, g.value())
                }
                Metric::Histogram(h) => {
                    push_sample(
                        &mut out,
                        &mut first,
                        &format!("{}_count", f.name),
                        &s.labels,
                        h.count() as f64,
                    );
                    push_sample(
                        &mut out,
                        &mut first,
                        &format!("{}_sum_seconds", f.name),
                        &s.labels,
                        h.sum_seconds(),
                    );
                    let pairs: Vec<(f64, f64)> =
                        h.cumulative().iter().map(|&(le, c)| (le, c as f64)).collect();
                    let p99 = quantile_from_buckets(&pairs, 0.99);
                    push_sample(
                        &mut out,
                        &mut first,
                        &format!("{}_p99", f.name),
                        &s.labels,
                        p99,
                    );
                }
            }
        }
    }
    out.push_str("]}");
    out
}

// -- continuous §IV-C model-drift audit --------------------------------

struct DriftCell {
    engine: String,
    mode: usize,
    measured: f64,
    predicted: f64,
    warned: bool,
}

// Process-wide: the drift gauge `/metrics` exports spans every job.
static DRIFT: Mutex<Vec<DriftCell>> = Mutex::new(Vec::new());

/// Fold one finished job's measured-vs-predicted traffic for
/// `(engine, mode)` into the cumulative drift gauges. Logs a
/// `STEF_LOG` warning the first time cumulative relative error
/// crosses `warn_threshold` (re-arming once it falls below half).
pub fn record_model_drift(
    engine: &str,
    mode: usize,
    measured_elems: f64,
    predicted_elems: f64,
    warn_threshold: f64,
) {
    if !enabled() || !measured_elems.is_finite() || !predicted_elems.is_finite() {
        return;
    }
    let mut drift = DRIFT.lock().unwrap_or_else(|p| p.into_inner());
    let idx = match drift.iter().position(|d| d.engine == engine && d.mode == mode) {
        Some(i) => i,
        None => {
            if drift.len() >= MAX_SERIES_PER_FAMILY {
                return;
            }
            drift.push(DriftCell {
                engine: engine.to_string(),
                mode,
                measured: 0.0,
                predicted: 0.0,
                warned: false,
            });
            drift.len() - 1
        }
    };
    let cell = &mut drift[idx];
    cell.measured += measured_elems;
    cell.predicted += predicted_elems;
    let rel = crate::model::drift_rel_err(cell.measured, cell.predicted);
    let mode_l = mode_label(mode);
    gauge(
        "stef_model_drift_rel_err",
        "Cumulative relative error of Sec. IV-C predicted vs measured traffic",
        &[("engine", engine), ("mode", mode_l)],
    )
    .set(rel);
    gauge(
        "stef_model_measured_elems",
        "Cumulative measured memory traffic (elements)",
        &[("engine", engine), ("mode", mode_l)],
    )
    .set(cell.measured);
    gauge(
        "stef_model_predicted_elems",
        "Cumulative Sec. IV-C predicted memory traffic (elements)",
        &[("engine", engine), ("mode", mode_l)],
    )
    .set(cell.predicted);
    if rel > warn_threshold && !cell.warned {
        cell.warned = true;
        let (engine, measured, predicted) =
            (cell.engine.clone(), cell.measured, cell.predicted);
        drop(drift);
        crate::telemetry::warn("model", move || {
            format!(
                "traffic model drift: engine={engine} mode={mode} rel_err={rel:.3} \
                 (measured {measured:.3e} vs predicted {predicted:.3e} elems) — \
                 admission pricing and --engine auto bids may be stale"
            )
        });
    } else if rel < warn_threshold * 0.5 {
        cell.warned = false;
    }
}

// -- pre-registered hot-path handles -----------------------------------

/// Per-worker counter handles, resolved once at pool construction
/// so the dispatch path stays allocation-free.
#[derive(Clone, Copy)]
pub struct WorkerHandles {
    bursts: &'static Counter,
    chunks: &'static Counter,
    parks: &'static Counter,
}

pub fn worker_handles(idx: usize) -> WorkerHandles {
    let w = worker_label(idx);
    WorkerHandles {
        bursts: counter(
            "stef_worker_bursts_total",
            "Work-claim bursts per pool worker",
            &[("worker", w)],
        ),
        chunks: counter(
            "stef_worker_chunks_total",
            "Chunks claimed per pool worker",
            &[("worker", w)],
        ),
        parks: counter(
            "stef_worker_parks_total",
            "Futex parks per pool worker",
            &[("worker", w)],
        ),
    }
}

impl WorkerHandles {
    #[inline]
    pub fn park(&self) {
        self.parks.inc();
    }

    /// One claimed chunk; `first` opens a new burst.
    #[inline]
    pub fn chunk(&self, first: bool) {
        if first {
            self.bursts.inc();
        }
        self.chunks.inc();
    }
}

/// Pool-level handles (dispatch counters + latency histogram),
/// resolved once at pool construction.
#[derive(Clone, Copy)]
pub struct PoolHandles {
    dispatches: &'static Counter,
    inline_runs: &'static Counter,
    panics: &'static Counter,
    cancelled: &'static Counter,
    latency: &'static Histogram,
}

pub fn pool_handles() -> PoolHandles {
    PoolHandles {
        dispatches: counter(
            "stef_pool_dispatches_total",
            "Parallel fan-outs published to the worker pool",
            &[],
        ),
        inline_runs: counter(
            "stef_pool_inline_runs_total",
            "Dispatches run inline on the caller (pool busy or tiny job)",
            &[],
        ),
        panics: counter(
            "stef_pool_panics_total",
            "Worker panics caught and healed by the pool",
            &[],
        ),
        cancelled: counter(
            "stef_pool_cancelled_total",
            "Dispatches aborted by cooperative cancellation",
            &[],
        ),
        latency: histogram(
            "stef_dispatch_seconds",
            "Wall time of one pool dispatch (publish to completion barrier)",
            &[],
            TIME_BUCKETS,
        ),
    }
}

impl PoolHandles {
    #[inline]
    pub fn dispatch(&self, nanos: u64) {
        self.dispatches.inc();
        self.latency.observe_ns(nanos);
    }

    #[inline]
    pub fn inline_run(&self) {
        self.inline_runs.inc();
    }

    #[inline]
    pub fn panic(&self) {
        self.panics.inc();
    }

    #[inline]
    pub fn cancelled(&self) {
        self.cancelled.inc();
    }
}

// ---------------------------------------------------------------------------
// Prometheus text parser + quantile helper
// ---------------------------------------------------------------------------

/// One parsed exposition sample: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl PromSample {
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" | "Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        other => other
            .parse::<f64>()
            .map_err(|_| format!("bad sample value {other:?}")),
    }
}

/// Parse Prometheus text exposition format 0.0.4. Comments (`# HELP`,
/// `# TYPE`) and blank lines are skipped; every sample line must parse
/// or an error naming the line is returned. Optional trailing
/// timestamps are accepted and ignored.
pub fn parse_prometheus_text(text: &str) -> Result<Vec<PromSample>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |msg: &str| format!("line {}: {msg}: {raw:?}", lineno + 1);
        let (name, rest) = match line.find(['{', ' ', '\t']) {
            Some(i) => (&line[..i], &line[i..]),
            None => return Err(err("missing value")),
        };
        if !valid_name(name) {
            return Err(err("invalid metric name"));
        }
        let mut labels = Vec::new();
        let rest = if let Some(body) = rest.strip_prefix('{') {
            let mut chars = body.char_indices();
            let consumed;
            'outer: loop {
                // Label key.
                let mut key = String::new();
                let mut val = String::new();
                loop {
                    match chars.next() {
                        Some((i, '}')) if key.is_empty() => {
                            consumed = i + 1;
                            break 'outer;
                        }
                        Some((_, '=')) => break,
                        Some((_, c)) if c.is_ascii_alphanumeric() || c == '_' => key.push(c),
                        _ => return Err(err("bad label key")),
                    }
                }
                match chars.next() {
                    Some((_, '"')) => {}
                    _ => return Err(err("label value must be quoted")),
                }
                loop {
                    match chars.next() {
                        Some((_, '\\')) => match chars.next() {
                            Some((_, 'n')) => val.push('\n'),
                            Some((_, '\\')) => val.push('\\'),
                            Some((_, '"')) => val.push('"'),
                            _ => return Err(err("bad escape in label value")),
                        },
                        Some((_, '"')) => break,
                        Some((_, c)) => val.push(c),
                        None => return Err(err("unterminated label value")),
                    }
                }
                labels.push((key, val));
                match chars.next() {
                    Some((_, ',')) => continue,
                    Some((i, '}')) => {
                        consumed = i + 1;
                        break 'outer;
                    }
                    _ => return Err(err("expected ',' or '}' after label")),
                }
            }
            &body[consumed..]
        } else {
            rest
        };
        let mut fields = rest.split_ascii_whitespace();
        let value = parse_value(fields.next().ok_or_else(|| err("missing value"))?)?;
        // An optional timestamp may follow; anything beyond that is junk.
        let _ts = fields.next();
        if fields.next().is_some() {
            return Err(err("trailing garbage after value"));
        }
        out.push(PromSample { name: name.to_string(), labels, value });
    }
    Ok(out)
}

/// Estimate a quantile from cumulative histogram buckets
/// (`(upper_bound, cumulative_count)` sorted ascending, ending with
/// `+Inf`). Linear interpolation within the containing bucket;
/// `NaN` when the histogram is empty.
pub fn quantile_from_buckets(buckets: &[(f64, f64)], q: f64) -> f64 {
    let total = match buckets.last() {
        Some(&(_, t)) if t > 0.0 => t,
        _ => return f64::NAN,
    };
    let target = q.clamp(0.0, 1.0) * total;
    let mut prev_le = 0.0;
    let mut prev_cum = 0.0;
    for &(le, cum) in buckets {
        if cum >= target {
            if le.is_infinite() {
                // Best effort: the quantile lies above the last finite
                // bound; report that bound.
                return prev_le;
            }
            if cum <= prev_cum {
                return le;
            }
            return prev_le + (le - prev_le) * ((target - prev_cum) / (cum - prev_cum));
        }
        prev_le = le;
        prev_cum = cum;
    }
    prev_le
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_increments_sum_exactly() {
        let c = counter("test_concurrent_total", "t", &[]);
        let threads = 8;
        let per = 100_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), threads as u64 * per);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        static BOUNDS: &[f64] = &[0.001, 0.01, 0.1];
        let h = histogram("test_boundaries_seconds", "t", &[], BOUNDS);
        // On-boundary observations land in the bucket they bound
        // (le is inclusive), one observation past every bound lands
        // in +Inf.
        for v in [0.001, 0.0005, 0.01, 0.05, 0.1, 7.0] {
            h.observe(v);
        }
        let cum = h.cumulative();
        assert_eq!(cum.len(), 4);
        assert_eq!(cum[0], (0.001, 2)); // 0.0005, 0.001
        assert_eq!(cum[1], (0.01, 3)); // + 0.01
        assert_eq!(cum[2], (0.1, 5)); // + 0.05, 0.1
        assert!(cum[3].0.is_infinite());
        assert_eq!(cum[3].1, 6); // + 7.0
        assert_eq!(h.count(), 6);
        assert!((h.sum_seconds() - 7.1615).abs() < 1e-6);
    }

    #[test]
    fn label_cardinality_cap_overflows() {
        // 80 distinct label sets → the first MAX_SERIES_PER_FAMILY
        // register real series, the rest all alias one overflow series.
        let labels: Vec<String> = (0..80).map(|i| format!("job-{i}")).collect();
        for l in &labels {
            counter("test_cardinality_total", "t", &[("job", l)]).inc();
        }
        let text = render_prometheus();
        let series: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("test_cardinality_total"))
            .collect();
        assert_eq!(series.len(), MAX_SERIES_PER_FAMILY + 1);
        let overflow = series
            .iter()
            .find(|l| l.contains("overflow=\"true\""))
            .expect("overflow series rendered");
        let v: f64 = overflow.rsplit(' ').next().unwrap().parse().unwrap();
        assert_eq!(v as u64, 80 - MAX_SERIES_PER_FAMILY as u64);
    }

    #[test]
    fn render_parse_roundtrip() {
        counter("test_roundtrip_total", "a counter", &[("k", "va\"l\\ue")]).add(42);
        gauge("test_roundtrip_gauge", "a gauge", &[]).set(2.5);
        static BOUNDS: &[f64] = &[0.5, 1.5];
        let h = histogram("test_roundtrip_seconds", "a histogram", &[], BOUNDS);
        h.observe(1.0);
        let text = render_prometheus();
        let samples = parse_prometheus_text(&text).expect("own exposition parses");
        let c = samples
            .iter()
            .find(|s| s.name == "test_roundtrip_total")
            .unwrap();
        assert_eq!(c.value, 42.0);
        assert_eq!(c.label("k"), Some("va\"l\\ue"));
        let g = samples
            .iter()
            .find(|s| s.name == "test_roundtrip_gauge")
            .unwrap();
        assert_eq!(g.value, 2.5);
        let buckets: Vec<&PromSample> = samples
            .iter()
            .filter(|s| s.name == "test_roundtrip_seconds_bucket")
            .collect();
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].value, 0.0); // le=0.5
        assert_eq!(buckets[1].value, 1.0); // le=1.5
        assert_eq!(buckets[2].label("le"), Some("+Inf"));
        assert_eq!(buckets[2].value, 1.0);
        let count = samples
            .iter()
            .find(|s| s.name == "test_roundtrip_seconds_count")
            .unwrap();
        assert_eq!(count.value, 1.0);
    }

    #[test]
    fn quantile_interpolates() {
        // 100 observations uniform in (0, 1]: cum = [(0.25, 25), (0.5, 50), (1.0, 100), (inf, 100)]
        let b = [(0.25, 25.0), (0.5, 50.0), (1.0, 100.0), (f64::INFINITY, 100.0)];
        let p50 = quantile_from_buckets(&b, 0.5);
        assert!((p50 - 0.5).abs() < 1e-9, "p50={p50}");
        let p99 = quantile_from_buckets(&b, 0.99);
        assert!((p99 - 0.99).abs() < 0.02, "p99={p99}");
        assert!(quantile_from_buckets(&[], 0.5).is_nan());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_prometheus_text("ok_total 1\n").is_ok());
        assert!(parse_prometheus_text("bad name 1\n").is_err());
        assert!(parse_prometheus_text("x{unterminated=\"v 1\n").is_err());
        assert!(parse_prometheus_text("x 1 2 3\n").is_err());
        assert!(parse_prometheus_text("x{a=\"b\"} +Inf\n").is_ok());
    }
}
