//! `validate_telemetry` — CI gate for the telemetry export formats.
//!
//! Usage: `validate_telemetry <metrics.jsonl> <trace.json>
//!                            [BENCH_*.json | scrape.prom ...]`
//!
//! Checks, without jq or python, that the files a `stef decompose
//! --metrics-out --trace-out` run produced are well-formed:
//!
//! * every JSONL line is a schema-1 iteration record with a finite fit,
//!   a non-empty `modes` array, and per-mode measured/predicted traffic
//!   whose `rel_err` is a finite number (the model-vs-measured audit
//!   actually happened — `null` would mean one side was missing);
//!   schema-2 `"kind":"metrics_flush"` registry snapshots (the serve
//!   daemon's periodic flushes) are allowed to interleave;
//! * the trace is a Chrome `trace_event` JSON array with `thread_name`
//!   metadata and at least one complete (`"ph":"X"`) span event;
//! * optionally, tracked bench trajectory files: `BENCH_mttkrp.json`
//!   is a schema-6 kernel report with finite-positive `ns` and
//!   `bytes_per_ns` per record, `BENCH_alto.json` the schema-3 engine
//!   race; schema 4/5 are the `BENCH_service.json` daemon load reports,
//!   and schema 5 additionally gates the metrics overhead at < 2%;
//! * a trailing argument ending in `.prom` is validated as a Prometheus
//!   text exposition (a mid-soak `/metrics` scrape): it must parse,
//!   carry the core runtime/supervisor/HTTP families, and every
//!   histogram series must have monotonically non-decreasing
//!   cumulative buckets ending in `+Inf`.
//!
//! Exits nonzero with a description of the first violation.

use std::process::ExitCode;
use stef_bench::{parse_json, Json};

fn check_metrics(path: &str) -> Result<(), String> {
    let body =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut iterations = 0usize;
    for (lineno, line) in body.lines().enumerate() {
        let n = lineno + 1;
        let rec = parse_json(line).map_err(|e| format!("{path}:{n}: {e}"))?;
        // The serve daemon's periodic registry flushes (schema 2)
        // interleave with iteration records in the same sink.
        if rec.get("kind").and_then(Json::as_str) == Some("metrics_flush") {
            if rec.get("schema").and_then(Json::as_u64) != Some(2) {
                return Err(format!("{path}:{n}: metrics_flush without schema 2"));
            }
            continue;
        }
        if rec.get("schema").and_then(Json::as_u64) != Some(1) {
            return Err(format!("{path}:{n}: missing or wrong \"schema\" (want 1)"));
        }
        rec.get("iteration")
            .and_then(Json::as_u64)
            .ok_or(format!("{path}:{n}: missing \"iteration\""))?;
        let fit = rec
            .get("fit")
            .and_then(Json::as_f64)
            .ok_or(format!("{path}:{n}: missing \"fit\""))?;
        if !fit.is_finite() {
            return Err(format!("{path}:{n}: non-finite fit"));
        }
        let modes = rec
            .get("modes")
            .and_then(Json::as_arr)
            .ok_or(format!("{path}:{n}: missing \"modes\" array"))?;
        if modes.is_empty() {
            return Err(format!("{path}:{n}: empty \"modes\" array"));
        }
        for m in modes {
            let mode = m
                .get("mode")
                .and_then(Json::as_u64)
                .ok_or(format!("{path}:{n}: mode entry without \"mode\""))?;
            for key in [
                "seconds",
                "measured_read_bytes",
                "measured_write_bytes",
                "predicted_read_bytes",
                "predicted_write_bytes",
                "rel_err",
            ] {
                let v = m
                    .get(key)
                    .and_then(Json::as_f64)
                    .ok_or(format!("{path}:{n}: mode {mode} \"{key}\" missing or null"))?;
                if !v.is_finite() {
                    return Err(format!("{path}:{n}: mode {mode} \"{key}\" not finite"));
                }
            }
        }
        iterations += 1;
    }
    if iterations == 0 {
        return Err(format!("{path}: no iteration records"));
    }
    println!("{path}: OK ({iterations} iteration records, schema 1, finite rel_err)");
    Ok(())
}

fn check_trace(path: &str) -> Result<(), String> {
    let body =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let events = parse_json(&body)
        .map_err(|e| format!("{path}: {e}"))?
        .as_arr()
        .ok_or(format!("{path}: top level is not an array"))?
        .to_vec();
    let mut named_threads = 0usize;
    let mut spans = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("{path}: event {i} has no \"ph\""))?;
        match ph {
            "M" => {
                if ev.get("name").and_then(Json::as_str) == Some("thread_name") {
                    named_threads += 1;
                }
            }
            "X" => {
                for key in ["ts", "dur"] {
                    let v = ev
                        .get(key)
                        .and_then(Json::as_f64)
                        .ok_or(format!("{path}: span event {i} \"{key}\" missing"))?;
                    if !v.is_finite() || v < 0.0 {
                        return Err(format!("{path}: span event {i} \"{key}\" invalid"));
                    }
                }
                ev.get("tid")
                    .and_then(Json::as_u64)
                    .ok_or(format!("{path}: span event {i} has no \"tid\""))?;
                spans += 1;
            }
            other => return Err(format!("{path}: event {i} has unexpected ph {other:?}")),
        }
    }
    if named_threads == 0 {
        return Err(format!("{path}: no thread_name metadata (no worker tracks)"));
    }
    if spans == 0 {
        return Err(format!("{path}: no complete (ph:X) span events"));
    }
    println!("{path}: OK ({named_threads} thread tracks, {spans} spans)");
    Ok(())
}

/// Validates a tracked bench trajectory file. Four schema versions are
/// accepted: schema 3 (the `BENCH_alto.json` engine race: per-mode
/// `csf_ns`/`alto_ns`/`speedup` records plus a top-level `auto_pick`
/// engine name and `sweep_speedup`), schemas 4 and 5 (the
/// `BENCH_service.json` daemon load report: refit throughput plus
/// query latency percentiles under concurrent refit — no `records`
/// array), and schema 6 (the `BENCH_mttkrp.json` kernel report:
/// top-level `simd` and `pool_workers`, per-record `accum`, `simd`,
/// `ns` and `bytes_per_ns`).
fn check_bench(path: &str) -> Result<(), String> {
    let body =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let rep = parse_json(&body).map_err(|e| format!("{path}: {e}"))?;
    let schema = rep
        .get("schema")
        .and_then(Json::as_u64)
        .ok_or(format!("{path}: missing \"schema\""))?;
    if !(3..=6).contains(&schema) {
        return Err(format!("{path}: unknown schema {schema} (want 3..6)"));
    }
    if schema == 4 || schema == 5 {
        for key in ["jobs_per_sec", "query_p50_us", "query_p99_us"] {
            let v = rep
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("{path}: schema {schema} report without \"{key}\""))?;
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{path}: \"{key}\" not finite-positive"));
            }
        }
        let queries = rep
            .get("queries")
            .and_then(Json::as_u64)
            .ok_or(format!("{path}: schema {schema} report without \"queries\""))?;
        if queries == 0 {
            return Err(format!("{path}: schema {schema} report with zero queries"));
        }
        if schema == 5 {
            // The metrics-overhead fields are ratios/unit costs, so
            // unlike raw latencies they gate portably: the registry
            // must cost < 2% of a median query even on slow CI boxes.
            for key in ["scrape_p99_us", "metrics_per_op_on_ns", "metrics_per_op_off_ns"] {
                let v = rep
                    .get(key)
                    .and_then(Json::as_f64)
                    .ok_or(format!("{path}: schema 5 report without \"{key}\""))?;
                if !v.is_finite() || v < 0.0 {
                    return Err(format!("{path}: \"{key}\" not finite-nonnegative"));
                }
            }
            let overhead = rep
                .get("metrics_overhead_pct")
                .and_then(Json::as_f64)
                .ok_or(format!("{path}: schema 5 report without \"metrics_overhead_pct\""))?;
            if !overhead.is_finite() || overhead < 0.0 {
                return Err(format!("{path}: \"metrics_overhead_pct\" not finite-nonnegative"));
            }
            if overhead >= 2.0 {
                return Err(format!(
                    "{path}: metrics overhead {overhead}% breaches the 2% budget"
                ));
            }
        }
        println!("{path}: OK (service load report, schema {schema}, {queries} queries)");
        return Ok(());
    }
    if schema == 6 {
        rep.get("simd")
            .and_then(Json::as_str)
            .ok_or(format!("{path}: schema 6 report without \"simd\""))?;
        rep.get("pool_workers")
            .and_then(Json::as_u64)
            .ok_or(format!("{path}: schema 6 report without \"pool_workers\""))?;
    }
    if schema == 3 {
        let pick = rep
            .get("auto_pick")
            .and_then(Json::as_str)
            .ok_or(format!("{path}: schema 3 report without \"auto_pick\""))?;
        if pick.is_empty() {
            return Err(format!("{path}: empty \"auto_pick\""));
        }
        let sweep = rep
            .get("sweep_speedup")
            .and_then(Json::as_f64)
            .ok_or(format!("{path}: schema 3 report without \"sweep_speedup\""))?;
        if !sweep.is_finite() || sweep <= 0.0 {
            return Err(format!("{path}: \"sweep_speedup\" not finite-positive"));
        }
    }
    let records = rep
        .get("records")
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: missing \"records\" array"))?;
    if records.is_empty() {
        return Err(format!("{path}: empty \"records\" array"));
    }
    for (i, r) in records.iter().enumerate() {
        r.get("mode")
            .and_then(Json::as_u64)
            .ok_or(format!("{path}: record {i} without \"mode\""))?;
        let numeric = if schema == 6 {
            for key in ["accum", "simd"] {
                r.get(key)
                    .and_then(Json::as_str)
                    .ok_or(format!("{path}: record {i} without \"{key}\""))?;
            }
            ["ns", "bytes_per_ns"].as_slice()
        } else {
            ["csf_ns", "alto_ns", "speedup"].as_slice()
        };
        for &key in numeric {
            let v = r
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("{path}: record {i} \"{key}\" missing or null"))?;
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{path}: record {i} \"{key}\" not finite-positive"));
            }
        }
    }
    println!(
        "{path}: OK ({} records, schema {schema})",
        records.len()
    );
    Ok(())
}

/// Validates a saved `/metrics` scrape: parses the Prometheus text
/// exposition with the library's own strict parser, requires the core
/// instrumentation families, and checks every histogram series for
/// cumulative-bucket monotonicity ending in `+Inf`.
fn check_prometheus(path: &str) -> Result<(), String> {
    let body =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let samples =
        stef::parse_prometheus_text(&body).map_err(|e| format!("{path}: {e}"))?;
    if samples.is_empty() {
        return Err(format!("{path}: no samples"));
    }
    let total = |name: &str| -> f64 {
        samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    };
    // Families one mid-soak scrape of a working daemon must carry:
    // HTTP service, supervisor outcomes, kernel sweeps, uptime.
    for family in [
        "stef_uptime_seconds",
        "stef_http_requests_total",
        "stef_jobs_completed_total",
        "stef_mttkrp_seconds_count",
        "stef_snapshot_generations",
    ] {
        if !samples.iter().any(|s| s.name == family) {
            return Err(format!("{path}: missing family \"{family}\""));
        }
    }
    for family in ["stef_http_requests_total", "stef_jobs_completed_total"] {
        if total(family) <= 0.0 {
            return Err(format!("{path}: \"{family}\" is zero in a post-soak scrape"));
        }
    }
    // Histogram sanity: group _bucket samples by (name, labels minus
    // le); within a series, counts must be cumulative and end at +Inf.
    let mut series: std::collections::BTreeMap<String, Vec<(f64, f64)>> =
        std::collections::BTreeMap::new();
    for s in samples.iter().filter(|s| s.name.ends_with("_bucket")) {
        let le = s
            .label("le")
            .ok_or(format!("{path}: {} sample without \"le\"", s.name))?;
        let le = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse::<f64>()
                .map_err(|_| format!("{path}: {} has bad le \"{le}\"", s.name))?
        };
        let mut key = s.name.clone();
        for (k, v) in &s.labels {
            if k != "le" {
                key.push_str(&format!(",{k}={v}"));
            }
        }
        series.entry(key).or_default().push((le, s.value));
    }
    let mut histograms = 0usize;
    for (key, mut buckets) in series {
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut prev = 0.0;
        for &(le, count) in &buckets {
            if count < prev {
                return Err(format!(
                    "{path}: histogram {key} not cumulative at le={le} ({count} < {prev})"
                ));
            }
            prev = count;
        }
        match buckets.last() {
            Some(&(le, _)) if le.is_infinite() => {}
            _ => return Err(format!("{path}: histogram {key} has no +Inf bucket")),
        }
        histograms += 1;
    }
    if histograms == 0 {
        return Err(format!("{path}: no histogram series at all"));
    }
    println!(
        "{path}: OK ({} samples, {histograms} histogram series, buckets cumulative)",
        samples.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (metrics, trace, benches) = match argv.as_slice() {
        [m, t, rest @ ..] => (m, t, rest),
        _ => {
            eprintln!(
                "usage: validate_telemetry <metrics.jsonl> <trace.json> \
                 [BENCH_*.json | scrape.prom ...]"
            );
            return ExitCode::from(2);
        }
    };
    let result = check_metrics(metrics)
        .and_then(|()| check_trace(trace))
        .and_then(|()| {
            benches.iter().try_for_each(|b| {
                if b.ends_with(".prom") {
                    check_prometheus(b)
                } else {
                    check_bench(b)
                }
            })
        });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("validate_telemetry: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::check_bench;

    /// Writes `body` to a per-test temporary file and validates it.
    fn check_body(name: &str, body: &str) -> Result<(), String> {
        let path = std::env::temp_dir().join(format!(
            "validate-telemetry-{}-{name}.json",
            std::process::id()
        ));
        std::fs::write(&path, body).expect("write temp bench file");
        let result = check_bench(path.to_str().expect("utf-8 temp path"));
        let _ = std::fs::remove_file(&path);
        result
    }

    fn kernel_report(ns: &str) -> String {
        format!(
            r#"{{"schema": 6, "bench": "mttkrp_kernels", "pool_workers": 1, "simd": "avx2",
                "records": [{{"mode": 0, "accum": "n/a", "use_saved": false,
                "simd": "scalar", "ns": {ns}, "bytes_per_ns": 3.5}}]}}"#
        )
    }

    #[test]
    fn accepts_the_committed_kernel_report() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mttkrp.json");
        check_bench(path).expect("BENCH_mttkrp.json validates");
    }

    #[test]
    fn rejects_non_positive_ns() {
        check_body("positive", &kernel_report("1200.0")).expect("valid schema-6 report");
        for (name, ns) in [("zero", "0"), ("negative", "-5.0")] {
            let err = check_body(name, &kernel_report(ns)).expect_err(name);
            assert!(err.contains("\"ns\""), "{err}");
        }
    }

    #[test]
    fn rejects_schema_2() {
        let body = r#"{"schema": 2, "bench": "mttkrp_legacy_vs_vectorized", "simd": "avx2",
            "records": [{"mode": 0, "accum": "n/a", "simd": "avx2", "legacy_ns": 2.0,
            "vectorized_ns": 1.0, "speedup": 2.0, "bytes_per_ns": 4.0}]}"#;
        let err = check_body("schema2", body).expect_err("schema 2 is retired");
        assert!(err.contains("unknown schema 2"), "{err}");
    }
}
