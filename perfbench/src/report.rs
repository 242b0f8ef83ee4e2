//! Metric collection and the result line.

/// Whether a metric name is valid: starts with a letter or digit, at
/// most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Ordered `name -> (value, unit)` metrics.
#[derive(Default, Debug)]
pub struct Metrics {
    pub items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(valid_name(name), "bad metric name {name}");
        match self.items.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.items.push((name.to_string(), value, unit)),
        }
    }
}

/// JSON number; non-finite values print as `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// What a workload hands back to `main`.
#[derive(Default, Debug)]
pub struct Outcome {
    /// Ops attempted and failed (ALS iterations, jobs, queries).
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations; any entry fails the run.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Extra `"key":value` JSON members for the detail line.
    pub detail: Vec<(String, String)>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn detail(&mut self, key: &str, json: String) {
        self.detail.push((key.to_string(), json));
    }

    /// Records a latency tail (at percentile `want`, see
    /// [`crate::stats::tail`]) in the detail line with its percentile
    /// and sample count. Tails are not metrics: on a shared host they
    /// spread past any bound from one run to the next (see NOISE.md).
    pub fn tail(&mut self, name: &str, samples: &[f64], want: f64) {
        let (p, v) = crate::stats::tail(samples, want);
        self.detail(name, format!("{{\"percentile\":{p},\"n\":{},\"value\":{}}}", samples.len(), num(v)));
    }

    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .items
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_checked() {
        for ok in ["setup_s", "kernels.mode0_ms_p50", "trace.overhead_pct", "0x-a.b"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome::default();
        o.metrics.set("setup_s", 0.5, "s");
        o.metrics.set("bad", f64::NAN, "ms");
        let line = o.result_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"bad\": {\"value\": null"));
        o.check(false, || "x".into());
        assert!(o.result_line().starts_with("{\"correct\": false"));
    }
}
