//! In-memory span recorder for the traced run.
//!
//! Spans are recorded in the benchmark's own code around each call
//! into a layer's public functions, kept in memory, and written at the
//! end as Chrome `trace_event` JSON (loadable in Perfetto).

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>`; the layer is the text before the first dot.
    pub name: String,
    /// Request id shared by the spans of one job or round.
    pub id: u64,
    /// Parent span index, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Display lane (thread) in the exported trace.
    pub lane: u32,
}

impl Span {
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process's trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[derive(Default)]
pub struct Recorder {
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        let _ = epoch();
        Recorder {
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    /// Records a finished span and returns its index (usable as a
    /// parent for later-recorded children).
    pub fn push(&self, name: &str, id: u64, parent: Option<usize>, start_ns: u64, end_ns: u64, lane: u32) -> usize {
        let mut spans = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        spans.push(Span {
            name: name.to_string(),
            id,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
            lane,
        });
        spans.len() - 1
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().unwrap_or_else(|p| p.into_inner()))
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`, so a
/// stretch covered by several overlapping children is subtracted once.
pub fn covered_ns(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| e > s)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Every span's interval clipped to its ancestors' intervals, so a
/// child that outlives its parent only counts inside it.
fn clipped(spans: &[Span]) -> Vec<(u64, u64)> {
    (0..spans.len())
        .map(|i| {
            let (mut lo, mut hi) = (spans[i].start_ns, spans[i].end_ns);
            let mut j = i;
            for _ in 0..spans.len() {
                let Some(p) = spans[j].parent else { break };
                lo = lo.max(spans[p].start_ns);
                hi = hi.min(spans[p].end_ns);
                j = p;
            }
            (lo, hi.max(lo))
        })
        .collect()
}

/// Self time of every span: its (clipped) duration minus the union of
/// its children's intervals, so overlapping children are subtracted
/// once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let iv = clipped(spans);
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(iv[i]);
        }
    }
    iv.iter()
        .zip(&children)
        .map(|(&(lo, hi), c)| (hi - lo) - covered_ns(lo, hi, c))
        .collect()
}

/// Sum of self time per layer over the spans under roots named `root`
/// (roots themselves included, under their own layer), and the summed
/// duration of those roots. Concurrent siblings each keep their own
/// self time, so the layer sums can exceed the roots' duration; the
/// roots' own self time is the part no child covers.
pub fn layer_self_ms(spans: &[Span], root: &str) -> (BTreeMap<String, f64>, f64) {
    let selfs = self_times(spans);
    let mut root_of = vec![usize::MAX; spans.len()];
    for i in 0..spans.len() {
        // Parents are recorded before or after children; walk up.
        let mut j = i;
        let mut hops = 0;
        while let Some(p) = spans[j].parent {
            j = p;
            hops += 1;
            if hops > spans.len() {
                break;
            }
        }
        root_of[i] = j;
    }
    let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
    let mut total = 0.0;
    for (i, s) in spans.iter().enumerate() {
        if spans[root_of[i]].name != root {
            continue;
        }
        if i == root_of[i] {
            total += s.dur_ns() as f64 / 1e6;
        }
        *by_layer.entry(s.layer().to_string()).or_default() += selfs[i] as f64 / 1e6;
    }
    (by_layer, total)
}

/// Chrome `trace_event` JSON: one complete (`ph:"X"`) event per span.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{}}}}}",
            s.name,
            s.layer(),
            s.lane,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, s: u64, e: u64) -> Span {
        Span { name: name.into(), id: 1, parent, start_ns: s, end_ns: e, lane: 0 }
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // Parent 0..100; children 10..40 and 30..60 overlap on 30..40,
        // child 90..120 sticks out past the parent's end.
        let spans = vec![
            span("supervisor.job", None, 0, 100),
            span("kernels.a", Some(0), 10, 40),
            span("kernels.b", Some(0), 30, 60),
            span("snapshot.c", Some(0), 90, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 50 - 10);
        assert_eq!(selfs[1], 30);
        let (by_layer, total) = layer_self_ms(&spans, "supervisor.job");
        assert_eq!(total, 100.0 / 1e6);
        assert_eq!(by_layer["supervisor"], 40.0 / 1e6);
        // Children's own durations count in full under their layers.
        assert_eq!(by_layer["kernels"], 60.0 / 1e6);
        // The part of the child outside its parent is not counted.
        assert_eq!(selfs[3], 10);
    }

    #[test]
    fn nested_children_only_reduce_their_direct_parent() {
        let spans = vec![
            span("cpd.iter", None, 0, 100),
            span("kernels.mttkrp", Some(0), 0, 80),
            span("kernels.inner", Some(1), 10, 30),
        ];
        assert_eq!(self_times(&spans), vec![20, 60, 20]);
    }

    #[test]
    fn chrome_json_is_one_event_per_span() {
        let spans = vec![span("engine.prepare", None, 1000, 3000)];
        let j = chrome_json(&spans);
        assert!(j.contains("\"ph\":\"X\""));
        assert!(j.contains("\"ts\":1.000,\"dur\":2.000"));
    }
}
