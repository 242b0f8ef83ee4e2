//! An `MttkrpEngine` wrapper that timestamps every MTTKRP call, so
//! iteration boundaries, per-mode kernel time and the dense update
//! between kernels can be read from outside `cpd_als`.

use linalg::Mat;
use std::sync::{Arc, Mutex};
use stef::engine::MttkrpEngine;
use stef::model::DegradationEvent;
use stef::telemetry::ModeStats;
use stef::RuntimeCounters;

use crate::trace::now_ns;

#[derive(Default, Debug, Clone)]
pub struct CallLog {
    /// `(mode, start_ns, end_ns)` per MTTKRP call, in call order.
    pub calls: Vec<(usize, u64, u64)>,
    /// Engine allocation events and runtime counters sampled as the
    /// second iteration starts (after the first grew the arenas).
    pub alloc_at_iter2: Option<u64>,
    pub runtime_at_iter2: Option<RuntimeCounters>,
    /// The same, sampled after the latest call.
    pub alloc_last: u64,
    pub runtime_last: Option<RuntimeCounters>,
}

/// One decomposition's kernel-boundary figures.
#[derive(Debug, Clone)]
pub struct Sample {
    pub iters: Vec<Iteration>,
    pub first_iter_ms: f64,
    /// Iterations after the first: wall time and MTTKRP time.
    pub iter_ms: Vec<f64>,
    pub mttkrp_ms: Vec<f64>,
    /// `(mode, ms)` of every MTTKRP after the first iteration.
    pub mode_ms: Vec<(usize, f64)>,
    /// Engine allocation events after iteration 1.
    pub alloc_growth: u64,
    /// `(dispatches, inline runs, chunks)` per iteration after the first.
    pub runtime_per_iter: Option<(f64, f64, f64)>,
    pub workers: usize,
}

/// One ALS iteration as seen from the engine boundary.
#[derive(Debug, Clone)]
pub struct Iteration {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Indices into `CallLog::calls`.
    pub calls: std::ops::Range<usize>,
}

impl Iteration {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

impl CallLog {
    /// Splits the calls into iterations: each starts at a call of the
    /// sweep's first mode; the last ends at `end_ns`.
    pub fn iterations(&self, first_mode: usize, end_ns: u64) -> Vec<Iteration> {
        let starts: Vec<usize> = (0..self.calls.len())
            .filter(|&i| self.calls[i].0 == first_mode)
            .collect();
        starts
            .iter()
            .enumerate()
            .map(|(k, &i)| {
                let next = starts.get(k + 1).copied();
                Iteration {
                    start_ns: self.calls[i].1,
                    end_ns: next.map_or(end_ns, |j| self.calls[j].1),
                    calls: i..next.unwrap_or(self.calls.len()),
                }
            })
            .collect()
    }

    pub fn mttkrp_ns(&self, it: &Iteration) -> u64 {
        self.calls[it.calls.clone()].iter().map(|c| c.2 - c.1).sum()
    }

    /// The figures of a decomposition that ended at `end_ns`; `None`
    /// with fewer than two iterations.
    pub fn sample(&self, first_mode: usize, end_ns: u64) -> Option<Sample> {
        let iters = self.iterations(first_mode, end_ns);
        if iters.len() < 2 {
            return None;
        }
        let steady = &iters[1..];
        let n = steady.len() as f64;
        let runtime_per_iter = match (&self.runtime_at_iter2, &self.runtime_last) {
            (Some(a), Some(b)) => Some((
                (b.dispatches - a.dispatches) as f64 / n,
                (b.inline_runs - a.inline_runs) as f64 / n,
                (chunks(b) - chunks(a)) as f64 / n,
            )),
            _ => None,
        };
        Some(Sample {
            first_iter_ms: iters[0].ns() as f64 / 1e6,
            iter_ms: steady.iter().map(|it| it.ns() as f64 / 1e6).collect(),
            mttkrp_ms: steady.iter().map(|it| self.mttkrp_ns(it) as f64 / 1e6).collect(),
            mode_ms: steady
                .iter()
                .flat_map(|it| self.calls[it.calls.clone()].iter())
                .map(|&(m, s, e)| (m, (e - s) as f64 / 1e6))
                .collect(),
            alloc_growth: self.alloc_last.saturating_sub(self.alloc_at_iter2.unwrap_or(self.alloc_last)),
            runtime_per_iter,
            workers: self.runtime_last.as_ref().map_or(1, |c| c.workers),
            iters,
        })
    }
}

pub struct Timed<E: MttkrpEngine + ?Sized> {
    inner: Box<E>,
    first_mode: usize,
    pub log: Arc<Mutex<CallLog>>,
}

impl<E: MttkrpEngine + ?Sized> Timed<E> {
    pub fn new(inner: Box<E>) -> Self {
        let first_mode = inner.sweep_order().first().copied().unwrap_or(0);
        Timed {
            inner,
            first_mode,
            log: Arc::new(Mutex::new(CallLog::default())),
        }
    }

    pub fn first_mode(&self) -> usize {
        self.first_mode
    }
}

impl<E: MttkrpEngine + ?Sized> MttkrpEngine for Timed<E> {
    fn dims(&self) -> &[usize] {
        self.inner.dims()
    }
    fn name(&self) -> String {
        self.inner.name()
    }
    fn sweep_order(&self) -> Vec<usize> {
        self.inner.sweep_order()
    }
    fn norm_sq(&self) -> f64 {
        self.inner.norm_sq()
    }
    fn mttkrp(&mut self, factors: &[Mat], mode: usize) -> Mat {
        if mode == self.first_mode {
            let mut log = self.log.lock().unwrap_or_else(|p| p.into_inner());
            let firsts = log.calls.iter().filter(|c| c.0 == mode).count();
            if firsts == 1 {
                log.alloc_at_iter2 = Some(self.inner.telemetry_alloc_events());
                log.runtime_at_iter2 = self.inner.telemetry_runtime_counters();
            }
        }
        let t0 = now_ns();
        let out = self.inner.mttkrp(factors, mode);
        let t1 = now_ns();
        let mut log = self.log.lock().unwrap_or_else(|p| p.into_inner());
        log.calls.push((mode, t0, t1));
        log.alloc_last = self.inner.telemetry_alloc_events();
        log.runtime_last = self.inner.telemetry_runtime_counters();
        out
    }
    fn degrade_to_unmemoized(&mut self) -> bool {
        self.inner.degrade_to_unmemoized()
    }
    fn degradations(&self) -> Vec<DegradationEvent> {
        self.inner.degradations()
    }
    fn last_mode_stats(&self, mode: usize) -> Option<ModeStats> {
        self.inner.last_mode_stats(mode)
    }
    fn predicted_mode_traffic(&self, mode: usize) -> Option<(f64, f64)> {
        self.inner.predicted_mode_traffic(mode)
    }
    fn telemetry_alloc_events(&self) -> u64 {
        self.inner.telemetry_alloc_events()
    }
    fn telemetry_runtime_counters(&self) -> Option<RuntimeCounters> {
        self.inner.telemetry_runtime_counters()
    }
    fn numa_nodes(&self) -> usize {
        self.inner.numa_nodes()
    }
}

/// Chunks claimed across all workers of a counter snapshot.
pub fn chunks(c: &RuntimeCounters) -> u64 {
    c.dispatcher_chunks + c.per_worker.iter().map(|w| w.chunks).sum::<u64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterations_split_at_the_first_mode() {
        let log = CallLog {
            calls: vec![(2, 0, 10), (0, 10, 15), (1, 15, 30), (2, 40, 50), (0, 50, 60), (1, 60, 70)],
            ..Default::default()
        };
        let its = log.iterations(2, 90);
        assert_eq!(its.len(), 2);
        assert_eq!((its[0].start_ns, its[0].end_ns), (0, 40));
        assert_eq!((its[1].start_ns, its[1].end_ns), (40, 90));
        assert_eq!(log.mttkrp_ns(&its[0]), 30);
        assert_eq!(log.mttkrp_ns(&its[1]), 30);
    }
}
