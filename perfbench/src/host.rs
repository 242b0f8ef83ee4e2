//! The host block printed with every result, and the bandwidth roof.

use std::time::Instant;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// `(L2, LLC)` sizes in bytes from cpu0's sysfs cache entries.
pub fn cache_sizes() -> (usize, usize) {
    let mut l2 = 0;
    let mut llc = 0;
    let mut llc_level = 0;
    for i in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(size), Some(kind)) = (
            read(&format!("{base}/level")),
            read(&format!("{base}/size")),
            read(&format!("{base}/type")),
        ) else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = parse_size(size.trim());
        if level == 2 {
            l2 = size;
        }
        if level >= llc_level {
            llc_level = level;
            llc = size;
        }
    }
    (l2, llc)
}

fn parse_size(s: &str) -> usize {
    let (num, mult) = match s.chars().last() {
        Some('K') => (&s[..s.len() - 1], 1 << 10),
        Some('M') => (&s[..s.len() - 1], 1 << 20),
        Some('G') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<usize>().unwrap_or(0) * mult
}

/// Steal ticks summed over all CPUs from `/proc/stat`.
pub fn steal_ticks() -> u64 {
    read("/proc/stat")
        .and_then(|s| {
            let line = s.lines().next()?.to_string();
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Peak resident set (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

fn loadavg() -> String {
    read("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_default()
}

/// The revision the checkout was built from: `git rev-parse HEAD` when
/// the working directory is a git repository's root, else "unknown"
/// (a parent directory's repository says nothing about this checkout).
fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Streaming triad `a = b + s*c` over three arrays of `bytes` each,
/// best of `passes`. Returns GB/s counting 3 streams (2 reads, 1 write).
pub fn triad_gbps(bytes: usize, passes: usize) -> f64 {
    let n = bytes / 8;
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let mut best = f64::INFINITY;
    for p in 0..passes {
        let s = 0.5 + p as f64;
        let t = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        std::hint::black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    3.0 * bytes as f64 / best / 1e9
}

/// Host facts sampled at start; `json` adds the run-long deltas.
pub struct Host {
    started: Instant,
    steal0: u64,
}

impl Host {
    pub fn start() -> Host {
        Host {
            started: Instant::now(),
            steal0: steal_ticks(),
        }
    }

    /// The host block as a JSON object.
    pub fn json(&self, workers: usize) -> String {
        let (l2, llc) = cache_sizes();
        let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let ticks = steal_ticks().saturating_sub(self.steal0);
        format!(
            "{{\"nproc\":{nproc},\"workers\":{workers},\"simd\":\"{}\",\"l2_bytes\":{l2},\
             \"llc_bytes\":{llc},\"loadavg\":\"{}\",\"steal_ticks\":{ticks},\"run_s\":{:.3},\
             \"git_rev\":\"{}\",\"STEF_NUM_THREADS\":\"{}\"}}",
            linalg::simd::active().as_str(),
            loadavg(),
            self.started.elapsed().as_secs_f64(),
            git_rev(),
            std::env::var("STEF_NUM_THREADS").unwrap_or_default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("4096K"), 4 << 20);
        assert_eq!(parse_size("105M"), 105 << 20);
        assert_eq!(parse_size("512"), 512);
    }

    #[test]
    fn triad_reports_a_finite_rate() {
        let g = triad_gbps(1 << 20, 2);
        assert!(g.is_finite() && g > 0.0);
    }
}
