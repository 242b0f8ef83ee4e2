//! The service layers, driven through an in-process `stef serve`
//! daemon (`Supervisor` + `Server` on loopback): the idle read server
//! of the ALS workloads, and the traced probe in which the daemon takes
//! a closed loop of refit jobs while an open-loop stream of reads
//! queries the published model.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use stef::checkpoint::CHECKPOINT_VERSION;
use stef::{
    outcome_hook, CancelToken, Checkpoint, EngineChoice, EngineFactory, JobHook, JobOutcome, JobStatus,
    MttkrpEngine, ServeConfig, Server, SnapshotStore, StefError, Supervisor, SupervisorConfig,
    TensorLoader,
};
use workloads::suite::SuiteScale;

use crate::als::{options, suite_tensor, RANK};
use crate::layers::time_ms;
use crate::report::{Metrics, Outcome};
use crate::stats::median;
use crate::timed::{CallLog, Sample, Timed};
use crate::trace::{now_ns, Recorder};
use crate::Run;

/// Refit jobs: the `uber` analog at Tiny scale, 10 iterations, tol 0.
const JOB_ITERS: usize = 10;
const MODEL: &str = "m";
/// Mode-0 length of the `uber` analog: the rows reads ask for.
const ROWS0: usize = 183;

/// Refit jobs per daemon round after the first (set-up) job.
const JOBS: usize = 5;
/// Open-loop read rate, requests per second.
const READ_RATE_HZ: f64 = 100.0;

// ---------------------------------------------------------------------
// HTTP client
// ---------------------------------------------------------------------

/// Responses received by this process, for the `/metrics` cross-check.
static RESPONSES: AtomicU64 = AtomicU64::new(0);

fn request_text(method: &str, path: &str, body: &str, close: bool) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        body.len(),
        if close { "close" } else { "keep-alive" }
    )
}

/// Reads one response: `(status, body)`.
fn read_response(r: &mut impl BufRead) -> Result<(u16, String), String> {
    let mut line = String::new();
    r.read_line(&mut line).map_err(|e| e.to_string())?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {line:?}"))?;
    let mut len = 0usize;
    loop {
        let mut h = String::new();
        r.read_line(&mut h).map_err(|e| e.to_string())?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                len = v.trim().parse().map_err(|_| "bad content-length".to_string())?;
            }
        }
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| e.to_string())?;
    RESPONSES.fetch_add(1, Ordering::Relaxed);
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

/// One request on a fresh connection.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(Duration::from_secs(30))).ok();
    s.set_nodelay(true).ok();
    s.write_all(request_text(method, path, body, true).as_bytes()).map_err(|e| e.to_string())?;
    read_response(&mut BufReader::new(s))
}

fn http_ok(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<String, String> {
    match http(addr, method, path, body)? {
        (200, b) => Ok(b),
        (status, b) => Err(format!("{method} {path} answered {status}: {b}")),
    }
}

/// The `n`-th read of model `MODEL`: alternately a mode-0 factor row
/// and a top-k of a mode-0 row over mode `target`.
fn query(n: u64, rows0: usize, target: usize) -> (&'static str, String, String) {
    let row = (n.wrapping_mul(2_654_435_761) >> 7) as usize % rows0;
    if n % 2 == 0 {
        ("GET", format!("/models/{MODEL}/factor/0/{row}"), String::new())
    } else {
        ("POST", format!("/models/{MODEL}/topk"), format!("mode=0 target={target} k=10 rows={row}"))
    }
}

/// Sends read `n` on a fresh connection and checks the answer.
pub fn read(addr: SocketAddr, n: u64, rows0: usize, target: usize) -> Result<(), String> {
    let (method, path, body) = query(n, rows0, target);
    match http_ok(addr, method, &path, &body) {
        Ok(b) if answer_ok(method, &b) => Ok(()),
        Ok(b) => Err(format!("{method} {path}: malformed answer {b}")),
        Err(e) => Err(e),
    }
}

/// Whether a query's answer is well-formed: `rank` finite values for a
/// factor row, `k` pairs for a top-k.
fn answer_ok(method: &str, body: &str) -> bool {
    let count_numbers = |s: &str| s.split(',').filter(|t| t.trim_matches(['[', ']', '}', '{']).parse::<f64>().is_ok()).count();
    if method == "GET" {
        body.split_once("\"values\":[")
            .and_then(|(_, v)| v.split_once(']'))
            .is_some_and(|(v, _)| count_numbers(v) == RANK)
    } else {
        body.split_once("\"top\":[")
            .is_some_and(|(_, v)| v.matches("],[").count() + 1 == 10)
    }
}

// ---------------------------------------------------------------------
// The daemon's job phases, seen through the benchmark's own loader,
// factory and outcome hook.
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Installed {
    id: usize,
    done: bool,
    checksum_ok: bool,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Default)]
struct Phases {
    /// Per job seed: every tensor load, the engine build and its calls.
    loads: HashMap<u64, Vec<(u64, u64)>>,
    builds: HashMap<u64, (u64, u64, usize, Arc<Mutex<CallLog>>)>,
    installed: HashMap<u64, Installed>,
}

struct RoundState {
    phases: Mutex<Phases>,
    cv: Condvar,
    store: Arc<SnapshotStore>,
}

fn job_tensor_spec(seed: u64) -> String {
    format!("uber-tiny:{seed}")
}

fn loader(state: &Arc<RoundState>) -> TensorLoader {
    let state = Arc::clone(state);
    Arc::new(move |spec: &str| {
        let seed: u64 = spec
            .strip_prefix("uber-tiny:")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| StefError::Input(format!("bad tensor spec '{spec}'")))?;
        let t0 = now_ns();
        let t = suite_tensor("uber", SuiteScale::Tiny, seed);
        let t1 = now_ns();
        lock(&state.phases).loads.entry(seed).or_default().push((t0, t1));
        Ok(t)
    })
}

fn factory(state: &Arc<RoundState>) -> EngineFactory {
    let state = Arc::clone(state);
    Arc::new(move |spec, tensor, token, _attempt| {
        let t0 = now_ns();
        let mut opts = options(EngineChoice::Csf, 1);
        opts.cancel = Some(token.clone());
        let engine = stef::build_engine(tensor, opts)?;
        let t1 = now_ns();
        let timed = Timed::new(engine);
        let first = timed.first_mode();
        lock(&state.phases).builds.insert(spec.seed, (t0, t1, first, Arc::clone(&timed.log)));
        Ok(Box::new(timed) as Box<dyn MttkrpEngine>)
    })
}

fn hook(state: &Arc<RoundState>) -> JobHook {
    let state = Arc::clone(state);
    let publish = outcome_hook(Arc::clone(&state.store));
    JobHook::new(move |id, spec, outcome| {
        let start_ns = now_ns();
        let done = matches!(outcome, JobOutcome::Done(_));
        (publish.0)(id, spec, outcome);
        let end_ns = now_ns();
        let checksum_ok = state
            .store
            .get(spec.model_name())
            .is_some_and(|s| s.job_id == id && s.recompute_checksum() == s.checksum);
        let mut p = lock(&state.phases);
        p.installed.insert(spec.seed, Installed { id, done, checksum_ok, start_ns, end_ns });
        state.cv.notify_all();
    })
}

fn new_state() -> Arc<RoundState> {
    Arc::new(RoundState {
        phases: Mutex::new(Phases::default()),
        cv: Condvar::new(),
        store: Arc::new(SnapshotStore::new()),
    })
}

/// A fresh daemon journaling under `dir`, with the benchmark's loader,
/// factory and outcome hook, serving `state`'s store. Cancel the token
/// to drain it.
fn bind_daemon(dir: &Path, state: &Arc<RoundState>) -> Result<(Server, CancelToken), String> {
    let mut cfg = SupervisorConfig::new(dir.join("serve.journal"), dir.join("ckpts"));
    cfg.on_outcome = Some(hook(state));
    let sup = Supervisor::new(cfg, loader(state), factory(state)).map_err(|e| format!("Supervisor::new failed: {e}"))?;
    let stop = CancelToken::new();
    let server = Server::bind(ServeConfig::new("127.0.0.1:0"), Arc::new(sup), Arc::clone(&state.store), stop.clone())
        .map_err(|e| format!("Server::bind failed: {e}"))?;
    Ok((server, stop))
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

// ---------------------------------------------------------------------
// Rounds
// ---------------------------------------------------------------------

/// One refit job as the client saw it.
struct Job {
    seed: u64,
    send_ns: u64,
    resp_ns: u64,
    installed: Installed,
}

/// Everything one daemon round measured.
#[derive(Default)]
struct RoundData {
    setup_s: f64,
    job_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    load_ms: Vec<f64>,
    loads_per_job: Vec<f64>,
    build_ms: Vec<f64>,
    run_ms: Vec<f64>,
    install_ms: Vec<f64>,
    samples: Vec<Sample>,
    query_us: Vec<f64>,
    late_ms_max: f64,
}

fn seed_of(run_seed: u64, round: usize, job: usize) -> u64 {
    run_seed.wrapping_mul(1_000_003) + (round as u64) * 10_000 + job as u64
}

fn submit_and_wait(addr: SocketAddr, state: &RoundState, seed: u64, out: &mut Outcome) -> Option<Job> {
    let line = format!(
        "{} rank={RANK} iters={JOB_ITERS} tol=0 seed={seed} model={MODEL} engine=stef",
        job_tensor_spec(seed)
    );
    let send_ns = now_ns();
    let resp = http_ok(addr, "POST", "/jobs", &line);
    let resp_ns = now_ns();
    if let Err(e) = resp {
        out.errors.push(format!("submit failed: {e}"));
        return None;
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let mut p = lock(&state.phases);
    loop {
        if let Some(&installed) = p.installed.get(&seed) {
            return Some(Job { seed, send_ns, resp_ns, installed });
        }
        let now = std::time::Instant::now();
        if now >= deadline {
            out.errors.push(format!("job with seed {seed} never reached its outcome hook"));
            return None;
        }
        p = state.cv.wait_timeout(p, deadline - now).unwrap_or_else(|e| e.into_inner()).0;
    }
}

/// Open-loop reads at `rate_hz` until `stop` is set, each timed from
/// the moment it was due. Returns latencies (failures as infinity), the
/// generator's worst lateness and the failure messages.
fn open_loop(addr: SocketAddr, rate_hz: f64, stop: &AtomicBool, rows0: usize) -> (Vec<f64>, f64, Vec<String>) {
    let start = now_ns();
    let interval = (1e9 / rate_hz) as u64;
    let mut lat = Vec::new();
    let mut late_max = 0.0f64;
    let mut errors = Vec::new();
    for n in 0u64.. {
        let due = start + n * interval;
        let now = now_ns();
        if now < due {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        late_max = late_max.max(now_ns().saturating_sub(due) as f64 / 1e6);
        let res = read(addr, n, rows0, 3);
        let done = now_ns();
        match res {
            Ok(()) => lat.push((done - due) as f64 / 1e3),
            Err(e) => {
                errors.push(e);
                lat.push(f64::INFINITY);
            }
        }
    }
    (lat, late_max, errors)
}

/// Sum of a counter family in a Prometheus text exposition.
fn prom_sum(text: &str, family: &str, label: Option<&str>) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| l.starts_with(family) && l[family.len()..].starts_with(['{', ' ']))
        .filter(|l| label.is_none_or(|lb| l.contains(lb)))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// Scrapes `/metrics` and checks its request and job-outcome counters
/// against this process's own counts.
fn metrics_check(addr: SocketAddr, jobs_done: u64, out: &mut Outcome) {
    let sent = RESPONSES.load(Ordering::Relaxed);
    match http_ok(addr, "GET", "/metrics", "") {
        Ok(text) => {
            let requests = prom_sum(&text, "stef_http_requests_total", None);
            let done = prom_sum(&text, "stef_jobs_completed_total", Some("outcome=\"done\""));
            out.check(requests == sent as f64, || {
                format!("/metrics counts {requests} HTTP requests, the generator {sent}")
            });
            out.check(done == jobs_done as f64, || {
                format!("/metrics counts {done} jobs done, the generator {jobs_done}")
            });
        }
        Err(e) => out.errors.push(format!("/metrics scrape failed: {e}")),
    }
}

/// Jobs done across all rounds of this process (for `metrics_check`).
static JOBS_DONE: AtomicU64 = AtomicU64::new(0);

fn round(
    work: &Path,
    run_seed: u64,
    k: usize,
    rec: Option<&Recorder>,
    out: &mut Outcome,
) -> Option<RoundData> {
    let dir = work.join(format!("round{k}"));
    let _ = std::fs::remove_dir_all(&dir);
    let state = new_state();
    let t0 = now_ns();
    let (server, stop) = match bind_daemon(&dir, &state) {
        Ok(d) => d,
        Err(e) => {
            out.errors.push(e);
            return None;
        }
    };
    let addr = server.local_addr();

    let mut data = RoundData::default();
    let mut jobs: Vec<Job> = Vec::new();
    let stop_reads = AtomicBool::new(false);
    let report = std::thread::scope(|s| {
        let runner = s.spawn(|| server.run());
        if let Some(first) = submit_and_wait(addr, &state, seed_of(run_seed, k, 0), out) {
            data.setup_s = (first.installed.end_ns - t0) as f64 / 1e9;
            jobs.push(first);
        }
        if let Some(first) = jobs.first() {
            JOBS_DONE.fetch_add(u64::from(first.installed.done), Ordering::Relaxed);
            metrics_check(addr, JOBS_DONE.load(Ordering::Relaxed), out);
            let reader = s.spawn(|| open_loop(addr, READ_RATE_HZ, &stop_reads, ROWS0));
            for j in 1..=JOBS {
                let Some(job) = submit_and_wait(addr, &state, seed_of(run_seed, k, j), out) else { break };
                JOBS_DONE.fetch_add(u64::from(job.installed.done), Ordering::Relaxed);
                jobs.push(job);
            }
            stop_reads.store(true, Ordering::Relaxed);
            let (lat, late, errors) = reader.join().unwrap_or_default();
            out.errors.extend(errors.into_iter().take(5));
            data.query_us = lat;
            data.late_ms_max = late;
            metrics_check(addr, JOBS_DONE.load(Ordering::Relaxed), out);
        }
        stop.cancel();
        runner.join().ok()
    });

    // Drain report: every job done, in one attempt.
    match report {
        Some(r) => {
            out.check(r.done() == jobs.len(), || {
                format!("drain report has {} jobs done, the generator saw {}", r.done(), jobs.len())
            });
            for (id, st) in &r.outcomes {
                out.check(matches!(st, JobStatus::Done { attempts: 1, .. }), || {
                    format!("job {id} ended {st:?}, expected done in 1 attempt")
                });
            }
        }
        None => out.errors.push("server thread panicked".into()),
    }

    let p = lock(&state.phases);
    for job in &jobs {
        let ins = job.installed;
        out.check(ins.done, || format!("job {} did not finish done", ins.id));
        out.check(ins.checksum_ok, || format!("job {}: published snapshot fails its checksum", ins.id));
        let loads = p.loads.get(&job.seed).cloned().unwrap_or_default();
        let Some((b0, b1, first_mode, log)) = p.builds.get(&job.seed).cloned() else { continue };
        let log = lock(&log).clone();
        // A load that started before the submit answered is admission's
        // (price_job at submit); a later one is the run's own reload.
        let run_load = loads.iter().copied().find(|l| l.0 >= job.resp_ns);
        let queue_end = run_load.map_or(b0, |l| l.0);
        data.job_ms.push((ins.end_ns - job.send_ns) as f64 / 1e6);
        data.submit_ms.push((job.resp_ns - job.send_ns) as f64 / 1e6);
        data.queue_ms.push(queue_end.saturating_sub(job.resp_ns) as f64 / 1e6);
        data.load_ms.extend(loads.iter().map(|l| (l.1 - l.0) as f64 / 1e6));
        data.loads_per_job.push(loads.len() as f64);
        data.build_ms.push((b1 - b0) as f64 / 1e6);
        data.run_ms.push((ins.start_ns - b1) as f64 / 1e6);
        data.install_ms.push((ins.end_ns - ins.start_ns) as f64 / 1e6);
        let sample = log.sample(first_mode, ins.start_ns);
        if let (Some(rec), Some(sample)) = (rec, &sample) {
            let id = job.seed;
            let root = rec.push("bench.job", id, None, job.send_ns, ins.end_ns, 1);
            let sub = rec.push("supervisor.submit", id, Some(root), job.send_ns, job.resp_ns, 1);
            for &(s, e) in &loads {
                let parent = if s < job.resp_ns { sub } else { root };
                rec.push("supervisor.load", id, Some(parent), s, e, 1);
            }
            if queue_end > job.resp_ns {
                rec.push("supervisor.queue", id, Some(root), job.resp_ns, queue_end, 1);
            }
            rec.push("engine.prepare", id, Some(root), b0, b1, 1);
            let r = rec.push("supervisor.run", id, Some(root), b1, ins.start_ns, 1);
            for it in &sample.iters {
                let p = rec.push("cpd.iteration", id, Some(r), it.start_ns, it.end_ns, 1);
                for &(mode, s, e) in &log.calls[it.calls.clone()] {
                    rec.push(&format!("kernels.mttkrp_mode{mode}"), id, Some(p), s, e, 1);
                }
            }
            rec.push("snapshot.install", id, Some(root), ins.start_ns, ins.end_ns, 1);
        }
        if let Some(sample) = sample {
            out.check(sample.alloc_growth == 0, || {
                format!("job {}: engine allocated {} times after iteration 1", ins.id, sample.alloc_growth)
            });
            data.samples.push(sample);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Some(data)
}

/// Two daemon rounds: round 0 carries the daemon's warm-up (metric
/// registration, the first accept) and is discarded; round 1 is traced.
fn session(run: &Run, rec: &Recorder, out: &mut Outcome) -> Option<RoundData> {
    let work = run.work_dir.join(format!("serve-{}", std::process::id()));
    let warm = round(&work, run.seed, 0, None, out);
    let traced = warm.and_then(|_| round(&work, run.seed, 1, Some(rec), out));
    let _ = std::fs::remove_dir_all(&work);
    traced
}

/// The service-layer metrics of a traced round, and direct calls into
/// the checkpoint and snapshot layers on the job's shape.
fn service_metrics(traced: &RoundData, run: &Run, rec: &Recorder, m: &mut Metrics) {
    m.set("supervisor.submit_ms_p50", median(&traced.submit_ms), "ms");
    m.set("supervisor.queue_ms_p50", median(&traced.queue_ms), "ms");
    m.set("supervisor.load_ms_p50", median(&traced.load_ms), "ms");
    m.set("supervisor.loads_per_job", median(&traced.loads_per_job), "count");
    m.set("supervisor.build_ms_p50", median(&traced.build_ms), "ms");
    m.set("supervisor.run_ms_p50", median(&traced.run_ms), "ms");
    m.set("snapshot.install_ms_p50", median(&traced.install_ms), "ms");
    m.set("bench.gen_late_ms_max", traced.late_ms_max, "ms");

    let coo = suite_tensor("uber", SuiteScale::Tiny, seed_of(run.seed, 0, 0));
    m.set(
        "supervisor.price_ms",
        time_ms(rec, "supervisor.price_job", 0, 5, || stef::price_job(&coo, RANK, 1, 16 << 20)),
        "ms",
    );
    // A fitted model of the job's shape for the direct calls.
    let mut engine = match stef::build_engine(&coo, options(EngineChoice::Csf, 1)) {
        Ok(e) => e,
        Err(_) => return,
    };
    let mut copts = stef::CpdOptions::new(RANK);
    copts.max_iters = JOB_ITERS;
    copts.tol = 0.0;
    let Ok(result) = stef::cpd_als(&mut engine, &copts) else { return };
    let ckpt = Checkpoint {
        version: CHECKPOINT_VERSION,
        iteration: result.iterations,
        seed: 1,
        rank: RANK,
        dims: coo.dims().to_vec(),
        engine: engine.name(),
        lambda: result.lambda.clone(),
        fits: result.fits.clone(),
        factors: result.factors.clone(),
    };
    let path = run.work_dir.join(format!("probe-{}.ckpt", std::process::id()));
    m.set("checkpoint.save_ms_p50", time_ms(rec, "checkpoint.save", 0, 7, || ckpt.save(&path)), "ms");
    m.set("checkpoint.bytes", std::fs::metadata(&path).map_or(f64::NAN, |md| md.len() as f64), "bytes");
    let _ = std::fs::remove_file(&path);
    // SupervisorConfig's default cadence is one checkpoint per iteration.
    m.set("checkpoint.per_job", JOB_ITERS as f64, "count");

    let store = SnapshotStore::new();
    store.install(MODEL, 0, &result);
    let snap = store.get(MODEL).expect("installed");
    const BATCH: usize = 200;
    let row_us = time_ms(rec, "snapshot.factor_row", 0, 9, || {
        (0..BATCH).map(|r| snap.factor_row(0, r % ROWS0).map_or(0.0, |v| v[0])).sum::<f64>()
    }) * 1e3
        / BATCH as f64;
    let topk_us = time_ms(rec, "snapshot.topk", 0, 9, || {
        (0..BATCH / 10).map(|r| snap.top_k(0, &[r], 3, 10).map_or(0, |v| v.len())).sum::<usize>()
    }) * 1e3
        / (BATCH / 10) as f64;
    m.set("snapshot.factor_row_us", row_us, "us");
    m.set("snapshot.topk_us", topk_us, "us");
}

/// Keep-alive vs fresh-connection latency of the same factor-row read
/// against a fresh daemon that serves one published model.
fn http_probe(run: &Run, m: &mut Metrics, out_errors: &mut Vec<String>) {
    let work = run.work_dir.join(format!("http-{}", std::process::id()));
    let mut scratch = Outcome::default();
    let dir = work.join("d");
    let _ = std::fs::remove_dir_all(&dir);
    let state = new_state();
    let Ok((server, stop)) = bind_daemon(&dir, &state) else { return };
    let addr = server.local_addr();
    std::thread::scope(|s| {
        let runner = s.spawn(|| server.run());
        if let Some(job) = submit_and_wait(addr, &state, seed_of(run.seed, 999, 0), &mut scratch) {
            JOBS_DONE.fetch_add(u64::from(job.installed.done), Ordering::Relaxed);
            let path = format!("/models/{MODEL}/factor/0/5");
            let mut fresh = Vec::new();
            let mut keep = Vec::new();
            for _ in 0..4 {
                for _ in 0..25 {
                    let t = now_ns();
                    let ok = http_ok(addr, "GET", &path, "").is_ok();
                    fresh.push(if ok { (now_ns() - t) as f64 / 1e3 } else { f64::INFINITY });
                }
                if let Ok(stream) = TcpStream::connect(addr) {
                    stream.set_nodelay(true).ok();
                    stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
                    let mut writer = stream.try_clone().expect("clone stream");
                    let mut reader = BufReader::new(stream);
                    // The daemon closes a connection after 32 requests.
                    for i in 0..25 {
                        let t = now_ns();
                        let ok = writer
                            .write_all(request_text("GET", &path, "", i == 24).as_bytes())
                            .map_err(|e| e.to_string())
                            .and_then(|_| read_response(&mut reader))
                            .is_ok_and(|(st, _)| st == 200);
                        keep.push(if ok { (now_ns() - t) as f64 / 1e3 } else { f64::INFINITY });
                    }
                }
            }
            let ka = median(&keep);
            m.set("serve.keepalive_us_p50", ka, "us");
            m.set("serve.accept_us", median(&fresh) - ka, "us");
            metrics_check(addr, JOBS_DONE.load(Ordering::Relaxed), &mut scratch);
        }
        stop.cancel();
        let _ = runner.join();
    });
    m.set("serve.requests", RESPONSES.load(Ordering::Relaxed) as f64, "count");
    out_errors.append(&mut scratch.errors);
    let _ = std::fs::remove_dir_all(&work);
}

/// Runs `f` beside an idle daemon whose store serves the models `f`
/// installs; no jobs are submitted to it.
pub fn with_read_server<R>(work: &Path, f: impl FnOnce(SocketAddr, &SnapshotStore) -> R) -> Result<R, String> {
    let dir = work.join(format!("reads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let state = new_state();
    let (server, stop) = bind_daemon(&dir, &state)?;
    let addr = server.local_addr();
    let out = std::thread::scope(|s| {
        let runner = s.spawn(|| server.run());
        let out = f(addr, &state.store);
        stop.cancel();
        let _ = runner.join();
        out
    });
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// The service layers' per-layer metrics for a traced ALS run: a short
/// session of the daemon (two rounds), so every layer is measured on
/// every workload.
pub fn probe(run: &Run, rec: &Recorder) -> Outcome {
    let mut out = Outcome::default();
    let Some(traced) = session(run, rec, &mut out) else { return out };
    service_metrics(&traced, run, rec, &mut out.metrics);
    http_probe(run, &mut out.metrics, &mut out.errors);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_sums_by_family_and_label() {
        let text = "# HELP x\nstef_http_requests_total{method=\"GET\",status=\"200\"} 5\n\
                    stef_http_requests_total{method=\"POST\",status=\"200\"} 2\n\
                    stef_http_requests_total_other 9\n\
                    stef_jobs_completed_total{outcome=\"done\"} 3\n";
        assert_eq!(prom_sum(text, "stef_http_requests_total", None), 7.0);
        assert_eq!(prom_sum(text, "stef_jobs_completed_total", Some("outcome=\"done\"")), 3.0);
    }

    #[test]
    fn answers_are_validated() {
        assert!(answer_ok("GET", &format!("{{\"values\":[{}]}}", vec!["0.5"; RANK].join(","))));
        assert!(!answer_ok("GET", "{\"values\":[1,2]}"));
        let pairs: Vec<String> = (0..10).map(|j| format!("[{j},0.1]")).collect();
        assert!(answer_ok("POST", &format!("{{\"results\":[{{\"row\":1,\"top\":[{}]}}]}}", pairs.join(","))));
        assert!(!answer_ok("POST", "{\"error\":\"x\"}"));
    }

    #[test]
    fn open_loop_lateness_counts_from_the_due_time() {
        // Nothing listens on this port: every request fails, so every
        // sample counts as an infinite latency and the generator still
        // sends at its schedule.
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let stop = AtomicBool::new(false);
        let (lat, late, errors) = std::thread::scope(|s| {
            let reader = s.spawn(|| open_loop(addr, 50.0, &stop, 10));
            std::thread::sleep(Duration::from_millis(190));
            stop.store(true, Ordering::Relaxed);
            reader.join().unwrap()
        });
        assert!((9..=11).contains(&lat.len()), "{}", lat.len());
        assert!(lat.iter().all(|l| l.is_infinite()));
        assert_eq!(errors.len(), lat.len());
        assert!(late < 50.0);
    }
}
