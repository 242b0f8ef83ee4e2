//! Service soak: concurrent HTTP clients submitting refits (some
//! fault-injected) and querying factors while the daemon runs, then a
//! graceful drain. Exercises the full robustness surface in-process:
//! retry ladder under injected transients, terminal failures degrading
//! (not removing) served models, the read path staying available
//! through concurrent refits, and a clean drain report at the end.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stef_core::{
    outcome_hook, CancelToken, EngineFactory, Fault, FaultyEngine, MttkrpEngine, ReferenceEngine,
    ServeConfig, Server, SnapshotStore, StefError, Supervisor, SupervisorConfig, TensorLoader,
};
use workloads::power_law_tensor;

/// Seed that triggers a one-shot transient fault on the job's first
/// attempt (the retry ladder must absorb it). NOT the JobSpec default
/// (42) — the injection must only hit the job that asks for it.
const TRANSIENT_SEED: u64 = 4242;
/// Seed whose engine refuses to build with a non-retryable error on
/// every attempt — a terminal failure no retry can outrun. (An
/// injected NaN would NOT do here: the driver's recovery subsystem
/// heals non-finite outputs and the job completes.)
const POISON_SEED: u64 = 666;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stef-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn loader() -> TensorLoader {
    Arc::new(|spec: &str| {
        // "pl:<d0>x<d1>x<d2>:<nnz>:<seed>"
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() != 4 || parts[0] != "pl" {
            return Err(StefError::Input(format!("bad test spec '{spec}'")));
        }
        let dims: Vec<usize> = parts[1]
            .split('x')
            .map(|t| t.parse().map_err(|_| StefError::Input("bad dim".into())))
            .collect::<Result<_, _>>()?;
        let nnz = parts[2]
            .parse()
            .map_err(|_| StefError::Input("bad nnz".into()))?;
        let seed = parts[3]
            .parse()
            .map_err(|_| StefError::Input("bad seed".into()))?;
        let skews = vec![0.5; dims.len()];
        Ok(power_law_tensor(&dims, nnz, &skews, seed))
    })
}

/// Engine factory keyed on the job's *seed* (stable under any client
/// interleaving, unlike job ids): `TRANSIENT_SEED` injects a retryable
/// panic on attempt 1, `POISON_SEED` fails engine construction with a
/// non-retryable error.
fn faulty_factory() -> EngineFactory {
    Arc::new(|spec, tensor, token, at| {
        if spec.seed == POISON_SEED {
            return Err(StefError::Input("injected poison: engine refuses to build".into()));
        }
        let engine =
            Box::new(ReferenceEngine::new(tensor.clone())) as Box<dyn MttkrpEngine>;
        if spec.seed == TRANSIENT_SEED && at.attempt == 1 {
            return Ok(Box::new(
                FaultyEngine::new(engine, vec![Fault::TransientErrorOnce { at: 1 }])
                    .with_cancel(token.clone()),
            ));
        }
        Ok(engine)
    })
}

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(Duration::from_secs(10))).ok();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: soak\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).map_err(|e| e.to_string())?;
    let mut response = String::new();
    s.read_to_string(&mut response).map_err(|e| e.to_string())?;
    let status = response
        .split_whitespace()
        .nth(1)
        .ok_or_else(|| format!("no status line in {response:?}"))?;
    let payload = response.split("\r\n\r\n").nth(1).unwrap_or_default();
    Ok(format!("{status} {payload}"))
}

/// Polls `/jobs/<id>` until its status matches `want` ("done" /
/// "failed"), panicking on the opposite terminal state.
fn await_status(addr: SocketAddr, id: u64, want: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let r = http(addr, "GET", &format!("/jobs/{id}"), "").expect("poll");
        if r.contains(&format!("\"status\":\"{want}\"")) {
            return r;
        }
        for terminal in ["done", "failed", "shed"] {
            assert!(
                terminal == want || !r.contains(&format!("\"status\":\"{terminal}\"")),
                "job {id}: wanted {want}, got {r}"
            );
        }
        assert!(Instant::now() < deadline, "job {id} never reached {want}: {r}");
        std::thread::sleep(Duration::from_millis(15));
    }
}

fn submit(addr: SocketAddr, line: &str) -> u64 {
    let r = http(addr, "POST", "/jobs", line).expect("submit");
    assert!(r.starts_with("200"), "submit '{line}' -> {r}");
    r.split("\"id\":")
        .nth(1)
        .and_then(|t| t.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|t| t.parse().ok())
        .expect("job id in response")
}

#[test]
fn concurrent_clients_with_fault_injection_soak() {
    let dir = tmp_dir("soak");
    let store = Arc::new(SnapshotStore::new());
    let mut scfg = SupervisorConfig::new(dir.join("soak.journal"), dir.join("ckpts"));
    scfg.max_concurrent = 2;
    scfg.max_retries = 2;
    scfg.backoff_base = Duration::from_millis(1);
    scfg.backoff_cap = Duration::from_millis(4);
    scfg.on_outcome = Some(outcome_hook(Arc::clone(&store)));
    let sup = Arc::new(Supervisor::new(scfg, loader(), faulty_factory()).unwrap());
    let stop = CancelToken::new();
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.handler_threads = 4;
    cfg.drain_grace = Duration::from_secs(5);
    let server = Server::bind(cfg, sup, Arc::clone(&store), stop.clone()).unwrap();
    let addr = server.local_addr();

    let soaking = AtomicBool::new(true);
    let probe_errors = AtomicU64::new(0);
    let report = std::thread::scope(|s| {
        let runner = s.spawn(|| server.run());

        // Background prober: the service must answer metadata queries
        // at every moment of the soak, refits or not.
        let prober = s.spawn(|| {
            let mut probes = 0u64;
            while soaking.load(Ordering::Relaxed) {
                for path in ["/healthz", "/models"] {
                    match http(addr, "GET", path, "") {
                        Ok(r) if r.starts_with("200") => {}
                        _ => {
                            probe_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    probes += 1;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            probes
        });

        // Client 0: clean refit, then a poisoned one — the model must
        // degrade to a stale (but still answering) snapshot.
        let degraded = s.spawn(move || {
            let id = submit(addr, "pl:14x12x10:400:3 rank=3 iters=4 tol=0 seed=1 model=m0");
            await_status(addr, id, "done");
            let meta = http(addr, "GET", "/models/m0", "").unwrap();
            assert!(meta.contains("\"stale\":false"), "{meta}");

            let id = submit(
                addr,
                &format!("pl:14x12x10:400:5 rank=3 iters=4 tol=0 seed={POISON_SEED} model=m0"),
            );
            await_status(addr, id, "failed");
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let meta = http(addr, "GET", "/models/m0", "").unwrap();
                if meta.contains("\"stale\":true") {
                    assert!(meta.contains("\"generation\":1"), "{meta}");
                    assert!(meta.contains("refit failed"), "{meta}");
                    break;
                }
                assert!(Instant::now() < deadline, "m0 never went stale: {meta}");
                std::thread::sleep(Duration::from_millis(10));
            }
            // Degraded serving: last good factors still answer.
            let row = http(addr, "GET", "/models/m0/factor/0/2", "").unwrap();
            assert!(row.starts_with("200"), "{row}");
            assert!(row.contains("\"stale\":true"), "{row}");
        });

        // Client 1: transient fault on attempt 1; the retry ladder
        // must finish the job (attempts 2) and publish a fresh model.
        let retried = s.spawn(move || {
            let id = submit(
                addr,
                &format!("pl:14x12x10:400:6 rank=3 iters=4 tol=0 seed={TRANSIENT_SEED} model=m1"),
            );
            let r = await_status(addr, id, "done");
            assert!(r.contains("\"attempts\":2"), "{r}");
            let meta = http(addr, "GET", "/models/m1", "").unwrap();
            assert!(meta.contains("\"stale\":false"), "{meta}");
        });

        // Clients 2..4: clean job streams onto their own models, with
        // reads interleaved between submissions.
        let clean: Vec<_> = (2..4)
            .map(|c| {
                s.spawn(move || {
                    for round in 0..3u64 {
                        let id = submit(
                            addr,
                            &format!(
                                "pl:14x12x10:400:{} rank=3 iters=4 tol=0 seed=1 model=m{c}",
                                100 + c as u64 * 10 + round
                            ),
                        );
                        await_status(addr, id, "done");
                        let meta = http(addr, "GET", &format!("/models/m{c}"), "").unwrap();
                        assert!(
                            meta.contains(&format!("\"generation\":{}", round + 1)),
                            "{meta}"
                        );
                        let top = http(
                            addr,
                            "POST",
                            &format!("/models/m{c}/topk"),
                            "mode=0 target=2 k=3 rows=0,5",
                        )
                        .unwrap();
                        assert!(top.starts_with("200"), "{top}");
                    }
                })
            })
            .collect();

        // Join every client BEFORE asserting: a client panic must not
        // strand the runner/prober threads (that would hang the whole
        // harness with the failure message captured inside it).
        let mut clients = vec![("degraded", degraded), ("retried", retried)];
        clients.extend(clean.into_iter().map(|h| ("clean", h)));
        let mut failures: Vec<String> = Vec::new();
        for (name, h) in clients {
            if let Err(p) = h.join() {
                let msg = p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic payload".into());
                failures.push(format!("{name}: {msg}"));
            }
        }
        soaking.store(false, Ordering::Relaxed);
        let probes = prober.join().unwrap();
        // Scrape /metrics while still serving (every job is terminal —
        // the clients joined above): the registry must agree with the
        // drain report the runner is about to produce.
        let metrics = http(addr, "GET", "/metrics", "").expect("scrape");
        assert!(metrics.starts_with("200"), "{metrics}");
        stop.cancel();
        let report = runner.join().unwrap();
        assert!(failures.is_empty(), "client failures: {failures:#?}");
        assert!(probes > 0, "prober never ran");
        (report, metrics)
    });
    let (report, metrics) = report;

    assert_eq!(
        probe_errors.load(Ordering::Relaxed),
        0,
        "metadata queries failed during the soak"
    );
    // 1 clean + 1 transient-retried + 2 clients × 3 rounds = 8 done,
    // 1 poisoned terminal failure.
    assert_eq!(report.done(), 8, "{:?}", report.outcomes);
    assert_eq!(report.failed(), 1, "{:?}", report.outcomes);
    assert_eq!(store.installs(), 8);

    // The mid-soak scrape's counters must match the drain report —
    // the registry and the journal are two views of the same events.
    let text = metrics.strip_prefix("200 ").unwrap_or(&metrics);
    let samples = stef_core::parse_prometheus_text(text).expect("valid exposition");
    let total = |name: &str, want: &[(&str, &str)]| -> f64 {
        samples
            .iter()
            .filter(|s| s.name == name && want.iter().all(|(k, v)| s.label(k) == Some(v)))
            .map(|s| s.value)
            .sum()
    };
    assert_eq!(
        total("stef_jobs_completed_total", &[("outcome", "done")]) as usize,
        report.done(),
        "{text}"
    );
    assert_eq!(
        total("stef_jobs_completed_total", &[("outcome", "failed")]) as usize,
        report.failed(),
        "{text}"
    );
    assert_eq!(total("stef_jobs_shed_total", &[]) as usize, report.shed(), "{text}");
    // The transient-fault job retried at least once.
    assert!(total("stef_job_retries_total", &[]) >= 1.0, "{text}");
    assert_eq!(total("stef_snapshot_generations", &[]) as u64, store.installs());
    assert!(total("stef_http_requests_total", &[]) > 0.0, "{text}");
    assert!(total("stef_mttkrp_seconds_count", &[]) > 0.0, "{text}");
    // Drift gauges: present for every audited (engine, mode), and
    // finite — the continuous §IV-C audit must never go NaN/inf.
    for s in samples.iter().filter(|s| s.name == "stef_model_drift_rel_err") {
        assert!(s.value.is_finite(), "drift gauge not finite: {:?}", s.labels);
    }

    // Every published model still answers after the drain returned.
    let names = store.models();
    let counts: HashMap<&str, bool> = names
        .iter()
        .map(|n| (n.as_str(), store.get(n).is_some()))
        .collect();
    assert_eq!(counts.len(), 4, "{names:?}");
    assert!(counts.values().all(|&present| present));
    std::fs::remove_dir_all(&dir).ok();
}
