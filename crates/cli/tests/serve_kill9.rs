//! Daemon crash-recovery and drain, end to end against the real `stef`
//! binary:
//!
//! * an uninterrupted `stef serve` refit establishes the reference
//!   factor checksum;
//! * a second daemon is `kill -9`'d mid-refit, restarted on the same
//!   journal (auto-resume), and must converge to the **bit-identical**
//!   checksum — the journal + checkpoint replay is exact, not
//!   approximate;
//! * SIGUSR1 dumps the flight recorder into `$STEF_FLIGHT_DIR`;
//! * SIGTERM drains gracefully: admission stops, the journal is
//!   compacted, and the process exits 0.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stef-kill9-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Deterministic ~6.7k-nnz tensor, 1-indexed FROSTT text, no
/// duplicates. Big enough that a several-hundred-iteration reference
/// refit runs for seconds in a debug binary — room to land a `kill -9`
/// mid-job.
fn write_tensor(path: &Path) {
    let mut body = String::new();
    let mut x: u64 = 0x5eed;
    for i in 1..=30u32 {
        for j in 1..=30u32 {
            for k in 1..=30u32 {
                if (i * 7 + j * 3 + k) % 4 == 0 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let v = ((x >> 33) % 2000) as f64 / 1000.0 - 1.0;
                    body.push_str(&format!("{i} {j} {k} {v}\n"));
                }
            }
        }
    }
    std::fs::write(path, body).unwrap();
}

struct Daemon {
    child: Child,
    addr: String,
    stdout: BufReader<std::process::ChildStdout>,
}

fn spawn_daemon(dir: &Path) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_stef"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--journal",
            dir.join("serve.journal").to_str().unwrap(),
            "--ckpt-dir",
            dir.join("ckpts").to_str().unwrap(),
            "--checkpoint-every",
            "1",
            "--drain-grace-ms",
            "10000",
        ])
        .env("STEF_FLIGHT_DIR", dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn stef serve");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    // Scan for the bound-address line (a resume prints its banner
    // first).
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        let mut line = String::new();
        let n = stdout.read_line(&mut line).expect("daemon stdout");
        if let Some(rest) = line.trim().strip_prefix("serving on ") {
            break rest.to_string();
        }
        assert!(
            n > 0 && Instant::now() < deadline,
            "daemon never printed its address (last line: {line:?})"
        );
    };
    Daemon {
        child,
        addr,
        stdout,
    }
}

fn http(addr: &str, method: &str, path: &str, body: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(mut s) => {
                s.set_read_timeout(Some(Duration::from_secs(10))).ok();
                let req = format!(
                    "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                );
                s.write_all(req.as_bytes()).unwrap();
                let mut response = String::new();
                s.read_to_string(&mut response).unwrap();
                let status = response.split_whitespace().nth(1).unwrap_or("").to_string();
                let payload = response.split("\r\n\r\n").nth(1).unwrap_or_default();
                return format!("{status} {payload}");
            }
            Err(e) => {
                assert!(Instant::now() < deadline, "cannot connect to {addr}: {e}");
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

fn await_done(addr: &str, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let r = http(addr, "GET", &format!("/jobs/{id}"), "");
        if r.contains("\"status\":\"done\"") {
            return;
        }
        assert!(
            !r.contains("\"status\":\"failed\"") && !r.contains("\"status\":\"shed\""),
            "job {id} terminal without done: {r}"
        );
        assert!(Instant::now() < deadline, "job {id} never finished: {r}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn model_checksum(addr: &str) -> String {
    let meta = http(addr, "GET", "/models/m", "");
    assert!(meta.starts_with("200"), "{meta}");
    assert!(meta.contains("\"stale\":false"), "{meta}");
    meta.split("\"checksum\":\"")
        .nth(1)
        .and_then(|t| t.split('"').next())
        .expect("checksum in model meta")
        .to_string()
}

/// `kill -<signal> <pid>`, e.g. `signal(child, "TERM")`.
fn signal(child: &Child, signal: &str) {
    let ok = Command::new("kill")
        .args([&format!("-{signal}"), &child.id().to_string()])
        .status()
        .expect("kill")
        .success();
    assert!(ok, "kill -{signal} failed");
}

/// The shared refit job: deterministic single-threaded reference
/// engine, tol=0 so it always runs all iterations.
fn job_line(tns: &Path) -> String {
    format!(
        "{} rank=6 iters=3000 tol=0 seed=9 engine=reference model=m",
        tns.display()
    )
}

#[test]
fn kill9_resume_is_bit_identical_and_sigterm_drains_exit_0() {
    let dir = tmp_dir("main");
    let tns = dir.join("t.tns");
    write_tensor(&tns);

    // --- Reference: uninterrupted refit, then SIGTERM drain. ---
    let ref_dir = dir.join("reference");
    std::fs::create_dir_all(&ref_dir).unwrap();
    let mut daemon = spawn_daemon(&ref_dir);
    let r = http(&daemon.addr, "POST", "/jobs", &job_line(&tns));
    assert!(r.starts_with("200"), "{r}");
    await_done(&daemon.addr, 0);
    let reference_checksum = model_checksum(&daemon.addr);

    // SIGUSR1 only sets a flag; the CLI's cancel watchdog writes the
    // dump, and the daemon keeps serving.
    signal(&daemon.child, "USR1");
    let dump = ref_dir.join(format!("stef-flight-{}-sigusr1.log", daemon.child.id()));
    let deadline = Instant::now() + Duration::from_secs(5);
    while !dump.exists() {
        assert!(
            Instant::now() < deadline,
            "no flight dump at {} within 5 s",
            dump.display()
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    signal(&daemon.child, "TERM");
    let status = daemon.child.wait().expect("daemon exit");
    assert_eq!(status.code(), Some(0), "SIGTERM drain must exit 0: {status:?}");
    // Drain compacted the journal: rescanning it must show only
    // terminal-state records for job 0 (the submitted+done pair).
    let journal = std::fs::read_to_string(ref_dir.join("serve.journal")).unwrap();
    assert!(journal.contains("done"), "compacted journal lost the outcome:\n{journal}");

    // --- Crash: kill -9 mid-refit, restart, resume, compare. ---
    let crash_dir = dir.join("crash");
    std::fs::create_dir_all(&crash_dir).unwrap();
    let mut daemon = spawn_daemon(&crash_dir);
    let r = http(&daemon.addr, "POST", "/jobs", &job_line(&tns));
    assert!(r.starts_with("200"), "{r}");
    // Let it get properly mid-flight (checkpoint-every=1 guarantees
    // on-disk progress), then pull the plug.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let r = http(&daemon.addr, "GET", "/jobs/0", "");
        if r.contains("\"status\":\"running\"") {
            break;
        }
        assert!(
            !r.contains("\"status\":\"done\""),
            "job finished before the kill could land; enlarge the tensor"
        );
        assert!(Instant::now() < deadline, "job never started: {r}");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(500));
    // The refit must still be mid-flight when the plug is pulled — a
    // job that already journaled `done` replays as done on restart
    // without re-firing the snapshot hook (snapshots are in-memory),
    // which would turn this into a test of nothing.
    let r = http(&daemon.addr, "GET", "/jobs/0", "");
    assert!(
        r.contains("\"status\":\"running\""),
        "job finished before the kill could land ({r}); enlarge the tensor or iters"
    );
    signal(&daemon.child, "9");
    daemon.child.wait().expect("killed daemon reaped");

    // Restart on the same journal: auto-resume must finish job 0 from
    // its checkpoint and publish the same bits.
    let mut daemon = spawn_daemon(&crash_dir);
    await_done(&daemon.addr, 0);
    let resumed_checksum = model_checksum(&daemon.addr);
    assert_eq!(
        resumed_checksum, reference_checksum,
        "kill -9 resume must reproduce the factors bit-identically"
    );

    // The resumed daemon also drains cleanly.
    signal(&daemon.child, "TERM");
    let status = daemon.child.wait().expect("resumed daemon exit");
    assert_eq!(status.code(), Some(0), "{status:?}");

    // Silence unused-field warning; stdout handle must stay alive so
    // the child never blocks on a full pipe.
    let _ = &mut daemon.stdout;
    std::fs::remove_dir_all(&dir).ok();
}
