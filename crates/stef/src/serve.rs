//! `stef serve` — the long-running decomposition daemon.
//!
//! A minimal, dependency-free HTTP/1.1 server over
//! [`std::net::TcpListener`] that multiplexes concurrent decomposition
//! jobs over the shared worker pool via the PR 6 [`Supervisor`] (write
//! side) and answers factor queries from atomically-swapped
//! [`SnapshotStore`] snapshots (read side), so queries never block on a
//! refit. The robustness properties are the point:
//!
//! * **Crash recovery** — the CLI builds the supervisor with
//!   [`Supervisor::resume`] when the journal exists, so a `kill -9`'d
//!   daemon restarts exactly its unfinished jobs from their checkpoints
//!   and converges bit-identically (exercised by the kill-9 test in
//!   `stef-cli`).
//! * **Overload shedding** — submission admission is priced by
//!   [`crate::supervisor::price_job`] against the configured envelopes;
//!   over-envelope submits answer HTTP 503 with the
//!   [`StefError::Overloaded`] taxonomy. The accept queue is bounded
//!   (over-limit connections get an immediate 503 and a close), and
//!   every connection carries read/write timeouts so a slow client
//!   wedges neither an acceptor nor a handler.
//! * **Graceful drain** — when the stop token fires (the CLI wires it
//!   to SIGTERM / first Ctrl-C), the acceptor stops, keep-alive
//!   connections close after their in-flight request, jobs get
//!   [`ServeConfig::drain_grace`] to finish before their tokens are
//!   cancelled (cooperative checkpoint, journaled `Interrupted`,
//!   resumable), and the journal is compacted + fsynced on the way out.
//! * **Degraded serving** — failed or shed refits mark the model's last
//!   good snapshot stale ([`SnapshotStore::mark_stale`]); queries keep
//!   answering, labelled.
//!
//! ## Protocol
//!
//! Request bodies are plain text (`key=value` tokens — the jobs-file
//! grammar for submits); responses are JSON. Endpoints:
//!
//! ```text
//! GET  /healthz                              state + queue/model counters (503 once draining)
//! GET  /metrics                              Prometheus text exposition of the metrics registry
//! POST /jobs                                 body: <tensor> [rank=..] [model=..] ...
//! GET  /jobs/<id>                            job status
//! POST /jobs/<id>/cancel                     cooperative cancel
//! GET  /models                               model names
//! GET  /models/<name>                        snapshot metadata + content checksum
//! GET  /models/<name>/factor/<mode>/<row>    one factor row
//! POST /models/<name>/topk                   body: mode=M target=T k=K rows=1,2,3
//! ```

use crate::error::StefError;
use crate::runtime::CancelToken;
use crate::snapshot::SnapshotStore;
use crate::supervisor::{
    json_num, json_str, parse_job_line, BatchReport, JobHook, JobOutcome, JobStatus, Supervisor,
};
use crate::sync::{lock_unpoisoned, wait_timeout_unpoisoned};
use crate::telemetry;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Serving configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 picks a free one).
    pub addr: String,
    /// Connection-handler threads (the *job* concurrency is the
    /// supervisor's `max_concurrent`, not this).
    pub handler_threads: usize,
    /// Accepted-but-unclaimed connection bound; connections beyond it
    /// are answered 503 and closed instead of queueing without bound.
    pub accept_backlog: usize,
    /// Per-connection read timeout (slow or silent clients are dropped).
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Rank used when a submit line carries no `rank=`.
    pub default_rank: usize,
    /// How long a drain waits for in-flight jobs to finish on their own
    /// before cancelling them (they checkpoint and journal
    /// `Interrupted`, so nothing is lost either way — the grace only
    /// saves the next restart some re-fitting).
    pub drain_grace: Duration,
    /// Request-body byte cap (larger submits answer 413).
    pub max_body_bytes: usize,
    /// Requests served on one keep-alive connection before it is closed
    /// (`Connection: close` on the last response). Handlers are a fixed
    /// pool, so without a cap `handler_threads` slow-but-active
    /// keep-alive clients would hold every handler forever and starve
    /// queued connections (including `/healthz` probes).
    pub max_requests_per_conn: usize,
    /// Total lifetime bound for one connection; checked at request
    /// boundaries, so together with [`ServeConfig::read_timeout`] a
    /// handler is occupied by one connection for at most
    /// `max_conn_lifetime + read_timeout`.
    pub max_conn_lifetime: Duration,
    /// Interval between periodic [`crate::metrics`] flushes into the
    /// supervisor's JSONL metrics sink (`Duration::ZERO` disables
    /// flushing; the housekeeping tick that wakes the acceptor at stop
    /// still runs). Each flush is one `"kind":"metrics_flush"` line, so
    /// a long-running daemon leaves a coarse time series behind even if
    /// nobody ever scrapes `/metrics`.
    pub metrics_flush: Duration,
}

impl ServeConfig {
    /// Defaults: 4 handler threads, 64-connection backlog, 5 s
    /// read/write timeouts, rank 16, 2 s drain grace, 1 MiB bodies,
    /// 32 requests / 30 s per keep-alive connection, 10 s metrics
    /// flushes.
    pub fn new(addr: impl Into<String>) -> ServeConfig {
        ServeConfig {
            addr: addr.into(),
            handler_threads: 4,
            accept_backlog: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            default_rank: 16,
            drain_grace: Duration::from_secs(2),
            max_body_bytes: 1 << 20,
            max_requests_per_conn: 32,
            max_conn_lifetime: Duration::from_secs(30),
            metrics_flush: Duration::from_secs(10),
        }
    }
}

/// The standard supervisor→store publication wiring: `Done` installs a
/// fresh snapshot under the job's model name, `Failed`/`Interrupted`
/// mark the last good snapshot stale (degraded serving). Install it as
/// [`crate::supervisor::SupervisorConfig::on_outcome`].
pub fn outcome_hook(store: Arc<SnapshotStore>) -> JobHook {
    JobHook::new(move |id, spec, outcome| {
        let model = spec.model_name();
        match outcome {
            JobOutcome::Done(result) => {
                let generation = store.install(model, id, result);
                crate::flight::record(crate::flight::FlightEvent::SnapshotInstall, id as u64, generation);
                telemetry::info("serve", || {
                    format!("model '{model}' generation {generation} published by job {id}")
                });
            }
            JobOutcome::Failed(e) => {
                let reason = format!("refit failed: {e}");
                if store.mark_stale(model, &reason) {
                    telemetry::warn("serve", || format!("model '{model}' now stale ({reason})"));
                }
            }
            JobOutcome::Interrupted => {
                let _ = store.mark_stale(model, "refit interrupted");
            }
        }
    })
}

/// Counters surfaced by `/healthz`.
#[derive(Debug, Default)]
struct ServeStats {
    submits: AtomicU64,
    sheds: AtomicU64,
    queries: AtomicU64,
    busy_rejected: AtomicU64,
}

struct ConnQueue {
    queue: Mutex<VecDeque<TcpStream>>,
    cv: Condvar,
}

/// A running (or ready-to-run) daemon. [`Server::bind`] claims the
/// socket; [`Server::run`] blocks serving until the stop token fires,
/// then drains and returns the final job report.
pub struct Server {
    cfg: ServeConfig,
    sup: Arc<Supervisor>,
    store: Arc<SnapshotStore>,
    stop: CancelToken,
    listener: TcpListener,
    addr: SocketAddr,
    stats: ServeStats,
    started: Instant,
}

/// Alias kept for the public re-export; the server *is* the handle.
pub type ServeHandle = Server;

impl Server {
    /// Binds the listening socket. The `stop` token is the drain
    /// signal: cancel it (e.g. from a SIGTERM handler) and
    /// [`Server::run`] winds the daemon down gracefully.
    pub fn bind(
        cfg: ServeConfig,
        sup: Arc<Supervisor>,
        store: Arc<SnapshotStore>,
        stop: CancelToken,
    ) -> Result<Server, StefError> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| StefError::Input(format!("cannot bind '{}': {e}", cfg.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| StefError::Input(format!("cannot resolve bound address: {e}")))?;
        Ok(Server {
            cfg,
            sup,
            store,
            stop,
            listener,
            addr,
            stats: ServeStats::default(),
            started: Instant::now(),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until the stop token fires, then drains: admission stops,
    /// in-flight jobs get [`ServeConfig::drain_grace`] to finish before
    /// their tokens are cancelled (checkpoint + journaled
    /// `Interrupted`), the journal is compacted (fsynced via the
    /// temp-file + rename protocol), and the final report is returned.
    pub fn run(&self) -> BatchReport {
        let job_stop = CancelToken::new();
        let conns = ConnQueue {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        };
        let accepting = AtomicBool::new(true);
        let report = std::thread::scope(|s| {
            let runner = s.spawn(|| self.sup.run_service(&job_stop));
            for _ in 0..self.cfg.handler_threads.max(1) {
                s.spawn(|| self.handler_loop(&conns));
            }
            s.spawn(|| self.ticker_loop(&accepting));
            self.accept_loop(&conns);
            accepting.store(false, Ordering::Release);

            // --- drain ---
            self.sup.begin_drain();
            crate::flight::record(crate::flight::FlightEvent::Drain, 0, 0);
            conns.cv.notify_all();
            telemetry::info("serve", || "draining (admission stopped)".into());
            let deadline = Instant::now() + self.cfg.drain_grace;
            loop {
                let (queued, running) = self.sup.load_counts();
                if (queued == 0 && running == 0) || Instant::now() >= deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            // Stop workers claiming anything further *before* cancelling
            // the running tokens: in the other order a worker can claim
            // a queued job in the gap and start it with an uncancelled
            // token, delaying shutdown by a full refit after the grace
            // already expired. `cancel_running` then covers both running
            // jobs and the claimed-but-not-yet-started stragglers.
            job_stop.cancel();
            let cancelled = self.sup.cancel_running();
            if cancelled > 0 {
                telemetry::info("serve", || {
                    format!("drain grace expired, cancelled {cancelled} running job(s)")
                });
            }
            runner.join().unwrap_or_else(|_| self.sup.report())
        });
        // Compaction rewrites through a temp file, fsyncs it, and
        // fsyncs the directory after the rename — the drain-time
        // journal fsync and the unbounded-growth fix in one step.
        match self.sup.compact_journal() {
            Ok(dropped) if dropped > 0 => {
                telemetry::info("serve", || format!("journal compacted, {dropped} record(s) dropped"))
            }
            Ok(_) => {}
            Err(e) => telemetry::warn("serve", || format!("drain compaction failed: {e}")),
        }
        report
    }

    /// Blocks in `accept`; at stop [`Server::ticker_loop`]'s throwaway
    /// connection wakes it, and whatever it accepts then is dropped
    /// unserved, so the wake reaches no handler and no counter.
    fn accept_loop(&self, conns: &ConnQueue) {
        while !self.stop.is_cancelled() {
            match self.listener.accept() {
                Ok(_) if self.stop.is_cancelled() => return,
                Ok((stream, _peer)) => {
                    let mut queue = lock_unpoisoned(&conns.queue);
                    if queue.len() >= self.cfg.accept_backlog.max(1) {
                        drop(queue);
                        self.stats.busy_rejected.fetch_add(1, Ordering::Relaxed);
                        let mut stream = stream;
                        let _ = stream.set_write_timeout(Some(self.cfg.write_timeout));
                        let _ = write_response(
                            &mut stream,
                            503,
                            CT_JSON,
                            &err_body("accept queue full"),
                            true,
                        );
                    } else {
                        queue.push_back(stream);
                        drop(queue);
                        conns.cv.notify_one();
                    }
                }
                // EMFILE/ENFILE and the like: back off instead of spinning.
                Err(e) => {
                    telemetry::debug("serve", || format!("accept error: {e}"));
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }

    /// The server's 50 ms housekeeping tick: flushes the registry into
    /// the supervisor's JSONL metrics sink every
    /// [`ServeConfig::metrics_flush`] (never, when zero), and once the
    /// stop token fires, connects to wake the blocked acceptor — every
    /// tick until `accepting` clears, so a lost wake cannot hang the
    /// drain.
    fn ticker_loop(&self, accepting: &AtomicBool) {
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let tick = Duration::from_millis(50);
        let mut next = Instant::now() + self.cfg.metrics_flush;
        loop {
            std::thread::sleep(tick);
            if self.stop.is_cancelled() {
                if !accepting.load(Ordering::Acquire) {
                    return;
                }
                let _ = TcpStream::connect_timeout(&wake, tick);
            } else if !self.cfg.metrics_flush.is_zero() && Instant::now() >= next {
                next = Instant::now() + self.cfg.metrics_flush;
                let line = crate::metrics::render_flush_jsonl(telemetry::uptime_seconds());
                self.sup.append_metrics_line(&line);
            }
        }
    }

    fn handler_loop(&self, conns: &ConnQueue) {
        loop {
            let stream = {
                let mut queue = lock_unpoisoned(&conns.queue);
                loop {
                    if let Some(s) = queue.pop_front() {
                        break Some(s);
                    }
                    if self.stop.is_cancelled() {
                        break None;
                    }
                    queue =
                        wait_timeout_unpoisoned(&conns.cv, queue, Duration::from_millis(50));
                }
            };
            match stream {
                Some(s) => self.handle_conn(s),
                None => return,
            }
        }
    }

    /// One persistent (keep-alive) connection. Timeouts bound every
    /// read and write; after a stop the connection closes at the next
    /// request boundary so a chatty client cannot hold the drain open.
    /// Request-count and lifetime caps close the connection (with
    /// `Connection: close`) so a fixed handler pool round-robins across
    /// clients instead of being monopolized by whoever connected first.
    fn handle_conn(&self, stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(self.cfg.read_timeout));
        let _ = stream.set_write_timeout(Some(self.cfg.write_timeout));
        let _ = stream.set_nodelay(true);
        let Ok(read_half) = stream.try_clone() else { return };
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        let opened = Instant::now();
        let mut served = 0usize;
        loop {
            let req = match read_request(&mut reader, self.cfg.max_body_bytes) {
                Ok(req) => req,
                Err(ReadError::Eof) | Err(ReadError::Io) => return,
                Err(ReadError::TooLarge) => {
                    self.observe_http("POST", 413, Instant::now());
                    let _ = write_response(
                        &mut writer,
                        413,
                        CT_JSON,
                        &err_body("request body too large"),
                        true,
                    );
                    return;
                }
                Err(ReadError::Bad(reason)) => {
                    self.observe_http("GET", 400, Instant::now());
                    let _ = write_response(&mut writer, 400, CT_JSON, &err_body(&reason), true);
                    return;
                }
            };
            served += 1;
            let close = req.close
                || self.stop.is_cancelled()
                || served >= self.cfg.max_requests_per_conn.max(1)
                || opened.elapsed() >= self.cfg.max_conn_lifetime;
            let t0 = Instant::now();
            let (status, body) = self.dispatch(&req);
            self.observe_http(&req.method, status, t0);
            // `/metrics` is the one non-JSON endpoint: Prometheus'
            // text exposition format, version-tagged per convention.
            let ctype = if status == 200
                && req.path.split('?').next() == Some("/metrics")
            {
                CT_PROMETHEUS
            } else {
                CT_JSON
            };
            if write_response(&mut writer, status, ctype, &body, close).is_err() || close {
                return;
            }
        }
    }

    /// One relaxed counter bump + histogram observe per request; the
    /// label set is bounded (3 methods × the fixed status table), and
    /// when the registry is disabled both calls are no-ops after a
    /// single relaxed load.
    fn observe_http(&self, method: &str, status: u16, t0: Instant) {
        if !crate::metrics::enabled() {
            return;
        }
        let dt = t0.elapsed();
        let method = match method {
            "GET" => "GET",
            "POST" => "POST",
            _ => "other",
        };
        crate::metrics::counter(
            "stef_http_requests_total",
            "HTTP requests served, by method and status.",
            &[
                ("method", method),
                ("status", crate::metrics::status_label(status)),
            ],
        )
        .inc();
        crate::metrics::histogram(
            "stef_http_request_seconds",
            "HTTP request handling latency (read excluded, dispatch + encode).",
            &[],
            crate::metrics::TIME_BUCKETS,
        )
        .observe(dt.as_secs_f64());
        crate::flight::record(
            crate::flight::FlightEvent::Http,
            status as u64,
            dt.as_nanos() as u64,
        );
    }

    fn dispatch(&self, req: &Request) -> (u16, String) {
        // Split *before* decoding, so a model name containing '/'
        // (legal at submit time — names default to the tensor spec) is
        // reachable as a single `%2F`-escaped segment.
        let mut decoded: Vec<String> = Vec::new();
        for seg in req
            .path
            .split('?')
            .next()
            .unwrap_or("")
            .split('/')
            .filter(|s| !s.is_empty())
        {
            match pct_decode_segment(seg) {
                Some(s) => decoded.push(s),
                None => {
                    return (400, err_body(&format!("bad percent-escape in '{seg}'")));
                }
            }
        }
        let segs: Vec<&str> = decoded.iter().map(|s| s.as_str()).collect();
        match (req.method.as_str(), segs.as_slice()) {
            ("GET", ["healthz"]) => self.healthz(),
            ("GET", ["metrics"]) => self.metrics_text(),
            ("POST", ["jobs"]) => self.submit(req.body.trim()),
            ("GET", ["jobs", id]) => self.job_status(id),
            ("POST", ["jobs", id, "cancel"]) => self.job_cancel(id),
            ("GET", ["models"]) => self.model_list(),
            ("GET", ["models", name]) => self.model_meta(name),
            ("GET", ["models", name, "factor", mode, row]) => self.factor(name, mode, row),
            ("POST", ["models", name, "topk"]) => self.top_k(name, req.body.trim()),
            _ => (404, err_body("no such endpoint")),
        }
    }

    fn healthz(&self) -> (u16, String) {
        let (queued, running) = self.sup.load_counts();
        let draining = self.stop.is_cancelled() || self.sup.is_draining();
        let state = if draining { "draining" } else { "serving" };
        // A draining daemon answers 503 so load balancers and probe
        // loops stop routing to it the moment the drain begins — the
        // body still carries the full counter set for post-mortems.
        let status = if draining { 503 } else { 200 };
        (
            status,
            format!(
                "{{\"state\":\"{state}\",\"draining\":{draining},\"queued\":{queued},\
                 \"queue_depth\":{queued},\"running\":{running},\
                 \"models\":{},\"installs\":{},\"snapshot_generations\":{},\
                 \"uptime_s\":{},\"submits\":{},\"shed\":{},\"queries\":{},\
                 \"busy_rejected\":{}}}",
                self.store.models().len(),
                self.store.installs(),
                self.store.installs(),
                json_num(self.started.elapsed().as_secs_f64()),
                self.stats.submits.load(Ordering::Relaxed),
                self.stats.sheds.load(Ordering::Relaxed),
                self.stats.queries.load(Ordering::Relaxed),
                self.stats.busy_rejected.load(Ordering::Relaxed),
            ),
        )
    }

    /// `GET /metrics` — the whole registry in Prometheus text format.
    /// Point-in-time state (queue depth, snapshot ages, uptime, the
    /// `/healthz` counter quartet) is folded into gauges at scrape time
    /// so one scrape carries both the hot-path counters and the current
    /// picture.
    fn metrics_text(&self) -> (u16, String) {
        use crate::metrics as m;
        let (queued, running) = self.sup.load_counts();
        m::gauge("stef_jobs_queued", "Jobs waiting in the supervisor queue.", &[])
            .set(queued as f64);
        m::gauge("stef_jobs_running", "Jobs currently refitting.", &[]).set(running as f64);
        m::gauge("stef_uptime_seconds", "Seconds since the daemon bound its socket.", &[])
            .set(self.started.elapsed().as_secs_f64());
        let models = self.store.models();
        let stale = models
            .iter()
            .filter(|n| self.store.get(n).is_some_and(|s| s.stale))
            .count();
        m::gauge("stef_snapshot_models", "Models with an installed snapshot.", &[])
            .set(models.len() as f64);
        m::gauge(
            "stef_snapshot_generations",
            "Total snapshot installs since start (monotonic generation counter).",
            &[],
        )
        .set(self.store.installs() as f64);
        m::gauge(
            "stef_snapshot_stale",
            "Models whose latest snapshot is marked stale (degraded serving).",
            &[],
        )
        .set(stale as f64);
        m::gauge("stef_serve_submits", "Submit requests accepted for pricing.", &[])
            .set(self.stats.submits.load(Ordering::Relaxed) as f64);
        m::gauge("stef_serve_sheds", "Submits refused by admission pricing.", &[])
            .set(self.stats.sheds.load(Ordering::Relaxed) as f64);
        m::gauge("stef_serve_queries", "Read-side queries answered from snapshots.", &[])
            .set(self.stats.queries.load(Ordering::Relaxed) as f64);
        m::gauge(
            "stef_serve_busy_rejected",
            "Connections 503'd because the accept backlog was full.",
            &[],
        )
        .set(self.stats.busy_rejected.load(Ordering::Relaxed) as f64);
        (200, m::render_prometheus())
    }

    fn submit(&self, line: &str) -> (u16, String) {
        if self.sup.is_draining() || self.stop.is_cancelled() {
            return (503, err_body("draining: not accepting new jobs"));
        }
        let spec = match parse_job_line(line, self.cfg.default_rank) {
            Ok(spec) => spec,
            Err(e) => return (400, err_body(&e)),
        };
        let model = spec.model_name().to_string();
        self.stats.submits.fetch_add(1, Ordering::Relaxed);
        match self.sup.submit(spec) {
            Ok(id) => (
                200,
                format!("{{\"id\":{id},\"model\":{}}}", json_str(&model)),
            ),
            Err(StefError::Overloaded {
                resource,
                required,
                outstanding,
                envelope,
            }) => {
                self.stats.sheds.fetch_add(1, Ordering::Relaxed);
                // Degraded serving: a shed *refit* leaves the model's
                // last good snapshot answering, explicitly stale.
                let _ = self
                    .store
                    .mark_stale(&model, &format!("refit shed: {resource} envelope exceeded"));
                (
                    503,
                    format!(
                        "{{\"error\":\"overloaded\",\"resource\":{},\"required\":{},\
                         \"outstanding\":{},\"envelope\":{}}}",
                        json_str(resource),
                        json_num(required),
                        json_num(outstanding),
                        json_num(envelope),
                    ),
                )
            }
            // The drain flag can flip between the check above and the
            // supervisor's own check; its refusal is still a 503.
            Err(StefError::Input(msg)) if msg.contains("draining") => (503, err_body(&msg)),
            Err(e @ StefError::Input(_)) | Err(e @ StefError::Tns(_)) => {
                (400, err_body(&e.to_string()))
            }
            Err(e) => (500, err_body(&e.to_string())),
        }
    }

    fn job_status(&self, id: &str) -> (u16, String) {
        let Ok(id) = id.parse::<usize>() else {
            return (400, err_body("job id must be an integer"));
        };
        let Some(status) = self.sup.status(id) else {
            return (404, err_body("no such job"));
        };
        let model = self
            .sup
            .job_spec(id)
            .map(|s| s.model_name().to_string())
            .unwrap_or_default();
        let mut body = format!("{{\"id\":{id},\"model\":{}", json_str(&model));
        match status {
            JobStatus::Queued => body.push_str(",\"status\":\"queued\""),
            JobStatus::Running { attempt } => {
                body.push_str(&format!(",\"status\":\"running\",\"attempt\":{attempt}"))
            }
            JobStatus::Done {
                attempts,
                iterations,
                final_fit,
            } => body.push_str(&format!(
                ",\"status\":\"done\",\"attempts\":{attempts},\"iterations\":{iterations},\
                 \"final_fit\":{}",
                json_num(final_fit)
            )),
            JobStatus::Failed { attempts, error } => body.push_str(&format!(
                ",\"status\":\"failed\",\"attempts\":{attempts},\"error\":{}",
                json_str(&error)
            )),
            JobStatus::Shed => body.push_str(",\"status\":\"shed\""),
            JobStatus::Interrupted => body.push_str(",\"status\":\"interrupted\""),
        }
        body.push('}');
        (200, body)
    }

    fn job_cancel(&self, id: &str) -> (u16, String) {
        let Ok(id) = id.parse::<usize>() else {
            return (400, err_body("job id must be an integer"));
        };
        let cancelled = self.sup.cancel(id);
        (200, format!("{{\"id\":{id},\"cancelled\":{cancelled}}}"))
    }

    fn model_list(&self) -> (u16, String) {
        let names = self.store.models();
        let items: Vec<String> = names.iter().map(|n| json_str(n)).collect();
        (200, format!("{{\"models\":[{}]}}", items.join(",")))
    }

    fn model_meta(&self, name: &str) -> (u16, String) {
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        let Some(snap) = self.store.get(name) else {
            return (404, err_body("no snapshot for this model"));
        };
        let dims: Vec<String> = snap.dims.iter().map(|d| d.to_string()).collect();
        let stale_reason = match &snap.stale_reason {
            Some(r) => json_str(r),
            None => "null".into(),
        };
        (
            200,
            format!(
                "{{\"model\":{},\"generation\":{},\"job_id\":{},\"rank\":{},\"dims\":[{}],\
                 \"final_fit\":{},\"iterations\":{},\"stale\":{},\"stale_reason\":{stale_reason},\
                 \"checksum\":\"{:016x}\"}}",
                json_str(&snap.model),
                snap.generation,
                snap.job_id,
                snap.rank,
                dims.join(","),
                json_num(snap.final_fit),
                snap.iterations,
                snap.stale,
                snap.checksum,
            ),
        )
    }

    fn factor(&self, name: &str, mode: &str, row: &str) -> (u16, String) {
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        let (Ok(mode), Ok(row)) = (mode.parse::<usize>(), row.parse::<usize>()) else {
            return (400, err_body("mode and row must be integers"));
        };
        let Some(snap) = self.store.get(name) else {
            return (404, err_body("no snapshot for this model"));
        };
        match snap.factor_row(mode, row) {
            Ok(values) => {
                let vals: Vec<String> = values.iter().map(|&v| json_num(v)).collect();
                (
                    200,
                    format!(
                        "{{\"model\":{},\"generation\":{},\"stale\":{},\"mode\":{mode},\
                         \"row\":{row},\"values\":[{}]}}",
                        json_str(&snap.model),
                        snap.generation,
                        snap.stale,
                        vals.join(","),
                    ),
                )
            }
            Err(e) => (400, err_body(&e.to_string())),
        }
    }

    fn top_k(&self, name: &str, body: &str) -> (u16, String) {
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        let Some(snap) = self.store.get(name) else {
            return (404, err_body("no snapshot for this model"));
        };
        let mut mode = None;
        let mut target = None;
        let mut k = 10usize;
        let mut rows: Vec<usize> = Vec::new();
        for tok in body.split_whitespace() {
            let Some((key, value)) = tok.split_once('=') else {
                return (400, err_body(&format!("expected 'key=value', got '{tok}'")));
            };
            let bad = || err_body(&format!("bad {key} '{value}'"));
            match key {
                "mode" => match value.parse() {
                    Ok(v) => mode = Some(v),
                    Err(_) => return (400, bad()),
                },
                "target" => match value.parse() {
                    Ok(v) => target = Some(v),
                    Err(_) => return (400, bad()),
                },
                "k" => match value.parse() {
                    Ok(v) => k = v,
                    Err(_) => return (400, bad()),
                },
                "rows" => {
                    for r in value.split(',') {
                        match r.parse() {
                            Ok(v) => rows.push(v),
                            Err(_) => return (400, bad()),
                        }
                    }
                }
                _ => return (400, err_body(&format!("unknown field '{key}'"))),
            }
        }
        let (Some(mode), Some(target)) = (mode, target) else {
            return (400, err_body("topk needs mode=, target=, rows="));
        };
        if rows.is_empty() {
            return (400, err_body("topk needs at least one row"));
        }
        match snap.top_k(mode, &rows, target, k) {
            Ok(results) => {
                let per_row: Vec<String> = rows
                    .iter()
                    .zip(&results)
                    .map(|(row, best)| {
                        let pairs: Vec<String> = best
                            .iter()
                            .map(|&(j, score)| format!("[{j},{}]", json_num(score)))
                            .collect();
                        format!("{{\"row\":{row},\"top\":[{}]}}", pairs.join(","))
                    })
                    .collect();
                (
                    200,
                    format!(
                        "{{\"model\":{},\"generation\":{},\"stale\":{},\"results\":[{}]}}",
                        json_str(&snap.model),
                        snap.generation,
                        snap.stale,
                        per_row.join(","),
                    ),
                )
            }
            Err(e) => (400, err_body(&e.to_string())),
        }
    }
}

// ---------------------------------------------------------------------
// HTTP plumbing
// ---------------------------------------------------------------------

struct Request {
    method: String,
    path: String,
    body: String,
    close: bool,
}

enum ReadError {
    /// Clean end of stream at a request boundary.
    Eof,
    /// Read failure or timeout mid-request; drop without a response.
    Io,
    /// Body exceeds the configured cap.
    TooLarge,
    /// Malformed request; answer 400.
    Bad(String),
}

/// Reads one line with a hard byte cap, so a client streaming an
/// endless headerless request cannot grow the buffer without bound.
fn read_line_capped(
    reader: &mut BufReader<TcpStream>,
    cap: u64,
) -> Result<Option<String>, ReadError> {
    let mut line = String::new();
    match reader.by_ref().take(cap).read_line(&mut line) {
        Ok(0) => Ok(None),
        Ok(n) => {
            if !line.ends_with('\n') && n as u64 == cap {
                Err(ReadError::Bad("request line too long".into()))
            } else {
                Ok(Some(line))
            }
        }
        Err(_) => Err(ReadError::Io),
    }
}

fn read_request(
    reader: &mut BufReader<TcpStream>,
    max_body: usize,
) -> Result<Request, ReadError> {
    let line = match read_line_capped(reader, 8192)? {
        Some(line) => line,
        None => return Err(ReadError::Eof),
    };
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ReadError::Bad("empty request line".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| ReadError::Bad("request line has no path".into()))?
        .to_string();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Bad(format!("unsupported version '{version}'")));
    }
    let mut content_length = 0usize;
    let mut close = false;
    for _ in 0..100 {
        let header = match read_line_capped(reader, 8192)? {
            Some(h) => h,
            None => return Err(ReadError::Io),
        };
        let header = header.trim_end();
        if header.is_empty() {
            // Cap check *before* the allocation: a hostile
            // `Content-Length: 2^64-1` must answer 413, not abort the
            // process on a failed multi-exabyte zeroed allocation.
            if content_length > max_body {
                return Err(ReadError::TooLarge);
            }
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body).map_err(|_| ReadError::Io)?;
            let body =
                String::from_utf8(body).map_err(|_| ReadError::Bad("body is not UTF-8".into()))?;
            return Ok(Request {
                method,
                path,
                body,
                close,
            });
        }
        if let Some((key, value)) = header.split_once(':') {
            let key = key.trim().to_ascii_lowercase();
            let value = value.trim();
            if key == "content-length" {
                content_length = value
                    .parse()
                    .map_err(|_| ReadError::Bad("bad Content-Length".into()))?;
            } else if key == "connection" && value.eq_ignore_ascii_case("close") {
                close = true;
            }
        }
    }
    Err(ReadError::Bad("too many headers".into()))
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Default (JSON) response content type.
const CT_JSON: &str = "application/json";
/// `/metrics` content type — Prometheus text exposition format 0.0.4.
const CT_PROMETHEUS: &str = "text/plain; version=0.0.4";

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    close: bool,
) -> std::io::Result<()> {
    let connection = if close { "close" } else { "keep-alive" };
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: {connection}\r\n\r\n",
        status_reason(status),
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn err_body(msg: &str) -> String {
    format!("{{\"error\":{}}}", json_str(msg))
}

/// Decodes one `%XX`-escaped URL path segment. `None` on a truncated or
/// non-hex escape, or when the decoded bytes are not UTF-8.
fn pct_decode_segment(seg: &str) -> Option<String> {
    let bytes = seg.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = |b: u8| (b as char).to_digit(16);
            let hi = hex(*bytes.get(i + 1)?)?;
            let lo = hex(*bytes.get(i + 2)?)?;
            out.push((hi * 16 + lo) as u8);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{MttkrpEngine, ReferenceEngine};
    use crate::supervisor::{EngineFactory, SupervisorConfig, TensorLoader};
    use std::path::PathBuf;
    use workloads::power_law_tensor;

    fn tmp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::AtomicUsize;
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "stef-serve-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn loader() -> TensorLoader {
        Arc::new(|spec: &str| {
            // "gen:<d0>x<d1>x<d2>:<nnz>:<seed>"
            let parts: Vec<&str> = spec.split(':').collect();
            if parts.len() != 4 || parts[0] != "gen" {
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

    fn factory() -> EngineFactory {
        Arc::new(|_spec, tensor, _token, _attempt| {
            Ok(Box::new(ReferenceEngine::new(tensor.clone())) as Box<dyn MttkrpEngine>)
        })
    }

    struct TestServer {
        stop: CancelToken,
        addr: SocketAddr,
        thread: Option<std::thread::JoinHandle<BatchReport>>,
    }

    impl TestServer {
        fn start(cfg_mut: impl FnOnce(&mut SupervisorConfig)) -> (TestServer, PathBuf) {
            Self::start_with(cfg_mut, |_| {})
        }

        fn start_with(
            cfg_mut: impl FnOnce(&mut SupervisorConfig),
            serve_mut: impl FnOnce(&mut ServeConfig),
        ) -> (TestServer, PathBuf) {
            let dir = tmp_dir("e2e");
            let store = Arc::new(SnapshotStore::new());
            let mut scfg = SupervisorConfig::new(dir.join("serve.journal"), dir.join("ckpts"));
            scfg.max_concurrent = 2;
            scfg.on_outcome = Some(outcome_hook(Arc::clone(&store)));
            cfg_mut(&mut scfg);
            let sup = Arc::new(Supervisor::new(scfg, loader(), factory()).unwrap());
            let stop = CancelToken::new();
            let mut cfg = ServeConfig::new("127.0.0.1:0");
            cfg.drain_grace = Duration::from_millis(500);
            cfg.handler_threads = 2;
            serve_mut(&mut cfg);
            let server = Server::bind(cfg, sup, store, stop.clone()).unwrap();
            let addr = server.local_addr();
            let thread = std::thread::spawn(move || server.run());
            (
                TestServer {
                    stop,
                    addr,
                    thread: Some(thread),
                },
                dir,
            )
        }

        fn request(&self, method: &str, path: &str, body: &str) -> (u16, String) {
            let mut stream = TcpStream::connect(self.addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let req = format!(
                "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{body}",
                body.len()
            );
            stream.write_all(req.as_bytes()).unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            let status: u16 = response
                .split_whitespace()
                .nth(1)
                .expect("status line")
                .parse()
                .expect("numeric status");
            let payload = response
                .split("\r\n\r\n")
                .nth(1)
                .unwrap_or_default()
                .to_string();
            (status, payload)
        }

        fn wait_for_done(&self, id: usize) {
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                let (status, body) = self.request("GET", &format!("/jobs/{id}"), "");
                assert_eq!(status, 200, "{body}");
                if body.contains("\"status\":\"done\"") {
                    return;
                }
                assert!(
                    !body.contains("\"status\":\"failed\""),
                    "job {id} failed: {body}"
                );
                assert!(Instant::now() < deadline, "job {id} never finished: {body}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }

        fn shutdown(mut self) -> BatchReport {
            self.stop.cancel();
            self.thread.take().unwrap().join().unwrap()
        }
    }

    #[test]
    fn submit_query_and_drain_end_to_end() {
        let (server, dir) = TestServer::start(|_| {});
        let (status, body) = server.request("GET", "/healthz", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"state\":\"serving\""), "{body}");

        // Submit under an explicit model name, wait, query.
        let (status, body) = server.request(
            "POST",
            "/jobs",
            "gen:12x10x8:300:7 rank=3 iters=4 tol=0 model=demo",
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"id\":0"), "{body}");
        server.wait_for_done(0);

        let (status, body) = server.request("GET", "/models/demo", "");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"generation\":1"), "{body}");
        assert!(body.contains("\"stale\":false"), "{body}");

        let (status, body) = server.request("GET", "/models/demo/factor/0/3", "");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"values\":["), "{body}");

        let (status, body) =
            server.request("POST", "/models/demo/topk", "mode=0 target=1 k=3 rows=0,2");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"results\":["), "{body}");

        // Unknown endpoints and malformed requests answer, not panic.
        let (status, _) = server.request("GET", "/nope", "");
        assert_eq!(status, 404);
        let (status, _) = server.request("POST", "/jobs", "gen:2x2x2:4:1 bogus=1");
        assert_eq!(status, 400);
        let (status, _) = server.request("GET", "/models/ghost", "");
        assert_eq!(status, 404);

        let report = server.shutdown();
        assert_eq!(report.done(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overloaded_submit_answers_503_with_taxonomy() {
        let (server, dir) = TestServer::start(|cfg| {
            cfg.memory_envelope = 1; // everything is over-envelope
        });
        let (status, body) = server.request("POST", "/jobs", "gen:12x10x8:300:7 rank=3");
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("\"error\":\"overloaded\""), "{body}");
        assert!(body.contains("\"resource\":\"memory\""), "{body}");
        assert!(body.contains("\"envelope\":"), "{body}");
        let report = server.shutdown();
        assert_eq!(report.shed(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn draining_server_refuses_submits_but_serves_queries() {
        let (server, dir) = TestServer::start(|_| {});
        let (status, _) = server.request(
            "POST",
            "/jobs",
            "gen:12x10x8:300:7 rank=3 iters=4 tol=0 model=m",
        );
        assert_eq!(status, 200);
        server.wait_for_done(0);

        // Flip the drain signal, then verify behavior before shutdown
        // completes: reads still answer, writes are refused.
        server.stop.cancel();
        // Best-effort probe: if the listener is already gone (fully
        // drained) or the connection dies mid-request, that's a valid
        // shutdown ordering too — only a *successful* submit may not
        // answer anything but 503.
        if let Ok(mut stream) = TcpStream::connect(server.addr) {
            let req = b"POST /jobs HTTP/1.1\r\nContent-Length: 20\r\nConnection: close\r\n\r\ngen:4x4x4:8:1 rank=2";
            let mut response = String::new();
            if stream.write_all(req).is_ok()
                && stream.read_to_string(&mut response).is_ok()
                && !response.is_empty()
            {
                assert!(
                    response.starts_with("HTTP/1.1 503"),
                    "draining submit must 503: {response}"
                );
            }
        }
        let report = server.shutdown();
        assert_eq!(report.done(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_refit_marks_model_stale_and_keeps_serving() {
        let (server, dir) = TestServer::start(|_| {});
        let (status, _) = server.request(
            "POST",
            "/jobs",
            "gen:12x10x8:300:7 rank=3 iters=4 tol=0 model=m",
        );
        assert_eq!(status, 200);
        server.wait_for_done(0);

        // A refit under the same model name with an unloadable tensor
        // fails terminally — the model must degrade, not vanish.
        let (status, body) =
            server.request("POST", "/jobs", "bad:spec rank=3 model=m");
        // The loader runs at submit time, so this dies at admission
        // with a 400 — fall back to an engine-level failure instead:
        // rank 0 passes parsing but fails numerically.
        let _ = (status, body);
        let (status, body) = server.request(
            "POST",
            "/jobs",
            "gen:12x10x8:300:7 rank=0 iters=4 model=m",
        );
        if status == 200 {
            // Wait for the refit to fail, then the snapshot must be
            // stale but still answering with generation 1 data.
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                let (_, meta) = server.request("GET", "/models/m", "");
                if meta.contains("\"stale\":true") {
                    assert!(meta.contains("\"generation\":1"), "{meta}");
                    break;
                }
                assert!(Instant::now() < deadline, "model never went stale: {meta}");
                std::thread::sleep(Duration::from_millis(20));
            }
            let (status, row) = server.request("GET", "/models/m/factor/0/0", "");
            assert_eq!(status, 200, "{row}");
            assert!(row.contains("\"stale\":true"), "{row}");
        } else {
            assert_eq!(status, 400, "{body}");
        }
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn huge_content_length_is_rejected_before_allocation() {
        let (server, dir) = TestServer::start(|_| {});
        // u64::MAX parses as a valid usize on 64-bit targets; the cap
        // check must fire before the body buffer is allocated, or this
        // request aborts the process instead of answering 413.
        let mut stream = TcpStream::connect(server.addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(
                b"POST /jobs HTTP/1.1\r\nHost: t\r\n\
                  Content-Length: 18446744073709551615\r\n\r\n",
            )
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Reads one keep-alive response: headers to the blank line, then
    /// exactly `Content-Length` body bytes.
    fn read_one_response(stream: &mut TcpStream) -> String {
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            assert_eq!(stream.read(&mut byte).unwrap(), 1, "eof inside headers");
            head.push(byte[0]);
        }
        let head = String::from_utf8(head).unwrap();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length header")
            .trim()
            .parse()
            .unwrap();
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body).unwrap();
        head + &String::from_utf8(body).unwrap()
    }

    #[test]
    fn keep_alive_request_cap_closes_the_connection() {
        let (server, dir) = TestServer::start_with(|_| {}, |cfg| {
            cfg.max_requests_per_conn = 2;
        });
        let mut stream = TcpStream::connect(server.addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let req = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
        stream.write_all(req).unwrap();
        let first = read_one_response(&mut stream);
        assert!(first.contains("Connection: keep-alive"), "{first}");
        // The capped request answers `Connection: close` and the server
        // hangs up, so a slow-but-active client cannot hold a handler
        // thread forever.
        stream.write_all(req).unwrap();
        let mut rest = String::new();
        stream.read_to_string(&mut rest).unwrap();
        assert!(rest.starts_with("HTTP/1.1 200"), "{rest}");
        assert!(rest.contains("Connection: close"), "{rest}");
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn healthz_reports_draining_with_503() {
        let dir = tmp_dir("hz");
        let store = Arc::new(SnapshotStore::new());
        let mut scfg = SupervisorConfig::new(dir.join("serve.journal"), dir.join("ckpts"));
        scfg.on_outcome = Some(outcome_hook(Arc::clone(&store)));
        let sup = Arc::new(Supervisor::new(scfg, loader(), factory()).unwrap());
        let stop = CancelToken::new();
        let server =
            Server::bind(ServeConfig::new("127.0.0.1:0"), sup, store, stop.clone()).unwrap();
        let (status, body) = server.healthz();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"draining\":false"), "{body}");
        assert!(body.contains("\"queue_depth\":0"), "{body}");
        assert!(body.contains("\"snapshot_generations\":0"), "{body}");
        assert!(body.contains("\"uptime_s\":"), "{body}");
        stop.cancel();
        let (status, body) = server.healthz();
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("\"state\":\"draining\""), "{body}");
        assert!(body.contains("\"draining\":true"), "{body}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let (server, dir) = TestServer::start(|_| {});
        let (status, body) = server.request(
            "POST",
            "/jobs",
            "gen:12x10x8:300:7 rank=3 iters=4 tol=0 model=prom",
        );
        assert_eq!(status, 200, "{body}");
        server.wait_for_done(0);

        // Raw request so the Content-Type header stays visible.
        let mut stream = TcpStream::connect(server.addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(
            response.contains("Content-Type: text/plain; version=0.0.4"),
            "{response}"
        );
        let text = response.split("\r\n\r\n").nth(1).unwrap_or_default();
        let samples = crate::metrics::parse_prometheus_text(text).expect("valid exposition");
        let value = |name: &str| {
            samples
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.value)
                .sum::<f64>()
        };
        assert!(value("stef_uptime_seconds") > 0.0, "{text}");
        assert!(value("stef_snapshot_generations") >= 1.0, "{text}");
        // The wait_for_done poll loop above went through HTTP, so the
        // request counter must be hot by scrape time. (The registry is
        // process-global, so >= not ==: parallel tests also count.)
        assert!(value("stef_http_requests_total") >= 1.0, "{text}");
        assert!(value("stef_jobs_completed_total") >= 1.0, "{text}");
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stop_wakes_a_blocked_acceptor() {
        let dir = tmp_dir("wake");
        let store = Arc::new(SnapshotStore::new());
        let scfg = SupervisorConfig::new(dir.join("serve.journal"), dir.join("ckpts"));
        let sup = Arc::new(Supervisor::new(scfg, loader(), factory()).unwrap());
        let stop = CancelToken::new();
        // The unspecified address: the stop wake must connect to
        // loopback, and no client ever wakes the acceptor.
        let server = Arc::new(
            Server::bind(ServeConfig::new("0.0.0.0:0"), sup, store, stop.clone()).unwrap(),
        );
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = Arc::clone(&server);
        let thread = std::thread::spawn(move || {
            runner.run();
            let _ = tx.send(());
        });
        std::thread::sleep(Duration::from_millis(100));
        stop.cancel();
        rx.recv_timeout(Duration::from_secs(2))
            .expect("run() must return within 2 s of the stop");
        thread.join().unwrap();
        // The wake connection was dropped, not served.
        assert_eq!(server.stats.queries.load(Ordering::Relaxed), 0);
        assert_eq!(server.stats.busy_rejected.load(Ordering::Relaxed), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fresh_connection_reads_are_not_paced_by_a_poll() {
        let (server, dir) = TestServer::start(|_| {});
        let mut micros: Vec<u128> = (0..40)
            .map(|_| {
                let t = Instant::now();
                let (status, body) = server.request("GET", "/healthz", "");
                assert_eq!(status, 200, "{body}");
                t.elapsed().as_micros()
            })
            .collect();
        micros.sort_unstable();
        // A timer-polled acceptor makes each fresh connection wait out
        // most of its sleep (~5 ms); a blocking one answers in ~0.1 ms.
        assert!(
            micros[20] < 2000,
            "median fresh-connection read {} us: {micros:?}",
            micros[20]
        );
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn slash_in_model_name_is_reachable_via_percent_escapes() {
        let (server, dir) = TestServer::start(|_| {});
        let (status, body) = server.request(
            "POST",
            "/jobs",
            "gen:12x10x8:300:7 rank=3 iters=4 tol=0 model=demo/v1",
        );
        assert_eq!(status, 200, "{body}");
        server.wait_for_done(0);

        let (status, body) = server.request("GET", "/models/demo%2Fv1", "");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"model\":\"demo/v1\""), "{body}");
        let (status, body) = server.request("GET", "/models/demo%2Fv1/factor/0/0", "");
        assert_eq!(status, 200, "{body}");

        // Malformed escapes answer 400, not a confusing 404.
        let (status, _) = server.request("GET", "/models/%zz", "");
        assert_eq!(status, 400);
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
