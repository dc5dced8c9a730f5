//! Live telemetry endpoint for the ease.ml reproduction.
//!
//! `easeml-obs` captures what the multi-tenant scheduler is doing;
//! this crate makes that visible *while it happens* over plain HTTP/1.1 —
//! no external dependencies, just `std::net::TcpListener` and a thread per
//! connection. Five routes:
//!
//! | Route            | Content                                             |
//! |------------------|-----------------------------------------------------|
//! | `GET /healthz`   | `ok` (liveness probe)                               |
//! | `GET /metrics`   | Prometheus text format: event/counter/gauge values, |
//! |                  | per-component latency histograms, per-tenant regret |
//! | `GET /status`    | JSON scheduler snapshot pushed by the application   |
//! | `GET /trace`     | JSONL event trace; `?after=<seq>` tails only events |
//! |                  | with sequence number strictly greater than `seq`;   |
//! |                  | `?limit=<n>` caps the page at `n` events            |
//! | `GET /profile`   | Aggregated span call-tree profile as JSON, or with  |
//! |                  | `?format=folded` as Brendan-Gregg folded stacks     |
//! |                  | ready for `flamegraph.pl` / speedscope              |
//! | `GET /explain`   | Decision-health JSON: committed witness rounds,     |
//! |                  | censor/tie counts, margin distribution, per-path    |
//! |                  | tallies; `?round=<n>` serves one round's full       |
//! |                  | decision witness (scored users, scored arms, path)  |
//! | `GET /durability`| Write-ahead-log JSON pushed by the application:     |
//! |                  | append/fsync counters, latency quantiles, segment   |
//! |                  | position, replay totals (`{"enabled":false}` when   |
//! |                  | the run has no WAL attached)                        |
//!
//! The application side is a [`TelemetryHub`]: it owns the
//! [`InMemoryRecorder`] the scheduler writes through, optionally a
//! [`TimeSeriesRecorder`] for per-tenant
//! regret curves, and a status JSON slot the application refreshes whenever
//! convenient. [`TelemetryServer::serve`] binds an address (port 0 picks a
//! free port) and answers from the hub until dropped or
//! [`TelemetryServer::shutdown`] is called.
//!
//! ```no_run
//! use easeml_obs::InMemoryRecorder;
//! use easeml_obs_http::{TelemetryHub, TelemetryServer};
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(InMemoryRecorder::new());
//! let hub = Arc::new(TelemetryHub::new(recorder.clone()));
//! let server = TelemetryServer::serve("127.0.0.1:0", hub).unwrap();
//! println!("metrics at http://{}/metrics", server.local_addr());
//! // ... run the simulation, recording through `recorder` ...
//! drop(server); // unbinds and joins the accept loop
//! ```

mod http;
mod render;

use easeml_obs::{CallTreeProfile, InMemoryRecorder, JsonlFileSink, Profiler, TimeSeriesRecorder};
use parking_lot::Mutex;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use http::{parse_request_line, read_request, write_response, Request, Status};
pub use render::{
    render_explain_summary, render_metrics, render_metrics_full, RenderOptions,
    DEFAULT_PER_USER_CAP,
};

/// How long a connection may dribble its request in before being dropped.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// The shared state the telemetry endpoint serves from.
///
/// The hub is passive: the scheduler records through the wrapped
/// [`InMemoryRecorder`] (usually via a
/// [`TeeRecorder`](easeml_obs::TeeRecorder) that also feeds a file sink),
/// and each HTTP request renders whatever state exists at that instant.
pub struct TelemetryHub {
    recorder: Arc<InMemoryRecorder>,
    series: Option<Arc<TimeSeriesRecorder>>,
    profiler: Option<Arc<Profiler>>,
    sinks: Vec<(String, Arc<JsonlFileSink>)>,
    render_opts: RenderOptions,
    render_ns: AtomicU64,
    renders: AtomicU64,
    status_json: Mutex<String>,
    durability_json: Mutex<String>,
}

impl TelemetryHub {
    /// A hub serving metrics and traces from `recorder`.
    pub fn new(recorder: Arc<InMemoryRecorder>) -> Self {
        TelemetryHub {
            recorder,
            series: None,
            profiler: None,
            sinks: Vec::new(),
            render_opts: RenderOptions::default(),
            render_ns: AtomicU64::new(0),
            renders: AtomicU64::new(0),
            status_json: Mutex::new("{}".to_string()),
            durability_json: Mutex::new("{\"enabled\":false}".to_string()),
        }
    }

    /// Attaches a time-series recorder; `/metrics` then also exposes the
    /// per-tenant regret / cost / arm-pull families.
    pub fn with_series(mut self, series: Arc<TimeSeriesRecorder>) -> Self {
        self.series = Some(series);
        self
    }

    /// Registers a file sink whose byte/line/drop/rotation counters appear
    /// on `/metrics` as `easeml_sink_*{sink="<name>"}` families.
    pub fn with_sink_stats(mut self, name: impl Into<String>, sink: Arc<JsonlFileSink>) -> Self {
        self.sinks.push((name.into(), sink));
        self
    }

    /// Attaches a live [`Profiler`]; `/profile` then serves its online
    /// call tree. Without one, `/profile` folds the hub recorder's span
    /// events on demand — same tree, rebuilt per request.
    pub fn with_profiler(mut self, profiler: Arc<Profiler>) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// Overrides the default [`RenderOptions`] (e.g. the per-user
    /// cardinality cap for `easeml_user_*` families).
    pub fn with_render_options(mut self, opts: RenderOptions) -> Self {
        self.render_opts = opts;
        self
    }

    /// The recorder this hub serves from.
    pub fn recorder(&self) -> &Arc<InMemoryRecorder> {
        &self.recorder
    }

    /// The attached time-series recorder, if any.
    pub fn series(&self) -> Option<&Arc<TimeSeriesRecorder>> {
        self.series.as_ref()
    }

    /// Replaces the JSON document served at `/status`. The application
    /// pushes a fresh snapshot whenever convenient (e.g. once per round).
    pub fn set_status_json(&self, json: String) {
        *self.status_json.lock() = json;
    }

    /// Renders the `/metrics` payload. Each call also feeds the hub's own
    /// `easeml_telemetry_overhead_ns_total{component="http/render"}`
    /// self-accounting, so the cost of observing is itself observable.
    pub fn render_metrics(&self) -> String {
        let started = Instant::now();
        let snapshot = self.series.as_ref().map(|s| s.snapshot());
        let sink_stats: Vec<(String, easeml_obs::SinkStats)> = self
            .sinks
            .iter()
            .map(|(name, sink)| (name.clone(), sink.stats()))
            .collect();
        let render_self = (
            self.render_ns.load(Ordering::Relaxed),
            self.renders.load(Ordering::Relaxed),
        );
        let body = render::render_metrics_full(
            &self.recorder,
            snapshot.as_ref(),
            &sink_stats,
            render_self,
            &self.render_opts,
        );
        let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.render_ns.fetch_add(elapsed, Ordering::Relaxed);
        self.renders.fetch_add(1, Ordering::Relaxed);
        body
    }

    /// The current `/status` payload.
    pub fn status_json(&self) -> String {
        self.status_json.lock().clone()
    }

    /// Replaces the JSON document served at `/durability`. The application
    /// pushes `Durability::stats_json()` whenever convenient (e.g. after a
    /// checkpoint); the default payload is `{"enabled":false}`.
    pub fn set_durability_json(&self, json: String) {
        *self.durability_json.lock() = json;
    }

    /// The current `/durability` payload.
    pub fn durability_json(&self) -> String {
        self.durability_json.lock().clone()
    }

    /// Renders the `/trace` payload: events with sequence number strictly
    /// greater than `after`, as JSON Lines.
    pub fn render_trace_since(&self, after: u64) -> String {
        self.recorder.to_jsonl_since(after)
    }

    /// Like [`TelemetryHub::render_trace_since`], but returns at most
    /// `limit` events — the pagination contract behind `/trace?limit=`.
    pub fn render_trace_page(&self, after: u64, limit: usize) -> String {
        self.recorder.to_jsonl_since_capped(after, limit)
    }

    /// The call-tree profile behind `/profile`: the attached live
    /// [`Profiler`]'s snapshot, or an on-demand fold of the recorder's
    /// span events when none is attached.
    pub fn profile(&self) -> CallTreeProfile {
        match &self.profiler {
            Some(p) => p.snapshot(),
            None => CallTreeProfile::fold(&self.recorder.events()),
        }
    }

    /// One round's committed decision witness as JSON, or `None` when no
    /// `DecisionWitness` commit marker for that round has landed yet —
    /// a round whose score events are still streaming in is invisible
    /// here, never torn.
    pub fn explain_round(&self, round: u64) -> Option<String> {
        easeml_obs::witness_records(&self.recorder.events())
            .into_iter()
            .find(|r| r.round == round)
            .map(|r| r.to_json())
    }

    /// The `/explain` aggregate decision-health report over every
    /// committed witness round recorded so far.
    pub fn explain_summary(&self) -> String {
        render::render_explain_summary(&easeml_obs::witness_records(&self.recorder.events()))
    }

    /// Routes one parsed request to its response. Exposed for tests and
    /// for embedding the routing into another server.
    pub fn respond(&self, request: &Request) -> (Status, &'static str, String) {
        if request.method != "GET" {
            return (
                Status::MethodNotAllowed,
                "text/plain; charset=utf-8",
                "only GET is supported\n".to_string(),
            );
        }
        match request.path.as_str() {
            "/healthz" => (Status::Ok, "text/plain; charset=utf-8", "ok\n".to_string()),
            "/metrics" => (
                Status::Ok,
                "text/plain; version=0.0.4; charset=utf-8",
                self.render_metrics(),
            ),
            "/status" => (Status::Ok, "application/json", self.status_json()),
            "/durability" => (Status::Ok, "application/json", self.durability_json()),
            "/trace" => {
                let after = request.query_param("after").unwrap_or("0").parse::<u64>();
                let limit = request
                    .query_param("limit")
                    .map_or(Ok(usize::MAX), str::parse::<usize>);
                match (after, limit) {
                    (Ok(after), Ok(limit)) => (
                        Status::Ok,
                        "application/x-ndjson",
                        self.render_trace_page(after, limit),
                    ),
                    _ => (
                        Status::BadRequest,
                        "text/plain; charset=utf-8",
                        "after and limit must be unsigned integers\n".to_string(),
                    ),
                }
            }
            "/profile" => match request.query_param("format") {
                None | Some("json") => (Status::Ok, "application/json", self.profile().to_json()),
                Some("folded") => (
                    Status::Ok,
                    "text/plain; charset=utf-8",
                    self.profile().folded_stacks(),
                ),
                Some(_) => (
                    Status::BadRequest,
                    "text/plain; charset=utf-8",
                    "format must be json or folded\n".to_string(),
                ),
            },
            "/explain" => match request.query_param("round") {
                None => (Status::Ok, "application/json", self.explain_summary()),
                Some(raw) => match raw.parse::<u64>() {
                    Ok(round) => match self.explain_round(round) {
                        Some(body) => (Status::Ok, "application/json", body),
                        None => (
                            Status::NotFound,
                            "text/plain; charset=utf-8",
                            format!("no committed decision witness for round {round}\n"),
                        ),
                    },
                    Err(_) => (
                        Status::BadRequest,
                        "text/plain; charset=utf-8",
                        "round must be an unsigned integer\n".to_string(),
                    ),
                },
            },
            _ => (
                Status::NotFound,
                "text/plain; charset=utf-8",
                "unknown route; try /healthz, /metrics, /status, /trace, /profile, /explain, \
                 /durability\n"
                    .to_string(),
            ),
        }
    }
}

/// A running telemetry endpoint: an accept loop on its own thread, one
/// short-lived thread per connection.
///
/// Dropping the server shuts it down and joins the accept loop.
pub struct TelemetryServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// answering from `hub`.
    ///
    /// # Errors
    ///
    /// Returns the bind error, e.g. when the port is taken.
    pub fn serve(addr: impl ToSocketAddrs, hub: Arc<TelemetryHub>) -> io::Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = stop.clone();
        let accept_thread = std::thread::Builder::new()
            .name("easeml-telemetry".to_string())
            .spawn(move || accept_loop(&listener, &accept_stop, &hub))?;
        Ok(TelemetryServer {
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting connections and joins the accept loop. Idempotent;
    /// also called on drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, stop: &AtomicBool, hub: &Arc<TelemetryHub>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let hub = hub.clone();
        // Connection threads are detached: each serves one request with a
        // read timeout and exits, so none outlives the server by long.
        let _ = std::thread::Builder::new()
            .name("easeml-telemetry-conn".to_string())
            .spawn(move || handle_connection(stream, &hub));
    }
}

fn handle_connection(mut stream: TcpStream, hub: &TelemetryHub) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let (status, content_type, body) = match http::read_request(&mut stream) {
        Ok(request) => hub.respond(&request),
        Err(_) => (
            Status::BadRequest,
            "text/plain; charset=utf-8",
            "malformed request\n".to_string(),
        ),
    };
    let _ = http::write_response(&mut stream, status, content_type, &body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeml_obs::{Event, Recorder};
    use std::io::{Read, Write};

    fn get(addr: SocketAddr, target: &str) -> (String, String) {
        raw(addr, &format!("GET {target} HTTP/1.1"))
    }

    fn raw(addr: SocketAddr, request_line: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "{request_line}\r\nHost: t\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    fn sample_hub() -> Arc<TelemetryHub> {
        let recorder = Arc::new(InMemoryRecorder::new());
        for arm in 0..4usize {
            recorder.record(Event::TrainingCompleted {
                user: arm % 2,
                model: arm,
                cost: 1.0,
                quality: 0.5 + 0.1 * arm as f64,
                parent: 0,
            });
        }
        let series = Arc::new(TimeSeriesRecorder::new());
        for event in recorder.events() {
            series.fold(&event);
        }
        let hub = Arc::new(TelemetryHub::new(recorder).with_series(series));
        hub.set_status_json("{\"elapsed_cost\":4.0}".to_string());
        hub
    }

    #[test]
    fn endpoints_answer_over_real_tcp() {
        let hub = sample_hub();
        let server = TelemetryServer::serve("127.0.0.1:0", hub).unwrap();
        let addr = server.local_addr();

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        assert!(body.contains("easeml_events_total 4"), "{body}");
        assert!(body.contains("easeml_user_regret{user=\"0\"}"), "{body}");

        let (head, body) = get(addr, "/status");
        assert!(head.contains("application/json"), "{head}");
        assert_eq!(body, "{\"elapsed_cost\":4.0}");

        let (_, body) = get(addr, "/trace");
        assert_eq!(body.lines().count(), 4);

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    }

    #[test]
    fn malformed_requests_fail_clean_with_4xx() {
        let hub = sample_hub();
        let server = TelemetryServer::serve("127.0.0.1:0", hub).unwrap();
        let addr = server.local_addr();

        // Unknown paths (including sub-paths of real routes) are 404 with
        // the route hint, never a hang or a connection drop.
        for path in ["/nope", "/trace/tail", "/metrics/raw", "/Trace"] {
            let (head, body) = get(addr, path);
            assert!(head.starts_with("HTTP/1.1 404"), "{path}: {head}");
            assert!(body.contains("unknown route"), "{path}: {body}");
        }

        // Bad ?after= / ?limit= values: empty, negative, non-numeric, and
        // past-u64/usize overflow all map to the same clean 400.
        for target in [
            "/trace?after=",
            "/trace?after=-1",
            "/trace?after=xyz",
            "/trace?after=18446744073709551616",
            "/trace?limit=",
            "/trace?limit=-2",
            "/trace?limit=abc",
            "/trace?limit=99999999999999999999999999",
            "/trace?after=1&limit=",
        ] {
            let (head, body) = get(addr, target);
            assert!(head.starts_with("HTTP/1.1 400"), "{target}: {head}");
            assert!(body.contains("unsigned integers"), "{target}: {body}");
        }

        // Bad ?round= values on /explain: same contract.
        for target in [
            "/explain?round=",
            "/explain?round=-1",
            "/explain?round=abc",
            "/explain?round=18446744073709551616",
        ] {
            let (head, body) = get(addr, target);
            assert!(head.starts_with("HTTP/1.1 400"), "{target}: {head}");
            assert!(body.contains("unsigned integer"), "{target}: {body}");
        }

        // Non-GET methods are 405; a garbage request line is 400.
        let (head, body) = raw(addr, "POST /trace HTTP/1.1");
        assert!(head.starts_with("HTTP/1.1 405"), "{head}");
        assert!(body.contains("only GET"), "{body}");
        let (head, body) = raw(addr, "BLAH");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
        assert!(body.contains("malformed request"), "{body}");

        // After the malformed burst the server still answers cleanly.
        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");
    }

    #[test]
    fn durability_route_serves_the_pushed_stats() {
        let hub = sample_hub();
        let server = TelemetryServer::serve("127.0.0.1:0", hub.clone()).unwrap();
        let addr = server.local_addr();

        // Before any push: the disabled default, still valid JSON.
        let (head, body) = get(addr, "/durability");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        assert_eq!(body, "{\"enabled\":false}");

        hub.set_durability_json("{\"enabled\":true,\"appends\":12}".to_string());
        let (_, body) = get(addr, "/durability");
        assert_eq!(body, "{\"enabled\":true,\"appends\":12}");

        // The 404 hint advertises the route.
        let (_, body) = get(addr, "/nope");
        assert!(body.contains("/durability"), "{body}");
    }

    #[test]
    fn trace_after_returns_only_newer_events() {
        let hub = sample_hub();
        let server = TelemetryServer::serve("127.0.0.1:0", hub.clone()).unwrap();
        let addr = server.local_addr();

        let (_, body) = get(addr, "/trace?after=3");
        assert_eq!(body.lines().count(), 1);
        let event = Event::from_json(body.lines().next().unwrap()).unwrap();
        assert!(matches!(event, Event::TrainingCompleted { model: 3, .. }));

        let (_, body) = get(addr, "/trace?after=4");
        assert_eq!(body, "");
        // A cursor past the end stays empty rather than erroring.
        let (head, body) = get(addr, "/trace?after=999");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "");

        let (head, _) = get(addr, "/trace?after=-1");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
        let (head, _) = get(addr, "/trace?after=xyz");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    }

    #[test]
    fn trace_limit_pages_through_the_stream() {
        let hub = sample_hub();
        let server = TelemetryServer::serve("127.0.0.1:0", hub).unwrap();
        let addr = server.local_addr();

        let (head, body) = get(addr, "/trace?limit=2");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body.lines().count(), 2);
        // Next page: resume after the last seq of the previous one.
        let (_, body) = get(addr, "/trace?after=2&limit=2");
        assert_eq!(body.lines().count(), 2);
        let event = Event::from_json(body.lines().next().unwrap()).unwrap();
        assert!(matches!(event, Event::TrainingCompleted { model: 2, .. }));
        // Past the end: empty page, not an error.
        let (head, body) = get(addr, "/trace?after=4&limit=2");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "");
        // limit=0 is a valid (empty) page; garbage is rejected.
        let (_, body) = get(addr, "/trace?limit=0");
        assert_eq!(body, "");
        let (head, _) = get(addr, "/trace?limit=-2");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
        let (head, _) = get(addr, "/trace?limit=abc");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    }

    #[test]
    fn sink_and_render_self_accounting_flow_to_metrics() {
        let dir = std::env::temp_dir().join(format!("easeml-hub-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let sink = Arc::new(easeml_obs::JsonlFileSink::create(&path).unwrap());
        let recorder = Arc::new(InMemoryRecorder::new());
        let tee = easeml_obs::TeeRecorder::new(recorder.clone()).with_sink(sink.clone());
        for arm in 0..3usize {
            tee.record(Event::TrainingCompleted {
                user: arm,
                model: arm,
                cost: 1.0,
                quality: 0.7,
                parent: 0,
            });
        }
        let hub = Arc::new(TelemetryHub::new(recorder).with_sink_stats("trace", sink));
        let server = TelemetryServer::serve("127.0.0.1:0", hub).unwrap();
        let addr = server.local_addr();

        let (_, body) = get(addr, "/metrics");
        assert!(
            body.contains("easeml_sink_lines_total{sink=\"trace\"} 3"),
            "{body}"
        );
        assert!(
            body.contains("easeml_sink_dropped_total{sink=\"trace\"} 0"),
            "{body}"
        );
        assert!(
            body.contains("easeml_sink_rotations_total{sink=\"trace\"} 0"),
            "{body}"
        );
        // The first render reports zero renders; the second sees the first.
        let (_, body) = get(addr, "/metrics");
        assert!(body.contains("easeml_telemetry_renders_total 1"), "{body}");
        assert!(
            body.contains("easeml_telemetry_overhead_ns_total{component=\"http/render\"}"),
            "{body}"
        );
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_endpoint_serves_folded_and_json_trees() {
        // Without an attached profiler the hub folds the recorder's span
        // events on demand.
        let recorder = Arc::new(InMemoryRecorder::new());
        let handle = easeml_obs::RecorderHandle::new(recorder.clone());
        for _ in 0..2 {
            let _step = handle.span("scheduler_step");
            let _pick = handle.span("pick_user");
        }
        let hub = Arc::new(TelemetryHub::new(recorder));
        let server = TelemetryServer::serve("127.0.0.1:0", hub).unwrap();
        let addr = server.local_addr();

        let (head, body) = get(addr, "/profile");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        assert!(body.contains("\"schema\":\"easeml-profile\""), "{body}");
        assert!(body.contains("\"name\":\"pick_user\""), "{body}");
        assert!(body.contains("\"closed_spans\":4"), "{body}");

        let (head, body) = get(addr, "/profile?format=folded");
        assert!(head.contains("text/plain"), "{head}");
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2, "{body}");
        assert!(lines[0].starts_with("scheduler_step "), "{body}");
        assert!(lines[1].starts_with("scheduler_step;pick_user "), "{body}");

        let (head, _) = get(addr, "/profile?format=ascii-art");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    }

    #[test]
    fn profile_endpoint_prefers_the_attached_live_profiler() {
        // A live profiler sees spans that never reach the hub's recorder
        // (here: spans through a noop handle).
        let profiler = Arc::new(easeml_obs::Profiler::new());
        assert!(easeml_obs::set_global_profiler(Some(profiler.clone())).is_none());
        let noop = easeml_obs::RecorderHandle::noop();
        for _ in 0..3 {
            let _step = noop.span("scheduler_step");
            let _train = noop.span("train");
        }
        easeml_obs::set_global_profiler(None);

        let hub =
            Arc::new(TelemetryHub::new(Arc::new(InMemoryRecorder::new())).with_profiler(profiler));
        let server = TelemetryServer::serve("127.0.0.1:0", hub).unwrap();
        let (_, body) = get(server.local_addr(), "/profile?format=folded");
        assert!(body.contains("scheduler_step;train "), "{body}");
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let hub = sample_hub();
        let server = TelemetryServer::serve("127.0.0.1:0", hub).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
    }

    #[test]
    fn shutdown_is_idempotent_and_unbinds() {
        let hub = sample_hub();
        let mut server = TelemetryServer::serve("127.0.0.1:0", hub).unwrap();
        let addr = server.local_addr();
        server.shutdown();
        server.shutdown();
        // The port is released: binding it again succeeds.
        let listener = TcpListener::bind(addr);
        assert!(listener.is_ok(), "{listener:?}");
    }

    /// Emits one complete witness chain — two `UserScored`, one
    /// `ArmScored`, then the `DecisionWitness` commit marker — for `round`.
    fn emit_witness_chain(recorder: &InMemoryRecorder, round: u64, censored: bool) {
        for rank in 0..2u64 {
            recorder.record(Event::UserScored {
                round,
                user: rank as usize,
                score: 1.0 - 0.3 * rank as f64,
                rank,
                candidate: true,
                parent: 0,
            });
        }
        recorder.record(Event::ArmScored {
            round,
            user: 0,
            arm: 2,
            mean: 0.6,
            sigma: 0.1,
            ucb: 0.8,
            rank: 0,
            masked: false,
            parent: 0,
        });
        recorder.record(Event::DecisionWitness {
            round,
            user: 0,
            arm: 2,
            user_margin: 0.3,
            arm_margin: 0.1,
            path: "greedy(max-gap)".to_string(),
            fallback: if censored {
                "crash".to_string()
            } else {
                String::new()
            },
            censored,
            candidates: 2,
            digest: format!("{round:016x}"),
            parent: 0,
        });
    }

    /// Looks up a key in a parsed JSON object.
    fn field<'a>(value: &'a easeml_obs::json::Json, key: &str) -> &'a easeml_obs::json::Json {
        let fields = easeml_obs::json::as_object(value, key).unwrap();
        easeml_obs::json::get(fields, key).unwrap()
    }

    #[test]
    fn explain_serves_committed_rounds_and_the_health_summary() {
        let recorder = Arc::new(InMemoryRecorder::new());
        emit_witness_chain(&recorder, 0, false);
        emit_witness_chain(&recorder, 1, true);
        // A torn round: scores landed, commit marker never did.
        recorder.record(Event::UserScored {
            round: 2,
            user: 0,
            score: 0.5,
            rank: 0,
            candidate: false,
            parent: 0,
        });
        let hub = Arc::new(TelemetryHub::new(recorder));
        let server = TelemetryServer::serve("127.0.0.1:0", hub).unwrap();
        let addr = server.local_addr();

        let (head, body) = get(addr, "/explain?round=1");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        let round = easeml_obs::json::parse(&body).unwrap();
        assert_eq!(field(&round, "round"), &easeml_obs::json::Json::Number(1.0));
        assert_eq!(
            field(&round, "censored"),
            &easeml_obs::json::Json::Bool(true)
        );
        assert_eq!(
            field(&round, "fallback"),
            &easeml_obs::json::Json::String("crash".to_string())
        );
        match field(&round, "top_users") {
            easeml_obs::json::Json::Array(users) => assert_eq!(users.len(), 2, "{body}"),
            other => panic!("top_users should be an array, got {other:?}"),
        }

        // The torn round is invisible, not half-rendered.
        let (head, _) = get(addr, "/explain?round=2");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        let (head, _) = get(addr, "/explain?round=abc");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");

        let (head, body) = get(addr, "/explain");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let summary = easeml_obs::json::parse(&body).unwrap();
        assert_eq!(
            field(&summary, "rounds"),
            &easeml_obs::json::Json::Number(2.0)
        );
        assert_eq!(
            field(&summary, "censored"),
            &easeml_obs::json::Json::Number(1.0)
        );
        assert_eq!(
            field(&summary, "last_digest"),
            &easeml_obs::json::Json::String(format!("{:016x}", 1))
        );
        match field(&summary, "fallbacks") {
            easeml_obs::json::Json::Array(kinds) => {
                assert_eq!(
                    field(&kinds[0], "kind"),
                    &easeml_obs::json::Json::String("crash".to_string())
                );
            }
            other => panic!("fallbacks should be an array, got {other:?}"),
        }
    }

    #[test]
    fn profile_and_explain_stay_well_formed_under_concurrent_scrapes() {
        let recorder = Arc::new(InMemoryRecorder::new());
        let hub = Arc::new(TelemetryHub::new(recorder.clone()));
        let server = TelemetryServer::serve("127.0.0.1:0", hub).unwrap();
        let addr = server.local_addr();
        let writer = std::thread::spawn(move || {
            let handle = easeml_obs::RecorderHandle::new(recorder.clone());
            for round in 0..150u64 {
                let _step = handle.span("scheduler_step");
                emit_witness_chain(&recorder, round, round % 7 == 0);
            }
        });
        for _ in 0..8 {
            // Every mid-write scrape must parse, and every round the
            // summary counts must itself be fully committed (no torn
            // witnesses): chains commit in round order here, so `rounds`
            // committed implies round `rounds - 1` is servable and whole.
            let (head, body) = get(addr, "/profile");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            easeml_obs::json::parse(&body).unwrap();
            let (head, body) = get(addr, "/explain");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            let summary = easeml_obs::json::parse(&body).unwrap();
            let committed = match field(&summary, "rounds") {
                easeml_obs::json::Json::Number(n) => *n as u64,
                other => panic!("rounds should be a number, got {other:?}"),
            };
            if committed == 0 {
                continue;
            }
            let (head, body) = get(addr, &format!("/explain?round={}", committed - 1));
            assert!(head.starts_with("HTTP/1.1 200"), "{head} {body}");
            let witness = easeml_obs::json::parse(&body).unwrap();
            match field(&witness, "top_users") {
                easeml_obs::json::Json::Array(users) => assert_eq!(users.len(), 2, "{body}"),
                other => panic!("top_users should be an array, got {other:?}"),
            }
        }
        writer.join().unwrap();
        // After the writer drains, all 150 rounds are committed.
        let (_, body) = get(addr, "/explain");
        let summary = easeml_obs::json::parse(&body).unwrap();
        assert_eq!(
            field(&summary, "rounds"),
            &easeml_obs::json::Json::Number(150.0)
        );
    }

    #[test]
    fn metrics_render_while_recording_concurrently() {
        let recorder = Arc::new(InMemoryRecorder::new());
        let hub = Arc::new(TelemetryHub::new(recorder.clone()));
        let server = TelemetryServer::serve("127.0.0.1:0", hub).unwrap();
        let addr = server.local_addr();
        let writer = std::thread::spawn(move || {
            for i in 0..200usize {
                recorder.record(Event::PosteriorUpdated {
                    arm: i % 8,
                    reward: 0.5,
                    num_obs: i + 1,
                    cond: 1.0,
                    parent: 0,
                });
            }
        });
        for _ in 0..5 {
            let (head, body) = get(addr, "/metrics");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            assert!(body.contains("easeml_events_total"), "{body}");
        }
        writer.join().unwrap();
        let (_, body) = get(addr, "/trace?after=190");
        assert_eq!(body.lines().count(), 10);
    }
}
