//! End-to-end and per-layer benchmark of the ease.ml reproduction.
//!
//! Three workloads, each run in its own process as a closed loop with one
//! caller on one thread — a decision is requested when a device frees up,
//! and that device waits for the reply:
//!
//! * `closed-wide` — GREEDY max-UCB-gap over 10,000 tenants × 20 arms on the
//!   execution engine with one device and a write-ahead log; a checkpoint
//!   after the timed decisions, a crash, and `recover_engine`;
//! * `open-deep` — HYBRID over 16 tenants × 100 arms on a 4-device fleet
//!   with GP-BUCB, seeded Poisson arrivals with tenant churn and seeded
//!   faults, driven by `ReplayDriver::step`; recovery is checkpoint decode,
//!   restore and re-driving to the crash point;
//! * `service` — the `EaseMl` facade with 200 DSL-registered tenants,
//!   faults and retries, a `TeeRecorder` of an in-memory recorder and an
//!   aggregate time-series fold, periodic checkpoints and `/metrics`
//!   renders inside the loop, and a mid-session crash and `EaseMl::recover`.
//!
//! A run measures several sessions, each in a fresh process: session `k`
//! draws its own instance from the seed, builds it several times from
//! scratch, runs the timed loop, crashes and recovers. The run reports
//! medians across sessions (regret: the mean over the instances). With
//! `--trace 1` the run measures session 0 under the span profiler and the
//! counting allocator and reports per-layer figures instead; end-to-end
//! runs are never traced.

pub mod closed_wide;
pub mod open_deep;
pub mod service;

use easeml::durability::Durability;
use easeml_obs::json::Json;
use easeml_obs::{CallTreeProfile, Profiler};
use easeml_wal::{FsyncPolicy, WalOptions};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["closed-wide", "open-deep", "service"];

/// End-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("decisions_per_s", "1/s"),
    ("decision_p50_ms", "ms"),
    ("decision_tail_ms", "ms"),
    ("recover_ms", "ms"),
    ("regret", "sim"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every workload reports with `--trace 1`. A layer a
/// workload bypasses reads 0. Times and allocation counts marked "per
/// decision" are totals over the timed session divided by its decisions.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("sched.pick_user_us", "us"),
    ("sched.pick_user_allocs", "count"),
    ("bandit.pick_arm_us", "us"),
    ("bandit.pick_arm_allocs", "count"),
    ("exec.complete_us", "us"),
    ("exec.dispatch_us", "us"),
    ("gp.posterior_update_us", "us"),
    ("gp.posterior_update_allocs", "count"),
    ("core.step_self_us", "us"),
    ("core.train_us", "us"),
    ("core.witness_us", "us"),
    ("wal.appends_per_decision", "count"),
    ("wal.bytes_per_decision", "B"),
    ("wal.fsyncs", "count"),
    ("core.checkpoint_write_ms", "ms"),
    ("core.checkpoint_bytes", "B"),
    ("obs.fold_us", "us"),
    ("obs.events_per_decision", "count"),
    ("obs.snapshot_ms", "ms"),
    ("obs-http.render_ms", "ms"),
    ("obs-http.body_bytes", "B"),
    ("obs.json_parse_ms", "ms"),
    ("core.restore_ms", "ms"),
    ("core.replay_ms", "ms"),
    ("core.replayed_rounds", "count"),
    ("wal.read_log_ms", "ms"),
    ("data.generate_ms", "ms"),
    ("exec.warmup_ms", "ms"),
    ("workload.script_ms", "ms"),
    ("dsl.register_us", "us"),
    ("exec.device_utilization", "ratio"),
    ("exec.queue_delay_p50_sim", "sim"),
    ("trace.overhead_pct", "%"),
    ("attr.pick_user_pct", "%"),
    ("attr.pick_arm_pct", "%"),
    ("attr.posterior_update_pct", "%"),
    ("attr.dispatch_pct", "%"),
    ("attr.complete_pct", "%"),
    ("attr.train_pct", "%"),
    ("attr.witness_pct", "%"),
    ("attr.step_self_pct", "%"),
];

/// Spans the program emits whose self time the attribution rows report.
const SPANS: [&str; 7] = [
    "pick_user",
    "pick_arm",
    "posterior_update",
    "dispatch",
    "complete",
    "train",
    "witness",
];

/// Command-line options shared by both binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Target measuring time of the run; session sizes scale with it.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
    /// Run only session `k` and print its figures as one `SESSION` line
    /// (`--session k`) — how a run measures each session in a fresh
    /// process.
    pub session: Option<usize>,
}

impl Args {
    /// Sessions this process measures: session `k` alone with
    /// `--session k`, the first one when traced, else all `count`.
    pub fn session_range(&self, count: usize) -> std::ops::Range<usize> {
        match self.session {
            Some(k) => k..k + 1,
            None if self.trace => 0..1,
            None => 0..count,
        }
    }

    /// Parses `--workload W --seed N --seconds S --trace 0|1`, plus an
    /// optional `--session K`.
    ///
    /// # Errors
    ///
    /// A message naming the bad or missing argument.
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut session = None;
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                "--session" => session = Some(value.parse::<usize>().map_err(|e| bad(&e))?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
            ));
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
            session,
        })
    }
}

/// Seed of a run's `k`-th session. Each session measures its own instance
/// drawn from the run's seed, so a run's figures average over several
/// instances and the same seed always yields the same instances.
pub(crate) fn instance_seed(seed: u64, k: usize) -> u64 {
    easeml_wal::splitmix64(seed ^ easeml_wal::splitmix64(k as u64))
}

// ---------------------------------------------------------------- statistics

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default "exclusive" method). Needs at least two values.
fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: i64| {
        let m = n as i64 + 1;
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median — the run-to-run spread
/// the acceptance rule uses. 0 for fewer than two values or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let mid = median(values);
    match quartiles(values) {
        Some((q1, q3)) if mid != 0.0 => (q3 - q1) / mid.abs(),
        _ => 0.0,
    }
}

/// Nearest-rank quantile of an ascending slice.
fn rank_quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The highest of p50/p90/p99 that leaves at least ten samples beyond it
/// (p99 from 1,000 samples on); returns `(percentile, value)`. The ladder
/// stops at p99: a p99.9 read from a session's few dozen slowest calls
/// moved by a quarter between runs of the same code.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (50.0, 0.0);
    }
    let mut best = 0.5;
    for q in [0.9, 0.99] {
        let rank = (q * n as f64).ceil() as usize;
        if n.saturating_sub(rank) >= 10 {
            best = q;
        }
    }
    (best * 100.0, rank_quantile(&v, best))
}

/// `VmHWM` of this process, in MiB.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds since `start`.
pub(crate) fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

// ------------------------------------------------------------ session clock

/// Times every decision call of one session from outside, plus the wall
/// time of whatever else the loop does between calls (checkpoints,
/// scrapes), so throughput counts the in-loop work and latency does not.
pub struct DecisionClock {
    start: Instant,
    /// Session-relative start of each decision call, seconds.
    starts: Vec<f64>,
    /// Wall time of each decision call, milliseconds.
    latencies: Vec<f64>,
    /// Training runs dispatched by each decision call.
    dispatched: Vec<u64>,
    /// Wall time spent in excluded work (recovery), seconds.
    excluded: f64,
    end: Option<f64>,
}

impl Default for DecisionClock {
    fn default() -> Self {
        Self::new()
    }
}

impl DecisionClock {
    /// Starts the session clock.
    pub fn new() -> Self {
        DecisionClock {
            start: Instant::now(),
            starts: Vec::new(),
            latencies: Vec::new(),
            dispatched: Vec::new(),
            excluded: 0.0,
            end: None,
        }
    }

    /// Times one decision call; `call` returns its result and how many
    /// training runs it dispatched.
    pub fn time<T>(&mut self, call: impl FnOnce() -> (T, u64)) -> T {
        let t0 = Instant::now();
        let (out, runs) = call();
        let elapsed = t0.elapsed();
        self.starts
            .push(t0.duration_since(self.start).as_secs_f64() - self.excluded);
        self.latencies.push(elapsed.as_secs_f64() * 1e3);
        self.dispatched.push(runs);
        out
    }

    /// Runs work that is not part of the session (a crash recovery) and
    /// keeps its wall time out of the throughput windows.
    pub fn exclude<T>(&mut self, work: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = work();
        self.excluded += t0.elapsed().as_secs_f64();
        out
    }

    /// Closes the session; later calls are not part of it.
    pub fn stop(&mut self) {
        self.end = Some(self.start.elapsed().as_secs_f64() - self.excluded);
    }

    /// Decision calls timed.
    pub fn decisions(&self) -> usize {
        self.latencies.len()
    }

    /// Training runs dispatched over the session.
    pub fn dispatched(&self) -> u64 {
        self.dispatched.iter().sum()
    }

    /// Sum of the decision calls' wall time, milliseconds.
    pub fn decision_ms(&self) -> f64 {
        self.latencies.iter().sum()
    }

    /// Per-call latencies, milliseconds.
    pub fn latencies(&self) -> &[f64] {
        &self.latencies
    }

    /// Dispatched runs per wall second: the median over ten windows of
    /// equal decision count, each window's wall time running from its
    /// first call to the next window's first call (so the in-loop work
    /// between calls counts). The median keeps one disk or scheduler stall
    /// from moving the figure.
    pub fn rate(&self) -> f64 {
        let n = self.starts.len();
        let end = self
            .end
            .unwrap_or_else(|| self.start.elapsed().as_secs_f64() - self.excluded);
        let windows = n.min(10);
        let mut rates = Vec::with_capacity(windows);
        for w in 0..windows {
            let (a, b) = (w * n / windows, (w + 1) * n / windows);
            let t_end = if b < n { self.starts[b] } else { end };
            let runs: u64 = self.dispatched[a..b].iter().sum();
            let wall = t_end - self.starts[a];
            if wall > 0.0 {
                rates.push(runs as f64 / wall);
            }
        }
        median(&rates)
    }
}

// ----------------------------------------------------------------- checks

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Operations attempted (decision calls, recoveries, checkpoint
    /// writes, scrapes and output checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Messages of the first failures.
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }

    /// Counts `n` operations that all succeeded.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Folds another tally in.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }
}

/// Two regret figures agree to within floating-point summation order.
pub(crate) fn same_regret(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Checks an execution-engine trace and returns its regret: the fleet
/// conserves slot-time (Σ busy + Σ idle = capacity × makespan), and the
/// regret `SimTrace::replay_regret` gives equals a [`RegretTally`] of the
/// same completions.
pub(crate) fn check_exec_trace(
    trace: &easeml_exec::ExecTrace,
    mu_stars: Vec<f64>,
    checks: &mut Checks,
) -> f64 {
    let slots: f64 = trace.device_busy.iter().chain(&trace.device_idle).sum();
    let capacity = trace.capacity as f64 * trace.makespan;
    checks.check((slots - capacity).abs() <= 1e-9 * capacity.max(1.0), || {
        format!("busy + idle {slots} != capacity x makespan {capacity}")
    });
    let mut tally = RegretTally::new(&mu_stars);
    let library = trace.sim.replay_regret(mu_stars).cumulative();
    for e in &trace.sim.events {
        tally.complete(e.user, e.quality, e.cost);
    }
    checks.check(same_regret(library, tally.total()), || {
        format!(
            "regret {library} from SimTrace::replay_regret != {} recomputed",
            tally.total()
        )
    });
    library
}

/// Busy slot-time over capacity × makespan.
pub(crate) fn busy_share(trace: &easeml_exec::ExecTrace) -> f64 {
    let capacity = trace.capacity as f64 * trace.makespan;
    if capacity > 0.0 {
        trace.device_busy.iter().sum::<f64>() / capacity
    } else {
        0.0
    }
}

/// Cumulative multi-tenant regret recomputed from completions in O(1) per
/// completion — the independent check of
/// [`easeml_sched::MultiTenantRegret`]: every completion adds its cost
/// times the sum over tenants of μ* minus the quality the tenant runs now
/// (0 before its first completion).
pub(crate) struct RegretTally {
    running: Vec<f64>,
    gap_sum: f64,
    total: f64,
}

impl RegretTally {
    /// A tally over tenants with best achievable qualities `mu_stars`.
    pub fn new(mu_stars: &[f64]) -> Self {
        RegretTally {
            running: vec![0.0; mu_stars.len()],
            gap_sum: mu_stars.iter().sum(),
            total: 0.0,
        }
    }

    /// Folds one completion.
    pub fn complete(&mut self, user: usize, quality: f64, cost: f64) {
        self.gap_sum += self.running[user] - quality;
        self.running[user] = quality;
        self.total += cost * self.gap_sum;
    }

    /// Cumulative regret so far.
    pub fn total(&self) -> f64 {
        self.total
    }
}

// ----------------------------------------------------------- scratch space

/// A per-process scratch directory under the working directory, removed
/// on drop. WAL segments and checkpoints live here, inside the checkout.
pub(crate) struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Creates `.bench_scratch/<tag>-<pid>` under the working directory.
    ///
    /// # Panics
    ///
    /// When the directory cannot be created.
    pub fn new(tag: &str) -> Scratch {
        let root = PathBuf::from(".bench_scratch").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create the scratch directory");
        Scratch { root }
    }

    /// A path inside the scratch root.
    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            // Removes `.bench_scratch` itself once no other run uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Copies every file of `from` into a fresh `to` — an untouched copy of a
/// crashed log for one recovery.
///
/// # Panics
///
/// On filesystem errors.
pub(crate) fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create the copy directory");
    for entry in std::fs::read_dir(from).expect("read the source directory") {
        let entry = entry.expect("directory entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy a file");
    }
}

/// The number at `path` (a chain of object keys) in a parsed document.
pub(crate) fn json_number_at(doc: &Json, path: &[&str]) -> Option<f64> {
    let mut node = doc;
    for key in path {
        let Json::Object(pairs) = node else {
            return None;
        };
        node = &pairs.iter().find(|(k, _)| k == key)?.1;
    }
    match node {
        Json::Number(v) => Some(*v),
        _ => None,
    }
}

/// A WAL that never fsyncs on append and never rotates on size: the log
/// sits in the working directory on whatever disk it has, so appends are
/// timed against the page cache, and the syncs that remain (checkpoint
/// barriers, between decisions) are counted rather than timed inside a
/// decision call.
///
/// # Panics
///
/// When the log cannot be opened.
pub(crate) fn open_wal(dir: &Path) -> Durability {
    Durability::open(
        dir,
        WalOptions {
            segment_bytes: 1 << 30,
            fsync: FsyncPolicy::Never,
        },
    )
    .expect("open the write-ahead log")
}

/// Counters read back from `Durability::stats_json`.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WalStats {
    /// Records appended.
    pub appends: f64,
    /// Bytes appended.
    pub bytes: f64,
    /// Explicit syncs issued by the log writer.
    pub fsyncs: f64,
}

impl WalStats {
    /// Parses the stats document; zeros when the log is disabled.
    pub fn parse(json: &str) -> WalStats {
        let Ok(doc) = easeml_obs::json::parse(json) else {
            return WalStats::default();
        };
        let get = |key: &str| json_number_at(&doc, &[key]).unwrap_or(0.0);
        WalStats {
            appends: get("appends"),
            bytes: get("append_bytes"),
            fsyncs: get("fsyncs"),
        }
    }

    /// Sums two writers' counters (before and after a recovery).
    pub fn add(self, other: WalStats) -> WalStats {
        WalStats {
            appends: self.appends + other.appends,
            bytes: self.bytes + other.bytes,
            fsyncs: self.fsyncs + other.fsyncs,
        }
    }
}

// ------------------------------------------------------------------ tracing

/// The traced run's span profiler, installed process-wide for the timed
/// session only.
pub(crate) struct Tracer {
    profiler: Arc<Profiler>,
}

impl Tracer {
    /// Installs a fresh global profiler.
    pub fn install() -> Tracer {
        let profiler = Arc::new(Profiler::new());
        easeml_obs::set_global_profiler(Some(profiler.clone()));
        Tracer { profiler }
    }

    /// Uninstalls the profiler and returns what it folded.
    pub fn finish(self) -> CallTreeProfile {
        easeml_obs::set_global_profiler(None);
        self.profiler.snapshot()
    }
}

/// Self time and self-attributed allocations per span name.
#[derive(Debug, Default, Clone)]
pub(crate) struct Attribution {
    /// Span name → (self ns, self allocations, calls).
    pub spans: BTreeMap<String, (u64, u64, u64)>,
    /// Wall time of the timed decision calls, ns.
    pub decision_ns: f64,
    /// Decision calls timed.
    pub decisions: f64,
}

impl Attribution {
    /// Folds a profile against the decisions it covered.
    pub fn new(profile: &CallTreeProfile, decision_ms: f64, decisions: usize) -> Attribution {
        let spans = profile
            .phase_table()
            .into_iter()
            .map(|row| (row.name.clone(), (row.self_ns, row.allocs, row.calls)))
            .collect();
        Attribution {
            spans,
            decision_ns: decision_ms * 1e6,
            decisions: decisions.max(1) as f64,
        }
    }

    fn self_ns(&self, span: &str) -> f64 {
        self.spans.get(span).map_or(0.0, |s| s.0 as f64)
    }

    /// Self µs per decision of `span`.
    pub fn us_per_decision(&self, span: &str) -> f64 {
        self.self_ns(span) / 1e3 / self.decisions
    }

    /// Self allocations per decision of `span`.
    pub fn allocs_per_decision(&self, span: &str) -> f64 {
        self.spans.get(span).map_or(0.0, |s| s.1 as f64) / self.decisions
    }

    /// Decision time not covered by any span below the decision call:
    /// the call's own glue plus `scheduler_step`'s self time.
    pub fn uncovered_ns(&self) -> f64 {
        let covered: f64 = SPANS.iter().map(|s| self.self_ns(s)).sum();
        (self.decision_ns - covered).max(0.0)
    }

    /// Share of decision time spent in `span`'s self time, percent.
    pub fn share_pct(&self, span: &str) -> f64 {
        if self.decision_ns > 0.0 {
            100.0 * self.self_ns(span) / self.decision_ns
        } else {
            0.0
        }
    }

    /// Rows `attr.*_pct`, `core.step_self_us` and the per-span rows.
    pub fn layer_rows(&self, out: &mut Layers) {
        out.set("sched.pick_user_us", self.us_per_decision("pick_user"));
        out.set(
            "sched.pick_user_allocs",
            self.allocs_per_decision("pick_user"),
        );
        out.set("bandit.pick_arm_us", self.us_per_decision("pick_arm"));
        out.set(
            "bandit.pick_arm_allocs",
            self.allocs_per_decision("pick_arm"),
        );
        out.set("exec.complete_us", self.us_per_decision("complete"));
        out.set("exec.dispatch_us", self.us_per_decision("dispatch"));
        out.set(
            "gp.posterior_update_us",
            self.us_per_decision("posterior_update"),
        );
        out.set(
            "gp.posterior_update_allocs",
            self.allocs_per_decision("posterior_update"),
        );
        out.set("core.train_us", self.us_per_decision("train"));
        out.set("core.witness_us", self.us_per_decision("witness"));
        out.set(
            "core.step_self_us",
            self.uncovered_ns() / 1e3 / self.decisions,
        );
        for span in SPANS {
            out.set(&format!("attr.{span}_pct"), self.share_pct(span));
        }
        let step_self = if self.decision_ns > 0.0 {
            100.0 * self.uncovered_ns() / self.decision_ns
        } else {
            0.0
        };
        out.set("attr.step_self_pct", step_self);
    }

    /// The attribution table printed beside the per-layer rows.
    pub fn table(&self) -> String {
        let mut s = format!(
            "attribution over {} decisions ({:.1} ms of decision time):\n",
            self.decisions,
            self.decision_ns / 1e6
        );
        for span in SPANS {
            let (_, allocs, calls) = self.spans.get(span).copied().unwrap_or_default();
            s.push_str(&format!(
                "  {span:<18} {:>6.2}%  {:>10.1} us/decision  {:>8} calls  {:>10} allocs\n",
                self.share_pct(span),
                self.us_per_decision(span),
                calls,
                allocs
            ));
        }
        s.push_str(&format!(
            "  {:<18} {:>6.2}%  {:>10.1} us/decision\n",
            "(uncovered)",
            100.0 * self.uncovered_ns() / self.decision_ns.max(1.0),
            self.uncovered_ns() / 1e3 / self.decisions
        ));
        s
    }
}

/// Per-layer values of a traced run, keyed by metric name.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    values: BTreeMap<String, f64>,
}

impl Layers {
    /// Sets one value.
    ///
    /// # Panics
    ///
    /// When `name` is not in [`PER_LAYER`] — every row must be declared.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared per-layer metric {name}"
        );
        self.values.insert(name.to_string(), value);
    }

    /// A value, 0 for a layer the workload bypasses.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

// ------------------------------------------------------------------ results

/// One session's end-to-end figures.
#[derive(Debug, Clone, Default)]
pub struct SessionFigures {
    /// Every set-up's wall time, seconds (the last one ran the session).
    pub setups_s: Vec<f64>,
    /// Dispatched runs per wall second.
    pub decisions_per_s: f64,
    /// Median decision call, ms.
    pub decision_p50_ms: f64,
    /// Tail decision call, ms (see [`tail`]).
    pub decision_tail_ms: f64,
    /// Percentile the tail was read at.
    pub tail_percentile: f64,
    /// Decision calls timed.
    pub samples: usize,
    /// Every recovery's wall time, ms.
    pub recoveries_ms: Vec<f64>,
    /// Cumulative multi-tenant regret.
    pub regret: f64,
    /// `VmHWM` of the process that ran the session, MiB.
    pub peak_rss_mb: f64,
}

impl SessionFigures {
    /// Fills the decision figures from a finished session clock.
    pub fn record_clock(&mut self, clock: &DecisionClock) {
        self.decisions_per_s = clock.rate();
        let (percentile, tail_ms) = tail(clock.latencies());
        self.decision_p50_ms = median(clock.latencies());
        self.decision_tail_ms = tail_ms;
        self.tail_percentile = percentile;
        self.samples = clock.decisions();
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// One entry per session.
    pub sessions: Vec<SessionFigures>,
    /// Operations attempted and failed.
    pub checks: Checks,
    /// Per-layer rows (traced runs only).
    pub layers: Layers,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a finished session with the process's peak RSS so far.
    pub fn push_session(&mut self, mut figures: SessionFigures) {
        figures.peak_rss_mb = peak_rss_mb();
        self.sessions.push(figures);
    }

    fn series(&self, f: impl Fn(&SessionFigures) -> f64) -> Vec<f64> {
        self.sessions.iter().map(f).collect()
    }

    fn pooled(&self, f: impl Fn(&SessionFigures) -> &[f64]) -> Vec<f64> {
        self.sessions
            .iter()
            .flat_map(|s| f(s).iter().copied())
            .collect()
    }

    /// End-to-end values with each metric's within-run spread (IQR over
    /// median of its per-session values; for `setup_s` and `recover_ms`,
    /// of every set-up and recovery). Timings are medians over sessions
    /// (set-ups and recoveries pooled), so one session disturbed by the
    /// host does not move them; regret is the mean over the sessions'
    /// instances and peak RSS the largest session's.
    pub fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64, f64)> {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let values = match name {
                    "setup_s" => self.pooled(|s| &s.setups_s),
                    "decisions_per_s" => self.series(|s| s.decisions_per_s),
                    "decision_p50_ms" => self.series(|s| s.decision_p50_ms),
                    "decision_tail_ms" => self.series(|s| s.decision_tail_ms),
                    "recover_ms" => self.pooled(|s| &s.recoveries_ms),
                    "regret" => self.series(|s| s.regret),
                    _ => self.series(|s| s.peak_rss_mb),
                };
                let value = match name {
                    "regret" => values.iter().sum::<f64>() / values.len().max(1) as f64,
                    "peak_rss_mb" => values.iter().copied().fold(0.0, f64::max),
                    _ => median(&values),
                };
                (name, unit, value, spread(&values))
            })
            .collect()
    }
}

/// Runs the sessions of one workload this process measures.
pub fn run_workload(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "closed-wide" => closed_wide::run(&closed_wide::Sizes::for_seconds(args.seconds), args),
        "open-deep" => open_deep::run(&open_deep::Sizes::for_seconds(args.seconds), args),
        "service" => service::run(&service::Sizes::for_seconds(args.seconds), args),
        other => unreachable!("workload {other} passed argument checks"),
    }
}

/// Sessions a run of `args`' workload measures, and its description.
fn workload_plan(args: &Args) -> (usize, String) {
    match args.workload.as_str() {
        "closed-wide" => {
            let sizes = closed_wide::Sizes::for_seconds(args.seconds);
            (sizes.sessions, closed_wide::describe(&sizes))
        }
        "open-deep" => {
            let sizes = open_deep::Sizes::for_seconds(args.seconds);
            (sizes.sessions, open_deep::describe(&sizes))
        }
        "service" => {
            let sizes = service::Sizes::for_seconds(args.seconds);
            (sizes.sessions, service::describe(&sizes))
        }
        other => unreachable!("workload {other} passed argument checks"),
    }
}

/// One session's figures and operation counts as a `SESSION` line.
fn session_line(figures: &SessionFigures, checks: &Checks) -> String {
    let list = |v: &[f64]| {
        let items: Vec<String> = v.iter().map(|x| json_number(*x)).collect();
        format!("[{}]", items.join(","))
    };
    format!(
        "SESSION {{\"setups_s\":{},\"decisions_per_s\":{},\"decision_p50_ms\":{},\
         \"decision_tail_ms\":{},\"tail_percentile\":{},\"samples\":{},\
         \"recoveries_ms\":{},\"regret\":{},\"peak_rss_mb\":{},\"attempted\":{},\
         \"failed\":{}}}",
        list(&figures.setups_s),
        json_number(figures.decisions_per_s),
        json_number(figures.decision_p50_ms),
        json_number(figures.decision_tail_ms),
        json_number(figures.tail_percentile),
        figures.samples,
        list(&figures.recoveries_ms),
        json_number(figures.regret),
        json_number(figures.peak_rss_mb),
        checks.attempted,
        checks.failed
    )
}

/// Parses a child's `SESSION` line back.
fn parse_session_line(stdout: &str) -> Result<(SessionFigures, Checks), String> {
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("SESSION "))
        .ok_or("no SESSION line")?;
    let doc = easeml_obs::json::parse(line)?;
    let num = |key: &str| json_number_at(&doc, &[key]).ok_or(format!("no {key}"));
    let list = |key: &str| -> Result<Vec<f64>, String> {
        let Json::Object(pairs) = &doc else {
            return Err("SESSION is not an object".into());
        };
        match pairs.iter().find(|(k, _)| k == key) {
            Some((_, Json::Array(items))) => Ok(items
                .iter()
                .filter_map(|v| match v {
                    Json::Number(x) => Some(*x),
                    _ => None,
                })
                .collect()),
            _ => Err(format!("no {key}")),
        }
    };
    let figures = SessionFigures {
        setups_s: list("setups_s")?,
        decisions_per_s: num("decisions_per_s")?,
        decision_p50_ms: num("decision_p50_ms")?,
        decision_tail_ms: num("decision_tail_ms")?,
        tail_percentile: num("tail_percentile")?,
        samples: num("samples")? as usize,
        recoveries_ms: list("recoveries_ms")?,
        regret: num("regret")?,
        peak_rss_mb: num("peak_rss_mb")?,
    };
    let checks = Checks {
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        messages: Vec::new(),
    };
    Ok((figures, checks))
}

/// Runs session `k` of `args`' workload in a fresh process of `binary`
/// (failure messages pass through on standard error) and waits for it.
fn child_session(binary: &Path, args: &Args, k: usize) -> Result<(SessionFigures, Checks), String> {
    let output = std::process::Command::new(binary)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            "0",
            "--session",
            &k.to_string(),
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", binary.display()))?;
    if !output.status.success() {
        return Err(format!("session {k} exited with {}", output.status));
    }
    parse_session_line(&String::from_utf8_lossy(&output.stdout))
        .map_err(|e| format!("session {k}: {e}"))
}

/// The untraced binary next to this one.
fn untraced_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    Ok(exe.with_file_name(format!("perfbench{}", std::env::consts::EXE_SUFFIX)))
}

/// Formats a finite number for JSON with every digit Rust's shortest
/// round-trip representation gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub fn result_json(checks: &Checks, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(",")
    )
}

/// Renders a finished run: the human-readable report, then the result
/// line last. `overhead_dps` is the untraced decisions/s a traced run is
/// compared against.
pub fn render(args: &Args, outcome: &Outcome, untraced_dps: Option<f64>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "workload {} seed {} ({} sessions, {})\n",
        args.workload,
        args.seed,
        outcome.sessions.len(),
        if args.trace { "traced" } else { "untraced" }
    ));
    for note in &outcome.notes {
        out.push_str(note);
        out.push('\n');
    }
    out.push_str(&format!(
        "operations: {} attempted, {} failed\n",
        outcome.checks.attempted, outcome.checks.failed
    ));
    for m in &outcome.checks.messages {
        out.push_str(&format!("  FAILED: {m}\n"));
    }
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let mut layers = outcome.layers.clone();
        if let (Some(base), Some(session)) = (untraced_dps, outcome.sessions.first()) {
            if session.decisions_per_s > 0.0 {
                layers.set(
                    "trace.overhead_pct",
                    100.0 * (base / session.decisions_per_s - 1.0),
                );
            }
            out.push_str(&format!(
                "tracing overhead: {:.1} decisions/s untraced vs {:.1} traced\n",
                base, session.decisions_per_s
            ));
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, layers.get(name)))
            .collect()
    } else {
        let rows = outcome.end_to_end();
        let read_at: Vec<String> = outcome
            .sessions
            .iter()
            .map(|s| format!("p{} of {}", s.tail_percentile, s.samples))
            .collect();
        out.push_str(&format!(
            "{:<18} {:>14} {:<5} {:>8}\n",
            "metric", "median", "unit", "spread"
        ));
        for (name, unit, value, spread) in &rows {
            let flag = if *spread > 0.1 {
                "  (spread above 0.1)"
            } else {
                ""
            };
            out.push_str(&format!(
                "{name:<18} {value:>14.4} {unit:<5} {spread:>8.3}{flag}\n"
            ));
        }
        out.push_str(&format!(
            "decision_tail_ms read per session at {}\n",
            read_at.join(", ")
        ));
        for (i, s) in outcome.sessions.iter().enumerate() {
            out.push_str(&format!(
                "session {i}: set-ups {:.4?} s, {:.1} decisions/s, p50 {:.4} ms, tail {:.4} ms, \
                 recoveries {:.1?} ms\n",
                s.setups_s,
                s.decisions_per_s,
                s.decision_p50_ms,
                s.decision_tail_ms,
                s.recoveries_ms
            ));
        }
        rows.into_iter()
            .map(|(name, unit, value, _)| (name, unit, value))
            .collect()
    };
    out.push_str(&result_json(&outcome.checks, &metrics));
    out.push('\n');
    out
}

/// Shared `main` of both binaries; `traced_binary` says whether this
/// process runs under the counting allocator.
///
/// An end-to-end run measures each session in a fresh child process (so
/// every session starts from the same clean heap) and aggregates their
/// `SESSION` lines. A traced run measures session 0 in this process, and
/// session 0 untraced in a child for the tracing overhead.
pub fn main_with(traced_binary: bool) -> i32 {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return 2;
        }
    };
    if args.trace != traced_binary {
        eprintln!(
            "perfbench: --trace {} needs the {} binary",
            u8::from(args.trace),
            if args.trace { "traced" } else { "untraced" }
        );
        return 2;
    }
    if args.session.is_some() {
        let outcome = run_workload(&args);
        for m in &outcome.checks.messages {
            eprintln!("FAILED: {m}");
        }
        match outcome.sessions.first() {
            Some(figures) => println!("{}", session_line(figures, &outcome.checks)),
            None => return 1,
        }
        return 0;
    }
    let result = if args.trace {
        untraced_binary()
            .and_then(|binary| child_session(&binary, &args, 0))
            .map(|(base, _)| (run_workload(&args), Some(base.decisions_per_s)))
    } else {
        std::env::current_exe()
            .map_err(|e| e.to_string())
            .and_then(|binary| {
                let (count, description) = workload_plan(&args);
                let mut outcome = Outcome::default();
                for k in 0..count {
                    let (figures, checks) = child_session(&binary, &args, k)?;
                    outcome.sessions.push(figures);
                    outcome.checks.merge(checks);
                }
                outcome.notes.push(description);
                Ok((outcome, None))
            })
    };
    match result {
        Ok((outcome, untraced_dps)) => {
            print!("{}", render(&args, &outcome, untraced_dps));
            0
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}
