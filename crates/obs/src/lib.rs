//! Zero-cost observability for the ease.ml reproduction.
//!
//! Every interesting decision the system makes — which tenant the scheduler
//! served, which arm a tenant's GP-UCB pulled, when the hybrid scheduler
//! froze and fell back to round robin, what a training run returned — can
//! be captured as a structured [`Event`]. Alongside events, the layer
//! carries named counters, gauges, and fixed-bucket latency [`Histogram`]s
//! fed by scoped wall-clock timers around the hot paths (Cholesky
//! factor/solve, posterior refresh, per-round pick).
//!
//! The design goal is *zero cost when off*:
//!
//! * instrumented components hold a [`RecorderHandle`]; the default handle
//!   is disabled and every operation on it is a single branch — event
//!   construction sits behind a closure that never runs, so the disabled
//!   path does not allocate or format;
//! * deep library code (the linalg kernels) uses the process-global
//!   recorder via [`global_timer`], whose disabled fast path is one relaxed
//!   atomic load;
//! * the `sim/noop_recorder_overhead` benchmark in `easeml-bench` guards
//!   the claim by timing a full simulation with and without the plumbing.
//!
//! When observability *is* wanted, attach an [`InMemoryRecorder`]:
//!
//! ```
//! use easeml_obs::{Event, InMemoryRecorder, Recorder, RecorderHandle};
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(InMemoryRecorder::new());
//! let handle = RecorderHandle::new(recorder.clone());
//!
//! // Components emit through the handle, stamping the current causal span...
//! let step = handle.span("scheduler_step");
//! handle.emit(|| Event::TrainingCompleted {
//!     user: 0,
//!     model: 3,
//!     cost: 1.0,
//!     quality: 0.91,
//!     parent: easeml_obs::current_span(),
//! });
//! drop(step);
//!
//! // ...and the recorder exports a JSONL trace or a summary table.
//! let trace = recorder.to_jsonl();
//! assert_eq!(Event::from_json(trace.lines().next().unwrap()).unwrap(),
//!            recorder.events()[0]);
//! println!("{}", recorder.summary());
//! ```
//!
//! For *live* telemetry — a run that must be observable while it executes —
//! compose the export layer instead of the bare in-memory recorder:
//!
//! * [`TeeRecorder`] forwards every call to a primary recorder while
//!   fanning the event stream out to [`StreamingSink`]s;
//! * [`JsonlFileSink`] streams the trace to disk with size-based rotation,
//!   so a long run never accumulates its trace unboundedly in memory;
//! * [`TimeSeriesRecorder`] folds the stream into per-tenant regret curves
//!   against the simulated clock (the paper's Fig. 8 trajectories, live);
//! * [`InMemoryRecorder::events_since`] tails the trace incrementally —
//!   the contract behind the `easeml-obs-http` crate's `/trace?after=`
//!   endpoint.

//!
//! For *attribution* — where a step spends its time and memory — the
//! profiling layer folds the span stream into an aggregated
//! [`CallTreeProfile`] (offline, from any trace) or maintains it online
//! through a global [`Profiler`] fed directly by span guards, with
//! optional allocation accounting via the [`CountingAlloc`] global
//! allocator. See the `profile` module docs. The workspace's performance
//! gates read this layer: `tests/cost_model.rs` pins the exact per-node
//! allocation counts of seeded runs, and `perfbench --trace 1` derives its
//! per-layer self-time and allocation rows from the same call tree.

mod alloc;
mod event;
pub mod json;
mod memory;
mod profile;
mod recorder;
mod sink;
mod sketch;
mod span;
mod timer;
mod timeseries;
mod witness;

pub use alloc::{counting_allocator_active, thread_alloc_stats, AllocStats, CountingAlloc};
pub use event::{Event, TRACE_SCHEMA_VERSION};
pub use memory::{Histogram, InMemoryRecorder, UserStats};
pub use profile::{
    global_profiler, profiling_enabled, scaling_exponents, set_global_profiler, CallTreeProfile,
    PhaseRow, PhaseScaling, ProfileNode, Profiler,
};
pub use recorder::{Component, NoopRecorder, Recorder, RecorderHandle};
pub use sink::{
    schema_header_line, JsonlFileSink, SinkStats, StreamingSink, TeeRecorder, DEFAULT_KEEP_ROTATED,
    DEFAULT_MAX_FILE_BYTES,
};
pub use sketch::{
    HeavyHitter, QuantileSketch, Reservoir, ReservoirOutcome, SketchParts, SpaceSaving,
    DEFAULT_SKETCH_ALPHA, DEFAULT_SKETCH_MAX_BUCKETS,
};
pub use span::{current_span, trace_ts_ns, SpanGuard};
pub use timer::{global_handle, global_timer, set_global_recorder, GlobalTimer, ScopedTimer};
pub use timeseries::{
    RegretDecomposition, ScaleConfig, ScaleSnapshot, StrategySketches, TelemetryOverhead,
    TimeSeriesRecorder, TimeSeriesSnapshot, TopTenant, UserSeries,
};
pub use witness::{
    top_k_indices, witness_records, RollingDigest, WitnessArm, WitnessRecord, WitnessUser,
};
