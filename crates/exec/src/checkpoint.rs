//! Crash-safe checkpoint/restore of in-flight execution state.
//!
//! [`ExecCheckpoint`] snapshots everything the engine needs to resume
//! mid-flight: the resolved observation sequence (replaying it through the
//! same numeric path rebuilds bit-identical GP state), every in-flight
//! run's pre-resolved outcome, the device fleet's busy/idle integrals, the
//! fault injector's attempt counters, and the HYBRID picker's freeze
//! detector. Restoring marks each in-flight run pending again in dispatch
//! order, which rebuilds the GP-BUCB hallucinated posterior bit-identically
//! (the hallucinated state is always the real posterior plus one mean-fake
//! per pending arm, in order).
//!
//! Serialization follows the same hand-rolled JSON conventions as the core
//! checkpoint ([`easeml::checkpoint`]): finite floats round-trip bit-exactly,
//! non-finite floats serialize as `null` (the in-flight `quality` of a
//! censored run, HYBRID's `-inf` sentinel), and `u64` seeds travel as
//! decimal strings.
//!
//! One caveat: the stochastic pickers ([`SchedulerKind::Random`],
//! `Greedy(Random)`) draw from an RNG whose stream position is not part of
//! the checkpoint — a restored run re-seeds from the start, so only the
//! deterministic schedulers replay bit-identically across a restore.

use crate::engine::{Arrival, ExecEngine, InFlight, PickerSlot};
use crate::fleet::{DeviceSpec, Fleet};
use easeml::checkpoint::{decode_u64, encode_u64, FaultCheckpoint, PickerCheckpoint};
use easeml::sim::{SchedulerKind, SimConfig, SimEvent};
use easeml::TaskState;
use easeml_data::Dataset;
use easeml_gp::ArmPrior;
use easeml_obs::json::{
    self, as_bool, as_f64, as_object, as_tuple, as_u64, get, get_bool, get_f64, get_f64_in,
    get_f64_or_nan, get_nullable, get_str, get_u32, get_u64, get_usize, get_vec,
};
use easeml_obs::{QuantileSketch, RecorderHandle, SketchParts};
use easeml_sched::Hybrid;
use serde::Serialize;

/// Current execution-checkpoint format version.
///
/// v2 added the bounded queueing-delay / busy-span quantile sketches;
/// v3 added the rolling witness-digest chain (`witness_*` fields) so a
/// restored engine continues the digest WAL recovery asserts against;
/// v4 added open-loop workload state (`open_loop`, per-tenant `retired` /
/// `backlog`, and the pending `arrivals` queue) so a mid-replay restore
/// resumes the workload bit-exactly.
pub const EXEC_CHECKPOINT_VERSION: u32 = 4;

/// One device's spec and runtime accounting.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DeviceCheckpoint {
    /// Speed factor.
    pub speed: f64,
    /// Job slots.
    pub slots: u64,
    /// Occupied slots at checkpoint time.
    pub in_use: u64,
    /// Accrued busy slot-time.
    pub busy: f64,
    /// Accrued idle slot-time.
    pub idle: f64,
    /// Time of the last accounting update.
    pub last_t: f64,
    /// When the device last became fully idle.
    pub idle_since: f64,
}

/// One in-flight run, outcome pre-resolved but unrevealed.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct InFlightCheckpoint {
    /// Dispatch sequence number.
    pub seq: u64,
    /// Served user.
    pub user: usize,
    /// Dispatched model.
    pub model: usize,
    /// Executing device.
    pub device: usize,
    /// Dispatch time.
    pub dispatched_at: f64,
    /// Scheduled completion time.
    pub finish: f64,
    /// Charged cost.
    pub charge: f64,
    /// Whether the run completes with a usable quality.
    pub ok: bool,
    /// Revealed quality; serialized as `null` (NaN) for censored runs.
    pub quality: f64,
    /// Censoring kind (empty for clean runs).
    pub kind: String,
}

/// One `Done` cell of the dispatch board.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DoneCellCheckpoint {
    /// User row.
    pub user: usize,
    /// Arm column.
    pub arm: usize,
    /// Recorded accuracy.
    pub accuracy: f64,
}

/// The full mid-flight engine snapshot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExecCheckpoint {
    /// Format version ([`EXEC_CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Scheduler kind name (canonical [`SchedulerKind::name`]).
    pub kind: String,
    /// Picker RNG seed, as a decimal string.
    pub seed: String,
    /// Cost budget.
    pub budget: f64,
    /// Cost-aware arm selection flag.
    pub cost_aware: bool,
    /// GP observation-noise variance.
    pub noise_var: f64,
    /// β-schedule failure probability δ.
    pub delta: f64,
    /// The fleet: specs plus runtime accounting.
    pub devices: Vec<DeviceCheckpoint>,
    /// Simulated clock.
    pub now: f64,
    /// Next dispatch sequence number.
    pub next_seq: u64,
    /// Picker step counter.
    pub step: u64,
    /// Completed budgeted rounds.
    pub rounds: u64,
    /// Censored runs so far.
    pub censored: u64,
    /// Total dispatches.
    pub dispatches: u64,
    /// Dispatches made while other runs were in flight.
    pub parallel_dispatches: u64,
    /// Cost committed so far.
    pub committed: f64,
    /// Mean loss after the warm-up pass.
    pub initial_loss: f64,
    /// Per-user best quality seen.
    pub best_seen: Vec<f64>,
    /// Per-user charged cost.
    pub user_cost: Vec<f64>,
    /// `(time, mean loss)` trajectory so far.
    pub points: Vec<(f64, f64)>,
    /// Resolved runs in completion order — replaying them rebuilds the GP
    /// posteriors bit-identically.
    pub resolved: Vec<SimEvent>,
    /// In-flight runs in dispatch (sequence) order.
    pub in_flight: Vec<InFlightCheckpoint>,
    /// `Done` cells of the dispatch board. Stored explicitly rather than
    /// derived from `resolved`: a completed cell can be re-dispatched and
    /// censored later, reverting it to pending.
    pub board_done: Vec<DoneCellCheckpoint>,
    /// HYBRID picker state, when the scheduler is HYBRID.
    pub hybrid: Option<PickerCheckpoint>,
    /// Fault injector, if one is attached.
    pub fault: Option<FaultCheckpoint>,
    /// Queueing-delay sketch accrued so far.
    pub queueing_delay: SketchParts,
    /// Busy-span sketch accrued so far.
    pub busy_spans: SketchParts,
    /// Rolling witness digest at checkpoint time, as a decimal string.
    pub witness_digest: String,
    /// Completions folded into the witness digest so far.
    pub witness_rounds: u64,
    /// Witness fan-out bound K.
    pub witness_top_k: u64,
    /// Open-loop mode flag (v4).
    pub open_loop: bool,
    /// Per-tenant retirement flags (v4).
    pub retired: Vec<bool>,
    /// Per-tenant arrived-but-undispatched job counts (v4).
    pub backlog: Vec<u64>,
    /// Next arrival sequence number (v4).
    pub arrival_seq: u64,
    /// Arrivals not yet absorbed, in non-decreasing time order (v4).
    pub arrivals: Vec<Arrival>,
}

impl ExecEngine<'_> {
    /// Snapshots the full mid-flight state.
    pub fn checkpoint(&self) -> ExecCheckpoint {
        let devices = self
            .fleet
            .devices
            .iter()
            .map(|d| DeviceCheckpoint {
                speed: d.spec.speed,
                slots: d.spec.slots as u64,
                in_use: d.in_use as u64,
                busy: d.busy,
                idle: d.idle,
                last_t: d.last_t,
                idle_since: d.idle_since,
            })
            .collect();
        let in_flight = self
            .in_flight
            .iter()
            .map(|r| InFlightCheckpoint {
                seq: r.seq,
                user: r.user,
                model: r.model,
                device: r.device,
                dispatched_at: r.dispatched_at,
                finish: r.finish,
                charge: r.charge,
                ok: r.ok,
                quality: r.quality,
                kind: r.kind.clone(),
            })
            .collect();
        let mut board_done = Vec::new();
        for user in 0..self.board.num_users() {
            for arm in 0..self.board.num_arms() {
                if let TaskState::Done(accuracy) = self.board.state(user, arm) {
                    board_done.push(DoneCellCheckpoint {
                        user,
                        arm,
                        accuracy,
                    });
                }
            }
        }
        ExecCheckpoint {
            version: EXEC_CHECKPOINT_VERSION,
            kind: self.kind.name().to_string(),
            seed: encode_u64(self.seed),
            budget: self.cfg.budget,
            cost_aware: self.cfg.cost_aware,
            noise_var: self.cfg.noise_var,
            delta: self.cfg.delta,
            devices,
            now: self.now,
            next_seq: self.next_seq,
            step: self.step as u64,
            rounds: self.rounds as u64,
            censored: self.censored as u64,
            dispatches: self.dispatches as u64,
            parallel_dispatches: self.parallel_dispatches as u64,
            committed: self.committed,
            initial_loss: self.initial_loss,
            best_seen: self.best_seen.clone(),
            user_cost: self.user_cost.clone(),
            points: self.points.clone(),
            resolved: self.events.clone(),
            in_flight,
            board_done,
            hybrid: self
                .picker
                .hybrid()
                .map(|h| PickerCheckpoint::of(h.export_state())),
            fault: self.injector.as_ref().map(FaultCheckpoint::of),
            queueing_delay: self.queueing_delay.to_parts(),
            busy_spans: self.busy_spans.to_parts(),
            witness_digest: encode_u64(self.wlog.digest_value()),
            witness_rounds: self.wlog.rounds(),
            witness_top_k: self.wlog.top_k() as u64,
            open_loop: self.open_loop,
            retired: self.retired.clone(),
            backlog: self.backlog.clone(),
            arrival_seq: self.arrival_seq,
            arrivals: self.arrivals.iter().copied().collect(),
        }
    }

    /// Writes this engine's checkpoint to `path` atomically (temp file +
    /// rename + fsync), then — when a WAL is attached — seals and compacts
    /// the log behind a checkpoint mark, exactly like the serial server's
    /// [`easeml::server::EaseMl::checkpoint_to`].
    ///
    /// # Errors
    ///
    /// Filesystem errors from the atomic write.
    pub fn checkpoint_to(&self, path: &std::path::Path) -> Result<(), String> {
        let json = self.checkpoint().to_json();
        easeml::checkpoint::write_checkpoint_atomic(path, &json).map_err(|e| e.to_string())?;
        self.durability
            .mark_checkpoint(self.wlog.rounds(), self.wlog.digest_value());
        Ok(())
    }

    /// Rebuilds an engine from a checkpoint: replays the resolved
    /// observations through the same numeric path (bit-identical GP
    /// posteriors), re-marks every in-flight run pending in dispatch order
    /// (bit-identical hallucinated posteriors), and restores the fleet,
    /// fault, board, and picker state. The restored engine carries a
    /// disabled recorder; attach a live one with
    /// [`ExecEngine::attach_recorder`].
    ///
    /// # Errors
    ///
    /// Returns a message on a version mismatch, an unknown scheduler kind,
    /// a malformed seed, dimensions that do not fit `dataset`/`priors`, or
    /// a user, arm or device index out of range.
    pub fn restore<'a>(
        dataset: &'a Dataset,
        priors: &[ArmPrior],
        ck: &ExecCheckpoint,
    ) -> Result<ExecEngine<'a>, String> {
        if ck.version != EXEC_CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported exec checkpoint version {} (expected {EXEC_CHECKPOINT_VERSION})",
                ck.version
            ));
        }
        let kind = SchedulerKind::from_name(&ck.kind)
            .filter(|kind| !kind.is_heuristic())
            .ok_or_else(|| format!("unknown scheduler kind {:?}", ck.kind))?;
        let seed = decode_u64(&ck.seed)?;
        let (n, m) = (dataset.num_users(), dataset.num_models());
        if ck.best_seen.len() != n
            || ck.user_cost.len() != n
            || ck.retired.len() != n
            || ck.backlog.len() != n
        {
            return Err(format!(
                "checkpoint is for {} users, dataset has {n}",
                ck.best_seen.len()
            ));
        }
        if ck.budget.is_nan() || ck.budget <= 0.0 {
            return Err(format!("checkpoint budget {} is not positive", ck.budget));
        }
        ck.check_bounds(n, m)?;
        let injector = ck
            .fault
            .as_ref()
            .map(|f| f.to_injector(|user| (user < n).then_some(m)))
            .transpose()?;
        let cfg = SimConfig {
            budget: ck.budget,
            cost_aware: ck.cost_aware,
            noise_var: ck.noise_var,
            delta: ck.delta,
            fault: injector.as_ref().map(|i| i.config().clone()),
        };
        let specs: Vec<DeviceSpec> = ck
            .devices
            .iter()
            .map(|d| DeviceSpec {
                speed: d.speed,
                slots: d.slots as usize,
            })
            .collect();
        let mut engine = ExecEngine::new(
            dataset,
            priors,
            kind,
            &cfg,
            Fleet::new(specs),
            seed,
            RecorderHandle::noop(),
        );

        // Replay the resolved observations in completion order: the GP
        // posteriors grow through the exact numeric path of the original
        // run. The picker is NOT notified — its state is restored verbatim
        // below (HYBRID) or is a pure function of `step` (the rest).
        for r in &ck.resolved {
            engine.tenants[r.user].observe(r.model, r.quality);
            engine.bucbs[r.user].observe_direct(r.model, r.quality);
            engine.events.push(*r);
        }
        if let Some(h) = &ck.hybrid {
            engine.picker = PickerSlot::Hybrid(Hybrid::from_state(h.to_state(n)?));
        }
        // The restored injector carries the attempt counters.
        engine.injector = injector;
        for (dev, d) in engine.fleet.devices.iter_mut().zip(&ck.devices) {
            dev.in_use = d.in_use as usize;
            dev.busy = d.busy;
            dev.idle = d.idle;
            dev.last_t = d.last_t;
            dev.idle_since = d.idle_since;
        }
        for cell in &ck.board_done {
            engine.board.finish(cell.user, cell.arm, cell.accuracy);
        }
        // Re-mark in-flight runs pending in dispatch order — this rebuilds
        // each user's hallucinated posterior bit-identically on top of the
        // replayed real posterior.
        for r in &ck.in_flight {
            engine.board.start(r.user, r.model);
            engine.bucbs[r.user].mark_pending(r.model);
            engine.queue.push(r.finish, r.seq);
            engine.in_flight.push(InFlight {
                seq: r.seq,
                user: r.user,
                model: r.model,
                device: r.device,
                dispatched_at: r.dispatched_at,
                finish: r.finish,
                charge: r.charge,
                ok: r.ok,
                quality: r.quality,
                kind: r.kind.clone(),
                // A checkpoint does not carry the dispatch-time decision
                // context; the restored run's completion skips the witness
                // chain but still folds into the digest.
                witness: None,
            });
        }
        engine.now = ck.now;
        engine.next_seq = ck.next_seq;
        engine.step = ck.step as usize;
        engine.rounds = ck.rounds as usize;
        engine.censored = ck.censored as usize;
        engine.dispatches = ck.dispatches as usize;
        engine.parallel_dispatches = ck.parallel_dispatches as usize;
        engine.committed = ck.committed;
        engine.initial_loss = ck.initial_loss;
        engine.best_seen = ck.best_seen.clone();
        engine.user_cost = ck.user_cost.clone();
        engine.points = ck.points.clone();
        engine.queueing_delay = QuantileSketch::from_parts(&ck.queueing_delay);
        engine.busy_spans = QuantileSketch::from_parts(&ck.busy_spans);
        // Continue the rolling digest chain: ExecEngine::new ran warm_up
        // with a fresh log, so this overwrite is what makes the restored
        // digest trajectory match the original's (WAL recovery asserts
        // completion-by-completion equality on it).
        engine.wlog = easeml::witness::DecisionLog::from_state(
            ck.witness_top_k as usize,
            decode_u64(&ck.witness_digest)?,
            ck.witness_rounds,
        );
        // Open-loop workload state (v4): restore the raw fields, then let
        // the engine recompute every tenant's picker visibility from them.
        engine.retired = ck.retired.clone();
        engine.backlog = ck.backlog.clone();
        engine.arrival_seq = ck.arrival_seq;
        engine.arrivals = ck.arrivals.iter().copied().collect();
        engine.set_open_loop(ck.open_loop);
        Ok(engine)
    }
}

impl ExecCheckpoint {
    /// Rejects any user, arm or device index that does not fit a run with
    /// `users` tenants, `arms` models and this checkpoint's fleet — restore
    /// indexes with them, so a malformed document must fail here, not
    /// panic there.
    fn check_bounds(&self, users: usize, arms: usize) -> Result<(), String> {
        if self.devices.is_empty() {
            return Err("checkpoint has no devices".into());
        }
        if let Some(d) = self
            .devices
            .iter()
            .find(|d| !(d.speed.is_finite() && d.speed > 0.0) || d.slots == 0)
        {
            return Err(format!(
                "device spec (speed {}, {} slots) is invalid",
                d.speed, d.slots
            ));
        }
        let cell = |what: &str, user: usize, arm: usize| {
            if user < users && arm < arms {
                Ok(())
            } else {
                Err(format!(
                    "{what} cell ({user}, {arm}) out of range ({users} users, {arms} arms)"
                ))
            }
        };
        for r in &self.resolved {
            cell("resolved", r.user, r.model)?;
        }
        for r in &self.in_flight {
            cell("in-flight", r.user, r.model)?;
            if r.device >= self.devices.len() {
                return Err(format!(
                    "in-flight run {} on unknown device {}",
                    r.seq, r.device
                ));
            }
        }
        for c in &self.board_done {
            cell("board", c.user, c.arm)?;
        }
        match self.arrivals.iter().find(|a| a.user >= users) {
            Some(a) => Err(format!("arrival {} for unknown user {}", a.seq, a.user)),
            None => Ok(()),
        }
    }

    /// Serializes the checkpoint to one JSON document.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }

    /// Parses a checkpoint document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed or missing field.
    pub fn from_json(input: &str) -> Result<Self, String> {
        let doc = json::parse(input)?;
        let fields = as_object(&doc, "exec checkpoint")?;
        let version = get_u32(fields, "version")?;
        if version != EXEC_CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported exec checkpoint version {version} (expected {EXEC_CHECKPOINT_VERSION})"
            ));
        }
        let devices = get_vec(fields, "devices", |d, _| {
            let f = as_object(d, "device")?;
            Ok(DeviceCheckpoint {
                speed: get_f64(f, "speed")?,
                slots: get_u64(f, "slots")?,
                in_use: get_u64(f, "in_use")?,
                busy: get_f64(f, "busy")?,
                idle: get_f64(f, "idle")?,
                last_t: get_f64(f, "last_t")?,
                idle_since: get_f64(f, "idle_since")?,
            })
        })?;
        let resolved = get_vec(fields, "resolved", |r, _| {
            let f = as_object(r, "resolved run")?;
            Ok(SimEvent {
                user: get_usize(f, "user")?,
                model: get_usize(f, "model")?,
                cost: get_f64(f, "cost")?,
                quality: get_f64(f, "quality")?,
            })
        })?;
        let in_flight = get_vec(fields, "in_flight", |r, _| {
            let f = as_object(r, "in-flight run")?;
            Ok(InFlightCheckpoint {
                seq: get_u64(f, "seq")?,
                user: get_usize(f, "user")?,
                model: get_usize(f, "model")?,
                device: get_usize(f, "device")?,
                dispatched_at: get_f64(f, "dispatched_at")?,
                finish: get_f64(f, "finish")?,
                charge: get_f64(f, "charge")?,
                ok: get_bool(f, "ok")?,
                quality: get_f64_or_nan(f, "quality")?,
                kind: get_str(f, "kind")?,
            })
        })?;
        let board_done = get_vec(fields, "board_done", |c, _| {
            let f = as_object(c, "done cell")?;
            Ok(DoneCellCheckpoint {
                user: get_usize(f, "user")?,
                arm: get_usize(f, "arm")?,
                accuracy: get_f64(f, "accuracy")?,
            })
        })?;
        Ok(ExecCheckpoint {
            version,
            kind: get_str(fields, "kind")?,
            seed: get_str(fields, "seed")?,
            budget: get_f64_in(fields, "budget", "finite and >= 0", |v| {
                v.is_finite() && v >= 0.0
            })?,
            cost_aware: get_bool(fields, "cost_aware")?,
            noise_var: get_f64_in(fields, "noise_var", "finite and > 0", |v| {
                v.is_finite() && v > 0.0
            })?,
            delta: get_f64_in(fields, "delta", "in (0, 1)", |v| v > 0.0 && v < 1.0)?,
            devices,
            now: get_f64(fields, "now")?,
            next_seq: get_u64(fields, "next_seq")?,
            step: get_u64(fields, "step")?,
            rounds: get_u64(fields, "rounds")?,
            censored: get_u64(fields, "censored")?,
            dispatches: get_u64(fields, "dispatches")?,
            parallel_dispatches: get_u64(fields, "parallel_dispatches")?,
            committed: get_f64(fields, "committed")?,
            initial_loss: get_f64(fields, "initial_loss")?,
            best_seen: get_vec(fields, "best_seen", as_f64)?,
            user_cost: get_vec(fields, "user_cost", as_f64)?,
            points: get_vec(fields, "points", |p, _| {
                let [t, loss] = as_tuple(p, "point")?;
                Ok((as_f64(t, "point")?, as_f64(loss, "point")?))
            })?,
            resolved,
            in_flight,
            board_done,
            hybrid: get_nullable(fields, "hybrid", PickerCheckpoint::from_value)?,
            fault: get_nullable(fields, "fault", FaultCheckpoint::from_value)?,
            queueing_delay: SketchParts::from_value(
                get(fields, "queueing_delay")?,
                "queueing_delay",
            )?,
            busy_spans: SketchParts::from_value(get(fields, "busy_spans")?, "busy_spans")?,
            witness_digest: get_str(fields, "witness_digest")?,
            witness_rounds: get_u64(fields, "witness_rounds")?,
            witness_top_k: get_u64(fields, "witness_top_k")?,
            open_loop: get_bool(fields, "open_loop")?,
            retired: get_vec(fields, "retired", as_bool)?,
            backlog: get_vec(fields, "backlog", as_u64)?,
            arrival_seq: get_u64(fields, "arrival_seq")?,
            arrivals: get_vec(fields, "arrivals", |a, _| {
                let f = as_object(a, "arrival")?;
                Ok(Arrival {
                    seq: get_u64(f, "seq")?,
                    user: get_usize(f, "user")?,
                    at: get_f64(f, "at")?,
                })
            })?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate_multi_device;
    use easeml::fault::FaultConfig;
    use easeml_data::SynConfig;

    fn small_dataset() -> Dataset {
        SynConfig {
            num_users: 4,
            num_models: 3,
            ..SynConfig::paper(0.5, 0.5)
        }
        .generate(3)
    }

    fn flat_priors(dataset: &Dataset) -> Vec<ArmPrior> {
        (0..dataset.num_users())
            .map(|_| ArmPrior::independent(dataset.num_models(), 0.05))
            .collect()
    }

    /// A HYBRID engine on three devices under chaos, checkpointed with
    /// runs in flight.
    fn mid_flight_checkpoint(d: &Dataset, priors: &[ArmPrior]) -> ExecCheckpoint {
        let mut cfg = SimConfig::new(8.0);
        cfg.fault = Some(
            FaultConfig::new(13)
                .with_crash_rate(0.2)
                .with_timeout_rate(0.1),
        );
        let mut engine = ExecEngine::new(
            d,
            priors,
            SchedulerKind::Hybrid,
            &cfg,
            Fleet::uniform(3),
            7,
            RecorderHandle::noop(),
        );
        for _ in 0..4 {
            assert!(engine.tick());
        }
        assert!(engine.in_flight_len() > 0, "checkpoint must be mid-flight");
        engine.checkpoint()
    }

    #[test]
    fn checkpoint_json_round_trips_mid_flight() {
        let d = small_dataset();
        let ck = mid_flight_checkpoint(&d, &flat_priors(&d));
        let parsed = ExecCheckpoint::from_json(&ck.to_json()).expect("round-trip");
        assert_eq!(parsed, ck);
        assert!(ck.hybrid.is_some());
        assert!(ck.fault.is_some());
        assert!(!ck.in_flight.is_empty());
    }

    #[test]
    fn malformed_integers_are_rejected_not_truncated() {
        let d = small_dataset();
        let ck = mid_flight_checkpoint(&d, &flat_priors(&d));
        let json = ck.to_json();
        let candidates = "\"prev_candidates\":[";
        assert!(json.contains(candidates));
        for bad in ["-1.5", "1.5", "-1", "1e300"] {
            let doc = json.replacen(candidates, &format!("{candidates}{bad},"), 1);
            let err = ExecCheckpoint::from_json(&doc).expect_err(bad);
            assert!(err.contains("prev_candidates"), "{err}");
        }
        let next_seq = format!("\"next_seq\":{},", ck.next_seq);
        let doc = json.replacen(&next_seq, "\"next_seq\":-2,", 1);
        let err = ExecCheckpoint::from_json(&doc).unwrap_err();
        assert!(err.contains("next_seq"), "{err}");
    }

    #[test]
    fn out_of_domain_numbers_are_rejected_not_panicked() {
        let d = small_dataset();
        let json = mid_flight_checkpoint(&d, &flat_priors(&d)).to_json();
        for (field, bad) in [
            ("delta", "0"),
            ("delta", "-0.5"),
            ("delta", "1"),
            ("noise_var", "0"),
            ("noise_var", "-0.001"),
            ("noise_var", "1e999"),
            ("budget", "-1"),
            ("budget", "1e999"),
        ] {
            let doc = json.replacen(
                &format!("\"{field}\":"),
                &format!("\"{field}\":{bad},\"was\":"),
                1,
            );
            let err = ExecCheckpoint::from_json(&doc).expect_err(bad);
            assert!(err.contains(field), "{field}={bad}: {err}");
        }
    }

    #[test]
    fn out_of_range_indices_are_rejected_not_panicked() {
        let d = small_dataset();
        let priors = flat_priors(&d);
        let ck = mid_flight_checkpoint(&d, &priors);
        assert!(ExecEngine::restore(&d, &priors, &ck).is_ok());
        type Mutation = Box<dyn Fn(&mut ExecCheckpoint)>;
        let mutations: Vec<(&str, Mutation)> = vec![
            ("resolved user", Box::new(|c| c.resolved[0].user = 990)),
            ("resolved model", Box::new(|c| c.resolved[0].model = 3)),
            ("in-flight user", Box::new(|c| c.in_flight[0].user = 4)),
            ("in-flight device", Box::new(|c| c.in_flight[0].device = 3)),
            ("board arm", Box::new(|c| c.board_done[0].arm = 99)),
            (
                "arrival user",
                Box::new(|c| {
                    c.arrivals.push(Arrival {
                        seq: 0,
                        user: 4,
                        at: 1.0,
                    })
                }),
            ),
            (
                "fault attempt",
                Box::new(|c| c.fault.as_mut().unwrap().attempts.push((0, 3, 1))),
            ),
            (
                "picker candidate",
                Box::new(|c| c.hybrid.as_mut().unwrap().prev_candidates.push(4)),
            ),
            ("no devices", Box::new(|c| c.devices.clear())),
        ];
        for (what, mutate) in mutations {
            let mut bad = ck.clone();
            mutate(&mut bad);
            // Through the JSON codec too: the parser accepts well-formed
            // indices, restore is what knows the dimensions.
            let parsed = ExecCheckpoint::from_json(&bad.to_json()).expect(what);
            assert!(
                ExecEngine::restore(&d, &priors, &parsed).is_err(),
                "{what} must be rejected"
            );
        }
    }

    #[test]
    fn version_and_kind_mismatches_are_rejected() {
        let d = small_dataset();
        let priors = flat_priors(&d);
        let cfg = SimConfig::new(4.0);
        let engine = ExecEngine::new(
            &d,
            &priors,
            SchedulerKind::RoundRobin,
            &cfg,
            Fleet::uniform(2),
            7,
            RecorderHandle::noop(),
        );
        let mut ck = engine.checkpoint();
        ck.version = 99;
        assert!(ExecCheckpoint::from_json(&ck.to_json())
            .unwrap_err()
            .contains("version"));
        ck.version = EXEC_CHECKPOINT_VERSION;
        for kind in ["most-cited", "greedy(nope)", "ease-ml"] {
            ck.kind = kind.into();
            let err = ExecEngine::restore(&d, &priors, &ck)
                .err()
                .expect("unknown and heuristic kinds must be rejected");
            assert!(err.contains("unknown scheduler kind"), "{err}");
        }
    }

    #[test]
    fn restored_engine_finishes_like_the_original() {
        // Coarse end-to-end check (the bit-exact invariant lives in
        // tests/invariants.rs): restore at tick 5 and finish both.
        let d = small_dataset();
        let priors = flat_priors(&d);
        let cfg = SimConfig::new(6.0);
        let reference = simulate_multi_device(&d, &priors, SchedulerKind::RoundRobin, &cfg, 2, 7);
        let mut engine = ExecEngine::new(
            &d,
            &priors,
            SchedulerKind::RoundRobin,
            &cfg,
            Fleet::uniform(2),
            7,
            RecorderHandle::noop(),
        );
        for _ in 0..5 {
            assert!(engine.tick());
        }
        let ck = engine.checkpoint();
        let restored = ExecEngine::restore(&d, &priors, &ck).expect("restore");
        let trace = restored.run();
        assert_eq!(trace.sim.events, reference.sim.events);
        assert_eq!(trace.sim.points, reference.sim.points);
        assert_eq!(trace.makespan, reference.makespan);
    }
}
