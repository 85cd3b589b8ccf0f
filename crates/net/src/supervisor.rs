//! Worker supervision: heartbeat deadlines, live failover, checkpoint
//! relay, and overload protection.
//!
//! Supervision is what [`crate::orchestrator::deploy`] adds when handed
//! [`SupervisedOptions`]: the same driver and lifecycle, with the hooks of
//! this module plugged into its serve loop — a health state machine over
//! the plain relay, live failover, checkpoint barriers on the committed
//! prefix, and the admission options. Every worker streams monotone-sequence heartbeats on
//! its control channel; the [`Supervisor`] classifies each stage as
//! healthy, suspected (one missed deadline), or dead (silence past the
//! death deadline, or a control-connection loss — the control link rides
//! the same process, so losing it *is* the process dying).
//!
//! A death triggers live failover:
//!
//! 1. the stage's admission **generation** is bumped — stale redials of
//!    the dead incarnation are rejected at identification;
//! 2. both of the stage's connection slots are killed and a replacement
//!    incarnation is spawned (or, in the multi-process deployment, an
//!    external respawn loop re-dials at the next generation);
//! 3. the replacement is re-admitted through the normal handshake
//!    (welcome → manifest → ack) and handed the latest AEAD-sealed
//!    checkpoint the dead incarnation shipped (watermark and edge epochs,
//!    no activations) — the orchestrator relays the blob *without being
//!    able to read it* (its keys derive from the workers' cluster seed);
//! 4. every adjacent edge is force-rekeyed — epoch bumped, IV counters
//!    reset to 1 — so no counter the dead incarnation burned is ever
//!    reused;
//! 5. every admitted session whose output is still missing is re-injected
//!    at ingress (at most one admission window); every stage whose output
//!    is neither committed nor still in flight recomputes it from the
//!    duplicate — nobody retained an activation — to exactly the same
//!    bytes. The run stays bit-identical to its fault-free twin.
//!
//! Overload protection is the [`AdmissionQueue`]: a bounded window of
//! in-flight sessions, deadline-aware shedding of requests that waited
//! too long, and a graceful drain mode that sheds everything still queued
//! while in-flight work completes.

use crate::error::{NetError, NetResult};
use crate::link::kill_slot;
use crate::orchestrator::{NetPipelineSpec, NetReport, Orchestrator};
use crate::proto::{CheckpointReq, CounterReport, Msg, NetTuning, Restore};
use crate::pump::PumpEvent;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Health classification of one stage worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerHealth {
    /// Heartbeats arriving within the suspicion deadline.
    Healthy,
    /// One suspicion deadline missed; recovers on any sign of life.
    Suspected,
    /// Declared dead (silence past the death deadline, or control-link
    /// loss); only a completed failover returns the stage to service.
    Dead,
}

/// Counters of everything the supervision layer did during one run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SupervisionStats {
    /// Heartbeats received (all incarnations).
    pub heartbeats: u64,
    /// Stages that crossed the suspicion deadline (may recover).
    pub suspicions: u64,
    /// Deaths detected (deadline expiry or control-connection loss).
    pub detections: u64,
    /// Failovers completed (replacement admitted and serving).
    pub failovers: u64,
    /// Checkpoint barriers broadcast.
    pub barriers: u64,
    /// Sealed checkpoint blobs stored (latest per stage kept).
    pub checkpoints_stored: u64,
    /// Restore messages relayed to replacement incarnations.
    pub restores_sent: u64,
    /// Connections rejected for presenting a stale generation.
    pub stale_rejects: u64,
    /// Sessions shed by the admission queue (deadline or drain).
    pub shed_sessions: u64,
    /// Admission ticks where sessions waited because the window was full.
    pub backpressure_events: u64,
}

/// Knobs of a supervised run, on top of the [`NetPipelineSpec`].
#[derive(Debug, Clone, Default)]
pub struct SupervisedOptions {
    /// Timing tuning (heartbeat interval, suspicion/death deadlines,
    /// checkpoint cadence); env-overridable via [`NetTuning::from_env`].
    pub tuning: NetTuning,
    /// Max sessions in flight at once; `None` is the deployment's
    /// [`crate::proto::INGRESS_WINDOW`].
    pub admission_window: Option<usize>,
    /// Queue-age deadline past which a not-yet-admitted session is shed;
    /// `None` never sheds on age.
    pub admission_deadline: Option<Duration>,
    /// After this many completed sessions, switch the admission queue to
    /// drain mode (shed everything still queued, finish what is in
    /// flight); `None` serves the full load.
    pub drain_after: Option<u64>,
}

/// Verdict on one received heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeatVerdict {
    /// Fresh beat of the current incarnation; deadline clock reset.
    Accepted,
    /// Stale generation or non-monotone sequence; ignored.
    Stale,
    /// A later generation than the supervisor admitted — an externally
    /// respawned incarnation announcing itself.
    Future,
}

/// Outcome of one deadline sweep.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TickReport {
    /// Stages that newly crossed the suspicion deadline.
    pub suspected: Vec<u32>,
    /// Stages that newly crossed the death deadline.
    pub dead: Vec<u32>,
}

struct StageState {
    health: WorkerHealth,
    generation: u32,
    last_seq: u64,
    last_heard: Instant,
    hello_seen: bool,
    manifest_acked: bool,
    data_up: bool,
}

/// The per-stage health state machine: pure, driven by explicit `now`
/// instants so every transition is unit-testable without sleeping.
pub struct Supervisor {
    suspect_after: Duration,
    dead_after: Duration,
    states: Vec<StageState>,
}

impl Supervisor {
    /// A supervisor for `stages` workers, all healthy as of `now`, at
    /// generation 0, under `tuning`'s deadlines.
    pub fn new(stages: u32, tuning: &NetTuning, now: Instant) -> Self {
        Supervisor {
            suspect_after: tuning.suspect_after,
            dead_after: tuning.dead_after,
            states: (0..stages)
                .map(|_| StageState {
                    health: WorkerHealth::Healthy,
                    generation: 0,
                    last_seq: 0,
                    last_heard: now,
                    hello_seen: false,
                    manifest_acked: false,
                    data_up: false,
                })
                .collect(),
        }
    }

    /// Current health of `stage`.
    pub fn health(&self, stage: u32) -> WorkerHealth {
        self.states[stage as usize].health
    }

    /// Admission generation of `stage`'s current incarnation.
    pub fn generation(&self, stage: u32) -> u32 {
        self.states[stage as usize].generation
    }

    /// Whether every stage is healthy.
    pub fn all_healthy(&self) -> bool {
        self.states
            .iter()
            .all(|s| s.health == WorkerHealth::Healthy)
    }

    /// Any sign of life from `stage`'s current incarnation: resets the
    /// deadline clock and clears a suspicion. A dead stage is *not*
    /// resurrected — only a completed failover does that.
    pub fn heard(&mut self, stage: u32, now: Instant) {
        let s = &mut self.states[stage as usize];
        if s.health == WorkerHealth::Dead {
            return;
        }
        s.last_heard = now;
        s.health = WorkerHealth::Healthy;
    }

    /// Classifies one heartbeat. Only a beat of the current generation
    /// with a strictly increasing sequence number counts as life.
    pub fn heartbeat(
        &mut self,
        stage: u32,
        generation: u32,
        seq: u64,
        now: Instant,
    ) -> BeatVerdict {
        {
            let s = &mut self.states[stage as usize];
            if generation > s.generation {
                return BeatVerdict::Future;
            }
            if generation < s.generation || seq <= s.last_seq {
                return BeatVerdict::Stale;
            }
            s.last_seq = seq;
        }
        self.heard(stage, now);
        BeatVerdict::Accepted
    }

    /// Adopts a later generation announced from outside (an externally
    /// respawned worker whose restart counter ran ahead of the
    /// supervisor's bookkeeping). No-op unless `generation` is newer.
    pub fn adopt_generation(&mut self, stage: u32, generation: u32) {
        let s = &mut self.states[stage as usize];
        if generation > s.generation {
            s.generation = generation;
            s.last_seq = 0;
        }
    }

    /// Deadline sweep: suspicion past `suspect_after` of silence, death
    /// past `dead_after`. Each transition is reported exactly once.
    pub fn tick(&mut self, now: Instant) -> TickReport {
        let mut report = TickReport::default();
        for (i, s) in self.states.iter_mut().enumerate() {
            if s.health == WorkerHealth::Dead {
                continue;
            }
            let silent = now.saturating_duration_since(s.last_heard);
            if silent > self.dead_after {
                s.health = WorkerHealth::Dead;
                report.dead.push(i as u32);
            } else if silent > self.suspect_after && s.health == WorkerHealth::Healthy {
                s.health = WorkerHealth::Suspected;
                report.suspected.push(i as u32);
            }
        }
        report
    }

    /// Marks `stage` dead at admission generation `generation` and arms
    /// the readmission flags the failover sequence sets one by one.
    pub fn begin_failover(&mut self, stage: u32, generation: u32, now: Instant) {
        let s = &mut self.states[stage as usize];
        s.health = WorkerHealth::Dead;
        s.generation = generation.max(s.generation);
        s.last_seq = 0;
        s.last_heard = now;
        s.hello_seen = false;
        s.manifest_acked = false;
        s.data_up = false;
    }

    /// The replacement's control connection is up (readmission trigger).
    pub fn note_control_up(&mut self, stage: u32) {
        self.states[stage as usize].hello_seen = true;
    }

    /// The replacement acked its shard manifest.
    pub fn note_manifest_acked(&mut self, stage: u32) {
        self.states[stage as usize].manifest_acked = true;
    }

    /// The replacement's data connection is up.
    pub fn note_data_up(&mut self, stage: u32) {
        self.states[stage as usize].data_up = true;
    }

    /// Whether a dead stage's replacement finished every readmission step
    /// (control up, manifest acked, data up) and can be started.
    pub fn ready_to_restart(&self, stage: u32) -> bool {
        let s = &self.states[stage as usize];
        s.health == WorkerHealth::Dead && s.hello_seen && s.manifest_acked && s.data_up
    }

    /// Returns the readmitted stage to service as of `now`.
    pub fn complete_failover(&mut self, stage: u32, now: Instant) {
        let s = &mut self.states[stage as usize];
        s.health = WorkerHealth::Healthy;
        s.last_heard = now;
    }
}

/// Bounded session admission with deadline shedding: the overload valve
/// in front of ingress. Pure — every method takes an explicit `now`.
pub struct AdmissionQueue {
    window: usize,
    deadline: Option<Duration>,
    pending: VecDeque<((u32, u32), Instant)>,
    in_flight: usize,
    draining: bool,
    shed: Vec<(u32, u32)>,
    backpressure_events: u64,
}

impl AdmissionQueue {
    /// A queue admitting at most `window` sessions at once; a session
    /// still queued past `deadline` is shed instead of admitted.
    pub fn new(window: usize, deadline: Option<Duration>) -> Self {
        AdmissionQueue {
            window: window.max(1),
            deadline,
            pending: VecDeque::new(),
            in_flight: 0,
            draining: false,
            shed: Vec::new(),
            backpressure_events: 0,
        }
    }

    /// Queues one session key, stamped with its arrival time. Sessions
    /// are admitted — and checked against the deadline — in queue order.
    pub fn enqueue(&mut self, key: (u32, u32), now: Instant) {
        if self.draining {
            self.shed.push(key);
            return;
        }
        self.pending.push_back((key, now));
    }

    /// Admits up to the window, shedding drained sessions and every
    /// expired session that reaches the head of the queue (so none is
    /// admitted late). Returns the keys admitted this tick. The work is
    /// per session admitted or shed, never per session queued.
    pub fn admit(&mut self, now: Instant) -> Vec<(u32, u32)> {
        if self.draining {
            self.shed.extend(self.pending.drain(..).map(|(k, _)| k));
        }
        let mut admitted = Vec::new();
        while let Some(&(key, enqueued)) = self.pending.front() {
            let expired = self
                .deadline
                .is_some_and(|deadline| now.saturating_duration_since(enqueued) > deadline);
            if !expired && self.in_flight >= self.window {
                break;
            }
            self.pending.pop_front();
            if expired {
                self.shed.push(key);
            } else {
                self.in_flight += 1;
                admitted.push(key);
            }
        }
        if !self.pending.is_empty() {
            self.backpressure_events += 1;
        }
        admitted
    }

    /// One admitted session completed; its window slot frees up.
    pub fn complete(&mut self) {
        self.in_flight = self.in_flight.saturating_sub(1);
    }

    /// Switches to drain mode: everything still queued is shed at the
    /// next `admit`, nothing new is accepted, in-flight work finishes.
    pub fn drain(&mut self) {
        self.draining = true;
    }

    /// Whether nothing is queued and nothing is in flight.
    pub fn idle(&self) -> bool {
        self.pending.is_empty() && self.in_flight == 0
    }

    /// Sessions shed so far, in shedding order.
    pub fn shed(&self) -> &[(u32, u32)] {
        &self.shed
    }

    /// Number of admission ticks that left sessions waiting on a full
    /// window.
    pub fn backpressure_events(&self) -> u64 {
        self.backpressure_events
    }
}

/// Outcome of one supervised run: the plain report plus supervision
/// counters and the served/shed session split.
#[derive(Debug, Clone)]
pub struct SupervisedReport {
    /// The underlying deployment report (outputs cover completed
    /// sessions only, in global order).
    pub net: NetReport,
    /// What the supervision layer did.
    pub stats: SupervisionStats,
    /// Session keys served to completion, in global order.
    pub completed: Vec<(u32, u32)>,
    /// Session keys shed by admission control, in shedding order.
    pub shed: Vec<(u32, u32)>,
}

/// Spawns a replacement incarnation of `stage` at `generation`; a
/// deployment whose workers are external processes has none (a respawn
/// loop outside re-dials at the next generation).
pub(crate) type Spawner = Box<dyn FnMut(u32, u32) + Send>;

/// What supervision adds to a deployment run: the per-run mutable state
/// and the hooks the one driver ([`crate::orchestrator`]) calls when — and
/// only when — it was handed [`SupervisedOptions`].
pub(crate) struct Supervision {
    pub(crate) supervisor: Supervisor,
    pub(crate) stats: SupervisionStats,
    /// Per stage, the latest sealed checkpoint as the ready-to-relay
    /// `Restore` — opaque to the orchestrator; empty: serve from scratch.
    restores: Vec<Msg>,
    /// Stage admission-generation cells, shared with the acceptor.
    gens: Arc<Vec<AtomicU32>>,
    /// Per-stage "failover in progress" latch: set when the teardown ran,
    /// cleared when the replacement is started. The health state alone
    /// cannot carry this — a deadline tick marks a stage dead *before*
    /// the failover actions run, and a control-link loss may race them.
    failing: Vec<bool>,
    spawner: Option<Spawner>,
    checkpoint_every: u64,
    /// Length of the contiguous committed prefix of outputs, in global
    /// order; it only ever advances.
    prefix: u64,
    barriers_done: u64,
}

impl Supervision {
    pub(crate) fn new(
        spec: &NetPipelineSpec,
        options: &SupervisedOptions,
        gens: Arc<Vec<AtomicU32>>,
        spawner: Option<Spawner>,
    ) -> Self {
        Supervision {
            supervisor: Supervisor::new(spec.stages, &options.tuning, Instant::now()),
            stats: SupervisionStats::default(),
            restores: vec![
                Msg::Restore(Restore {
                    barrier: 0,
                    sealed: Vec::new(),
                });
                spec.stages as usize
            ],
            gens,
            failing: vec![false; spec.stages as usize],
            spawner,
            checkpoint_every: u64::from(options.tuning.checkpoint_every.max(1)),
            prefix: 0,
            barriers_done: 0,
        }
    }

    /// Declares `stage` dead: bump the admission generation, kill both
    /// connection slots (stale redials of the dead incarnation now fail
    /// at identification), and spawn the replacement.
    fn fail_over(&mut self, orch: &Orchestrator, stage: u32, now: Instant) {
        if self.failing[stage as usize] {
            // Already mid-failover; the readmission sequence is running.
            return;
        }
        self.failing[stage as usize] = true;
        self.stats.detections += 1;
        let cell = &self.gens[stage as usize];
        cell.fetch_max(self.supervisor.generation(stage) + 1, Ordering::SeqCst);
        let adopted = cell.load(Ordering::SeqCst);
        self.supervisor.begin_failover(stage, adopted, now);
        kill_slot(&orch.control_slots[stage as usize]);
        kill_slot(&orch.data_slots[stage as usize]);
        if let Some(spawner) = self.spawner.as_mut() {
            spawner(stage, adopted);
        }
    }

    /// Handles one event with full supervision semantics; everything the
    /// supervision layer does not consume is delegated to the plain
    /// orchestrator handler (with dead-link losses absorbed).
    pub(crate) fn handle(
        &mut self,
        orch: &mut Orchestrator,
        tag: u32,
        event: PumpEvent,
        now: Instant,
    ) -> NetResult<Option<CounterReport>> {
        let stage = tag / 2;
        let is_control = tag.is_multiple_of(2);
        match event {
            PumpEvent::Frame(Msg::Heartbeat(hb)) => {
                self.stats.heartbeats += 1;
                match self.supervisor.heartbeat(stage, hb.generation, hb.seq, now) {
                    BeatVerdict::Accepted => {
                        orch.control_send_lossy(stage, &Msg::HeartbeatAck(hb))?;
                    }
                    BeatVerdict::Future => {
                        // An externally respawned incarnation the acceptor
                        // already admitted; adopt it and count the beat.
                        self.supervisor.adopt_generation(stage, hb.generation);
                        self.supervisor.heard(stage, now);
                        orch.control_send_lossy(stage, &Msg::HeartbeatAck(hb))?;
                    }
                    BeatVerdict::Stale => {}
                }
                Ok(None)
            }
            PumpEvent::Frame(Msg::CheckpointSave(save)) => {
                if save.stage != stage {
                    return Err(NetError::Protocol {
                        detail: format!("stage {stage} sent a checkpoint for {}", save.stage),
                    });
                }
                if let Msg::Restore(slot) = &mut self.restores[stage as usize] {
                    if save.barrier >= slot.barrier {
                        (slot.barrier, slot.sealed) = (save.barrier, save.sealed);
                        self.stats.checkpoints_stored += 1;
                    }
                }
                self.supervisor.heard(stage, now);
                Ok(None)
            }
            PumpEvent::Frame(Msg::Hello(h)) if h.stage == stage => {
                self.supervisor.adopt_generation(stage, h.generation);
                self.supervisor.heard(stage, now);
                Ok(None)
            }
            PumpEvent::Frame(Msg::ManifestAck(ack)) => {
                if self.supervisor.health(stage) != WorkerHealth::Dead {
                    return Err(NetError::Protocol {
                        detail: format!("unexpected ManifestAck from live stage {stage}"),
                    });
                }
                orch.spec.check_manifest_ack(stage, &ack)?;
                // Relay the latest sealed checkpoint — or an empty restore
                // meaning "serve from scratch". The blob is opaque here;
                // only the worker holds the key that opens it.
                orch.control_send_lossy(stage, &self.restores[stage as usize])?;
                self.stats.restores_sent += 1;
                self.supervisor.note_manifest_acked(stage);
                Ok(None)
            }
            PumpEvent::Down => {
                // The control link shares the worker's fate: losing it is
                // the process dying, no deadline wait needed. `fail_over`
                // itself latches, so the loss its own teardown induces
                // (or a tick that beat this event to the declaration)
                // cannot double-fire.
                if is_control {
                    self.fail_over(orch, stage, now);
                }
                Ok(None)
            }
            PumpEvent::Up => {
                if self.supervisor.health(stage) == WorkerHealth::Dead {
                    if is_control {
                        // Readmission trigger: the replacement's control
                        // connection is attached. Re-run its handshake.
                        let cell = self.gens[stage as usize].load(Ordering::SeqCst);
                        self.supervisor.adopt_generation(stage, cell);
                        self.supervisor.note_control_up(stage);
                        for msg in orch.spec.admission_msgs(stage) {
                            orch.control_send_lossy(stage, &msg)?;
                        }
                    } else {
                        self.supervisor.note_data_up(stage);
                    }
                    Ok(None)
                } else {
                    orch.handle_event(tag, PumpEvent::Up)
                }
            }
            PumpEvent::Frame(msg) => {
                self.supervisor.heard(stage, now);
                match orch.handle_event(tag, PumpEvent::Frame(msg)) {
                    Ok(report) => Ok(report),
                    // An ack/nack relay into a dead stage's slot; its
                    // failover replays everything that matters.
                    Err(NetError::ConnectionLost { .. }) => Ok(None),
                    Err(e) => Err(e),
                }
            }
            PumpEvent::Dead(e) => Err(e),
        }
    }

    /// One serve-loop turn of supervision, after the turn's event (if
    /// any) was handled: sweep the deadlines, fail over what died, return
    /// readmitted replacements to service, announce due barriers.
    pub(crate) fn supervise(&mut self, orch: &mut Orchestrator, now: Instant) -> NetResult<()> {
        let ticked = self.supervisor.tick(now);
        self.stats.suspicions += ticked.suspected.len() as u64;
        for stage in ticked.dead {
            self.fail_over(orch, stage, now);
        }
        self.restart_ready(orch, now)?;
        self.checkpoint_barriers(orch)
    }

    /// Completes the failover of any stage whose readmission steps all
    /// landed: start it, force-rekey every adjacent edge (fresh epoch,
    /// IVs back to 1 — nothing the dead incarnation burned is reused),
    /// and re-inject every outstanding session no longer being driven at
    /// ingress.
    fn restart_ready(&mut self, orch: &mut Orchestrator, now: Instant) -> NetResult<()> {
        for stage in 0..orch.spec.stages {
            if !self.supervisor.ready_to_restart(stage) {
                continue;
            }
            orch.control_send_lossy(stage, &Msg::Start)?;
            orch.rekey_adjacent(stage)?;
            let lost: Vec<(u32, u32)> = orch
                .outstanding
                .iter()
                .copied()
                .filter(|&(iteration, micro_batch)| {
                    !orch.ingress_tx.has_payload(iteration, micro_batch)
                })
                .collect();
            for (iteration, micro_batch) in lost {
                orch.inject(iteration, micro_batch)?;
            }
            self.supervisor.complete_failover(stage, now);
            self.failing[stage as usize] = false;
            self.stats.failovers += 1;
        }
        Ok(())
    }

    /// Checkpoint barriers ride the contiguous committed prefix: every
    /// `checkpoint_every` outputs, each worker advances its watermark to
    /// the prefix, seals its state and ships it up. A stage mid-failover
    /// is skipped: its replacement is handed the stored checkpoint, and
    /// the next barrier reaches it once it serves.
    fn checkpoint_barriers(&mut self, orch: &Orchestrator) -> NetResult<()> {
        let micro_batches = u64::from(orch.spec.micro_batches);
        while orch.outputs.contains_key(&(
            (self.prefix / micro_batches) as u32,
            (self.prefix % micro_batches) as u32,
        )) {
            self.prefix += 1;
        }
        while self.prefix / self.checkpoint_every > self.barriers_done {
            self.barriers_done += 1;
            self.stats.barriers += 1;
            let req = Msg::CheckpointReq(CheckpointReq {
                barrier: self.barriers_done,
                prefix: self.prefix,
            });
            for stage in (0..orch.spec.stages).filter(|&s| !self.failing[s as usize]) {
                orch.control_send_lossy(stage, &req)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::{deploy, Wire};

    fn tight_tuning() -> NetTuning {
        NetTuning {
            heartbeat_interval: Duration::from_millis(10),
            suspect_after: Duration::from_millis(60),
            dead_after: Duration::from_millis(150),
            checkpoint_every: 2,
            ..NetTuning::default()
        }
    }

    fn small_spec() -> NetPipelineSpec {
        NetPipelineSpec {
            stages: 3,
            layers: 6,
            iterations: 2,
            micro_batches: 2,
            activation_bytes: 256,
            seed: 0xBEEF,
            op_timeout: Duration::from_secs(60),
            ..NetPipelineSpec::default()
        }
    }

    #[test]
    fn admission_window_bounds_in_flight() {
        let base = Instant::now();
        let mut q = AdmissionQueue::new(2, None);
        for i in 0..5u32 {
            q.enqueue((0, i), base);
        }
        assert_eq!(q.admit(base).len(), 2);
        assert_eq!(q.admit(base).len(), 0, "window full");
        assert!(q.backpressure_events() >= 2);
        q.complete();
        assert_eq!(q.admit(base).len(), 1);
        q.complete();
        q.complete();
        assert_eq!(q.admit(base).len(), 2);
        assert!(!q.idle());
        q.complete();
        q.complete();
        q.complete();
        assert!(q.idle());
        assert!(q.shed().is_empty());
    }

    #[test]
    fn admission_deadline_sheds_stale_sessions() {
        let base = Instant::now();
        // Zero deadline: the first window is admitted at enqueue age zero
        // (strictly-greater comparison), everything still queued at a
        // later tick has positive age and is shed.
        let mut q = AdmissionQueue::new(2, Some(Duration::ZERO));
        for i in 0..4u32 {
            q.enqueue((0, i), base);
        }
        assert_eq!(q.admit(base), vec![(0, 0), (0, 1)]);
        q.complete();
        assert_eq!(q.admit(base + Duration::from_millis(1)).len(), 0);
        assert_eq!(q.shed(), &[(0, 2), (0, 3)]);
    }

    #[test]
    fn expired_sessions_are_shed_while_the_window_is_full() {
        let base = Instant::now();
        let mut q = AdmissionQueue::new(1, Some(Duration::from_millis(5)));
        q.enqueue((0, 0), base);
        q.enqueue((0, 1), base);
        q.enqueue((0, 2), base + Duration::from_millis(8));
        assert_eq!(q.admit(base), vec![(0, 0)]);
        // The window is still full; the expired head goes, the session
        // behind it is young enough to keep waiting.
        assert_eq!(q.admit(base + Duration::from_millis(10)), vec![]);
        assert_eq!(q.shed(), &[(0, 1)]);
        q.complete();
        assert_eq!(q.admit(base + Duration::from_millis(10)), vec![(0, 2)]);
    }

    #[test]
    fn admission_drain_sheds_everything_queued() {
        let base = Instant::now();
        let mut q = AdmissionQueue::new(1, None);
        for i in 0..3u32 {
            q.enqueue((1, i), base);
        }
        assert_eq!(q.admit(base), vec![(1, 0)]);
        q.drain();
        q.enqueue((9, 9), base); // rejected outright while draining
        assert_eq!(q.admit(base).len(), 0);
        assert_eq!(q.shed(), &[(9, 9), (1, 1), (1, 2)]);
        assert!(!q.idle(), "in-flight work still finishes");
        q.complete();
        assert!(q.idle());
    }

    #[test]
    fn heartbeats_must_be_monotone_and_current_generation() {
        let base = Instant::now();
        let mut sup = Supervisor::new(2, &tight_tuning(), base);
        assert_eq!(sup.heartbeat(0, 0, 1, base), BeatVerdict::Accepted);
        assert_eq!(sup.heartbeat(0, 0, 1, base), BeatVerdict::Stale, "replay");
        assert_eq!(sup.heartbeat(0, 0, 2, base), BeatVerdict::Accepted);
        sup.begin_failover(0, 1, base);
        assert_eq!(
            sup.heartbeat(0, 0, 3, base),
            BeatVerdict::Stale,
            "dead incarnation's beacon"
        );
        assert_eq!(
            sup.heartbeat(0, 2, 1, base),
            BeatVerdict::Future,
            "externally respawned incarnation"
        );
        assert_eq!(sup.heartbeat(0, 1, 1, base), BeatVerdict::Accepted);
    }

    #[test]
    fn silence_crosses_suspicion_then_death_exactly_once() {
        let tuning = tight_tuning();
        let base = Instant::now();
        let mut sup = Supervisor::new(2, &tuning, base);
        assert!(sup
            .tick(base + Duration::from_millis(10))
            .suspected
            .is_empty());
        let t1 = base + tuning.suspect_after + Duration::from_millis(1);
        assert_eq!(sup.tick(t1).suspected, vec![0, 1]);
        assert_eq!(sup.health(0), WorkerHealth::Suspected);
        assert!(sup.tick(t1).suspected.is_empty(), "reported once");
        // Stage 1 shows life and recovers; stage 0 stays silent and dies.
        sup.heard(1, t1);
        assert_eq!(sup.health(1), WorkerHealth::Healthy);
        let t2 = base + tuning.dead_after + Duration::from_millis(1);
        let ticked = sup.tick(t2);
        assert_eq!(ticked.dead, vec![0]);
        assert_eq!(sup.health(0), WorkerHealth::Dead);
        assert!(sup.tick(t2).dead.is_empty(), "death reported once");
        // A dead stage is not resurrected by late signs of life.
        sup.heard(0, t2);
        assert_eq!(sup.health(0), WorkerHealth::Dead);
        assert!(!sup.all_healthy());
    }

    #[test]
    fn readmission_requires_all_three_steps() {
        let base = Instant::now();
        let mut sup = Supervisor::new(1, &tight_tuning(), base);
        sup.begin_failover(0, 1, base);
        assert_eq!(sup.generation(0), 1);
        assert!(!sup.ready_to_restart(0));
        sup.note_control_up(0);
        sup.note_data_up(0);
        assert!(!sup.ready_to_restart(0), "manifest not acked yet");
        sup.note_manifest_acked(0);
        assert!(sup.ready_to_restart(0));
        sup.complete_failover(0, base);
        assert_eq!(sup.health(0), WorkerHealth::Healthy);
        assert!(!sup.ready_to_restart(0), "only dead stages restart");
        assert!(sup.all_healthy());
    }

    #[test]
    fn faultless_supervised_duplex_matches_reference() {
        let spec = small_spec();
        let options = SupervisedOptions {
            tuning: tight_tuning(),
            ..SupervisedOptions::default()
        };
        let report = deploy(&spec, Wire::Duplex, Some(&options)).expect("faultless run");
        assert_eq!(report.net.outputs, spec.expected_outputs());
        assert_eq!(report.stats.failovers, 0);
        assert_eq!(report.stats.detections, 0);
        assert!(report.stats.heartbeats > 0, "beacons must flow");
        assert!(report.stats.barriers > 0, "checkpoint barriers must fire");
        assert!(report.stats.checkpoints_stored > 0);
        assert_eq!(report.shed, Vec::new());
        assert_eq!(report.completed.len(), 4);
    }

    #[test]
    fn supervised_duplex_survives_worker_kills_bit_identically() {
        let spec = NetPipelineSpec {
            worker_fault_rate: 0.2,
            iterations: 3,
            ..small_spec()
        };
        let options = SupervisedOptions {
            tuning: tight_tuning(),
            ..SupervisedOptions::default()
        };
        let report = deploy(&spec, Wire::Duplex, Some(&options)).expect("supervised chaos run");
        assert_eq!(
            report.net.outputs,
            spec.expected_outputs(),
            "failover must keep the run bit-identical"
        );
        assert!(
            report.stats.failovers > 0,
            "a 20% kill rate must actually fire: {:?}",
            report.stats
        );
        assert_eq!(report.stats.failovers, report.stats.detections);
        assert!(report.net.rekeys > 0, "every failover force-rekeys");
    }

    #[test]
    fn admission_overload_sheds_and_still_audits() {
        let spec = NetPipelineSpec {
            iterations: 4,
            ..small_spec()
        };
        let options = SupervisedOptions {
            tuning: tight_tuning(),
            admission_window: Some(2),
            drain_after: Some(3),
            ..SupervisedOptions::default()
        };
        let report = deploy(&spec, Wire::Duplex, Some(&options)).expect("drained run");
        let expected = spec.expected_outputs();
        assert!(report.completed.len() >= 3, "drain finishes in-flight work");
        assert!(!report.shed.is_empty(), "drain sheds the queued remainder");
        assert_eq!(
            report.completed.len() + report.shed.len(),
            8,
            "every session is either served or shed"
        );
        // Served outputs are exactly the reference bytes of their keys.
        for (key, out) in report.completed.iter().zip(&report.net.outputs) {
            let index = (key.0 * spec.micro_batches + key.1) as usize;
            assert_eq!(out, &expected[index], "session {key:?}");
        }
        assert_eq!(report.stats.shed_sessions, report.shed.len() as u64);
        assert!(report.stats.backpressure_events > 0);
    }
}
