//! Worker supervision: heartbeat deadlines, live failover, checkpoint
//! relay, and overload protection.
//!
//! The supervised orchestrator layers a health state machine over the
//! plain relay loop. Every worker streams monotone-sequence heartbeats on
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
use crate::orchestrator::{
    audit_lockstep, dial_worker_links, digest_outputs, next_event, NetPipelineSpec, NetReport,
    Orchestrator,
};
use crate::proto::{
    CheckpointReq, CounterReport, Msg, NetTuning, Restore, Welcome, INGRESS_WINDOW, POLL_INTERVAL,
};
use crate::pump::{Pump, PumpEvent};
use crate::transport::{
    duplex_handle, duplex_pair, DuplexActive, DuplexCore, DuplexPassive, Reattach, TcpAcceptSlot,
    TcpTransport, Transport,
};
use crate::worker::{run_worker, WorkerConfig, WorkerLinks};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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
    /// [`INGRESS_WINDOW`].
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

/// One worker's connections from the supervised orchestrator's side —
/// unlike the plain deployment, the *control* link also carries a
/// reattach provider, because a replacement incarnation re-dials both.
pub struct SupervisedLinks {
    /// The stage these connections belong to.
    pub stage: u32,
    /// Control connection.
    pub control: Box<dyn Transport>,
    /// Reattach provider for the control connection.
    pub control_reattach: Option<Box<dyn Reattach>>,
    /// Data connection.
    pub data: Box<dyn Transport>,
    /// Reattach provider for the data connection.
    pub data_reattach: Option<Box<dyn Reattach>>,
}

/// Spawns a replacement incarnation of `stage` at `generation`; `None`
/// when an external respawn loop provides replacements.
pub type Spawner = Box<dyn FnMut(u32, u32) -> NetResult<()> + Send>;

/// Sends on a stage's control slot, absorbing a dead link — the stage's
/// failover re-synchronizes everything the lost message carried.
fn control_send_lossy(orch: &Orchestrator, stage: u32, msg: &Msg) -> NetResult<()> {
    match orch.control_send(stage, msg) {
        Ok(()) | Err(NetError::ConnectionLost { .. }) => Ok(()),
        Err(e) => Err(e),
    }
}

/// Per-run mutable supervision state shared across the drive phases.
struct Supervision {
    supervisor: Supervisor,
    stats: SupervisionStats,
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
}

impl Supervision {
    /// Declares `stage` dead: bump the admission generation, kill both
    /// connection slots (stale redials of the dead incarnation now fail
    /// at identification), and spawn the replacement.
    fn fail_over(&mut self, orch: &Orchestrator, stage: u32, now: Instant) -> NetResult<()> {
        if self.failing[stage as usize] {
            // Already mid-failover; the readmission sequence is running.
            return Ok(());
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
            spawner(stage, adopted)?;
        }
        Ok(())
    }

    /// Handles one event with full supervision semantics; everything the
    /// supervision layer does not consume is delegated to the plain
    /// orchestrator handler (with dead-link losses absorbed).
    fn handle(
        &mut self,
        orch: &mut Orchestrator,
        spec: &NetPipelineSpec,
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
                        control_send_lossy(orch, stage, &Msg::HeartbeatAck(hb))?;
                    }
                    BeatVerdict::Future => {
                        // An externally respawned incarnation the acceptor
                        // already admitted; adopt it and count the beat.
                        self.supervisor.adopt_generation(stage, hb.generation);
                        self.supervisor.heard(stage, now);
                        control_send_lossy(orch, stage, &Msg::HeartbeatAck(hb))?;
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
                if ack.stage != stage {
                    return Err(NetError::Handshake {
                        detail: format!("stage {stage} acked manifest for {}", ack.stage),
                    });
                }
                let expect = spec.manifest_for(stage).weight_hash;
                if ack.weight_hash != expect {
                    return Err(NetError::Handshake {
                        detail: format!(
                            "replacement stage {stage} weight hash {:#x}, expected {expect:#x}",
                            ack.weight_hash
                        ),
                    });
                }
                // Relay the latest sealed checkpoint — or an empty restore
                // meaning "serve from scratch". The blob is opaque here;
                // only the worker holds the key that opens it.
                control_send_lossy(orch, stage, &self.restores[stage as usize])?;
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
                    self.fail_over(orch, stage, now)?;
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
                        control_send_lossy(
                            orch,
                            stage,
                            &Msg::Welcome(Welcome {
                                stages: spec.stages,
                            }),
                        )?;
                        control_send_lossy(orch, stage, &Msg::Manifest(spec.manifest_for(stage)))?;
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

    /// Completes the failover of any stage whose readmission steps all
    /// landed: start it, force-rekey every adjacent edge (fresh epoch,
    /// IVs back to 1 — nothing the dead incarnation burned is reused),
    /// and re-inject every outstanding session no longer being driven at
    /// ingress.
    fn restart_ready(
        &mut self,
        orch: &mut Orchestrator,
        spec: &NetPipelineSpec,
        now: Instant,
    ) -> NetResult<()> {
        for stage in 0..spec.stages {
            if !self.supervisor.ready_to_restart(stage) {
                continue;
            }
            control_send_lossy(orch, stage, &Msg::Start)?;
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
}

/// Drives a supervised deployment over pre-established links: handshake,
/// admission-controlled serve with heartbeat supervision and live
/// failover, checkpoint barriers, sequenced drain, lockstep audit.
#[allow(clippy::too_many_lines)]
fn drive_supervised(
    spec: &NetPipelineSpec,
    options: &SupervisedOptions,
    links: Vec<SupervisedLinks>,
    spawner: Option<Spawner>,
    gens: Arc<Vec<AtomicU32>>,
    stale_rejects: Arc<AtomicU64>,
) -> NetResult<SupervisedReport> {
    spec.validate()?;
    if links.len() != spec.stages as usize {
        return Err(NetError::Protocol {
            detail: format!("{} links for {} stages", links.len(), spec.stages),
        });
    }
    let transport: String = links
        .first()
        .map(|l| {
            l.data
                .label()
                .chars()
                .take_while(char::is_ascii_alphabetic)
                .collect()
        })
        .unwrap_or_default();

    let (events_tx, events) = mpsc::channel();
    let mut control_slots = Vec::new();
    let mut data_slots = Vec::new();
    let mut pumps = Vec::new();
    let mut ordered: Vec<SupervisedLinks> = links;
    ordered.sort_by_key(|l| l.stage);
    for (i, link) in ordered.into_iter().enumerate() {
        if link.stage != i as u32 {
            return Err(NetError::Protocol {
                detail: format!("missing or duplicate links for stage {i}"),
            });
        }
        let control_slot = crate::link::empty_slot();
        let data_slot = crate::link::empty_slot();
        let (ctl_sender, ctl_receiver) = link.control.split()?;
        crate::link::install_sender(&control_slot, ctl_sender);
        let (data_sender, data_receiver) = link.data.split()?;
        crate::link::install_sender(&data_slot, data_sender);
        pumps.push(Pump::spawn(
            link.stage * 2,
            ctl_receiver,
            link.control_reattach,
            control_slot.clone(),
            spec.policy,
            spec.poll,
            events_tx.clone(),
        ));
        pumps.push(Pump::spawn(
            link.stage * 2 + 1,
            data_receiver,
            link.data_reattach,
            data_slot.clone(),
            spec.policy,
            spec.poll,
            events_tx.clone(),
        ));
        control_slots.push(control_slot);
        data_slots.push(data_slot);
    }
    drop(events_tx);

    let mut orch = Orchestrator::new(spec, control_slots, data_slots);
    let mut sup = Supervision {
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
    };

    // --- Handshake (chaos cannot fire before Start: worker faults roll
    // only on fresh data frames) -----------------------------------------
    for stage in 0..spec.stages {
        orch.control_send(
            stage,
            &Msg::Welcome(Welcome {
                stages: spec.stages,
            }),
        )?;
        orch.control_send(stage, &Msg::Manifest(spec.manifest_for(stage)))?;
    }
    let deadline = Instant::now() + spec.op_timeout;
    let mut acked = vec![false; spec.stages as usize];
    while acked.iter().any(|a| !a) {
        if Instant::now() > deadline {
            return Err(NetError::Timeout {
                op: "handshake",
                waited: spec.op_timeout,
            });
        }
        let Some((tag, event)) = next_event(&events, spec.poll)? else {
            continue;
        };
        let stage = tag / 2;
        match event {
            PumpEvent::Frame(Msg::ManifestAck(ack)) => {
                if ack.stage != stage {
                    return Err(NetError::Handshake {
                        detail: format!("stage {stage} acked manifest for {}", ack.stage),
                    });
                }
                let expect = spec.manifest_for(stage).weight_hash;
                if ack.weight_hash != expect {
                    return Err(NetError::Handshake {
                        detail: format!(
                            "stage {stage} weight hash {:#x}, expected {expect:#x}",
                            ack.weight_hash
                        ),
                    });
                }
                acked[stage as usize] = true;
            }
            PumpEvent::Frame(Msg::Hello(h)) if h.stage == stage => {}
            PumpEvent::Frame(Msg::DataHello { stage: s, .. }) if s == stage => {}
            PumpEvent::Frame(Msg::Heartbeat(_)) => {}
            PumpEvent::Frame(other) => {
                return Err(NetError::Handshake {
                    detail: format!("unexpected {other:?} from stage {stage} during handshake"),
                })
            }
            PumpEvent::Dead(e) => return Err(e),
            PumpEvent::Down | PumpEvent::Up => {}
        }
    }
    for stage in 0..spec.stages {
        orch.control_send(stage, &Msg::Start)?;
        sup.supervisor.heard(stage, Instant::now());
    }

    // --- Serve under admission control and supervision -------------------
    let mut admission = AdmissionQueue::new(
        options.admission_window.unwrap_or(INGRESS_WINDOW),
        options.admission_deadline,
    );
    let now = Instant::now();
    for iteration in 0..spec.iterations {
        for micro_batch in 0..spec.micro_batches {
            admission.enqueue((iteration, micro_batch), now);
        }
    }
    let mut completed_count = 0usize;
    // Length of the contiguous committed prefix of outputs, in global
    // order; it only ever advances.
    let mut prefix = 0u64;
    let mut barriers_done = 0u64;
    let checkpoint_every = u64::from(options.tuning.checkpoint_every.max(1));
    let mut last_activity = Instant::now();
    loop {
        let now = Instant::now();
        for (iteration, micro_batch) in admission.admit(now) {
            orch.inject(iteration, micro_batch)?;
        }

        if admission.idle()
            && orch.outstanding.is_empty()
            && orch.ingress_tx.in_flight() == 0
            && sup.supervisor.all_healthy()
        {
            break;
        }
        if now.saturating_duration_since(last_activity) > spec.op_timeout {
            return Err(NetError::Timeout {
                op: "serve",
                waited: spec.op_timeout,
            });
        }

        orch.sweep(now, spec.resend_after)?;
        if let Some((tag, event)) = next_event(&events, spec.poll)? {
            last_activity = Instant::now();
            if let Some(report) = sup.handle(&mut orch, spec, tag, event, last_activity)? {
                return Err(NetError::Protocol {
                    detail: format!("stage {} reported Done before Finish", report.stage),
                });
            }
        }

        let now = Instant::now();
        let ticked = sup.supervisor.tick(now);
        sup.stats.suspicions += ticked.suspected.len() as u64;
        for stage in ticked.dead {
            sup.fail_over(&orch, stage, now)?;
        }
        sup.restart_ready(&mut orch, spec, now)?;

        // Completions free admission slots (and may flip on drain mode).
        while completed_count < orch.outputs.len() {
            completed_count += 1;
            admission.complete();
            if options
                .drain_after
                .is_some_and(|n| completed_count as u64 >= n)
            {
                admission.drain();
            }
        }

        // Checkpoint barriers ride the contiguous committed prefix: every
        // `checkpoint_every` outputs, each worker advances its watermark
        // to the prefix, seals its state and ships it up. A stage
        // mid-failover is skipped: its replacement is handed the stored
        // checkpoint, and the next barrier reaches it once it serves.
        while orch.outputs.contains_key(&(
            (prefix / u64::from(spec.micro_batches)) as u32,
            (prefix % u64::from(spec.micro_batches)) as u32,
        )) {
            prefix += 1;
        }
        while prefix / checkpoint_every > barriers_done {
            barriers_done += 1;
            sup.stats.barriers += 1;
            let req = Msg::CheckpointReq(CheckpointReq {
                barrier: barriers_done,
                prefix,
            });
            for stage in (0..spec.stages).filter(|&s| !sup.failing[s as usize]) {
                control_send_lossy(&orch, stage, &req)?;
            }
        }
    }

    // --- Sequenced drain: identical discipline to the plain run; worker
    // chaos cannot fire here (only duplicates flow after serve) ----------
    let mut worker_reports: Vec<CounterReport> = Vec::new();
    for stage in 0..spec.stages {
        orch.control_send(stage, &Msg::Finish)?;
        let finish_deadline = Instant::now() + spec.op_timeout;
        loop {
            if Instant::now() > finish_deadline {
                return Err(NetError::Timeout {
                    op: "drain",
                    waited: spec.op_timeout,
                });
            }
            let Some((tag, event)) = next_event(&events, spec.poll)? else {
                continue;
            };
            let now = Instant::now();
            if let Some(report) = sup.handle(&mut orch, spec, tag, event, now)? {
                if report.stage == stage {
                    worker_reports.push(report);
                    break;
                }
                if let Some(slot) = worker_reports.iter_mut().find(|r| r.stage == report.stage) {
                    *slot = report;
                    continue;
                }
                return Err(NetError::Protocol {
                    detail: format!("expected Done from stage {stage}, got {}", report.stage),
                });
            }
        }
    }

    // --- Flush to quiescence, then audit lockstep ------------------------
    let flush_deadline = Instant::now() + spec.op_timeout;
    let mut quiet_since = Instant::now();
    while quiet_since.elapsed() < spec.quiet {
        if Instant::now() > flush_deadline {
            return Err(NetError::Timeout {
                op: "flush",
                waited: spec.op_timeout,
            });
        }
        if let Some((tag, event)) = next_event(&events, spec.poll)? {
            let now = Instant::now();
            if let Some(report) = sup.handle(&mut orch, spec, tag, event, now)? {
                if let Some(slot) = worker_reports.iter_mut().find(|r| r.stage == report.stage) {
                    *slot = report;
                }
            }
            quiet_since = Instant::now();
        }
    }

    let host_report = orch.host_report();
    audit_lockstep(&worker_reports, &host_report)?;

    for stage in 0..spec.stages {
        control_send_lossy(&orch, stage, &Msg::Shutdown)?;
    }
    for pump in &pumps {
        pump.stop();
    }

    // --- Assemble the report: completed sessions in global order ---------
    let (completed, outputs): (Vec<(u32, u32)>, Vec<Vec<u8>>) =
        std::mem::take(&mut orch.outputs).into_iter().unzip();
    let output_digest = digest_outputs(&outputs);
    let retransmits = orch.retransmits + worker_reports.iter().map(|r| r.retransmits).sum::<u64>();
    let sentinels = orch.sentinels + worker_reports.iter().map(|r| r.sentinels).sum::<u64>();
    let reconnects = worker_reports.iter().map(|r| r.reconnects).sum::<u64>();
    sup.stats.stale_rejects = stale_rejects.load(Ordering::SeqCst);
    sup.stats.shed_sessions = admission.shed().len() as u64;
    sup.stats.backpressure_events = admission.backpressure_events();
    let net = NetReport {
        transport,
        stages: spec.stages,
        outputs,
        output_digest,
        worker_reports,
        host_report,
        relayed_frames: orch.relayed,
        retransmits,
        sentinels,
        reconnects,
        rekeys: orch.rekeys,
        peak_in_flight: orch.peak_in_flight,
        lockstep_ok: true,
    };
    Ok(SupervisedReport {
        net,
        stats: sup.stats,
        completed,
        shed: admission.shed().to_vec(),
    })
}

/// The worker config of one supervised incarnation: tuning-driven
/// heartbeats and hang duration, spec-driven wire knobs. Chaos is armed
/// only on the first incarnation — replacements are the recovery path
/// and run fault-free, the escalation contract every retry loop in this
/// codebase follows.
fn supervised_worker_config(
    spec: &NetPipelineSpec,
    options: &SupervisedOptions,
    stage: u32,
    generation: u32,
) -> WorkerConfig {
    let mut config = WorkerConfig::with_tuning(stage, &options.tuning);
    config.generation = generation;
    config.policy = spec.policy;
    config.poll = spec.poll;
    config.op_timeout = spec.op_timeout;
    config.quiet = spec.quiet;
    config.resend_after = spec.resend_after;
    config.chaos = if generation == 0 {
        spec.injector_for(stage)
    } else {
        None
    };
    config
}

type WorkerHandle = (u32, u32, std::thread::JoinHandle<NetResult<CounterReport>>);

fn lock_handles(m: &Mutex<Vec<WorkerHandle>>) -> std::sync::MutexGuard<'_, Vec<WorkerHandle>> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Joins every worker incarnation. Errors from superseded generations are
/// the injected deaths the run recovered from and are ignored; an error
/// from a stage's *final* generation is real and fails the run.
fn join_supervised(
    handles: &Mutex<Vec<WorkerHandle>>,
    gens: &[AtomicU32],
    result: NetResult<SupervisedReport>,
) -> NetResult<SupervisedReport> {
    let list: Vec<WorkerHandle> = std::mem::take(&mut *lock_handles(handles));
    let mut worker_error = None;
    for (stage, gen, handle) in list {
        let final_gen = gens[stage as usize].load(Ordering::SeqCst);
        let superseded = gen < final_gen;
        match handle.join() {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => {
                if !superseded {
                    worker_error = Some(e);
                }
            }
            Err(_) => {
                if !superseded {
                    worker_error = Some(NetError::Protocol {
                        detail: "worker thread panicked".to_string(),
                    });
                }
            }
        }
    }
    match (result, worker_error) {
        (Ok(report), None) => Ok(report),
        (Err(orch), Some(worker)) => Err(NetError::Protocol {
            detail: format!("orchestrator: {orch}; worker: {worker}"),
        }),
        (Err(e), None) => Err(e),
        (Ok(_), Some(e)) => Err(e),
    }
}

/// An admission predicate for [`DuplexActive::pinned`]: the incarnation
/// stays admitted while the stage's generation cell has not moved past
/// `generation`. A refusal is counted as a stale reject — the same
/// accounting the TCP acceptor keeps when it drops a superseded
/// `DataHello`.
fn admission_guard(
    gens: &Arc<Vec<AtomicU32>>,
    rejects: &Arc<AtomicU64>,
    stage: u32,
    generation: u32,
) -> Box<dyn Fn() -> bool + Send> {
    let gens = Arc::clone(gens);
    let rejects = Arc::clone(rejects);
    Box::new(move || {
        if gens[stage as usize].load(Ordering::SeqCst) > generation {
            rejects.fetch_add(1, Ordering::SeqCst);
            false
        } else {
            true
        }
    })
}

/// Runs a supervised deployment on the in-process duplex transport with
/// in-thread replacement spawning — the hermetic harness the failover
/// tests and the chaos kill sweep drive.
///
/// # Errors
///
/// Handshake/protocol violations, exhausted budgets, phase timeouts,
/// lockstep-audit violations, and a final-generation worker failure.
pub fn run_supervised_duplex(
    spec: &NetPipelineSpec,
    options: &SupervisedOptions,
) -> NetResult<SupervisedReport> {
    spec.validate()?;
    let stages = spec.stages as usize;
    let gens: Arc<Vec<AtomicU32>> = Arc::new((0..stages).map(|_| AtomicU32::new(0)).collect());
    let stale_rejects = Arc::new(AtomicU64::new(0));
    let handles: Arc<Mutex<Vec<WorkerHandle>>> = Arc::new(Mutex::new(Vec::new()));
    let mut ctl_cores: Vec<Arc<DuplexCore>> = Vec::with_capacity(stages);
    let mut data_cores: Vec<Arc<DuplexCore>> = Vec::with_capacity(stages);
    let mut links = Vec::with_capacity(stages);
    for stage in 0..spec.stages {
        let (ctl_orch, ctl_worker, ctl_core) = duplex_pair(&format!("duplex-sctl{stage}"));
        let (data_orch, data_worker, data_core) = duplex_pair(&format!("duplex-s{stage}"));
        let worker_reattach = DuplexActive::pinned(
            Arc::clone(&data_core),
            1,
            format!("duplex-s{stage}-worker"),
            admission_guard(&gens, &stale_rejects, stage, 0),
        );
        links.push(SupervisedLinks {
            stage,
            control: Box::new(ctl_orch),
            control_reattach: Some(Box::new(DuplexPassive::new(
                Arc::clone(&ctl_core),
                0,
                format!("duplex-sctl{stage}-orch"),
            ))),
            data: Box::new(data_orch),
            data_reattach: Some(Box::new(DuplexPassive::new(
                Arc::clone(&data_core),
                0,
                format!("duplex-s{stage}-orch"),
            ))),
        });
        let config = supervised_worker_config(spec, options, stage, 0);
        let handle = std::thread::spawn(move || {
            run_worker(
                WorkerLinks {
                    control: Box::new(ctl_worker),
                    data: Box::new(data_worker),
                    data_reattach: Some(Box::new(worker_reattach)),
                },
                config,
            )
        });
        lock_handles(&handles).push((stage, 0, handle));
        ctl_cores.push(ctl_core);
        data_cores.push(data_core);
    }
    let spawner: Spawner = {
        let spec = spec.clone();
        let options = options.clone();
        let handles = Arc::clone(&handles);
        let gens = Arc::clone(&gens);
        let rejects = Arc::clone(&stale_rejects);
        Box::new(move |stage, generation| {
            let ctl_core = &ctl_cores[stage as usize];
            let data_core = &data_cores[stage as usize];
            // Fresh link generations: the orchestrator-side passive
            // reattach providers wake on these resets.
            ctl_core.reset();
            data_core.reset();
            let ctl = duplex_handle(ctl_core, 1, format!("duplex-sctl{stage}-g{generation}"));
            let data = duplex_handle(data_core, 1, format!("duplex-s{stage}-g{generation}"));
            let reattach = DuplexActive::pinned(
                Arc::clone(data_core),
                1,
                format!("duplex-s{stage}-g{generation}-worker"),
                admission_guard(&gens, &rejects, stage, generation),
            );
            let config = supervised_worker_config(&spec, &options, stage, generation);
            let handle = std::thread::spawn(move || {
                run_worker(
                    WorkerLinks {
                        control: Box::new(ctl),
                        data: Box::new(data),
                        data_reattach: Some(Box::new(reattach)),
                    },
                    config,
                )
            });
            lock_handles(&handles).push((stage, generation, handle));
            Ok(())
        })
    };
    let result = drive_supervised(
        spec,
        options,
        links,
        Some(spawner),
        Arc::clone(&gens),
        stale_rejects,
    );
    join_supervised(&handles, &gens, result)
}

/// Receives one identified connection from the acceptor with a deadline.
fn recv_accepted(
    rx: &mpsc::Receiver<TcpTransport>,
    deadline: Instant,
    op: &'static str,
) -> NetResult<TcpTransport> {
    let remaining = deadline
        .saturating_duration_since(Instant::now())
        .max(POLL_INTERVAL);
    match rx.recv_timeout(remaining) {
        Ok(t) => Ok(t),
        Err(mpsc::RecvTimeoutError::Timeout) => Err(NetError::Timeout {
            op,
            waited: remaining,
        }),
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(NetError::ConnectionLost {
            link: "acceptor".to_string(),
        }),
    }
}

/// Per-stage queues of identified connections, one receiver per stage.
type AcceptQueues = Vec<mpsc::Receiver<TcpTransport>>;

/// Spawns the generation-aware acceptor: every connection (control *and*
/// data, initial *and* re-dialed) identifies itself with its stage and
/// admission generation; anything below the stage's current generation is
/// a stale incarnation and is rejected, anything at or above it adopts
/// the generation cell forward and is routed to the stage's queue.
fn spawn_supervised_acceptor(
    listener: &std::net::TcpListener,
    stages: usize,
    ident_timeout: Duration,
    gens: Arc<Vec<AtomicU32>>,
    stale_rejects: Arc<AtomicU64>,
) -> NetResult<(AcceptQueues, AcceptQueues, std::thread::JoinHandle<()>)> {
    use crate::frame::read_frame;

    let mut ctl_txs = Vec::with_capacity(stages);
    let mut ctl_rxs = Vec::with_capacity(stages);
    let mut data_txs = Vec::with_capacity(stages);
    let mut data_rxs = Vec::with_capacity(stages);
    for _ in 0..stages {
        let (tx, rx) = mpsc::channel::<TcpTransport>();
        ctl_txs.push(tx);
        ctl_rxs.push(rx);
        let (tx, rx) = mpsc::channel::<TcpTransport>();
        data_txs.push(tx);
        data_rxs.push(rx);
    }
    let acceptor_listener = listener
        .try_clone()
        .map_err(|e| NetError::io("try_clone", &e))?;
    let handle = std::thread::spawn(move || loop {
        let Ok((stream, peer)) = acceptor_listener.accept() else {
            return;
        };
        // A connected-but-silent peer gets a bounded identification
        // window, not forever.
        if stream.set_read_timeout(Some(ident_timeout)).is_err() {
            continue;
        }
        let mut transport = TcpTransport::new(stream, format!("tcp-{peer}"));
        let Ok(first) = read_frame(&mut transport.stream, "accept") else {
            continue;
        };
        if transport.stream.set_read_timeout(None).is_err() {
            continue;
        }
        let (stage, generation, is_control) = match Msg::decode(&first) {
            Ok(Msg::Hello(h)) => (h.stage, h.generation, true),
            Ok(Msg::DataHello { stage, generation }) => (stage, generation, false),
            _ => continue,
        };
        if stage as usize >= stages {
            continue;
        }
        let cell = &gens[stage as usize];
        if generation < cell.load(Ordering::SeqCst) {
            // A redial of a superseded incarnation racing its own death:
            // rejected at identification, never spliced into a slot.
            stale_rejects.fetch_add(1, Ordering::SeqCst);
            continue;
        }
        cell.fetch_max(generation, Ordering::SeqCst);
        let routed = if is_control {
            ctl_txs[stage as usize].send(transport)
        } else {
            data_txs[stage as usize].send(transport)
        };
        if routed.is_err() {
            return; // every receiver is gone; the run is over
        }
    });
    Ok((ctl_rxs, data_rxs, handle))
}

/// Wakes and joins the acceptor thread after a run: flip the listener to
/// nonblocking first (the flag is checked at syscall entry), then dial
/// once to wake a thread already parked in `accept()`.
fn shutdown_acceptor(listener: &std::net::TcpListener, handle: std::thread::JoinHandle<()>) {
    drop(listener.set_nonblocking(true));
    if let Ok(addr) = listener.local_addr() {
        let _ = std::net::TcpStream::connect(addr);
    }
    let _ = handle.join();
}

/// Assembles the supervised per-stage links from the acceptor queues: the
/// first identified control/data connection per stage plus reattach
/// providers that keep pulling from the same queues for the run's life.
fn assemble_supervised_links(
    ctl_rxs: Vec<mpsc::Receiver<TcpTransport>>,
    data_rxs: Vec<mpsc::Receiver<TcpTransport>>,
    deadline: Instant,
) -> NetResult<Vec<SupervisedLinks>> {
    let mut links = Vec::with_capacity(ctl_rxs.len());
    for (stage, (ctl_rx, data_rx)) in ctl_rxs.into_iter().zip(data_rxs).enumerate() {
        let control = recv_accepted(&ctl_rx, deadline, "control accept")?;
        let data = recv_accepted(&data_rx, deadline, "data accept")?;
        links.push(SupervisedLinks {
            stage: stage as u32,
            control: Box::new(control),
            control_reattach: Some(Box::new(TcpAcceptSlot::new(ctl_rx))),
            data: Box::new(data),
            data_reattach: Some(Box::new(TcpAcceptSlot::new(data_rx))),
        });
    }
    Ok(links)
}

/// Runs a supervised deployment over real localhost TCP sockets, every
/// stage worker on its own thread, replacements spawned in-process — the
/// single-machine stand-in for the supervised multi-process deployment.
///
/// # Errors
///
/// As [`run_supervised_duplex`], plus socket-level failures.
pub fn run_supervised_tcp_threads(
    spec: &NetPipelineSpec,
    options: &SupervisedOptions,
) -> NetResult<SupervisedReport> {
    spec.validate()?;
    let listener =
        std::net::TcpListener::bind(("127.0.0.1", 0)).map_err(|e| NetError::io("bind", &e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| NetError::io("local_addr", &e))?;
    let stages = spec.stages as usize;
    let gens: Arc<Vec<AtomicU32>> = Arc::new((0..stages).map(|_| AtomicU32::new(0)).collect());
    let stale_rejects = Arc::new(AtomicU64::new(0));
    let handles: Arc<Mutex<Vec<WorkerHandle>>> = Arc::new(Mutex::new(Vec::new()));
    for stage in 0..spec.stages {
        let config = supervised_worker_config(spec, options, stage, 0);
        let handle = std::thread::spawn(move || {
            let links = dial_worker_links(addr, stage, 0, config.op_timeout)?;
            run_worker(links, config)
        });
        lock_handles(&handles).push((stage, 0, handle));
    }
    let (ctl_rxs, data_rxs, acceptor) = spawn_supervised_acceptor(
        &listener,
        stages,
        spec.op_timeout,
        Arc::clone(&gens),
        Arc::clone(&stale_rejects),
    )?;
    let links = match assemble_supervised_links(ctl_rxs, data_rxs, Instant::now() + spec.op_timeout)
    {
        Ok(links) => links,
        Err(e) => {
            shutdown_acceptor(&listener, acceptor);
            return join_supervised(&handles, &gens, Err(e));
        }
    };
    let spawner: Spawner = {
        let spec = spec.clone();
        let options = options.clone();
        let handles = Arc::clone(&handles);
        Box::new(move |stage, generation| {
            let config = supervised_worker_config(&spec, &options, stage, generation);
            let handle = std::thread::spawn(move || {
                let links = dial_worker_links(addr, stage, generation, config.op_timeout)?;
                run_worker(links, config)
            });
            lock_handles(&handles).push((stage, generation, handle));
            Ok(())
        })
    };
    let result = drive_supervised(
        spec,
        options,
        links,
        Some(spawner),
        Arc::clone(&gens),
        stale_rejects,
    );
    shutdown_acceptor(&listener, acceptor);
    join_supervised(&handles, &gens, result)
}

/// Serves a supervised deployment on an already-bound listener — the
/// entry point the `pipellm-orchestrator` binary uses with `--supervised`,
/// where workers are real processes and an *external* respawn loop
/// re-dials replacements at bumped generations (the CI smoke SIGKILLs a
/// stage worker mid-run and restarts it with `--generation <n>`).
///
/// # Errors
///
/// As [`run_supervised_tcp_threads`]; with no replacement arriving before
/// the serve deadline, the run fails with a timeout.
pub fn serve_supervised_tcp(
    spec: &NetPipelineSpec,
    options: &SupervisedOptions,
    listener: std::net::TcpListener,
) -> NetResult<SupervisedReport> {
    spec.validate()?;
    let stages = spec.stages as usize;
    let gens: Arc<Vec<AtomicU32>> = Arc::new((0..stages).map(|_| AtomicU32::new(0)).collect());
    let stale_rejects = Arc::new(AtomicU64::new(0));
    let (ctl_rxs, data_rxs, acceptor) = spawn_supervised_acceptor(
        &listener,
        stages,
        spec.op_timeout,
        Arc::clone(&gens),
        Arc::clone(&stale_rejects),
    )?;
    let links = match assemble_supervised_links(ctl_rxs, data_rxs, Instant::now() + spec.op_timeout)
    {
        Ok(links) => links,
        Err(e) => {
            shutdown_acceptor(&listener, acceptor);
            return Err(e);
        }
    };
    let result = drive_supervised(spec, options, links, None, gens, stale_rejects);
    shutdown_acceptor(&listener, acceptor);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let report = run_supervised_duplex(&spec, &options).expect("faultless run");
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
        let report = run_supervised_duplex(&spec, &options).expect("supervised chaos run");
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
        let report = run_supervised_duplex(&spec, &options).expect("drained run");
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
