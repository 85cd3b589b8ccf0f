//! The stage-worker event loop.
//!
//! One worker process serves one pipeline stage. It holds two connections
//! to the orchestrator — a reliable control link (handshake, acks, rekeys,
//! lifecycle) and a chaos-exposed data link (sealed activation frames) —
//! and never talks to another worker directly: inter-stage frames are
//! relayed by the orchestrator, which cannot read them because each edge's
//! keys are derived end-to-end from the cluster seed.
//!
//! Lifecycle, in lockstep with the orchestrator's script:
//!
//! 1. `Hello{stage}` on control, `DataHello{stage}` on data;
//! 2. wait `Welcome{stages}`, then the `ShardManifest`; verify the shard's
//!    weight hash locally and reply `ManifestAck`;
//! 3. derive the in/out edge crypto from the manifest's cluster seed (the
//!    same roots [`pipellm_gpu::cluster::ClusterContext`] derives);
//! 4. on `Start`, serve: open each incoming frame under the sentinel
//!    discipline, ACK/NACK it, run [`apply_stage`] over the stage's layer
//!    range, and seal the result onto the out edge;
//! 5. on `Finish`, drain in-flight traffic to quiescence, report per-edge
//!    counters with `Done`, and wait for `Shutdown`.
//!
//! Failure handling: a NACK retransmits one frame at a fresh IV; a dropped
//! data connection is reattached by the pump under the bounded
//! [`RetryPolicy`], after which the worker announces `LinkRestored` and
//! the orchestrator rekeys every adjacent edge — fresh keys, IV counters
//! back to 1 — before unacked frames are retransmitted in order.

use crate::checkpoint::{global_index, open_checkpoint, seal_checkpoint, CheckpointState};
use crate::error::{NetError, NetResult};
use crate::link::{
    empty_slot, install_sender, kill_slot, open_data, role_at, send_on, EdgeCrypto, LinkSender,
    LinkTx, RxOutcome, SenderSlot, WireEdge,
};
use crate::proto::{
    CheckpointReq, CheckpointSave, CounterReport, DataAck, DataFrame, EdgeCounterEntry, Heartbeat,
    Hello, ManifestAck, Msg, NetTuning, Restore, ShardManifest, HOST_NODE,
};
use crate::pump::{Pump, PumpEvent};
use crate::transport::{Reattach, Transport};
use pipellm::partition::{apply_stage, stage_weight_hash};
use pipellm_chaos::{ChaosInjector, FaultKind, RetryPolicy};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Pump tag of the control link.
const CONTROL: u32 = 0;
/// Pump tag of the data link.
const DATA: u32 = 1;

/// Backoff jitter fraction of the wire retry policy.
const WIRE_JITTER: f64 = 0.25;

/// Wire-scale retry policy: the chaos crate's defaults are tuned for the
/// microsecond-scale simulated pipeline; real sockets need milliseconds of
/// backoff and seconds of per-operation patience. Every knob comes from
/// [`NetTuning`] (env-overridable); this is the default tuning's policy.
pub fn wire_retry_policy() -> RetryPolicy {
    wire_policy(&NetTuning::default())
}

/// The wire retry policy under an explicit tuning.
pub fn wire_policy(tuning: &NetTuning) -> RetryPolicy {
    RetryPolicy {
        max_retries: tuning.max_retries,
        base_backoff: tuning.backoff_base,
        max_backoff: tuning.backoff_cap,
        jitter: WIRE_JITTER,
        op_timeout: tuning.wire_op_timeout,
    }
}

/// Tuning knobs of one worker.
#[derive(Clone)]
pub struct WorkerConfig {
    /// The stage this worker serves.
    pub stage: u32,
    /// Admission generation of this incarnation (0 for the first; the
    /// supervisor bumps it on every failover).
    pub generation: u32,
    /// Wire-scale retry policy for reconnects and retransmit escalation.
    pub policy: RetryPolicy,
    /// Receive-poll granularity of the pumps and the event loop.
    pub poll: Duration,
    /// Deadline for the handshake, the drain, and idle waits.
    pub op_timeout: Duration,
    /// Silence window that declares the data plane drained at `Finish`.
    pub quiet: Duration,
    /// Age at which an unacknowledged frame is retransmitted by the
    /// level-triggered sweep (covers losses no NACK or rekey reports).
    pub resend_after: Duration,
    /// Interval between control-channel heartbeats; `None` disables them
    /// (scripted tests that assert exact control traffic).
    pub heartbeat: Option<Duration>,
    /// How long an injected [`FaultKind::StageHang`] wedges the worker
    /// before it dies; sized past the supervisor's death deadline so a
    /// hang is always detected as a death.
    pub hang_for: Duration,
    /// Fault injector for the data send path
    /// ([`pipellm_chaos::FaultSite::NetLink`]) and the worker-process
    /// kill/hang path ([`pipellm_chaos::FaultSite::WorkerProcess`]).
    pub chaos: Option<Arc<ChaosInjector>>,
}

impl WorkerConfig {
    /// Chaos-free defaults for `stage` under the default [`NetTuning`].
    pub fn new(stage: u32) -> Self {
        Self::with_tuning(stage, &NetTuning::default())
    }

    /// Chaos-free defaults for `stage` under an explicit tuning.
    pub fn with_tuning(stage: u32, tuning: &NetTuning) -> Self {
        WorkerConfig {
            stage,
            generation: 0,
            policy: wire_policy(tuning),
            poll: tuning.poll_interval,
            op_timeout: tuning.op_timeout,
            quiet: tuning.quiet_window,
            resend_after: tuning.resend_after,
            heartbeat: Some(tuning.heartbeat_interval),
            hang_for: tuning.dead_after * 2,
            chaos: None,
        }
    }
}

/// The worker's two connections to the orchestrator.
pub struct WorkerLinks {
    /// Reliable control connection. Losing it is fatal.
    pub control: Box<dyn Transport>,
    /// Chaos-exposed data connection.
    pub data: Box<dyn Transport>,
    /// Reconnect provider for the data connection; `None` disables
    /// recovery (a drop then kills the run).
    pub data_reattach: Option<Box<dyn Reattach>>,
}

struct Worker {
    stage: u32,
    generation: u32,
    layers: std::ops::Range<u32>,
    micro_batches: u32,
    cluster_seed: u64,
    in_peer: u32,
    out_peer: u32,
    in_edge: WireEdge,
    out_edge: WireEdge,
    edges: BTreeMap<WireEdge, EdgeCrypto>,
    out_tx: LinkTx,
    processed: BTreeSet<(u32, u32)>,
    /// Computed outputs retained since the last committed checkpoint
    /// barrier, keyed `(iteration, micro_batch)`. A duplicate of an
    /// already-processed input re-forwards the retained output instead of
    /// recomputing — the redelivery path a failover downstream relies on.
    retained: BTreeMap<(u32, u32), Vec<u8>>,
    /// Latest checkpoint barrier this incarnation has handled.
    barrier: u64,
    /// Restores refused (unseal failure / stale or mismatched state).
    restores_refused: u64,
    control_slot: SenderSlot,
    data_slot: SenderSlot,
    policy: RetryPolicy,
    chaos: Option<Arc<ChaosInjector>>,
    heartbeat_seq: u64,
    last_heartbeat: Instant,
    retransmits: u64,
    sentinels: u64,
    reconnects: u64,
}

impl Worker {
    fn from_manifest(
        manifest: &ShardManifest,
        config: &WorkerConfig,
        control_slot: SenderSlot,
        data_slot: SenderSlot,
    ) -> Self {
        let stage = manifest.stage;
        let (in_peer, in_edge) = if stage == 0 {
            (HOST_NODE, WireEdge::between(stage, HOST_NODE))
        } else {
            (stage - 1, WireEdge::between(stage - 1, stage))
        };
        let (out_peer, out_edge) = if stage + 1 == manifest.stages {
            (HOST_NODE, WireEdge::between(stage, HOST_NODE))
        } else {
            (stage + 1, WireEdge::between(stage, stage + 1))
        };
        let mut edges = BTreeMap::new();
        for edge in [in_edge, out_edge] {
            edges.entry(edge).or_insert_with(|| {
                EdgeCrypto::new(manifest.cluster_seed, edge, role_at(edge, stage))
            });
        }
        Worker {
            stage,
            generation: config.generation,
            layers: manifest.layer_start..manifest.layer_end,
            micro_batches: manifest.micro_batches,
            cluster_seed: manifest.cluster_seed,
            in_peer,
            out_peer,
            in_edge,
            out_edge,
            edges,
            out_tx: LinkTx::default(),
            processed: BTreeSet::new(),
            retained: BTreeMap::new(),
            barrier: 0,
            restores_refused: 0,
            control_slot,
            data_slot,
            policy: config.policy,
            chaos: config.chaos.clone(),
            heartbeat_seq: 0,
            last_heartbeat: Instant::now(),
            retransmits: 0,
            sentinels: 0,
            reconnects: 0,
        }
    }

    /// Applies a relayed checkpoint to this (fresh) incarnation. Returns
    /// whether the state was accepted; anything that does not unseal and
    /// validate for exactly this stage and barrier is refused, and the
    /// worker serves from scratch instead — recomputation is always
    /// correct, the checkpoint only skips work.
    fn apply_restore(&mut self, restore: &Restore) -> bool {
        if restore.sealed.is_empty() {
            return false;
        }
        let state = match open_checkpoint(
            self.cluster_seed,
            self.stage,
            restore.barrier,
            &restore.sealed,
        ) {
            Ok(state) => state,
            Err(_) => {
                self.restores_refused += 1;
                return false;
            }
        };
        self.barrier = state.barrier;
        self.processed = state.processed.iter().copied().collect();
        self.retained = state
            .retained
            .iter()
            .map(|(it, mb, out)| ((*it, *mb), out.clone()))
            .collect();
        // Catch the edges up to their checkpointed epochs. IV positions
        // inside an epoch are never resumed: the dead incarnation may
        // have burned counters past the seal point, so the supervisor
        // force-rekeys every adjacent edge (epoch + 1, IVs back to 1)
        // right after this restore.
        for entry in &state.edges {
            let edge = WireEdge::between(entry.a.min(entry.b), entry.a.max(entry.b));
            if let Some(crypto) = self.edges.get_mut(&edge) {
                crypto.rekey_to(entry.epoch);
            }
        }
        true
    }

    /// Handles a checkpoint barrier: garbage-collects retained outputs the
    /// orchestrator has committed, seals the recovery state, and ships it
    /// upstream as an opaque blob.
    fn handle_checkpoint(&mut self, req: &CheckpointReq) -> NetResult<()> {
        if req.barrier <= self.barrier {
            return Ok(()); // duplicate or stale barrier announcement
        }
        self.barrier = req.barrier;
        let micro_batches = self.micro_batches;
        self.retained
            .retain(|&(it, mb), _| global_index(it, mb, micro_batches) >= req.prefix);
        let state = CheckpointState {
            stage: self.stage,
            generation: self.generation,
            barrier: req.barrier,
            processed: self.processed.iter().copied().collect(),
            retained: self
                .retained
                .iter()
                .map(|(&(it, mb), out)| (it, mb, out.clone()))
                .collect(),
            edges: self.report().edges,
        };
        let sealed = seal_checkpoint(self.cluster_seed, &state)?;
        self.control_send(&Msg::CheckpointSave(CheckpointSave {
            stage: self.stage,
            barrier: req.barrier,
            sealed,
        }))
    }

    /// Sends a heartbeat if the interval elapsed as of `now`. Sequence
    /// numbers are monotone within this incarnation.
    fn maybe_heartbeat(&mut self, now: Instant, interval: Option<Duration>) -> NetResult<()> {
        let Some(interval) = interval else {
            return Ok(());
        };
        if now.saturating_duration_since(self.last_heartbeat) < interval {
            return Ok(());
        }
        self.heartbeat_seq += 1;
        self.last_heartbeat = now;
        self.control_send(&Msg::Heartbeat(Heartbeat {
            stage: self.stage,
            generation: self.generation,
            seq: self.heartbeat_seq,
        }))
    }

    fn control_send(&self, msg: &Msg) -> NetResult<()> {
        send_on(&self.control_slot, &msg.encode()?, "control")
    }

    /// The out-edge in-flight set and, borrowed beside it, the edge's
    /// sending end. Link-down and injected-drop send outcomes are absorbed
    /// by every caller (the rekey cycle retransmits later).
    fn out_link(&mut self) -> NetResult<(&mut LinkTx, LinkSender<'_>)> {
        let crypto = self
            .edges
            .get_mut(&self.out_edge)
            .ok_or(NetError::Protocol {
                detail: "out edge missing".to_string(),
            })?;
        let sender = LinkSender {
            crypto,
            src: self.stage,
            dst: self.out_peer,
            chaos: self.chaos.as_ref(),
            policy: &self.policy,
            slot: &self.data_slot,
            link: "data",
        };
        Ok((&mut self.out_tx, sender))
    }

    /// Queues one output on the out edge and makes its first transmission.
    fn forward(&mut self, key: (u32, u32), output: Vec<u8>) -> NetResult<()> {
        let (tx, mut link) = self.out_link()?;
        link.send(tx.push(Instant::now(), key.0, key.1, output))?;
        Ok(())
    }

    fn handle_data(&mut self, frame: &DataFrame) -> NetResult<()> {
        if frame.src == frame.dst || frame.dst != self.stage || frame.src != self.in_peer {
            return Err(NetError::Protocol {
                detail: format!(
                    "stage {} got a misrouted frame {} -> {}",
                    self.stage, frame.src, frame.dst
                ),
            });
        }
        let crypto = self
            .edges
            .get_mut(&self.in_edge)
            .ok_or(NetError::Protocol {
                detail: "in edge missing".to_string(),
            })?;
        match open_data(crypto, frame) {
            RxOutcome::Plain(mut bytes) => {
                self.control_send(&Msg::AckData(DataAck {
                    src: frame.src,
                    dst: frame.dst,
                    seq: frame.seq,
                }))?;
                // Retransmitted duplicates are acked but processed once.
                let key = (frame.iteration, frame.micro_batch);
                if self.processed.insert(key) {
                    apply_stage(self.layers.clone(), &mut bytes);
                    self.retained.insert(key, bytes.clone());
                    self.forward(key, bytes)?;
                } else if !self.out_tx.has_payload(key.0, key.1) {
                    // A duplicate with nothing in flight means someone
                    // downstream lost our output (a failed-over stage
                    // re-requesting work). Re-forward the retained copy;
                    // if the barrier already garbage-collected it, the
                    // output is committed at the orchestrator and the ack
                    // alone settles the retransmit.
                    if let Some(out) = self.retained.get(&key).cloned() {
                        self.retransmits += 1;
                        self.forward(key, out)?;
                    }
                }
            }
            RxOutcome::Sentinel => {
                self.sentinels += 1;
                self.control_send(&Msg::NackData(DataAck {
                    src: frame.src,
                    dst: frame.dst,
                    seq: frame.seq,
                }))?;
            }
            RxOutcome::StaleEpoch => {}
        }
        Ok(())
    }

    /// Level-triggered retransmit: reseals anything unacknowledged past
    /// the resend threshold. This is the recovery of last resort for
    /// losses no NACK or `RekeyEdge` will ever report — a frame relayed
    /// into a dead destination link, or a rekey retransmit that raced an
    /// empty sender slot mid-reattach. Any IV burned into a down link is
    /// erased by the rekey that link's restoration triggers, so sweeping
    /// never breaks final-epoch lockstep.
    fn sweep(&mut self, now: Instant, threshold: Duration) -> NetResult<()> {
        let (tx, mut link) = self.out_link()?;
        self.retransmits += tx.sweep(now, threshold, |p| link.send(p).map(drop))?;
        Ok(())
    }

    fn handle_rekey(&mut self, a: u32, b: u32, epoch: u32) -> NetResult<()> {
        let edge = WireEdge::between(a.min(b), a.max(b));
        if let Some(crypto) = self.edges.get_mut(&edge) {
            crypto.rekey_to(epoch);
        }
        if edge == self.out_edge {
            // Everything unacked was sealed under retired keys; resend in
            // original order at the new epoch's fresh IVs.
            let (tx, mut link) = self.out_link()?;
            let resent = tx.in_flight() as u64;
            tx.pending_mut().try_for_each(|p| link.send(p).map(drop))?;
            self.retransmits += resent;
        }
        Ok(())
    }

    /// Handles one serving-phase event. Returns the control message that
    /// ends the phase (`Finish` / `Shutdown`), if this was one.
    fn handle_event(&mut self, tag: u32, event: PumpEvent) -> NetResult<Option<Msg>> {
        match event {
            PumpEvent::Frame(msg) => match msg {
                Msg::Data(frame) => {
                    self.handle_data(&frame)?;
                    Ok(None)
                }
                Msg::AckData(ack) => {
                    if ack.src == self.stage {
                        self.out_tx.ack(ack.seq);
                    }
                    Ok(None)
                }
                Msg::NackData(ack) => {
                    if ack.src == self.stage {
                        let (tx, mut link) = self.out_link()?;
                        if let Some(pending) = tx.get_mut(ack.seq) {
                            link.send(pending)?;
                            self.retransmits += 1;
                        }
                    }
                    Ok(None)
                }
                Msg::RekeyEdge(r) => {
                    self.handle_rekey(r.a, r.b, r.epoch)?;
                    Ok(None)
                }
                Msg::CheckpointReq(req) => {
                    self.handle_checkpoint(&req)?;
                    Ok(None)
                }
                Msg::Finish | Msg::Shutdown => Ok(Some(msg)),
                // Duplicated handshake traffic is idempotent noise, as are
                // heartbeat echoes and a late duplicate Restore.
                Msg::Welcome(_)
                | Msg::Manifest(_)
                | Msg::Start
                | Msg::HeartbeatAck(_)
                | Msg::Restore(_) => Ok(None),
                other => Err(NetError::Protocol {
                    detail: format!("stage {} got unexpected {:?}", self.stage, other),
                }),
            },
            PumpEvent::Down => Ok(None),
            PumpEvent::Up => {
                if tag == DATA {
                    self.reconnects += 1;
                    // Tell the orchestrator so it rekeys our edges; our
                    // unacked frames go out again on the RekeyEdge reply.
                    self.control_send(&Msg::LinkRestored { stage: self.stage })?;
                }
                Ok(None)
            }
            PumpEvent::Dead(e) => Err(e),
        }
    }

    fn report(&self) -> CounterReport {
        CounterReport {
            stage: self.stage,
            edges: self
                .edges
                .iter()
                .map(|(edge, crypto)| EdgeCounterEntry {
                    a: edge.a,
                    b: edge.b,
                    epoch: crypto.epoch(),
                    tx_iv: crypto.tx_iv(),
                    rx_iv: crypto.rx_iv(),
                })
                .collect(),
            retransmits: self.retransmits,
            sentinels: self.sentinels,
            reconnects: self.reconnects,
        }
    }
}

fn next_event(
    events: &mpsc::Receiver<(u32, PumpEvent)>,
    poll: Duration,
) -> NetResult<Option<(u32, PumpEvent)>> {
    match events.recv_timeout(poll) {
        Ok(ev) => Ok(Some(ev)),
        Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(NetError::Protocol {
            detail: "all pumps exited".to_string(),
        }),
    }
}

/// Runs one stage worker to completion: handshake, serve, drain, report.
/// Returns the end-of-run counter report this worker also sent upstream.
///
/// # Errors
///
/// Handshake violations, control-link loss, retry-budget exhaustion on the
/// data link, and protocol violations are all fatal and returned.
pub fn run_worker(links: WorkerLinks, config: WorkerConfig) -> NetResult<CounterReport> {
    let (events_tx, events) = mpsc::channel();
    let control_slot = empty_slot();
    let data_slot = empty_slot();

    let (ctl_sender, ctl_receiver) = links.control.split()?;
    install_sender(&control_slot, ctl_sender);
    let (data_sender, data_receiver) = links.data.split()?;
    install_sender(&data_slot, data_sender);

    let control_pump = Pump::spawn(
        CONTROL,
        ctl_receiver,
        None,
        control_slot.clone(),
        config.policy,
        config.poll,
        events_tx.clone(),
    );
    let data_pump = Pump::spawn(
        DATA,
        data_receiver,
        links.data_reattach,
        data_slot.clone(),
        config.policy,
        config.poll,
        events_tx,
    );

    send_on(
        &control_slot,
        &Msg::Hello(Hello {
            stage: config.stage,
            generation: config.generation,
        })
        .encode()?,
        "control",
    )?;
    send_on(
        &data_slot,
        &Msg::DataHello {
            stage: config.stage,
            generation: config.generation,
        }
        .encode()?,
        "data",
    )?;

    // --- Handshake: Welcome -> Manifest (verify + ack) -> Start ---------
    let deadline = Instant::now() + config.op_timeout;
    let mut stages = None;
    let mut manifest: Option<ShardManifest> = None;
    let mut restore: Option<Restore> = None;
    // The control and data pumps feed one queue with no cross-link
    // ordering: the first sealed frame can overtake Start, and a
    // replacement incarnation is attached while the deployment around it
    // keeps serving. Defer serve-phase traffic seen mid-handshake and
    // replay it once serving begins — after the restore, so a checkpoint
    // barrier the restored state already covers is the no-op it would be
    // while serving.
    let mut deferred: Vec<(u32, PumpEvent)> = Vec::new();
    loop {
        if Instant::now() > deadline {
            return Err(NetError::Timeout {
                op: "handshake",
                waited: config.op_timeout,
            });
        }
        let Some((tag, event)) = next_event(&events, config.poll)? else {
            continue;
        };
        if let PumpEvent::Frame(
            msg @ (Msg::Data(_)
            | Msg::AckData(_)
            | Msg::NackData(_)
            | Msg::RekeyEdge(_)
            | Msg::CheckpointReq(_)),
        ) = event
        {
            deferred.push((tag, PumpEvent::Frame(msg)));
            continue;
        }
        match event {
            PumpEvent::Frame(Msg::Welcome(w)) => stages = Some(w.stages),
            PumpEvent::Frame(Msg::Restore(r)) => restore = Some(r),
            PumpEvent::Frame(Msg::HeartbeatAck(_)) => {}
            PumpEvent::Frame(Msg::Manifest(m)) => {
                if m.stage != config.stage {
                    return Err(NetError::Handshake {
                        detail: format!("manifest for stage {}, we are {}", m.stage, config.stage),
                    });
                }
                if stages.is_some_and(|s| s != m.stages) {
                    return Err(NetError::Handshake {
                        detail: "manifest stage count contradicts welcome".to_string(),
                    });
                }
                let local = stage_weight_hash(m.layer_start..m.layer_end);
                if local != m.weight_hash {
                    return Err(NetError::Handshake {
                        detail: format!(
                            "weight hash mismatch on layers {}..{}: manifest {:#x}, local {:#x}",
                            m.layer_start, m.layer_end, m.weight_hash, local
                        ),
                    });
                }
                send_on(
                    &control_slot,
                    &Msg::ManifestAck(ManifestAck {
                        stage: m.stage,
                        weight_hash: local,
                    })
                    .encode()?,
                    "control",
                )?;
                manifest = Some(m);
            }
            PumpEvent::Frame(Msg::Start) => {
                if manifest.is_some() {
                    break;
                }
                return Err(NetError::Handshake {
                    detail: "start before manifest".to_string(),
                });
            }
            PumpEvent::Frame(Msg::Shutdown) => {
                return Err(NetError::Handshake {
                    detail: "shut down during handshake".to_string(),
                })
            }
            PumpEvent::Frame(other) => {
                return Err(NetError::Handshake {
                    detail: format!("unexpected {other:?} during handshake"),
                })
            }
            PumpEvent::Dead(e) => return Err(e),
            PumpEvent::Down | PumpEvent::Up => {}
        }
    }
    let manifest = manifest.ok_or(NetError::Handshake {
        detail: "no manifest".to_string(),
    })?;

    let mut worker = Worker::from_manifest(&manifest, &config, control_slot, data_slot);
    if let Some(r) = restore {
        worker.apply_restore(&r);
    }
    for (tag, event) in deferred {
        worker.handle_event(tag, event)?;
    }

    // --- Serve until Finish ---------------------------------------------
    let mut last_activity = Instant::now();
    loop {
        let now = Instant::now();
        if now.saturating_duration_since(last_activity) > config.op_timeout {
            return Err(NetError::Timeout {
                op: "serve",
                waited: config.op_timeout,
            });
        }
        worker.maybe_heartbeat(now, config.heartbeat)?;
        worker.sweep(now, config.resend_after)?;
        let Some((tag, event)) = next_event(&events, config.poll)? else {
            continue;
        };
        last_activity = Instant::now();
        // Worker-process chaos: a kill drops the whole process abruptly
        // (connections die mid-protocol, no goodbye); a hang wedges past
        // the supervisor's death deadline, then dies. Rolled once per
        // received *fresh* data frame (the envelope keys are cleartext, so
        // freshness is checkable pre-open), and only while serving —
        // duplicates arriving during the drain cannot kill a worker, and
        // recovery paths (the replacement incarnation) run with chaos
        // disabled, the escalation contract every retry loop in this
        // codebase follows.
        let fresh_work = match &event {
            PumpEvent::Frame(Msg::Data(f)) => {
                !worker.processed.contains(&(f.iteration, f.micro_batch))
            }
            _ => false,
        };
        if fresh_work {
            if let Some(fault) = worker.chaos.as_ref().and_then(|c| c.roll_worker()) {
                if fault.kind == FaultKind::StageHang {
                    std::thread::sleep(config.hang_for);
                }
                // Stop the pumps *before* killing the links: a pump that
                // notices the dead connection afterward exits instead of
                // entering its reattach path, so a dying incarnation never
                // resets a link generation out from under the replacement
                // the supervisor is about to admit.
                control_pump.stop();
                data_pump.stop();
                kill_slot(&worker.control_slot);
                kill_slot(&worker.data_slot);
                return Err(NetError::Protocol {
                    detail: format!(
                        "stage {} gen {}: injected worker {}",
                        config.stage,
                        config.generation,
                        fault.kind.label()
                    ),
                });
            }
        }
        match worker.handle_event(tag, event)? {
            Some(Msg::Finish) => break,
            Some(Msg::Shutdown) => {
                // Aborted run: report what we have and leave.
                control_pump.stop();
                data_pump.stop();
                return Ok(worker.report());
            }
            _ => {}
        }
    }

    // --- Drain: serve until no in-flight frames and the link goes quiet -
    let drain_deadline = Instant::now() + config.op_timeout;
    let mut last_event = Instant::now();
    loop {
        let now = Instant::now();
        if worker.out_tx.in_flight() == 0
            && now.saturating_duration_since(last_event) >= config.quiet
        {
            break;
        }
        if now > drain_deadline {
            return Err(NetError::Timeout {
                op: "drain",
                waited: config.op_timeout,
            });
        }
        worker.maybe_heartbeat(now, config.heartbeat)?;
        worker.sweep(now, config.resend_after)?;
        if let Some((tag, event)) = next_event(&events, config.poll)? {
            // Heartbeat acks are liveness beacons, not data-plane traffic:
            // counting them as activity would keep the quiet window from
            // ever elapsing whenever the beacon interval is shorter than it.
            if !matches!(event, PumpEvent::Frame(Msg::HeartbeatAck(_))) {
                last_event = Instant::now();
            }
            worker.handle_event(tag, event)?;
        }
    }

    let mut last_report = worker.report();
    worker.control_send(&Msg::Done(last_report.clone()))?;

    // --- Wait for Shutdown. A sweep retransmit can race the first Done:
    // a duplicate opened now still advances counters, so any event that
    // changes the report triggers an updated Done — the orchestrator
    // audits whatever it last heard once the deployment is quiet. -------
    // No heartbeats past Done: the orchestrator may tear the deployment
    // down the moment the last report lands, and a beacon racing that
    // close would turn a clean exit into a spurious connection error.
    let bye_deadline = Instant::now() + config.op_timeout;
    loop {
        if Instant::now() > bye_deadline {
            return Err(NetError::Timeout {
                op: "shutdown",
                waited: config.op_timeout,
            });
        }
        match next_event(&events, config.poll)? {
            Some((_, PumpEvent::Frame(Msg::Shutdown))) => break,
            Some((_, PumpEvent::Dead(e))) => return Err(e),
            Some((tag, event)) => {
                worker.handle_event(tag, event)?;
                let now = worker.report();
                if now != last_report {
                    worker.control_send(&Msg::Done(now.clone()))?;
                    last_report = now;
                }
            }
            None => {}
        }
    }
    control_pump.stop();
    data_pump.stop();
    Ok(last_report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Role;
    use crate::proto::Welcome;
    use crate::transport::duplex_pair;
    use pipellm::partition::iteration_input;

    #[test]
    fn edge_layout_matches_the_star_topology() {
        let manifest = ShardManifest {
            stage: 1,
            stages: 3,
            layers: 6,
            layer_start: 2,
            layer_end: 4,
            weight_hash: 0,
            activation_bytes: 8,
            micro_batches: 1,
            iterations: 1,
            cluster_seed: 1,
        };
        let config = WorkerConfig::new(1);
        let w = Worker::from_manifest(&manifest, &config, empty_slot(), empty_slot());
        assert_eq!(w.in_peer, 0);
        assert_eq!(w.out_peer, 2);
        assert_eq!(w.in_edge, WireEdge::between(0, 1));
        assert_eq!(w.out_edge, WireEdge::between(1, 2));
        // Middle stage: device end of its in edge, host end of its out edge.
        assert_eq!(role_at(w.in_edge, 1), Role::ChannelDevice);
        assert_eq!(role_at(w.out_edge, 1), Role::ChannelHost);
    }

    const SEED: u64 = 0x77;
    const LEN: usize = 64;

    /// The orchestrator's end of a one-stage deployment, driven by hand.
    struct Scripted {
        worker: std::thread::JoinHandle<NetResult<CounterReport>>,
        ctl_tx: Box<dyn crate::transport::FrameSender>,
        ctl_rx: Box<dyn crate::transport::FrameReceiver>,
        data_tx: Box<dyn crate::transport::FrameSender>,
        data_rx: Box<dyn crate::transport::FrameReceiver>,
    }

    impl Scripted {
        /// Starts a stage-0 worker on duplex links and takes its greetings.
        fn start() -> Self {
            let (ctl_orch, ctl_worker, _) = duplex_pair("ctl");
            let (data_orch, data_worker, _) = duplex_pair("data");
            let worker = std::thread::spawn(move || {
                let mut config = WorkerConfig::new(0);
                // The scripted peer acks at its own pace; a sweep retransmit
                // would skew the exact IV counters these tests assert, and an
                // interleaved heartbeat would break the exact control script.
                config.resend_after = Duration::from_secs(120);
                config.heartbeat = None;
                run_worker(
                    WorkerLinks {
                        control: Box::new(ctl_worker),
                        data: Box::new(data_worker),
                        data_reattach: None,
                    },
                    config,
                )
            });
            let (ctl_tx, ctl_rx) = Box::new(ctl_orch).split().unwrap();
            let (data_tx, data_rx) = Box::new(data_orch).split().unwrap();
            let mut peer = Scripted {
                worker,
                ctl_tx,
                ctl_rx,
                data_tx,
                data_rx,
            };
            assert_eq!(
                peer.recv_ctl("hello"),
                Msg::Hello(Hello {
                    stage: 0,
                    generation: 0,
                }),
                "control greeting"
            );
            assert_eq!(
                peer.recv_data("data hello"),
                Msg::DataHello {
                    stage: 0,
                    generation: 0,
                }
            );
            peer
        }

        fn recv(rx: &mut Box<dyn crate::transport::FrameReceiver>, step: &str) -> Msg {
            // Generous: a starved single-core runner can stall the worker
            // thread for seconds while other tests hold the CPU.
            let frame = rx
                .recv_frame(Duration::from_secs(60))
                .unwrap_or_else(|e| panic!("waiting for {step}: {e}"));
            Msg::decode(&frame).unwrap_or_else(|e| panic!("decoding {step}: {e}"))
        }

        fn recv_ctl(&mut self, step: &str) -> Msg {
            Self::recv(&mut self.ctl_rx, step)
        }

        fn recv_data(&mut self, step: &str) -> Msg {
            Self::recv(&mut self.data_rx, step)
        }

        fn send_ctl(&mut self, msg: &Msg) {
            self.ctl_tx.send_frame(&msg.encode().unwrap()).unwrap();
        }

        /// Welcome and manifest out, the worker's manifest ack back.
        fn admit(&mut self) {
            self.send_ctl(&Msg::Welcome(Welcome { stages: 1 }));
            self.send_ctl(&Msg::Manifest(ShardManifest {
                stage: 0,
                stages: 1,
                layers: 4,
                layer_start: 0,
                layer_end: 4,
                weight_hash: stage_weight_hash(0..4),
                activation_bytes: LEN as u64,
                micro_batches: 1,
                iterations: 1,
                cluster_seed: SEED,
            }));
            assert_eq!(
                self.recv_ctl("manifest ack"),
                Msg::ManifestAck(ManifestAck {
                    stage: 0,
                    weight_hash: stage_weight_hash(0..4),
                })
            );
        }
    }

    #[test]
    fn checkpoint_barrier_during_the_handshake_is_deferred_not_fatal() {
        // A replacement incarnation is admitted while the deployment around
        // it keeps serving, so a barrier broadcast can land between its
        // Manifest and its Start. It must reach serve and answer there.
        let mut peer = Scripted::start();
        peer.admit();
        peer.send_ctl(&Msg::CheckpointReq(CheckpointReq {
            barrier: 1,
            prefix: 0,
        }));
        peer.send_ctl(&Msg::Start);
        let Msg::CheckpointSave(save) = peer.recv_ctl("checkpoint save") else {
            panic!("the deferred barrier must be answered once serving");
        };
        assert_eq!((save.stage, save.barrier), (0, 1));
        let state = open_checkpoint(SEED, 0, 1, &save.sealed).expect("own checkpoint opens");
        assert_eq!(state.barrier, 1);
        peer.send_ctl(&Msg::Shutdown);
        peer.worker.join().unwrap().expect("clean exit");
    }

    #[test]
    fn single_stage_worker_serves_a_scripted_orchestrator() {
        let mut peer = Scripted::start();
        peer.admit();
        peer.send_ctl(&Msg::Start);

        // Host side of the stage-0 host edge: seal the input, open the
        // worker's reply, check it equals apply_stage of the input.
        let edge = WireEdge::between(0, HOST_NODE);
        let mut host = EdgeCrypto::new(SEED, edge, Role::ChannelHost);
        let input = iteration_input(SEED, 0, 0, LEN);
        let aad = DataFrame::bind_aad(HOST_NODE, 0, 0, 0, 0, LEN as u64);
        let sealed = host.seal(&aad, &input).unwrap();
        peer.data_tx
            .send_frame(
                &Msg::Data(DataFrame {
                    src: HOST_NODE,
                    dst: 0,
                    seq: 0,
                    epoch: 0,
                    iteration: 0,
                    micro_batch: 0,
                    sealed: sealed.bytes,
                })
                .encode()
                .unwrap(),
            )
            .unwrap();

        assert_eq!(
            peer.recv_ctl("data ack"),
            Msg::AckData(DataAck {
                src: HOST_NODE,
                dst: 0,
                seq: 0
            })
        );
        let Msg::Data(reply) = peer.recv_data("stage reply") else {
            panic!("expected the worker's output frame");
        };
        assert_eq!((reply.src, reply.dst), (0, HOST_NODE));
        let out = match open_data(&mut host, &reply) {
            RxOutcome::Plain(bytes) => bytes,
            other => panic!("expected plaintext, got {other:?}"),
        };
        let mut expected = input;
        apply_stage(0..4, &mut expected);
        assert_eq!(out, expected, "stage output must match apply_stage");
        peer.send_ctl(&Msg::AckData(DataAck {
            src: 0,
            dst: HOST_NODE,
            seq: reply.seq,
        }));

        peer.send_ctl(&Msg::Finish);
        let Msg::Done(report) = peer.recv_ctl("done report") else {
            panic!("expected the worker's counter report");
        };
        assert_eq!(report.stage, 0);
        assert_eq!(report.sentinels, 0);
        assert_eq!(report.edges.len(), 1);
        // One frame each way on the single host edge.
        assert_eq!(report.edges[0].tx_iv, 2);
        assert_eq!(report.edges[0].rx_iv, 2);
        peer.send_ctl(&Msg::Shutdown);

        let worker_report = peer.worker.join().unwrap().unwrap();
        assert_eq!(worker_report, report);
    }
}
