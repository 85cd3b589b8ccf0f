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
//!
//! Recovery is by recomputation: the only plaintext a worker holds is the
//! out edge's unacknowledged frames ([`LinkTx`]). Of the work it did it
//! remembers a *watermark* — the committed prefix the last barrier
//! announced — and the processed indexes at or above it. A duplicate input
//! below the watermark (output committed) or with its output still
//! unacknowledged (the retransmit machinery owns it) is only acknowledged;
//! any other duplicate means someone downstream lost the output, and the
//! worker re-runs [`apply_stage`] on it and forwards the result again. A
//! replacement starts from the sealed checkpoint's watermark and edge
//! epochs and recomputes what the orchestrator re-injects — at most one
//! admission window of micro-batches.

use crate::checkpoint::{global_index, open_checkpoint, seal_checkpoint, CheckpointState};
use crate::error::{NetError, NetResult};
use crate::link::{
    empty_slot, install_sender, kill_slot, open_data, role_at, send_on, EdgeCrypto, LinkSender,
    LinkTx, RxOutcome, SenderSlot, WireEdge,
};
use crate::proto::{
    CheckpointReq, CheckpointSave, CounterReport, DataAck, DataFrame, EdgeCounterEntry, Heartbeat,
    Hello, ManifestAck, Msg, NetTuning, RekeyEdge, Restore, ShardManifest, HOST_NODE,
};
use crate::pump::{next_event, Pump, PumpEvent};
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
    /// The committed prefix the latest barrier (or the restored
    /// checkpoint) announced: every output with a [`global_index`] below
    /// it is committed at the orchestrator and is never produced again.
    watermark: u64,
    /// Global indexes at or above the watermark this incarnation has
    /// processed; pruned at every barrier, so it holds at most the
    /// admission window plus one barrier interval.
    processed: BTreeSet<u64>,
    /// Latest checkpoint barrier this incarnation has handled.
    barrier: u64,
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
            watermark: 0,
            processed: BTreeSet::new(),
            barrier: 0,
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

    /// Whether this incarnation still owes `(iteration, micro_batch)` its
    /// first computation: not committed, and not processed here.
    fn is_fresh(&self, iteration: u32, micro_batch: u32) -> bool {
        let index = global_index(iteration, micro_batch, self.micro_batches);
        index >= self.watermark && !self.processed.contains(&index)
    }

    /// Applies a relayed checkpoint to this (fresh) incarnation. Returns
    /// whether the state was accepted; anything that does not unseal and
    /// validate for exactly this stage and barrier — the empty "no
    /// checkpoint yet" blob included — is refused, and the worker serves
    /// from scratch instead: recomputation is always correct, the
    /// checkpoint only skips committed work.
    fn apply_restore(&mut self, restore: &Restore) -> bool {
        let Ok(state) = open_checkpoint(
            self.cluster_seed,
            self.stage,
            restore.barrier,
            &restore.sealed,
        ) else {
            return false;
        };
        self.barrier = state.barrier;
        self.watermark = state.prefix;
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

    /// Handles a checkpoint barrier: advances the watermark to the
    /// committed prefix, forgets the processed indexes below it, seals the
    /// constant-size recovery state, and ships it upstream as an opaque
    /// blob.
    fn handle_checkpoint(&mut self, req: &CheckpointReq) -> NetResult<()> {
        if req.barrier <= self.barrier {
            return Ok(()); // duplicate or stale barrier announcement
        }
        self.barrier = req.barrier;
        self.watermark = req.prefix;
        self.processed = self.processed.split_off(&req.prefix);
        let state = CheckpointState {
            stage: self.stage,
            barrier: req.barrier,
            prefix: req.prefix,
            edges: self
                .edges
                .iter()
                .map(|(edge, crypto)| RekeyEdge {
                    a: edge.a,
                    b: edge.b,
                    epoch: crypto.epoch(),
                })
                .collect(),
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

    fn handle_data(&mut self, mut frame: DataFrame) -> NetResult<()> {
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
        let ack = DataAck {
            src: frame.src,
            dst: frame.dst,
            seq: frame.seq,
        };
        match open_data(crypto, &mut frame) {
            RxOutcome::Plain(mut bytes) => {
                self.control_send(&Msg::AckData(ack))?;
                let key = (frame.iteration, frame.micro_batch);
                let index = global_index(key.0, key.1, self.micro_batches);
                // The ack alone settles a duplicate whose output is
                // committed at the orchestrator (below the watermark) or
                // still unacknowledged on the out edge (the NACK, rekey
                // and sweep retransmits own it).
                if index < self.watermark || self.out_tx.has_payload(key.0, key.1) {
                    return Ok(());
                }
                if !self.processed.insert(index) {
                    // A duplicate with nothing in flight and nothing
                    // committed means someone downstream lost our output
                    // (a failed-over stage re-requesting work): recompute
                    // it from the duplicate — the same bytes, since the
                    // stage function is deterministic.
                    self.retransmits += 1;
                }
                apply_stage(self.layers.clone(), &mut bytes);
                self.forward(key, bytes)?;
            }
            RxOutcome::Sentinel => {
                self.sentinels += 1;
                self.control_send(&Msg::NackData(ack))?;
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
                    self.handle_data(frame)?;
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
            edges: edge_counters(&self.edges),
            retransmits: self.retransmits,
            sentinels: self.sentinels,
            reconnects: self.reconnects,
        }
    }
}

/// Where every edge a node holds an end of stands — the node's half of
/// the end-of-run lockstep audit.
pub(crate) fn edge_counters(edges: &BTreeMap<WireEdge, EdgeCrypto>) -> Vec<EdgeCounterEntry> {
    edges
        .iter()
        .map(|(edge, crypto)| EdgeCounterEntry {
            a: edge.a,
            b: edge.b,
            epoch: crypto.epoch(),
            tx_iv: crypto.tx_iv(),
            rx_iv: crypto.rx_iv(),
        })
        .collect()
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
            PumpEvent::Frame(Msg::Data(f)) => worker.is_fresh(f.iteration, f.micro_batch),
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
    use crate::transport::{duplex_pair, FrameReceiver};
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
    const MICRO_BATCHES: u32 = 8;

    /// A single-stage worker driven synchronously, one handler call at a
    /// time, with the test holding the far end of both links and the host
    /// end of the stage's one edge.
    struct Direct {
        worker: Worker,
        host: EdgeCrypto,
        ctl_rx: Box<dyn FrameReceiver>,
        data_rx: Box<dyn FrameReceiver>,
        next_seq: u64,
    }

    impl Direct {
        fn new() -> Self {
            let manifest = ShardManifest {
                stage: 0,
                stages: 1,
                layers: 4,
                layer_start: 0,
                layer_end: 4,
                weight_hash: stage_weight_hash(0..4),
                activation_bytes: LEN as u64,
                micro_batches: MICRO_BATCHES,
                iterations: 1 << 20,
                cluster_seed: SEED,
            };
            let (control_slot, data_slot) = (empty_slot(), empty_slot());
            let (ctl_far, ctl_near, _) = duplex_pair("ctl");
            let (data_far, data_near, _) = duplex_pair("data");
            install_sender(&control_slot, Box::new(ctl_near).split().unwrap().0);
            install_sender(&data_slot, Box::new(data_near).split().unwrap().0);
            let config = WorkerConfig::new(0);
            Direct {
                worker: Worker::from_manifest(&manifest, &config, control_slot, data_slot),
                host: EdgeCrypto::new(SEED, WireEdge::between(0, HOST_NODE), Role::ChannelHost),
                ctl_rx: Box::new(ctl_far).split().unwrap().1,
                data_rx: Box::new(data_far).split().unwrap().1,
                next_seq: 0,
            }
        }

        /// Everything queued on a link, decoded; the handlers run on this
        /// thread, so what they sent is already there.
        fn drain(rx: &mut Box<dyn FrameReceiver>) -> Vec<Msg> {
            std::iter::from_fn(|| rx.recv_frame(Duration::ZERO).ok())
                .map(|frame| Msg::decode(&frame).unwrap())
                .collect()
        }

        /// Seals session `index`'s input at the host's next IV and hands it
        /// to the worker. Returns `(seq, plaintext)` of every output the
        /// worker forwarded in response, after checking that it
        /// acknowledged the input and sent nothing else on control.
        fn deliver(&mut self, index: u64) -> Vec<(u64, Vec<u8>)> {
            let iteration = (index / u64::from(MICRO_BATCHES)) as u32;
            let micro_batch = (index % u64::from(MICRO_BATCHES)) as u32;
            let input = iteration_input(SEED, iteration as usize, micro_batch as usize, LEN);
            let epoch = self.host.epoch();
            let aad = DataFrame::bind_aad(HOST_NODE, 0, epoch, iteration, micro_batch, LEN as u64);
            let ack = DataAck {
                src: HOST_NODE,
                dst: 0,
                seq: self.next_seq,
            };
            self.next_seq += 1;
            let frame = DataFrame {
                src: ack.src,
                dst: ack.dst,
                seq: ack.seq,
                epoch,
                iteration,
                micro_batch,
                sealed: self.host.seal(&aad, &input).unwrap().bytes,
            };
            self.worker.handle_data(frame).unwrap();
            assert_eq!(Self::drain(&mut self.ctl_rx), vec![Msg::AckData(ack)]);
            Self::drain(&mut self.data_rx)
                .into_iter()
                .map(|msg| match msg {
                    Msg::Data(mut reply) => match open_data(&mut self.host, &mut reply) {
                        RxOutcome::Plain(bytes) => (reply.seq, bytes),
                        other => panic!("output must open: {other:?}"),
                    },
                    other => panic!("only data frames ride the data link: {other:?}"),
                })
                .collect()
        }

        /// Announces a barrier; returns the sealed checkpoint it shipped.
        fn barrier(&mut self, barrier: u64, prefix: u64) -> Vec<u8> {
            let req = CheckpointReq { barrier, prefix };
            self.worker.handle_checkpoint(&req).unwrap();
            match Self::drain(&mut self.ctl_rx).pop() {
                Some(Msg::CheckpointSave(save)) => save.sealed,
                other => panic!("a barrier is answered with a checkpoint: {other:?}"),
            }
        }
    }

    #[test]
    fn a_duplicate_input_is_acked_recomputed_or_ignored_by_three_rules() {
        let mut d = Direct::new();
        let first = d.deliver(1);
        let mut expected = iteration_input(SEED, 0, 1, LEN);
        apply_stage(0..4, &mut expected);
        assert_eq!(first, vec![(0, expected)], "fresh work: computed once");

        // Output still unacknowledged on the out edge: the retransmit
        // machinery owns it, the duplicate is only acknowledged.
        assert_eq!(d.deliver(1), vec![]);
        assert_eq!(d.worker.retransmits, 0);

        // Acknowledged and not committed: downstream lost it. Recompute
        // from the duplicate — the same bytes, counted as a retransmit.
        d.worker.out_tx.ack(0);
        assert_eq!(d.deliver(1), vec![(1, first[0].1.clone())]);
        assert_eq!(d.worker.retransmits, 1);
        d.worker.out_tx.ack(1);

        // Below the watermark: committed at the orchestrator, ack only.
        let sealed = d.barrier(1, 2);
        assert!(sealed.len() <= 256, "{} bytes", sealed.len());
        assert_eq!(d.deliver(1), vec![]);
        assert_eq!((d.worker.retransmits, d.worker.out_tx.in_flight()), (1, 0));

        // A replacement restored from that checkpoint knows the watermark
        // and nothing else: committed work is only acknowledged, anything
        // above it is fresh work, not a retransmit.
        let mut replacement = Direct::new();
        let restore = |barrier| Restore {
            barrier,
            sealed: sealed.clone(),
        };
        assert!(!replacement.worker.apply_restore(&restore(2)), "stale");
        assert_eq!(replacement.worker.watermark, 0);
        assert!(replacement.worker.apply_restore(&restore(1)));
        assert_eq!(replacement.deliver(1), vec![]);
        assert_eq!(replacement.deliver(2).len(), 1);
        assert_eq!(replacement.worker.retransmits, 0);
    }

    #[test]
    fn barriers_keep_the_processed_set_within_a_window_and_an_interval() {
        // A supervised run's cadence: at most WINDOW sessions lack
        // their output, a barrier every EVERY committed outputs.
        const WINDOW: u64 = 32;
        const EVERY: u64 = 4;
        let mut d = Direct::new();
        let mut barriers = 0;
        for index in 0..4096u64 {
            for (seq, _) in d.deliver(index) {
                d.worker.out_tx.ack(seq);
            }
            let prefix = (index + 1).saturating_sub(WINDOW);
            while prefix / EVERY > barriers {
                barriers += 1;
                d.barrier(barriers, prefix);
            }
            let held = d.worker.processed.len() as u64;
            assert!(held <= WINDOW + EVERY, "{held} held at session {index}");
        }
        assert_eq!(d.worker.watermark, 4096 - WINDOW);
        assert!(d.worker.is_fresh(4096 / MICRO_BATCHES, 0));
        assert!(!d.worker.is_fresh(0, 0), "pruned, but still not fresh");
    }
}
