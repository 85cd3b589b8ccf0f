//! The stage-worker event loop.
//!
//! One worker process serves one pipeline stage. It holds two connections
//! to the orchestrator — a reliable control link (handshake, acks, rekeys,
//! lifecycle) and a chaos-exposed data link (sealed activation frames) —
//! and never talks to another worker directly: inter-stage frames are
//! relayed by the orchestrator as ciphertext, sealed under edge keys both
//! ends derive from the cluster seed.
//!
//! Lifecycle, in lockstep with the orchestrator's script:
//!
//! 1. `Hello{stage}` on control, `DataHello{stage}` on data;
//! 2. wait for the `ShardManifest` — the only source of the run's
//!    settings (resend threshold, heartbeat interval, hang duration, chaos
//!    plan); verify the shard's weight hash locally and reply
//!    `ManifestAck`;
//! 3. build the in/out edges' [`EdgeCrypto`] from the manifest's cluster
//!    seed — the one edge type, the same one the in-process
//!    `pipellm_gpu::cluster::ClusterContext` holds at each end of its
//!    edges;
//! 4. on `Start`, serve: open each incoming frame under the sentinel
//!    discipline, ACK/NACK it, run [`apply_stage`] over the stage's layer
//!    range, and seal the result onto the out edge;
//! 5. drain: once the in edge's `Fin` is accepted and every output acked,
//!    close the out edge with a `Fin`; once that is acked, report per-edge
//!    counters with `Done` (again after a rekey reopens an edge), and
//!    serve on until `Shutdown`.
//!
//! Failure handling: a NACK retransmits one frame at a fresh IV; a dropped
//! data connection is reattached by the pump under the bounded
//! [`crate::proto::WIRE_RETRY`], after which the worker announces
//! `LinkRestored` and the orchestrator rekeys every adjacent edge — fresh
//! keys, IV counters back to 1 — before unacked frames are retransmitted
//! in order.
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
use crate::frame::FramePool;
use crate::link::{
    empty_slot, install_sender, kill_slot, open_data, role_at, send_on, EdgeCrypto, LinkRx,
    LinkSender, LinkTx, RxOutcome, SenderSlot, WireEdge,
};
use crate::proto::{
    chaos_injector, CheckpointReq, CheckpointSave, CounterReport, DataAck, DataFrame,
    EdgeCounterEntry, Heartbeat, Hello, ManifestAck, Msg, RekeyEdge, Restore, ShardManifest,
    HOST_NODE, OP_TIMEOUT, POLL_INTERVAL,
};
use crate::pump::{EventLoop, Pump, PumpEvent};
use crate::transport::{Reattach, Transport};
use pipellm::partition::{apply_stage, stage_weight_hash};
use pipellm_chaos::{ChaosInjector, FaultKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Pump tag of the control link.
const CONTROL: u32 = 0;
/// Pump tag of the data link.
const DATA: u32 = 1;

/// What a worker knows before its manifest arrives; everything else about
/// the run it learns from the [`ShardManifest`].
#[derive(Debug, Clone, Copy)]
pub struct WorkerConfig {
    /// The stage this worker serves.
    pub stage: u32,
    /// Admission generation of this incarnation (0 for the first; the
    /// supervisor bumps it on every failover). Only generation 0 arms the
    /// manifest's chaos plan: a replacement is the recovery path and runs
    /// fault-free, the escalation contract every retry loop here follows.
    pub generation: u32,
    /// Deadline for the handshake, the drain, and idle waits.
    pub op_timeout: Duration,
}

impl WorkerConfig {
    /// The first incarnation of `stage` at the default deadline.
    pub fn new(stage: u32) -> Self {
        WorkerConfig {
            stage,
            generation: 0,
            op_timeout: OP_TIMEOUT,
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
    /// Everything the orchestrator told this worker about the run.
    manifest: ShardManifest,
    in_peer: u32,
    out_peer: u32,
    in_edge: WireEdge,
    out_edge: WireEdge,
    edges: BTreeMap<WireEdge, EdgeCrypto>,
    out_tx: LinkTx,
    in_rx: LinkRx,
    /// The last `Done` report sent, if any.
    done: Option<CounterReport>,
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
    /// Frame buffers shared with the pumps; an input's returns when its output is acked.
    pool: FramePool,
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
        pool: FramePool,
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
            manifest: *manifest,
            in_peer,
            out_peer,
            in_edge,
            out_edge,
            edges,
            out_tx: LinkTx::default(),
            in_rx: LinkRx::default(),
            done: None,
            watermark: 0,
            processed: BTreeSet::new(),
            barrier: 0,
            control_slot,
            data_slot,
            pool,
            chaos: chaos_injector(
                manifest.chaos_seed,
                manifest.net_fault_rate,
                manifest.worker_fault_rate,
            )
            .filter(|_| config.generation == 0),
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
        let index = global_index(iteration, micro_batch, self.manifest.micro_batches);
        index >= self.watermark && !self.processed.contains(&index)
    }

    /// Whether `frame` takes the worker-fault roll: it carries work this
    /// incarnation still owes, at the in edge's current epoch or later. A
    /// frame of a retired epoch is discarded unopened and its retransmit
    /// under the new keys rolls instead, so a rekey does not make one
    /// payload roll twice against the schedule
    /// [`crate::NetPipelineSpec::injector_for`] predicts.
    fn rolls_on(&self, frame: &DataFrame) -> bool {
        let current = self.edges.get(&self.in_edge).map_or(0, EdgeCrypto::epoch);
        frame.epoch >= current && self.is_fresh(frame.iteration, frame.micro_batch)
    }

    /// Applies a relayed checkpoint to this (fresh) incarnation. Returns
    /// whether the state was accepted; anything that does not unseal and
    /// validate for exactly this stage and barrier — the empty "no
    /// checkpoint yet" blob included — is refused, and the worker serves
    /// from scratch instead: recomputation is always correct, the
    /// checkpoint only skips committed work.
    fn apply_restore(&mut self, restore: &Restore) -> bool {
        let Ok(state) = open_checkpoint(
            self.manifest.cluster_seed,
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
        let sealed = seal_checkpoint(self.manifest.cluster_seed, &state)?;
        self.control_send(&Msg::CheckpointSave(CheckpointSave {
            stage: self.stage,
            barrier: req.barrier,
            sealed,
        }))
    }

    /// Sends a heartbeat if the interval elapsed as of `now` (the first as
    /// serving starts). Sequence numbers are monotone per incarnation.
    fn maybe_heartbeat(&mut self, now: Instant) -> NetResult<()> {
        let since = now.saturating_duration_since(self.last_heartbeat);
        if self.heartbeat_seq > 0 && since < self.manifest.heartbeat_interval {
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

    /// Sends on control. Once `Done` is out a lost link is the teardown,
    /// not an error: the orchestrator may close the deployment the moment
    /// the last report lands, its close overtaking the queued Shutdown.
    fn control_send(&self, msg: &Msg) -> NetResult<()> {
        match send_on(&self.control_slot, &msg.encode()?, "control") {
            Err(NetError::ConnectionLost { .. }) if self.done.is_some() => Ok(()),
            sent => sent,
        }
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
            slot: &self.data_slot,
            link: "data",
            pool: &self.pool,
        };
        Ok((&mut self.out_tx, sender))
    }

    /// Queues one output on the out edge and makes its first transmission.
    fn forward(&mut self, key: (u32, u32), output: Vec<u8>) -> NetResult<()> {
        let (tx, mut link) = self.out_link()?;
        link.send(tx.push(Instant::now(), key.0, key.1, output))?;
        Ok(())
    }

    /// The in edge's state, once `src -> dst` is checked to be it.
    fn in_link(&mut self, src: u32, dst: u32) -> NetResult<(&mut EdgeCrypto, &mut LinkRx)> {
        if src == dst || dst != self.stage || src != self.in_peer {
            return Err(NetError::Protocol {
                detail: format!("stage {} got a misrouted frame {src} -> {dst}", self.stage),
            });
        }
        let crypto = self
            .edges
            .get_mut(&self.in_edge)
            .ok_or(NetError::Protocol {
                detail: "in edge missing".to_string(),
            })?;
        Ok((crypto, &mut self.in_rx))
    }

    fn handle_data(&mut self, mut frame: DataFrame) -> NetResult<()> {
        let (crypto, _) = self.in_link(frame.src, frame.dst)?;
        let ack = DataAck {
            src: frame.src,
            dst: frame.dst,
            seq: frame.seq,
        };
        match open_data(crypto, &mut frame) {
            RxOutcome::Plain(mut bytes) => {
                self.control_send(&Msg::AckData(ack))?;
                let key = (frame.iteration, frame.micro_batch);
                let index = global_index(key.0, key.1, self.manifest.micro_batches);
                // The ack alone settles a duplicate whose output is
                // committed at the orchestrator (below the watermark) or
                // still unacknowledged on the out edge (the NACK, rekey
                // and sweep retransmits own it).
                if index < self.watermark || self.out_tx.has_payload(key.0, key.1) {
                    self.pool.give(bytes);
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
                apply_stage(
                    self.manifest.layer_start..self.manifest.layer_end,
                    &mut bytes,
                );
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
    /// the manifest's resend threshold. This is the recovery of last resort for
    /// losses no NACK or `RekeyEdge` will ever report — a frame relayed
    /// into a dead destination link, or a rekey retransmit that raced an
    /// empty sender slot mid-reattach. Any IV burned into a down link is
    /// erased by the rekey that link's restoration triggers, so sweeping
    /// never breaks final-epoch lockstep.
    fn sweep(&mut self, now: Instant) -> NetResult<()> {
        let threshold = self.manifest.resend_after;
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

    /// One drain step per turn: once the in edge is closed, close the out
    /// edge; once both are, report with `Done` if the report changed.
    fn drain(&mut self, now: Instant) -> NetResult<()> {
        let in_closed = self
            .edges
            .get(&self.in_edge)
            .is_some_and(|crypto| self.in_rx.closed(crypto));
        if !in_closed {
            return Ok(());
        }
        let resend_after = self.manifest.resend_after;
        let (tx, mut link) = self.out_link()?;
        link.close(tx, now, resend_after)?;
        if !tx.closed(link.crypto) {
            return Ok(());
        }
        let report = self.report();
        if self.done.as_ref() != Some(&report) {
            self.control_send(&Msg::Done(report.clone()))?;
            self.done = Some(report);
        }
        Ok(())
    }

    /// Handles one serving-phase event. Returns whether it was the
    /// `Shutdown` that ends the run.
    fn handle_event(&mut self, tag: u32, event: PumpEvent) -> NetResult<bool> {
        match event {
            PumpEvent::Frame(msg) => match msg {
                Msg::Data(frame) => {
                    self.handle_data(frame)?;
                    Ok(false)
                }
                Msg::AckData(ack) => {
                    if ack.src == self.stage {
                        self.pool.give(self.out_tx.ack(ack.seq).unwrap_or_default());
                    }
                    Ok(false)
                }
                Msg::Fin(fin) => {
                    let (crypto, rx) = self.in_link(fin.src, fin.dst)?;
                    if rx.accept(crypto, &fin) {
                        self.control_send(&Msg::FinAck(fin))?;
                    }
                    Ok(false)
                }
                Msg::FinAck(ack) => {
                    if ack.src == self.stage {
                        self.out_tx.fin_acked(&ack);
                    }
                    Ok(false)
                }
                Msg::NackData(ack) => {
                    if ack.src == self.stage {
                        let (tx, mut link) = self.out_link()?;
                        if let Some(pending) = tx.get_mut(ack.seq) {
                            link.send(pending)?;
                            self.retransmits += 1;
                        }
                    }
                    Ok(false)
                }
                Msg::RekeyEdge(r) => {
                    self.handle_rekey(r.a, r.b, r.epoch)?;
                    Ok(false)
                }
                Msg::CheckpointReq(req) => {
                    self.handle_checkpoint(&req)?;
                    Ok(false)
                }
                Msg::Shutdown => Ok(true),
                // Duplicated handshake traffic is idempotent noise, as are
                // heartbeat echoes and a late duplicate Restore.
                Msg::Manifest(_) | Msg::Start | Msg::HeartbeatAck(_) | Msg::Restore(_) => Ok(false),
                other => Err(NetError::Protocol {
                    detail: format!("stage {} got unexpected {:?}", self.stage, other),
                }),
            },
            PumpEvent::Down => Ok(false),
            PumpEvent::Up => {
                if tag == DATA {
                    self.reconnects += 1;
                    // Tell the orchestrator so it rekeys our edges; our
                    // unacked frames go out again on the RekeyEdge reply.
                    self.control_send(&Msg::LinkRestored { stage: self.stage })?;
                }
                Ok(false)
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
    let pool = FramePool::default();

    let (ctl_sender, ctl_receiver) = links.control.split()?;
    install_sender(&control_slot, ctl_sender);
    let (data_sender, data_receiver) = links.data.split()?;
    install_sender(&data_slot, data_sender);

    let control_pump = Pump::spawn(
        CONTROL,
        "control".to_string(),
        ctl_receiver,
        None,
        control_slot.clone(),
        events_tx.clone(),
        pool.clone(),
    );
    let data_pump = Pump::spawn(
        DATA,
        "data".to_string(),
        data_receiver,
        links.data_reattach,
        data_slot.clone(),
        events_tx,
        pool.clone(),
    );
    let mut events = EventLoop::new(events, vec![control_slot.clone(), data_slot.clone()]);

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

    // --- Handshake: Manifest (verify + ack) -> Start --------------------
    let deadline = Instant::now() + config.op_timeout;
    let mut admitted: Option<ShardManifest> = None;
    let mut restore: Option<Restore> = None;
    // The control and data pumps feed one queue with no cross-link
    // ordering: the first sealed frame can overtake Start, and a
    // replacement incarnation is attached while the deployment around it
    // keeps serving. Defer serve-phase traffic seen mid-handshake; the
    // serve loop takes it first, through the same fault roll, heartbeat,
    // sweep and drain as what arrives later — and after the restore, so a
    // checkpoint barrier the restored state already covers is the no-op it
    // would be while serving.
    let mut deferred: VecDeque<(u32, PumpEvent)> = VecDeque::new();
    let manifest = loop {
        if Instant::now() > deadline {
            return Err(NetError::Timeout {
                op: "handshake",
                waited: config.op_timeout,
            });
        }
        let Some((tag, event)) = events.next_event(POLL_INTERVAL)? else {
            continue;
        };
        if let PumpEvent::Frame(
            msg @ (Msg::Data(_)
            | Msg::AckData(_)
            | Msg::NackData(_)
            | Msg::RekeyEdge(_)
            | Msg::CheckpointReq(_)
            | Msg::Fin(_)
            | Msg::FinAck(_)),
        ) = event
        {
            deferred.push_back((tag, PumpEvent::Frame(msg)));
            continue;
        }
        match event {
            PumpEvent::Frame(Msg::Restore(r)) => restore = Some(r),
            PumpEvent::Frame(Msg::HeartbeatAck(_)) => {}
            PumpEvent::Frame(Msg::Manifest(m)) => {
                if m.stage != config.stage {
                    return Err(NetError::Handshake {
                        detail: format!("manifest for stage {}, we are {}", m.stage, config.stage),
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
                admitted = Some(m);
            }
            PumpEvent::Frame(Msg::Start) => match admitted {
                Some(m) => break m,
                None => {
                    return Err(NetError::Handshake {
                        detail: "start before manifest".to_string(),
                    })
                }
            },
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
    };

    let mut worker = Worker::from_manifest(&manifest, &config, control_slot, data_slot, pool);
    if let Some(r) = restore {
        worker.apply_restore(&r);
    }
    let kill_at_drain = manifest.kill_at_drain && config.generation == 0;

    // --- Serve and drain, until Shutdown --------------------------------
    let mut last_activity = Instant::now();
    loop {
        let now = Instant::now();
        if now.saturating_duration_since(last_activity) > config.op_timeout {
            return Err(NetError::Timeout {
                op: "serve",
                waited: config.op_timeout,
            });
        }
        worker.maybe_heartbeat(now)?;
        worker.sweep(now)?;
        worker.drain(now)?;
        let next = match deferred.pop_front() {
            Some(event) => Some(event),
            None => events.next_event(POLL_INTERVAL)?,
        };
        let Some((tag, event)) = next else {
            continue;
        };
        last_activity = Instant::now();
        // Worker-process chaos: a kill drops the whole process abruptly
        // (connections die mid-protocol, no goodbye); a hang wedges past
        // the supervisor's death deadline, then dies. Rolled once per
        // received *fresh* data frame of a live epoch (the envelope is
        // cleartext, so both are checkable pre-open) — duplicates cannot
        // kill a worker, and recovery paths (the replacement incarnation)
        // run with chaos disabled. A drain kill fires on the in edge's
        // `Fin`.
        let fault = match &event {
            PumpEvent::Frame(Msg::Data(f)) if worker.rolls_on(f) => {
                let fault = worker.chaos.as_ref().and_then(|c| c.roll_worker());
                if fault.is_some_and(|f| f.kind == FaultKind::StageHang) {
                    // What the worker sent before it wedged reaches the wire.
                    events.flush()?;
                    std::thread::sleep(worker.manifest.hang_for);
                }
                fault.map(|f| f.kind.label())
            }
            PumpEvent::Frame(Msg::Fin(_)) if kill_at_drain => Some("kill at drain"),
            _ => None,
        };
        if let Some(fault) = fault {
            // Stop the pumps *before* killing the links: a pump that
            // notices the dead connection afterward exits instead of
            // entering its reattach path, so a dying incarnation never
            // resets a link generation out from under the replacement the
            // supervisor is about to admit.
            control_pump.stop();
            data_pump.stop();
            kill_slot(&worker.control_slot);
            kill_slot(&worker.data_slot);
            return Err(NetError::Protocol {
                detail: format!(
                    "stage {} gen {}: injected worker {fault}",
                    config.stage, config.generation
                ),
            });
        }
        match worker.handle_event(tag, event) {
            Ok(false) => {}
            Ok(true) => break,
            Err(NetError::ConnectionLost { .. }) if worker.done.is_some() => break,
            Err(e) => return Err(e),
        }
    }
    events.flush()?;
    control_pump.stop();
    data_pump.stop();
    Ok(worker.report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{Role, TxOutcome};
    use crate::orchestrator::{NetPipelineSpec, Orchestrator};
    use crate::transport::{duplex_pair, FrameReceiver, FrameSender, TcpTransport};
    use pipellm::partition::iteration_input;
    use pipellm_chaos::FaultPlan;

    #[test]
    fn edge_layout_matches_the_star_topology() {
        let spec = NetPipelineSpec {
            stages: 3,
            layers: 6,
            ..NetPipelineSpec::default()
        };
        let manifest = spec.manifest_for(1, None);
        let config = WorkerConfig::new(1);
        let w = Worker::from_manifest(
            &manifest,
            &config,
            empty_slot(),
            empty_slot(),
            FramePool::default(),
        );
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
            let manifest = NetPipelineSpec {
                stages: 1,
                layers: 4,
                iterations: 1 << 20,
                micro_batches: MICRO_BATCHES,
                activation_bytes: LEN,
                seed: SEED,
                ..NetPipelineSpec::default()
            }
            .manifest_for(0, None);
            let (control_slot, data_slot) = (empty_slot(), empty_slot());
            let (ctl_far, ctl_near, _) = duplex_pair("ctl");
            let (data_far, data_near, _) = duplex_pair("data");
            install_sender(&control_slot, Box::new(ctl_near).split().unwrap().0);
            install_sender(&data_slot, Box::new(data_near).split().unwrap().0);
            let config = WorkerConfig::new(0);
            Direct {
                worker: Worker::from_manifest(
                    &manifest,
                    &config,
                    control_slot,
                    data_slot,
                    FramePool::default(),
                ),
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
    fn a_frame_of_a_retired_epoch_takes_no_fault_roll() {
        let mut d = Direct::new();
        let frame = |epoch| DataFrame {
            src: HOST_NODE,
            dst: 0,
            seq: 0,
            epoch,
            iteration: 0,
            micro_batch: 0,
            sealed: Vec::new(),
        };
        assert!(d.worker.rolls_on(&frame(0)));
        d.worker.handle_rekey(0, HOST_NODE, 1).unwrap();
        assert!(!d.worker.rolls_on(&frame(0)), "discarded unopened");
        assert!(d.worker.rolls_on(&frame(1)));
        assert!(d.worker.rolls_on(&frame(2)), "opened after a fast-forward");
        d.host.rekey_to(1);
        d.deliver(0);
        assert!(!d.worker.rolls_on(&frame(1)), "a duplicate never rolls");
    }

    /// A sender that records every frame it is handed, whole, and passes
    /// it on.
    struct Tap(Arc<std::sync::Mutex<Vec<Vec<u8>>>>, Box<dyn FrameSender>);

    impl FrameSender for Tap {
        fn send_frame(&mut self, frame: &[u8]) -> NetResult<()> {
            self.0.lock().unwrap().push(frame.to_vec());
            self.1.send_frame(frame)
        }

        fn flush(&mut self) -> NetResult<()> {
            self.1.flush()
        }

        fn kill(&mut self) {
            self.1.kill();
        }
    }

    /// Both halves of each end of a loopback TCP connection.
    fn tcp_pair() -> [(Box<dyn FrameSender>, Box<dyn FrameReceiver>); 2] {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let dialed = TcpTransport::connect(listener.local_addr().unwrap(), "tcp-a").unwrap();
        let accepted = TcpTransport::new(listener.accept().unwrap().0, "tcp-b");
        [dialed, accepted].map(|t| Box::new(t).split().unwrap())
    }

    #[test]
    fn the_relay_forwards_a_data_frame_verbatim_and_stage_1_judges_it() {
        // Frames large enough to be received into pooled buffers, stage 0
        // to stage 1 through the orchestrator over two real connections:
        // one intact, one hit by a seeded CorruptFrame.
        let spec = NetPipelineSpec {
            stages: 2,
            layers: 2,
            activation_bytes: crate::proto::POOLED_MIN,
            ..NetPipelineSpec::default()
        };
        let [(into_relay, _), (_, mut relay_rx)] = tcp_pair();
        let [(relay_tx, _), (_, mut stage1_rx)] = tcp_pair();
        let sent = Arc::new(std::sync::Mutex::new(Vec::new()));
        let stage0_slot = empty_slot();
        install_sender(&stage0_slot, Box::new(Tap(Arc::clone(&sent), into_relay)));
        let (to_stage1, pool) = (empty_slot(), FramePool::default());
        install_sender(&to_stage1, relay_tx);
        let control = vec![empty_slot(), empty_slot()];
        let data = vec![empty_slot(), to_stage1];
        let mut orch = Orchestrator::new(&spec, None, control, data, pool.clone());

        let edge = WireEdge::between(0, 1);
        let mut stage0 = EdgeCrypto::new(spec.seed, edge, role_at(edge, 0));
        let corrupt = Arc::new(ChaosInjector::new(
            FaultPlan::new(0xBAD).with_rate(FaultKind::CorruptFrame, 1.0),
        ));
        let mut out_tx = LinkTx::default();
        let input = iteration_input(spec.seed, 0, 0, spec.activation_bytes);
        let mut received = Vec::new();
        for (micro_batch, chaos) in [(0, None), (1, Some(&corrupt))] {
            let mut link = LinkSender {
                crypto: &mut stage0,
                src: 0,
                dst: 1,
                chaos,
                slot: &stage0_slot,
                link: "data",
                pool: &pool,
            };
            let pending = out_tx.push(Instant::now(), 0, micro_batch, input.clone());
            assert_eq!(link.send(pending).unwrap(), TxOutcome::Sent);
            let raw = relay_rx.recv_pooled(OP_TIMEOUT, &pool).unwrap();
            let at = raw.as_ptr();
            let Msg::Data(frame) = Msg::decode_owned(raw).unwrap() else {
                panic!("a data frame");
            };
            assert_eq!(frame.sealed.as_ptr(), at, "the frame's buffer is kept");
            orch.handle_data(0, frame).unwrap();
            received.push(stage1_rx.recv_frame(OP_TIMEOUT).unwrap());
        }
        assert_eq!(*sent.lock().unwrap(), received, "byte for byte");
        assert_eq!(orch.relayed, 2);

        let (ctl_near, ctl_far, _) = duplex_pair("ctl");
        let control_slot = empty_slot();
        install_sender(&control_slot, Box::new(ctl_near).split().unwrap().0);
        let mut ctl_rx = Box::new(ctl_far).split().unwrap().1;
        let config = WorkerConfig::new(1);
        let manifest = spec.manifest_for(1, None);
        let mut stage1 =
            Worker::from_manifest(&manifest, &config, control_slot, empty_slot(), pool);
        for bytes in received {
            let Msg::Data(frame) = Msg::decode(&bytes).unwrap() else {
                panic!("a data frame");
            };
            stage1.handle_data(frame).unwrap();
        }
        let acks = Direct::drain(&mut ctl_rx);
        assert!(matches!(acks[..], [Msg::AckData(_), Msg::NackData(n)] if n.seq == 1));
        assert_eq!(stage1.sentinels, 1);
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
