//! The orchestrator: handshake driver, ciphertext relay, and auditor.
//!
//! The orchestrator is the hub of the star topology. It drives the
//! versioned handshake (shard manifests → acks → start), seals
//! model inputs onto stage 0's host edge — at most
//! [`INGRESS_WINDOW`] sessions in flight at once, the next input admitted
//! as an output arrives — relays worker↔worker data frames without
//! opening them, opens the last stage's outputs on the egress host edge,
//! and ends the run by protocol (per-edge `Fin`s, every stage's `Done`, one
//! audit of the edge counters, shutdown). It could
//! open the relayed frames too: their keys derive from the cluster seed
//! its own manifests carry (ROADMAP.md item 2). The [`NetPipelineSpec`]
//! and [`SupervisedOptions`] are its only inputs; workers learn what they
//! need of them from their [`ShardManifest`]s.
//!
//! Recovery is orchestrator-coordinated: when a worker announces
//! `LinkRestored` after its data connection was dropped and re-dialed, the
//! orchestrator bumps the authoritative epoch of every edge adjacent to
//! that worker and broadcasts `RekeyEdge` to the affected endpoints. Both
//! ends of each edge rederive keys at the new epoch with IV counters back
//! at 1, and the sending side retransmits everything unacknowledged —
//! fresh keys, fresh IVs, no counter ever reused.
//!
//! There is one deployment and one driver. [`deploy`] takes the two
//! switches a deployment has — the [`Wire`] its workers are attached over
//! (duplex threads, TCP threads, a bound listener for worker processes)
//! and `Option<&SupervisedOptions>` — and runs one lifecycle: handshake →
//! serve → drain (`Fin`/`FinAck` per edge) → lockstep audit → shutdown.
//! No phase ends on elapsed silence, and the drain is the serve loop with
//! ingress closed, so a stage lost mid-drain is failed over like one lost
//! mid-serve. Supervision ([`crate::supervisor`]) is a set of hooks that
//! lifecycle calls when it is on; the bit-exactness tests hold every
//! combination's outputs identical to each other and to the plain
//! in-process computation.

use crate::error::{NetError, NetResult};
use crate::frame::{read_frame, FramePool};
use crate::link::{
    empty_slot, flush_slot, install_sender, kill_slot, open_data, role_at, send_on, EdgeCrypto,
    LinkRx, LinkSender, LinkTx, RxOutcome, SenderSlot, WireEdge,
};
use crate::proto::{
    chaos_injector, CounterReport, DataAck, DataFrame, EdgeCounterEntry, Fin, ManifestAck, Msg,
    RekeyEdge, ShardManifest, DIAL_RETRY, HOST_NODE, INGRESS_WINDOW, OP_TIMEOUT, POLL_INTERVAL,
    RESEND_AFTER,
};
use crate::pump::{EventLoop, Pump, PumpEvent};
use crate::supervisor::{
    AdmissionQueue, Spawner, SupervisedOptions, SupervisedReport, Supervision,
};
use crate::transport::{
    duplex_handle, duplex_pair, DuplexActive, DuplexCore, DuplexPassive, Reattach, TcpAcceptSlot,
    TcpDial, TcpTransport, Transport,
};
use crate::worker::{edge_counters, run_worker, WorkerConfig, WorkerLinks};
use pipellm::partition::{apply_stage, iteration_input, stage_weight_hash, StagePartition};
use pipellm_chaos::ChaosInjector;
use pipellm_crypto::session::derive_subseed;
use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything that defines one networked pipeline run but supervision.
#[derive(Debug, Clone)]
pub struct NetPipelineSpec {
    /// Pipeline stages (one worker process per stage).
    pub stages: u32,
    /// Total model layers, balanced across stages.
    pub layers: u32,
    /// Iterations to serve.
    pub iterations: u32,
    /// Micro-batches per iteration.
    pub micro_batches: u32,
    /// Activation payload bytes per micro-batch.
    pub activation_bytes: usize,
    /// Cluster key-derivation seed (drives all edge and host-channel keys
    /// plus the deterministic inputs).
    pub seed: u64,
    /// Total fault rate injected at the net link of every sender; zero
    /// disables chaos entirely.
    pub net_fault_rate: f64,
    /// Per-received-frame probability that a worker process abruptly dies
    /// or hangs ([`pipellm_chaos::FaultSite::WorkerProcess`]); only a
    /// supervised run survives a nonzero rate.
    pub worker_fault_rate: f64,
    /// Seed of the fault plans (decorrelated per node).
    pub chaos_seed: u64,
    /// Per-phase deadline (handshake, serve idle, drain, shutdown) of the
    /// orchestrator and of the workers it spawns itself.
    pub op_timeout: Duration,
    /// Age at which an unacknowledged frame is retransmitted by the
    /// level-triggered sweep, at the host and at every worker.
    pub resend_after: Duration,
    /// A stage whose first incarnation dies as its drain begins (its in
    /// edge's `Fin` arrives), where no roll of `worker_fault_rate` reaches.
    pub kill_at_drain: Option<u32>,
}

impl Default for NetPipelineSpec {
    fn default() -> Self {
        NetPipelineSpec {
            stages: 4,
            layers: 8,
            iterations: 2,
            micro_batches: 2,
            activation_bytes: 4096,
            seed: 0x9e3779b9,
            net_fault_rate: 0.0,
            worker_fault_rate: 0.0,
            chaos_seed: 0xC0A5,
            op_timeout: OP_TIMEOUT,
            resend_after: RESEND_AFTER,
            kill_at_drain: None,
        }
    }
}

impl NetPipelineSpec {
    /// Checks the spec is runnable.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on zero stages/iterations/micro-batches or a
    /// layer count below the stage count; [`NetError::Malformed`] on
    /// anything its workers' manifests would be refused for (a fault rate
    /// outside `[0, 1]`, a zero resend threshold).
    pub fn validate(&self) -> NetResult<()> {
        if self.stages == 0 || self.iterations == 0 || self.micro_batches == 0 {
            return Err(NetError::Protocol {
                detail: "stages, iterations, and micro_batches must be positive".to_string(),
            });
        }
        if self.layers < self.stages {
            return Err(NetError::Protocol {
                detail: format!("{} layers cannot cover {} stages", self.layers, self.stages),
            });
        }
        self.manifest_for(0, None).validate()
    }

    /// The shard manifest of `stage` under this spec's balanced partition,
    /// with `supervision`'s worker-side settings (the defaults' if `None`).
    pub fn manifest_for(
        &self,
        stage: u32,
        supervision: Option<&SupervisedOptions>,
    ) -> ShardManifest {
        let default = SupervisedOptions::default();
        let timing = supervision.unwrap_or(&default);
        let partition = StagePartition::balanced(self.layers, self.stages as usize);
        let range = partition.layers_of(stage as usize);
        ShardManifest {
            stage,
            stages: self.stages,
            layers: self.layers,
            layer_start: range.start,
            layer_end: range.end,
            weight_hash: stage_weight_hash(range),
            activation_bytes: self.activation_bytes as u64,
            micro_batches: self.micro_batches,
            iterations: self.iterations,
            cluster_seed: self.seed,
            resend_after: self.resend_after,
            heartbeat_interval: timing.heartbeat_interval,
            hang_for: timing.dead_after.saturating_mul(2),
            chaos_seed: derive_subseed(self.chaos_seed, u64::from(stage)),
            net_fault_rate: self.net_fault_rate,
            worker_fault_rate: self.worker_fault_rate,
            kill_at_drain: self.kill_at_drain == Some(stage),
        }
    }

    /// The reference outputs: every iteration input pushed through every
    /// stage's layer range in order, no network involved. The networked
    /// run must reproduce these byte for byte.
    pub fn expected_outputs(&self) -> Vec<Vec<u8>> {
        let partition = StagePartition::balanced(self.layers, self.stages as usize);
        let mut outputs = Vec::new();
        for iteration in 0..self.iterations {
            for micro_batch in 0..self.micro_batches {
                let mut bytes = iteration_input(
                    self.seed,
                    iteration as usize,
                    micro_batch as usize,
                    self.activation_bytes,
                );
                for stage in 0..self.stages as usize {
                    apply_stage(partition.layers_of(stage), &mut bytes);
                }
                outputs.push(bytes);
            }
        }
        outputs
    }

    /// The per-node fault injector for this spec, or `None` when the rate
    /// is zero. `node` is a stage index or [`HOST_NODE`]; each node rolls
    /// an independent deterministic stream. A stage's is the injector its
    /// first incarnation builds from its manifest's chaos plan.
    pub fn injector_for(&self, node: u32) -> Option<Arc<ChaosInjector>> {
        let worker_rate = if node == HOST_NODE {
            0.0 // the orchestrator process is the trusted computing base here
        } else {
            self.worker_fault_rate
        };
        let seed = derive_subseed(self.chaos_seed, u64::from(node));
        chaos_injector(seed, self.net_fault_rate, worker_rate)
    }
}

/// Outcome of one networked pipeline run.
#[derive(Debug, Clone)]
pub struct NetReport {
    /// Which transport backed the run (`"duplex"` / `"tcp"`).
    pub transport: String,
    /// Stage count.
    pub stages: u32,
    /// Final outputs in (iteration, micro-batch) order.
    pub outputs: Vec<Vec<u8>>,
    /// Order-sensitive digest of the outputs.
    pub output_digest: u64,
    /// Every worker's end-of-run counter report, by stage.
    pub worker_reports: Vec<CounterReport>,
    /// The orchestrator's own counter report (host edges).
    pub host_report: CounterReport,
    /// Worker↔worker frames relayed as ciphertext, never opened here.
    pub relayed_frames: u64,
    /// Total retransmitted frames across all nodes.
    pub retransmits: u64,
    /// Total sentinel-absorbed opens across all nodes.
    pub sentinels: u64,
    /// Total data-link reconnects across all workers.
    pub reconnects: u64,
    /// Edge epoch bumps the orchestrator coordinated.
    pub rekeys: u64,
    /// High-water mark of the host's ingress in-flight set (frames sealed
    /// onto stage 0's edge and not yet acknowledged); never above the
    /// admission window.
    pub peak_in_flight: usize,
    /// Whether the end-of-run lockstep audit passed (a failed audit is
    /// returned as [`NetError::Lockstep`], so a report always says true —
    /// the field exists for serialized artifacts).
    pub lockstep_ok: bool,
}

/// Order-sensitive digest over the output payloads.
pub fn digest_outputs(outputs: &[Vec<u8>]) -> u64 {
    let mut acc = 0x6f75_7470u64; // "outp"
    for out in outputs {
        acc = derive_subseed(acc, out.len() as u64);
        for chunk in out.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            acc = derive_subseed(acc, u64::from_le_bytes(word));
        }
    }
    acc
}

/// One worker's pair of connections, from the orchestrator's side.
pub(crate) struct StageLinks {
    /// The stage these connections belong to.
    pub(crate) stage: u32,
    /// Control connection.
    pub(crate) control: Box<dyn Transport>,
    /// Reattach provider for the control connection — a replacement
    /// incarnation re-dials it. `None` without supervision: the control
    /// link shares the worker's fate, and losing it ends the run.
    pub(crate) control_reattach: Option<Box<dyn Reattach>>,
    /// Data connection.
    pub(crate) data: Box<dyn Transport>,
    /// Passive reattach provider for the data connection (waits for the
    /// worker's re-dial); `None` disables recovery on this link.
    pub(crate) data_reattach: Option<Box<dyn Reattach>>,
}

pub(crate) struct Orchestrator {
    pub(crate) spec: NetPipelineSpec,
    /// Per stage, the manifest every incarnation of it is admitted with —
    /// at the start of the run and again on readmission.
    pub(crate) manifests: Vec<ShardManifest>,
    pub(crate) edges: BTreeMap<WireEdge, EdgeCrypto>,
    /// Authoritative epoch of every edge in the deployment.
    pub(crate) edge_epochs: BTreeMap<WireEdge, u32>,
    pub(crate) control_slots: Vec<SenderSlot>,
    pub(crate) data_slots: Vec<SenderSlot>,
    pub(crate) ingress_tx: LinkTx,
    /// Serving is over: no input is sealed from here on.
    pub(crate) closing: bool,
    pub(crate) egress_rx: LinkRx,
    /// Sessions injected at ingress whose output has not arrived yet —
    /// at most the admission window of them.
    pub(crate) outstanding: BTreeSet<(u32, u32)>,
    pub(crate) outputs: BTreeMap<(u32, u32), Vec<u8>>,
    pub(crate) peak_in_flight: usize,
    pub(crate) chaos: Option<Arc<ChaosInjector>>,
    /// Frame buffers shared with the pumps; an egress body becomes an output.
    pub(crate) pool: FramePool,
    pub(crate) relayed: u64,
    pub(crate) retransmits: u64,
    pub(crate) sentinels: u64,
    pub(crate) reconnects: u64,
    pub(crate) rekeys: u64,
}

impl Orchestrator {
    pub(crate) fn new(
        spec: &NetPipelineSpec,
        supervision: Option<&SupervisedOptions>,
        control_slots: Vec<SenderSlot>,
        data_slots: Vec<SenderSlot>,
        pool: FramePool,
    ) -> Self {
        let last = spec.stages - 1;
        let ingress = WireEdge::between(0, HOST_NODE);
        let egress = WireEdge::between(last, HOST_NODE);
        let mut edges = BTreeMap::new();
        let mut edge_epochs = BTreeMap::new();
        for edge in [ingress, egress] {
            edges
                .entry(edge)
                .or_insert_with(|| EdgeCrypto::new(spec.seed, edge, role_at(edge, HOST_NODE)));
            edge_epochs.insert(edge, 0);
        }
        for s in 1..spec.stages {
            edge_epochs.insert(WireEdge::between(s - 1, s), 0);
        }
        Orchestrator {
            chaos: spec.injector_for(HOST_NODE),
            spec: spec.clone(),
            manifests: (0..spec.stages)
                .map(|stage| spec.manifest_for(stage, supervision))
                .collect(),
            edges,
            edge_epochs,
            control_slots,
            data_slots,
            ingress_tx: LinkTx::default(),
            closing: false,
            egress_rx: LinkRx::default(),
            outstanding: BTreeSet::new(),
            outputs: BTreeMap::new(),
            peak_in_flight: 0,
            pool,
            relayed: 0,
            retransmits: 0,
            sentinels: 0,
            reconnects: 0,
            rekeys: 0,
        }
    }

    /// Checks `stage`'s reply to its manifest: it must name itself and
    /// have hashed its shard's weights to the value the manifest carried.
    pub(crate) fn check_manifest_ack(&self, stage: u32, ack: &ManifestAck) -> NetResult<()> {
        if ack.stage != stage {
            return Err(NetError::Handshake {
                detail: format!("stage {stage} acked manifest for {}", ack.stage),
            });
        }
        let expect = self.manifests[stage as usize].weight_hash;
        if ack.weight_hash != expect {
            return Err(NetError::Handshake {
                detail: format!(
                    "stage {stage} weight hash {:#x}, expected {expect:#x}",
                    ack.weight_hash
                ),
            });
        }
        Ok(())
    }

    pub(crate) fn ingress_edge(&self) -> WireEdge {
        WireEdge::between(0, HOST_NODE)
    }

    pub(crate) fn egress_edge(&self) -> WireEdge {
        WireEdge::between(self.spec.stages - 1, HOST_NODE)
    }

    pub(crate) fn control_send(&self, stage: u32, msg: &Msg) -> NetResult<()> {
        send_on(
            &self.control_slots[stage as usize],
            &msg.encode()?,
            "control",
        )
    }

    /// [`Self::control_send`], absorbing a dead link: whatever the lost
    /// message carried, that stage's reconnect or failover re-synchronizes.
    pub(crate) fn control_send_lossy(&self, stage: u32, msg: &Msg) -> NetResult<()> {
        match self.control_send(stage, msg) {
            Ok(()) | Err(NetError::ConnectionLost { .. }) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// The ingress in-flight set and, borrowed beside it, the sending end
    /// of stage 0's host edge.
    fn ingress_link(&mut self) -> NetResult<(&mut LinkTx, LinkSender<'_>)> {
        let edge = self.ingress_edge();
        let crypto = self.edges.get_mut(&edge).ok_or(NetError::Protocol {
            detail: "ingress edge missing".to_string(),
        })?;
        let sender = LinkSender {
            crypto,
            src: HOST_NODE,
            dst: 0,
            chaos: self.chaos.as_ref(),
            slot: &self.data_slots[0],
            link: "data-0",
            pool: &self.pool,
        };
        Ok((&mut self.ingress_tx, sender))
    }

    /// Generates the input of one session, seals it onto stage 0's host
    /// edge, and tracks the session until its output arrives.
    pub(crate) fn inject(&mut self, iteration: u32, micro_batch: u32) -> NetResult<()> {
        let input = iteration_input(
            self.spec.seed,
            iteration as usize,
            micro_batch as usize,
            self.spec.activation_bytes,
        );
        self.outstanding.insert((iteration, micro_batch));
        let (tx, mut link) = self.ingress_link()?;
        link.send(tx.push(Instant::now(), iteration, micro_batch, input))?;
        self.peak_in_flight = self.peak_in_flight.max(self.ingress_tx.in_flight());
        Ok(())
    }

    /// Level-triggered ingress retransmit, mirroring the workers' sweep:
    /// any ingress frame unacknowledged past the threshold is resealed at
    /// a fresh IV, recovering losses no NACK or rekey cycle reports. Once
    /// serving is over it closes ingress.
    pub(crate) fn sweep(&mut self, now: Instant, threshold: Duration) -> NetResult<()> {
        let closing = self.closing;
        let (tx, mut link) = self.ingress_link()?;
        let resent = tx.sweep(now, threshold, |p| link.send(p).map(drop))?;
        if closing {
            link.close(tx, now, threshold)?;
        }
        self.retransmits += resent;
        Ok(())
    }

    /// Handles a data frame arriving from worker `from`: opens egress
    /// frames, relays everything else toward its destination worker.
    pub(crate) fn handle_data(&mut self, from: u32, mut frame: DataFrame) -> NetResult<()> {
        if frame.src != from {
            return Err(NetError::Protocol {
                detail: format!("stage {from} sent a frame claiming src {}", frame.src),
            });
        }
        if frame.dst == HOST_NODE {
            if frame.src != self.spec.stages - 1 {
                return Err(NetError::Protocol {
                    detail: format!("egress frame from non-final stage {}", frame.src),
                });
            }
            let edge = self.egress_edge();
            let crypto = self.edges.get_mut(&edge).ok_or(NetError::Protocol {
                detail: "egress edge missing".to_string(),
            })?;
            let ack = DataAck {
                src: frame.src,
                dst: frame.dst,
                seq: frame.seq,
            };
            match open_data(crypto, &mut frame) {
                RxOutcome::Plain(bytes) => {
                    self.control_send(frame.src, &Msg::AckData(ack))?;
                    let key = (frame.iteration, frame.micro_batch);
                    self.outstanding.remove(&key);
                    self.outputs.entry(key).or_insert(bytes);
                    // The output proves stage 0 consumed the input, whose
                    // ack races it on another connection: retire the input
                    // now, so the ingress set never outgrows the window.
                    self.ingress_tx.retire(key.0, key.1);
                }
                RxOutcome::Sentinel => {
                    self.sentinels += 1;
                    self.control_send(frame.src, &Msg::NackData(ack))?;
                }
                RxOutcome::StaleEpoch => {}
            }
            return Ok(());
        }
        let (dst, bytes) = (frame.dst, frame.into_frame()?);
        if self.relay(dst, &bytes)? {
            self.relayed += 1;
        }
        self.pool.give(bytes);
        Ok(())
    }

    /// Handles a `Fin` from worker `from`: accepts the egress edge's,
    /// relays every other behind the frames it closes.
    fn handle_fin(&mut self, from: u32, fin: Fin) -> NetResult<()> {
        let edge = self.egress_edge();
        if fin.src != from || (fin.dst == HOST_NODE && from != edge.a) {
            return Err(NetError::Protocol {
                detail: format!("stage {from} sent a Fin {} -> {}", fin.src, fin.dst),
            });
        }
        if fin.dst != HOST_NODE {
            return self.relay(fin.dst, &Msg::Fin(fin).encode()?).map(drop);
        }
        let crypto = self.edges.get_mut(&edge).ok_or(NetError::Protocol {
            detail: "egress edge missing".to_string(),
        })?;
        if self.egress_rx.accept(crypto, &fin) {
            self.control_send(fin.src, &Msg::FinAck(fin))?;
        }
        Ok(())
    }

    /// Inter-stage hop: relays a worker's frame untouched to stage `dst` (a
    /// data frame rebuilt in the buffer it was received into).
    /// Returns whether it went out: a dead destination link loses it — the
    /// destination's reconnect rekeys the edge and the source resends.
    fn relay(&self, dst: u32, frame: &[u8]) -> NetResult<bool> {
        let Some(slot) = self.data_slots.get(dst as usize) else {
            return Err(NetError::Protocol {
                detail: format!("frame routed to unknown stage {dst}"),
            });
        };
        match send_on(slot, frame, "relay") {
            Ok(()) => Ok(true),
            Err(NetError::ConnectionLost { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Handles an ACK/NACK: consumes it if it targets a host-sent frame,
    /// relays it to the sending worker otherwise.
    pub(crate) fn handle_ack(&mut self, ack: DataAck, negative: bool) -> NetResult<()> {
        if ack.src == HOST_NODE {
            if negative {
                let (tx, mut link) = self.ingress_link()?;
                if let Some(pending) = tx.get_mut(ack.seq) {
                    link.send(pending)?;
                    self.retransmits += 1;
                }
            } else {
                self.ingress_tx.ack(ack.seq);
            }
            return Ok(());
        }
        if ack.src >= self.spec.stages {
            return Err(NetError::Protocol {
                detail: format!("ack for unknown stage {}", ack.src),
            });
        }
        let msg = if negative {
            Msg::NackData(ack)
        } else {
            Msg::AckData(ack)
        };
        self.control_send(ack.src, &msg)
    }

    /// The fresh-IV recovery cycle for every edge adjacent to `stage`:
    /// bump the authoritative epoch, broadcast `RekeyEdge` to the worker
    /// endpoints, rekey the host's own end of host edges, and retransmit
    /// host-sent frames that were in flight on them.
    pub(crate) fn rekey_adjacent(&mut self, stage: u32) -> NetResult<()> {
        let mut adjacent: Vec<WireEdge> = self
            .edge_epochs
            .keys()
            .copied()
            .filter(|e| e.touches(stage))
            .collect();
        adjacent.sort();
        for edge in adjacent {
            let epoch = self.edge_epochs.get(&edge).copied().unwrap_or(0) + 1;
            self.edge_epochs.insert(edge, epoch);
            self.rekeys += 1;
            if let Some(crypto) = self.edges.get_mut(&edge) {
                crypto.rekey_to(epoch);
            }
            let rekey = Msg::RekeyEdge(RekeyEdge {
                a: edge.a,
                b: edge.b,
                epoch,
            });
            // A dead endpoint cannot hear the rekey right now; the
            // authoritative epoch is already bumped, and that stage's own
            // failover re-rekeys every adjacent edge once it is readmitted.
            // Absorbing the loss keeps concurrent adjacent failovers from
            // aborting this sweep mid-edge-list.
            self.control_send_lossy(edge.a, &rekey)?;
            if edge.b != HOST_NODE {
                self.control_send_lossy(edge.b, &rekey)?;
            }
            if edge == self.ingress_edge() {
                // Everything unacked was sealed under retired keys; resend
                // oldest first at the new epoch's fresh IVs.
                let (tx, mut link) = self.ingress_link()?;
                let resent = tx.in_flight() as u64;
                tx.pending_mut().try_for_each(|p| link.send(p).map(drop))?;
                self.retransmits += resent;
            }
        }
        Ok(())
    }

    /// Handles one event during the serve or drain phases.
    pub(crate) fn handle_event(
        &mut self,
        tag: u32,
        event: PumpEvent,
    ) -> NetResult<Option<CounterReport>> {
        let stage = tag / 2;
        match event {
            PumpEvent::Frame(msg) => match msg {
                Msg::Data(frame) => {
                    self.handle_data(stage, frame)?;
                    Ok(None)
                }
                Msg::AckData(ack) => {
                    self.handle_ack(ack, false)?;
                    Ok(None)
                }
                Msg::NackData(ack) => {
                    self.handle_ack(ack, true)?;
                    Ok(None)
                }
                Msg::Fin(fin) => {
                    self.handle_fin(stage, fin)?;
                    Ok(None)
                }
                // Routed like a data ack: ours, or back to its sender.
                Msg::FinAck(ack) if ack.src == HOST_NODE => {
                    self.ingress_tx.fin_acked(&ack);
                    Ok(None)
                }
                Msg::FinAck(ack) if ack.src < self.spec.stages => {
                    self.control_send(ack.src, &Msg::FinAck(ack))?;
                    Ok(None)
                }
                Msg::LinkRestored { stage: s } => {
                    if s != stage {
                        return Err(NetError::Protocol {
                            detail: format!("stage {stage} announced a restore for stage {s}"),
                        });
                    }
                    self.reconnects += 1;
                    self.rekey_adjacent(s)?;
                    Ok(None)
                }
                Msg::Done(report) => Ok(Some(report)),
                // Liveness beacons are echoed so the worker's monotone
                // sequence is observable end to end; a supervised run
                // intercepts them first for its deadline tracking.
                Msg::Heartbeat(hb) => {
                    self.control_send(stage, &Msg::HeartbeatAck(hb))?;
                    Ok(None)
                }
                // Late handshake identification frames are harmless.
                Msg::Hello(h) if h.stage == stage => Ok(None),
                Msg::DataHello { stage: s, .. } if s == stage => Ok(None),
                other => Err(NetError::Protocol {
                    detail: format!("unexpected {other:?} from stage {stage}"),
                }),
            },
            PumpEvent::Down => Ok(None),
            PumpEvent::Up => Ok(None),
            PumpEvent::Dead(e) => Err(e),
        }
    }

    /// Whether the drain is complete: the egress edge is closed and every
    /// stage's `Done` names the current epoch of each of its edges (one
    /// from before a rekey is stale; its stage reports again).
    fn drained(&self, reports: &[Option<CounterReport>]) -> bool {
        let current = |e: &EdgeCounterEntry| {
            self.edge_epochs.get(&WireEdge { a: e.a, b: e.b }) == Some(&e.epoch)
        };
        let egress = self.edges.get(&self.egress_edge());
        egress.is_some_and(|crypto| self.egress_rx.closed(crypto))
            && reports
                .iter()
                .flatten()
                .all(|r| r.edges.iter().all(current))
            && reports.iter().all(Option::is_some)
    }

    pub(crate) fn host_report(&self) -> CounterReport {
        CounterReport {
            stage: HOST_NODE,
            edges: edge_counters(&self.edges),
            retransmits: self.retransmits,
            sentinels: self.sentinels,
            reconnects: self.reconnects,
        }
    }
}

/// Audits that every edge's two endpoints finished in perfect lockstep:
/// same epoch, and each side's send counter equal to the other side's
/// receive counter. This is the wire-level witness that no IV was ever
/// reused or skipped asymmetrically — even across injected faults,
/// retransmits, and connection drops. A run calls it once, on the reports
/// of its drain.
pub fn audit_lockstep(reports: &[CounterReport], host: &CounterReport) -> NetResult<()> {
    let mut by_edge: BTreeMap<(u32, u32), Vec<(u32, EdgeCounterEntry)>> = BTreeMap::new();
    for report in reports.iter().chain(std::iter::once(host)) {
        for entry in &report.edges {
            by_edge
                .entry((entry.a, entry.b))
                .or_default()
                .push((report.stage, *entry));
        }
    }
    for ((a, b), entries) in by_edge {
        if entries.len() != 2 {
            return Err(NetError::Lockstep {
                detail: format!("edge {a}-{b} reported by {} endpoints", entries.len()),
            });
        }
        let (na, ea) = (entries[0].0, entries[0].1);
        let (nb, eb) = (entries[1].0, entries[1].1);
        if ea.epoch != eb.epoch {
            return Err(NetError::Lockstep {
                detail: format!(
                    "edge {a}-{b}: epoch {} at node {na} vs {} at node {nb}",
                    ea.epoch, eb.epoch
                ),
            });
        }
        if ea.tx_iv != eb.rx_iv || ea.rx_iv != eb.tx_iv {
            return Err(NetError::Lockstep {
                detail: format!(
                    "edge {a}-{b}: node {na} tx/rx {}/{} vs node {nb} tx/rx {}/{}",
                    ea.tx_iv, ea.rx_iv, eb.tx_iv, eb.rx_iv
                ),
            });
        }
    }
    Ok(())
}

/// The lifecycle every deployment runs, whatever its transport and
/// whether or not it is supervised: handshake → serve → drain → lockstep
/// audit → shutdown. Returns the workers' final counter reports and the
/// admission queue (who was shed).
fn lifecycle(
    spec: &NetPipelineSpec,
    options: Option<&SupervisedOptions>,
    orch: &mut Orchestrator,
    sup: &mut Option<Supervision>,
    events: &mut EventLoop,
) -> NetResult<(Vec<CounterReport>, AdmissionQueue)> {
    // --- Handshake (chaos cannot fire before Start: worker faults roll
    // only on fresh data frames) -----------------------------------------
    for (stage, manifest) in (0..).zip(&orch.manifests) {
        orch.control_send(stage, &Msg::Manifest(*manifest))?;
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
        let Some((tag, event)) = events.next_event(POLL_INTERVAL)? else {
            continue;
        };
        let stage = tag / 2;
        match event {
            PumpEvent::Frame(Msg::ManifestAck(ack)) => {
                orch.check_manifest_ack(stage, &ack)?;
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
        if let Some(sup) = sup.as_mut() {
            sup.supervisor.heard(stage, Instant::now());
        }
    }

    // --- Serve, then drain: admit inputs through the ingress window (a
    // completed session frees the slot the next input takes); once every
    // output is in, close ingress and run on until the drain completes --
    let mut admission = AdmissionQueue::new(
        options
            .and_then(|o| o.admission_window)
            .unwrap_or(INGRESS_WINDOW),
        options.and_then(|o| o.admission_deadline),
    );
    let drain_after = options.and_then(|o| o.drain_after);
    let mut last_activity = Instant::now();
    for iteration in 0..spec.iterations {
        for micro_batch in 0..spec.micro_batches {
            admission.enqueue((iteration, micro_batch), last_activity);
        }
    }
    let mut completed = 0usize;
    let mut reports: Vec<Option<CounterReport>> = vec![None; spec.stages as usize];
    loop {
        let now = Instant::now();
        for (iteration, micro_batch) in admission.admit(now) {
            orch.inject(iteration, micro_batch)?;
        }
        let healthy = sup.as_ref().is_none_or(|sup| sup.supervisor.all_healthy());
        if !orch.closing
            && healthy
            && admission.idle()
            && orch.outstanding.is_empty()
            && orch.ingress_tx.in_flight() == 0
        {
            (orch.closing, last_activity) = (true, now);
        }
        if orch.closing && healthy && orch.drained(&reports) {
            break;
        }
        if now.saturating_duration_since(last_activity) > spec.op_timeout {
            return Err(NetError::Timeout {
                op: if orch.closing { "drain" } else { "serve" },
                waited: spec.op_timeout,
            });
        }
        orch.sweep(now, spec.resend_after)?;
        if let Some((tag, event)) = events.next_event(POLL_INTERVAL)? {
            // Serving times out when idle, the drain when it takes longer
            // than the deadline: heartbeats must not keep a wedge alive.
            if !orch.closing {
                last_activity = Instant::now();
            }
            // Through the supervision hooks when the run has them.
            let done = match sup {
                Some(sup) => sup.handle(orch, tag, event, Instant::now())?,
                None => orch.handle_event(tag, event)?,
            };
            if let Some(report) = done {
                if !orch.closing || report.stage != tag / 2 {
                    return Err(NetError::Protocol {
                        detail: format!("stage {} sent Done out of turn", tag / 2),
                    });
                }
                reports[(tag / 2) as usize] = Some(report);
            }
        }
        // Completions free admission slots (and may flip on drain mode).
        while completed < orch.outputs.len() {
            completed += 1;
            admission.complete();
            if drain_after.is_some_and(|n| completed as u64 >= n) {
                admission.drain();
            }
        }
        if let Some(sup) = sup.as_mut() {
            sup.supervise(orch, Instant::now())?;
        }
    }

    let worker_reports: Vec<CounterReport> = reports.into_iter().flatten().collect();
    audit_lockstep(&worker_reports, &orch.host_report())?;

    for stage in 0..spec.stages {
        // Shutdown leaves now, behind what the control outbox holds.
        // Without supervision a control link lost this late still fails
        // the run; with it, the loss is absorbed like any other.
        let sent = orch
            .control_send(stage, &Msg::Shutdown)
            .and_then(|()| flush_slot(&orch.control_slots[stage as usize], "control"));
        match sent {
            Err(NetError::ConnectionLost { .. }) if sup.is_some() => {}
            sent => sent?,
        }
    }
    Ok((worker_reports, admission))
}

/// Drives one deployment over pre-established per-stage links. This is
/// the only driver: `supervision` switches on the hooks of
/// [`crate::supervisor`] (heartbeat deadlines, failover through `spawner`
/// or an external respawn loop, checkpoint barriers, admission options)
/// and is otherwise invisible — with `None` the run sends no barriers,
/// keeps no deadlines, reattaches no control link, and any lost worker is
/// fatal. `gens` are the per-stage admission generations shared with
/// whoever admits connections; `stale_rejects` counts their refusals.
///
/// # Errors
///
/// Handshake failures, protocol violations, exhausted retry budgets, phase
/// timeouts, and lockstep-audit violations. On any of them every link is
/// severed, so no worker waits out its own deadline on a run that is over.
pub(crate) fn drive(
    spec: &NetPipelineSpec,
    supervision: Option<&SupervisedOptions>,
    links: Vec<StageLinks>,
    spawner: Option<Spawner>,
    gens: Arc<Vec<AtomicU32>>,
    stale_rejects: &AtomicU64,
) -> NetResult<SupervisedReport> {
    if links.len() != spec.stages as usize {
        return Err(NetError::Protocol {
            detail: format!("{} links for {} stages", links.len(), spec.stages),
        });
    }
    // Normalize the link label to its transport kind: "duplex0" →
    // "duplex", "tcp-127.0.0.1:49022" → "tcp".
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
    let pool = FramePool::default();
    let mut ordered = links;
    ordered.sort_by_key(|l| l.stage);
    for (i, link) in ordered.into_iter().enumerate() {
        if link.stage != i as u32 {
            return Err(NetError::Protocol {
                detail: format!("missing or duplicate links for stage {i}"),
            });
        }
        for (tag, transport, reattach, slots) in [
            (
                link.stage * 2,
                link.control,
                link.control_reattach,
                &mut control_slots,
            ),
            (
                link.stage * 2 + 1,
                link.data,
                link.data_reattach,
                &mut data_slots,
            ),
        ] {
            let slot = empty_slot();
            let (sender, receiver) = transport.split()?;
            install_sender(&slot, sender);
            let kind = if tag % 2 == 0 { "control" } else { "data" };
            pumps.push(Pump::spawn(
                tag,
                format!("stage {} {kind} link", link.stage),
                receiver,
                reattach,
                slot.clone(),
                events_tx.clone(),
                pool.clone(),
            ));
            slots.push(slot);
        }
    }
    drop(events_tx);
    let slots = control_slots.iter().chain(&data_slots).cloned().collect();
    let mut events = EventLoop::new(events, slots);

    let mut orch = Orchestrator::new(spec, supervision, control_slots, data_slots, pool);
    let mut sup = supervision.map(|options| Supervision::new(spec, options, gens, spawner));
    let served = lifecycle(spec, supervision, &mut orch, &mut sup, &mut events);
    for pump in &pumps {
        pump.stop();
    }
    let (worker_reports, admission) = match served {
        Ok(served) => served,
        Err(e) => {
            for slot in orch.control_slots.iter().chain(&orch.data_slots) {
                kill_slot(slot);
            }
            return Err(e);
        }
    };

    // --- Assemble the report: completed sessions in global order ---------
    let host_report = orch.host_report();
    let (completed, outputs): (Vec<(u32, u32)>, Vec<Vec<u8>>) =
        std::mem::take(&mut orch.outputs).into_iter().unzip();
    let output_digest = digest_outputs(&outputs);
    let retransmits = orch.retransmits + worker_reports.iter().map(|r| r.retransmits).sum::<u64>();
    let sentinels = orch.sentinels + worker_reports.iter().map(|r| r.sentinels).sum::<u64>();
    let reconnects = worker_reports.iter().map(|r| r.reconnects).sum::<u64>();
    let mut stats = sup.map(|sup| sup.stats).unwrap_or_default();
    stats.stale_rejects = stale_rejects.load(Ordering::SeqCst);
    stats.shed_sessions = admission.shed().len() as u64;
    stats.backpressure_events = admission.backpressure_events();
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
        stats,
        completed,
        shed: admission.shed().to_vec(),
    })
}

/// How a deployment's workers are attached: the first of the two switches
/// [`deploy`] takes (the second is `Option<&SupervisedOptions>`).
#[derive(Debug, Clone, Copy)]
pub enum Wire<'a> {
    /// One thread per stage worker over the in-process duplex transport —
    /// hermetic, no sockets, bit-identical to the TCP wires.
    Duplex,
    /// One thread per stage worker dialing a localhost TCP listener on an
    /// ephemeral port — the single-machine stand-in for the multi-process
    /// deployment the two binaries provide.
    TcpThreads,
    /// Workers are external `stage-worker` processes dialing this bound
    /// listener (what `pipellm-orchestrator` uses); replacements come from
    /// an external respawn loop re-dialing at the next generation.
    Listener(&'a TcpListener),
}

/// Runs one complete deployment — orchestrator on the calling thread, one
/// worker per stage attached over `wire` — through the one lifecycle
/// (handshake → serve → drain → audit → shutdown).
/// `supervision` layers heartbeat deadlines, live failover, checkpoint
/// barriers and the admission options on top; `None` runs without them
/// (a lost worker then fails the run), and the report's heartbeat,
/// barrier, checkpoint and failover counters stay zero.
///
/// # Errors
///
/// Handshake/protocol violations, exhausted budgets, phase timeouts,
/// lockstep-audit violations, socket failures, and the failure of a
/// worker thread's final incarnation.
pub fn deploy(
    spec: &NetPipelineSpec,
    wire: Wire<'_>,
    supervision: Option<&SupervisedOptions>,
) -> NetResult<SupervisedReport> {
    spec.validate()?;
    let crew = Crew::new(spec, supervision);
    crew.join(crew.run(wire))
}

/// [`deploy`] over [`Wire::TcpThreads`], unsupervised (a name the
/// benchmark pins).
pub fn run_tcp_threads(spec: &NetPipelineSpec) -> NetResult<NetReport> {
    deploy(spec, Wire::TcpThreads, None).map(|report| report.net)
}

/// [`deploy`] over [`Wire::TcpThreads`], supervised (a name the benchmark
/// pins).
pub fn run_supervised_tcp_threads(
    spec: &NetPipelineSpec,
    options: &SupervisedOptions,
) -> NetResult<SupervisedReport> {
    deploy(spec, Wire::TcpThreads, Some(options))
}

/// Dials the two connections of `config`'s incarnation against `addr`
/// within its deadline and identifies them (`Hello` rides later in the
/// worker's own handshake; the transport-level identification here is
/// what the acceptor routes on). The connections identify as the config's
/// generation — the acceptor rejects anything below the stage's current
/// generation.
pub fn dial_worker_links(
    addr: std::net::SocketAddr,
    config: &WorkerConfig,
) -> NetResult<WorkerLinks> {
    let (stage, generation) = (config.stage, config.generation);
    let deadline = Instant::now() + config.op_timeout;
    let control = loop {
        match TcpTransport::connect(addr, format!("tcp-ctl{stage}")) {
            Ok(t) => break t,
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(DIAL_RETRY);
            }
            Err(e) => return Err(e),
        }
    };
    let mut dial = TcpDial::new(addr, stage, generation, format!("tcp{stage}"));
    let data = dial.reattach(deadline.saturating_duration_since(Instant::now()))?;
    Ok(WorkerLinks {
        control: Box::new(control),
        data,
        data_reattach: Some(Box::new(dial)),
    })
}

/// One worker incarnation on a thread: `(stage, generation, handle)`.
type WorkerHandle = (u32, u32, JoinHandle<NetResult<CounterReport>>);

/// What one run's driver, acceptor, duplex admission guards and
/// replacement spawner share about its worker incarnations.
#[derive(Clone)]
struct Crew {
    spec: NetPipelineSpec,
    supervision: Option<SupervisedOptions>,
    /// Per stage, the admission generation of its current incarnation.
    gens: Arc<Vec<AtomicU32>>,
    /// Connections refused for presenting a superseded generation.
    stale_rejects: Arc<AtomicU64>,
    /// Every incarnation spawned on a thread of this process.
    handles: Arc<Mutex<Vec<WorkerHandle>>>,
}

impl Crew {
    fn new(spec: &NetPipelineSpec, supervision: Option<&SupervisedOptions>) -> Self {
        Crew {
            spec: spec.clone(),
            supervision: supervision.cloned(),
            gens: Arc::new((0..spec.stages).map(|_| AtomicU32::new(0)).collect()),
            stale_rejects: Arc::new(AtomicU64::new(0)),
            handles: Arc::default(),
        }
    }

    fn lock_handles(&self) -> std::sync::MutexGuard<'_, Vec<WorkerHandle>> {
        match self.handles.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Spawns incarnation `generation` of `stage` on a thread: `connect`
    /// its links, then run the worker over them. Everything else the
    /// worker needs arrives in its manifest.
    fn spawn(
        &self,
        stage: u32,
        generation: u32,
        connect: impl FnOnce(&WorkerConfig) -> NetResult<WorkerLinks> + Send + 'static,
    ) {
        let config = WorkerConfig {
            stage,
            generation,
            op_timeout: self.spec.op_timeout,
        };
        let handle = std::thread::spawn(move || run_worker(connect(&config)?, config));
        self.lock_handles().push((stage, generation, handle));
    }

    /// An incarnation dialing `addr` over TCP.
    fn spawn_dialer(&self, addr: std::net::SocketAddr, stage: u32, generation: u32) {
        self.spawn(stage, generation, move |config| {
            dial_worker_links(addr, config)
        });
    }

    /// An incarnation attached to `stage`'s duplex cores at their current
    /// link generation. Its data reattach is pinned: it stays admitted
    /// while the stage's generation cell has not moved past `generation`,
    /// and a refusal is counted as a stale reject — the same accounting
    /// the TCP acceptor keeps when it drops a superseded `DataHello`.
    fn spawn_duplex(
        &self,
        stage: u32,
        generation: u32,
        ctl_core: &Arc<DuplexCore>,
        data_core: &Arc<DuplexCore>,
    ) {
        let ctl = duplex_handle(ctl_core, 1, format!("duplex-ctl{stage}-g{generation}"));
        let data = duplex_handle(data_core, 1, format!("duplex{stage}-g{generation}"));
        let (gens, rejects) = (Arc::clone(&self.gens), Arc::clone(&self.stale_rejects));
        let reattach = DuplexActive::pinned(
            Arc::clone(data_core),
            1,
            format!("duplex{stage}-g{generation}-worker"),
            Box::new(move || {
                let admitted = gens[stage as usize].load(Ordering::SeqCst) <= generation;
                if !admitted {
                    rejects.fetch_add(1, Ordering::SeqCst);
                }
                admitted
            }),
        );
        self.spawn(stage, generation, move |_| {
            Ok(WorkerLinks {
                control: Box::new(ctl),
                data: Box::new(data),
                data_reattach: Some(Box::new(reattach)),
            })
        });
    }

    /// Attaches the workers over `wire` and drives the run.
    fn run(&self, wire: Wire<'_>) -> NetResult<SupervisedReport> {
        let bound;
        let (links, spawner, _acceptor): (_, Option<Spawner>, _) = match wire {
            Wire::Duplex => {
                let mut links = Vec::new();
                let mut cores = Vec::new();
                for stage in 0..self.spec.stages {
                    let (ctl_orch, _, ctl_core) = duplex_pair(&format!("duplex-ctl{stage}"));
                    let (data_orch, _, data_core) = duplex_pair(&format!("duplex{stage}"));
                    let passive = |core: &Arc<DuplexCore>, link: &str| -> Box<dyn Reattach> {
                        let label = format!("duplex{link}{stage}-orch");
                        Box::new(DuplexPassive::new(Arc::clone(core), 0, label))
                    };
                    links.push(StageLinks {
                        stage,
                        control: Box::new(ctl_orch),
                        control_reattach: self
                            .supervision
                            .as_ref()
                            .map(|_| passive(&ctl_core, "-ctl")),
                        data: Box::new(data_orch),
                        data_reattach: Some(passive(&data_core, "")),
                    });
                    self.spawn_duplex(stage, 0, &ctl_core, &data_core);
                    cores.push((ctl_core, data_core));
                }
                let crew = self.clone();
                let respawn = move |stage: u32, generation| {
                    let (ctl_core, data_core) = &cores[stage as usize];
                    // Fresh link generations: the orchestrator-side
                    // passive reattach providers wake on these resets.
                    ctl_core.reset();
                    data_core.reset();
                    crew.spawn_duplex(stage, generation, ctl_core, data_core);
                };
                (links, Some(Box::new(respawn)), None)
            }
            Wire::TcpThreads => {
                bound =
                    TcpListener::bind(("127.0.0.1", 0)).map_err(|e| NetError::io("bind", &e))?;
                let addr = bound
                    .local_addr()
                    .map_err(|e| NetError::io("local_addr", &e))?;
                for stage in 0..self.spec.stages {
                    self.spawn_dialer(addr, stage, 0);
                }
                let crew = self.clone();
                let respawn = move |stage, generation| crew.spawn_dialer(addr, stage, generation);
                let (acceptor, links) = self.accept(&bound)?;
                (links, Some(Box::new(respawn)), Some(acceptor))
            }
            Wire::Listener(listener) => {
                let (acceptor, links) = self.accept(listener)?;
                (links, None, Some(acceptor))
            }
        };
        drive(
            &self.spec,
            self.supervision.as_ref(),
            links,
            spawner,
            Arc::clone(&self.gens),
            &self.stale_rejects,
        )
    }

    /// Starts the accept loop on `listener` and waits for the first
    /// identified control and data connection of every stage; the links'
    /// reattach providers keep pulling re-dials from the same queues for
    /// as long as the returned [`Acceptor`] lives.
    fn accept<'a>(&self, listener: &'a TcpListener) -> NetResult<(Acceptor<'a>, Vec<StageLinks>)> {
        let stages = self.spec.stages as usize;
        let (ctl_txs, ctl_rxs): (Vec<_>, Vec<_>) = (0..stages).map(|_| mpsc::channel()).unzip();
        let (data_txs, data_rxs): (Vec<_>, Vec<_>) = (0..stages).map(|_| mpsc::channel()).unzip();
        let acceptor = Acceptor::spawn(listener, self, ctl_txs, data_txs)?;
        let supervised = self.supervision.is_some();
        let deadline = Instant::now() + self.spec.op_timeout;
        let mut links = Vec::with_capacity(stages);
        for (stage, (ctl_rx, data_rx)) in ctl_rxs.into_iter().zip(data_rxs).enumerate() {
            let control = recv_accepted(&ctl_rx, deadline, "control accept")?;
            let data = recv_accepted(&data_rx, deadline, "data accept")?;
            let slot = |rx| -> Box<dyn Reattach> { Box::new(TcpAcceptSlot::new(rx)) };
            links.push(StageLinks {
                stage: stage as u32,
                control: Box::new(control),
                control_reattach: supervised.then(|| slot(ctl_rx)),
                data: Box::new(data),
                data_reattach: Some(slot(data_rx)),
            });
        }
        Ok((acceptor, links))
    }

    /// Joins every worker incarnation. Errors from superseded generations
    /// are the injected deaths the run recovered from and are ignored; an
    /// error from a stage's *final* generation is real and fails the run.
    fn join(&self, result: NetResult<SupervisedReport>) -> NetResult<SupervisedReport> {
        let list: Vec<WorkerHandle> = std::mem::take(&mut *self.lock_handles());
        let mut worker_error = None;
        for (stage, generation, handle) in list {
            if generation < self.gens[stage as usize].load(Ordering::SeqCst) {
                let _ = handle.join();
                continue;
            }
            match handle.join() {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => worker_error = Some(e),
                Err(_) => {
                    worker_error = Some(NetError::Protocol {
                        detail: "worker thread panicked".to_string(),
                    })
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

/// The generation-aware accept loop of one run, on its own thread; drop
/// it to wake and join the thread.
///
/// Every connection (control *and* data, initial *and* re-dialed)
/// identifies itself with its stage and admission generation. Anything
/// below the stage's current generation is a stale incarnation and is
/// rejected; anything at or above it moves the generation cell forward and
/// is routed to the stage's queue. A connection that does not identify —
/// silent, closed, or not speaking the protocol — is dropped and the loop
/// keeps accepting: a stranger on the port costs the run nothing.
struct Acceptor<'a> {
    listener: &'a TcpListener,
    thread: Option<JoinHandle<()>>,
}

impl<'a> Acceptor<'a> {
    fn spawn(
        listener: &'a TcpListener,
        crew: &Crew,
        ctl_txs: Vec<mpsc::Sender<TcpTransport>>,
        data_txs: Vec<mpsc::Sender<TcpTransport>>,
    ) -> NetResult<Self> {
        let theirs = listener
            .try_clone()
            .map_err(|e| NetError::io("try_clone", &e))?;
        let ident_timeout = crew.spec.op_timeout;
        let supervised = crew.supervision.is_some();
        let (gens, stale_rejects) = (Arc::clone(&crew.gens), Arc::clone(&crew.stale_rejects));
        let thread = std::thread::spawn(move || loop {
            let Ok((stream, peer)) = theirs.accept() else {
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
            let (stage, generation, queues) = match Msg::decode(&first) {
                Ok(Msg::Hello(h)) => (h.stage as usize, h.generation, &ctl_txs),
                Ok(Msg::DataHello { stage, generation }) => (stage as usize, generation, &data_txs),
                _ => continue,
            };
            let Some(cell) = gens.get(stage) else {
                continue;
            };
            if generation < cell.load(Ordering::SeqCst) {
                // A redial of a superseded incarnation racing its own death:
                // rejected at identification, never spliced into a slot.
                stale_rejects.fetch_add(1, Ordering::SeqCst);
                continue;
            }
            if !supervised && generation != 0 {
                // Without supervision a stage has exactly one incarnation,
                // so a later generation is a bug of the dialer; refuse it
                // rather than splice a wrong-incarnation connection in.
                continue;
            }
            cell.fetch_max(generation, Ordering::SeqCst);
            // A closed queue is a link nobody reattaches (the control link
            // of an unsupervised run); the connection is dropped.
            let _ = queues[stage].send(transport);
        });
        Ok(Acceptor {
            listener,
            thread: Some(thread),
        })
    }
}

impl Drop for Acceptor<'_> {
    fn drop(&mut self) {
        // Flip the listener to nonblocking FIRST, so an accept() the
        // thread enters after consuming the wake-up connection returns
        // WouldBlock instead of re-blocking (the flag is checked at
        // syscall entry — it cannot wake a thread already parked in
        // accept), then dial once to wake it if it is parked right now.
        drop(self.listener.set_nonblocking(true));
        if let Ok(addr) = self.listener.local_addr() {
            let _ = std::net::TcpStream::connect(addr);
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        drop(self.listener.set_nonblocking(false));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipellm_chaos::FaultKind;

    fn small_spec() -> NetPipelineSpec {
        NetPipelineSpec {
            stages: 4,
            layers: 8,
            iterations: 2,
            micro_batches: 2,
            activation_bytes: 512,
            seed: 0xFEED,
            // Phase timeouts only fire on a true wedge; generous values
            // keep a starved single-core test runner from tripping them.
            op_timeout: Duration::from_secs(60),
            ..NetPipelineSpec::default()
        }
    }

    #[test]
    fn duplex_pipeline_matches_reference_outputs() {
        let spec = small_spec();
        let report = deploy(&spec, Wire::Duplex, None).unwrap().net;
        assert_eq!(report.outputs, spec.expected_outputs());
        assert_eq!(report.worker_reports.len(), 4);
        assert_eq!(report.sentinels, 0);
        assert_eq!(report.reconnects, 0);
        assert!(report.lockstep_ok);
        // Middle hops are relayed ciphertext: 3 inter-stage edges carry
        // 4 frames each. A starved scheduler can add sweep duplicates.
        assert!(
            report.relayed_frames >= 12,
            "relayed {}",
            report.relayed_frames
        );
    }

    #[test]
    fn single_stage_duplex_roundtrips() {
        let spec = NetPipelineSpec {
            stages: 1,
            layers: 3,
            iterations: 1,
            micro_batches: 2,
            activation_bytes: 128,
            op_timeout: Duration::from_secs(60),
            ..NetPipelineSpec::default()
        };
        let report = deploy(&spec, Wire::Duplex, None).unwrap().net;
        assert_eq!(report.outputs, spec.expected_outputs());
        assert_eq!(report.relayed_frames, 0);
    }

    #[test]
    fn ingress_never_exceeds_the_window() {
        let spec = NetPipelineSpec {
            stages: 2,
            layers: 2,
            iterations: 1,
            micro_batches: 8 * INGRESS_WINDOW as u32,
            activation_bytes: 64,
            ..small_spec()
        };
        let report = deploy(&spec, Wire::Duplex, None).unwrap().net;
        assert_eq!(report.outputs, spec.expected_outputs());
        assert!(report.lockstep_ok);
        assert!(
            (1..=INGRESS_WINDOW).contains(&report.peak_in_flight),
            "peak in flight {}",
            report.peak_in_flight
        );
    }

    #[test]
    fn an_output_retires_its_input_before_the_ingress_ack_arrives() {
        // Stage 0 acks its input on the control connection, the last stage
        // sends the output on the data connection, and nothing orders the
        // two: the output alone must free the ingress slot, and the late
        // NACK or ack must find nothing to resend or drop.
        let spec = NetPipelineSpec {
            stages: 1,
            layers: 1,
            ..small_spec()
        };
        let slots = ["ctl", "data"].map(|label| {
            let (near, far, _) = duplex_pair(label);
            let slot = empty_slot();
            install_sender(&slot, Box::new(near).split().unwrap().0);
            (vec![slot], far)
        });
        let [(control, _ctl_far), (data, _data_far)] = slots;
        let mut orch = Orchestrator::new(&spec, None, control, data, FramePool::default());
        orch.inject(0, 0).unwrap();
        assert_eq!(orch.ingress_tx.in_flight(), 1);

        let edge = WireEdge::between(0, HOST_NODE);
        let mut stage = EdgeCrypto::new(spec.seed, edge, role_at(edge, 0));
        let aad = DataFrame::bind_aad(0, HOST_NODE, 0, 0, 0, 3);
        let output = DataFrame {
            src: 0,
            dst: HOST_NODE,
            seq: 0,
            epoch: 0,
            iteration: 0,
            micro_batch: 0,
            sealed: stage.seal(&aad, b"out").unwrap().bytes,
        };
        orch.handle_data(0, output).unwrap();
        assert_eq!(orch.outputs[&(0, 0)], b"out");
        assert_eq!(orch.ingress_tx.in_flight(), 0, "input retired");

        let ack = DataAck {
            src: HOST_NODE,
            dst: 0,
            seq: 0,
        };
        orch.handle_ack(ack, true).unwrap();
        orch.handle_ack(ack, false).unwrap();
        assert_eq!((orch.ingress_tx.in_flight(), orch.retransmits), (0, 0));
    }

    #[test]
    fn chaos_duplex_recovers_and_stays_bit_identical() {
        let spec = NetPipelineSpec {
            net_fault_rate: 0.25,
            ..small_spec()
        };
        let report = deploy(&spec, Wire::Duplex, None).unwrap().net;
        assert_eq!(
            report.outputs,
            spec.expected_outputs(),
            "faulted run must still be bit-identical"
        );
        assert!(
            report.sentinels + report.reconnects > 0,
            "a 25% fault rate must actually fire"
        );
        assert!(report.lockstep_ok);
    }

    #[test]
    fn an_unsupervised_run_that_loses_a_worker_fails_fast_with_no_replacement() {
        // Walk the chaos seed until the schedule — predicted by rolling
        // fresh copies of the injectors the run will build — is exactly
        // one fault: a kill of stage 1 somewhere within the run.
        let base = NetPipelineSpec {
            stages: 3,
            layers: 6,
            iterations: 8,
            micro_batches: 4,
            worker_fault_rate: 0.05,
            ..small_spec()
        };
        let sessions = base.iterations * base.micro_batches;
        let spec = (0..100_000)
            .map(|chaos_seed| NetPipelineSpec {
                chaos_seed,
                ..base.clone()
            })
            .find(|spec| {
                (0..spec.stages).all(|stage| {
                    let injector = spec.injector_for(stage).expect("worker faults are on");
                    let first = (0..sessions).find_map(|_| injector.roll_worker());
                    match first {
                        Some(fault) => stage == 1 && fault.kind == FaultKind::StageKill,
                        None => stage != 1,
                    }
                })
            })
            .expect("some chaos seed kills only stage 1");

        let crew = Crew::new(&spec, None);
        let start = Instant::now();
        let result = crew.run(Wire::Duplex);
        let incarnations: Vec<(u32, u32)> = crew
            .lock_handles()
            .iter()
            .map(|(stage, generation, _)| (*stage, *generation))
            .collect();
        // Without supervision nobody reattaches the dead control link: the
        // run is over, promptly, and every worker thread comes home.
        assert!(crew.join(result).is_err(), "a lost worker must be fatal");
        assert!(
            start.elapsed() < spec.op_timeout / 4,
            "failed only after {:?}",
            start.elapsed()
        );
        assert_eq!(incarnations, vec![(0, 0), (1, 0), (2, 0)]);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = vec![vec![1u8, 2], vec![3u8, 4]];
        let b = vec![vec![3u8, 4], vec![1u8, 2]];
        assert_ne!(digest_outputs(&a), digest_outputs(&b));
        assert_eq!(digest_outputs(&a), digest_outputs(&a));
    }

    #[test]
    fn spec_validation_rejects_degenerate_shapes() {
        let mut spec = small_spec();
        spec.stages = 0;
        assert!(spec.validate().is_err());
        let mut spec = small_spec();
        spec.layers = 2;
        assert!(spec.validate().is_err());
    }
}
