//! The orchestrator: handshake driver, ciphertext relay, and auditor.
//!
//! The orchestrator is the hub of the star topology. It drives the
//! versioned handshake (welcome → shard manifests → acks → start), seals
//! model inputs onto stage 0's host edge — at most
//! [`INGRESS_WINDOW`] sessions in flight at once, the next input admitted
//! as an output arrives — relays worker↔worker data
//! frames *without being able to read them* (edge keys are end-to-end),
//! opens the last stage's outputs on the egress host edge, and sequences
//! the drain/report/shutdown at the end of a run.
//!
//! Recovery is orchestrator-coordinated: when a worker announces
//! `LinkRestored` after its data connection was dropped and re-dialed, the
//! orchestrator bumps the authoritative epoch of every edge adjacent to
//! that worker and broadcasts `RekeyEdge` to the affected endpoints. Both
//! ends of each edge rederive keys at the new epoch with IV counters back
//! at 1, and the sending side retransmits everything unacknowledged —
//! fresh keys, fresh IVs, no counter ever reused.
//!
//! [`run_duplex`] and [`run_tcp_threads`] stand up a complete deployment
//! (orchestrator plus one thread per stage worker) on the in-process
//! duplex transport and on real localhost TCP sockets respectively; the
//! bit-exactness tests hold their outputs identical to each other and to
//! the plain in-process computation.

use crate::error::{NetError, NetResult};
use crate::link::{
    empty_slot, install_sender, open_data, role_at, send_on, EdgeCrypto, LinkSender, LinkTx,
    RxOutcome, SenderSlot, WireEdge,
};
use crate::proto::{
    CounterReport, DataAck, DataFrame, EdgeCounterEntry, Msg, RekeyEdge, ShardManifest, Welcome,
    ACCEPT_POLL, DIAL_RETRY, HOST_NODE, INGRESS_WINDOW, OP_TIMEOUT, POLL_INTERVAL, QUIET_WINDOW,
    RESEND_AFTER,
};
use crate::pump::{Pump, PumpEvent};
use crate::supervisor::AdmissionQueue;
use crate::transport::{
    duplex_pair, DuplexActive, DuplexPassive, Reattach, TcpAcceptSlot, TcpDial, TcpTransport,
    Transport,
};
use crate::worker::{run_worker, wire_retry_policy, WorkerConfig, WorkerLinks};
use pipellm::partition::{apply_stage, iteration_input, stage_weight_hash, StagePartition};
use pipellm_chaos::{ChaosInjector, FaultPlan, RetryPolicy};
use pipellm_crypto::session::derive_subseed;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Everything that defines one networked pipeline run.
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
    /// Wire-scale retry policy for reconnects and retransmits.
    pub policy: RetryPolicy,
    /// Receive-poll granularity.
    pub poll: Duration,
    /// Per-phase deadline (handshake, serve idle, drain, shutdown).
    pub op_timeout: Duration,
    /// Silence window declaring a drained data plane.
    pub quiet: Duration,
    /// Age at which an unacknowledged frame is retransmitted by the
    /// level-triggered sweep.
    pub resend_after: Duration,
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
            policy: wire_retry_policy(),
            poll: POLL_INTERVAL,
            op_timeout: OP_TIMEOUT,
            quiet: QUIET_WINDOW,
            resend_after: RESEND_AFTER,
        }
    }
}

impl NetPipelineSpec {
    /// Checks the spec is runnable.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on zero stages/iterations/micro-batches or a
    /// layer count below the stage count.
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
        Ok(())
    }

    /// The shard manifest of `stage` under this spec's balanced partition.
    pub fn manifest_for(&self, stage: u32) -> ShardManifest {
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
    /// an independent deterministic stream.
    pub fn injector_for(&self, node: u32) -> Option<Arc<ChaosInjector>> {
        let worker_rate = if node == HOST_NODE {
            0.0 // the orchestrator process is the trusted computing base here
        } else {
            self.worker_fault_rate
        };
        if self.net_fault_rate <= 0.0 && worker_rate <= 0.0 {
            return None;
        }
        let seed = derive_subseed(self.chaos_seed, u64::from(node));
        Some(Arc::new(ChaosInjector::new(
            FaultPlan::new(seed)
                .with_net_rate(self.net_fault_rate)
                .with_stage_rate(worker_rate),
        )))
    }

    pub(crate) fn worker_config(&self, stage: u32) -> WorkerConfig {
        let mut config = WorkerConfig::new(stage);
        config.policy = self.policy;
        config.poll = self.poll;
        config.op_timeout = self.op_timeout;
        config.quiet = self.quiet;
        config.resend_after = self.resend_after;
        config.chaos = self.injector_for(stage);
        config
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
    /// Worker↔worker frames relayed (ciphertext the host could not read).
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
pub struct OrchestratorLinks {
    /// The stage these connections belong to.
    pub stage: u32,
    /// Control connection.
    pub control: Box<dyn Transport>,
    /// Data connection.
    pub data: Box<dyn Transport>,
    /// Passive reattach provider for the data connection (waits for the
    /// worker's re-dial); `None` disables recovery on this link.
    pub data_reattach: Option<Box<dyn Reattach>>,
}

pub(crate) struct Orchestrator {
    pub(crate) spec: NetPipelineSpec,
    pub(crate) edges: BTreeMap<WireEdge, EdgeCrypto>,
    /// Authoritative epoch of every edge in the deployment.
    pub(crate) edge_epochs: BTreeMap<WireEdge, u32>,
    pub(crate) control_slots: Vec<SenderSlot>,
    pub(crate) data_slots: Vec<SenderSlot>,
    pub(crate) ingress_tx: LinkTx,
    /// Sessions injected at ingress whose output has not arrived yet —
    /// at most the admission window of them.
    pub(crate) outstanding: BTreeSet<(u32, u32)>,
    pub(crate) outputs: BTreeMap<(u32, u32), Vec<u8>>,
    pub(crate) peak_in_flight: usize,
    pub(crate) chaos: Option<Arc<ChaosInjector>>,
    pub(crate) relayed: u64,
    pub(crate) retransmits: u64,
    pub(crate) sentinels: u64,
    pub(crate) reconnects: u64,
    pub(crate) rekeys: u64,
}

impl Orchestrator {
    pub(crate) fn new(
        spec: &NetPipelineSpec,
        control_slots: Vec<SenderSlot>,
        data_slots: Vec<SenderSlot>,
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
            edges,
            edge_epochs,
            control_slots,
            data_slots,
            ingress_tx: LinkTx::default(),
            outstanding: BTreeSet::new(),
            outputs: BTreeMap::new(),
            peak_in_flight: 0,
            relayed: 0,
            retransmits: 0,
            sentinels: 0,
            reconnects: 0,
            rekeys: 0,
        }
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
            policy: &self.spec.policy,
            slot: &self.data_slots[0],
            link: "data-0",
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
    /// a fresh IV, recovering losses no NACK or rekey cycle reports.
    pub(crate) fn sweep(&mut self, now: Instant, threshold: Duration) -> NetResult<()> {
        let (tx, mut link) = self.ingress_link()?;
        self.retransmits += tx.sweep(now, threshold, |p| link.send(p).map(drop))?;
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
            match open_data(crypto, &mut frame) {
                RxOutcome::Plain(bytes) => {
                    self.control_send(
                        frame.src,
                        &Msg::AckData(DataAck {
                            src: frame.src,
                            dst: frame.dst,
                            seq: frame.seq,
                        }),
                    )?;
                    let key = (frame.iteration, frame.micro_batch);
                    self.outstanding.remove(&key);
                    self.outputs.entry(key).or_insert(bytes);
                }
                RxOutcome::Sentinel => {
                    self.sentinels += 1;
                    self.control_send(
                        frame.src,
                        &Msg::NackData(DataAck {
                            src: frame.src,
                            dst: frame.dst,
                            seq: frame.seq,
                        }),
                    )?;
                }
                RxOutcome::StaleEpoch => {}
            }
            return Ok(());
        }
        if frame.dst >= self.spec.stages {
            return Err(NetError::Protocol {
                detail: format!("frame routed to unknown stage {}", frame.dst),
            });
        }
        // Inter-stage hop: relay the sealed bytes untouched. A dead
        // destination link loses the frame here — the destination's
        // reconnect rekeys the edge and the source retransmits.
        let dst = frame.dst as usize;
        let relayed = Msg::Data(frame).encode()?;
        match send_on(&self.data_slots[dst], &relayed, "relay") {
            Ok(()) => self.relayed += 1,
            Err(NetError::ConnectionLost { .. }) => {}
            Err(e) => return Err(e),
        }
        Ok(())
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
            match self.control_send(edge.a, &rekey) {
                Ok(()) | Err(NetError::ConnectionLost { .. }) => {}
                Err(e) => return Err(e),
            }
            if edge.b != HOST_NODE {
                match self.control_send(edge.b, &rekey) {
                    Ok(()) | Err(NetError::ConnectionLost { .. }) => {}
                    Err(e) => return Err(e),
                }
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
                // sequence is observable end to end; the supervised driver
                // additionally feeds them to its deadline tracking.
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

    pub(crate) fn host_report(&self) -> CounterReport {
        CounterReport {
            stage: HOST_NODE,
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

/// Audits that every edge's two endpoints finished in perfect lockstep:
/// same epoch, and each side's send counter equal to the other side's
/// receive counter. This is the wire-level witness that no IV was ever
/// reused or skipped asymmetrically — even across injected faults,
/// retransmits, and connection drops.
pub(crate) fn audit_lockstep(reports: &[CounterReport], host: &CounterReport) -> NetResult<()> {
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

pub(crate) fn next_event(
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

/// Runs the orchestrator over pre-established per-worker links and drives
/// a full deployment lifecycle: handshake, serve, sequenced drain,
/// lockstep audit, shutdown.
///
/// # Errors
///
/// Handshake failures, protocol violations, exhausted retry budgets, phase
/// timeouts, and lockstep-audit violations.
pub fn run_orchestrator(
    spec: &NetPipelineSpec,
    links: Vec<OrchestratorLinks>,
) -> NetResult<NetReport> {
    spec.validate()?;
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
    let mut ordered: Vec<OrchestratorLinks> = links;
    ordered.sort_by_key(|l| l.stage);
    for (i, link) in ordered.into_iter().enumerate() {
        if link.stage != i as u32 {
            return Err(NetError::Protocol {
                detail: format!("missing or duplicate links for stage {i}"),
            });
        }
        let control_slot = empty_slot();
        let data_slot = empty_slot();
        let (ctl_sender, ctl_receiver) = link.control.split()?;
        install_sender(&control_slot, ctl_sender);
        let (data_sender, data_receiver) = link.data.split()?;
        install_sender(&data_slot, data_sender);
        pumps.push(Pump::spawn(
            link.stage * 2,
            ctl_receiver,
            None,
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

    // --- Handshake -------------------------------------------------------
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
    }

    // --- Serve: admit inputs through the ingress window, collect every
    // output; a completed session frees the slot the next input takes ----
    let total = (spec.iterations * spec.micro_batches) as usize;
    let mut admission = AdmissionQueue::new(INGRESS_WINDOW, None);
    let mut last_activity = Instant::now();
    for iteration in 0..spec.iterations {
        for micro_batch in 0..spec.micro_batches {
            admission.enqueue((iteration, micro_batch), last_activity);
        }
    }
    let mut completed = 0usize;
    loop {
        let now = Instant::now();
        for (iteration, micro_batch) in admission.admit(now) {
            orch.inject(iteration, micro_batch)?;
        }
        if orch.outputs.len() == total && orch.ingress_tx.in_flight() == 0 {
            break;
        }
        if now.saturating_duration_since(last_activity) > spec.op_timeout {
            return Err(NetError::Timeout {
                op: "serve",
                waited: spec.op_timeout,
            });
        }
        orch.sweep(now, spec.resend_after)?;
        let Some((tag, event)) = next_event(&events, spec.poll)? else {
            continue;
        };
        last_activity = Instant::now();
        if let Some(report) = orch.handle_event(tag, event)? {
            return Err(NetError::Protocol {
                detail: format!("stage {} reported Done before Finish", report.stage),
            });
        }
        while completed < orch.outputs.len() {
            completed += 1;
            admission.complete();
        }
    }

    // --- Sequenced drain: Finish flows downstream, stage by stage, so a
    // stage only reports once its upstream can no longer create frames ---
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
            if let Some(report) = orch.handle_event(tag, event)? {
                if report.stage == stage {
                    worker_reports.push(report);
                    break;
                }
                // An updated Done from an already-drained stage: a sweep
                // duplicate was opened after its first report.
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

    // --- Flush to quiescence so the audit sees final counters: late sweep
    // duplicates are opened here and their updated Dones collected. ------
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
            if let Some(report) = orch.handle_event(tag, event)? {
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
        orch.control_send(stage, &Msg::Shutdown)?;
    }
    for pump in &pumps {
        pump.stop();
    }

    let mut outputs = Vec::with_capacity(total);
    for iteration in 0..spec.iterations {
        for micro_batch in 0..spec.micro_batches {
            let bytes =
                orch.outputs
                    .remove(&(iteration, micro_batch))
                    .ok_or(NetError::Protocol {
                        detail: format!("missing output ({iteration}, {micro_batch})"),
                    })?;
            outputs.push(bytes);
        }
    }
    let output_digest = digest_outputs(&outputs);
    let retransmits = orch.retransmits + worker_reports.iter().map(|r| r.retransmits).sum::<u64>();
    let sentinels = orch.sentinels + worker_reports.iter().map(|r| r.sentinels).sum::<u64>();
    let reconnects = worker_reports.iter().map(|r| r.reconnects).sum::<u64>();
    Ok(NetReport {
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
    })
}

/// Runs a complete deployment on the in-process duplex transport: one
/// thread per stage worker, the orchestrator on the calling thread —
/// hermetic, no sockets, bit-identical to the TCP path.
pub fn run_duplex(spec: &NetPipelineSpec) -> NetResult<NetReport> {
    spec.validate()?;
    let mut links = Vec::new();
    let mut handles = Vec::new();
    for stage in 0..spec.stages {
        let (ctl_orch, ctl_worker, _ctl_core) = duplex_pair(&format!("duplex-ctl{stage}"));
        let (data_orch, data_worker, data_core) = duplex_pair(&format!("duplex{stage}"));
        let worker_reattach =
            DuplexActive::new(Arc::clone(&data_core), 1, format!("duplex{stage}-worker"));
        let orch_reattach = DuplexPassive::new(data_core, 0, format!("duplex{stage}-orch"));
        links.push(OrchestratorLinks {
            stage,
            control: Box::new(ctl_orch),
            data: Box::new(data_orch),
            data_reattach: Some(Box::new(orch_reattach)),
        });
        let config = spec.worker_config(stage);
        handles.push(std::thread::spawn(move || {
            run_worker(
                WorkerLinks {
                    control: Box::new(ctl_worker),
                    data: Box::new(data_worker),
                    data_reattach: Some(Box::new(worker_reattach)),
                },
                config,
            )
        }));
    }
    let result = run_orchestrator(spec, links);
    join_workers(handles, result)
}

/// Runs a complete deployment over real localhost TCP sockets, with every
/// stage worker on its own thread dialing the orchestrator's listener —
/// the single-machine stand-in for the multi-process deployment the two
/// binaries provide.
pub fn run_tcp_threads(spec: &NetPipelineSpec) -> NetResult<NetReport> {
    spec.validate()?;
    let listener =
        std::net::TcpListener::bind(("127.0.0.1", 0)).map_err(|e| NetError::io("bind", &e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| NetError::io("local_addr", &e))?;

    let mut handles = Vec::new();
    for stage in 0..spec.stages {
        let config = spec.worker_config(stage);
        handles.push(std::thread::spawn(move || {
            let links = dial_worker_links(addr, stage, config.generation, config.op_timeout)?;
            run_worker(links, config)
        }));
    }
    let result = accept_and_run(spec, &listener);
    join_workers(handles, result)
}

/// Dials the two connections of `stage` against `addr` and identifies them
/// (`Hello` rides later in the worker's own handshake; the transport-level
/// identification here is what the acceptor routes on). `generation` is
/// the incarnation the connections identify as — a supervised acceptor
/// rejects anything below the stage's current generation.
pub fn dial_worker_links(
    addr: std::net::SocketAddr,
    stage: u32,
    generation: u32,
    timeout: Duration,
) -> NetResult<WorkerLinks> {
    let deadline = Instant::now() + timeout;
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

/// Accepts `2 * stages` identified connections (control links announce
/// `Hello`, data links `DataHello`), then keeps accepting re-dialed data
/// connections for the lifetime of the run, routing them to the matching
/// stage's reattach queue.
fn accept_and_run(
    spec: &NetPipelineSpec,
    listener: &std::net::TcpListener,
) -> NetResult<NetReport> {
    use crate::frame::read_frame;

    let stages = spec.stages as usize;
    let mut controls: Vec<Option<TcpTransport>> = (0..stages).map(|_| None).collect();
    let mut datas: Vec<Option<TcpTransport>> = (0..stages).map(|_| None).collect();
    let mut redial_txs = Vec::with_capacity(stages);
    let mut redial_rxs = Vec::with_capacity(stages);
    for _ in 0..stages {
        let (tx, rx) = mpsc::channel::<TcpTransport>();
        redial_txs.push(tx);
        redial_rxs.push(rx);
    }

    // Poll a nonblocking accept so the deadline is enforced even when no
    // connection ever arrives — a worker that died before dialing must
    // surface as a timeout, not wedge the orchestrator in accept().
    listener
        .set_nonblocking(true)
        .map_err(|e| NetError::io("set_nonblocking", &e))?;
    let deadline = Instant::now() + spec.op_timeout;
    while controls.iter().any(Option::is_none) || datas.iter().any(Option::is_none) {
        if Instant::now() > deadline {
            return Err(NetError::Timeout {
                op: "accept",
                waited: spec.op_timeout,
            });
        }
        let (stream, peer) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
                continue;
            }
            Err(e) => return Err(NetError::io("accept", &e)),
        };
        stream
            .set_nonblocking(false)
            .map_err(|e| NetError::io("set_nonblocking", &e))?;
        // A connected-but-silent peer gets the remaining deadline for its
        // identification frame, not forever.
        let remaining = deadline
            .saturating_duration_since(Instant::now())
            .max(POLL_INTERVAL);
        stream
            .set_read_timeout(Some(remaining))
            .map_err(|e| NetError::io("set_read_timeout", &e))?;
        let mut transport = TcpTransport::new(stream, format!("tcp-{peer}"));
        let first = read_frame(&mut transport.stream, "accept")?;
        transport
            .stream
            .set_read_timeout(None)
            .map_err(|e| NetError::io("set_read_timeout", &e))?;
        match Msg::decode(&first)? {
            Msg::Hello(h) if (h.stage as usize) < stages => {
                controls[h.stage as usize] = Some(transport);
            }
            Msg::DataHello { stage, .. } if (stage as usize) < stages => {
                datas[stage as usize] = Some(transport);
            }
            other => {
                return Err(NetError::Handshake {
                    detail: format!("unidentified connection opened with {other:?}"),
                })
            }
        }
    }

    // Back to blocking mode for the background acceptor below.
    listener
        .set_nonblocking(false)
        .map_err(|e| NetError::io("set_nonblocking", &e))?;

    // Background acceptor for re-dialed data connections. It exits when
    // the listener errors (dropped at the end of the run) or when every
    // redial receiver is gone.
    let acceptor_listener = listener
        .try_clone()
        .map_err(|e| NetError::io("try_clone", &e))?;
    let acceptor = std::thread::spawn(move || loop {
        let Ok((stream, peer)) = acceptor_listener.accept() else {
            return;
        };
        let mut transport = TcpTransport::new(stream, format!("tcp-{peer}"));
        let Ok(first) = read_frame(&mut transport.stream, "accept") else {
            continue;
        };
        match Msg::decode(&first) {
            // An unsupervised run has exactly one incarnation per stage, so
            // any redial claiming a later generation is a protocol bug of
            // the dialer; drop it rather than splice a wrong-incarnation
            // connection into the slot. (The supervised acceptor in
            // `crate::supervisor` does full generation bookkeeping.)
            Ok(Msg::DataHello { stage, generation })
                if (stage as usize) < redial_txs.len() && generation == 0 =>
            {
                if redial_txs[stage as usize].send(transport).is_err() {
                    return;
                }
            }
            _ => continue,
        }
    });

    let mut links = Vec::with_capacity(stages);
    let mut redials = redial_rxs.into_iter();
    for stage in 0..stages {
        let control = controls[stage].take().ok_or(NetError::Protocol {
            detail: format!("no control connection for stage {stage}"),
        })?;
        let data = datas[stage].take().ok_or(NetError::Protocol {
            detail: format!("no data connection for stage {stage}"),
        })?;
        let rx = redials.next().ok_or(NetError::Protocol {
            detail: "redial queue exhausted".to_string(),
        })?;
        links.push(OrchestratorLinks {
            stage: stage as u32,
            control: Box::new(control),
            data: Box::new(data),
            data_reattach: Some(Box::new(TcpAcceptSlot::new(rx))),
        });
    }
    let result = run_orchestrator(spec, links);
    // Exit the acceptor: flip the listener to nonblocking FIRST, so an
    // accept() it enters after consuming the wake-up connection returns
    // WouldBlock instead of re-blocking (the flag is checked at syscall
    // entry — it cannot wake a thread already parked in accept), then
    // dial once to wake it if it is parked right now.
    drop(listener.set_nonblocking(true));
    if let Ok(addr) = listener.local_addr() {
        let _ = std::net::TcpStream::connect(addr);
    }
    let _ = acceptor.join();
    result
}

/// Serves a deployment on an already-bound listener — the entry point the
/// `pipellm-orchestrator` binary uses, where workers are real processes.
pub fn serve_tcp(spec: &NetPipelineSpec, listener: std::net::TcpListener) -> NetResult<NetReport> {
    spec.validate()?;
    accept_and_run(spec, &listener)
}

pub(crate) fn join_workers(
    handles: Vec<std::thread::JoinHandle<NetResult<CounterReport>>>,
    result: NetResult<NetReport>,
) -> NetResult<NetReport> {
    let mut worker_error = None;
    for handle in handles {
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let report = run_duplex(&spec).unwrap();
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
        let report = run_duplex(&spec).unwrap();
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
        let report = run_duplex(&spec).unwrap();
        assert_eq!(report.outputs, spec.expected_outputs());
        assert!(report.lockstep_ok);
        assert!(
            (1..=INGRESS_WINDOW).contains(&report.peak_in_flight),
            "peak in flight {}",
            report.peak_in_flight
        );
    }

    #[test]
    fn chaos_duplex_recovers_and_stays_bit_identical() {
        let spec = NetPipelineSpec {
            net_fault_rate: 0.25,
            ..small_spec()
        };
        let report = run_duplex(&spec).unwrap();
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
