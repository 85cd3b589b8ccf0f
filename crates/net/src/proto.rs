//! The control- and data-plane messages riding the frame format.
//!
//! # Handshake sequence
//!
//! ```text
//! worker s                         orchestrator
//!    | -- control: Hello{stage:s} ------> |   (version checked by framing)
//!    | -- data:   DataHello{stage:s} ---> |   (second connection)
//!    | <------ Manifest{shard} ---------- |
//!    | -- ManifestAck{weight_hash} -----> |   (hash must match)
//!    | <------ Start -------------------- |
//!    |        ... sealed data ...         |
//!    | <------ data: Fin{in edge} -------- |   (after the last frame in)
//!    | -- FinAck ------------------------> |
//!    | -- data: Fin{out edge} -----------> |   (after the last frame out)
//!    | <------ FinAck -------------------- |
//!    | -- Done{edge counters} ----------> |   (lockstep audit)
//!    | <------ Shutdown ------------------ |
//! ```
//!
//! # Shard manifest
//!
//! The [`ShardManifest`] is the only way a worker learns a run's settings:
//! its layer range and that shard's expected weight hash
//! ([`pipellm::partition::stage_weight_hash`]), the run geometry, its
//! resend threshold, heartbeat interval, hang duration and chaos plan, and
//! the cluster seed it derives its edge and host-channel keys from. The
//! seed travels in the clear, so whoever reads a control connection — the
//! orchestrator included — can derive every key (ROADMAP.md item 2).
//!
//! Every encoder returns a complete frame ([`Msg::encode`]); every decoder
//! consumes a complete frame ([`Msg::decode`], or [`Msg::decode_owned`]
//! of one it may keep) and rejects anything structurally off with a clean
//! [`NetError`].

use crate::error::{NetError, NetResult};
use crate::frame::{decode_frame, Reader, Writer, HEADER_LEN};
use pipellm_chaos::{ChaosInjector, FaultPlan, RetryPolicy};
use std::sync::Arc;
use std::time::Duration;

/// Protocol version spoken by this build; carried in every frame header.
///
/// v2: [`Hello`] and [`Msg::DataHello`] carry the worker's admission
/// generation, and the supervision messages ([`Msg::Heartbeat`],
/// [`Msg::HeartbeatAck`], [`Msg::CheckpointReq`], [`Msg::CheckpointSave`],
/// [`Msg::Restore`]) exist.
///
/// v3: the [`ShardManifest`] carries the worker-side settings of the run
/// (resend threshold, heartbeat interval, hang duration, the stage's chaos
/// plan), and the `Welcome` that repeated its stage count is gone.
///
/// v4: [`Msg::Fin`] / [`Msg::FinAck`] replace the control-plane `Finish`,
/// and the manifest carries the drain kill. Older peers are rejected by
/// the framing layer.
pub const PROTO_VERSION: u8 = 4;

/// Node id of the orchestrator/host in `src`/`dst` fields and edge ids.
pub use pipellm_crypto::edge::HOST_NODE;

// ---------------------------------------------------------------------------
// Timing knobs.
//
// Every heartbeat, deadline, retry and sweep interval of the networked
// deployment is defined here — and only here (pipellm-lint PL008 rejects
// magic `Duration` literals in the orchestrator/worker/supervisor modules).
// The ones a run may set are fields of `NetPipelineSpec` and
// `SupervisedOptions`, defaulting to these constants; the orchestrator
// pushes what a worker needs of them in its [`ShardManifest`].
// ---------------------------------------------------------------------------

/// Default interval between worker heartbeats on the control channel.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(50);

/// Default silence after which the supervisor suspects a worker.
pub const SUSPECT_AFTER: Duration = Duration::from_millis(250);

/// Default silence after which the supervisor declares a worker dead and
/// begins failover. Must exceed [`SUSPECT_AFTER`].
pub const DEAD_AFTER: Duration = Duration::from_millis(600);

/// Default age past which an unacked data frame is retransmitted by the
/// level-triggered resend sweep.
pub const RESEND_AFTER: Duration = Duration::from_millis(300);

/// Event-loop poll interval of the orchestrator, the workers and the pumps.
pub const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Size of a TCP connection's outbox: small frames an event loop sends
/// are queued up to this many bytes and written with one syscall. A frame
/// of at least this size bypasses the outbox (after flushing it), so bulk
/// frames are never copied into it.
pub const OUTBOX_CAP: usize = 16 * 1024;

/// Smallest data frame received and decoded in a pooled buffer
/// ([`Msg::decode_owned`]); the smallest a [`crate::frame::FramePool`] keeps.
pub const POOLED_MIN: usize = 64 * 1024;

/// Buffers one actor's [`crate::frame::FramePool`] keeps.
pub const POOL_BOUND: usize = 16;

/// Bytes of a data frame before its sealed body.
pub const DATA_HEAD_LEN: usize = HEADER_LEN + 32;

/// Longest an event loop that keeps finding events ready lets its outboxes
/// fill before flushing them; an idle loop flushes before it blocks. Bounds
/// how long an ack waits behind a busy loop's compute.
pub const FLUSH_BOUND: Duration = Duration::from_micros(200);

/// Default whole-operation deadline for handshake and drain phases.
pub const OP_TIMEOUT: Duration = Duration::from_secs(10);

/// Default number of completed outputs between sealed checkpoint barriers.
pub const CHECKPOINT_EVERY: u32 = 4;

/// Retry policy of every reconnect and retransmit escalation on the wire:
/// unlike the chaos crate's microsecond-scale defaults (tuned for the
/// simulated pipeline), real sockets need milliseconds of backoff.
pub const WIRE_RETRY: RetryPolicy = RetryPolicy {
    max_retries: 4,
    base_backoff: Duration::from_millis(5),
    max_backoff: Duration::from_millis(100),
    jitter: 0.25,
    op_timeout: Duration::from_secs(2),
};

/// Sleep between connect attempts while dialing the orchestrator.
pub const DIAL_RETRY: Duration = Duration::from_millis(5);

/// Sessions the orchestrator keeps in flight at once: an input is sealed
/// onto ingress only when fewer than this many admitted sessions still
/// lack their output. It bounds every link's in-flight set and the
/// plaintext held for retransmission, and keeps a resend sweep from
/// retransmitting frames that are merely queued behind others.
///
/// A constant, not a spec field: a 2-to-4-stage pipeline holds a
/// handful of sessions per stage, so this is several times deeper than
/// what keeps every stage busy, and nothing running today wants another
/// value (the supervised benchmark workloads already ask for 32).
pub const INGRESS_WINDOW: usize = 32;

/// Frame kind bytes.
pub(crate) mod kind {
    pub const HELLO: u8 = 0x01;
    pub const MANIFEST: u8 = 0x03;
    pub const MANIFEST_ACK: u8 = 0x04;
    pub const START: u8 = 0x05;
    pub const DATA: u8 = 0x10;
    pub const ACK_DATA: u8 = 0x11;
    pub const NACK_DATA: u8 = 0x12;
    pub const REKEY_EDGE: u8 = 0x13;
    pub const LINK_RESTORED: u8 = 0x14;
    pub const DATA_HELLO: u8 = 0x15;
    pub const HEARTBEAT: u8 = 0x16;
    pub const HEARTBEAT_ACK: u8 = 0x17;
    pub const CHECKPOINT_REQ: u8 = 0x18;
    pub const CHECKPOINT_SAVE: u8 = 0x19;
    pub const RESTORE: u8 = 0x1A;
    pub const FIN: u8 = 0x1B;
    pub const FIN_ACK: u8 = 0x1C;
    pub const DONE: u8 = 0x21;
    pub const SHUTDOWN: u8 = 0x22;
}

/// Control-channel greeting: the first frame on a worker's control
/// connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The stage this worker serves.
    pub stage: u32,
    /// Admission generation: 0 for the first incarnation of a stage,
    /// bumped by the supervisor on every failover. The orchestrator's
    /// acceptor rejects identification frames from a stale generation, so
    /// a re-dial racing a replacement can never leave two live
    /// connections for one stage.
    pub generation: u32,
}

/// The shard assignment: everything a worker needs to serve its stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardManifest {
    /// The stage this manifest is for.
    pub stage: u32,
    /// Total stages.
    pub stages: u32,
    /// Total model layers.
    pub layers: u32,
    /// First layer (inclusive) of this stage's shard.
    pub layer_start: u32,
    /// One past the last layer of this stage's shard.
    pub layer_end: u32,
    /// Expected content hash of the shard's weights.
    pub weight_hash: u64,
    /// Activation payload size per micro-batch, bytes.
    pub activation_bytes: u64,
    /// Micro-batches per iteration.
    pub micro_batches: u32,
    /// Iterations to run.
    pub iterations: u32,
    /// Cluster-wide key-derivation seed; per-edge and host-channel roots
    /// are derived from it at each endpoint. Sent in the clear.
    pub cluster_seed: u64,
    /// Age at which the worker's resend sweep retransmits a frame; not 0.
    pub resend_after: Duration,
    /// Interval between the worker's control-channel heartbeats.
    pub heartbeat_interval: Duration,
    /// How long an injected [`pipellm_chaos::FaultKind::StageHang`] wedges
    /// the worker: past the death deadline, so a hang is detected as one.
    pub hang_for: Duration,
    /// Seed of this stage's fault plan, already decorrelated per node.
    pub chaos_seed: u64,
    /// Fault rate at the stage's net link, in `[0, 1]`.
    pub net_fault_rate: f64,
    /// Per-fresh-frame probability the stage dies or hangs, in `[0, 1]`.
    pub worker_fault_rate: f64,
    /// Whether the stage dies as its in edge's [`Fin`] arrives; like the
    /// chaos plan, armed only in generation 0.
    pub kill_at_drain: bool,
}

impl ShardManifest {
    /// Rejects a manifest no worker can serve. Its bytes come from
    /// outside the worker, so every field the worker acts on is checked.
    pub(crate) fn validate(&self) -> NetResult<()> {
        let what = if self.stages == 0 || self.stage >= self.stages {
            "manifest stage out of range"
        } else if self.layer_start > self.layer_end || self.layer_end > self.layers {
            "manifest layer range out of bounds"
        } else if self.resend_after.is_zero() {
            "manifest resend threshold is zero"
        } else if ![self.net_fault_rate, self.worker_fault_rate]
            .iter()
            .all(|rate| (0.0..=1.0).contains(rate))
        {
            // NaN and the infinities fail the range test too.
            "manifest fault rate not in [0, 1]"
        } else {
            return Ok(());
        };
        Err(NetError::Malformed { what })
    }
}

/// The fault injector of one node's chaos plan, or `None` when both rates
/// are zero: what `NetPipelineSpec::injector_for` returns, and what each
/// worker builds from the plan its manifest carries.
pub fn chaos_injector(
    seed: u64,
    net_fault_rate: f64,
    worker_fault_rate: f64,
) -> Option<Arc<ChaosInjector>> {
    if net_fault_rate <= 0.0 && worker_fault_rate <= 0.0 {
        return None;
    }
    Some(Arc::new(ChaosInjector::new(
        FaultPlan::new(seed)
            .with_net_rate(net_fault_rate)
            .with_stage_rate(worker_fault_rate),
    )))
}

/// A duration on the wire: whole nanoseconds, saturating (at ~584 years).
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Worker's acknowledgement of its manifest, echoing the weight hash it
/// computed locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestAck {
    /// The acknowledging stage.
    pub stage: u32,
    /// Hash the worker computed over its shard.
    pub weight_hash: u64,
}

/// One sealed activation frame on a data channel.
///
/// The envelope fields (`src`, `dst`, routing metadata) travel in clear —
/// the relay needs them — but the AAD is never shipped: both the sealing
/// and the opening endpoint recompute it from the envelope they each see
/// ([`DataFrame::bind_aad`]), so a relay that rewrites any routing field
/// produces a frame that can never authenticate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataFrame {
    /// Sending node ([`HOST_NODE`] for orchestrator ingress).
    pub src: u32,
    /// Receiving node ([`HOST_NODE`] for orchestrator egress).
    pub dst: u32,
    /// Per-directed-link sequence number (retransmit bookkeeping).
    pub seq: u64,
    /// Key epoch of the edge this frame was sealed under.
    pub epoch: u32,
    /// Iteration of the carried micro-batch.
    pub iteration: u32,
    /// Micro-batch index.
    pub micro_batch: u32,
    /// `ciphertext || 16-byte tag` from the edge's secure channel.
    pub sealed: Vec<u8>,
}

impl DataFrame {
    /// This frame on the wire up to its sealed body; errs over the cap.
    fn head(&self) -> NetResult<Vec<u8>> {
        let mut w = Writer::frame(kind::DATA, DATA_HEAD_LEN - HEADER_LEN);
        for word in [self.src, self.dst] {
            w.u32(word);
        }
        w.u64(self.seq);
        for word in [self.epoch, self.iteration, self.micro_batch] {
            w.u32(word);
        }
        w.u32(self.sealed.len() as u32);
        w.finish_frame(self.sealed.len())
    }

    /// This frame on the wire, built in its sealed bytes' buffer (in place
    /// when that has [`DATA_HEAD_LEN`] bytes to spare).
    ///
    /// # Errors
    ///
    /// [`NetError::Oversize`] if the frame exceeds the frame cap.
    pub fn into_frame(self) -> NetResult<Vec<u8>> {
        let head = self.head()?;
        let mut frame = self.sealed;
        frame.splice(..0, head);
        Ok(frame)
    }

    /// The canonical AAD binding of a data frame's envelope. Both the
    /// sealer and the opener derive it from the fields they each believe,
    /// so any relay tampering with the routing metadata breaks
    /// authentication.
    pub fn bind_aad(
        src: u32,
        dst: u32,
        epoch: u32,
        iteration: u32,
        micro_batch: u32,
        plaintext_len: u64,
    ) -> Vec<u8> {
        let mut w = Writer::default();
        w.u32(src);
        w.u32(dst);
        w.u32(epoch);
        w.u32(iteration);
        w.u32(micro_batch);
        w.u64(plaintext_len);
        w.0
    }
}

/// Positive or negative acknowledgement of a [`DataFrame`], routed back to
/// the sender over control channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataAck {
    /// `src` of the acknowledged frame.
    pub src: u32,
    /// `dst` of the acknowledged frame.
    pub dst: u32,
    /// Sequence number being (n)acked.
    pub seq: u64,
}

/// Orchestrator-initiated epoch bump of one edge — the fresh-IV recovery
/// step after a connection drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RekeyEdge {
    /// Lower endpoint of the edge ([`HOST_NODE`] sorts last).
    pub a: u32,
    /// Upper endpoint of the edge.
    pub b: u32,
    /// The target epoch; receivers fast-forward to it.
    pub epoch: u32,
}

/// The end-of-stream marker of one directed data edge ([`Msg::Fin`]), and
/// its echo ([`Msg::FinAck`]). A receiver whose epoch and next receive IV
/// equal `epoch` and `tx_iv` has opened every frame sealed on the edge.
/// It consumes no IV and is not sealed: a relay that forges one can stall
/// a run, not pass an audit on counters that disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fin {
    /// Sending node of the closed edge ([`HOST_NODE`] for ingress).
    pub src: u32,
    /// Receiving node of the closed edge ([`HOST_NODE`] for egress).
    pub dst: u32,
    /// The sender's key epoch on the edge.
    pub epoch: u32,
    /// The sender's next send IV on the edge.
    pub tx_iv: u64,
}

/// One edge's counters in a worker's end-of-run report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeCounterEntry {
    /// Lower endpoint of the edge.
    pub a: u32,
    /// Upper endpoint of the edge.
    pub b: u32,
    /// Epoch the edge finished on.
    pub epoch: u32,
    /// The reporting node's next send IV on this edge (0 if it never
    /// sends on it).
    pub tx_iv: u64,
    /// The reporting node's next receive IV on this edge (0 if it never
    /// receives on it).
    pub rx_iv: u64,
}

/// A liveness beacon on the control channel, and its echo.
///
/// Workers send one every [`ShardManifest::heartbeat_interval`]; the
/// orchestrator echoes each as [`Msg::HeartbeatAck`]. Sequence numbers
/// are monotone per worker incarnation, so a reordered or replayed
/// beacon can never un-suspect a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heartbeat {
    /// The beating stage.
    pub stage: u32,
    /// The worker's admission generation.
    pub generation: u32,
    /// Monotone beacon counter within this incarnation.
    pub seq: u64,
}

/// Orchestrator-initiated checkpoint barrier.
///
/// Broadcast when the contiguous prefix of completed outputs crosses a
/// multiple of `SupervisedOptions::checkpoint_every`. Workers advance their
/// watermark to `prefix` (a duplicate input below it is only acknowledged
/// from then on), seal their recovery state, and reply with
/// [`Msg::CheckpointSave`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReq {
    /// Monotone barrier number (1-based).
    pub barrier: u64,
    /// Count of globally complete outputs: every `(iteration,
    /// micro_batch)` with global index below this is committed at the
    /// orchestrator.
    pub prefix: u64,
}

/// A worker's sealed recovery state for one barrier.
///
/// The payload is AEAD-sealed under a key derived from the cluster seed,
/// so the supervisor stores and relays it as an opaque blob — the
/// watermark and edge epochs, 64 bytes, no activations. The seed rides
/// every manifest in the clear, so the seal hides the state from no one
/// who read a manifest, the orchestrator included (ROADMAP.md item 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSave {
    /// The checkpointing stage.
    pub stage: u32,
    /// The barrier this state belongs to.
    pub barrier: u64,
    /// Opaque sealed checkpoint (`ciphertext || tag`).
    pub sealed: Vec<u8>,
}

/// Replays a stored checkpoint to a replacement worker during failover.
///
/// An empty `sealed` means "no checkpoint yet — start fresh". The
/// replacement unseals and validates the state itself; anything stale,
/// truncated, or tampered is refused and the worker starts fresh instead
/// (it recomputes what is re-injected either way; the restored watermark
/// only says which duplicates are already committed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Restore {
    /// The barrier the sealed state claims to belong to.
    pub barrier: u64,
    /// Opaque sealed checkpoint, or empty for a fresh start.
    pub sealed: Vec<u8>,
}

/// Worker's end-of-run report: per-edge counters plus resilience tallies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterReport {
    /// The reporting stage.
    pub stage: u32,
    /// Counters of every edge the stage touches.
    pub edges: Vec<EdgeCounterEntry>,
    /// Frames this worker had to retransmit (NACK or rekey driven).
    pub retransmits: u64,
    /// Frames whose open failed and was absorbed as a sentinel.
    pub sentinels: u64,
    /// Reconnects this worker performed.
    pub reconnects: u64,
}

/// Every message in the protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Control-channel greeting.
    Hello(Hello),
    /// Shard assignment.
    Manifest(ShardManifest),
    /// Shard acknowledgement.
    ManifestAck(ManifestAck),
    /// All manifests acked; start serving.
    Start,
    /// A sealed activation frame.
    Data(DataFrame),
    /// Positive data acknowledgement.
    AckData(DataAck),
    /// Negative data acknowledgement (sentinel open; retransmit).
    NackData(DataAck),
    /// Epoch bump of one edge.
    RekeyEdge(RekeyEdge),
    /// A worker's data link is live again after a reconnect.
    LinkRestored {
        /// The reconnected stage.
        stage: u32,
    },
    /// Data-channel greeting identifying which stage the connection backs.
    DataHello {
        /// The connecting stage.
        stage: u32,
        /// The connecting worker's admission generation (see [`Hello`]).
        generation: u32,
    },
    /// Worker liveness beacon.
    Heartbeat(Heartbeat),
    /// Orchestrator's echo of a heartbeat.
    HeartbeatAck(Heartbeat),
    /// Checkpoint barrier announcement.
    CheckpointReq(CheckpointReq),
    /// A worker's sealed checkpoint for one barrier.
    CheckpointSave(CheckpointSave),
    /// Replay of a stored checkpoint to a replacement worker.
    Restore(Restore),
    /// End of stream on one data edge, behind its last frame.
    Fin(Fin),
    /// The receiver accepted a [`Msg::Fin`]; routed back over control.
    FinAck(Fin),
    /// End-of-run counter report.
    Done(CounterReport),
    /// Tear the deployment down.
    Shutdown,
}

impl Msg {
    fn kind(&self) -> u8 {
        match self {
            Msg::Hello(_) => kind::HELLO,
            Msg::Manifest(_) => kind::MANIFEST,
            Msg::ManifestAck(_) => kind::MANIFEST_ACK,
            Msg::Start => kind::START,
            Msg::Data(_) => kind::DATA,
            Msg::AckData(_) => kind::ACK_DATA,
            Msg::NackData(_) => kind::NACK_DATA,
            Msg::RekeyEdge(_) => kind::REKEY_EDGE,
            Msg::LinkRestored { .. } => kind::LINK_RESTORED,
            Msg::DataHello { .. } => kind::DATA_HELLO,
            Msg::Heartbeat(_) => kind::HEARTBEAT,
            Msg::HeartbeatAck(_) => kind::HEARTBEAT_ACK,
            Msg::CheckpointReq(_) => kind::CHECKPOINT_REQ,
            Msg::CheckpointSave(_) => kind::CHECKPOINT_SAVE,
            Msg::Restore(_) => kind::RESTORE,
            Msg::Fin(_) => kind::FIN,
            Msg::FinAck(_) => kind::FIN_ACK,
            Msg::Done(_) => kind::DONE,
            Msg::Shutdown => kind::SHUTDOWN,
        }
    }

    /// Encodes the message as one complete frame (header included); a
    /// data frame's body is copied once, into a buffer of exact size.
    ///
    /// # Errors
    ///
    /// [`NetError::Oversize`] if the payload exceeds the frame cap.
    pub fn encode(&self) -> NetResult<Vec<u8>> {
        if let Msg::Data(d) = self {
            let mut frame = d.head()?;
            frame.reserve_exact(d.sealed.len());
            frame.extend_from_slice(&d.sealed);
            return Ok(frame);
        }
        let mut w = Writer::frame(self.kind(), 0);
        match self {
            Msg::Hello(h) => {
                w.u32(h.stage);
                w.u32(h.generation);
            }
            Msg::Manifest(m) => {
                w.u32(m.stage);
                w.u32(m.stages);
                w.u32(m.layers);
                w.u32(m.layer_start);
                w.u32(m.layer_end);
                w.u64(m.weight_hash);
                w.u64(m.activation_bytes);
                w.u32(m.micro_batches);
                w.u32(m.iterations);
                w.u64(m.cluster_seed);
                w.u64(nanos(m.resend_after));
                w.u64(nanos(m.heartbeat_interval));
                w.u64(nanos(m.hang_for));
                w.u64(m.chaos_seed);
                w.u64(m.net_fault_rate.to_bits());
                w.u64(m.worker_fault_rate.to_bits());
                w.u32(u32::from(m.kill_at_drain));
            }
            Msg::ManifestAck(a) => {
                w.u32(a.stage);
                w.u64(a.weight_hash);
            }
            Msg::Start | Msg::Shutdown | Msg::Data(_) => {}
            Msg::AckData(a) | Msg::NackData(a) => {
                w.u32(a.src);
                w.u32(a.dst);
                w.u64(a.seq);
            }
            Msg::RekeyEdge(r) => {
                w.u32(r.a);
                w.u32(r.b);
                w.u32(r.epoch);
            }
            Msg::LinkRestored { stage } => w.u32(*stage),
            Msg::DataHello { stage, generation } => {
                w.u32(*stage);
                w.u32(*generation);
            }
            Msg::Heartbeat(h) | Msg::HeartbeatAck(h) => {
                w.u32(h.stage);
                w.u32(h.generation);
                w.u64(h.seq);
            }
            Msg::CheckpointReq(c) => {
                w.u64(c.barrier);
                w.u64(c.prefix);
            }
            Msg::CheckpointSave(c) => {
                w.u32(c.stage);
                w.u64(c.barrier);
                w.bytes(&c.sealed);
            }
            Msg::Restore(r) => {
                w.u64(r.barrier);
                w.bytes(&r.sealed);
            }
            Msg::Fin(f) | Msg::FinAck(f) => {
                w.u32(f.src);
                w.u32(f.dst);
                w.u32(f.epoch);
                w.u64(f.tx_iv);
            }
            Msg::Done(d) => {
                w.u32(d.stage);
                w.u32(d.edges.len() as u32);
                for e in &d.edges {
                    w.u32(e.a);
                    w.u32(e.b);
                    w.u32(e.epoch);
                    w.u64(e.tx_iv);
                    w.u64(e.rx_iv);
                }
                w.u64(d.retransmits);
                w.u64(d.sentinels);
                w.u64(d.reconnects);
            }
        }
        w.finish_frame(0)
    }

    /// Decodes one complete frame into a message.
    ///
    /// # Errors
    ///
    /// Every framing error of [`decode_frame`], plus
    /// [`NetError::UnknownKind`], [`NetError::Malformed`],
    /// [`NetError::Truncated`] and [`NetError::TrailingBytes`] for payloads
    /// that do not parse exactly.
    pub fn decode(frame: &[u8]) -> NetResult<Msg> {
        Msg::parse(frame, <[u8]>::to_vec)
    }

    /// [`Msg::decode`] of a frame the caller gives up: the same message or
    /// the same error. A data frame of [`POOLED_MIN`] bytes or more keeps
    /// the frame's buffer as its sealed bytes, moved to the front; a smaller
    /// one is copied out, so no message holds a receive buffer's slack.
    ///
    /// # Errors
    ///
    /// As [`Msg::decode`].
    pub fn decode_owned(mut frame: Vec<u8>) -> NetResult<Msg> {
        if frame.len() < POOLED_MIN {
            return Msg::decode(&frame);
        }
        let mut msg = Msg::parse(&frame, |_| Vec::new())?;
        if let Msg::Data(d) = &mut msg {
            frame.drain(..DATA_HEAD_LEN);
            d.sealed = frame;
        }
        Ok(msg)
    }

    /// The one parser: `sealed` makes a data frame's sealed bytes of its body.
    fn parse(frame: &[u8], sealed: impl FnOnce(&[u8]) -> Vec<u8>) -> NetResult<Msg> {
        let (kind_byte, payload) = decode_frame(frame)?;
        let mut r = Reader::new(payload);
        let msg = match kind_byte {
            kind::HELLO => Msg::Hello(Hello {
                stage: r.u32()?,
                generation: r.u32()?,
            }),
            kind::MANIFEST => {
                let m = ShardManifest {
                    stage: r.u32()?,
                    stages: r.u32()?,
                    layers: r.u32()?,
                    layer_start: r.u32()?,
                    layer_end: r.u32()?,
                    weight_hash: r.u64()?,
                    activation_bytes: r.u64()?,
                    micro_batches: r.u32()?,
                    iterations: r.u32()?,
                    cluster_seed: r.u64()?,
                    resend_after: Duration::from_nanos(r.u64()?),
                    heartbeat_interval: Duration::from_nanos(r.u64()?),
                    hang_for: Duration::from_nanos(r.u64()?),
                    chaos_seed: r.u64()?,
                    net_fault_rate: f64::from_bits(r.u64()?),
                    worker_fault_rate: f64::from_bits(r.u64()?),
                    kill_at_drain: match r.u32()? {
                        0 => false,
                        1 => true,
                        _ => {
                            return Err(NetError::Malformed {
                                what: "manifest drain kill flag not 0 or 1",
                            })
                        }
                    },
                };
                m.validate()?;
                Msg::Manifest(m)
            }
            kind::MANIFEST_ACK => Msg::ManifestAck(ManifestAck {
                stage: r.u32()?,
                weight_hash: r.u64()?,
            }),
            kind::START => Msg::Start,
            kind::DATA => Msg::Data(DataFrame {
                src: r.u32()?,
                dst: r.u32()?,
                seq: r.u64()?,
                epoch: r.u32()?,
                iteration: r.u32()?,
                micro_batch: r.u32()?,
                sealed: sealed(r.bytes()?),
            }),
            kind::ACK_DATA => Msg::AckData(DataAck {
                src: r.u32()?,
                dst: r.u32()?,
                seq: r.u64()?,
            }),
            kind::NACK_DATA => Msg::NackData(DataAck {
                src: r.u32()?,
                dst: r.u32()?,
                seq: r.u64()?,
            }),
            kind::REKEY_EDGE => {
                let e = RekeyEdge {
                    a: r.u32()?,
                    b: r.u32()?,
                    epoch: r.u32()?,
                };
                if e.a == e.b {
                    return Err(NetError::Malformed {
                        what: "rekey of a self-edge",
                    });
                }
                Msg::RekeyEdge(e)
            }
            kind::LINK_RESTORED => Msg::LinkRestored { stage: r.u32()? },
            kind::DATA_HELLO => Msg::DataHello {
                stage: r.u32()?,
                generation: r.u32()?,
            },
            kind::HEARTBEAT => Msg::Heartbeat(Heartbeat {
                stage: r.u32()?,
                generation: r.u32()?,
                seq: r.u64()?,
            }),
            kind::HEARTBEAT_ACK => Msg::HeartbeatAck(Heartbeat {
                stage: r.u32()?,
                generation: r.u32()?,
                seq: r.u64()?,
            }),
            kind::CHECKPOINT_REQ => Msg::CheckpointReq(CheckpointReq {
                barrier: r.u64()?,
                prefix: r.u64()?,
            }),
            kind::CHECKPOINT_SAVE => Msg::CheckpointSave(CheckpointSave {
                stage: r.u32()?,
                barrier: r.u64()?,
                sealed: r.bytes()?.to_vec(),
            }),
            kind::RESTORE => Msg::Restore(Restore {
                barrier: r.u64()?,
                sealed: r.bytes()?.to_vec(),
            }),
            kind::FIN | kind::FIN_ACK => {
                let f = Fin {
                    src: r.u32()?,
                    dst: r.u32()?,
                    epoch: r.u32()?,
                    tx_iv: r.u64()?,
                };
                if f.src == f.dst {
                    return Err(NetError::Malformed {
                        what: "end of stream on a self-edge",
                    });
                }
                if kind_byte == kind::FIN {
                    Msg::Fin(f)
                } else {
                    Msg::FinAck(f)
                }
            }
            kind::DONE => {
                let stage = r.u32()?;
                let n = r.u32()? as usize;
                // An honest report never exceeds one edge per possible
                // neighbour; cap before allocating.
                if n > 4096 {
                    return Err(NetError::Malformed {
                        what: "counter report with absurd edge count",
                    });
                }
                let mut edges = Vec::with_capacity(n);
                for _ in 0..n {
                    edges.push(EdgeCounterEntry {
                        a: r.u32()?,
                        b: r.u32()?,
                        epoch: r.u32()?,
                        tx_iv: r.u64()?,
                        rx_iv: r.u64()?,
                    });
                }
                Msg::Done(CounterReport {
                    stage,
                    edges,
                    retransmits: r.u64()?,
                    sentinels: r.u64()?,
                    reconnects: r.u64()?,
                })
            }
            kind::SHUTDOWN => Msg::Shutdown,
            other => return Err(NetError::UnknownKind { kind: other }),
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> ShardManifest {
        crate::NetPipelineSpec::default().manifest_for(1, None)
    }

    fn roundtrip(msg: Msg) {
        let frame = msg.encode().unwrap();
        assert_eq!(Msg::decode(&frame).unwrap(), msg);
    }

    #[test]
    fn all_message_kinds_roundtrip() {
        roundtrip(Msg::Hello(Hello {
            stage: 3,
            generation: 2,
        }));
        roundtrip(Msg::Manifest(manifest()));
        roundtrip(Msg::ManifestAck(ManifestAck {
            stage: 1,
            weight_hash: 0xDEAD_BEEF,
        }));
        roundtrip(Msg::Start);
        roundtrip(Msg::Data(DataFrame {
            src: 0,
            dst: 1,
            seq: 9,
            epoch: 2,
            iteration: 1,
            micro_batch: 3,
            sealed: vec![0xAB; 48],
        }));
        roundtrip(Msg::AckData(DataAck {
            src: 0,
            dst: 1,
            seq: 9,
        }));
        roundtrip(Msg::NackData(DataAck {
            src: 1,
            dst: 2,
            seq: 10,
        }));
        roundtrip(Msg::RekeyEdge(RekeyEdge {
            a: 1,
            b: 2,
            epoch: 3,
        }));
        roundtrip(Msg::LinkRestored { stage: 2 });
        roundtrip(Msg::DataHello {
            stage: 0,
            generation: 1,
        });
        roundtrip(Msg::Heartbeat(Heartbeat {
            stage: 1,
            generation: 4,
            seq: 77,
        }));
        roundtrip(Msg::HeartbeatAck(Heartbeat {
            stage: 1,
            generation: 4,
            seq: 77,
        }));
        roundtrip(Msg::CheckpointReq(CheckpointReq {
            barrier: 3,
            prefix: 12,
        }));
        roundtrip(Msg::CheckpointSave(CheckpointSave {
            stage: 2,
            barrier: 3,
            sealed: vec![0xCD; 64],
        }));
        roundtrip(Msg::Restore(Restore {
            barrier: 3,
            sealed: Vec::new(),
        }));
        roundtrip(Msg::Done(CounterReport {
            stage: 2,
            edges: vec![EdgeCounterEntry {
                a: 1,
                b: 2,
                epoch: 1,
                tx_iv: 13,
                rx_iv: 13,
            }],
            retransmits: 2,
            sentinels: 1,
            reconnects: 1,
        }));
        roundtrip(Msg::Shutdown);
    }

    #[test]
    fn invalid_manifest_geometry_rejects() {
        let mut m = ShardManifest {
            stage: 4,
            ..manifest()
        };
        // stage >= stages: encode succeeds (pure data) but decode rejects.
        let frame = Msg::Manifest(m).encode().unwrap();
        assert!(matches!(
            Msg::decode(&frame),
            Err(NetError::Malformed { .. })
        ));
        m.stage = 0;
        m.layer_end = 17;
        let frame = Msg::Manifest(m).encode().unwrap();
        assert!(matches!(
            Msg::decode(&frame),
            Err(NetError::Malformed { .. })
        ));
    }

    #[test]
    fn unknown_kind_rejects() {
        let frame = crate::frame::encode_frame(0x7F, &[]).unwrap();
        assert!(matches!(
            Msg::decode(&frame),
            Err(NetError::UnknownKind { kind: 0x7F })
        ));
    }

    #[test]
    fn short_payload_rejects() {
        let frame = crate::frame::encode_frame(kind::HELLO, &[1, 2]).unwrap();
        assert!(matches!(
            Msg::decode(&frame),
            Err(NetError::Truncated { .. })
        ));
    }

    #[test]
    fn long_payload_rejects() {
        let mut body = 5u32.to_le_bytes().to_vec();
        body.extend_from_slice(&0u32.to_le_bytes());
        body.push(0xFF);
        let frame = crate::frame::encode_frame(kind::HELLO, &body).unwrap();
        assert!(matches!(
            Msg::decode(&frame),
            Err(NetError::TrailingBytes { extra: 1 })
        ));
    }
}
