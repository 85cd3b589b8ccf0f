//! The control- and data-plane messages riding the frame format.
//!
//! # Handshake sequence
//!
//! ```text
//! worker s                         orchestrator
//!    | -- control: Hello{stage:s} ------> |   (version checked by framing)
//!    | <------ Welcome{stages:N} -------- |
//!    | -- data:   DataHello{stage:s} ---> |   (second connection)
//!    | <------ Manifest{shard} ---------- |
//!    | -- ManifestAck{weight_hash} -----> |   (hash must match)
//!    | <------ Start -------------------- |
//!    |        ... sealed data ...         |
//!    | <------ Finish -------------------- |
//!    | -- Done{edge counters} ----------> |   (lockstep audit)
//!    | <------ Shutdown ------------------ |
//! ```
//!
//! # Shard manifest
//!
//! The [`ShardManifest`] tells a worker everything it needs to stand up
//! its stage: the layer range it owns, the expected weight hash for that
//! shard ([`pipellm::partition::stage_weight_hash`]), the run geometry
//! (micro-batches, iterations, activation size), and the cluster seed from
//! which the worker derives — locally, never from the wire — its edge and
//! host-channel key roots.
//!
//! Every encoder returns a complete frame ([`Msg::encode`]); every decoder
//! consumes a complete frame ([`Msg::decode`]) and rejects anything
//! structurally off with a clean [`NetError`].

use crate::error::{NetError, NetResult};
use crate::frame::{decode_frame, encode_frame, Reader, Writer};
use std::time::Duration;

/// Protocol version spoken by this build; carried in every frame header.
///
/// v2: [`Hello`] and [`Msg::DataHello`] carry the worker's admission
/// generation, and the supervision messages ([`Msg::Heartbeat`],
/// [`Msg::HeartbeatAck`], [`Msg::CheckpointReq`], [`Msg::CheckpointSave`],
/// [`Msg::Restore`]) exist. v1 peers are rejected by the framing layer.
pub const PROTO_VERSION: u8 = 2;

/// Node id of the orchestrator/host in `src`/`dst` fields and edge ids.
pub const HOST_NODE: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Timing knobs.
//
// Every heartbeat, deadline, retry and sweep interval of the networked
// deployment is defined here — and only here (pipellm-lint PL008 rejects
// magic `Duration` literals in the orchestrator/worker/supervisor modules).
// [`NetTuning`] carries the resolved values and supports env overrides.
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

/// Default event-loop poll interval for orchestrator and workers.
pub const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Default whole-operation deadline for handshake and drain phases.
pub const OP_TIMEOUT: Duration = Duration::from_secs(10);

/// Default quiet window a worker waits after its last send before
/// reporting `Done` — absorbs straggler retransmits.
pub const QUIET_WINDOW: Duration = Duration::from_millis(60);

/// Default number of completed outputs between sealed checkpoint barriers.
pub const CHECKPOINT_EVERY: u32 = 4;

/// Default reconnect attempts before a transport link is declared dead.
pub const WIRE_MAX_RETRIES: u32 = 4;

/// Default base backoff of the reconnect retry schedule.
pub const WIRE_BACKOFF_BASE: Duration = Duration::from_millis(5);

/// Default backoff cap of the reconnect retry schedule.
pub const WIRE_BACKOFF_CAP: Duration = Duration::from_millis(100);

/// Default per-attempt timeout of one reconnect operation.
pub const WIRE_OP_TIMEOUT: Duration = Duration::from_secs(2);

/// Sleep between connect attempts while dialing the orchestrator.
pub const DIAL_RETRY: Duration = Duration::from_millis(5);

/// Sessions the orchestrator keeps in flight at once: an input is sealed
/// onto ingress only when fewer than this many admitted sessions still
/// lack their output. It bounds every link's in-flight set and the
/// plaintext held for retransmission, and keeps a resend sweep from
/// retransmitting frames that are merely queued behind others.
///
/// A constant, not a [`NetTuning`] field: a 2-to-4-stage pipeline holds a
/// handful of sessions per stage, so this is several times deeper than
/// what keeps every stage busy, and nothing running today wants another
/// value (the supervised benchmark workloads already ask for 32).
pub const INGRESS_WINDOW: usize = 32;

/// Every configurable timing knob of the networked deployment.
///
/// Defaults come from the module constants above; [`NetTuning::from_env`]
/// overrides them from `PIPELLM_*` environment variables so a deployment
/// can be retuned without a rebuild. [`NetTuning::from_lookup`] is the
/// pure, testable core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetTuning {
    /// Retransmit sweep threshold (`PIPELLM_RESEND_AFTER_MS`).
    pub resend_after: Duration,
    /// Worker heartbeat interval (`PIPELLM_HEARTBEAT_MS`).
    pub heartbeat_interval: Duration,
    /// Supervisor suspicion deadline (`PIPELLM_SUSPECT_AFTER_MS`).
    pub suspect_after: Duration,
    /// Supervisor death deadline (`PIPELLM_DEAD_AFTER_MS`).
    pub dead_after: Duration,
    /// Event-loop poll interval (`PIPELLM_POLL_MS`).
    pub poll_interval: Duration,
    /// Handshake/drain deadline (`PIPELLM_OP_TIMEOUT_MS`).
    pub op_timeout: Duration,
    /// Worker pre-`Done` quiet window (`PIPELLM_QUIET_MS`).
    pub quiet_window: Duration,
    /// Outputs per checkpoint barrier (`PIPELLM_CHECKPOINT_EVERY`).
    pub checkpoint_every: u32,
    /// Reconnect attempts per link (`PIPELLM_MAX_RETRIES`).
    pub max_retries: u32,
    /// Reconnect backoff base (`PIPELLM_BACKOFF_BASE_MS`).
    pub backoff_base: Duration,
    /// Reconnect backoff cap (`PIPELLM_BACKOFF_CAP_MS`).
    pub backoff_cap: Duration,
    /// Per-reconnect-attempt timeout (`PIPELLM_WIRE_OP_TIMEOUT_MS`).
    pub wire_op_timeout: Duration,
}

impl Default for NetTuning {
    fn default() -> Self {
        NetTuning {
            resend_after: RESEND_AFTER,
            heartbeat_interval: HEARTBEAT_INTERVAL,
            suspect_after: SUSPECT_AFTER,
            dead_after: DEAD_AFTER,
            poll_interval: POLL_INTERVAL,
            op_timeout: OP_TIMEOUT,
            quiet_window: QUIET_WINDOW,
            checkpoint_every: CHECKPOINT_EVERY,
            max_retries: WIRE_MAX_RETRIES,
            backoff_base: WIRE_BACKOFF_BASE,
            backoff_cap: WIRE_BACKOFF_CAP,
            wire_op_timeout: WIRE_OP_TIMEOUT,
        }
    }
}

impl NetTuning {
    /// Resolves the tuning from process environment variables.
    pub fn from_env() -> Self {
        Self::from_lookup(|key| std::env::var(key).ok())
    }

    /// Resolves the tuning from an arbitrary key lookup — the pure core
    /// of [`NetTuning::from_env`], so tests need not mutate the process
    /// environment. Unset or unparsable keys keep their defaults.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        let ms = |key: &str, default: Duration| -> Duration {
            lookup(key)
                .and_then(|v| v.trim().parse::<u64>().ok())
                .map(Duration::from_millis)
                .unwrap_or(default)
        };
        let count = |key: &str, default: u32| -> u32 {
            lookup(key)
                .and_then(|v| v.trim().parse::<u32>().ok())
                .unwrap_or(default)
        };
        NetTuning {
            resend_after: ms("PIPELLM_RESEND_AFTER_MS", RESEND_AFTER),
            heartbeat_interval: ms("PIPELLM_HEARTBEAT_MS", HEARTBEAT_INTERVAL),
            suspect_after: ms("PIPELLM_SUSPECT_AFTER_MS", SUSPECT_AFTER),
            dead_after: ms("PIPELLM_DEAD_AFTER_MS", DEAD_AFTER),
            poll_interval: ms("PIPELLM_POLL_MS", POLL_INTERVAL),
            op_timeout: ms("PIPELLM_OP_TIMEOUT_MS", OP_TIMEOUT),
            quiet_window: ms("PIPELLM_QUIET_MS", QUIET_WINDOW),
            checkpoint_every: count("PIPELLM_CHECKPOINT_EVERY", CHECKPOINT_EVERY).max(1),
            max_retries: count("PIPELLM_MAX_RETRIES", WIRE_MAX_RETRIES),
            backoff_base: ms("PIPELLM_BACKOFF_BASE_MS", WIRE_BACKOFF_BASE),
            backoff_cap: ms("PIPELLM_BACKOFF_CAP_MS", WIRE_BACKOFF_CAP),
            wire_op_timeout: ms("PIPELLM_WIRE_OP_TIMEOUT_MS", WIRE_OP_TIMEOUT),
        }
    }
}

/// Frame kind bytes.
mod kind {
    pub const HELLO: u8 = 0x01;
    pub const WELCOME: u8 = 0x02;
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
    pub const FINISH: u8 = 0x20;
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

/// Orchestrator's reply to [`Hello`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Welcome {
    /// Total pipeline stages in the deployment.
    pub stages: u32,
}

/// The shard assignment: everything a worker needs to serve its stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// are derived from it locally at each endpoint.
    pub cluster_seed: u64,
}

impl ShardManifest {
    fn validate(&self) -> NetResult<()> {
        if self.stages == 0 || self.stage >= self.stages {
            return Err(NetError::Malformed {
                what: "manifest stage out of range",
            });
        }
        if self.layer_start > self.layer_end || self.layer_end > self.layers {
            return Err(NetError::Malformed {
                what: "manifest layer range out of bounds",
            });
        }
        Ok(())
    }
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
/// Workers send one every [`NetTuning::heartbeat_interval`]; the
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
/// multiple of [`NetTuning::checkpoint_every`]. Workers advance their
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
/// The payload is AEAD-sealed under a key derived from the cluster seed —
/// which the orchestrator never holds — so the supervisor stores and
/// relays it without being able to read (or forge) the enclosed
/// watermark and edge epochs — 64 bytes, no activations.
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Control-channel greeting.
    Hello(Hello),
    /// Greeting reply.
    Welcome(Welcome),
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
    /// No more iterations; report counters.
    Finish,
    /// End-of-run counter report.
    Done(CounterReport),
    /// Tear the deployment down.
    Shutdown,
}

impl Msg {
    fn kind(&self) -> u8 {
        match self {
            Msg::Hello(_) => kind::HELLO,
            Msg::Welcome(_) => kind::WELCOME,
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
            Msg::Finish => kind::FINISH,
            Msg::Done(_) => kind::DONE,
            Msg::Shutdown => kind::SHUTDOWN,
        }
    }

    /// Encodes the message as one complete frame (header included).
    ///
    /// # Errors
    ///
    /// [`NetError::Oversize`] if the payload exceeds the frame cap.
    pub fn encode(&self) -> NetResult<Vec<u8>> {
        let mut w = Writer::default();
        match self {
            Msg::Hello(h) => {
                w.u32(h.stage);
                w.u32(h.generation);
            }
            Msg::Welcome(wl) => w.u32(wl.stages),
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
            }
            Msg::ManifestAck(a) => {
                w.u32(a.stage);
                w.u64(a.weight_hash);
            }
            Msg::Start | Msg::Finish | Msg::Shutdown => {}
            Msg::Data(d) => {
                w.u32(d.src);
                w.u32(d.dst);
                w.u64(d.seq);
                w.u32(d.epoch);
                w.u32(d.iteration);
                w.u32(d.micro_batch);
                w.bytes(&d.sealed);
            }
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
        encode_frame(self.kind(), &w.0)
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
        let (kind_byte, payload) = decode_frame(frame)?;
        let mut r = Reader::new(payload);
        let msg = match kind_byte {
            kind::HELLO => Msg::Hello(Hello {
                stage: r.u32()?,
                generation: r.u32()?,
            }),
            kind::WELCOME => {
                let stages = r.u32()?;
                if stages == 0 {
                    return Err(NetError::Malformed {
                        what: "welcome with zero stages",
                    });
                }
                Msg::Welcome(Welcome { stages })
            }
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
                sealed: r.bytes()?.to_vec(),
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
            kind::FINISH => Msg::Finish,
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
        roundtrip(Msg::Welcome(Welcome { stages: 4 }));
        roundtrip(Msg::Manifest(ShardManifest {
            stage: 1,
            stages: 4,
            layers: 16,
            layer_start: 4,
            layer_end: 8,
            weight_hash: 0xDEAD_BEEF,
            activation_bytes: 256 * 1024,
            micro_batches: 4,
            iterations: 3,
            cluster_seed: 0x51ce,
        }));
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
        roundtrip(Msg::Finish);
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
            stages: 4,
            layers: 16,
            layer_start: 0,
            layer_end: 4,
            weight_hash: 0,
            activation_bytes: 1,
            micro_batches: 1,
            iterations: 1,
            cluster_seed: 0,
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

    #[test]
    fn tuning_defaults_match_the_module_constants() {
        let t = NetTuning::from_lookup(|_| None);
        assert_eq!(t, NetTuning::default());
        assert_eq!(t.resend_after, RESEND_AFTER);
        assert_eq!(t.heartbeat_interval, HEARTBEAT_INTERVAL);
        assert!(t.suspect_after < t.dead_after);
    }

    #[test]
    fn tuning_lookup_overrides_and_ignores_garbage() {
        let t = NetTuning::from_lookup(|key| match key {
            "PIPELLM_RESEND_AFTER_MS" => Some("75".to_string()),
            "PIPELLM_HEARTBEAT_MS" => Some(" 20 ".to_string()),
            "PIPELLM_DEAD_AFTER_MS" => Some("not-a-number".to_string()),
            "PIPELLM_CHECKPOINT_EVERY" => Some("0".to_string()),
            "PIPELLM_MAX_RETRIES" => Some("9".to_string()),
            _ => None,
        });
        assert_eq!(t.resend_after, Duration::from_millis(75));
        assert_eq!(t.heartbeat_interval, Duration::from_millis(20));
        // Unparsable values keep the default.
        assert_eq!(t.dead_after, DEAD_AFTER);
        // A zero barrier stride would never checkpoint; clamped to 1.
        assert_eq!(t.checkpoint_every, 1);
        assert_eq!(t.max_retries, 9);
    }
}
