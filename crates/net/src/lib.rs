//! Networked multi-process deployment of the encrypted pipeline.
//!
//! Everything built so far runs inside one process: the per-edge key
//! derivation, the incrementing-IV secure channels, the chaos injector,
//! the retry policy. This crate puts that stack on a real wire. A
//! `pipellm-orchestrator` process owns ingress/egress and the control
//! plane; N `stage-worker` processes each own one pipeline stage; the
//! processes are joined by length-framed byte streams carrying sealed
//! AES-GCM frames.
//!
//! # Topology
//!
//! The deployment is a star: every worker holds **two** connections to
//! the orchestrator — a *control* channel (handshake, manifests, acks,
//! rekeys, shutdown) and a *data* channel (sealed activation frames).
//! Inter-stage hops `s → s+1` are relayed through the orchestrator, which
//! forwards the sealed frames without opening them: edge keys are derived
//! from the cluster seed and the edge identity
//! ([`pipellm_crypto::edge::WireEdge::key_seed`]) at the two workers, each
//! holding the edge as a [`link::EdgeCrypto`] — the one edge type, the
//! same one the in-process cluster holds at each end of its edges. The
//! relay could open them all the same. It picks the cluster seed and
//! sends it to every worker in the clear [`proto::ShardManifest`], so it
//! holds the root of every edge key and every checkpoint key. The
//! untrusted bounce buffer of the paper's threat model is therefore not
//! what this crate builds yet; ROADMAP.md item 2 ("The relay must not hold
//! the keys") tracks provisioning worker keys out of band.
//!
//! # One source of settings
//!
//! A run's settable values are the fields of [`NetPipelineSpec`] and
//! [`SupervisedOptions`], read by the orchestrator alone; the rest are
//! [`proto`] constants. A worker starts from a [`WorkerConfig`] (stage,
//! generation, deadline) and learns everything else from its manifest.
//! The library reads no environment.
//!
//! # One deployment, two switches
//!
//! [`deploy`] is the entry point. Its switches are the [`Wire`] the
//! workers are attached over — in-process duplex threads, localhost TCP
//! threads, or a bound listener that real `stage-worker` processes dial —
//! and `Option<&SupervisedOptions>`. Whatever their setting, one driver
//! runs one lifecycle: **handshake** (shard manifest → ack →
//! start) → **serve** (at most an admission window of sessions in flight)
//! → **drain** (each data edge closed by a `Fin` its receiver accepts only
//! once every frame sealed on it is opened; see [`proto`]) → **lockstep
//! audit** of every edge's counters → **shutdown**. No phase ends on
//! elapsed silence. Supervision adds, on top of exactly that: heartbeat
//! deadlines, live failover of a dead worker (generation bump, readmission,
//! sealed-checkpoint restore, forced rekey, re-injection), checkpoint
//! barriers on the committed prefix, and admission deadlines and drain —
//! see [`supervisor`]. Without it a lost worker fails the run.
//!
//! # Transports
//!
//! [`transport::Transport`] abstracts the byte stream: a real
//! [`transport::TcpTransport`] over `std::net`, and an in-process
//! [`transport::duplex_pair`] built on a mutex/condvar queue so every test
//! stays hermetic. The orchestrator and the worker event loops are written
//! against the trait and cannot tell the difference — which is what lets
//! the repo assert TCP and duplex runs are byte-identical.
//!
//! Each TCP connection has an outbox. An event loop's sends
//! ([`link::send_on`]) queue small frames there, and the loop writes each
//! outbox once per turn: before it blocks for the next event, and at least
//! every [`proto::FLUSH_BOUND`] (200 µs) while events keep arriving. A
//! micro-batch's eight small frames (data and acks) thus cost a few
//! writes, not eight. The outbox holds at most [`proto::OUTBOX_CAP`]
//! (16 KiB); a frame that would overflow it flushes it first, and a frame
//! at or above the cap is written directly, never copied. A lost
//! connection drops what its outbox held, unacknowledged, and the rekey
//! retransmit recovers it like bytes lost in a kernel buffer. The duplex
//! transport has no outbox.
//!
//! # Failure model
//!
//! The existing [`pipellm_chaos`] machinery drives faults at the new
//! [`pipellm_chaos::FaultSite::NetLink`] site: sealed frames are bit
//! flipped, truncated or dropped in flight (absorbed by the receiver's
//! sentinel discipline: the IV is consumed, the payload scrubbed, a NACK
//! triggers a fresh-IV retransmit), and whole connections are killed
//! ([`pipellm_chaos::FaultKind::ConnectionDrop`]), recovered by a bounded
//! reconnect under [`pipellm_chaos::RetryPolicy`] plus an epoch bump on
//! every adjacent edge so traffic resumes at fresh IVs — no counter of the
//! dead connection is ever reused.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod checkpoint;
pub mod error;
pub mod frame;
pub mod link;
pub mod orchestrator;
pub mod proto;
pub(crate) mod pump;
pub mod supervisor;
pub mod transport;
pub mod worker;

pub use error::{NetError, NetResult};
pub use orchestrator::{
    deploy, run_supervised_tcp_threads, run_tcp_threads, NetPipelineSpec, NetReport, Wire,
};
pub use proto::PROTO_VERSION;
pub use supervisor::{
    AdmissionQueue, SupervisedOptions, SupervisedReport, SupervisionStats, Supervisor, WorkerHealth,
};
pub use worker::{run_worker, WorkerConfig, WorkerLinks};
