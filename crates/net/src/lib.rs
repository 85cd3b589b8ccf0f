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
//! forwards ciphertext it cannot read: edge keys are derived from the
//! cluster seed and the edge identity
//! ([`pipellm_gpu::cluster::edge_key_seed`]) at the two *workers*, so the
//! relay never holds a byte of plaintext or key material for the edges it
//! forwards — the host is exactly the untrusted bounce buffer the paper's
//! threat model assumes.
//!
//! # One deployment, two switches
//!
//! [`deploy`] is the entry point. Its switches are the [`Wire`] the
//! workers are attached over — in-process duplex threads, localhost TCP
//! threads, or a bound listener that real `stage-worker` processes dial —
//! and `Option<&SupervisedOptions>`. Whatever their setting, one driver
//! runs one lifecycle: **handshake** (welcome → shard manifest → ack →
//! start) → **serve** (at most an admission window of sessions in flight)
//! → **sequenced drain** (`Finish` flows downstream stage by stage) →
//! **flush** to quiescence → **lockstep audit** of every edge's counters →
//! **shutdown**. Supervision adds, on top of exactly that: heartbeat
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
pub use proto::{NetTuning, PROTO_VERSION};
pub use supervisor::{
    AdmissionQueue, SupervisedOptions, SupervisedReport, SupervisionStats, Supervisor, WorkerHealth,
};
pub use worker::{run_worker, wire_retry_policy, WorkerConfig, WorkerLinks};
