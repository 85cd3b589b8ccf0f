//! **PipeLLM**: speculative pipelined encryption for confidential GPU LLM
//! serving — a reproduction of Tan et al., ASPLOS 2025.
//!
//! NVIDIA confidential computing encrypts every CPU→GPU transfer with
//! AES-GCM under a strictly incrementing IV, putting CPU encryption
//! (≈ 5.8 GB/s) on the critical path of GPU memory swapping (PCIe ≈
//! 55 GB/s). PipeLLM removes the encryption from the critical path without
//! touching applications or hardware:
//!
//! 1. A [`predictor`] watches the low-level memcpy trace, classifies
//!    transfers by size ([`classify`]), and predicts the future swap-in
//!    sequence (repetitive / FIFO / LIFO patterns, §5.1).
//! 2. A speculative [`pipeline`] pre-encrypts predicted chunks at future
//!    IVs on a pool of crypto workers, write-protecting the plaintext so
//!    any mutation invalidates the ciphertext (the validator, §5.2).
//! 3. The [`runtime`]'s error handler tolerates mispredictions with swap
//!    re-ordering and NOP padding, relinquishing the pipeline only for
//!    irrecoverable IV staleness (§5.3).
//! 4. Swap-outs return before decryption; destination pages are
//!    access-revoked until background decryption lands (§5.4).
//!
//! The entry point is [`PipeLlmRuntime`], a drop-in
//! [`pipellm_gpu::GpuRuntime`]: any engine written against that trait runs
//! unmodified under PipeLLM — the paper's user-transparency property.
//!
//! # Example
//!
//! ```
//! use pipellm::{PipeLlmConfig, PipeLlmRuntime};
//! use pipellm_gpu::memory::Payload;
//! use pipellm_gpu::runtime::GpuRuntime;
//! use pipellm_sim::time::SimTime;
//!
//! # fn main() -> Result<(), pipellm_gpu::GpuError> {
//! let mut rt = PipeLlmRuntime::new(PipeLlmConfig::default());
//! let chunk = rt.alloc_host(Payload::Real(vec![7u8; 256 * 1024]));
//! let dst = rt.alloc_device(256 * 1024)?;
//! rt.memcpy_htod(SimTime::ZERO, dst, chunk)?;
//! let done = rt.synchronize(SimTime::ZERO);
//! assert!(done > SimTime::ZERO);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod classify;
pub mod kvswap;
pub mod observer;
pub mod partition;
pub mod pipeline;
pub mod predictor;
pub mod reuse;
pub mod runtime;
pub mod session;
pub mod stats;

pub use classify::{SizeClassifier, TransferClass};
pub use kvswap::{KvSwapPipeline, POISONED_VERSION};
pub use observer::{SideChannelObserver, WireObservation};
pub use partition::{Pass, PipelineSchedule, ScheduleOp, StagePartition};
pub use pipeline::SpeculationQueue;
pub use predictor::{Pattern, Predictor};
pub use reuse::{ReuseConfig, ReuseRuntime, ReuseStats};
pub use runtime::{PipeLlmConfig, PipeLlmRuntime, SpecFailureMode};
pub use session::{SessionState, SessionTable};
pub use stats::PipeLlmStats;
