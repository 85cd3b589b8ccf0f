//! Umbrella crate for the PipeLLM reproduction workspace.
//!
//! Re-exports the workspace crates under one roof so the repository-level
//! examples and integration tests exercise the same public API a downstream
//! user would import:
//!
//! - [`runtime`] (`pipellm`) — the contribution: the speculative pipelined
//!   encryption runtime;
//! - [`chaos`] — deterministic fault injection and the retry/backoff/
//!   timeout policy behind the resilience story;
//! - [`crypto`] — AES-GCM and the incrementing-IV secure channel;
//! - [`sim`] — the deterministic timing core;
//! - [`gpu`] — the simulated CC-enabled GPU and CUDA-level API;
//! - [`llm`] — OPT model geometry and the GPU roofline model;
//! - [`workloads`] — synthetic traces (Alpaca/ShareGPT/ultrachat-like);
//! - [`net`] — the networked multi-process deployment: orchestrator and
//!   stage workers over encrypted, length-framed byte streams;
//! - [`serving`] — vLLM/FlexGen/PEFT-like engines;
//! - [`bench`](mod@bench) — the experiment harness regenerating the paper's figures;
//! - [`analysis`] — the `pipellm-lint` static analyzer and the exhaustive
//!   interleaving checker (including the supervisor failover model).
//!
//! # Quickstart
//!
//! ```
//! use pipellm_repro::runtime::{PipeLlmConfig, PipeLlmRuntime};
//! use pipellm_repro::gpu::memory::Payload;
//! use pipellm_repro::gpu::runtime::GpuRuntime;
//! use pipellm_repro::sim::time::SimTime;
//!
//! # fn main() -> Result<(), pipellm_repro::gpu::GpuError> {
//! let mut rt = PipeLlmRuntime::new(PipeLlmConfig::default());
//! let chunk = rt.alloc_host(Payload::Real(vec![7u8; 256 * 1024]));
//! let dst = rt.alloc_device(256 * 1024)?;
//! rt.memcpy_htod(SimTime::ZERO, dst, chunk)?;
//! assert!(rt.synchronize(SimTime::ZERO) > SimTime::ZERO);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(missing_docs)]

pub use pipellm as runtime;
pub use pipellm_analysis as analysis;
pub use pipellm_bench as bench;
pub use pipellm_chaos as chaos;
pub use pipellm_crypto as crypto;
pub use pipellm_gpu as gpu;
pub use pipellm_llm as llm;
pub use pipellm_net as net;
pub use pipellm_serving as serving;
pub use pipellm_sim as sim;
pub use pipellm_workloads as workloads;
