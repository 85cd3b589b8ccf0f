//! A simulated confidential-computing GPU for the PipeLLM reproduction.
//!
//! This crate stands in for the hardware and driver stack the paper runs on
//! (an NVIDIA H100-SXM in CC mode inside a CVM, driven through CUDA):
//!
//! - [`memory`]: host (CVM) and device memory. Allocations carry either
//!   real bytes or *virtual* payloads (length-only stand-ins that let the
//!   timing experiments "move" hundreds of gigabytes).
//! - [`pages`]: an MPK/PKU-style page-protection registry. PipeLLM uses
//!   write-protection to validate speculative ciphertext and access
//!   revocation to make decryption asynchronous (paper §5.2, §5.4).
//! - [`timing`]: the I/O cost model calibrated against the paper's
//!   Figure 2 microbenchmark (PCIe bandwidth, CC staging ceiling, CC
//!   control-plane overhead, CPU crypto throughput).
//! - [`context`]: [`context::CudaContext`] — the device + channel + timing
//!   resources behind a CUDA-flavoured asynchronous memcpy API. In CC mode
//!   every host→device transfer really is sealed with AES-GCM under the
//!   incrementing-IV discipline, and the simulated copy engine really
//!   rejects out-of-order ciphertext.
//! - [`runtime`]: the [`runtime::GpuRuntime`] trait that serving engines
//!   (FlexGen/vLLM/PEFT analogues) program against, with the two baseline
//!   implementations: CC disabled and native NVIDIA CC (on-the-fly
//!   encryption inside the API call). The PipeLLM runtime in the `pipellm`
//!   crate implements the same trait — that is the paper's
//!   user-transparency claim in type-system form.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Transfer failures (authentication, truncation, injected faults) are
// recoverable events that must surface as `GpuError`s; panicking on them
// would wedge the whole pipeline. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cluster;
pub mod context;
pub mod memory;
pub mod pages;
pub mod runtime;
pub mod timing;

pub use cluster::{ClusterConfig, ClusterContext, ClusterRuntime, EdgeStats, NvLinkModel};
pub use context::{CcMode, CudaContext, DeferredKvOpen, GpuError, SessionCounters};
pub use memory::{DevicePtr, HostAddr, HostMemory, HostRegion, Payload};
pub use pipellm_crypto::session::SessionId;
pub use runtime::{CcNativeRuntime, CcOffRuntime, GpuRuntime, SessionRuntime, SessionedRuntime};
pub use timing::IoTimingModel;
