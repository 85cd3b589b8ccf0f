//! The system under test: the one module that names program items.
//!
//! Everything the benchmark calls in the program is re-exported here and
//! nowhere else, so the pinned surface is exactly this file. A program PR
//! that renames or moves one of these items either keeps a `pub use` at the
//! old path or ships a benchmark PR that edits this file and nothing else.
//! Methods reached through these types (for example
//! `NetPipelineSpec::{expected_outputs, injector_for}`,
//! `PipeLlmRuntime::{context, context_mut, spec_stats}`) are part of the
//! surface by extension; README.md lists them.

// Concurrent deployments (`net_*` workloads).
pub use pipellm_net::{
    run_supervised_tcp_threads, run_tcp_threads, NetPipelineSpec, NetReport, SupervisedOptions,
    SupervisionStats,
};

// Single-thread replay of one micro-batch's path through the same layers.
pub use pipellm::partition::{apply_stage, iteration_input, StagePartition};
pub use pipellm_net::link::{role_at, EdgeCrypto, WireEdge};
pub use pipellm_net::proto::{DataFrame, Msg, HOST_NODE};
pub use pipellm_net::transport::{FrameReceiver, FrameSender, TcpTransport, Transport};

// Speculative swap pipeline (`swap_*` workloads) and its virtual-time twins.
pub use pipellm::{PipeLlmConfig, PipeLlmRuntime};
pub use pipellm_crypto::channel::{ChannelKeys, SecureChannel};
pub use pipellm_gpu::memory::{DevicePtr, Payload};
pub use pipellm_gpu::runtime::{CcNativeRuntime, CcOffRuntime, GpuRuntime, SessionedRuntime};
pub use pipellm_sim::time::SimTime;

// Provenance: which crypto code path this host runs.
pub use pipellm_crypto::hw::{aes_available, clmul_available, cpu_features};
