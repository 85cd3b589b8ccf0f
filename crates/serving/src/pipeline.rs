//! Pipeline-parallel serving over a multi-GPU cluster with encrypted
//! inter-stage links.
//!
//! The [`PipelineEngine`] shards a model's layers across the devices of a
//! [`ClusterContext`] (balanced contiguous [`StagePartition`]), streams
//! micro-batches through the stages under a fill–drain or 1F1B
//! [`PipelineSchedule`], and moves every inter-stage activation over that
//! edge's own secure channel. Three systems are compared:
//!
//! - [`PipelineSystem::CcOff`]: plaintext NVLink at full bandwidth;
//! - [`PipelineSystem::CcNative`]: native CC — every hop seals on the
//!   issuing stage's thread and decrypts before use, crypto on the
//!   critical path at both ends of every link;
//! - [`PipelineSystem::PipeLlm`]: the speculative [`EdgePipeline`] per
//!   edge direction — the moment its producer kernel retires, an
//!   activation the predictor expects is sealed on a crypto worker and
//!   submitted in one call, so the stage thread never blocks on
//!   encryption and the seal overlaps the next micro-batch's compute.
//!
//! The engine is *functional*: micro-batch bytes really cross the links
//! under AES-GCM with per-edge incrementing IVs, and each stage applies
//! its layer range's deterministic transform ([`pipellm::partition`]), so
//! an N-stage run is bit-exact with the single-GPU run — the repo-level
//! acceptance tests pin that down.
//!
//! Host ingress/egress (PCIe into stage 0, out of the last stage) uses the
//! native path for every system, so the comparison isolates what the
//! *inter-stage* links cost.

use crate::engine::ServingEngine;
use crate::report::ServingReport;
use crate::resilience::ResilienceStats;
use pipellm::edge::EdgePipeline;
use pipellm::partition::{apply_stage, Pass, PipelineSchedule, ScheduleOp, StagePartition};
use pipellm::stats::PipeLlmStats;
use pipellm_chaos::{ChaosInjector, FaultKind, FaultSite, RetryPolicy};
use pipellm_crypto::edge::WireEdge;
use pipellm_gpu::cluster::{ClusterConfig, ClusterContext, NvLinkModel};
use pipellm_gpu::memory::{DevicePtr, HostRegion, Payload};
use pipellm_gpu::{CcMode, GpuError, IoTimingModel};
use pipellm_sim::metrics::Samples;
use pipellm_sim::time::SimTime;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Which runtime discipline the inter-stage links run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineSystem {
    /// Confidential computing disabled.
    CcOff,
    /// Native CC: seal/open coupled to every transfer API call.
    CcNative,
    /// PipeLLM: speculative pre-encryption per edge direction.
    PipeLlm,
}

impl PipelineSystem {
    /// Display label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            PipelineSystem::CcOff => "w/o CC",
            PipelineSystem::CcNative => "CC",
            PipelineSystem::PipeLlm => "PipeLLM",
        }
    }

    fn cc_mode(&self) -> CcMode {
        match self {
            PipelineSystem::CcOff => CcMode::Off,
            _ => CcMode::On,
        }
    }
}

/// Configuration for a [`PipelineEngine`].
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Pipeline stages (one device per stage), ≥ 1.
    pub stages: usize,
    /// Model layers to shard (must be ≥ `stages`).
    pub layers: u32,
    /// Micro-batches per iteration.
    pub micro_batches: usize,
    /// Iterations (synchronized batches) to run.
    pub iterations: usize,
    /// Bytes per micro-batch activation.
    pub activation_bytes: u64,
    /// Per-stage issue schedule.
    pub schedule: PipelineSchedule,
    /// Link discipline under test.
    pub system: PipelineSystem,
    /// Whether to run backward passes (gradients flow over the reverse
    /// direction of every edge).
    pub train: bool,
    /// GPU compute per layer per micro-batch (backward costs 2×).
    pub compute_per_layer: Duration,
    /// Input-generation and key-derivation seed.
    pub seed: u64,
    /// Crypto worker threads per device.
    pub crypto_threads: usize,
    /// Host↔device timing calibration.
    pub timing: IoTimingModel,
    /// Inter-GPU link calibration.
    pub nvlink: NvLinkModel,
    /// Fault injector shared with every device context and edge (`None`
    /// runs chaos-free). Frame faults fire inside the transfer layers;
    /// the engine itself rolls the stage- and session-level kinds.
    pub chaos: Option<Arc<ChaosInjector>>,
    /// Retry/backoff/timeout policy for faulted inter-stage operations.
    pub retry: RetryPolicy,
    /// Simulated cost of restarting a killed or timed-out stage executor.
    pub restart_penalty: Duration,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            stages: 2,
            layers: 16,
            micro_batches: 4,
            iterations: 3,
            activation_bytes: 256 * 1024,
            schedule: PipelineSchedule::FillDrain,
            system: PipelineSystem::PipeLlm,
            train: false,
            compute_per_layer: Duration::from_micros(20),
            seed: 0x51ce,
            crypto_threads: 1,
            timing: IoTimingModel::default(),
            nvlink: NvLinkModel::default(),
            chaos: None,
            retry: RetryPolicy::default(),
            restart_penalty: Duration::from_micros(200),
        }
    }
}

/// Deterministic input bytes for `(seed, iteration, micro_batch)` — the
/// shared generator the networked orchestrator also uses, so both
/// deployments inject bit-identical micro-batches.
fn input_bytes(seed: u64, iteration: usize, micro_batch: usize, len: usize) -> Vec<u8> {
    pipellm::partition::iteration_input(seed, iteration, micro_batch, len)
}

/// Pipeline-parallel serving engine over an N-device cluster.
pub struct PipelineEngine {
    config: PipelineConfig,
    cluster: ClusterContext,
    partition: StagePartition,
    /// Forward edge pipelines, `fwd[s]` covering `s → s+1` (PipeLLM only).
    fwd_pipes: Vec<EdgePipeline>,
    /// Backward edge pipelines, `bwd[s]` covering `s+1 → s` (PipeLLM +
    /// training only).
    bwd_pipes: Vec<EdgePipeline>,
    /// Per-stage, per-micro-batch activation buffers on device `s`.
    in_buf: Vec<Vec<DevicePtr>>,
    /// Per-stage gradient source buffer (training).
    grad_src: Vec<DevicePtr>,
    /// Per-stage gradient destination buffer (training).
    grad_dst: Vec<DevicePtr>,
    /// Per-micro-batch host ingress regions on device 0's context,
    /// rewritten (not reallocated) every iteration.
    ingress: Vec<HostRegion>,
    /// Per-micro-batch host output regions on the last device's context.
    out_regions: Vec<HostRegion>,
    outputs: Vec<Vec<u8>>,
    latencies: Samples,
    resilience: ResilienceStats,
}

impl PipelineEngine {
    /// Builds the cluster, partitions the layers, and allocates the
    /// per-stage activation buffers.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero stages, more
    /// stages than layers) or the device capacity cannot hold the
    /// activation buffers.
    pub fn new(config: PipelineConfig) -> Self {
        let stages = config.stages;
        let partition = StagePartition::balanced(config.layers, stages);
        let mut cluster = ClusterContext::new(ClusterConfig {
            devices: stages,
            cc: config.system.cc_mode(),
            timing: config.timing,
            nvlink: config.nvlink,
            device_capacity: (config.activation_bytes * (config.micro_batches as u64 + 2))
                .max(1 << 30),
            crypto_threads: config.crypto_threads,
            seed: config.seed,
            chaos: config.chaos.clone(),
        });
        let len = config.activation_bytes;
        let in_buf: Vec<Vec<DevicePtr>> = (0..stages)
            .map(|s| {
                (0..config.micro_batches)
                    .map(|_| {
                        cluster
                            .device_mut(s)
                            .alloc_device(len)
                            .expect("activation buffers fit device memory")
                    })
                    .collect()
            })
            .collect();
        let (grad_src, grad_dst) = if config.train {
            let alloc_virtual = |cluster: &mut ClusterContext, s: usize| {
                let ptr = cluster
                    .device_mut(s)
                    .alloc_device(len)
                    .expect("gradient buffer fits");
                cluster
                    .device_mut(s)
                    .device_memory_mut()
                    .store(ptr, Payload::virtual_of(len))
                    .expect("fresh allocation");
                ptr
            };
            (
                (0..stages)
                    .map(|s| alloc_virtual(&mut cluster, s))
                    .collect(),
                (0..stages)
                    .map(|s| alloc_virtual(&mut cluster, s))
                    .collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        let ingress = (0..config.micro_batches)
            .map(|_| {
                cluster
                    .device_mut(0)
                    .host_mut()
                    .alloc_real(vec![0u8; len as usize])
            })
            .collect();
        let out_regions = (0..config.micro_batches)
            .map(|_| {
                cluster
                    .device_mut(stages - 1)
                    .host_mut()
                    .alloc_real(vec![0u8; len as usize])
            })
            .collect();
        let speculative = config.system == PipelineSystem::PipeLlm;
        let fwd_pipes = if speculative {
            (0..stages.saturating_sub(1))
                .map(|s| EdgePipeline::new(s, s + 1))
                .collect()
        } else {
            Vec::new()
        };
        let bwd_pipes = if speculative && config.train {
            (0..stages.saturating_sub(1))
                .map(|s| EdgePipeline::new(s + 1, s))
                .collect()
        } else {
            Vec::new()
        };
        PipelineEngine {
            config,
            cluster,
            partition,
            fwd_pipes,
            bwd_pipes,
            in_buf,
            grad_src,
            grad_dst,
            ingress,
            out_regions,
            outputs: Vec::new(),
            latencies: Samples::new(),
            resilience: ResilienceStats::default(),
        }
    }

    /// The underlying cluster (counters, timelines, edge stats).
    pub fn cluster(&self) -> &ClusterContext {
        &self.cluster
    }

    /// The layer partition in use.
    pub fn partition(&self) -> &StagePartition {
        &self.partition
    }

    /// Final activations per micro-batch, in `(iteration, micro_batch)`
    /// order — the bit-exactness witness.
    pub fn outputs(&self) -> &[Vec<u8>] {
        &self.outputs
    }

    /// What the recovery protocol did during the run (all-zero without
    /// an injector or when no fault fired).
    pub fn resilience(&self) -> &ResilienceStats {
        &self.resilience
    }

    /// Aggregate speculation statistics over every edge direction
    /// (all-zero for the non-speculative systems).
    pub fn spec_stats(&self) -> PipeLlmStats {
        let mut total = PipeLlmStats::default();
        for pipe in self.fwd_pipes.iter().chain(self.bwd_pipes.iter()) {
            total += pipe.stats();
        }
        total
    }

    /// Errors if any edge's two ends ended out of lockstep for any live
    /// session — ciphertext lost or replayed on a link.
    pub fn verify_edges(&self) -> Result<(), String> {
        for edge in self.cluster.edge_ids() {
            let [a, b] = self
                .cluster
                .edge(edge)
                .ok_or_else(|| format!("{edge} missing"))?;
            if !a.mirrors(b) {
                return Err(format!("{edge}: ends out of lockstep"));
            }
        }
        Ok(())
    }

    /// Per-stage compute time of one pass over `stage`'s layers.
    fn stage_compute(&self, stage: usize, pass: Pass) -> Duration {
        let layers = self.partition.layers_of(stage).len() as u32;
        let fwd = self.config.compute_per_layer * layers;
        match pass {
            Pass::Forward => fwd,
            Pass::Backward => fwd * 2,
        }
    }

    /// Runs a transfer under the retry policy. A
    /// [`GpuError::TransferFaulted`] means both channel endpoints consumed
    /// the frame's IV (lockstep held, sentinel landed), so the op is safely
    /// re-issued after a jittered backoff — the re-issue seals at the fresh
    /// IV. When the retry budget is exhausted, one final escalation attempt
    /// runs with injection suppressed: chaos verifies that recovery works,
    /// not that an unbounded fault stream eventually wins. Every other
    /// error propagates immediately.
    fn with_retry<T>(
        &mut self,
        now: SimTime,
        salt: u64,
        mut op: impl FnMut(&mut Self, SimTime) -> Result<T, GpuError>,
    ) -> Result<T, GpuError> {
        let mut at = now;
        let mut attempt = 0u32;
        loop {
            match op(self, at) {
                Err(GpuError::TransferFaulted { .. }) if self.config.retry.allows(attempt) => {
                    let wait = self.config.retry.backoff_after(attempt, salt);
                    self.resilience.retries += 1;
                    self.resilience.retry_backoff += wait;
                    at += wait;
                    attempt += 1;
                }
                Err(GpuError::TransferFaulted { .. }) => {
                    self.resilience.escalations += 1;
                    let chaos = self.config.chaos.clone();
                    let _quiet = chaos.as_deref().map(ChaosInjector::suppress);
                    return op(self, at);
                }
                other => return other,
            }
        }
    }

    /// Per-hop jitter salt: distinct per (stage, micro-batch, direction)
    /// so concurrent retries never thundering-herd the same backoffs.
    fn hop_salt(stage: usize, m: usize, backward: bool) -> u64 {
        ((stage as u64) << 32) | ((m as u64) << 1) | u64::from(backward)
    }

    /// Rolls the stage-level chaos for one schedule op on `stage` and
    /// prices the recovery into the launch time: a hang stalls the stage
    /// executor until it clears or the per-op timeout fires (watchdog +
    /// restart); a kill restarts the executor and force-rekeys every edge
    /// touching the stage before traffic resumes.
    fn stage_chaos(&mut self, stage: usize, launch: SimTime) -> SimTime {
        let Some(fault) = self
            .config
            .chaos
            .as_deref()
            .and_then(|c| c.roll_stage(FaultSite::StageStep))
        else {
            return launch;
        };
        match fault.kind {
            FaultKind::StageHang => {
                self.resilience.stage_hangs += 1;
                // Salt-derived stall on [0, 2 × op_timeout): about half
                // the hangs clear on their own, the rest are cut short by
                // the watchdog and pay the restart.
                let hang = self.config.retry.op_timeout.mul_f64(fault.unit() * 2.0);
                if hang < self.config.retry.op_timeout {
                    launch + hang
                } else {
                    self.resilience.timeouts += 1;
                    launch + self.config.retry.op_timeout + self.config.restart_penalty
                }
            }
            FaultKind::StageKill => {
                self.resilience.stage_kills += 1;
                self.rekey_stage_edges(stage);
                launch + self.config.restart_penalty
            }
            _ => launch,
        }
    }

    /// Force-rekeys the active session on every edge adjacent to `stage`:
    /// a killed stage's channel state is gone, so both neighbours restart
    /// at a fresh epoch before traffic resumes; the next hop seals under
    /// the new epoch. Every other edge keeps its counters untouched.
    fn rekey_stage_edges(&mut self, stage: usize) {
        for neighbour in [stage.wrapping_sub(1), stage + 1] {
            if neighbour < self.config.stages {
                self.force_rekey(WireEdge::between(stage as u32, neighbour as u32));
            }
        }
    }

    /// Moves both ends of `edge`'s active session to the next epoch, as a
    /// `RekeyEdge` does on the wire.
    fn force_rekey(&mut self, edge: WireEdge) {
        if let Some(ends) = self.cluster.edge_mut(edge) {
            let next = ends[0].epoch().saturating_add(1);
            for end in ends {
                end.rekey_to(next);
            }
            self.resilience.forced_rekeys += 1;
        }
    }

    /// Rolls the session-level chaos at an iteration boundary: a churn
    /// closes the serving session and reroutes every channel to a freshly
    /// keyed one (IV counters restart at zero everywhere); a rekey race
    /// bumps the epoch of one salt-chosen edge, as a rekey racing the
    /// stages would.
    fn session_chaos(&mut self, now: SimTime) -> Result<SimTime, GpuError> {
        let Some(fault) = self
            .config
            .chaos
            .as_deref()
            .and_then(|c| c.roll_session(FaultSite::SessionControl))
        else {
            return Ok(now);
        };
        match fault.kind {
            FaultKind::SessionChurn => {
                self.resilience.session_churns += 1;
                let old = self.cluster.active_session();
                let fresh = self.cluster.open_session();
                self.cluster.set_session(fresh)?;
                self.cluster.close_session(old)?;
                // The edge pipelines seal every later hop under the fresh
                // session's keys and IVs; nothing sealed earlier is pending.
                Ok(now + self.config.restart_penalty)
            }
            FaultKind::RekeyRace => {
                let edges = self.cluster.edge_ids();
                if !edges.is_empty() {
                    self.force_rekey(edges[(fault.salt % edges.len() as u64) as usize]);
                }
                Ok(now)
            }
            _ => Ok(now),
        }
    }

    /// Sends the forward activation of `(stage, m)` to `stage + 1` at
    /// `now`, returning `(issue thread free, arrival at next stage)`.
    fn send_forward(
        &mut self,
        stage: usize,
        m: usize,
        now: SimTime,
    ) -> Result<(SimTime, SimTime), GpuError> {
        let src = self.in_buf[stage][m];
        let dst = self.in_buf[stage + 1][m];
        let len = self.config.activation_bytes;
        if self.config.system == PipelineSystem::PipeLlm {
            let t = self.fwd_pipes[stage].send(&mut self.cluster, now, src, dst, len)?;
            Ok((t.api_return, t.complete))
        } else {
            let t = self
                .cluster
                .memcpy_dtod_async(now, stage, src, stage + 1, dst)?;
            Ok((t.api_return, t.complete))
        }
    }

    /// Sends the gradient of `(stage, m)` to `stage - 1` at `now`.
    fn send_backward(
        &mut self,
        stage: usize,
        _m: usize,
        now: SimTime,
    ) -> Result<(SimTime, SimTime), GpuError> {
        let src = self.grad_src[stage];
        let dst = self.grad_dst[stage - 1];
        let len = self.config.activation_bytes;
        if self.config.system == PipelineSystem::PipeLlm {
            let t = self.bwd_pipes[stage - 1].send(&mut self.cluster, now, src, dst, len)?;
            Ok((t.api_return, t.complete))
        } else {
            let t = self
                .cluster
                .memcpy_dtod_async(now, stage, src, stage - 1, dst)?;
            Ok((t.api_return, t.complete))
        }
    }

    /// Applies stage `stage`'s layer range to the activation buffer of
    /// micro-batch `m`, in place on the device.
    fn compute_functional(&mut self, stage: usize, m: usize) {
        let ptr = self.in_buf[stage][m];
        let layers = self.partition.layers_of(stage);
        let payload = self
            .cluster
            .device_mut(stage)
            .device_memory_mut()
            .get_mut(ptr)
            .expect("activation buffer is live");
        match payload {
            Payload::Real(bytes) => apply_stage(layers, bytes),
            Payload::Virtual { version, .. } => *version += u64::from(layers.len() as u32),
        }
    }

    /// Runs one synchronized iteration starting at `start`; returns its
    /// completion time.
    fn run_iteration(&mut self, iteration: usize, start: SimTime) -> Result<SimTime, GpuError> {
        let stages = self.config.stages;
        let mb = self.config.micro_batches;
        let len = self.config.activation_bytes as usize;

        // Inject inputs: the frontend issues the micro-batch uploads
        // sequentially over stage 0's PCIe link (native path for every
        // system — ingress cost cancels out of the comparison).
        let mut inject = vec![SimTime::ZERO; mb];
        let mut arrive_fwd: Vec<Vec<Option<SimTime>>> = vec![vec![None; mb]; stages];
        let mut frontend = start;
        for m in 0..mb {
            let bytes = input_bytes(self.config.seed, iteration, m, len);
            let region = self.ingress[m];
            self.cluster
                .device_mut(0)
                .host_mut()
                .write(region.addr, Payload::Real(bytes))
                .map_err(pipellm_gpu::GpuError::from)?;
            let dst = self.in_buf[0][m];
            let t = self.with_retry(frontend, Self::hop_salt(0, m, false) ^ 0x16e7, |e, at| {
                e.cluster.device_mut(0).memcpy_htod_async(at, dst, region)
            })?;
            inject[m] = frontend;
            frontend = t.api_return;
            arrive_fwd[0][m] = Some(t.complete);
        }

        // Dependency-driven execution of the per-stage schedules.
        let mut queues: Vec<VecDeque<ScheduleOp>> = (0..stages)
            .map(|s| {
                self.config
                    .schedule
                    .stage_ops(s, stages, mb, self.config.train)
                    .into()
            })
            .collect();
        let mut arrive_bwd: Vec<Vec<Option<SimTime>>> = vec![vec![None; mb]; stages];
        let mut fwd_done: Vec<Vec<Option<SimTime>>> = vec![vec![None; mb]; stages];
        let mut thread_free = vec![start; stages];
        let mut finished = start;
        loop {
            let mut progress = false;
            for s in 0..stages {
                while let Some(&op) = queues[s].front() {
                    let m = op.micro_batch;
                    let ready = match op.pass {
                        Pass::Forward => arrive_fwd[s][m],
                        Pass::Backward => {
                            if fwd_done[s][m].is_none() {
                                None
                            } else {
                                arrive_bwd[s][m]
                            }
                        }
                    };
                    let Some(ready) = ready else { break };
                    queues[s].pop_front();
                    progress = true;
                    let launch = self.stage_chaos(s, ready.max(thread_free[s]));
                    let duration = self.stage_compute(s, op.pass);
                    let compute_end = self
                        .cluster
                        .device_mut(s)
                        .launch_compute(launch, duration)
                        .end;
                    thread_free[s] = compute_end;
                    match op.pass {
                        Pass::Forward => {
                            self.compute_functional(s, m);
                            fwd_done[s][m] = Some(compute_end);
                            if s + 1 < stages {
                                let (free, arrival) = self.with_retry(
                                    compute_end,
                                    Self::hop_salt(s, m, false),
                                    |e, at| e.send_forward(s, m, at),
                                )?;
                                thread_free[s] = free;
                                arrive_fwd[s + 1][m] = Some(arrival);
                            } else {
                                // Egress: native D2H off the last stage.
                                let out = self.out_regions[m];
                                let src = self.in_buf[stages - 1][m];
                                let t = self.with_retry(
                                    compute_end,
                                    Self::hop_salt(s, m, false) ^ 0xe62e55,
                                    |e, at| {
                                        e.cluster
                                            .device_mut(stages - 1)
                                            .memcpy_dtoh_async(at, out, src)
                                    },
                                )?;
                                thread_free[s] = t.api_return;
                                finished = finished.max(t.complete);
                                self.latencies
                                    .record(t.complete.saturating_since(inject[m]).as_secs_f64());
                                if let Payload::Real(bytes) = self
                                    .cluster
                                    .device(stages - 1)
                                    .host()
                                    .get(out.addr)
                                    .expect("output region is live")
                                    .payload()
                                {
                                    self.outputs.push(bytes.clone());
                                }
                                if self.config.train {
                                    // Loss gradient is available as soon as
                                    // the last forward retires.
                                    arrive_bwd[s][m] = Some(compute_end);
                                }
                            }
                        }
                        Pass::Backward => {
                            if s > 0 {
                                let (free, arrival) = self.with_retry(
                                    compute_end,
                                    Self::hop_salt(s, m, true),
                                    |e, at| e.send_backward(s, m, at),
                                )?;
                                thread_free[s] = free;
                                arrive_bwd[s - 1][m] = Some(arrival);
                            }
                            finished = finished.max(compute_end);
                        }
                    }
                }
            }
            if queues.iter().all(VecDeque::is_empty) {
                break;
            }
            assert!(progress, "pipeline schedule deadlocked");
        }
        Ok(self.cluster.synchronize(finished))
    }
}

impl ServingEngine for PipelineEngine {
    fn engine_name(&self) -> &'static str {
        "Pipeline"
    }

    fn describe(&self) -> String {
        format!(
            "pipeline {} stages × {} mb × {} iters, {} layers, {}, {}",
            self.config.stages,
            self.config.micro_batches,
            self.config.iterations,
            self.config.layers,
            self.config.schedule,
            if self.config.train { "train" } else { "infer" },
        )
    }

    fn run_to_completion(&mut self) -> Result<ServingReport, GpuError> {
        let mut now = SimTime::ZERO;
        for iteration in 0..self.config.iterations {
            now = self.run_iteration(iteration, now)?;
            if iteration + 1 < self.config.iterations {
                now = self.session_chaos(now)?;
            }
        }
        let completed = (self.config.iterations * self.config.micro_batches) as u64;
        let secs = now.as_secs_f64().max(f64::MIN_POSITIVE);
        Ok(ServingReport {
            system: self.config.system.label().to_string(),
            workload: self.describe(),
            finished_at: now,
            tokens_per_sec: completed as f64 / secs,
            sequences_per_sec: self.config.iterations as f64 / secs,
            norm_latency_s_per_token: self.latencies.mean(),
            p99_norm_latency: self.latencies.percentile(99.0),
            completed,
            gpu_io_stall: self.cluster.total_io_stall(),
            io: self.cluster.host_io_stats(),
            preemptions: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(stages: usize, system: PipelineSystem) -> PipelineConfig {
        PipelineConfig {
            stages,
            system,
            micro_batches: 4,
            iterations: 3,
            ..PipelineConfig::default()
        }
    }

    fn run(config: PipelineConfig) -> (PipelineEngine, ServingReport) {
        let mut engine = PipelineEngine::new(config);
        let report = engine.run_to_completion().expect("pipeline run");
        (engine, report)
    }

    #[test]
    fn n_stage_output_is_bit_exact_with_single_gpu() {
        let (single, _) = run(config(1, PipelineSystem::CcNative));
        for stages in [2usize, 4] {
            for system in [
                PipelineSystem::CcOff,
                PipelineSystem::CcNative,
                PipelineSystem::PipeLlm,
            ] {
                let (engine, _) = run(config(stages, system));
                assert_eq!(
                    engine.outputs(),
                    single.outputs(),
                    "{stages} stages under {:?} must match the single-GPU run",
                    system
                );
            }
        }
        assert_eq!(single.outputs().len(), 12, "iterations × micro-batches");
    }

    #[test]
    fn pipellm_frees_the_stage_threads_and_beats_native_cc() {
        let (_, native) = run(config(4, PipelineSystem::CcNative));
        let (engine, pipellm) = run(config(4, PipelineSystem::PipeLlm));
        let (_, off) = run(config(4, PipelineSystem::CcOff));
        assert!(
            pipellm.tokens_per_sec > native.tokens_per_sec,
            "PipeLLM {} vs CC {}",
            pipellm.tokens_per_sec,
            native.tokens_per_sec
        );
        assert!(off.tokens_per_sec >= pipellm.tokens_per_sec);
        let stats = engine.spec_stats();
        assert!(stats.spec_hits > 0, "{stats}");
        assert!(
            stats.success_rate() > 0.8,
            "ring slots are highly predictable: {stats}"
        );
    }

    #[test]
    fn single_stage_pipellm_equals_native_cc() {
        // With no inter-stage links the speculative system degenerates to
        // the native one exactly.
        let (_, native) = run(config(1, PipelineSystem::CcNative));
        let (engine, pipellm) = run(config(1, PipelineSystem::PipeLlm));
        assert_eq!(pipellm.finished_at, native.finished_at);
        assert_eq!(engine.spec_stats(), PipeLlmStats::default());
    }

    #[test]
    fn every_edge_ends_in_lockstep() {
        for system in [PipelineSystem::CcNative, PipelineSystem::PipeLlm] {
            let (engine, _) = run(config(4, system));
            engine.verify_edges().expect("lockstep");
            // Each of the 3 chain edges carried mb × iters transfers a→b.
            for s in 0..3 {
                let stats = engine
                    .cluster()
                    .edge_stats(WireEdge::between(s, s + 1))
                    .unwrap();
                assert_eq!(stats.ab_ops, 12, "{system:?} edge {s}");
                assert_eq!(stats.ba_ops, 0, "inference sends nothing back");
            }
        }
    }

    #[test]
    fn training_flows_gradients_over_the_reverse_direction() {
        let mut cfg = config(3, PipelineSystem::PipeLlm);
        cfg.train = true;
        cfg.schedule = PipelineSchedule::OneFOneB;
        let (engine, report) = run(cfg);
        assert_eq!(report.completed, 12);
        engine.verify_edges().expect("lockstep");
        for s in 0..2 {
            let stats = engine
                .cluster()
                .edge_stats(WireEdge::between(s, s + 1))
                .unwrap();
            assert_eq!(stats.ab_ops, 12);
            assert_eq!(stats.ba_ops, 12, "every gradient crosses back");
        }
        // Forward outputs stay bit-exact with the inference run.
        let (infer, _) = run(config(3, PipelineSystem::PipeLlm));
        assert_eq!(engine.outputs(), infer.outputs());
    }

    #[test]
    fn fill_drain_and_one_f_one_b_agree_on_results() {
        let mut fd = config(4, PipelineSystem::PipeLlm);
        fd.train = true;
        let mut ob = fd.clone();
        ob.schedule = PipelineSchedule::OneFOneB;
        let (fd_engine, _) = run(fd);
        let (ob_engine, _) = run(ob);
        assert_eq!(fd_engine.outputs(), ob_engine.outputs());
    }

    use pipellm_chaos::FaultPlan;

    /// `config(..)` plus a seeded injector shared engine-wide.
    fn chaotic(stages: usize, system: PipelineSystem, plan: FaultPlan) -> PipelineConfig {
        PipelineConfig {
            chaos: Some(Arc::new(ChaosInjector::new(plan))),
            ..config(stages, system)
        }
    }

    #[test]
    fn chaos_free_run_records_no_resilience_events() {
        let (engine, _) = run(config(3, PipelineSystem::PipeLlm));
        assert_eq!(engine.resilience().total_events(), 0);
    }

    #[test]
    fn faulted_links_retry_and_outputs_stay_bit_exact() {
        let (clean, _) = run(config(2, PipelineSystem::CcNative));
        for system in [PipelineSystem::CcNative, PipelineSystem::PipeLlm] {
            let plan = FaultPlan::new(17).with_frame_rate(1.0);
            let (engine, _) = run(chaotic(2, system, plan));
            assert_eq!(
                engine.outputs(),
                clean.outputs(),
                "{system:?} must recover every frame"
            );
            engine.verify_edges().expect("lockstep after recovery");
            let res = engine.resilience();
            assert!(res.escalations > 0, "rate 1.0 exhausts every budget");
            // Rate 1.0 means every live attempt faults: each op walks the
            // full ladder — max_retries retries, then one suppressed
            // escalation. Bounded, never infinite.
            assert_eq!(
                res.retries,
                res.escalations * u64::from(PipelineConfig::default().retry.max_retries),
                "{res}"
            );
            assert!(res.retry_backoff > Duration::ZERO);
        }
    }

    #[test]
    fn moderate_fault_rate_recovers_with_partial_retries() {
        let (clean, clean_report) = run(config(2, PipelineSystem::PipeLlm));
        let plan = FaultPlan::new(29).with_frame_rate(0.3);
        let (engine, report) = run(chaotic(2, PipelineSystem::PipeLlm, plan));
        assert_eq!(engine.outputs(), clean.outputs());
        engine.verify_edges().expect("lockstep");
        let res = engine.resilience();
        assert!(res.retries > 0, "30% faults must trigger retries: {res}");
        assert!(
            res.escalations < res.retries,
            "most retries succeed before the budget runs out: {res}"
        );
        assert!(
            report.finished_at > clean_report.finished_at,
            "recovery costs time: {:?} vs {:?}",
            report.finished_at,
            clean_report.finished_at
        );
    }

    #[test]
    fn hung_stage_times_out_and_the_run_completes() {
        let (clean, clean_report) = run(config(2, PipelineSystem::CcNative));
        let plan = FaultPlan::new(41).with_rate(FaultKind::StageHang, 1.0);
        let (engine, report) = run(chaotic(2, PipelineSystem::CcNative, plan));
        let res = engine.resilience();
        assert!(res.stage_hangs > 0, "{res}");
        assert!(
            res.timeouts > 0,
            "some hangs must outlast the watchdog: {res}"
        );
        assert!(
            res.timeouts < res.stage_hangs,
            "some hangs clear before the watchdog: {res}"
        );
        assert_eq!(engine.outputs(), clean.outputs());
        assert!(report.finished_at > clean_report.finished_at);
    }

    #[test]
    fn killed_stage_rekeys_its_edges_and_lockstep_holds_everywhere() {
        let (clean, _) = run(config(4, PipelineSystem::PipeLlm));
        let plan = FaultPlan::new(53).with_rate(FaultKind::StageKill, 0.2);
        let (engine, _) = run(chaotic(4, PipelineSystem::PipeLlm, plan));
        let res = engine.resilience();
        assert!(res.stage_kills > 0, "{res}");
        assert!(
            res.forced_rekeys >= res.stage_kills,
            "every kill rekeys at least one adjacent edge: {res}"
        );
        // The reroute must not desync any edge — including edges nowhere
        // near the killed stage.
        engine.verify_edges().expect("lockstep across all edges");
        assert_eq!(engine.outputs(), clean.outputs());
    }

    #[test]
    fn session_churn_reroutes_mid_stream_without_losing_work() {
        let (clean, _) = run(config(2, PipelineSystem::PipeLlm));
        let plan = FaultPlan::new(61).with_rate(FaultKind::SessionChurn, 1.0);
        let (engine, report) = run(chaotic(2, PipelineSystem::PipeLlm, plan));
        let res = engine.resilience();
        // One churn per iteration boundary (3 iterations → 2 boundaries).
        assert_eq!(res.session_churns, 2, "{res}");
        // Old sessions are closed, not leaked.
        assert_eq!(engine.cluster().session_ids().len(), 1);
        engine.verify_edges().expect("fresh session in lockstep");
        assert_eq!(engine.outputs(), clean.outputs());
        assert_eq!(report.completed, 12);
    }

    #[test]
    fn session_chaos_on_both_edge_directions_keeps_lockstep() {
        // Training sends over both directions of every edge, so every
        // churn and every raced rekey lands on a forward and a backward
        // edge pipeline at once.
        let train = |cfg: PipelineConfig| PipelineConfig {
            train: true,
            iterations: 6,
            ..cfg
        };
        let (clean, _) = run(train(config(4, PipelineSystem::PipeLlm)));
        let plan = FaultPlan::new(71).with_session_rate(1.0);
        let (engine, report) = run(train(chaotic(4, PipelineSystem::PipeLlm, plan)));
        let res = engine.resilience();
        assert!(res.forced_rekeys > 0, "{res}");
        assert!(res.session_churns > 0, "{res}");
        engine
            .verify_edges()
            .expect("lockstep after churns and rekeys");
        assert_eq!(engine.outputs(), clean.outputs());
        assert_eq!(report.completed, 24);
        let stats = engine.spec_stats();
        assert_eq!(stats.speculated, stats.spec_hits, "{stats}");
    }

    #[test]
    fn report_carries_the_pipeline_shape() {
        let (_, report) = run(config(2, PipelineSystem::CcOff));
        assert_eq!(report.system, "w/o CC");
        assert!(report.workload.contains("2 stages"));
        assert!(report.tokens_per_sec > 0.0);
        assert!(report.norm_latency_s_per_token > 0.0);
        assert_eq!(report.completed, 12);
    }
}
