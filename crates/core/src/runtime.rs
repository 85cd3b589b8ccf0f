//! The PipeLLM runtime: a drop-in [`GpuRuntime`] that interposes on the
//! CUDA-level transfer API and hides encryption latency behind speculative
//! pipelined encryption (paper §4-§5).
//!
//! Flow of one pipelined swap-in:
//!
//! 1. The [`crate::predictor::Predictor`] predicts the next chunks from the
//!    observed transfer trace and the [`crate::classify::SizeClassifier`].
//! 2. Each predicted chunk is sealed at a speculated future IV on a crypto
//!    worker ([`pipellm_sim::resource::WorkerPool`]) and its plaintext pages
//!    are write-protected; the entry joins the
//!    [`crate::pipeline::SpeculationQueue`].
//! 3. When the application actually requests the chunk, the validator checks
//!    the entry (not invalidated by a write fault) and its IV against the
//!    channel counter:
//!    - **exact match** → the staged ciphertext is submitted immediately
//!      ([`PipeLlmStats::spec_hits`]);
//!    - **IV ahead** → the request is *suspended*; serving other requests
//!      may advance the counter to it (swap re-ordering,
//!      [`PipeLlmStats::reorders`]), otherwise NOPs pad the gap at the next
//!      synchronization ([`PipeLlmStats::nop_recoveries`]);
//!    - **no usable entry** → the pipeline is relinquished and the chunk is
//!      encrypted on demand ([`PipeLlmStats::relinquishes`]);
//!    - **nothing queued at all** → the chunk is encrypted on demand and no
//!      prediction is blamed ([`PipeLlmStats::on_demand`]).
//! 4. Swap-outs return before decryption; the destination pages are
//!    access-revoked until a background decrypt lands (§5.4).
//!
//! The runtime is **multi-tenant**: it implements
//! [`pipellm_gpu::runtime::SessionedRuntime`], so N independent sessions —
//! each with its own channel keys, IV counters, predictor, speculation
//! queue, and staging pool (see [`crate::session`]) — share one crypto
//! worker pool, one PCIe link, and one device allocator. Speculation for
//! tenant A races on-demand encryption for tenant B exactly as on real
//! hardware.

use crate::classify::SizeClassifier;
use crate::session::{SessionState, SessionTable, SpecParams};
use crate::stats::PipeLlmStats;
use pipellm_chaos::ChaosInjector;
use pipellm_crypto::session::SessionId;
use pipellm_gpu::context::{ContextConfig, CudaContext, GpuError, IoStats, SessionCounters};
use pipellm_gpu::memory::{DevicePtr, HostAddr, HostRegion, Payload};
use pipellm_gpu::runtime::{GpuRuntime, SessionedRuntime};
use pipellm_gpu::{CcMode, IoTimingModel};
use pipellm_sim::time::SimTime;
use std::fmt;
use std::time::Duration;

/// How the speculation pipeline behaves — the ablation knob for the paper's
/// Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SpecFailureMode {
    /// Normal operation: predictions follow the elected pattern.
    #[default]
    Accurate,
    /// Adversarial: the predicted *sequence* is reversed, forcing a 0%
    /// sequence-prediction success rate while the predicted *set* stays
    /// accurate — the paper's "PipeLLM-0" configuration. Requests are still
    /// served from pre-encrypted ciphertext via NOP padding.
    WrongOrder,
    /// Speculation disabled: every swap-in is encrypted on demand (but
    /// asynchronous decryption of swap-outs stays active).
    Disabled,
}

impl fmt::Display for SpecFailureMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecFailureMode::Accurate => f.write_str("accurate"),
            SpecFailureMode::WrongOrder => f.write_str("wrong-order (0% success)"),
            SpecFailureMode::Disabled => f.write_str("disabled"),
        }
    }
}

/// Configuration for [`PipeLlmRuntime`].
#[derive(Debug, Clone)]
pub struct PipeLlmConfig {
    /// Platform timing calibration.
    pub timing: IoTimingModel,
    /// Device memory capacity in bytes (H100-SXM: 80 GB).
    pub device_capacity: u64,
    /// Crypto worker threads shared by speculation, on-demand encryption,
    /// NOPs, and background decryption — across *all* sessions. The paper
    /// uses 2 for vLLM and more for FlexGen-style offloading (§7.1, §7.3).
    pub crypto_threads: usize,
    /// Maximum pre-encrypted chunks in flight per session — a ceiling: a
    /// session speculates this deep only while its predictor's recent
    /// shadow accuracy is at or above break-even (see [`crate::session`]).
    pub spec_depth: usize,
    /// Extra IV headroom reserved ahead of the channel counter for
    /// interleaved small I/O (§5.1: "PipeLLM would predict a larger IV").
    /// The gap is closed with NOPs at commit time.
    pub iv_slack: u64,
    /// Prediction behaviour (ablations).
    pub failure_mode: SpecFailureMode,
    /// Swap-in history window for each session's predictor.
    pub history_capacity: usize,
    /// N-gram context length for repetitive-pattern prediction
    /// (0 = the paper's plain successor heuristic; 1 disambiguates
    /// forward/backward traversals).
    pub context_depth: usize,
    /// Root-secret seed for per-session channel key derivation.
    pub seed: u64,
    /// Fault injector threaded into the underlying context; `None` (the
    /// default) injects nothing.
    pub chaos: Option<std::sync::Arc<ChaosInjector>>,
}

impl Default for PipeLlmConfig {
    fn default() -> Self {
        PipeLlmConfig {
            timing: IoTimingModel::default(),
            device_capacity: 80 * 1_000_000_000,
            crypto_threads: 2,
            spec_depth: 6,
            iv_slack: 0,
            failure_mode: SpecFailureMode::Accurate,
            history_capacity: 512,
            context_depth: 1,
            seed: 0x9e37,
            chaos: None,
        }
    }
}

/// The PipeLLM runtime: NVIDIA-CC security, near CC-off performance.
///
/// Implements [`GpuRuntime`], so any serving engine runs on it unmodified —
/// the paper's user-transparency property — and [`SessionedRuntime`], so N
/// tenants multiplex over it with isolated crypto state.
pub struct PipeLlmRuntime {
    ctx: CudaContext,
    classifier: SizeClassifier,
    table: SessionTable,
    params: SpecParams,
    /// Counters folded in from closed sessions, so the aggregate
    /// statistics stay monotonic when tenants depart.
    retired: PipeLlmStats,
}

impl fmt::Debug for PipeLlmRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipeLlmRuntime")
            .field("sessions", &self.table.len())
            .field("active", &self.ctx.active_session())
            .field("stats", &self.spec_stats())
            .finish()
    }
}

impl PipeLlmRuntime {
    /// Creates a PipeLLM runtime over a CC-enabled context, with the
    /// default session already open.
    pub fn new(config: PipeLlmConfig) -> Self {
        let ctx = CudaContext::new(ContextConfig {
            cc: CcMode::On,
            timing: config.timing,
            device_capacity: config.device_capacity,
            crypto_threads: config.crypto_threads,
            seed: config.seed,
            engine: None,
            chaos: config.chaos.clone(),
        });
        let params = SpecParams {
            spec_depth: config.spec_depth.max(1),
            iv_slack: config.iv_slack,
            failure_mode: config.failure_mode,
            crypto_threads: config.crypto_threads.max(1),
            history_capacity: config.history_capacity,
            context_depth: config.context_depth,
        };
        let mut table = SessionTable::new();
        let sid = ctx.active_session();
        table.ensure(sid, &params, ctx.current_h2d_iv() + config.iv_slack);
        PipeLlmRuntime {
            ctx,
            classifier: SizeClassifier::new(),
            table,
            params,
            retired: PipeLlmStats::default(),
        }
    }

    /// Runs `f` with the split borrows the per-session pipeline needs:
    /// the shared context, the active session's state, and the global
    /// cookie counter.
    fn with_active<T>(
        &mut self,
        f: impl FnOnce(
            &mut CudaContext,
            &mut SessionState,
            &mut crate::session::CookieCounter,
            &SpecParams,
        ) -> T,
    ) -> T {
        let PipeLlmRuntime {
            ctx, table, params, ..
        } = self;
        let sid = ctx.active_session();
        table.ensure(sid, params, ctx.current_h2d_iv() + params.iv_slack);
        let (state, cookies) = table.state_and_cookies(sid).expect("ensured just above");
        f(ctx, state, cookies, params)
    }

    /// Registers a model's signature sizes with the size classifier (the
    /// paper's §4.2 assumption that models are known).
    pub fn register_model(&mut self, layer_weight_bytes: u64, kv_bytes_per_token: u64) {
        self.classifier
            .register_model(layer_weight_bytes, kv_bytes_per_token);
    }

    /// Speculation statistics accumulated so far, aggregated over every
    /// session — including sessions that have since been closed.
    pub fn spec_stats(&self) -> PipeLlmStats {
        let mut total = self.retired;
        for (_, state) in self.table.iter() {
            total += state.stats();
        }
        total
    }

    /// Speculation statistics of one session.
    pub fn session_spec_stats(&self, session: SessionId) -> Option<PipeLlmStats> {
        self.table.get(session).map(SessionState::stats)
    }

    /// One session's speculation state (stats, predictor, pool counters).
    pub fn session_state(&self, session: SessionId) -> Option<&SessionState> {
        self.table.get(session)
    }

    /// The active session's speculation state.
    pub fn active_state(&self) -> &SessionState {
        self.table
            .get(self.ctx.active_session())
            .expect("active session has state")
    }

    /// The underlying simulated context (for assertions in tests).
    pub fn context(&self) -> &CudaContext {
        &self.ctx
    }

    /// Mutable access to the simulated context — test and benchmark support
    /// (e.g. seeding device buffers). Going around the [`GpuRuntime`]
    /// surface for transfers defeats the interposition.
    pub fn context_mut(&mut self) -> &mut CudaContext {
        &mut self.ctx
    }

    /// The active session's predictor (for pattern inspection in tests and
    /// reports).
    pub fn predictor(&self) -> &crate::predictor::Predictor {
        self.active_state().predictor()
    }

    /// Number of entries currently in the active session's speculation
    /// queue.
    pub fn queue_len(&self) -> usize {
        self.active_state().queue_len()
    }

    /// Closes a tenant session, discarding its channel keys and dropping
    /// its speculation state (queued ciphertext buffers included). The
    /// active session cannot be closed.
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownSession`] as for
    /// [`CudaContext::close_session`].
    pub fn close_session(&mut self, session: SessionId) -> Result<(), GpuError> {
        self.ctx.close_session(session)?;
        if let Some(state) = self.table.remove(session) {
            // Lift the protections the dying session still holds so its
            // cookies can never fault into another session.
            let PipeLlmRuntime { ctx, params, .. } = self;
            let mut state = state;
            for entry in state.queue.relinquish() {
                ctx.pages_mut().unprotect(entry.chunk);
            }
            // Pending KV opens finalize (plaintext stored, revocation
            // lifted): a bare unprotect would silently expose the
            // pre-swap-out bytes to later reads.
            while state.kv_pipeline().pending_len() > 0 {
                state.finalize_decrypt(ctx, params, 0);
            }
            // The departed tenant's counters stay in the aggregate.
            self.retired += state.stats();
        }
        Ok(())
    }

    /// The IV-exhaustion-aware rekey hook: when the active session's
    /// channel is inside the rekey headroom, drop its speculative pipeline
    /// (old-epoch ciphertext can never commit), re-derive its keys at a
    /// fresh epoch — resetting both IV counters — and serve any suspended
    /// requests on demand over the fresh channel. Runs at every
    /// IV-consuming entry point, so the headroom guarantees a session
    /// rekeys long before a seal would fail with
    /// [`pipellm_crypto::CryptoError::IvExhausted`].
    fn maybe_rekey_active(&mut self, now: SimTime) -> Result<(), GpuError> {
        let sid = self.ctx.active_session();
        if self.ctx.session_manager().needs_rekey(sid) != Some(true) {
            return Ok(());
        }
        let orphans = self.with_active(|ctx, state, _cookies, p| state.drop_pipeline(ctx, p));
        // Pending KV opens survive a rekey untouched: each deferred open
        // captured its key material and reserved IV at arrival time, so
        // old-epoch ciphertext still authenticates when it finalizes.
        self.ctx.session_manager_mut().rekey(sid);
        self.with_active(|ctx, state, _cookies, p| {
            state.next_spec_iv = ctx.current_h2d_iv() + p.iv_slack;
            for request in orphans {
                state.serve_on_demand(ctx, p, now, request.dst, request.chunk)?;
            }
            Ok(())
        })
    }

    /// Drains page-fault cookies from the context, routing each to the
    /// session whose entry or pending decryption it belongs to. The fault
    /// queue and cookie namespace are shared; the reactions are
    /// per-session (§5.2, §5.4).
    fn handle_faults(&mut self) {
        let PipeLlmRuntime {
            ctx, table, params, ..
        } = self;
        for cookie in ctx.drain_faults() {
            for (_, state) in table.iter_mut() {
                if state.absorb_fault(ctx, params, cookie) {
                    break;
                }
            }
        }
    }
}

impl GpuRuntime for PipeLlmRuntime {
    fn label(&self) -> &str {
        "PipeLLM"
    }

    fn alloc_host(&mut self, payload: Payload) -> HostRegion {
        self.ctx.host_mut().alloc(payload)
    }

    fn free_host(&mut self, addr: HostAddr) -> Result<(), GpuError> {
        let region = self.ctx.host().get(addr)?.region();
        {
            let PipeLlmRuntime {
                ctx, table, params, ..
            } = self;
            for (_, state) in table.iter_mut() {
                state.on_free_host(ctx, params, region);
            }
            ctx.pages_mut().unprotect(region);
        }
        Ok(self.ctx.host_mut().free(addr)?)
    }

    fn alloc_device(&mut self, len: u64) -> Result<DevicePtr, GpuError> {
        self.ctx.alloc_device(len)
    }

    fn free_device(&mut self, ptr: DevicePtr) -> Result<(), GpuError> {
        self.ctx.free_device(ptr)
    }

    fn memcpy_htod(
        &mut self,
        now: SimTime,
        dst: DevicePtr,
        src: HostRegion,
    ) -> Result<SimTime, GpuError> {
        self.handle_faults();
        self.maybe_rekey_active(now)?;
        if self.classifier.is_swap(src.len) {
            self.with_active(|ctx, state, cookies, p| state.swap_in(ctx, cookies, p, now, dst, src))
        } else {
            // Small control traffic: encrypted on the fly, never predicted
            // (§5.1). It consumes an IV, which the slack absorbs.
            self.with_active(|ctx, state, _cookies, p| {
                let timing = ctx.memcpy_htod_async(now, dst, src)?;
                state.release_suspended(ctx, p, now, false)?;
                Ok(timing.api_return)
            })
        }
    }

    fn memcpy_dtoh(
        &mut self,
        now: SimTime,
        dst: HostRegion,
        src: DevicePtr,
    ) -> Result<SimTime, GpuError> {
        self.handle_faults();
        self.maybe_rekey_active(now)?;
        if self.classifier.is_swap(dst.len) {
            // The DMA store overwrites `dst` for *every* session: any
            // tenant's speculative ciphertext or pending decryption over
            // the region goes stale, not just the active session's.
            let params = self.params;
            for (_, state) in self.table.iter_mut() {
                state.invalidate_for_overwrite(&params, dst);
            }
            self.with_active(|ctx, state, cookies, _p| {
                state.swap_out_group(ctx, cookies, now, &[(dst, src)])
            })
        } else {
            Ok(self.ctx.memcpy_dtoh_async(now, dst, src)?.api_return)
        }
    }

    fn kv_swap_out(
        &mut self,
        now: SimTime,
        blocks: &[(HostRegion, DevicePtr)],
    ) -> Result<SimTime, GpuError> {
        if blocks.is_empty() {
            return Ok(now);
        }
        // Control-sized blocks take the native per-block path; a paged KV
        // group is swap-classified by construction.
        if !blocks
            .iter()
            .all(|(dst, _)| self.classifier.is_swap(dst.len))
        {
            let mut cpu = now;
            for &(dst, src) in blocks {
                cpu = self.memcpy_dtoh(cpu, dst, src)?;
            }
            return Ok(cpu);
        }
        self.handle_faults();
        self.maybe_rekey_active(now)?;
        let params = self.params;
        for &(dst, _) in blocks {
            for (_, state) in self.table.iter_mut() {
                state.invalidate_for_overwrite(&params, dst);
            }
        }
        self.with_active(|ctx, state, cookies, _p| state.swap_out_group(ctx, cookies, now, blocks))
    }

    fn synchronize(&mut self, now: SimTime) -> SimTime {
        self.handle_faults();
        self.maybe_rekey_active(now)
            .expect("rekey headroom keeps on-demand seals inside the IV space");
        self.with_active(|ctx, state, cookies, p| {
            state
                .release_suspended(ctx, p, now, true)
                .expect("suspended flush cannot fail on live chunks");
            state.predictor.end_batch();
            state.pre_decrypt(ctx, p, now);
            state.refill(ctx, cookies, p, now);
        });
        self.ctx.synchronize(now)
    }

    fn launch_compute(&mut self, ready: SimTime, duration: Duration) -> SimTime {
        // Encryption of the next predictions — and pre-decryption of the
        // blocks the predictor expects back — overlap this kernel.
        self.with_active(|ctx, state, cookies, p| {
            state.pre_decrypt(ctx, p, ready);
            state.refill(ctx, cookies, p, ready);
        });
        self.ctx.launch_compute(ready, duration).end
    }

    fn host_touch(&mut self, now: SimTime, addr: HostAddr) -> Result<SimTime, GpuError> {
        let region = self.ctx.host().get(addr)?.region();
        let mut readable_at = now;
        {
            let PipeLlmRuntime {
                ctx, table, params, ..
            } = self;
            for (_, state) in table.iter_mut() {
                if let Some(idx) = state.pending_decrypt_over(region) {
                    // Usage before decryption finished: fault → synchronous
                    // decryption (§5.4).
                    state.stats.decrypt_faults += 1;
                    readable_at = now.max(state.finalize_decrypt(ctx, params, idx));
                    break;
                }
            }
            ctx.host_touch(addr)?;
        }
        self.handle_faults();
        Ok(readable_at)
    }

    fn host_read(&mut self, now: SimTime, region: HostRegion) -> Result<SimTime, GpuError> {
        let mut readable_at = now;
        {
            let PipeLlmRuntime {
                ctx, table, params, ..
            } = self;
            for (_, state) in table.iter_mut() {
                if let Some(idx) = state.pending_decrypt_over(region) {
                    state.stats.decrypt_faults += 1;
                    readable_at = now.max(state.finalize_decrypt(ctx, params, idx));
                    break;
                }
            }
            ctx.host_read(region)?;
        }
        self.handle_faults();
        Ok(readable_at)
    }

    fn device_free_bytes(&self) -> u64 {
        self.ctx.device_memory().free_bytes()
    }

    fn device_capacity(&self) -> u64 {
        self.ctx.device_memory().capacity()
    }

    fn io_stats(&self) -> IoStats {
        self.ctx.stats()
    }

    fn gpu_io_stall(&self) -> Duration {
        self.ctx.gpu_engine().io_stall_time()
    }
}

impl SessionedRuntime for PipeLlmRuntime {
    fn open_session(&mut self) -> SessionId {
        let sid = self.ctx.open_session();
        // A fresh channel starts at IV 1 in both directions.
        self.table
            .ensure(sid, &self.params, 1 + self.params.iv_slack);
        sid
    }

    fn set_session(&mut self, session: SessionId) -> Result<(), GpuError> {
        self.ctx.set_session(session)?;
        let iv = self.ctx.current_h2d_iv() + self.params.iv_slack;
        self.table.ensure(session, &self.params, iv);
        Ok(())
    }

    fn active_session(&self) -> SessionId {
        self.ctx.active_session()
    }

    fn session_ids(&self) -> Vec<SessionId> {
        self.ctx.session_ids()
    }

    fn session_counters(&self, session: SessionId) -> Option<SessionCounters> {
        self.ctx.session_counters(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHUNK: u64 = 256 * 1024; // ≥ the 128 KiB swap threshold

    fn runtime() -> PipeLlmRuntime {
        PipeLlmRuntime::new(PipeLlmConfig {
            device_capacity: 1 << 30,
            ..PipeLlmConfig::default()
        })
    }

    /// Swap-out then swap-in of `count` chunks, LIFO, returning the data
    /// observed on the device after each swap-in.
    fn lifo_episode(rt: &mut PipeLlmRuntime, round: u8, count: usize) -> Vec<Payload> {
        let mut now = SimTime::ZERO;
        // Swap out `count` distinct chunks (device buffers seeded directly,
        // as if produced by GPU computation).
        let mut chunks = Vec::new();
        for i in 0..count {
            let dev = rt.alloc_device(CHUNK).unwrap();
            let data = vec![round * 16 + i as u8; CHUNK as usize];
            rt.context_mut()
                .device_memory_mut()
                .store(dev, Payload::Real(data))
                .unwrap();
            let host = rt.alloc_host(Payload::Real(vec![0u8; CHUNK as usize]));
            now = rt.memcpy_dtoh(now, host, dev).unwrap();
            rt.free_device(dev).unwrap();
            chunks.push(host);
        }
        now = rt.synchronize(now);
        // Swap back in LIFO order.
        let mut seen = Vec::new();
        for host in chunks.iter().rev() {
            let dev = rt.alloc_device(CHUNK).unwrap();
            now = rt.memcpy_htod(now, dev, *host).unwrap();
            now = rt.synchronize(now);
            seen.push(rt.context().device_memory().get(dev).unwrap().clone());
            rt.free_device(dev).unwrap();
        }
        for host in chunks {
            rt.free_host(host.addr).unwrap();
        }
        seen
    }

    #[test]
    fn lifo_swaps_hit_speculation_after_warmup() {
        let mut rt = runtime();
        for round in 0..6 {
            lifo_episode(&mut rt, round, 3);
        }
        let stats = rt.spec_stats();
        assert!(stats.speculated > 0, "{stats}");
        assert!(
            stats.spec_hits + stats.reorders > stats.relinquishes,
            "speculation must dominate after warmup: {stats}"
        );
        assert!(stats.success_rate() > 0.5, "{stats}");
    }

    #[test]
    fn device_receives_correct_plaintext_under_speculation() {
        let mut rt = runtime();
        for round in 0..4u8 {
            let seen = lifo_episode(&mut rt, round, 3);
            // LIFO reload: chunk 2, 1, 0 of this round.
            assert_eq!(
                seen,
                vec![
                    Payload::Real(vec![round * 16 + 2; CHUNK as usize]),
                    Payload::Real(vec![round * 16 + 1; CHUNK as usize]),
                    Payload::Real(vec![round * 16; CHUNK as usize]),
                ],
                "round {round}"
            );
        }
    }

    #[test]
    fn repetitive_offload_pattern_hits() {
        let mut rt = runtime();
        // Three persistent "layers" streamed in repeatedly (FlexGen-style:
        // swap-ins without matching swap-outs of the same identity).
        let layers: Vec<HostRegion> = (0..3)
            .map(|i| rt.alloc_host(Payload::Real(vec![i as u8; CHUNK as usize])))
            .collect();
        let mut now = SimTime::ZERO;
        for _pass in 0..8 {
            for layer in &layers {
                let dev = rt.alloc_device(CHUNK).unwrap();
                now = rt.memcpy_htod(now, dev, *layer).unwrap();
                now = rt.synchronize(now);
                now = rt.launch_compute(now, Duration::from_micros(200));
                rt.free_device(dev).unwrap();
            }
        }
        let stats = rt.spec_stats();
        assert!(
            stats.spec_hits >= 12,
            "repetitive pattern should hit: {stats}"
        );
        assert_eq!(
            rt.predictor().pattern(),
            crate::predictor::Pattern::Repetitive
        );
    }

    #[test]
    fn write_invalidation_forces_fresh_ciphertext() {
        let mut rt = runtime();
        // Warm the repetitive pattern.
        let layers: Vec<HostRegion> = (0..2)
            .map(|i| rt.alloc_host(Payload::Real(vec![i as u8; CHUNK as usize])))
            .collect();
        let mut now = SimTime::ZERO;
        for _ in 0..4 {
            for layer in &layers {
                let dev = rt.alloc_device(CHUNK).unwrap();
                now = rt.memcpy_htod(now, dev, *layer).unwrap();
                now = rt.synchronize(now);
                rt.free_device(dev).unwrap();
            }
        }
        // Mutate layer 0's plaintext while it is (likely) pre-encrypted.
        now = rt.host_touch(now, layers[0].addr).unwrap();
        let dev = rt.alloc_device(CHUNK).unwrap();
        now = rt.memcpy_htod(now, dev, layers[0]).unwrap();
        rt.synchronize(now);
        // The device must observe the *mutated* bytes (first byte flipped).
        let on_device = rt.context().device_memory().get(dev).unwrap();
        let Payload::Real(bytes) = on_device else {
            panic!("real payload expected")
        };
        assert_eq!(bytes[0], 0xff, "mutated plaintext must be re-encrypted");
        let stats = rt.spec_stats();
        assert!(stats.write_invalidations >= 1, "{stats}");
    }

    #[test]
    fn wrong_order_mode_recovers_with_nops() {
        let mut rt = PipeLlmRuntime::new(PipeLlmConfig {
            device_capacity: 1 << 30,
            failure_mode: SpecFailureMode::WrongOrder,
            ..PipeLlmConfig::default()
        });
        for round in 0..6u8 {
            let seen = lifo_episode(&mut rt, round, 3);
            assert_eq!(seen.len(), 3);
            // Data still correct despite the adversarial order.
            assert_eq!(seen[0], Payload::Real(vec![round * 16 + 2; CHUNK as usize]));
        }
        let stats = rt.spec_stats();
        let io = rt.io_stats();
        assert!(
            stats.nop_recoveries + stats.relinquishes > 0,
            "wrong order must trigger recovery: {stats}"
        );
        assert!(stats.spec_hits <= stats.nop_recoveries + stats.relinquishes + stats.reorders);
        assert!(io.nops > 0, "NOP padding must be used");
        assert!(stats.success_rate() < 0.5, "{stats}");
    }

    #[test]
    fn disabled_mode_never_speculates() {
        let mut rt = PipeLlmRuntime::new(PipeLlmConfig {
            device_capacity: 1 << 30,
            failure_mode: SpecFailureMode::Disabled,
            ..PipeLlmConfig::default()
        });
        for round in 0..3 {
            lifo_episode(&mut rt, round, 2);
        }
        let stats = rt.spec_stats();
        assert_eq!(stats.speculated, 0);
        assert_eq!(stats.spec_hits, 0);
        assert_eq!(
            (stats.on_demand, stats.relinquishes),
            (6, 0),
            "all swaps served on demand, none blamed on a pipeline: {stats}"
        );
        // Async decryption still active.
        assert!(stats.async_decrypts > 0);
    }

    #[test]
    fn staging_buffers_are_pooled_and_reused() {
        let mut rt = runtime();
        for round in 0..4 {
            lifo_episode(&mut rt, round, 3);
        }
        let state = rt.active_state();
        assert!(
            !state.buf_pool.is_empty(),
            "disposed speculation entries must return their buffers"
        );
        assert!(
            state.buf_pool.len() <= rt.params.spec_depth + 2,
            "pool is bounded"
        );
        let max_cap = state.buf_pool.iter().map(Vec::capacity).max().unwrap();
        assert!(
            max_cap >= CHUNK as usize,
            "pooled buffers retain chunk-sized capacity ({max_cap})"
        );
        assert!(
            max_cap < 2 * CHUNK as usize,
            "recycled buffers must be reused, not doubled by stale-length reserves ({max_cap})"
        );
    }

    #[test]
    fn pool_accounting_balances_even_through_invalidations() {
        let mut rt = runtime();
        // Warm up, then invalidate pre-encrypted entries by touching their
        // plaintext, and let pruning dispose of them.
        let layers: Vec<HostRegion> = (0..3)
            .map(|i| rt.alloc_host(Payload::Real(vec![i as u8; CHUNK as usize])))
            .collect();
        let mut now = SimTime::ZERO;
        for pass in 0..6 {
            for layer in &layers {
                let dev = rt.alloc_device(CHUNK).unwrap();
                now = rt.memcpy_htod(now, dev, *layer).unwrap();
                now = rt.synchronize(now);
                rt.free_device(dev).unwrap();
            }
            if pass % 2 == 1 {
                // Stale one layer's queued ciphertext.
                now = rt.host_touch(now, layers[0].addr).unwrap();
            }
        }
        let stats = rt.spec_stats();
        assert!(stats.write_invalidations > 0, "{stats}");
        let (leased, returned) = rt.active_state().pool_counters();
        let live = rt.queue_len() as u64;
        assert_eq!(
            leased,
            returned + live,
            "every leased staging buffer must be returned or live in the \
             queue (leased={leased} returned={returned} queued={live})"
        );
    }

    #[test]
    fn small_transfers_bypass_the_pipeline() {
        let mut rt = runtime();
        let small = rt.alloc_host(Payload::Real(vec![1u8; 512]));
        let dev = rt.alloc_device(512).unwrap();
        rt.memcpy_htod(SimTime::ZERO, dev, small).unwrap();
        rt.synchronize(SimTime::ZERO);
        let stats = rt.spec_stats();
        assert_eq!(stats.speculated, 0);
        assert_eq!(stats.spec_hits, 0);
        assert_eq!(rt.io_stats().h2d_ops, 1);
    }

    #[test]
    fn async_decrypt_returns_before_plaintext_lands() {
        let mut rt = runtime();
        let dev = rt.alloc_device(CHUNK).unwrap();
        let host = rt.alloc_host(Payload::Real(vec![0u8; CHUNK as usize]));
        rt.context_mut()
            .device_memory_mut()
            .store(dev, Payload::Real(vec![9u8; CHUNK as usize]))
            .unwrap();
        let now = SimTime::ZERO;
        let api = rt.memcpy_dtoh(now, host, dev).unwrap();
        assert_eq!(api, now, "swap-out returns immediately (async decryption)");
        assert_eq!(rt.spec_stats().async_decrypts, 1);
        // Touching the data before decryption completes faults and waits.
        let readable = rt.host_touch(now, host.addr).unwrap();
        assert!(readable >= now);
        assert_eq!(rt.spec_stats().decrypt_faults, 1);
        // After the forced decrypt the plaintext is visible (then touched).
        let payload = rt.context().host().get(host.addr).unwrap().payload();
        let Payload::Real(bytes) = payload else {
            panic!("real payload")
        };
        assert_eq!(bytes[0], 9 ^ 0xff, "decrypted then touched");
        assert_eq!(&bytes[1..], &vec![9u8; CHUNK as usize - 1][..]);
    }

    #[test]
    fn swapped_out_chunks_are_ciphertext_until_opened() {
        let mut rt = runtime();
        let dev = rt.alloc_device(CHUNK).unwrap();
        let data = vec![0x5au8; CHUNK as usize];
        rt.context_mut()
            .device_memory_mut()
            .store(dev, Payload::Real(data.clone()))
            .unwrap();
        let host = rt.alloc_host(Payload::Real(vec![0u8; CHUNK as usize]));
        let now = rt.memcpy_dtoh(SimTime::ZERO, host, dev).unwrap();
        // At rest the authoritative bytes are genuine AES-GCM ciphertext:
        // chunk-length ciphertext plus the 16-byte tag, nothing like the
        // plaintext.
        let ct = rt
            .active_state()
            .kv_pipeline()
            .ciphertext_of(host)
            .expect("pending open holds the sealed block");
        assert_eq!(ct.len(), CHUNK as usize + 16);
        assert_ne!(&ct[..CHUNK as usize], data.as_slice());
        // The destination region still shows the stale pre-swap bytes
        // (and is access-revoked until the open lands).
        assert_eq!(
            rt.context().host().get(host.addr).unwrap().payload(),
            &Payload::Real(vec![0u8; CHUNK as usize])
        );
        // A read faults, forces the synchronous open, and then sees the
        // swapped-out data bit-exact.
        let readable = rt.host_read(now, host).unwrap();
        assert!(readable >= now);
        assert_eq!(rt.spec_stats().decrypt_faults, 1);
        assert_eq!(rt.active_state().kv_pipeline().pending_len(), 0);
        assert_eq!(
            rt.context().host().get(host.addr).unwrap().payload(),
            &Payload::Real(data)
        );
    }

    #[test]
    fn predictor_gated_pre_decryption_dominates_on_lifo() {
        let mut rt = runtime();
        for round in 0..5 {
            lifo_episode(&mut rt, round, 3);
        }
        let stats = rt.spec_stats();
        assert!(stats.async_decrypts >= 15, "{stats}");
        assert!(
            stats.pre_decrypts > 0,
            "LIFO reloads must be pre-decrypted: {stats}"
        );
        assert!(
            stats.pre_decrypt_rate() > 0.5,
            "pre-decryption must dominate after warmup: {stats}"
        );
    }

    #[test]
    fn kv_group_swap_out_seals_blocks_under_one_group() {
        let mut rt = runtime();
        let mut pairs = Vec::new();
        let mut want = Vec::new();
        for i in 0..3u8 {
            let dev = rt.alloc_device(CHUNK).unwrap();
            let data = vec![0x70 + i; CHUNK as usize];
            rt.context_mut()
                .device_memory_mut()
                .store(dev, Payload::Real(data.clone()))
                .unwrap();
            let host = rt.alloc_host(Payload::Real(vec![0u8; CHUNK as usize]));
            pairs.push((host, dev));
            want.push((host, data));
        }
        let now = rt.kv_swap_out(SimTime::ZERO, &pairs).unwrap();
        assert_eq!(now, SimTime::ZERO, "group swap-out returns immediately");
        assert_eq!(rt.active_state().kv_pipeline().pending_len(), 3);
        assert_eq!(rt.spec_stats().async_decrypts, 3);
        // Every block recovers bit-exact through the fault path.
        for (host, data) in want {
            rt.host_read(now, host).unwrap();
            assert_eq!(
                rt.context().host().get(host.addr).unwrap().payload(),
                &Payload::Real(data)
            );
        }
        let counters = rt.session_counters(rt.active_session()).unwrap();
        assert!(counters.in_lockstep(), "{counters:?}");
    }

    #[test]
    fn reorder_within_batch_avoids_relinquish() {
        let mut rt = runtime();
        // Warm up a 3-chunk LIFO pattern.
        for round in 0..4 {
            lifo_episode(&mut rt, round, 3);
        }
        // Next episode: swap out a, b, c (spec queue will predict c, b, a)
        // but request b first, then c, then a — b suspends, c commits (IV
        // match), which releases b as a re-order.
        let mut now = SimTime::ZERO;
        let mut chunks = Vec::new();
        for i in 0..3u8 {
            let dev = rt.alloc_device(CHUNK).unwrap();
            let data = vec![100 + i; CHUNK as usize];
            rt.context_mut()
                .device_memory_mut()
                .store(dev, Payload::Real(data))
                .unwrap();
            let host = rt.alloc_host(Payload::Real(vec![0u8; CHUNK as usize]));
            now = rt.memcpy_dtoh(now, host, dev).unwrap();
            rt.free_device(dev).unwrap();
            chunks.push(host);
        }
        now = rt.synchronize(now);
        let before = rt.spec_stats();
        let mut devices = Vec::new();
        for &idx in &[1usize, 2, 0] {
            let dev = rt.alloc_device(CHUNK).unwrap();
            now = rt.memcpy_htod(now, dev, chunks[idx]).unwrap();
            devices.push(dev);
        }
        rt.synchronize(now);
        for dev in devices {
            rt.free_device(dev).unwrap();
        }
        let after = rt.spec_stats();
        assert!(
            after.reorders > before.reorders || after.nop_recoveries > before.nop_recoveries,
            "out-of-order batch handled without full relinquish: {after}"
        );
    }

    #[test]
    fn stats_and_label_surface_through_the_trait() {
        let mut rt = runtime();
        assert_eq!(rt.label(), "PipeLLM");
        lifo_episode(&mut rt, 0, 2);
        let io = rt.io_stats();
        assert!(io.h2d_ops >= 2);
        assert!(io.d2h_ops >= 2);
    }

    #[test]
    fn freeing_a_chunk_invalidates_its_entries() {
        let mut rt = runtime();
        for round in 0..4 {
            lifo_episode(&mut rt, round, 2);
        }
        // Leave chunks outstanding so they get speculated.
        let mut now = SimTime::ZERO;
        let mut chunks = Vec::new();
        for i in 0..2u8 {
            let dev = rt.alloc_device(CHUNK).unwrap();
            let data = vec![200 + i; CHUNK as usize];
            rt.context_mut()
                .device_memory_mut()
                .store(dev, Payload::Real(data))
                .unwrap();
            let host = rt.alloc_host(Payload::Real(vec![0u8; CHUNK as usize]));
            now = rt.memcpy_dtoh(now, host, dev).unwrap();
            rt.free_device(dev).unwrap();
            chunks.push(host);
        }
        now = rt.synchronize(now);
        let queued = rt.queue_len();
        rt.free_host(chunks[1].addr).unwrap();
        // Requesting the freed chunk is an application bug; requesting the
        // other one still works.
        let dev = rt.alloc_device(CHUNK).unwrap();
        now = rt.memcpy_htod(now, dev, chunks[0]).unwrap();
        rt.synchronize(now);
        assert!(queued > 0, "entries were queued before the free");
        assert_eq!(
            rt.context().device_memory().get(dev).unwrap(),
            &Payload::Real(vec![200; CHUNK as usize])
        );
    }

    #[test]
    fn iv_slack_absorbs_interleaved_small_io() {
        let mut rt = PipeLlmRuntime::new(PipeLlmConfig {
            device_capacity: 1 << 30,
            iv_slack: 2,
            ..PipeLlmConfig::default()
        });
        // Warm up.
        for round in 0..4 {
            lifo_episode(&mut rt, round, 2);
        }
        // Swap out two chunks, then interleave small I/O before reloading.
        let mut now = SimTime::ZERO;
        let mut chunks = Vec::new();
        for i in 0..2u8 {
            let dev = rt.alloc_device(CHUNK).unwrap();
            let data = vec![50 + i; CHUNK as usize];
            rt.context_mut()
                .device_memory_mut()
                .store(dev, Payload::Real(data))
                .unwrap();
            let host = rt.alloc_host(Payload::Real(vec![0u8; CHUNK as usize]));
            now = rt.memcpy_dtoh(now, host, dev).unwrap();
            rt.free_device(dev).unwrap();
            chunks.push(host);
        }
        now = rt.synchronize(now);
        let relinquishes_before = rt.spec_stats().relinquishes;
        // Two small token transfers consume IVs inside the slack.
        for _ in 0..2 {
            let tok = rt.alloc_host(Payload::Real(vec![3u8; 64]));
            let dev = rt.alloc_device(64).unwrap();
            now = rt.memcpy_htod(now, dev, tok).unwrap();
            rt.free_device(dev).unwrap();
        }
        for host in chunks.iter().rev() {
            let dev = rt.alloc_device(CHUNK).unwrap();
            now = rt.memcpy_htod(now, dev, *host).unwrap();
            rt.free_device(dev).unwrap();
        }
        rt.synchronize(now);
        let stats = rt.spec_stats();
        assert_eq!(
            stats.relinquishes, relinquishes_before,
            "slack must absorb the small I/O without relinquish: {stats}"
        );
    }

    #[test]
    fn sessions_speculate_independently_and_stay_in_lockstep() {
        let mut rt = runtime();
        let a = rt.active_session();
        let b = rt.open_session();
        // Tenant A learns a LIFO pattern; tenant B a repetitive one —
        // interleaved over the same runtime.
        let b_layers: Vec<HostRegion> = {
            rt.set_session(b).unwrap();
            (0..2)
                .map(|i| rt.alloc_host(Payload::Real(vec![0xb0 + i as u8; CHUNK as usize])))
                .collect()
        };
        for round in 0..5u8 {
            rt.set_session(a).unwrap();
            let seen = lifo_episode(&mut rt, round, 2);
            assert_eq!(seen.len(), 2, "tenant A round {round}");
            rt.set_session(b).unwrap();
            let mut now = SimTime::ZERO;
            for layer in &b_layers {
                let dev = rt.alloc_device(CHUNK).unwrap();
                now = rt.memcpy_htod(now, dev, *layer).unwrap();
                now = rt.synchronize(now);
                rt.free_device(dev).unwrap();
            }
        }
        let sa = rt.session_spec_stats(a).unwrap();
        let sb = rt.session_spec_stats(b).unwrap();
        assert!(sa.spec_hits > 0, "tenant A must hit: {sa}");
        assert!(sb.spec_hits > 0, "tenant B must hit: {sb}");
        assert!(sa.async_decrypts > 0 && sb.async_decrypts == 0);
        // Aggregate view sums the tenants.
        let total = rt.spec_stats();
        assert_eq!(total.spec_hits, sa.spec_hits + sb.spec_hits);
        // Both channels end with endpoints in lockstep.
        for sid in [a, b] {
            let counters = rt.session_counters(sid).unwrap();
            assert!(counters.in_lockstep(), "{sid}: {counters:?}");
        }
        // And their IV streams are truly independent: only tenant A swaps
        // out, so only A's D2H counter moved off its initial value.
        assert!(rt.session_counters(a).unwrap().d2h_tx > 1);
        assert_eq!(rt.session_counters(b).unwrap().d2h_tx, 1);
    }

    #[test]
    fn near_exhausted_session_rekeys_transparently() {
        use pipellm_crypto::channel::IV_LIMIT;
        let mut rt = runtime();
        // Open a session whose H2D counter sits inside the rekey headroom.
        let sid = rt
            .context_mut()
            .session_manager_mut()
            .open_with_initial_ivs(IV_LIMIT - 8, 1);
        rt.set_session(sid).unwrap();
        assert_eq!(rt.context().session_manager().epoch(sid), Some(0));
        let seen = lifo_episode(&mut rt, 1, 2);
        assert_eq!(seen.len(), 2, "traffic flows across the rekey");
        // The runtime rekeyed before any seal could exhaust: fresh epoch,
        // counters restarted, endpoints still in lockstep.
        assert_eq!(rt.context().session_manager().epoch(sid), Some(1));
        let counters = rt.session_counters(sid).unwrap();
        assert!(counters.in_lockstep(), "{counters:?}");
        assert!(counters.h2d_tx < 100, "counters restarted: {counters:?}");
    }

    #[test]
    fn corrupted_kv_block_lands_as_sentinel_without_panic() {
        use pipellm_chaos::{ChaosInjector, FaultPlan};
        use pipellm_crypto::channel::SENTINEL_BYTE;
        // Every swap-out frame's at-rest ciphertext is damaged.
        let mut rt = PipeLlmRuntime::new(PipeLlmConfig {
            device_capacity: 1 << 30,
            chaos: Some(std::sync::Arc::new(ChaosInjector::new(
                FaultPlan::new(21).with_frame_rate(1.0),
            ))),
            ..PipeLlmConfig::default()
        });
        let dev = rt.alloc_device(CHUNK).unwrap();
        let secret = vec![0xABu8; CHUNK as usize];
        rt.context_mut()
            .device_memory_mut()
            .store(dev, Payload::Real(secret.clone()))
            .unwrap();
        let host = rt.alloc_host(Payload::Real(vec![0u8; CHUNK as usize]));
        let now = rt.memcpy_dtoh(SimTime::ZERO, host, dev).unwrap();
        assert_eq!(rt.active_state().kv_pipeline().pending_len(), 1);
        // Reading forces the finalize; the damaged block must land as a
        // sentinel payload, not a panic and not the secret.
        rt.host_read(now, host).unwrap();
        let payload = rt.context().host().get(host.addr).unwrap().payload();
        let Payload::Real(bytes) = payload else {
            panic!("real payload expected")
        };
        assert_eq!(bytes.len(), CHUNK as usize, "region length preserved");
        assert!(
            bytes.iter().all(|&b| b == SENTINEL_BYTE),
            "poisoned block must be all sentinel bytes"
        );
        let stats = rt.spec_stats();
        assert_eq!(stats.kv_sentinels, 1, "{stats}");
        assert_eq!(rt.active_state().kv_pipeline().pending_len(), 0);
        let counters = rt.session_counters(rt.active_session()).unwrap();
        assert!(counters.in_lockstep(), "{counters:?}");
        // Pool accounting still balances: the sentinel path recycles like
        // the happy path.
        let (leased, returned) = rt.active_state().pool_counters();
        assert_eq!(leased, returned + rt.queue_len() as u64);
    }

    #[test]
    fn rekey_racing_swap_in_finalizes_old_epoch_opens() {
        use pipellm_crypto::channel::{IV_HEADROOM, IV_LIMIT};
        let mut rt = runtime();
        // A session whose D2H stream sits just *outside* the rekey
        // headroom: the first swap-out seals at epoch 0, and the swaps
        // after it push the counter into the headroom so a later entry
        // point rekeys while the deferred open is still pending.
        let sid = rt
            .context_mut()
            .session_manager_mut()
            .open_with_initial_ivs(1, IV_LIMIT - IV_HEADROOM - 1);
        rt.set_session(sid).unwrap();
        let dev = rt.alloc_device(CHUNK).unwrap();
        let secret = vec![0xC3u8; CHUNK as usize];
        rt.context_mut()
            .device_memory_mut()
            .store(dev, Payload::Real(secret.clone()))
            .unwrap();
        let host = rt.alloc_host(Payload::Real(vec![0u8; CHUNK as usize]));
        let mut now = rt.memcpy_dtoh(SimTime::ZERO, host, dev).unwrap();
        let epoch_at_seal = rt.context().session_manager().epoch(sid).unwrap();
        assert_eq!(rt.active_state().kv_pipeline().pending_len(), 1);
        // ...then force the rekey to race the pending open: drive the D2H
        // counter into the headroom with more swap-outs until the epoch
        // moves past the seal-time epoch.
        let filler_dev = rt.alloc_device(CHUNK).unwrap();
        rt.context_mut()
            .device_memory_mut()
            .store(filler_dev, Payload::Real(vec![1u8; CHUNK as usize]))
            .unwrap();
        let filler_host = rt.alloc_host(Payload::Real(vec![0u8; CHUNK as usize]));
        let mut guard = 0;
        while rt.context().session_manager().epoch(sid).unwrap() <= epoch_at_seal {
            now = rt.memcpy_dtoh(now, filler_host, filler_dev).unwrap();
            now = rt.host_read(now, filler_host).unwrap();
            guard += 1;
            assert!(guard < 32, "rekey must fire within the headroom");
        }
        let epoch_now = rt.context().session_manager().epoch(sid).unwrap();
        assert!(epoch_now > epoch_at_seal, "epoch advanced under the race");
        // The old-epoch deferred open still pending? It must finalize
        // bit-exact: it captured its key material and reserved IV when the
        // frame arrived, before the rekey.
        if rt
            .active_state()
            .kv_pipeline()
            .ciphertext_of(host)
            .is_some()
        {
            rt.host_read(now, host).unwrap();
        }
        assert_eq!(
            rt.context().host().get(host.addr).unwrap().payload(),
            &Payload::Real(secret),
            "old-epoch ciphertext authenticates after the rekey"
        );
        assert_eq!(rt.spec_stats().kv_sentinels, 0);
        let counters = rt.session_counters(sid).unwrap();
        assert!(counters.in_lockstep(), "{counters:?}");
    }

    #[test]
    fn faulted_block_in_rekey_race_never_leaks_stale_plaintext() {
        use pipellm_chaos::{ChaosInjector, FaultKind, FaultPlan};
        use pipellm_crypto::channel::{IV_HEADROOM, IV_LIMIT};
        // Only swap-out frames fault (corrupt kind), and always.
        let chaos = std::sync::Arc::new(ChaosInjector::new(
            FaultPlan::new(5).with_rate(FaultKind::CorruptFrame, 1.0),
        ));
        let mut rt = PipeLlmRuntime::new(PipeLlmConfig {
            device_capacity: 1 << 30,
            chaos: Some(std::sync::Arc::clone(&chaos)),
            ..PipeLlmConfig::default()
        });
        let sid = rt
            .context_mut()
            .session_manager_mut()
            .open_with_initial_ivs(1, IV_LIMIT - IV_HEADROOM - 1);
        rt.set_session(sid).unwrap();
        let dev = rt.alloc_device(CHUNK).unwrap();
        let secret = vec![0x77u8; CHUNK as usize];
        rt.context_mut()
            .device_memory_mut()
            .store(dev, Payload::Real(secret.clone()))
            .unwrap();
        let host = rt.alloc_host(Payload::Real(vec![0u8; CHUNK as usize]));
        let epoch_before = rt.context().session_manager().epoch(sid).unwrap();
        // The faulted frame seals (and is damaged) at epoch 0.
        let mut now = rt.memcpy_dtoh(SimTime::ZERO, host, dev).unwrap();
        // Drive the session into the rekey headroom with clean filler
        // swaps (injector suppressed: the fault under test is the one
        // already at rest) until the epoch bumps under the pending open.
        {
            let _quiet = chaos.suppress();
            let filler_dev = rt.alloc_device(CHUNK).unwrap();
            rt.context_mut()
                .device_memory_mut()
                .store(filler_dev, Payload::Real(vec![2u8; CHUNK as usize]))
                .unwrap();
            let filler_host = rt.alloc_host(Payload::Real(vec![0u8; CHUNK as usize]));
            let mut guard = 0;
            while rt.context().session_manager().epoch(sid).unwrap() <= epoch_before {
                now = rt.memcpy_dtoh(now, filler_host, filler_dev).unwrap();
                now = rt.host_read(now, filler_host).unwrap();
                guard += 1;
                assert!(guard < 32, "rekey must fire within the headroom");
            }
        }
        // Finalize after the rekey: the faulted block must never land the
        // stale-epoch plaintext.
        rt.host_read(now, host).unwrap();
        let payload = rt.context().host().get(host.addr).unwrap().payload();
        let Payload::Real(bytes) = payload else {
            panic!("real payload expected")
        };
        assert_ne!(bytes.as_slice(), secret.as_slice(), "plaintext leaked");
        assert!(
            !bytes.windows(8).any(|w| w == [0x77u8; 8]),
            "no stale-epoch plaintext window may escape"
        );
        assert_eq!(rt.spec_stats().kv_sentinels, 1);
        let counters = rt.session_counters(sid).unwrap();
        assert!(counters.in_lockstep(), "{counters:?}");
    }

    #[test]
    fn aggregate_stats_survive_session_close() {
        let mut rt = runtime();
        let a = rt.active_session();
        let b = rt.open_session();
        rt.set_session(b).unwrap();
        for round in 0..4 {
            lifo_episode(&mut rt, round, 2);
        }
        rt.set_session(a).unwrap();
        let before = rt.spec_stats();
        assert!(before.spec_hits > 0);
        rt.close_session(b).unwrap();
        assert_eq!(
            rt.spec_stats(),
            before,
            "closing a tenant must not subtract its history"
        );
    }

    #[test]
    fn closing_a_session_releases_its_protections() {
        let mut rt = runtime();
        let a = rt.active_session();
        let b = rt.open_session();
        rt.set_session(b).unwrap();
        for round in 0..3 {
            lifo_episode(&mut rt, round, 2);
        }
        // Leave speculative entries queued for B, then close it.
        let host = rt.alloc_host(Payload::Real(vec![7u8; CHUNK as usize]));
        let dev = rt.alloc_device(CHUNK).unwrap();
        let now = rt.memcpy_htod(SimTime::ZERO, dev, host).unwrap();
        let now = rt.synchronize(now);
        // Also leave a decryption pending: swap new device data out to B.
        rt.context_mut()
            .device_memory_mut()
            .store(dev, Payload::Real(vec![0xaa; CHUNK as usize]))
            .unwrap();
        let back = rt.alloc_host(Payload::Real(vec![0u8; CHUNK as usize]));
        rt.memcpy_dtoh(now, back, dev).unwrap();
        rt.set_session(a).unwrap();
        rt.close_session(b).unwrap();
        // The pending decryption was finalized, not dropped: the swapped-
        // out plaintext is visible and no revocation lingers.
        assert_eq!(
            rt.context().host().get(back.addr).unwrap().payload(),
            &Payload::Real(vec![0xaa; CHUNK as usize]),
            "closing a session must land its pending decrypts"
        );
        assert!(rt.session_spec_stats(b).is_none());
        assert!(rt.session_counters(b).is_none());
        // The closed session cannot be re-activated.
        assert!(rt.set_session(b).is_err());
        // A's traffic proceeds undisturbed.
        lifo_episode(&mut rt, 9, 2);
    }
}
