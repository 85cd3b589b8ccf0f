//! Per-session speculation state: the multi-tenant half of the PipeLLM
//! runtime.
//!
//! One [`crate::runtime::PipeLlmRuntime`] now serves many tenant sessions
//! over one set of shared resources — the CPU crypto
//! [`pipellm_sim::resource::WorkerPool`], the PCIe link, and the device
//! allocator all live in the shared [`CudaContext`]. Everything whose
//! correctness is tied to *one* channel's IV stream is private to the
//! session and lives in a [`SessionState`]:
//!
//! - the [`Predictor`] (tenant A's swap pattern says nothing about B's),
//!   and with it the shadow accuracy that gates how deep the session
//!   speculates — an unpredictable tenant stops sealing ahead, its
//!   predictable neighbour does not;
//! - the [`SpeculationQueue`] and its suspended requests (IVs are
//!   per-channel, so speculative ciphertext is per-session);
//! - pending asynchronous decryptions and their page revocations;
//! - the ciphertext staging-buffer pool and its lease/return accounting;
//! - the [`PipeLlmStats`] counters.
//!
//! The [`SessionTable`] owns all session states plus the *global* page-
//! fault cookie namespace: the MPK registry in the context is shared, so
//! two sessions must never protect pages under the same cookie.
//!
//! Because sessions share the crypto workers and the link, speculation for
//! tenant A genuinely races on-demand encryption for tenant B, exactly as
//! on real hardware — the contention the tenant-scaling experiment in
//! `pipellm-bench` measures.

use crate::kvswap::KvSwapPipeline;
use crate::pipeline::{SpecEntry, SpeculationQueue};
use crate::predictor::Predictor;
use crate::runtime::SpecFailureMode;
use crate::stats::PipeLlmStats;
use pipellm_crypto::session::SessionId;
use pipellm_gpu::context::{CudaContext, GpuError};
use pipellm_gpu::memory::{DevicePtr, HostAddr, HostRegion};
use pipellm_gpu::pages::Protection;
use pipellm_sim::time::SimTime;

/// Consecutive unpredicted swap-ins after which a session's whole pipeline
/// is relinquished instead of recovering entry by entry.
const MISS_RELINQUISH_THRESHOLD: u32 = 3;

/// Swap-ins the speculation gate looks back over: the window of
/// [`Predictor::shadow_hits`] that [`SessionState::effective_depth`] reads.
pub const SHADOW_WINDOW: u32 = 16;

/// Break-even shadow accuracy, in hits per [`SHADOW_WINDOW`]: at or above
/// it the queue is topped up to `spec_depth`, below it nothing is sealed
/// ahead. A wrong guess costs a wasted seal, NOP padding and a re-seal on
/// the same crypto workers the on-demand path needs; a right one saves one
/// on-demand seal. On the simulated clock full depth starts to win at an
/// accuracy of 0.93 with no compute between swaps, 0.75 with 100 µs per
/// 1 MiB swap, and always once compute hides every seal (README,
/// "Speculation policy"); at 0.75 it is also never slower than native CC.
const SHADOW_BREAK_EVEN: u32 = 12;

/// Shared knobs of the speculation pipeline (identical for every session).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpecParams {
    /// Maximum pre-encrypted chunks in flight per session.
    pub spec_depth: usize,
    /// IV headroom reserved ahead of each entry for interleaved small I/O.
    pub iv_slack: u64,
    /// Prediction behaviour (ablations).
    pub failure_mode: SpecFailureMode,
    /// Crypto worker threads (gang width for on-demand seals).
    pub crypto_threads: usize,
    /// Swap-in history window for new sessions' predictors.
    pub history_capacity: usize,
    /// N-gram context depth for new sessions' predictors.
    pub context_depth: usize,
}

/// Globally unique page-protection cookies: the page registry and its
/// fault queue are shared by all sessions, so the namespace must be too.
#[derive(Debug, Default)]
pub(crate) struct CookieCounter {
    next: u64,
}

impl CookieCounter {
    /// Allocates a fresh cookie (never zero).
    pub fn next(&mut self) -> u64 {
        self.next += 1;
        self.next
    }
}

/// A swap-in request suspended because its pre-encrypted IV is ahead of
/// the session's channel counter (Figure 6).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Suspended {
    pub dst: DevicePtr,
    pub chunk: HostRegion,
    pub iv: u64,
}

/// Everything the speculation machinery keeps per tenant session.
#[derive(Debug)]
pub struct SessionState {
    pub(crate) predictor: Predictor,
    pub(crate) queue: SpeculationQueue,
    pub(crate) suspended: Vec<Suspended>,
    /// The session's encrypted paged KV-cache swap-out pipeline: blocks
    /// sealed by the device whose host-side decryption is deferred.
    pub(crate) kv: KvSwapPipeline,
    pub(crate) stats: PipeLlmStats,
    /// Next IV to assign to a speculative seal; strictly increasing
    /// between relinquishes so queue IVs stay contiguous.
    pub(crate) next_spec_iv: u64,
    /// Swap-ins in a row that found no usable entry.
    pub(crate) consecutive_misses: u32,
    /// Recycled ciphertext staging buffers for this session's seals.
    pub(crate) buf_pool: Vec<Vec<u8>>,
    /// Staging buffers handed out to live seals (pool accounting).
    pub(crate) pool_leased: u64,
    /// Staging buffers disposed back (recycled or dropped when the pool is
    /// full). `pool_leased - pool_returned` must always equal the number
    /// of queue entries holding ciphertext — the no-leak invariant.
    pub(crate) pool_returned: u64,
}

impl SessionState {
    /// Fresh state for a session whose H2D counter sits at
    /// `initial_spec_iv - iv_slack`.
    pub(crate) fn new(p: &SpecParams, initial_spec_iv: u64) -> Self {
        SessionState {
            predictor: Predictor::new(p.history_capacity).with_context_depth(p.context_depth),
            queue: SpeculationQueue::new(),
            suspended: Vec::new(),
            kv: KvSwapPipeline::new(),
            stats: PipeLlmStats::default(),
            next_spec_iv: initial_spec_iv,
            consecutive_misses: 0,
            buf_pool: Vec::new(),
            pool_leased: 0,
            pool_returned: 0,
        }
    }

    /// Speculation statistics of this session.
    pub fn stats(&self) -> PipeLlmStats {
        self.stats
    }

    /// This session's predictor.
    pub fn predictor(&self) -> &Predictor {
        &self.predictor
    }

    /// Entries currently in this session's speculation queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// `(leased, returned)` staging-buffer pool counters. The difference
    /// is the number of live sealed buffers (the queue entries).
    pub fn pool_counters(&self) -> (u64, u64) {
        (self.pool_leased, self.pool_returned)
    }

    // -----------------------------------------------------------------
    // Staging-buffer pool
    // -----------------------------------------------------------------

    /// Draws a staging buffer from the pool (empty `Vec` if none pooled).
    fn pooled_buf(&mut self) -> Vec<u8> {
        self.pool_leased += 1;
        self.buf_pool.pop().unwrap_or_default()
    }

    /// Disposes a staging buffer: recycled into the pool, bounded by the
    /// speculation depth plus headroom for the on-demand path.
    fn recycle_buf(&mut self, p: &SpecParams, buf: Vec<u8>) {
        self.pool_returned += 1;
        if self.buf_pool.len() < p.spec_depth + 2 {
            self.buf_pool.push(buf);
        }
    }

    /// Disposes of a dead speculation entry, reclaiming its ciphertext
    /// allocation. Every path that removes an entry from the queue —
    /// commit, prune (valid *or* invalidated), stale claim, relinquish —
    /// must funnel through here so the lease accounting balances.
    fn recycle_entry(&mut self, p: &SpecParams, entry: SpecEntry) {
        let buf = entry.into_ciphertext_buffer();
        self.recycle_buf(p, buf);
    }

    // -----------------------------------------------------------------
    // Fault plumbing
    // -----------------------------------------------------------------

    /// Routes a page-fault cookie into this session: invalidates the
    /// speculative entry it belongs to (§5.2) or force-finalizes the
    /// pending decryption it hit (§5.4). Returns whether the cookie was
    /// ours.
    pub(crate) fn absorb_fault(
        &mut self,
        ctx: &mut CudaContext,
        p: &SpecParams,
        cookie: u64,
    ) -> bool {
        if let Some(chunk) = self.queue.invalidate_cookie(cookie) {
            // A chunk may be queued at several IVs (repetitive walks
            // revisit layers); a single write stales all of them.
            let extra = self.queue.invalidate_overlapping(chunk);
            self.stats.write_invalidations += 1 + extra as u64;
            true
        } else if let Some(idx) = self.kv.position_cookie(cookie) {
            self.stats.decrypt_faults += 1;
            self.finalize_decrypt(ctx, p, idx);
            true
        } else {
            false
        }
    }

    /// Completes the pending KV open at `idx`: decrypts the at-rest
    /// ciphertext at its reserved IV, stores the plaintext, and lifts the
    /// access revocation. Returns when the data became readable.
    pub(crate) fn finalize_decrypt(
        &mut self,
        ctx: &mut CudaContext,
        p: &SpecParams,
        idx: usize,
    ) -> SimTime {
        let (ready_at, recycled, poisoned) = self.kv.finalize(ctx, idx);
        if poisoned {
            self.stats.kv_sentinels += 1;
        }
        match recycled {
            Some(buf) => self.recycle_buf(p, buf),
            // Real payloads adopt the staging buffer as their storage.
            None => self.pool_returned += 1,
        }
        ready_at
    }

    /// If `chunk` has a decryption still in flight, finalize it and return
    /// the time the plaintext becomes available; otherwise `now`.
    /// `predicted` marks predictor-driven callers, whose finalizations
    /// count as pre-decryption hits.
    fn plaintext_ready(
        &mut self,
        ctx: &mut CudaContext,
        p: &SpecParams,
        chunk: HostRegion,
        now: SimTime,
        predicted: bool,
    ) -> SimTime {
        match self.kv.position_over(chunk) {
            Some(idx) => {
                if predicted {
                    self.stats.pre_decrypts += 1;
                }
                now.max(self.finalize_decrypt(ctx, p, idx))
            }
            None => now,
        }
    }

    /// Index of the pending KV open overlapping `region`, if any.
    pub(crate) fn pending_decrypt_over(&self, region: HostRegion) -> Option<usize> {
        self.kv.position_over(region)
    }

    /// The session's KV swap pipeline (pending-open inspection).
    pub fn kv_pipeline(&self) -> &KvSwapPipeline {
        &self.kv
    }

    /// Predictor-gated pre-decryption (§5.4): finalizes pending background
    /// opens that have completed on the crypto pool and whose chunks the
    /// predictor expects to be swapped back in, so the reload path finds
    /// plaintext ready instead of faulting. Unpredicted blocks stay sealed
    /// behind their revoked pages.
    pub(crate) fn pre_decrypt(&mut self, ctx: &mut CudaContext, p: &SpecParams, now: SimTime) {
        if self.kv.pending_len() == 0 || p.failure_mode == SpecFailureMode::Disabled {
            return;
        }
        let depth = self.kv.pending_len().max(p.spec_depth);
        let predicted = self.predictor.predict_sequence(depth, &[]);
        loop {
            let ready = (0..self.kv.pending_len()).find(|&i| {
                let (region, ready_at) = self.kv.entry(i);
                ready_at <= now && predicted.iter().any(|c| c.overlaps(&region))
            });
            let Some(idx) = ready else {
                return;
            };
            self.stats.pre_decrypts += 1;
            self.finalize_decrypt(ctx, p, idx);
        }
    }

    /// Re-establishes the page protection owed to `chunk` after an entry
    /// was removed: keep write protection while any valid entry still
    /// references the plaintext, lift it otherwise.
    fn sync_protection(&mut self, ctx: &mut CudaContext, chunk: HostRegion) {
        let cookie = self
            .queue
            .iter()
            .find(|e| e.valid && e.chunk == chunk)
            .map(|e| e.cookie);
        match cookie {
            Some(cookie) => {
                ctx.pages_mut()
                    .protect(chunk, Protection::WriteProtected, cookie);
            }
            None => {
                ctx.pages_mut().unprotect(chunk);
            }
        }
    }

    /// Releases everything this session holds over `region` before the
    /// host chunk is freed.
    pub(crate) fn on_free_host(
        &mut self,
        ctx: &mut CudaContext,
        p: &SpecParams,
        region: HostRegion,
    ) {
        while let Some(idx) = self.kv.position_over(region) {
            // The data is being thrown away: drop the pending open and
            // recycle its ciphertext staging buffer.
            let pending = self.kv.remove(idx);
            ctx.pages_mut().unprotect(pending.region);
            self.recycle_buf(p, pending.ciphertext);
        }
        let staled = self.queue.invalidate_overlapping(region);
        self.stats.wasted_entries += staled as u64;
        self.suspended.retain(|s| s.chunk != region);
        self.predictor.forget(&region);
    }

    // -----------------------------------------------------------------
    // Speculation pipeline
    // -----------------------------------------------------------------

    /// How many pre-sealed chunks this session may hold right now:
    /// `spec_depth` is the ceiling, the predictor's recent shadow accuracy
    /// decides whether it is used. The score is whether the predictor
    /// *named* the chunks that came back, not what happened to the queue,
    /// so the wrong-order ablation and IV-slack recoveries do not close
    /// the gate, and a closed gate reopens without sealing anything.
    fn effective_depth(&self, p: &SpecParams) -> usize {
        if self.predictor.shadow_hits(SHADOW_WINDOW) >= SHADOW_BREAK_EVEN {
            p.spec_depth
        } else {
            // Untrusted — but the last outstanding chunk is a certain hit.
            usize::from(self.predictor.outstanding().count() == 1)
        }
    }

    /// Tops the speculation queue up to [`SessionState::effective_depth`]
    /// entries by sealing predicted chunks at future IVs on the shared
    /// crypto pool. Pending opens of the predicted chunks are finalized up
    /// to the full `spec_depth` either way: every outstanding chunk is
    /// reloaded whatever the order, so §5.4 pre-decryption follows the
    /// predicted *set*, not the seals.
    pub(crate) fn refill(
        &mut self,
        ctx: &mut CudaContext,
        cookies: &mut CookieCounter,
        p: &SpecParams,
        now: SimTime,
    ) {
        if p.failure_mode == SpecFailureMode::Disabled {
            return;
        }
        let in_flight = self.queue.len() + self.suspended.len();
        let Some(budget) = p.spec_depth.checked_sub(in_flight).filter(|&b| b > 0) else {
            return;
        };
        let depth = self.effective_depth(p);
        if depth <= in_flight && self.kv.pending_len() == 0 {
            return; // nothing to seal, nothing to pre-decrypt
        }
        let mut exclude = self.queue.queued_chunks();
        exclude.extend(self.suspended.iter().map(|s| s.chunk));
        // Anchor the repetitive walk at the queue tail with one chunk of
        // context, skipping decoy sentinels.
        let real: Vec<HostRegion> = self
            .queue
            .iter()
            .filter(|e| e.chunk.len > 1)
            .map(|e| e.chunk)
            .collect();
        let anchor = real.last().map(|&last| {
            (
                real.len().checked_sub(2).and_then(|i| real.get(i).copied()),
                last,
            )
        });
        let pattern = self.predictor.pattern();
        let mut sequence = self
            .predictor
            .predict_sequence_from(pattern, budget, &exclude, anchor);
        if p.failure_mode == SpecFailureMode::WrongOrder {
            sequence.reverse();
        }
        let cur = ctx.current_h2d_iv();
        if self.queue.is_empty() && self.suspended.is_empty() {
            self.next_spec_iv = self.next_spec_iv.max(cur);
        }
        for chunk in sequence {
            // A predicted chunk still pending decryption is pre-decrypted
            // first — a predictor-gated §5.4 hit.
            let avail = self.plaintext_ready(ctx, p, chunk, now, true);
            if self.queue.len() + self.suspended.len() >= depth {
                continue;
            }
            if p.failure_mode == SpecFailureMode::WrongOrder {
                // Force a sequence miss even when the predicted set is a
                // singleton: a decoy ciphertext occupies the IV the real
                // chunk would have matched, so every request recovers via
                // NOP padding — the paper's "PipeLLM-0" behaviour (§7.4).
                self.push_decoy(ctx, cookies, p, chunk, now);
            }
            // Each entry reserves `iv_slack` unassigned IVs before it, the
            // §5.1 leeway for interleaved small I/O; NOPs close unused gaps.
            let iv = self.next_spec_iv + p.iv_slack;
            let mut buf = self.pooled_buf();
            let sealed = match ctx.seal_region_into(chunk, iv, &mut buf) {
                Ok(sealed) => sealed,
                // Freed chunk or an IV raced below the counter: skip it.
                Err(_) => {
                    self.recycle_buf(p, buf);
                    continue;
                }
            };
            // Speculation gains throughput by *pipelining* independent
            // chunk seals across workers (§7.1: one chunk per worker,
            // queue depth keeps the pool busy) — each occupies one worker
            // for the full sequential seal time, unlike the blocking
            // paths, which gang-shard a single buffer.
            let seal_time = ctx.timing().crypto.seal_time(chunk.len);
            let reservation = ctx.crypto_pool_mut().reserve(avail, seal_time);
            let cookie = cookies.next();
            ctx.pages_mut()
                .protect(chunk, Protection::WriteProtected, cookie);
            self.queue.push(SpecEntry {
                chunk,
                iv,
                sealed,
                len: chunk.len,
                ready_at: reservation.end,
                cookie,
                valid: true,
            });
            self.next_spec_iv = iv + 1;
            self.stats.speculated += 1;
        }
    }

    /// Seals a decoy entry: real encryption work at the next speculative
    /// IV under a sentinel identity no request will ever match.
    fn push_decoy(
        &mut self,
        ctx: &mut CudaContext,
        cookies: &mut CookieCounter,
        p: &SpecParams,
        source: HostRegion,
        now: SimTime,
    ) {
        let iv = self.next_spec_iv + p.iv_slack;
        let mut buf = self.pooled_buf();
        let sealed = match ctx.seal_region_into(source, iv, &mut buf) {
            Ok(sealed) => sealed,
            Err(_) => {
                self.recycle_buf(p, buf);
                return;
            }
        };
        // Decoys pipeline like real speculative seals (one worker each).
        let seal_time = ctx.timing().crypto.seal_time(source.len);
        let reservation = ctx.crypto_pool_mut().reserve(now, seal_time);
        let cookie = cookies.next();
        // High half of the address space: never produced by the allocator.
        let sentinel = HostRegion {
            addr: HostAddr(u64::MAX / 2 + cookie),
            len: 1,
        };
        self.queue.push(SpecEntry {
            chunk: sentinel,
            iv,
            sealed,
            len: source.len,
            ready_at: reservation.end,
            cookie,
            valid: true,
        });
        self.next_spec_iv = iv + 1;
        self.stats.speculated += 1;
    }

    /// Drops queue entries whose IVs fell behind the channel counter
    /// (consumed by small I/O or NOP padding); they can never be
    /// committed. Both still-valid and invalidated entries return their
    /// staging buffers to the pool here — the prune path must not leak.
    fn prune_stale(&mut self, ctx: &mut CudaContext, p: &SpecParams) {
        let cur = ctx.current_h2d_iv();
        for entry in self.queue.drop_below(cur) {
            self.sync_protection(ctx, entry.chunk);
            self.stats.wasted_entries += 1;
            self.recycle_entry(p, entry);
        }
    }

    /// Drops the whole pipeline without serving anything: every queued
    /// entry is discarded (a rekey invalidated its ciphertext) and the
    /// suspended requests are handed back to the caller, to be served on
    /// demand once the fresh channel is in place.
    pub(crate) fn drop_pipeline(
        &mut self,
        ctx: &mut CudaContext,
        p: &SpecParams,
    ) -> Vec<Suspended> {
        for entry in self.queue.relinquish() {
            ctx.pages_mut().unprotect(entry.chunk);
            self.stats.wasted_entries += 1;
            self.recycle_entry(p, entry);
        }
        std::mem::take(&mut self.suspended)
    }

    /// Serves a request on demand at the live counter (public entry for
    /// the runtime's rekey path).
    pub(crate) fn serve_on_demand(
        &mut self,
        ctx: &mut CudaContext,
        p: &SpecParams,
        now: SimTime,
        dst: DevicePtr,
        chunk: HostRegion,
    ) -> Result<SimTime, GpuError> {
        self.stats.relinquishes += 1;
        self.encrypt_on_demand(ctx, p, now, dst, chunk)
    }

    /// Relinquishes the whole pipeline (§5.3 irrecoverable errors).
    pub(crate) fn relinquish(
        &mut self,
        ctx: &mut CudaContext,
        p: &SpecParams,
        now: SimTime,
    ) -> Result<(), GpuError> {
        for entry in self.queue.relinquish() {
            ctx.pages_mut().unprotect(entry.chunk);
            self.stats.wasted_entries += 1;
            self.recycle_entry(p, entry);
        }
        let orphans = std::mem::take(&mut self.suspended);
        for request in orphans {
            self.stats.relinquishes += 1;
            self.encrypt_on_demand(ctx, p, now, request.dst, request.chunk)?;
        }
        self.next_spec_iv = ctx.current_h2d_iv();
        Ok(())
    }

    /// Seals `chunk` at the current counter and submits it — encryption on
    /// the critical path of this one transfer, gang-sharded across the
    /// shared crypto threads.
    fn encrypt_on_demand(
        &mut self,
        ctx: &mut CudaContext,
        p: &SpecParams,
        now: SimTime,
        dst: DevicePtr,
        chunk: HostRegion,
    ) -> Result<SimTime, GpuError> {
        let avail = self.plaintext_ready(ctx, p, chunk, now, false);
        let iv = ctx.current_h2d_iv();
        let mut buf = self.pooled_buf();
        let sealed = match ctx.seal_region_into(chunk, iv, &mut buf) {
            Ok(sealed) => sealed,
            Err(err) => {
                self.recycle_buf(p, buf);
                return Err(err);
            }
        };
        // Chunked gang latency (`pool_seal_time`) on one timeline slot:
        // gang segments are high priority on the real engine — an
        // on-demand seal's segments preempt queued speculative seals and
        // background opens rather than waiting behind them, which a
        // reservation timeline cannot express as an all-worker booking.
        let seal_time = ctx
            .timing()
            .crypto
            .pool_seal_time(chunk.len, p.crypto_threads);
        let reservation = ctx.crypto_pool_mut().reserve(avail, seal_time);
        let timing =
            ctx.submit_htod_sealed(now, reservation.end, dst, chunk, &sealed, chunk.len)?;
        self.recycle_buf(p, sealed.into_bytes());
        Ok(timing.api_return)
    }

    /// Commits the queue entry for `chunk` whose IV equals the counter.
    fn commit_entry(
        &mut self,
        ctx: &mut CudaContext,
        p: &SpecParams,
        now: SimTime,
        dst: DevicePtr,
        entry: SpecEntry,
    ) -> Result<SimTime, GpuError> {
        self.sync_protection(ctx, entry.chunk);
        let timing = ctx.submit_htod_sealed(
            now,
            entry.ready_at,
            dst,
            entry.chunk,
            &entry.sealed,
            entry.len,
        )?;
        self.recycle_entry(p, entry);
        Ok(timing.api_return)
    }

    /// Releases suspended requests whose turn in the IV stream has come
    /// (see the original single-tenant doc comment for the full protocol).
    pub(crate) fn release_suspended(
        &mut self,
        ctx: &mut CudaContext,
        p: &SpecParams,
        now: SimTime,
        force: bool,
    ) -> Result<(), GpuError> {
        loop {
            let Some(pos) = self
                .suspended
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.iv)
                .map(|(i, _)| i)
            else {
                return Ok(());
            };
            let mut cur = ctx.current_h2d_iv();
            if self.suspended[pos].iv >= cur
                && !force
                && self
                    .queue
                    .iter()
                    .any(|e| e.valid && e.iv < self.suspended[pos].iv)
            {
                return Ok(());
            }
            let request = self.suspended.remove(pos);
            if request.iv < cur {
                // Something consumed the reserved IV: irrecoverable for
                // this ciphertext; re-encrypt at the live counter.
                self.stats.relinquishes += 1;
                self.encrypt_on_demand(ctx, p, now, request.dst, request.chunk)?;
                continue;
            }
            // Valid entries NOP padding will skip: skipping them is what
            // distinguishes a sequence misprediction from slack absorption.
            let skipped_valid = self
                .queue
                .iter()
                .filter(|e| e.valid && e.iv < request.iv)
                .count();
            let mut nops = 0u32;
            while cur < request.iv {
                ctx.send_nop(now)?;
                cur += 1;
                nops += 1;
            }
            self.prune_stale(ctx, p);
            match self.queue.take(&request.chunk) {
                Some(entry) if entry.iv == cur => {
                    self.commit_entry(ctx, p, now, request.dst, entry)?;
                    if skipped_valid > 0 {
                        self.stats.nop_recoveries += 1;
                    } else if nops > 0 {
                        self.stats.spec_hits += 1; // slack absorbed; sequence right
                    } else {
                        self.stats.reorders += 1;
                    }
                }
                Some(entry) => {
                    // The claim went stale (a duplicate of the chunk sits
                    // later in the queue); fall back to on-demand.
                    self.sync_protection(ctx, entry.chunk);
                    self.stats.wasted_entries += 1;
                    self.stats.relinquishes += 1;
                    self.recycle_entry(p, entry);
                    self.encrypt_on_demand(ctx, p, now, request.dst, request.chunk)?;
                }
                None => {
                    self.stats.relinquishes += 1;
                    self.encrypt_on_demand(ctx, p, now, request.dst, request.chunk)?;
                }
            }
        }
    }

    /// Serves a swap-classified host→device copy through the speculation
    /// machinery.
    pub(crate) fn swap_in(
        &mut self,
        ctx: &mut CudaContext,
        cookies: &mut CookieCounter,
        p: &SpecParams,
        now: SimTime,
        dst: DevicePtr,
        src: HostRegion,
    ) -> Result<SimTime, GpuError> {
        self.prune_stale(ctx, p);
        let cur = ctx.current_h2d_iv();
        let decision = self.queue.find(&src).map(|e| e.iv);
        let api_return = match decision {
            Some(iv) if iv == cur => {
                let entry = self.queue.take(&src).expect("found above");
                let t = self.commit_entry(ctx, p, now, dst, entry)?;
                self.stats.spec_hits += 1;
                self.release_suspended(ctx, p, now, false)?;
                t
            }
            Some(iv) => {
                debug_assert!(iv > cur, "stale entries were pruned");
                let blocked = self.suspended.iter().any(|s| s.iv < iv)
                    || self.queue.iter().any(|e| e.valid && e.iv < iv);
                if blocked {
                    // An earlier chunk is expected first: suspend and wait
                    // for re-ordering or the synchronization flush (§5.3).
                    self.suspended.push(Suspended {
                        dst,
                        chunk: src,
                        iv,
                    });
                    now
                } else {
                    // Only a slack gap separates the counter from the
                    // entry: close it with NOPs and commit immediately.
                    let mut c = cur;
                    while c < iv {
                        ctx.send_nop(now)?;
                        c += 1;
                    }
                    self.prune_stale(ctx, p);
                    let entry = self.queue.take(&src).expect("validated above");
                    let t = self.commit_entry(ctx, p, now, dst, entry)?;
                    self.stats.spec_hits += 1;
                    self.release_suspended(ctx, p, now, false)?;
                    t
                }
            }
            None if self.queue.is_empty() && self.suspended.is_empty() => {
                // Nothing was sealed ahead (cold start, or the gate held
                // the depth at 0): no pipeline to be wrong about.
                self.stats.on_demand += 1;
                self.encrypt_on_demand(ctx, p, now, dst, src)?
            }
            None => {
                self.stats.relinquishes += 1;
                self.consecutive_misses += 1;
                if self.consecutive_misses >= MISS_RELINQUISH_THRESHOLD {
                    // The queue is systematically wrong: drop it and restart
                    // the pipeline from the ground-truth sequence (§5.3).
                    self.relinquish(ctx, p, now)?;
                    self.consecutive_misses = 0;
                }
                // A single miss costs one on-demand encryption; the IV it
                // consumes invalidates at most the queue head, and later
                // entries stay reachable through NOP padding.
                self.encrypt_on_demand(ctx, p, now, dst, src)?
            }
        };
        if decision.is_some() {
            self.consecutive_misses = 0;
        }
        self.predictor.observe_swap_in(src);
        self.refill(ctx, cookies, p, now);
        Ok(api_return)
    }

    /// A DMA store is about to overwrite `region`: stale any ciphertext
    /// this session speculatively sealed over it (the store bypasses page
    /// protection, so the write-fault validator cannot catch it) and drop
    /// any decryption still pending into it (the bytes it would produce
    /// are being overwritten). The runtime runs this sweep over *every*
    /// session before a swap-out — a region another tenant pre-encrypted
    /// must go stale no matter which session performs the store.
    pub(crate) fn invalidate_for_overwrite(&mut self, p: &SpecParams, region: HostRegion) {
        let staled = self.queue.invalidate_overlapping(region);
        self.stats.write_invalidations += staled as u64;
        // Protection for the region is re-established by the swap-out's
        // own access revocation below (protections are keyed by region).
        // Pending opens into the region are dropped — the bytes they would
        // produce are being overwritten — and their buffers recycled.
        while let Some(idx) = self.kv.position_over(region) {
            let pending = self.kv.remove(idx);
            self.recycle_buf(p, pending.ciphertext);
        }
    }

    /// Serves a swap-classified device→host group copy through the
    /// encrypted KV-cache pipeline (§5.4): the device seals every block at
    /// consecutive session IVs, the destinations are access-revoked, and
    /// the call returns before any plaintext exists — the opens run in the
    /// background. The caller has already run
    /// [`SessionState::invalidate_for_overwrite`] over every session.
    pub(crate) fn swap_out_group(
        &mut self,
        ctx: &mut CudaContext,
        cookies: &mut CookieCounter,
        now: SimTime,
        blocks: &[(HostRegion, DevicePtr)],
    ) -> Result<SimTime, GpuError> {
        let group = cookies.next();
        let block_cookies: Vec<u64> = blocks.iter().map(|_| cookies.next()).collect();
        // Ciphertext staging comes from (and accounts against) the
        // session's buffer pool — real AES-GCM over the staging pool. The
        // group transfer is atomic, so the lease count moves only on
        // success (an error draws no buffers).
        let deferred =
            ctx.swap_out_kv_group(now, group, blocks, &block_cookies, &mut self.buf_pool)?;
        self.pool_leased += deferred.len() as u64;
        // The whole group's decryption goes to the shared crypto engine as
        // ONE background submission (matching the fused batch seal that
        // produced it): the worker opens the blocks while compute
        // proceeds, and each block's finalization only takes its slot of
        // the joined result.
        let engine = std::sync::Arc::clone(ctx.crypto_engine());
        self.kv.push_group(&engine, deferred);
        self.stats.async_decrypts += blocks.len() as u64;
        // Deliberately no refill here: speculating at swap-out time would
        // freeze the queue in eviction (FIFO) order before the reload
        // pattern is knowable, and would force-finalize the asynchronous
        // decryption we just scheduled. Prediction happens at swap-in,
        // synchronization, and kernel-launch time instead.
        for &(dst, _) in blocks {
            self.predictor.observe_swap_out(dst);
        }
        Ok(now)
    }
}

/// All live sessions' speculation state plus the shared cookie namespace.
#[derive(Debug, Default)]
pub struct SessionTable {
    sessions: Vec<(SessionId, SessionState)>,
    cookies: CookieCounter,
}

impl SessionTable {
    /// An empty table.
    pub fn new() -> Self {
        SessionTable::default()
    }

    /// Number of sessions with state.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Session ids with state, in creation order.
    pub fn ids(&self) -> Vec<SessionId> {
        self.sessions.iter().map(|(id, _)| *id).collect()
    }

    /// This session's state.
    pub fn get(&self, id: SessionId) -> Option<&SessionState> {
        self.sessions
            .iter()
            .find(|(sid, _)| *sid == id)
            .map(|(_, s)| s)
    }

    /// Mutable state for `id`, creating it on first use.
    pub(crate) fn ensure(&mut self, id: SessionId, p: &SpecParams, initial_spec_iv: u64) {
        if self.get(id).is_none() {
            self.sessions
                .push((id, SessionState::new(p, initial_spec_iv)));
        }
    }

    /// Splits the table into `id`'s state and the shared cookie counter —
    /// the two &mut borrows the pipeline needs simultaneously.
    pub(crate) fn state_and_cookies(
        &mut self,
        id: SessionId,
    ) -> Option<(&mut SessionState, &mut CookieCounter)> {
        let cookies = &mut self.cookies;
        self.sessions
            .iter_mut()
            .find(|(sid, _)| *sid == id)
            .map(move |(_, s)| (s, cookies))
    }

    /// Iterates all sessions' states mutably.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (SessionId, &mut SessionState)> {
        self.sessions.iter_mut().map(|(id, s)| (*id, s))
    }

    /// Iterates all sessions' states.
    pub fn iter(&self) -> impl Iterator<Item = (SessionId, &SessionState)> {
        self.sessions.iter().map(|(id, s)| (*id, s))
    }

    /// Removes a session's state (the session was closed).
    pub(crate) fn remove(&mut self, id: SessionId) -> Option<SessionState> {
        let idx = self.sessions.iter().position(|(sid, _)| *sid == id)?;
        Some(self.sessions.remove(idx).1)
    }
}
