//! Speculative pipelined encryption for inter-GPU hops.
//!
//! The single-GPU runtime hides host→device encryption behind prediction;
//! [`EdgePipeline`] applies the same machinery to one direction of one
//! cluster edge. The activation buffers crossing an inter-stage link form
//! a small ring (double-buffered pipelines cycle two slots), so the
//! transfer sequence is exactly the *repetitive* pattern the
//! [`Predictor`] elects — and just as on the host channel, the pipeline
//! pre-seals the next activation at a future IV the moment its producer
//! kernel retires, instead of sealing inside the transfer API call.
//!
//! Timeline of one pipelined hop under native CC versus this pipeline:
//!
//! ```text
//! native CC : [ compute mb(m) ][ seal (blocks stage thread) ][ send ]
//! PipeLLM   : [ compute mb(m) ][ compute mb(m+1) ...
//!                   └─ seal mb(m) on a crypto worker ──┐
//!                                                      [ send mb(m) ]
//! ```
//!
//! The error handling is the paper's §5.3 protocol at the edge level:
//! an entry ahead of the counter is recovered with edge NOPs; a stale
//! entry (its IV consumed by competing traffic) or a missing entry
//! relinquishes to on-demand encryption; an edge rekey (IV-exhaustion
//! headroom) drops the queue, since old-epoch ciphertext can never commit.

use crate::predictor::{ChunkId, Predictor};
use crate::stats::PipeLlmStats;
use pipellm_crypto::channel::SealedMessage;
use pipellm_crypto::edge::{EdgeCrypto, WireEdge};
use pipellm_crypto::session::SessionId;
use pipellm_gpu::cluster::ClusterContext;
use pipellm_gpu::context::{GpuError, MemcpyTiming};
use pipellm_gpu::memory::{DevicePtr, HostAddr, HostRegion};
use pipellm_sim::time::SimTime;
use std::collections::VecDeque;

/// A pre-sealed activation waiting for its transfer.
#[derive(Debug)]
struct EdgeEntry {
    slot: ChunkId,
    iv: u64,
    sealed: SealedMessage,
    ready_at: SimTime,
    len: u64,
}

/// Speculative encryption pipeline over the `src → dst` direction of one
/// cluster edge, for whatever session the cluster currently has active.
#[derive(Debug)]
pub struct EdgePipeline {
    src: usize,
    dst: usize,
    predictor: Predictor,
    queue: VecDeque<EdgeEntry>,
    stats: PipeLlmStats,
    spec_depth: usize,
    /// Session the queued entries were sealed under: ciphertext from one
    /// session can never commit under another, so a session switch drops
    /// the queue.
    session: Option<SessionId>,
    /// Key epoch the queued entries were sealed under. A rekey — whether
    /// this pipeline triggered it or the opposite direction's pipeline on
    /// the same edge did — restarts both directions' keys, so an epoch
    /// change drops the queue.
    epoch: Option<u32>,
}

/// The slot identity of a source-device buffer: two transfers of the same
/// device buffer are the same logical activation slot.
fn slot_of(src_ptr: DevicePtr, len: u64) -> ChunkId {
    HostRegion {
        addr: HostAddr(src_ptr.0),
        len,
    }
}

impl EdgePipeline {
    /// A pipeline over the `src → dst` direction with room for
    /// `spec_depth` pre-sealed activations.
    pub fn new(src: usize, dst: usize, spec_depth: usize) -> Self {
        EdgePipeline {
            src,
            dst,
            predictor: Predictor::new(64),
            queue: VecDeque::new(),
            stats: PipeLlmStats::default(),
            spec_depth: spec_depth.max(1),
            session: None,
            epoch: None,
        }
    }

    /// Speculation statistics of this edge direction.
    pub fn stats(&self) -> PipeLlmStats {
        self.stats
    }

    /// This direction's predictor (pattern inspection in tests).
    pub fn predictor(&self) -> &Predictor {
        &self.predictor
    }

    /// Entries currently pre-sealed.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Drops every queued entry (rekey or session switch: the ciphertext
    /// can never commit).
    pub fn drop_queue(&mut self) {
        self.stats.wasted_entries += self.queue.len() as u64;
        self.queue.clear();
    }

    /// The cluster edge this direction crosses.
    fn edge(&self) -> WireEdge {
        WireEdge::between(self.src as u32, self.dst as u32)
    }

    /// The sender's next IV on this direction: the send counter of the
    /// edge's end at `src`, the `b` end when `src > dst`.
    fn next_iv(&self, cluster: &ClusterContext) -> u64 {
        cluster
            .edge(self.edge())
            .map_or(0, |ends| ends[usize::from(self.src > self.dst)].tx_iv())
    }

    /// Rekeys the edge if its active session sits inside the IV-exhaustion
    /// headroom in either direction, dropping the now-stale queue. Returns
    /// whether it rekeyed.
    fn rekey_if_needed(&mut self, cluster: &mut ClusterContext) -> bool {
        // Entries sealed under another session's keys can never commit
        // under the now-active one — drop them before they could desync
        // the counters.
        let active = cluster.active_session();
        if self.session != Some(active) {
            if self.session.is_some() {
                self.drop_queue();
            }
            self.session = Some(active);
            self.epoch = None;
        }
        let Some(ends) = cluster.edge_mut(self.edge()) else {
            return false;
        };
        // A rekey restarts both directions of the edge; if anyone else
        // (e.g. the reverse direction's pipeline) rekeyed since we last
        // queued, our old-epoch entries can never authenticate.
        let epoch = ends[0].epoch();
        if self.epoch != Some(epoch) {
            if self.epoch.is_some() {
                self.drop_queue();
            }
            self.epoch = Some(epoch);
        }
        if !ends.iter().any(EdgeCrypto::needs_rekey) {
            return false;
        }
        self.drop_queue();
        // Both ends move to the same fresh epoch, as a `RekeyEdge` does.
        let next = epoch.saturating_add(1);
        for end in ends {
            end.rekey_to(next);
        }
        self.epoch = Some(next);
        true
    }

    /// Called when the producer kernel for `src_ptr` retires at `now`:
    /// pre-seals the buffer at the next speculative IV on the source
    /// device's crypto pool, if the predictor expects this slot next (or
    /// has no history yet). Returns whether an entry was queued.
    pub fn prepare(
        &mut self,
        cluster: &mut ClusterContext,
        now: SimTime,
        src_ptr: DevicePtr,
        dst_ptr: DevicePtr,
        len: u64,
    ) -> bool {
        self.rekey_if_needed(cluster);
        if self.queue.len() >= self.spec_depth {
            return false;
        }
        let slot = slot_of(src_ptr, len);
        // The predictor gate: only burn a future IV when the elected
        // pattern agrees this slot crosses next (cold start always seals).
        let queued: Vec<ChunkId> = self.queue.iter().map(|e| e.slot).collect();
        if let Some(predicted) = self.predictor.predict_next(&queued) {
            if predicted != slot {
                return false;
            }
        }
        let cur = self.next_iv(cluster);
        let iv = self.queue.back().map(|e| e.iv + 1).unwrap_or(cur).max(cur);
        match cluster.seal_edge_region(now, self.src, src_ptr, self.dst, dst_ptr, iv) {
            Ok((sealed, ready_at)) => {
                self.queue.push_back(EdgeEntry {
                    slot,
                    iv,
                    sealed,
                    ready_at,
                    len,
                });
                self.stats.speculated += 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Batched form of [`EdgePipeline::prepare`]: pre-seals a run of
    /// producer buffers in **one fused gang submission** at consecutive
    /// speculative IVs ([`ClusterContext::seal_edge_regions`]) — one
    /// crypto dispatch and one pool reservation for the whole run,
    /// instead of one per slot. The same predictor gate and depth limit
    /// apply: the run is clipped at the first slot the elected pattern
    /// rejects and at `spec_depth`. Returns how many entries were queued.
    pub fn prepare_many(
        &mut self,
        cluster: &mut ClusterContext,
        now: SimTime,
        buffers: &[(DevicePtr, DevicePtr, u64)],
    ) -> usize {
        self.rekey_if_needed(cluster);
        // Gate and clip the candidate run before touching the channel.
        let mut queued: Vec<ChunkId> = self.queue.iter().map(|e| e.slot).collect();
        let mut regions = Vec::new();
        let mut slots = Vec::new();
        for &(src_ptr, dst_ptr, len) in buffers {
            if queued.len() >= self.spec_depth {
                break;
            }
            let slot = slot_of(src_ptr, len);
            if let Some(predicted) = self.predictor.predict_next(&queued) {
                if predicted != slot {
                    break;
                }
            }
            queued.push(slot);
            regions.push((src_ptr, dst_ptr));
            slots.push((slot, len));
        }
        if regions.is_empty() {
            return 0;
        }
        let cur = self.next_iv(cluster);
        let start_iv = self.queue.back().map(|e| e.iv + 1).unwrap_or(cur).max(cur);
        match cluster.seal_edge_regions(now, self.src, self.dst, &regions, start_iv) {
            Ok((sealed, ready_at)) => {
                let n = sealed.len();
                for (sealed, (slot, len)) in sealed.into_iter().zip(slots) {
                    self.queue.push_back(EdgeEntry {
                        slot,
                        iv: sealed.iv,
                        sealed,
                        ready_at,
                        len,
                    });
                }
                self.stats.speculated += n as u64;
                n
            }
            Err(_) => 0,
        }
    }

    /// Serves the actual transfer of `src_ptr` at `now`: commits the
    /// pre-sealed ciphertext when its IV matches (padding with edge NOPs
    /// when it is ahead), or relinquishes to on-demand encryption. The
    /// returned timing's `api_return` is when the issuing stage thread is
    /// free again — `now` when a pre-sealed entry commits, but the end of
    /// the on-demand seal on a relinquish (no pre-claimed IV, so the
    /// thread holds the channel until the ciphertext exists).
    ///
    /// # Errors
    ///
    /// [`GpuError`] for unknown pointers or channel failures (none are
    /// expected under the recovery protocol).
    pub fn transfer(
        &mut self,
        cluster: &mut ClusterContext,
        now: SimTime,
        src_ptr: DevicePtr,
        dst_ptr: DevicePtr,
        len: u64,
    ) -> Result<MemcpyTiming, GpuError> {
        self.rekey_if_needed(cluster);
        let slot = slot_of(src_ptr, len);
        let pos = self.queue.iter().position(|e| e.slot == slot);
        let timing = match pos {
            Some(pos) => {
                let entry = self.queue.remove(pos).expect("position just found");
                let cur = self.next_iv(cluster);
                if entry.iv < cur {
                    // Competing traffic consumed the IV: irrecoverable for
                    // this ciphertext.
                    self.stats.relinquishes += 1;
                    self.on_demand(cluster, now, src_ptr, dst_ptr)?
                } else {
                    // Pad the whole gap in one fused NOP burst: a single
                    // crypto dispatch seals every pad frame, instead of
                    // one pool round-trip per skipped IV.
                    let padded = (entry.iv - cur) as usize;
                    cluster.send_edge_nops(now, self.src, self.dst, padded)?;
                    // Entries skipped by the padding can never commit.
                    let skipped = self.queue.iter().filter(|e| e.iv < entry.iv).count() as u64;
                    self.queue.retain(|e| e.iv > entry.iv);
                    self.stats.wasted_entries += skipped;
                    let timing = cluster.submit_dtod_sealed(
                        now,
                        entry.ready_at,
                        self.src,
                        self.dst,
                        dst_ptr,
                        &entry.sealed,
                        entry.len,
                    )?;
                    if padded > 0 {
                        self.stats.nop_recoveries += 1;
                    } else {
                        self.stats.spec_hits += 1;
                    }
                    timing
                }
            }
            None => {
                self.stats.relinquishes += 1;
                self.on_demand(cluster, now, src_ptr, dst_ptr)?
            }
        };
        self.predictor.observe_swap_in(slot);
        Ok(timing)
    }

    /// Relinquish: serve the hop through the native blocking path —
    /// encryption on the issuing thread's critical path, not hidden
    /// behind the preceding compute.
    fn on_demand(
        &mut self,
        cluster: &mut ClusterContext,
        now: SimTime,
        src_ptr: DevicePtr,
        dst_ptr: DevicePtr,
    ) -> Result<MemcpyTiming, GpuError> {
        // Without a pre-claimed future IV the sender must hold the channel
        // until the ciphertext exists (any interleaved traffic would stale
        // a live-counter seal), so a relinquish *is* the native transfer —
        // same gang-sharded blocking seal, same cost (§5.3). Only
        // speculation hits earn the non-blocking submit.
        cluster.memcpy_dtod_async(now, self.src, src_ptr, self.dst, dst_ptr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipellm_gpu::cluster::ClusterConfig;
    use pipellm_gpu::memory::Payload;
    use pipellm_gpu::CcMode;

    const CHUNK: u64 = 256 * 1024;

    fn cluster() -> ClusterContext {
        ClusterContext::new(ClusterConfig {
            devices: 2,
            cc: CcMode::On,
            device_capacity: 1 << 30,
            ..ClusterConfig::default()
        })
    }

    /// Whether the two ends of edge 0-1 mirror each other, every session.
    fn in_lockstep(c: &ClusterContext) -> bool {
        let [a, b] = c.edge(WireEdge::between(0, 1)).unwrap();
        a.mirrors(b)
    }

    fn seed(c: &mut ClusterContext, dev: usize, byte: u8) -> DevicePtr {
        let ptr = c.device_mut(dev).alloc_device(CHUNK).unwrap();
        c.device_mut(dev)
            .device_memory_mut()
            .store(ptr, Payload::Real(vec![byte; CHUNK as usize]))
            .unwrap();
        ptr
    }

    #[test]
    fn prepared_transfer_hits_and_frees_the_issue_thread() {
        let mut c = cluster();
        let src = seed(&mut c, 0, 0xaa);
        let dst = c.device_mut(1).alloc_device(CHUNK).unwrap();
        let mut pipe = EdgePipeline::new(0, 1, 2);
        assert!(pipe.prepare(&mut c, SimTime::ZERO, src, dst, CHUNK));
        let t = pipe
            .transfer(&mut c, SimTime::ZERO, src, dst, CHUNK)
            .unwrap();
        assert_eq!(t.api_return, SimTime::ZERO, "pipelined submit is instant");
        assert!(t.complete > SimTime::ZERO);
        assert_eq!(pipe.stats().spec_hits, 1);
        assert_eq!(
            c.device(1).device_memory().get(dst).unwrap(),
            &Payload::Real(vec![0xaa; CHUNK as usize])
        );
    }

    #[test]
    fn batched_preparation_fills_the_queue_in_one_submission() {
        let mut c = cluster();
        let ping = seed(&mut c, 0, 0x11);
        let pong = seed(&mut c, 0, 0x22);
        let dst = c.device_mut(1).alloc_device(CHUNK).unwrap();
        let mut pipe = EdgePipeline::new(0, 1, 2);
        // One fused submission queues both slots at consecutive IVs...
        assert_eq!(
            pipe.prepare_many(
                &mut c,
                SimTime::ZERO,
                &[(ping, dst, CHUNK), (pong, dst, CHUNK)],
            ),
            2
        );
        assert_eq!(pipe.queue_len(), 2);
        // ...and a third candidate is clipped at spec_depth.
        assert_eq!(
            pipe.prepare_many(&mut c, SimTime::ZERO, &[(ping, dst, CHUNK)]),
            0
        );
        // Both transfers commit as speculation hits, in order.
        for (buf, byte) in [(ping, 0x11u8), (pong, 0x22u8)] {
            let t = pipe
                .transfer(&mut c, SimTime::ZERO, buf, dst, CHUNK)
                .unwrap();
            assert_eq!(t.api_return, SimTime::ZERO, "pipelined submit is instant");
            assert_eq!(
                c.device(1).device_memory().get(dst).unwrap(),
                &Payload::Real(vec![byte; CHUNK as usize])
            );
        }
        assert_eq!(pipe.stats().spec_hits, 2, "{}", pipe.stats());
        assert!(in_lockstep(&c));
    }

    #[test]
    fn unprepared_transfer_relinquishes_but_still_delivers() {
        let mut c = cluster();
        let src = seed(&mut c, 0, 0xbb);
        let dst = c.device_mut(1).alloc_device(CHUNK).unwrap();
        let mut pipe = EdgePipeline::new(0, 1, 2);
        let t = pipe
            .transfer(&mut c, SimTime::ZERO, src, dst, CHUNK)
            .unwrap();
        assert!(t.complete > SimTime::ZERO);
        assert_eq!(pipe.stats().relinquishes, 1);
        assert_eq!(
            c.device(1).device_memory().get(dst).unwrap(),
            &Payload::Real(vec![0xbb; CHUNK as usize])
        );
    }

    #[test]
    fn predictor_learns_the_ring_and_gates_preparation() {
        let mut c = cluster();
        let ping = seed(&mut c, 0, 1);
        let pong = seed(&mut c, 0, 2);
        let dst = c.device_mut(1).alloc_device(CHUNK).unwrap();
        let mut pipe = EdgePipeline::new(0, 1, 1);
        let mut now = SimTime::ZERO;
        for round in 0..6 {
            for &buf in &[ping, pong] {
                pipe.prepare(&mut c, now, buf, dst, CHUNK);
                now = pipe
                    .transfer(&mut c, now, buf, dst, CHUNK)
                    .unwrap()
                    .complete;
                let _ = round;
            }
        }
        let stats = pipe.stats();
        assert!(stats.spec_hits >= 8, "{stats}");
        assert!(stats.relinquishes <= 2, "{stats}");
        assert_eq!(
            pipe.predictor().pattern(),
            crate::predictor::Pattern::Repetitive
        );
        // Preparing the wrong slot is refused once the pattern is learned.
        assert!(!pipe.prepare(&mut c, now, pong, dst, CHUNK) || pipe.queue_len() <= 1);
        assert!(in_lockstep(&c));
    }

    #[test]
    fn competing_traffic_forces_nop_padding_or_relinquish() {
        let mut c = cluster();
        let src = seed(&mut c, 0, 3);
        let other = seed(&mut c, 0, 4);
        let dst = c.device_mut(1).alloc_device(CHUNK).unwrap();
        let mut pipe = EdgePipeline::new(0, 1, 2);
        assert!(pipe.prepare(&mut c, SimTime::ZERO, src, dst, CHUNK));
        // A native transfer on the same direction consumes the queued IV.
        c.memcpy_dtod_async(SimTime::ZERO, 0, other, 1, dst)
            .unwrap();
        let t = pipe
            .transfer(&mut c, SimTime::ZERO, src, dst, CHUNK)
            .unwrap();
        assert!(t.complete > SimTime::ZERO);
        assert_eq!(pipe.stats().relinquishes, 1, "{}", pipe.stats());
        assert_eq!(
            c.device(1).device_memory().get(dst).unwrap(),
            &Payload::Real(vec![3; CHUNK as usize])
        );
        assert!(in_lockstep(&c));
    }

    #[test]
    fn session_switch_drops_foreign_entries_and_keeps_lockstep() {
        let mut c = cluster();
        let b = c.open_session();
        let src = seed(&mut c, 0, 0xcd);
        let dst = c.device_mut(1).alloc_device(CHUNK).unwrap();
        let mut pipe = EdgePipeline::new(0, 1, 2);
        // Pre-seal under the default session, then switch to tenant B.
        assert!(pipe.prepare(&mut c, SimTime::ZERO, src, dst, CHUNK));
        c.set_session(b).unwrap();
        let t = pipe
            .transfer(&mut c, SimTime::ZERO, src, dst, CHUNK)
            .unwrap();
        assert!(t.complete > SimTime::ZERO);
        // The foreign entry was dropped (never committed under B), and
        // both sessions' edge counters stay in lockstep.
        assert_eq!(pipe.stats().wasted_entries, 1, "{}", pipe.stats());
        assert!(in_lockstep(&c));
        assert_eq!(
            c.device(1).device_memory().get(dst).unwrap(),
            &Payload::Real(vec![0xcd; CHUNK as usize])
        );
    }

    #[test]
    fn foreign_rekey_drops_the_other_directions_queue() {
        let mut c = cluster();
        let bwd_src = seed(&mut c, 1, 0x22);
        let bwd_dst = c.device_mut(0).alloc_device(CHUNK).unwrap();
        let mut bwd = EdgePipeline::new(1, 0, 2);
        // The reverse pipeline queues an entry under epoch 0...
        assert!(bwd.prepare(&mut c, SimTime::ZERO, bwd_src, bwd_dst, CHUNK));
        // ...then something else rekeys the whole edge (both directions'
        // keys and counters restart) without this pipeline's involvement.
        for end in c.edge_mut(WireEdge::between(0, 1)).unwrap() {
            end.rekey_to(1);
        }
        // The old-epoch entry must be dropped, not submitted: the
        // transfer relinquishes and still delivers.
        let t = bwd
            .transfer(&mut c, SimTime::ZERO, bwd_src, bwd_dst, CHUNK)
            .unwrap();
        assert!(t.complete > SimTime::ZERO);
        assert_eq!(bwd.stats().wasted_entries, 1, "{}", bwd.stats());
        assert_eq!(bwd.stats().relinquishes, 1, "{}", bwd.stats());
        assert_eq!(
            c.device(0).device_memory().get(bwd_dst).unwrap(),
            &Payload::Real(vec![0x22; CHUNK as usize])
        );
        assert!(in_lockstep(&c));
    }

    #[test]
    fn rekey_drops_the_queue_and_continues_on_the_fresh_epoch() {
        use pipellm_crypto::channel::IV_LIMIT;
        let mut c = cluster();
        let edge = WireEdge::between(0, 1);
        let ends = c.edge_mut(edge).unwrap();
        let sid = ends[0].open_session_with_initial_ivs(IV_LIMIT - 4, 1);
        ends[1].open_session_with_initial_ivs(IV_LIMIT - 4, 1);
        for d in 0..2 {
            c.device_mut(d).open_session();
        }
        c.set_session(sid).unwrap();
        let src = seed(&mut c, 0, 5);
        let dst = c.device_mut(1).alloc_device(CHUNK).unwrap();
        let mut pipe = EdgePipeline::new(0, 1, 2);
        // The first touch rekeys (headroom), then traffic flows normally.
        let t = pipe
            .transfer(&mut c, SimTime::ZERO, src, dst, CHUNK)
            .unwrap();
        assert!(t.complete > SimTime::ZERO);
        let [a, b] = c.edge(edge).unwrap();
        assert_eq!((a.epoch(), b.epoch()), (1, 1));
        assert!(in_lockstep(&c) && a.tx_iv() < 10, "{}", a.tx_iv());
    }
}
