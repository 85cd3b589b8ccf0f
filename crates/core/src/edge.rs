//! Speculative pipelined encryption for inter-GPU hops.
//!
//! The single-GPU runtime hides host→device encryption behind prediction;
//! [`EdgePipeline`] applies the same machinery to one direction of one
//! cluster edge. The activation buffers crossing an inter-stage link form
//! a small ring (double-buffered pipelines cycle two slots), so the
//! transfer sequence is exactly the *repetitive* pattern the
//! [`Predictor`] elects. When the elected pattern agrees the slot crosses
//! next, the hop seals the activation on the source device's crypto pool
//! and submits the ciphertext without holding the stage thread:
//!
//! ```text
//! native CC : [ compute mb(m) ][ seal (blocks stage thread) ][ send ]
//! PipeLLM   : [ compute mb(m) ][ compute mb(m+1) ...
//!                   └─ seal mb(m) on a crypto worker ──┐
//!                                                      [ send mb(m) ]
//! ```
//!
//! A stage sends each activation the moment its producer kernel retires,
//! so the seal and the send happen in one call ([`EdgePipeline::send`]) at
//! the live send IV: nothing waits between them for other traffic to move
//! the counter, and the paper's §5.3 recovery (NOP padding, stale entries,
//! dropping the queue on a rekey) has nothing to recover here. That
//! protocol lives once, on the host channel (`SessionState` with its
//! `SpeculationQueue`). A slot the predictor refuses, or a seal that
//! fails, relinquishes to the native blocking path.

use crate::predictor::{ChunkId, Predictor};
use crate::stats::PipeLlmStats;
use pipellm_crypto::edge::{EdgeCrypto, WireEdge};
use pipellm_gpu::cluster::ClusterContext;
use pipellm_gpu::context::{GpuError, MemcpyTiming};
use pipellm_gpu::memory::{DevicePtr, HostAddr, HostRegion};
use pipellm_sim::time::SimTime;

/// Speculative encryption pipeline over the `src → dst` direction of one
/// cluster edge, for whatever session the cluster currently has active.
#[derive(Debug)]
pub struct EdgePipeline {
    src: usize,
    dst: usize,
    predictor: Predictor,
    stats: PipeLlmStats,
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
    /// A pipeline over the `src → dst` direction.
    pub fn new(src: usize, dst: usize) -> Self {
        EdgePipeline {
            src,
            dst,
            predictor: Predictor::new(64),
            stats: PipeLlmStats::default(),
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

    /// Rekeys the edge if its active session sits inside the IV-exhaustion
    /// headroom in either direction, then returns the sender's live IV:
    /// the send counter of the edge's end at `src`, the `b` end when
    /// `src > dst`.
    fn rekey_and_next_iv(&self, cluster: &mut ClusterContext) -> u64 {
        let edge = WireEdge::between(self.src as u32, self.dst as u32);
        let Some(ends) = cluster.edge_mut(edge) else {
            return 0;
        };
        if ends.iter().any(EdgeCrypto::needs_rekey) {
            // Both ends move to the same fresh epoch, as a `RekeyEdge` does.
            let next = ends[0].epoch().saturating_add(1);
            for end in ends.iter_mut() {
                end.rekey_to(next);
            }
        }
        ends[usize::from(self.src > self.dst)].tx_iv()
    }

    /// Sends `src_ptr` to `dst_ptr` at `now`, the moment its producer
    /// kernel retires. If the predictor expects this slot next (or has no
    /// history yet), the buffer is sealed on the source device's crypto
    /// pool at the live IV and submitted without blocking: the returned
    /// timing's `api_return` is `now`. Otherwise — or if the seal fails —
    /// the hop relinquishes to the native path, whose `api_return` is the
    /// end of the seal on the issuing thread.
    ///
    /// # Errors
    ///
    /// [`GpuError`] for unknown pointers or channel failures, and
    /// [`GpuError::TransferFaulted`] when an injected fault ate the frame
    /// (the edge stays in lockstep; the caller retries).
    pub fn send(
        &mut self,
        cluster: &mut ClusterContext,
        now: SimTime,
        src_ptr: DevicePtr,
        dst_ptr: DevicePtr,
        len: u64,
    ) -> Result<MemcpyTiming, GpuError> {
        let iv = self.rekey_and_next_iv(cluster);
        let slot = slot_of(src_ptr, len);
        // The predictor gate: only seal off-thread when the elected
        // pattern agrees this slot crosses next (cold start always seals).
        let admitted = self.predictor.predict_next(&[]).is_none_or(|p| p == slot);
        // A failed seal falls through to the native path, which reports
        // any error that is not the speculative path's own.
        let sealed = admitted
            .then(|| cluster.seal_edge_region(now, self.src, src_ptr, self.dst, dst_ptr, iv))
            .and_then(Result::ok);
        let timing = match sealed {
            Some((sealed, ready_at)) => {
                self.stats.speculated += 1;
                let timing = cluster
                    .submit_dtod_sealed(now, ready_at, self.src, self.dst, dst_ptr, &sealed, len)?;
                self.stats.spec_hits += 1;
                timing
            }
            None => {
                // Relinquish: the native transfer, whose gang-sharded seal
                // blocks the issuing thread until the ciphertext exists.
                self.stats.relinquishes += 1;
                cluster.memcpy_dtod_async(now, self.src, src_ptr, self.dst, dst_ptr)?
            }
        };
        self.predictor.observe_swap_in(slot);
        Ok(timing)
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

    fn delivered(c: &ClusterContext, dev: usize, ptr: DevicePtr, byte: u8) -> bool {
        c.device(dev).device_memory().get(ptr).unwrap()
            == &Payload::Real(vec![byte; CHUNK as usize])
    }

    #[test]
    fn prepared_transfer_hits_and_frees_the_issue_thread() {
        let mut c = cluster();
        let src = seed(&mut c, 0, 0xaa);
        let dst = c.device_mut(1).alloc_device(CHUNK).unwrap();
        let mut pipe = EdgePipeline::new(0, 1);
        let t = pipe.send(&mut c, SimTime::ZERO, src, dst, CHUNK).unwrap();
        assert_eq!(t.api_return, SimTime::ZERO, "pipelined submit is instant");
        assert!(t.complete > SimTime::ZERO);
        assert_eq!((pipe.stats().speculated, pipe.stats().spec_hits), (1, 1));
        assert!(delivered(&c, 1, dst, 0xaa));
        assert!(in_lockstep(&c));
    }

    /// Sends `ping, pong` six times round: the predictor elects the ring.
    fn learn_ring(c: &mut ClusterContext, pipe: &mut EdgePipeline) -> (DevicePtr, SimTime) {
        let ping = seed(c, 0, 1);
        let pong = seed(c, 0, 2);
        let dst = c.device_mut(1).alloc_device(CHUNK).unwrap();
        let mut now = SimTime::ZERO;
        for _ in 0..6 {
            for &buf in &[ping, pong] {
                now = pipe.send(c, now, buf, dst, CHUNK).unwrap().complete;
            }
        }
        (pong, now)
    }

    #[test]
    fn predictor_learns_the_ring_and_gates_preparation() {
        let mut c = cluster();
        let mut pipe = EdgePipeline::new(0, 1);
        let (pong, _) = learn_ring(&mut c, &mut pipe);
        let stats = pipe.stats();
        assert_eq!((stats.spec_hits, stats.relinquishes), (12, 0), "{stats}");
        assert_eq!(
            pipe.predictor().pattern(),
            crate::predictor::Pattern::Repetitive
        );
        // The gate now admits only `ping`, the slot after `pong`.
        let next = pipe.predictor().predict_next(&[]);
        assert!(next.is_some_and(|slot| slot != slot_of(pong, CHUNK)));
        assert!(in_lockstep(&c));
    }

    #[test]
    fn unprepared_transfer_relinquishes_but_still_delivers() {
        let mut c = cluster();
        let mut pipe = EdgePipeline::new(0, 1);
        let (pong, now) = learn_ring(&mut c, &mut pipe);
        // The ring expects `ping`: sending `pong` again is refused by the
        // gate and goes native, so the issuing thread holds the seal.
        let dst = c.device_mut(1).alloc_device(CHUNK).unwrap();
        let t = pipe.send(&mut c, now, pong, dst, CHUNK).unwrap();
        let seal = c.timing().crypto.pool_seal_time(CHUNK, c.crypto_threads());
        assert_eq!(t.api_return, now + seal, "a refused hop blocks on its seal");
        let stats = pipe.stats();
        assert_eq!((stats.relinquishes, stats.speculated), (1, 12), "{stats}");
        assert!(delivered(&c, 1, dst, 2));
        assert!(in_lockstep(&c));
    }

    #[test]
    fn session_switch_keeps_lockstep() {
        let mut c = cluster();
        let b = c.open_session();
        let src = seed(&mut c, 0, 0xcd);
        let dst = c.device_mut(1).alloc_device(CHUNK).unwrap();
        let mut pipe = EdgePipeline::new(0, 1);
        pipe.send(&mut c, SimTime::ZERO, src, dst, CHUNK).unwrap();
        // Switch to tenant B: the next hop seals under B's keys and IVs.
        c.set_session(b).unwrap();
        let t = pipe.send(&mut c, SimTime::ZERO, src, dst, CHUNK).unwrap();
        assert_eq!(t.api_return, SimTime::ZERO);
        assert_eq!(pipe.stats().spec_hits, 2, "{}", pipe.stats());
        assert_eq!(c.edge(WireEdge::between(0, 1)).unwrap()[0].tx_iv(), 2);
        assert!(in_lockstep(&c));
        assert!(delivered(&c, 1, dst, 0xcd));
    }

    #[test]
    fn foreign_rekey_keeps_lockstep() {
        let mut c = cluster();
        let bwd_src = seed(&mut c, 1, 0x22);
        let bwd_dst = c.device_mut(0).alloc_device(CHUNK).unwrap();
        let mut bwd = EdgePipeline::new(1, 0);
        bwd.send(&mut c, SimTime::ZERO, bwd_src, bwd_dst, CHUNK)
            .unwrap();
        // Something else rekeys the whole edge (both directions' keys and
        // counters restart) without this pipeline's involvement.
        for end in c.edge_mut(WireEdge::between(0, 1)).unwrap() {
            end.rekey_to(1);
        }
        // The next hop seals under the fresh epoch and still hits.
        bwd.send(&mut c, SimTime::ZERO, bwd_src, bwd_dst, CHUNK)
            .unwrap();
        assert_eq!(bwd.stats().spec_hits, 2, "{}", bwd.stats());
        assert_eq!(c.edge(WireEdge::between(0, 1)).unwrap()[1].epoch(), 1);
        assert!(delivered(&c, 0, bwd_dst, 0x22));
        assert!(in_lockstep(&c));
    }

    #[test]
    fn headroom_rekey_continues_on_the_fresh_epoch() {
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
        let mut pipe = EdgePipeline::new(0, 1);
        // The first touch rekeys (headroom), then traffic flows normally.
        let t = pipe.send(&mut c, SimTime::ZERO, src, dst, CHUNK).unwrap();
        assert_eq!(t.api_return, SimTime::ZERO);
        let [a, b] = c.edge(edge).unwrap();
        assert_eq!((a.epoch(), b.epoch()), (1, 1));
        assert!(in_lockstep(&c) && a.tx_iv() < 10, "{}", a.tx_iv());
        assert!(delivered(&c, 1, dst, 5));
    }
}
