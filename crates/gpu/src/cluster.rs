//! The multi-GPU cluster: N per-device contexts joined by NVLink-style
//! links, every edge carrying its own per-session secure channels.
//!
//! Pipeline-parallel serving shards a model's layers across stages, one
//! GPU per stage, and every inter-stage activation hop crosses a
//! device-to-device link. In confidential-computing mode each of those
//! hops is an *independent* encrypted channel: the two GPU enclaves at the
//! ends of a link run their own key exchange, so every edge owns its own
//! key space, its own pair of incrementing-IV counters per direction, and
//! its own rekey/exhaustion lifecycle — exactly the discipline the
//! host↔device channel already follows, replicated per edge.
//!
//! [`ClusterContext`] builds that topology:
//!
//! - one [`CudaContext`] per device (own PCIe link, device memory, crypto
//!   pool, GPU engine, and host-channel sessions);
//! - one [`EdgeCrypto`] per end of every edge, built with [`role_at`] —
//!   the one edge type, the same one each process of a networked
//!   deployment holds — its root derived from the cluster seed and the
//!   edge identity, so two edges never share keys even for the same
//!   tenant session;
//! - an [`EdgeTimeline`] per edge modelling NVLink bandwidth plus the
//!   per-link crypto serialization the cluster report surfaces.
//!
//! An edge has one transfer path, [`ClusterContext::memcpy_dtod_async`]:
//! it seals at the sender's live IV on the source device's crypto pool,
//! moves the ciphertext, and opens at the destination, rekeying the edge
//! first when either direction nears IV exhaustion. Its `api_return` is
//! when the seal ends — the moment native NVIDIA CC frees the issuing
//! stage thread. PipeLLM needs no second path: an inter-stage activation
//! is known the moment its producer kernel retires, so nothing is
//! predicted and nothing can be mispredicted; the caller simply does not
//! wait for `api_return`, and the seal overlaps its next compute.

use crate::context::{
    absorb_frame_fault, open_delivered, sealed_kind, stage_plaintext, CcMode, ContextConfig,
    CudaContext, GpuError, IoStats, MemcpyTiming, SessionCounters,
};
use crate::memory::{DevicePtr, HostAddr, HostRegion, Payload};
use crate::runtime::{GpuRuntime, SessionedRuntime};
use crate::timing::IoTimingModel;
use pipellm_chaos::{ChaosInjector, FaultSite};
use pipellm_crypto::edge::{role_at, EdgeCrypto, WireEdge, HOST_NODE};
use pipellm_crypto::engine::CryptoEngine;
use pipellm_crypto::session::SessionId;
use pipellm_sim::cluster::{EdgeTimeline, TimelineRow, TimelineSummary};
use pipellm_sim::time::SimTime;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// NVLink timing calibration for the inter-GPU links.
///
/// Defaults model an NVLink-4 class fabric: ~400 GB/s per direction in
/// plaintext, capped well below that when CC-mode bounce-buffer staging is
/// on the path, with a short per-operation latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvLinkModel {
    /// Link bandwidth with CC disabled, GB/s.
    pub gbps_off: f64,
    /// Effective link bandwidth in CC mode, GB/s.
    pub gbps_cc: f64,
    /// Per-operation link latency.
    pub latency: Duration,
}

impl Default for NvLinkModel {
    fn default() -> Self {
        NvLinkModel {
            gbps_off: 400.0,
            gbps_cc: 150.0,
            latency: Duration::from_nanos(700),
        }
    }
}

impl NvLinkModel {
    /// Bandwidth in GB/s for the given CC mode.
    pub fn gbps(&self, cc_enabled: bool) -> f64 {
        if cc_enabled {
            self.gbps_cc
        } else {
            self.gbps_off
        }
    }
}

/// Configuration for a [`ClusterContext`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of devices (pipeline stages), at least 1.
    pub devices: usize,
    /// CC mode, applied to every device and every edge.
    pub cc: CcMode,
    /// Host↔device timing calibration (PCIe + crypto cost model).
    pub timing: IoTimingModel,
    /// Inter-GPU link calibration.
    pub nvlink: NvLinkModel,
    /// Device memory capacity per device, bytes.
    pub device_capacity: u64,
    /// Crypto worker threads per device (seals run on the source device's
    /// pool, opens on the destination's).
    pub crypto_threads: usize,
    /// Cluster-wide key-derivation seed. Per-device host channels and
    /// per-edge channels all derive distinct roots from it.
    pub seed: u64,
    /// Fault injector shared by every device's host link and every edge;
    /// `None` (the default) injects nothing.
    pub chaos: Option<Arc<ChaosInjector>>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            devices: 2,
            cc: CcMode::On,
            timing: IoTimingModel::default(),
            nvlink: NvLinkModel::default(),
            device_capacity: 80 * 1_000_000_000,
            crypto_threads: 1,
            seed: 0x9e37,
            chaos: None,
        }
    }
}

/// Aggregate statistics of one edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeStats {
    /// Payload transfers `a → b`.
    pub ab_ops: u64,
    /// Payload transfers `b → a`.
    pub ba_ops: u64,
    /// Payload bytes moved (both directions).
    pub bytes: u64,
    /// Transfers lost to injected faults (both directions); each burned an
    /// edge IV on both endpoints and delivered nothing.
    pub faulted: u64,
}

/// One edge's live state: its crypto state at each end and its wire.
struct EdgeState {
    /// The `a` end and the `b` end, each as the node there holds it.
    ends: [EdgeCrypto; 2],
    link: EdgeLink,
}

/// One edge's wire: its timeline and traffic counters.
struct EdgeLink {
    timeline: EdgeTimeline,
    stats: EdgeStats,
}

/// A `src → dst` transfer's share of the cluster: both devices, the
/// edge's sending and receiving ends, and its wire.
struct Hop<'a> {
    src: &'a mut CudaContext,
    dst: &'a mut CudaContext,
    tx: &'a mut EdgeCrypto,
    rx: &'a mut EdgeCrypto,
    link: &'a mut EdgeLink,
}

/// The simulated multi-GPU cluster.
pub struct ClusterContext {
    cc: CcMode,
    timing: IoTimingModel,
    nvlink: NvLinkModel,
    crypto_threads: usize,
    /// The one real seal/open worker pool shared by every device's host
    /// channel and every edge channel in the cluster.
    engine: Arc<CryptoEngine>,
    devices: Vec<CudaContext>,
    /// The full mesh: `edges[a][b - a - 1]` joins devices `a < b`.
    edges: Vec<Vec<EdgeState>>,
    pending: Vec<SimTime>,
    /// Fault injector rolled on every edge transfer (devices carry their
    /// own clone for host-link sites).
    chaos: Option<Arc<ChaosInjector>>,
}

impl fmt::Debug for ClusterContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterContext")
            .field("devices", &self.devices.len())
            .field("edges", &self.edges.iter().flatten().count())
            .field("cc", &self.cc)
            .field("active", &self.active_session())
            .finish()
    }
}

impl ClusterContext {
    /// Builds the cluster: `devices` contexts plus a full mesh of edges,
    /// each edge with its own key root. Every device and every edge opens
    /// the default session, so the cluster starts in the same single-tenant
    /// state a fresh [`CudaContext`] does.
    pub fn new(config: ClusterConfig) -> Self {
        let n = config.devices.max(1);
        // One shared seal/open worker pool for the whole cluster: every
        // device's host channel and every edge channel chunk their large
        // transfers across the same `crypto_threads` workers, the same k
        // the per-device sim pools model.
        let engine = Arc::new(CryptoEngine::new(config.crypto_threads.max(1)));
        let devices = (0..n)
            .map(|i| {
                CudaContext::new(ContextConfig {
                    cc: config.cc,
                    timing: config.timing,
                    device_capacity: config.device_capacity,
                    crypto_threads: config.crypto_threads,
                    seed: WireEdge::between(i as u32, HOST_NODE).key_seed(config.seed),
                    engine: Some(Arc::clone(&engine)),
                    chaos: config.chaos.clone(),
                })
            })
            .collect();
        let cc_enabled = config.cc == CcMode::On;
        let edges = (0..n as u32)
            .map(|a| {
                (a + 1..n as u32)
                    .map(|b| {
                        let id = WireEdge::between(a, b);
                        let ends = [a, b].map(|node| {
                            let mut end = EdgeCrypto::new(config.seed, id, role_at(id, node));
                            end.set_engine(Arc::clone(&engine));
                            end
                        });
                        let timeline = EdgeTimeline::new(
                            config.nvlink.gbps(cc_enabled),
                            config.nvlink.latency,
                        );
                        EdgeState {
                            ends,
                            link: EdgeLink {
                                timeline,
                                stats: EdgeStats::default(),
                            },
                        }
                    })
                    .collect()
            })
            .collect();
        ClusterContext {
            cc: config.cc,
            timing: config.timing,
            nvlink: config.nvlink,
            crypto_threads: config.crypto_threads.max(1),
            engine,
            devices,
            edges,
            pending: Vec::new(),
            chaos: config.chaos,
        }
    }

    /// Installs a chaos injector after construction, on every device's
    /// host link and every edge.
    pub fn set_chaos(&mut self, chaos: Arc<ChaosInjector>) {
        for device in &mut self.devices {
            device.set_chaos(Arc::clone(&chaos));
        }
        self.chaos = Some(chaos);
    }

    /// The installed chaos injector, if any.
    pub fn chaos(&self) -> Option<&Arc<ChaosInjector>> {
        self.chaos.as_ref()
    }

    /// The cluster-wide shared crypto engine (real worker pool).
    pub fn crypto_engine(&self) -> &Arc<CryptoEngine> {
        &self.engine
    }

    /// Configured crypto worker threads per device pool (and the width of
    /// the shared real engine).
    pub fn crypto_threads(&self) -> usize {
        self.crypto_threads
    }

    /// CC mode of the cluster.
    pub fn cc_mode(&self) -> CcMode {
        self.cc
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// The NVLink calibration in use.
    pub fn nvlink(&self) -> &NvLinkModel {
        &self.nvlink
    }

    /// The host↔device timing calibration (shared crypto cost model).
    pub fn timing(&self) -> &IoTimingModel {
        &self.timing
    }

    /// Device `i`'s context.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn device(&self, i: usize) -> &CudaContext {
        &self.devices[i]
    }

    /// Mutable access to device `i`'s context.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn device_mut(&mut self, i: usize) -> &mut CudaContext {
        &mut self.devices[i]
    }

    /// All edge ids, in sorted order.
    pub fn edge_ids(&self) -> Vec<WireEdge> {
        self.edges
            .iter()
            .flatten()
            .map(|e| e.ends[0].edge())
            .collect()
    }

    /// Traffic statistics of one edge.
    pub fn edge_stats(&self, edge: WireEdge) -> Option<EdgeStats> {
        self.state(edge).map(|e| e.link.stats)
    }

    /// One edge's crypto state at its two ends, `[a end, b end]`, as the
    /// nodes there hold it: sessions, epoch, IV counters. The sender of
    /// `a → b` is the `a` end's `tx_iv`, that of `b → a` the `b` end's.
    pub fn edge(&self, edge: WireEdge) -> Option<&[EdgeCrypto; 2]> {
        self.state(edge).map(|e| &e.ends)
    }

    /// Mutable access to one edge's two ends. They must stay mirrored: a
    /// rekey moves both ends to the same epoch, as `RekeyEdge` does on
    /// the wire.
    pub fn edge_mut(&mut self, edge: WireEdge) -> Option<&mut [EdgeCrypto; 2]> {
        let (a, b) = (edge.a as usize, edge.b as usize);
        let state = self.edges.get_mut(a)?.get_mut(b.checked_sub(a + 1)?)?;
        Some(&mut state.ends)
    }

    fn state(&self, edge: WireEdge) -> Option<&EdgeState> {
        let (a, b) = (edge.a as usize, edge.b as usize);
        self.edges.get(a)?.get(b.checked_sub(a + 1)?)
    }

    /// Every edge end, `a` end first, edges in sorted order.
    fn ends_mut(&mut self) -> impl Iterator<Item = &mut EdgeCrypto> {
        self.edges.iter_mut().flatten().flat_map(|e| &mut e.ends)
    }

    // ---------------------------------------------------------------
    // Session surface
    // ---------------------------------------------------------------

    /// Opens a tenant session cluster-wide: on every device's host channel
    /// and on every edge. All managers allocate ids in lockstep, so the
    /// one id names the session everywhere.
    pub fn open_session(&mut self) -> SessionId {
        let id = self.devices[0].open_session();
        for device in &mut self.devices[1..] {
            let sid = device.open_session();
            debug_assert_eq!(sid, id, "session ids in lockstep");
        }
        for end in self.ends_mut() {
            let sid = end.open_session();
            debug_assert_eq!(sid, id, "edge session ids in lockstep");
        }
        id
    }

    /// Routes the session-unaware surface (all devices' `memcpy_*` and all
    /// edge transfers) to `session`.
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownSession`] if any device or edge does not know the
    /// session (they are opened in lockstep, so the first device's check
    /// rejects an unknown id before anything moves).
    pub fn set_session(&mut self, session: SessionId) -> Result<(), GpuError> {
        for device in &mut self.devices {
            device.set_session(session)?;
        }
        for end in self.ends_mut() {
            if !end.set_session(session) {
                return Err(GpuError::UnknownSession { session });
            }
        }
        Ok(())
    }

    /// The session cluster traffic currently targets.
    pub fn active_session(&self) -> SessionId {
        self.devices[0].active_session()
    }

    /// Live session ids, in creation order.
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.devices[0].session_ids()
    }

    /// Closes a session cluster-wide. The active session cannot be closed
    /// — switch to another session first; asking anyway reports
    /// [`GpuError::UnknownSession`], the same contract as
    /// [`CudaContext::close_session`].
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownSession`] if no such session is live or it is
    /// the active one.
    pub fn close_session(&mut self, session: SessionId) -> Result<(), GpuError> {
        for device in &mut self.devices {
            device.close_session(session)?;
        }
        for end in self.ends_mut() {
            if !end.close_session(session) {
                return Err(GpuError::UnknownSession { session });
            }
        }
        Ok(())
    }

    // ---------------------------------------------------------------
    // Transfer surface
    // ---------------------------------------------------------------

    /// Splits the borrow for a `src → dst` transfer.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or either index is out of range.
    fn hop(&mut self, src: usize, dst: usize) -> Hop<'_> {
        let (lo, hi) = (src.min(dst), src.max(dst));
        let (head, tail) = self.devices.split_at_mut(hi);
        let (lo_ctx, hi_ctx) = (&mut head[lo], &mut tail[0]);
        let edge = &mut self.edges[lo][hi - lo - 1];
        let [a, b] = &mut edge.ends;
        let (src, dst, tx, rx) = if src < dst {
            (lo_ctx, hi_ctx, a, b)
        } else {
            (hi_ctx, lo_ctx, b, a)
        };
        let link = &mut edge.link;
        Hop {
            src,
            dst,
            tx,
            rx,
            link,
        }
    }

    /// Asynchronous device→device copy over the edge joining `src` and
    /// `dst` (the NCCL/NVLink `cudaMemcpyPeerAsync` analogue).
    ///
    /// With CC off the payload moves in plaintext at full NVLink bandwidth
    /// and the API returns immediately. With CC on the edge first rekeys if
    /// either direction is inside the IV-exhaustion headroom; then the
    /// buffer is sealed at the sender's live IV on the source device's
    /// crypto pool from `now`, the wire moves it, and the destination
    /// decrypts before the data is usable. `api_return` is the end of the
    /// seal: native CC blocks the issuing thread until then, while PipeLLM
    /// frees it at `now` (see the module docs).
    ///
    /// # Errors
    ///
    /// [`GpuError::Memory`] for unknown pointers or capacity errors, and
    /// [`GpuError::TransferFaulted`] when an injected fault ate the frame
    /// (both ends burned its IV, so the edge stays in lockstep and the
    /// caller retries).
    ///
    /// # Panics
    ///
    /// Panics if `src_dev == dst_dev` or either index is out of range —
    /// programming errors, as on the CUDA peer-copy API.
    pub fn memcpy_dtod_async(
        &mut self,
        now: SimTime,
        src_dev: usize,
        src_ptr: DevicePtr,
        dst_dev: usize,
        dst_ptr: DevicePtr,
    ) -> Result<MemcpyTiming, GpuError> {
        let cc = self.cc;
        let threads = self.crypto_threads;
        let crypto = self.timing.crypto;
        let cc_control = self.timing.cc_control;
        let chaos = self.chaos.clone();
        let src_is_a = src_dev < dst_dev;
        let hop = self.hop(src_dev, dst_dev);
        let len = hop.src.device_memory().get(src_ptr)?.len();
        let timing = match cc {
            CcMode::Off => {
                let payload = hop.src.device_memory().get(src_ptr)?.clone();
                hop.dst.device_memory_mut().store(dst_ptr, payload)?;
                let wire = hop.link.timeline.transfer(now, len);
                MemcpyTiming {
                    api_return: now,
                    complete: wire.end,
                }
            }
            CcMode::On => {
                // Inside the IV-exhaustion headroom of either direction,
                // both ends move to the next epoch, as a `RekeyEdge` does.
                if hop.tx.needs_rekey() || hop.rx.needs_rekey() {
                    let next = hop.tx.epoch().saturating_add(1);
                    hop.tx.rekey_to(next);
                    hop.rx.rekey_to(next);
                }
                let mut buf = Vec::new();
                let aad =
                    stage_plaintext(hop.src.device_memory().get(src_ptr)?, dst_ptr.0, &mut buf);
                let sealed = hop
                    .tx
                    .endpoint_mut()?
                    .tx_mut()
                    .seal_prepared(aad.into(), buf)?;
                // Gang-parallel seal on the source device's crypto pool:
                // the issuing thread blocks until it completes.
                let seal_time = crypto.pool_seal_time(len, threads);
                let enc = hop.src.crypto_pool_mut().reserve_gang(now, seal_time);
                let wire = hop.link.timeline.transfer(enc.end, len);
                let open_time = crypto.pool_open_time(len, threads);
                let dec = hop.dst.crypto_pool_mut().reserve_gang(wire.end, open_time);
                hop.link.timeline.record_crypto(seal_time + open_time);
                let kind = sealed_kind(&sealed);
                if let Some(fault) = chaos
                    .as_ref()
                    .and_then(|c| c.roll_frame(FaultSite::DeviceToDevice))
                {
                    let iv = sealed.iv;
                    hop.link.stats.faulted += 1;
                    absorb_frame_fault(hop.rx.endpoint_mut()?.rx_mut(), fault, sealed);
                    self.pending.push(dec.end + cc_control);
                    return Err(GpuError::TransferFaulted {
                        fault: fault.kind.label(),
                        iv,
                    });
                }
                let opened =
                    open_delivered(hop.rx.endpoint_mut()?.rx_mut(), sealed, "memcpy_dtod")?;
                hop.dst
                    .device_memory_mut()
                    .store(dst_ptr, Payload::from_plaintext(kind, opened))?;
                MemcpyTiming {
                    api_return: enc.end,
                    complete: dec.end + cc_control,
                }
            }
        };
        if src_is_a {
            hop.link.stats.ab_ops += 1;
        } else {
            hop.link.stats.ba_ops += 1;
        }
        hop.link.stats.bytes += len;
        self.pending.push(timing.complete);
        Ok(timing)
    }

    /// Waits for every asynchronous operation submitted so far, across all
    /// devices and edges. Returns the completion time (at least `now`).
    pub fn synchronize(&mut self, now: SimTime) -> SimTime {
        let mut latest = self.pending.drain(..).max().unwrap_or(SimTime::ZERO);
        for device in &mut self.devices {
            latest = latest.max(device.synchronize(now));
        }
        latest.max(now)
    }

    /// Aggregate I/O statistics of every device's host link.
    pub fn host_io_stats(&self) -> IoStats {
        let mut total = IoStats::default();
        for device in &self.devices {
            let s = device.stats();
            total.h2d_ops += s.h2d_ops;
            total.h2d_bytes += s.h2d_bytes;
            total.d2h_ops += s.d2h_ops;
            total.d2h_bytes += s.d2h_bytes;
            total.nops += s.nops;
            total.faulted_ops += s.faulted_ops;
        }
        total
    }

    /// Total GPU idle time spent waiting on transfers, across devices.
    pub fn total_io_stall(&self) -> Duration {
        self.devices
            .iter()
            .map(|d| d.gpu_engine().io_stall_time())
            .sum()
    }

    /// Per-device and per-edge utilization rows measured against `now`.
    pub fn timeline_summary(&self, now: SimTime) -> TimelineSummary {
        let devices = self
            .devices
            .iter()
            .enumerate()
            .map(|(i, d)| {
                // A device's ops are its host-link transfers plus every
                // edge transfer it sent or received.
                let edge_ops: u64 = self
                    .edges
                    .iter()
                    .flatten()
                    .filter(|e| e.ends[0].edge().touches(i as u32))
                    .map(|e| e.link.stats.ab_ops + e.link.stats.ba_ops)
                    .sum();
                TimelineRow {
                    label: format!("gpu{i}"),
                    busy: d.gpu_engine().busy_time(),
                    serialized: d.gpu_engine().io_stall_time(),
                    ops: d.stats().h2d_ops + d.stats().d2h_ops + edge_ops,
                }
            })
            .collect();
        let edges = self
            .edges
            .iter()
            .flatten()
            .map(|e| TimelineRow {
                label: e.ends[0].edge().to_string(),
                busy: e
                    .link
                    .timeline
                    .link()
                    .occupancy(e.link.timeline.bytes_moved()),
                serialized: e.link.timeline.crypto_serialization(),
                ops: e.link.stats.ab_ops + e.link.stats.ba_ops,
            })
            .collect();
        TimelineSummary {
            devices,
            edges,
            makespan: Duration::from_secs_f64(now.as_secs_f64()),
        }
    }
}

/// The cluster behind the single-GPU runtime traits: host traffic enters
/// and leaves through device 0 (the entry GPU the CVM's PCIe link reaches),
/// while sessions span the whole cluster — every device's host channel and
/// every edge. This is what makes the cluster composable with
/// [`MultiTenantDriver`]-style drivers written against
/// [`SessionedRuntime`].
///
/// [`MultiTenantDriver`]: ../../pipellm_serving/multitenant/struct.MultiTenantDriver.html
#[derive(Debug)]
pub struct ClusterRuntime {
    cluster: ClusterContext,
}

impl ClusterRuntime {
    /// Wraps a cluster.
    pub fn new(cluster: ClusterContext) -> Self {
        ClusterRuntime { cluster }
    }

    /// The wrapped cluster.
    pub fn cluster(&self) -> &ClusterContext {
        &self.cluster
    }

    /// Mutable access to the wrapped cluster (edge transfers, rekeys).
    pub fn cluster_mut(&mut self) -> &mut ClusterContext {
        &mut self.cluster
    }

    fn entry(&mut self) -> &mut CudaContext {
        &mut self.cluster.devices[0]
    }
}

impl GpuRuntime for ClusterRuntime {
    fn label(&self) -> &str {
        match self.cluster.cc {
            CcMode::Off => "w/o CC",
            CcMode::On => "CC",
        }
    }

    fn alloc_host(&mut self, payload: Payload) -> HostRegion {
        self.entry().host_mut().alloc(payload)
    }

    fn free_host(&mut self, addr: HostAddr) -> Result<(), GpuError> {
        Ok(self.entry().host_mut().free(addr)?)
    }

    fn alloc_device(&mut self, len: u64) -> Result<DevicePtr, GpuError> {
        self.entry().alloc_device(len)
    }

    fn free_device(&mut self, ptr: DevicePtr) -> Result<(), GpuError> {
        self.entry().free_device(ptr)
    }

    fn memcpy_htod(
        &mut self,
        now: SimTime,
        dst: DevicePtr,
        src: HostRegion,
    ) -> Result<SimTime, GpuError> {
        self.entry()
            .memcpy_htod_async(now, dst, src)
            .map(|t| t.api_return)
    }

    fn memcpy_dtoh(
        &mut self,
        now: SimTime,
        dst: HostRegion,
        src: DevicePtr,
    ) -> Result<SimTime, GpuError> {
        self.entry()
            .memcpy_dtoh_async(now, dst, src)
            .map(|t| t.api_return)
    }

    fn synchronize(&mut self, now: SimTime) -> SimTime {
        self.cluster.synchronize(now)
    }

    fn launch_compute(&mut self, ready: SimTime, duration: Duration) -> SimTime {
        self.entry().launch_compute(ready, duration).end
    }

    fn host_touch(&mut self, now: SimTime, addr: HostAddr) -> Result<SimTime, GpuError> {
        self.entry().host_touch(addr)?;
        Ok(now)
    }

    fn host_read(&mut self, now: SimTime, region: HostRegion) -> Result<SimTime, GpuError> {
        self.entry().host_read(region)?;
        Ok(now)
    }

    fn device_free_bytes(&self) -> u64 {
        self.cluster.devices[0].device_memory().free_bytes()
    }

    fn device_capacity(&self) -> u64 {
        self.cluster.devices[0].device_memory().capacity()
    }

    fn io_stats(&self) -> IoStats {
        self.cluster.devices[0].stats()
    }

    fn gpu_io_stall(&self) -> Duration {
        self.cluster.devices[0].gpu_engine().io_stall_time()
    }
}

impl SessionedRuntime for ClusterRuntime {
    fn open_session(&mut self) -> SessionId {
        self.cluster.open_session()
    }

    fn set_session(&mut self, session: SessionId) -> Result<(), GpuError> {
        self.cluster.set_session(session)
    }

    fn active_session(&self) -> SessionId {
        self.cluster.active_session()
    }

    fn session_ids(&self) -> Vec<SessionId> {
        self.cluster.session_ids()
    }

    fn session_counters(&self, session: SessionId) -> Option<SessionCounters> {
        self.cluster.devices[0].session_counters(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHUNK: u64 = 256 * 1024;

    fn e01() -> WireEdge {
        WireEdge::between(0, 1)
    }

    /// Next send IVs `(a → b, b → a)` of the active session on `edge`,
    /// after checking that the edge's two ends mirror each other.
    fn ivs(c: &ClusterContext, edge: WireEdge) -> (u64, u64) {
        let [a, b] = c.edge(edge).unwrap();
        assert!(a.mirrors(b), "{edge} out of lockstep");
        (a.tx_iv(), b.tx_iv())
    }

    fn cluster(n: usize, cc: CcMode) -> ClusterContext {
        ClusterContext::new(ClusterConfig {
            devices: n,
            cc,
            device_capacity: 1 << 30,
            ..ClusterConfig::default()
        })
    }

    /// Seeds a device buffer on device `dev` with `byte`-filled data.
    fn seed_buffer(c: &mut ClusterContext, dev: usize, byte: u8) -> DevicePtr {
        let ptr = c.device_mut(dev).alloc_device(CHUNK).unwrap();
        c.device_mut(dev)
            .device_memory_mut()
            .store(ptr, Payload::Real(vec![byte; CHUNK as usize]))
            .unwrap();
        ptr
    }

    #[test]
    fn topology_is_a_full_mesh() {
        let c = cluster(4, CcMode::On);
        assert_eq!(c.num_devices(), 4);
        assert_eq!(c.edge_ids().len(), 6);
        assert_eq!(c.edge_ids()[4], WireEdge::between(3, 1));
        assert_eq!(c.edge_ids()[4].to_string(), "edge1-3");
        assert!(c.edge(WireEdge::between(0, HOST_NODE)).is_none());
        assert!(c.edge(WireEdge { a: 2, b: 1 }).is_none());
    }

    #[test]
    #[should_panic(expected = "no self-edges")]
    fn self_edges_are_rejected() {
        let _ = WireEdge::between(2, 2);
    }

    #[test]
    fn dtod_roundtrips_real_bytes_cc_on_and_off() {
        for cc in [CcMode::Off, CcMode::On] {
            let mut c = cluster(2, cc);
            let src = seed_buffer(&mut c, 0, 0x5a);
            let dst = c.device_mut(1).alloc_device(CHUNK).unwrap();
            let t = c.memcpy_dtod_async(SimTime::ZERO, 0, src, 1, dst).unwrap();
            assert!(t.complete > SimTime::ZERO);
            assert_eq!(
                c.device(1).device_memory().get(dst).unwrap(),
                &Payload::Real(vec![0x5a; CHUNK as usize]),
                "{cc:?}"
            );
        }
    }

    #[test]
    fn native_cc_blocks_the_api_on_the_seal() {
        let mut off = cluster(2, CcMode::Off);
        let mut on = cluster(2, CcMode::On);
        let s_off = seed_buffer(&mut off, 0, 1);
        let s_on = seed_buffer(&mut on, 0, 1);
        let d_off = off.device_mut(1).alloc_device(CHUNK).unwrap();
        let d_on = on.device_mut(1).alloc_device(CHUNK).unwrap();
        let t_off = off
            .memcpy_dtod_async(SimTime::ZERO, 0, s_off, 1, d_off)
            .unwrap();
        let t_on = on
            .memcpy_dtod_async(SimTime::ZERO, 0, s_on, 1, d_on)
            .unwrap();
        assert_eq!(t_off.api_return, SimTime::ZERO);
        assert!(
            t_on.api_return > SimTime::ZERO,
            "native CC couples the seal to the API call"
        );
        assert!(t_on.complete > t_off.complete);
    }

    #[test]
    fn reverse_direction_uses_its_own_counter() {
        let mut c = cluster(2, CcMode::On);
        let fwd = seed_buffer(&mut c, 0, 2);
        let bwd = seed_buffer(&mut c, 1, 3);
        let dst1 = c.device_mut(1).alloc_device(CHUNK).unwrap();
        let dst0 = c.device_mut(0).alloc_device(CHUNK).unwrap();
        c.memcpy_dtod_async(SimTime::ZERO, 0, fwd, 1, dst1).unwrap();
        c.memcpy_dtod_async(SimTime::ZERO, 0, fwd, 1, dst1).unwrap();
        c.memcpy_dtod_async(SimTime::ZERO, 1, bwd, 0, dst0).unwrap();
        assert_eq!(ivs(&c, e01()), (3, 2));
        let stats = c.edge_stats(e01()).unwrap();
        assert_eq!((stats.ab_ops, stats.ba_ops), (2, 1));
    }

    #[test]
    fn sessions_are_isolated_per_edge() {
        let mut c = cluster(2, CcMode::On);
        let a = c.active_session();
        let b = c.open_session();
        let src = seed_buffer(&mut c, 0, 1);
        let dst = c.device_mut(1).alloc_device(CHUNK).unwrap();
        c.memcpy_dtod_async(SimTime::ZERO, 0, src, 1, dst).unwrap();
        c.set_session(b).unwrap();
        c.memcpy_dtod_async(SimTime::ZERO, 0, src, 1, dst).unwrap();
        c.memcpy_dtod_async(SimTime::ZERO, 0, src, 1, dst).unwrap();
        assert_eq!(ivs(&c, e01()).0, 3);
        c.set_session(a).unwrap();
        assert_eq!(ivs(&c, e01()).0, 2);
    }

    #[test]
    fn edge_rekey_bumps_epoch_and_restarts_counters() {
        use pipellm_crypto::channel::IV_LIMIT;
        let mut c = cluster(2, CcMode::On);
        // Open a session whose a→b counter sits inside the headroom, on
        // both ends of the one edge and on both devices.
        let ends = c.edge_mut(e01()).unwrap();
        let sid = ends[0].open_session_with_initial_ivs(IV_LIMIT - 2, 1);
        ends[1].open_session_with_initial_ivs(IV_LIMIT - 2, 1);
        for d in 0..2 {
            c.device_mut(d).open_session();
        }
        c.set_session(sid).unwrap();
        let ends = c.edge(e01()).unwrap();
        assert!(ends[0].needs_rekey(), "a's sender is inside the headroom");
        assert!(!ends[1].needs_rekey(), "b's sender is not");
        // A b → a transfer rekeys the edge first, though only the other
        // direction is short of IVs: both ends move to epoch 1, both
        // counters restart, and the transfer rides the fresh epoch.
        let src = seed_buffer(&mut c, 1, 6);
        let dst = c.device_mut(0).alloc_device(CHUNK).unwrap();
        c.memcpy_dtod_async(SimTime::ZERO, 1, src, 0, dst).unwrap();
        let [a, b] = c.edge(e01()).unwrap();
        assert_eq!((a.epoch(), b.epoch()), (1, 1));
        assert_eq!(ivs(&c, e01()), (1, 2), "counters restart after rekey");
        assert_eq!(
            c.device(0).device_memory().get(dst).unwrap(),
            &Payload::Real(vec![6; CHUNK as usize])
        );
        assert!(
            !c.edge(e01()).unwrap().iter().any(EdgeCrypto::needs_rekey),
            "fresh epoch is far from the limit"
        );
    }

    #[test]
    fn session_switch_keeps_lockstep() {
        let mut c = cluster(2, CcMode::On);
        let b = c.open_session();
        let src = seed_buffer(&mut c, 0, 0xcd);
        let dst = c.device_mut(1).alloc_device(CHUNK).unwrap();
        c.memcpy_dtod_async(SimTime::ZERO, 0, src, 1, dst).unwrap();
        // Switch to tenant B: the next hop seals under B's keys and IVs.
        c.set_session(b).unwrap();
        c.memcpy_dtod_async(SimTime::ZERO, 0, src, 1, dst).unwrap();
        assert_eq!(ivs(&c, e01()), (2, 1));
        assert_eq!(
            c.device(1).device_memory().get(dst).unwrap(),
            &Payload::Real(vec![0xcd; CHUNK as usize])
        );
    }

    #[test]
    fn foreign_rekey_keeps_lockstep() {
        let mut c = cluster(2, CcMode::On);
        let src = seed_buffer(&mut c, 1, 0x22);
        let dst = c.device_mut(0).alloc_device(CHUNK).unwrap();
        c.memcpy_dtod_async(SimTime::ZERO, 1, src, 0, dst).unwrap();
        // Something else rekeys the whole edge (both directions' keys and
        // counters restart) between two hops.
        for end in c.edge_mut(e01()).unwrap() {
            end.rekey_to(1);
        }
        // The next hop seals under the fresh epoch.
        c.memcpy_dtod_async(SimTime::ZERO, 1, src, 0, dst).unwrap();
        assert_eq!(c.edge(e01()).unwrap()[1].epoch(), 1);
        assert_eq!(ivs(&c, e01()), (1, 2));
        assert_eq!(
            c.device(0).device_memory().get(dst).unwrap(),
            &Payload::Real(vec![0x22; CHUNK as usize])
        );
    }

    #[test]
    fn unknown_session_is_rejected_cluster_wide() {
        let mut c = cluster(2, CcMode::On);
        let bogus = SessionId(42);
        assert!(matches!(
            c.set_session(bogus),
            Err(GpuError::UnknownSession { session }) if session == bogus
        ));
        assert!(c.close_session(SessionId::DEFAULT).is_err());
    }

    #[test]
    fn timeline_summary_reports_devices_and_edges() {
        let mut c = cluster(3, CcMode::On);
        let src = seed_buffer(&mut c, 0, 8);
        let dst = c.device_mut(1).alloc_device(CHUNK).unwrap();
        c.memcpy_dtod_async(SimTime::ZERO, 0, src, 1, dst).unwrap();
        let now = c.synchronize(SimTime::ZERO);
        let summary = c.timeline_summary(now);
        assert_eq!(summary.devices.len(), 3);
        assert_eq!(summary.edges.len(), 3);
        assert!(summary.total_edge_serialization() > Duration::ZERO);
        let used = summary.edges.iter().find(|r| r.label == "edge0-1").unwrap();
        assert_eq!(used.ops, 1);
    }

    #[test]
    fn cluster_runtime_serves_the_sessioned_surface() {
        let mut rt = ClusterRuntime::new(cluster(2, CcMode::On));
        assert_eq!(rt.label(), "CC");
        let a = rt.active_session();
        let b = rt.open_session();
        rt.set_session(b).unwrap();
        let src = rt.alloc_host(Payload::Real(vec![3u8; 1024]));
        let dst = rt.alloc_device(1024).unwrap();
        rt.memcpy_htod(SimTime::ZERO, dst, src).unwrap();
        rt.synchronize(SimTime::ZERO);
        let ca = rt.session_counters(a).unwrap();
        let cb = rt.session_counters(b).unwrap();
        assert_eq!((ca.h2d_tx, cb.h2d_tx), (1, 2));
        // The session exists on the edge too, in lockstep with device ids.
        assert_eq!(rt.cluster().edge(e01()).unwrap()[0].tx_iv(), 1);
    }

    // ---------------------------------------------------------------
    // Chaos injection
    // ---------------------------------------------------------------

    use pipellm_chaos::FaultPlan;

    fn storm_cluster(n: usize) -> ClusterContext {
        ClusterContext::new(ClusterConfig {
            devices: n,
            cc: CcMode::On,
            device_capacity: 1 << 30,
            chaos: Some(Arc::new(ChaosInjector::new(
                FaultPlan::new(3).with_frame_rate(1.0),
            ))),
            ..ClusterConfig::default()
        })
    }

    #[test]
    fn faulted_dtod_keeps_the_edge_in_lockstep() {
        let mut c = storm_cluster(2);
        let src = seed_buffer(&mut c, 0, 0x11);
        let dst = c.device_mut(1).alloc_device(CHUNK).unwrap();
        let err = c.memcpy_dtod_async(SimTime::ZERO, 0, src, 1, dst);
        assert!(
            matches!(err, Err(GpuError::TransferFaulted { iv: 1, .. })),
            "got {err:?}"
        );
        assert_eq!(ivs(&c, e01()).0, 2, "both ends burned the edge IV");
        assert_eq!(c.edge_stats(e01()).unwrap().faulted, 1);
        assert!(
            !matches!(
                c.device(1).device_memory().get(dst).unwrap(),
                Payload::Real(_)
            ),
            "faulted hop must not deliver plaintext"
        );
        // A retry at the fresh IV with the injector suppressed lands the
        // payload: the channel survived the fault.
        let chaos = Arc::clone(c.chaos().unwrap());
        let _quiet = chaos.suppress();
        c.memcpy_dtod_async(SimTime::ZERO, 0, src, 1, dst).unwrap();
        assert_eq!(ivs(&c, e01()).0, 3);
        assert_eq!(
            c.device(1).device_memory().get(dst).unwrap(),
            &Payload::Real(vec![0x11; CHUNK as usize])
        );
    }

    #[test]
    fn faulted_submit_dtod_burns_the_validated_iv() {
        let mut c = storm_cluster(2);
        let chaos = Arc::clone(c.chaos().unwrap());
        let src = seed_buffer(&mut c, 1, 0x22);
        let dst = c.device_mut(0).alloc_device(CHUNK).unwrap();
        // One clean b → a hop first, so the IV the fault burns is not the
        // session's first.
        {
            let _quiet = chaos.suppress();
            c.memcpy_dtod_async(SimTime::ZERO, 1, src, 0, dst).unwrap();
        }
        let iv = ivs(&c, e01()).1;
        assert_eq!(iv, 2);
        let err = c.memcpy_dtod_async(SimTime::ZERO, 1, src, 0, dst);
        assert!(
            matches!(err, Err(GpuError::TransferFaulted { iv: burned, .. }) if burned == iv),
            "got {err:?}"
        );
        // Both ends burned exactly that IV; the other direction is untouched.
        assert_eq!(ivs(&c, e01()), (1, iv + 1));
        // The retry seals at the fresh IV and lands the payload.
        let _quiet = chaos.suppress();
        c.memcpy_dtod_async(SimTime::ZERO, 1, src, 0, dst).unwrap();
        assert_eq!(ivs(&c, e01()), (1, iv + 2));
        assert_eq!(
            c.device(0).device_memory().get(dst).unwrap(),
            &Payload::Real(vec![0x22; CHUNK as usize])
        );
    }

    #[test]
    fn set_chaos_reaches_devices_and_edges() {
        let mut c = cluster(2, CcMode::On);
        assert!(c.chaos().is_none());
        c.set_chaos(Arc::new(ChaosInjector::new(
            FaultPlan::new(9).with_frame_rate(1.0),
        )));
        // Host link of device 0 faults...
        let src = c.device_mut(0).host_mut().alloc_real(vec![7; 64]);
        let dst = c.device_mut(0).alloc_device(64).unwrap();
        let err = c.device_mut(0).memcpy_htod_async(SimTime::ZERO, dst, src);
        assert!(matches!(err, Err(GpuError::TransferFaulted { .. })));
        // ...and so does the edge.
        let esrc = seed_buffer(&mut c, 0, 0x33);
        let edst = c.device_mut(1).alloc_device(CHUNK).unwrap();
        let err = c.memcpy_dtod_async(SimTime::ZERO, 0, esrc, 1, edst);
        assert!(matches!(err, Err(GpuError::TransferFaulted { .. })));
    }
}
