//! The simulated CUDA context: device memory + secure channel + timing
//! resources behind an asynchronous memcpy API.
//!
//! In CC mode this context behaves like the H100 + CUDA stack the paper
//! describes (§2.2): `memcpy_htod_async` seals the payload with AES-GCM at
//! the host counter IV, the simulated copy engine opens it at the device
//! counter IV, and the IVs advance in lockstep without ever being
//! transmitted. Delivering ciphertext out of order genuinely fails
//! authentication.
//!
//! Two API surfaces coexist:
//!
//! - the **application surface** (`memcpy_*`, `synchronize`,
//!   `launch_compute`) used by serving engines — equivalent to stock CUDA;
//! - the **interposition surface** (`seal_region`, `submit_htod_sealed`,
//!   `send_nop`, `memcpy_dtoh_raw`, `crypto_pool_mut`, `drain_faults`)
//!   equivalent to the CUDA/OpenSSL hooks the PipeLLM prototype installs
//!   (§6: "PipeLLM also hacks those OpenSSL APIs to decouple encryption or
//!   decryption from the memory copy API").

use crate::memory::{DeviceMemory, DevicePtr, HostMemory, HostRegion, MemoryError, Payload};
use crate::pages::{Access, PageRegistry, Protection};
use crate::timing::IoTimingModel;
use pipellm_chaos::{ChaosInjector, Fault, FaultKind, FaultSite};
use pipellm_crypto::channel::{DeferredOpen, Direction, RxContext, SealedMessage, SecureChannel};
use pipellm_crypto::engine::CryptoEngine;
use pipellm_crypto::gcm::TAG_LEN;
use pipellm_crypto::kv;
use pipellm_crypto::session::{SessionId, SessionManager};
use pipellm_crypto::CryptoError;
use pipellm_sim::resource::{GpuEngine, Link, Reservation, WorkerPool};
use pipellm_sim::time::SimTime;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Whether confidential computing is enabled on the context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CcMode {
    /// No encryption: transfers move plaintext at full PCIe bandwidth.
    Off,
    /// NVIDIA CC: every transfer is sealed/opened under the IV discipline.
    On,
}

/// Errors surfaced by the GPU context.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GpuError {
    /// A memory management error.
    Memory(MemoryError),
    /// A cryptographic error (IV mismatch, authentication failure, …).
    Crypto(CryptoError),
    /// An operation that requires CC mode was invoked with CC off.
    CcDisabled,
    /// A session id that names no live session.
    UnknownSession {
        /// The unknown id.
        session: SessionId,
    },
    /// A frame was lost or mangled in flight (injected chaos or a real
    /// link fault). Under the sentinel discipline both endpoints consumed
    /// the frame's IV — the channel is still in lockstep and the burned IV
    /// is never reused — but the payload was **not** delivered. The
    /// operation is retryable: a retry re-seals at a fresh IV.
    TransferFaulted {
        /// What happened to the frame ([`FaultKind::label`]).
        fault: &'static str,
        /// The sender-side IV the frame burned.
        iv: u64,
    },
    /// An open failed *outside* any injected-fault window: the two
    /// endpoints fell out of IV lockstep, which no retry can repair. The
    /// stage label pinpoints which hop broke.
    ChannelDesync {
        /// Which transfer path observed the desync.
        stage: &'static str,
        /// The receiver-side IV the failing frame carried.
        iv: u64,
        /// The underlying cryptographic failure.
        source: CryptoError,
    },
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::Memory(e) => write!(f, "memory error: {e}"),
            GpuError::Crypto(e) => write!(f, "crypto error: {e}"),
            GpuError::CcDisabled => f.write_str("operation requires confidential computing mode"),
            GpuError::UnknownSession { session } => write!(f, "unknown {session}"),
            GpuError::TransferFaulted { fault, iv } => {
                write!(f, "transfer faulted ({fault}) at IV {iv}; channel resynced")
            }
            GpuError::ChannelDesync { stage, iv, source } => {
                write!(f, "channel desync on {stage} at IV {iv}: {source}")
            }
        }
    }
}

impl std::error::Error for GpuError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GpuError::Memory(e) => Some(e),
            GpuError::Crypto(e) => Some(e),
            GpuError::ChannelDesync { source, .. } => Some(source),
            GpuError::CcDisabled
            | GpuError::UnknownSession { .. }
            | GpuError::TransferFaulted { .. } => None,
        }
    }
}

impl From<MemoryError> for GpuError {
    fn from(e: MemoryError) -> Self {
        GpuError::Memory(e)
    }
}

impl From<CryptoError> for GpuError {
    fn from(e: CryptoError) -> Self {
        GpuError::Crypto(e)
    }
}

/// Opens a frame that already cleared its fault-injection window, so a
/// failure here is a genuine loss of IV lockstep rather than injected
/// chaos. The [`CryptoError`] is handled at this choke point — classified
/// as a [`GpuError::ChannelDesync`] with the stage and IV that broke —
/// rather than blindly propagated from each call site.
pub(crate) fn open_delivered(
    rx: &mut RxContext,
    sealed: SealedMessage,
    stage: &'static str,
) -> Result<Vec<u8>, GpuError> {
    let mut buf = sealed.bytes;
    match rx.open_in_place(&sealed.aad, &mut buf) {
        Ok(()) => Ok(buf),
        Err(source) => Err(GpuError::ChannelDesync {
            stage,
            iv: sealed.iv,
            source,
        }),
    }
}

/// One entry in the low-level transfer trace — the only information PipeLLM
/// is allowed to observe (paper §4.2: "only low-level memory-copy
/// information is available").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferRecord {
    /// Session whose channel carried the transfer.
    pub session: SessionId,
    /// Transfer direction.
    pub direction: Direction,
    /// Host-side region.
    pub region: HostRegion,
    /// Device-side buffer.
    pub device: DevicePtr,
    /// Payload length in bytes.
    pub len: u64,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion time (data usable at destination).
    pub completed: SimTime,
    /// IV consumed on the wire, when CC is enabled.
    pub iv: Option<u64>,
}

/// One block of a swapped-out KV group whose device→host transfer has
/// completed but whose host-side decryption is deferred (paper §5.4): the
/// destination region is access-revoked under `cookie`, and `ciphertext`
/// is the authoritative at-rest copy of the block until the owner opens it
/// and stores the plaintext.
#[derive(Debug)]
pub struct DeferredKvOpen {
    /// Destination (access-revoked) host region.
    pub region: HostRegion,
    /// Payload kind byte from the transfer descriptor.
    pub kind: u8,
    /// `ciphertext || tag` — genuine AES-GCM bytes sealed by the device.
    pub ciphertext: Vec<u8>,
    /// Associated data the ciphertext authenticates under.
    pub aad: Arc<[u8]>,
    /// Decryption handle at the IV reserved in wire order.
    pub open: DeferredOpen,
    /// When the scheduled background open completes on the crypto pool.
    pub ready_at: SimTime,
    /// Page-fault cookie guarding the revoked destination pages.
    pub cookie: u64,
}

/// Timing of one asynchronous memcpy.
///
/// `api_return` is when control returns to the calling CPU thread. Figure 2
/// of the paper shows that with CC enabled the "asynchronous" API blocks for
/// the encryption ("encryption and decryption processes are coupled with the
/// API call"), so under native CC `api_return` includes the seal time.
/// `complete` is when the data is usable at the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemcpyTiming {
    /// When the API call returns to the caller.
    pub api_return: SimTime,
    /// When the transferred data is usable.
    pub complete: SimTime,
}

/// Aggregate I/O statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Host→device operations.
    pub h2d_ops: u64,
    /// Host→device payload bytes.
    pub h2d_bytes: u64,
    /// Device→host operations.
    pub d2h_ops: u64,
    /// Device→host payload bytes.
    pub d2h_bytes: u64,
    /// NOP (1-byte IV-advance) transfers.
    pub nops: u64,
    /// Transfers lost to injected (or real) link faults. Each one burned
    /// an IV on both endpoints and delivered nothing.
    pub faulted_ops: u64,
}

/// Snapshot of one session's four IV counters (both directions, both
/// endpoints). In a healthy session the endpoints advance in lockstep:
/// every committed H2D seal was opened by the device and vice versa.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionCounters {
    /// Host-side H2D sender counter (next IV a swap-in consumes).
    pub h2d_tx: u64,
    /// Device-side H2D receiver counter.
    pub h2d_rx: u64,
    /// Device-side D2H sender counter.
    pub d2h_tx: u64,
    /// Host-side D2H receiver counter.
    pub d2h_rx: u64,
}

impl SessionCounters {
    /// Whether both directions' endpoints agree — no message was sealed
    /// and then lost, and none was opened twice.
    pub fn in_lockstep(&self) -> bool {
        self.h2d_tx == self.h2d_rx && self.d2h_tx == self.d2h_rx
    }
}

/// Configuration for constructing a [`CudaContext`].
#[derive(Debug, Clone)]
pub struct ContextConfig {
    /// CC mode.
    pub cc: CcMode,
    /// Timing calibration.
    pub timing: IoTimingModel,
    /// Device memory capacity in bytes (H100-SXM: 80 GB).
    pub device_capacity: u64,
    /// CPU crypto worker threads available to this context. This one knob
    /// sizes both crypto timelines: the *real* [`CryptoEngine`] pool that
    /// chunk-seals the actual bytes and the simulated [`WorkerPool`] the
    /// timing layer reserves — the same `k` on both. Blocking paths are
    /// priced as `k`-wide gangs ([`CpuCryptoModel::pool_seal_time`]);
    /// speculative seals are priced as whole chunks pipelined one per
    /// worker (§7.1), the queue depth keeping the pool busy.
    ///
    /// [`CpuCryptoModel::pool_seal_time`]: pipellm_crypto::cost::CpuCryptoModel::pool_seal_time
    pub crypto_threads: usize,
    /// Key-derivation seed for the secure channel.
    pub seed: u64,
    /// An existing engine to share (a [`ClusterContext`] hands one pool to
    /// all of its devices); `None` spawns a fresh `crypto_threads`-wide
    /// pool for this context.
    ///
    /// [`ClusterContext`]: crate::cluster::ClusterContext
    pub engine: Option<Arc<CryptoEngine>>,
    /// Fault injector for chaos testing; `None` (the default) injects
    /// nothing and costs one branch per transfer.
    pub chaos: Option<Arc<ChaosInjector>>,
}

impl Default for ContextConfig {
    fn default() -> Self {
        ContextConfig {
            cc: CcMode::On,
            timing: IoTimingModel::default(),
            device_capacity: 80 * 1_000_000_000,
            crypto_threads: 1,
            seed: 0x9e37,
            engine: None,
            chaos: None,
        }
    }
}

/// The simulated device + driver context.
pub struct CudaContext {
    cc: CcMode,
    timing: IoTimingModel,
    crypto_threads: usize,
    host: HostMemory,
    device_mem: DeviceMemory,
    /// Per-session secure channels, keyed from one root secret. All
    /// sessions share every other resource in this struct: the link, the
    /// crypto pool, the GPU engine, and both memories.
    sessions: SessionManager,
    /// Session the session-unaware API surface currently operates on.
    active: SessionId,
    link: Link,
    crypto_pool: WorkerPool,
    /// The real worker pool chunk-sealing the actual bytes; installed on
    /// every session channel, same width as `crypto_pool` models.
    engine: Arc<CryptoEngine>,
    gpu: GpuEngine,
    pages: PageRegistry,
    pending: Vec<SimTime>,
    trace: Vec<TransferRecord>,
    nop_log: Vec<SimTime>,
    faults: Vec<u64>,
    stats: IoStats,
    /// Recycled NOP ciphertext buffer: IV-padding bursts allocate nothing.
    nop_staging: Vec<u8>,
    /// Fault injector; frames it fires on are absorbed under the sentinel
    /// discipline (IV burned on both endpoints, nothing delivered).
    chaos: Option<Arc<ChaosInjector>>,
}

impl fmt::Debug for CudaContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CudaContext")
            .field("cc", &self.cc)
            .field("device_used", &self.device_mem.used())
            .field("pending_ops", &self.pending.len())
            .field("stats", &self.stats)
            .finish()
    }
}

/// Builds the AAD descriptor authenticated with every sealed transfer.
fn descriptor(kind: u8, len: u64, addr: u64) -> Vec<u8> {
    let mut aad = Vec::with_capacity(17);
    aad.push(kind);
    aad.extend_from_slice(&len.to_be_bytes());
    aad.extend_from_slice(&addr.to_be_bytes());
    aad
}

/// Stages a payload's plaintext into `buf` (serialized via
/// [`Payload::write_plaintext`], with tag headroom reserved) and returns
/// the AAD descriptor. The buffer then flows through the channel's
/// prepared-seal API without further copies.
pub(crate) fn stage_plaintext(payload: &Payload, addr: u64, buf: &mut Vec<u8>) -> Vec<u8> {
    // Clear before reserving: recycled pool buffers arrive with their old
    // contents, and reserving against the stale length would double the
    // allocation instead of reusing it.
    buf.clear();
    buf.reserve(payload.plaintext_len() + TAG_LEN);
    let kind = payload.write_plaintext(buf);
    descriptor(kind, payload.len(), addr)
}

/// Reads the payload kind back out of a sealed transfer's descriptor.
pub(crate) fn sealed_kind(sealed: &SealedMessage) -> u8 {
    sealed.aad.first().copied().unwrap_or(Payload::KIND_REAL)
}

/// Absorbs an in-flight frame fault at the receiving endpoint under the
/// sentinel discipline: a dropped frame burns its IV via [`RxContext::skip`];
/// a corrupted or truncated frame fails authentication and its buffer is
/// scrubbed to sentinel bytes. Either way the receiver's counter advances
/// exactly once — matching the sender's consumed IV — so the channel stays
/// in lockstep and the burned IV is never reused. Returns that IV.
pub(crate) fn absorb_frame_fault(rx: &mut RxContext, fault: Fault, sealed: SealedMessage) -> u64 {
    match fault.kind {
        FaultKind::DropFrame => rx.skip(),
        _ => {
            let iv = sealed.iv;
            let mut bytes = sealed.bytes;
            fault.apply_to_frame(&mut bytes);
            // A mangled frame cannot authenticate; if the fault somehow
            // left it intact the open still consumes the same IV and the
            // plaintext is discarded here — lockstep holds either way.
            let _ = rx.open_in_place_or_sentinel(&sealed.aad, &mut bytes);
            iv
        }
    }
}

impl CudaContext {
    /// Creates a context from a configuration.
    pub fn new(config: ContextConfig) -> Self {
        let cc_enabled = config.cc == CcMode::On;
        let link = Link::new(
            config.timing.link_gbps(cc_enabled),
            config.timing.pcie_latency,
        );
        let engine = config
            .engine
            .unwrap_or_else(|| Arc::new(CryptoEngine::new(config.crypto_threads.max(1))));
        let mut sessions = SessionManager::from_seed(config.seed);
        sessions.set_engine(Arc::clone(&engine));
        let active = sessions.open();
        debug_assert_eq!(active, SessionId::DEFAULT);
        CudaContext {
            cc: config.cc,
            timing: config.timing,
            crypto_threads: config.crypto_threads.max(1),
            host: HostMemory::new(),
            device_mem: DeviceMemory::new(config.device_capacity),
            sessions,
            active,
            link,
            crypto_pool: WorkerPool::new(config.crypto_threads),
            engine,
            gpu: GpuEngine::new(),
            pages: PageRegistry::new(),
            pending: Vec::new(),
            trace: Vec::new(),
            nop_log: Vec::new(),
            faults: Vec::new(),
            stats: IoStats::default(),
            nop_staging: Vec::new(),
            chaos: config.chaos,
        }
    }

    /// CC mode of this context.
    pub fn cc_mode(&self) -> CcMode {
        self.cc
    }

    /// The active session's channel pair.
    fn channel(&self) -> &SecureChannel {
        self.sessions
            .channel(self.active)
            .expect("active session is always live")
    }

    /// Mutable access to the active session's channel pair.
    fn channel_mut(&mut self) -> &mut SecureChannel {
        self.sessions
            .channel_mut(self.active)
            .expect("active session is always live")
    }

    // ---------------------------------------------------------------
    // Session surface
    // ---------------------------------------------------------------

    /// Opens a new tenant session with freshly derived channel keys; the
    /// active session is unchanged.
    pub fn open_session(&mut self) -> SessionId {
        self.sessions.open()
    }

    /// Makes `session` the target of the session-unaware API surface
    /// (every `memcpy_*`, seal, NOP, and IV accessor).
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownSession`] if no such session is live.
    pub fn set_session(&mut self, session: SessionId) -> Result<(), GpuError> {
        if !self.sessions.contains(session) {
            return Err(GpuError::UnknownSession { session });
        }
        self.active = session;
        Ok(())
    }

    /// The session the context currently operates on.
    pub fn active_session(&self) -> SessionId {
        self.active
    }

    /// Live session ids in creation order.
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.sessions.ids()
    }

    /// Closes a session (the active session cannot be closed).
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownSession`] if no such session is live or it is
    /// the active one.
    pub fn close_session(&mut self, session: SessionId) -> Result<(), GpuError> {
        if session == self.active || !self.sessions.close(session) {
            return Err(GpuError::UnknownSession { session });
        }
        Ok(())
    }

    /// Snapshot of all four IV counters of `session`'s channel.
    pub fn session_counters(&self, session: SessionId) -> Option<SessionCounters> {
        let ch = self.sessions.channel(session)?;
        Some(SessionCounters {
            h2d_tx: ch.host().tx().next_iv(),
            h2d_rx: ch.device().rx().next_iv(),
            d2h_tx: ch.device().tx().next_iv(),
            d2h_rx: ch.host().rx().next_iv(),
        })
    }

    /// The session manager (rekey hooks, epochs, derivation).
    pub fn session_manager(&self) -> &SessionManager {
        &self.sessions
    }

    /// Mutable session manager — e.g. to drive an IV-exhaustion rekey.
    pub fn session_manager_mut(&mut self) -> &mut SessionManager {
        &mut self.sessions
    }

    /// The timing calibration in use.
    pub fn timing(&self) -> &IoTimingModel {
        &self.timing
    }

    /// Host memory (CVM private memory).
    pub fn host(&self) -> &HostMemory {
        &self.host
    }

    /// Mutable host memory. Prefer [`CudaContext::host_write`] /
    /// [`CudaContext::host_touch`] for content mutation so page protection
    /// fires; direct access is for allocation.
    pub fn host_mut(&mut self) -> &mut HostMemory {
        &mut self.host
    }

    /// Device memory statistics.
    pub fn device_memory(&self) -> &DeviceMemory {
        &self.device_mem
    }

    /// Mutable device memory — test and benchmark support for seeding
    /// device buffers without a transfer.
    pub fn device_memory_mut(&mut self) -> &mut DeviceMemory {
        &mut self.device_mem
    }

    /// The page-protection registry (the MPK/PKU stand-in).
    pub fn pages_mut(&mut self) -> &mut PageRegistry {
        &mut self.pages
    }

    /// The CPU crypto worker pool timeline.
    pub fn crypto_pool_mut(&mut self) -> &mut WorkerPool {
        &mut self.crypto_pool
    }

    /// The real multi-threaded crypto engine behind this context's
    /// channels (the `crypto_threads`-wide twin of the simulated pool).
    pub fn crypto_engine(&self) -> &Arc<CryptoEngine> {
        &self.engine
    }

    /// Configured crypto worker threads (the gang width of blocking
    /// seals/opens on both the real and the simulated timeline).
    pub fn crypto_threads(&self) -> usize {
        self.crypto_threads
    }

    /// The PCIe link timeline.
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// The GPU compute engine timeline.
    pub fn gpu_engine(&self) -> &GpuEngine {
        &self.gpu
    }

    /// Aggregate I/O statistics.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// The observed transfer trace (PipeLLM's predictor input).
    pub fn trace(&self) -> &[TransferRecord] {
        &self.trace
    }

    /// Completion times of NOP transfers. Together with [`CudaContext::trace`]
    /// this is the *attacker-visible* wire metadata (ciphertext lengths and
    /// timings) used by the §8.1 side-channel analysis.
    pub fn nop_log(&self) -> &[SimTime] {
        &self.nop_log
    }

    /// Drains and returns page-fault cookies raised since the last call.
    pub fn drain_faults(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.faults)
    }

    /// Installs a chaos injector; subsequent CC transfers roll for frame
    /// faults at their site before delivery.
    pub fn set_chaos(&mut self, chaos: Arc<ChaosInjector>) {
        self.chaos = Some(chaos);
    }

    /// The installed chaos injector, if any.
    pub fn chaos(&self) -> Option<&Arc<ChaosInjector>> {
        self.chaos.as_ref()
    }

    /// Rolls the injector (if any) for one in-flight frame at `site`.
    fn roll_frame(&self, site: FaultSite) -> Option<Fault> {
        self.chaos.as_ref().and_then(|c| c.roll_frame(site))
    }

    // ---------------------------------------------------------------
    // Application surface
    // ---------------------------------------------------------------

    /// Allocates device memory.
    ///
    /// # Errors
    ///
    /// [`GpuError::Memory`] when the device is out of memory.
    pub fn alloc_device(&mut self, len: u64) -> Result<DevicePtr, GpuError> {
        Ok(self.device_mem.alloc(len)?)
    }

    /// Frees device memory.
    ///
    /// # Errors
    ///
    /// [`GpuError::Memory`] when `ptr` is not a live allocation.
    pub fn free_device(&mut self, ptr: DevicePtr) -> Result<(), GpuError> {
        Ok(self.device_mem.dealloc(ptr)?)
    }

    /// Asynchronous host→device copy (`cudaMemcpyAsync` analogue).
    ///
    /// With CC off the payload moves in plaintext at full link bandwidth
    /// and the API returns immediately. With CC on this is the *native
    /// NVIDIA CC* path: the calling thread seals the payload (gang-parallel
    /// across the context's crypto threads), then the transfer proceeds —
    /// encryption on the critical path, and the "asynchronous" API blocks
    /// until the ciphertext is produced, as the paper's Figure 2 measures.
    ///
    /// # Errors
    ///
    /// [`GpuError::Memory`] for unknown addresses or length mismatches.
    pub fn memcpy_htod_async(
        &mut self,
        now: SimTime,
        dst: DevicePtr,
        src: HostRegion,
    ) -> Result<MemcpyTiming, GpuError> {
        let len = self.host.get(src.addr)?.payload().len();
        let timing = match self.cc {
            CcMode::Off => {
                let payload = self.host.get(src.addr)?.payload().clone();
                self.device_mem.store(dst, payload)?;
                let wire = self.link.transfer(now, len);
                self.record(Direction::HostToDevice, src, dst, len, now, wire.end, None);
                MemcpyTiming {
                    api_return: now,
                    complete: wire.end,
                }
            }
            CcMode::On => {
                // Zero-copy seal: the payload's plaintext is staged once
                // into the buffer that becomes the sealed message (and,
                // after the in-place open below, the device payload).
                let mut buf = Vec::new();
                let aad = stage_plaintext(self.host.get(src.addr)?.payload(), src.addr.0, &mut buf);
                let sealed = self
                    .channel_mut()
                    .host_mut()
                    .tx_mut()
                    .seal_prepared(aad.into(), buf)?;
                let iv = sealed.iv;
                // Intra-op gang parallelism: the chunked engine shards one
                // buffer across all crypto threads (the Figure 9 "CC-4t"
                // baseline), near-linear until it saturates PCIe.
                let seal_time = self.timing.crypto.pool_seal_time(len, self.crypto_threads);
                let enc = self.crypto_pool.reserve_gang(now, seal_time);
                let wire = self.link.transfer(enc.end, len);
                if let Some(fault) = self.roll_frame(FaultSite::HostToDevice) {
                    self.stats.faulted_ops += 1;
                    self.pending.push(wire.end + self.timing.cc_control);
                    absorb_frame_fault(self.channel_mut().device_mut().rx_mut(), fault, sealed);
                    return Err(GpuError::TransferFaulted {
                        fault: fault.kind.label(),
                        iv,
                    });
                }
                self.deliver_to_device_owned(dst, sealed)?;
                let done = wire.end + self.timing.cc_control;
                self.record(Direction::HostToDevice, src, dst, len, now, done, Some(iv));
                MemcpyTiming {
                    api_return: enc.end,
                    complete: done,
                }
            }
        };
        self.stats.h2d_ops += 1;
        self.stats.h2d_bytes += len;
        self.pending.push(timing.complete);
        Ok(timing)
    }

    /// Asynchronous device→host copy (`cudaMemcpyAsync` analogue).
    ///
    /// With CC on this is the native path: transfer, then decrypt on a
    /// crypto worker before the data is usable — decryption on the critical
    /// path.
    ///
    /// # Errors
    ///
    /// [`GpuError::Memory`] for unknown pointers/addresses or length
    /// mismatches.
    pub fn memcpy_dtoh_async(
        &mut self,
        now: SimTime,
        dst: HostRegion,
        src: DevicePtr,
    ) -> Result<MemcpyTiming, GpuError> {
        let len = self.device_mem.get(src)?.len();
        let timing = match self.cc {
            CcMode::Off => {
                let payload = self.device_mem.get(src)?.clone();
                self.host_store(dst, payload)?;
                let wire = self.link.transfer(now, len);
                MemcpyTiming {
                    api_return: now,
                    complete: wire.end,
                }
            }
            CcMode::On => {
                // Zero-copy: the device payload is staged once; the same
                // buffer carries ciphertext over the wire and, after the
                // in-place open, becomes the host-side payload.
                let mut buf = Vec::new();
                let aad = stage_plaintext(self.device_mem.get(src)?, dst.addr.0, &mut buf);
                let sealed = self
                    .channel_mut()
                    .device_mut()
                    .tx_mut()
                    .seal_prepared(aad.into(), buf)?;
                let wire = self.link.transfer(now, len);
                let open_time = self.timing.crypto.pool_open_time(len, self.crypto_threads);
                let dec = self.crypto_pool.reserve_gang(wire.end, open_time);
                let kind = sealed_kind(&sealed);
                if let Some(fault) = self.roll_frame(FaultSite::DeviceToHost) {
                    let iv = sealed.iv;
                    self.stats.faulted_ops += 1;
                    self.pending.push(dec.end + self.timing.cc_control);
                    absorb_frame_fault(self.channel_mut().host_mut().rx_mut(), fault, sealed);
                    return Err(GpuError::TransferFaulted {
                        fault: fault.kind.label(),
                        iv,
                    });
                }
                let opened = open_delivered(
                    self.channel_mut().host_mut().rx_mut(),
                    sealed,
                    "memcpy_dtoh",
                )?;
                self.host_store(dst, Payload::from_plaintext(kind, opened))?;
                let done = dec.end + self.timing.cc_control;
                // The call blocks until the plaintext is in place.
                MemcpyTiming {
                    api_return: done,
                    complete: done,
                }
            }
        };
        self.record(
            Direction::DeviceToHost,
            dst,
            src,
            len,
            now,
            timing.complete,
            None,
        );
        self.stats.d2h_ops += 1;
        self.stats.d2h_bytes += len;
        self.pending.push(timing.complete);
        Ok(timing)
    }

    /// Waits for all asynchronous operations submitted so far
    /// (`cudaDeviceSynchronize` analogue). Returns the time at which
    /// everything pending has completed (at least `now`).
    pub fn synchronize(&mut self, now: SimTime) -> SimTime {
        let latest = self.pending.drain(..).max().unwrap_or(SimTime::ZERO);
        latest.max(now)
    }

    /// Runs a GPU kernel whose inputs are ready at `ready` for `duration`.
    pub fn launch_compute(&mut self, ready: SimTime, duration: Duration) -> Reservation {
        self.gpu.run(ready, duration)
    }

    /// Writes host memory through the page-protection check.
    ///
    /// Any write-protected or access-revoked range overlapping the target
    /// faults; cookies are queued for [`CudaContext::drain_faults`].
    ///
    /// # Errors
    ///
    /// [`GpuError::Memory`] for unknown addresses or length mismatches.
    pub fn host_write(
        &mut self,
        addr: crate::memory::HostAddr,
        payload: Payload,
    ) -> Result<(), GpuError> {
        let region = self.host.get(addr)?.region();
        let cookies = self.pages.access(region, Access::Write);
        self.faults.extend(cookies);
        Ok(self.host.write(addr, payload)?)
    }

    /// Logically mutates a host chunk through the page-protection check.
    ///
    /// # Errors
    ///
    /// [`GpuError::Memory`] for unknown addresses.
    pub fn host_touch(&mut self, addr: crate::memory::HostAddr) -> Result<(), GpuError> {
        let region = self.host.get(addr)?.region();
        let cookies = self.pages.access(region, Access::Write);
        self.faults.extend(cookies);
        Ok(self.host.touch(addr)?)
    }

    /// Reads host memory through the page-protection check (access-revoked
    /// ranges fault; used by asynchronous decryption).
    ///
    /// # Errors
    ///
    /// [`GpuError::Memory`] for unknown addresses.
    pub fn host_read(&mut self, region: HostRegion) -> Result<&Payload, GpuError> {
        let cookies = self.pages.access(region, Access::Read);
        self.faults.extend(cookies);
        Ok(self.host.get(region.addr)?.payload())
    }

    fn host_store(&mut self, dst: HostRegion, payload: Payload) -> Result<(), GpuError> {
        // Stores coming from the device are DMA writes; they bypass MPK
        // protection (the copy engine writes CVM shared memory, and the
        // runtime copies into private memory with protection suspended).
        Ok(self.host.write(dst.addr, payload)?)
    }

    // ---------------------------------------------------------------
    // Interposition surface (what PipeLLM hooks)
    // ---------------------------------------------------------------

    /// Seals a host region at an arbitrary (future) IV without advancing
    /// the channel counter: speculative pre-encryption.
    ///
    /// # Errors
    ///
    /// - [`GpuError::Memory`] for unknown addresses.
    /// - [`GpuError::Crypto`] ([`CryptoError::IvReused`]) if `iv` is below
    ///   the host counter.
    /// - [`GpuError::CcDisabled`] with CC off.
    pub fn seal_region(&mut self, src: HostRegion, iv: u64) -> Result<SealedMessage, GpuError> {
        self.seal_region_into(src, iv, &mut Vec::new())
    }

    /// [`CudaContext::seal_region`] sealing into a recycled staging buffer:
    /// `buf` (cleared, capacity reused) is staged with the plaintext,
    /// sealed in place, and moved out as the message's ciphertext storage.
    /// The PipeLLM runtime feeds this from its buffer pool so steady-state
    /// speculation allocates nothing.
    ///
    /// # Errors
    ///
    /// As [`CudaContext::seal_region`]. On error the caller keeps `buf`
    /// (untouched or holding staged plaintext), so pooled buffers survive
    /// freed-chunk and IV races.
    pub fn seal_region_into(
        &mut self,
        src: HostRegion,
        iv: u64,
        buf: &mut Vec<u8>,
    ) -> Result<SealedMessage, GpuError> {
        if self.cc == CcMode::Off {
            return Err(GpuError::CcDisabled);
        }
        // Pre-check the IV so the fallible steps run before the buffer is
        // committed; `seal_speculative_prepared` re-checks the same
        // counter, which cannot advance in between.
        if iv < self.channel().host().tx().next_iv() {
            return Err(GpuError::Crypto(CryptoError::IvReused { iv }));
        }
        let aad = stage_plaintext(self.host.get(src.addr)?.payload(), src.addr.0, buf);
        let staged = std::mem::take(buf);
        Ok(self
            .channel()
            .host()
            .tx()
            .seal_speculative_prepared(iv, aad.into(), staged)?)
    }

    /// The host-side sender counter (next IV to be consumed).
    pub fn current_h2d_iv(&self) -> u64 {
        self.channel().host().tx().next_iv()
    }

    /// Submits pre-encrypted ciphertext to the device.
    ///
    /// `ready_at` is when the ciphertext became available (the caller's
    /// speculative-encryption pipeline determines it); the wire transfer
    /// starts at `max(now, ready_at)`. The host counter is committed at the
    /// message's IV, and the device opens the message at its own counter —
    /// if the caller mis-aligned IVs this fails *exactly* like the real
    /// hardware would.
    ///
    /// # Errors
    ///
    /// - [`GpuError::Crypto`] with [`CryptoError::IvReused`] /
    ///   [`CryptoError::IvMismatch`] if the message's IV is behind/ahead of
    ///   the host counter.
    /// - [`GpuError::Crypto`] with [`CryptoError::AuthenticationFailed`] if
    ///   the device rejects the ciphertext.
    /// - [`GpuError::Memory`] for unknown pointers or length mismatches.
    pub fn submit_htod_sealed(
        &mut self,
        now: SimTime,
        ready_at: SimTime,
        dst: DevicePtr,
        src: HostRegion,
        sealed: &SealedMessage,
        payload_len: u64,
    ) -> Result<MemcpyTiming, GpuError> {
        if self.cc == CcMode::Off {
            return Err(GpuError::CcDisabled);
        }
        self.channel_mut().host_mut().tx_mut().commit(sealed)?;
        let depart = now.max(ready_at);
        let wire = self.link.transfer(depart, payload_len);
        if let Some(fault) = self.roll_frame(FaultSite::HostToDevice) {
            self.stats.faulted_ops += 1;
            self.pending.push(wire.end + self.timing.cc_control);
            absorb_frame_fault(
                self.channel_mut().device_mut().rx_mut(),
                fault,
                sealed.clone(),
            );
            return Err(GpuError::TransferFaulted {
                fault: fault.kind.label(),
                iv: sealed.iv,
            });
        }
        self.deliver_to_device(dst, sealed)?;
        let done = wire.end + self.timing.cc_control;
        self.record(
            Direction::HostToDevice,
            src,
            dst,
            payload_len,
            now,
            done,
            Some(sealed.iv),
        );
        self.stats.h2d_ops += 1;
        self.stats.h2d_bytes += payload_len;
        self.pending.push(done);
        // Pre-encrypted submission returns immediately: the calling thread
        // only queues the staged ciphertext for DMA.
        Ok(MemcpyTiming {
            api_return: now,
            complete: done,
        })
    }

    /// Sends a NOP — a 1-byte dummy transfer that advances the IV on both
    /// sides (paper §5.3). Costs one crypto-pool slot and a tiny wire op.
    pub fn send_nop(&mut self, now: SimTime) -> Result<SimTime, GpuError> {
        if self.cc == CcMode::Off {
            return Err(GpuError::CcDisabled);
        }
        let staging = std::mem::take(&mut self.nop_staging);
        let tx = self.channel_mut().host_mut().tx_mut();
        let (aad, buf) = tx.nop_message(staging);
        let nop = tx.seal_prepared(aad, buf)?;
        let enc = self.crypto_pool.reserve(now, self.timing.crypto.nop_time());
        let wire = self.link.transfer(enc.end, 1);
        // The receiver opens the message's own buffer in place, and that
        // 17-byte buffer cycles back for the next NOP — padding bursts
        // allocate nothing on either endpoint.
        self.nop_staging =
            open_delivered(self.channel_mut().device_mut().rx_mut(), nop, "send_nop")?;
        self.stats.nops += 1;
        let done = wire.end + self.timing.cc_control;
        self.nop_log.push(done);
        self.pending.push(done);
        Ok(done)
    }

    /// Device→host raw transfer: seals on the device, moves the wire, and
    /// opens functionally — but performs **no** decryption-time accounting
    /// and does not write host memory. The caller (PipeLLM's asynchronous
    /// decryption, §5.4) owns scheduling the decrypt cost, storing the
    /// plaintext, and protecting the destination pages.
    ///
    /// Returns `(wire_done, opened_payload)`.
    ///
    /// # Errors
    ///
    /// [`GpuError::Memory`] / [`GpuError::Crypto`] as for the native path.
    pub fn memcpy_dtoh_raw(
        &mut self,
        now: SimTime,
        dst: HostRegion,
        src: DevicePtr,
    ) -> Result<(SimTime, Payload), GpuError> {
        if self.cc == CcMode::Off {
            return Err(GpuError::CcDisabled);
        }
        let len = self.device_mem.get(src)?.len();
        let mut buf = Vec::new();
        let aad = stage_plaintext(self.device_mem.get(src)?, dst.addr.0, &mut buf);
        let sealed = self
            .channel_mut()
            .device_mut()
            .tx_mut()
            .seal_prepared(aad.into(), buf)?;
        let iv = sealed.iv;
        let kind = sealed_kind(&sealed);
        let wire = self.link.transfer(now, len);
        if let Some(fault) = self.roll_frame(FaultSite::DeviceToHost) {
            self.stats.faulted_ops += 1;
            self.pending.push(wire.end + self.timing.cc_control);
            absorb_frame_fault(self.channel_mut().host_mut().rx_mut(), fault, sealed);
            return Err(GpuError::TransferFaulted {
                fault: fault.kind.label(),
                iv,
            });
        }
        let opened = open_delivered(
            self.channel_mut().host_mut().rx_mut(),
            sealed,
            "memcpy_dtoh_raw",
        )?;
        let opened_payload = Payload::from_plaintext(kind, opened);
        let done = wire.end + self.timing.cc_control;
        self.record(Direction::DeviceToHost, dst, src, len, now, done, Some(iv));
        self.stats.d2h_ops += 1;
        self.stats.d2h_bytes += len;
        self.pending.push(done);
        Ok((done, opened_payload))
    }

    /// Swap-out of one paged KV group with deferred decryption — the
    /// encrypted-KV-cache transfer path (§5.2/§5.4).
    ///
    /// The whole group is sealed **on the device** in one fused batch
    /// submission ([`seal_batch_prepared`]) at the active session's next
    /// D2H IVs (consecutive, in eviction order, AAD-bound to
    /// `group`/index/count via [`pipellm_crypto::kv`]): every block is
    /// staged into a buffer drawn from `pool` first, then a single gang
    /// dispatch produces per-block ciphertexts and tags — not one
    /// dispatch per block. The host accepts every block in wire order —
    /// reserving its IV so the channel endpoints stay in lockstep — but
    /// does **not** decrypt: each destination region is
    /// [`Protection::AccessRevoked`] under its cookie, one group-wide
    /// background open is scheduled on the crypto pool (priced as a
    /// single fused dispatch, [`CpuCryptoModel::batch_seal_time`]), and
    /// the returned [`DeferredKvOpen`]s carry the at-rest ciphertext plus
    /// the handles the owner uses to land the plaintext (or to decrypt
    /// synchronously when a fault forces it). The call returns to the
    /// issuing thread immediately.
    ///
    /// [`seal_batch_prepared`]: pipellm_crypto::channel::TxContext::seal_batch_prepared
    /// [`CpuCryptoModel::batch_seal_time`]: pipellm_crypto::cost::CpuCryptoModel::batch_seal_time
    ///
    /// # Panics
    ///
    /// Panics if `cookies.len() != blocks.len()`.
    ///
    /// The call is atomic: every failure mode is checked *before* the
    /// first block seals, so an error leaves no IVs consumed, no pages
    /// revoked, and no staging buffers drawn — a half-sealed group would
    /// otherwise strand earlier blocks behind revocations whose deferred
    /// opens were dropped.
    ///
    /// # Errors
    ///
    /// - [`GpuError::CcDisabled`] with CC off.
    /// - [`GpuError::Memory`] for unknown device pointers.
    /// - [`GpuError::Crypto`] ([`CryptoError::IvExhausted`]) if the group
    ///   would run the session's D2H stream into its headroom.
    pub fn swap_out_kv_group(
        &mut self,
        now: SimTime,
        group: u64,
        blocks: &[(HostRegion, DevicePtr)],
        cookies: &[u64],
        pool: &mut Vec<Vec<u8>>,
    ) -> Result<Vec<DeferredKvOpen>, GpuError> {
        if self.cc == CcMode::Off {
            return Err(GpuError::CcDisabled);
        }
        assert_eq!(cookies.len(), blocks.len(), "one cookie per KV block");
        // Validate up front so the seal loop below cannot fail midway.
        for &(_, src) in blocks {
            self.device_mem.get(src)?;
        }
        let remaining = self.channel().device().tx().remaining_ivs();
        if remaining < blocks.len() as u64 {
            return Err(GpuError::Crypto(CryptoError::IvExhausted {
                iv: self.channel().device().tx().next_iv() + remaining,
            }));
        }
        let count = blocks.len() as u32;
        // Stage every block's plaintext into a pooled buffer first; the
        // same buffer becomes the sealed message's ciphertext storage
        // and, once opened, the at-rest plaintext — no copies.
        let mut staged = Vec::with_capacity(blocks.len());
        let mut msgs = Vec::with_capacity(blocks.len());
        for (index, &(_, src)) in blocks.iter().enumerate() {
            let payload = self.device_mem.get(src)?;
            let mut buf = pool.pop().unwrap_or_default();
            buf.clear();
            buf.reserve(payload.plaintext_len() + TAG_LEN);
            let kind = payload.write_plaintext(&mut buf);
            let len = payload.len();
            staged.push((kind, len));
            msgs.push((kv::kv_block_aad(kind, group, index as u32, count, len), buf));
        }
        // One fused gang submission seals the whole group at consecutive
        // IVs with per-block tags, replacing per-block gang dispatch.
        let sealed_group = self
            .channel_mut()
            .device_mut()
            .tx_mut()
            .seal_batch_prepared(msgs)?;
        let total_bytes: u64 = staged.iter().map(|&(_, len)| len).sum();
        let mut parts = Vec::with_capacity(blocks.len());
        let mut last_arrival = now;
        for ((sealed, &(kind, len)), (&(dst, src), &cookie)) in sealed_group
            .into_iter()
            .zip(&staged)
            .zip(blocks.iter().zip(cookies))
        {
            let iv = sealed.iv;
            // DMA of the ciphertext into CVM shared memory.
            let wire = self.link.transfer(now, len);
            let done = wire.end + self.timing.cc_control;
            // The host accepts the block in wire order (IV reserved now).
            let open = self.channel_mut().host_mut().rx_mut().defer_open();
            self.pages.protect(dst, Protection::AccessRevoked, cookie);
            self.record(Direction::DeviceToHost, dst, src, len, now, done, Some(iv));
            self.stats.d2h_ops += 1;
            self.stats.d2h_bytes += len;
            self.pending.push(done);
            last_arrival = last_arrival.max(done);
            // Chaos on the swap-out path damages the *at-rest* ciphertext
            // after the host accepted the frame: the group's atomicity
            // contract holds (every IV consumed, every page revoked, every
            // open scheduled), and the damage surfaces when the deferred
            // open authenticates at finalize time.
            let mut ciphertext = sealed.bytes;
            if let Some(fault) = self.roll_frame(FaultSite::KvSwapOut) {
                if fault.apply_to_frame(&mut ciphertext) {
                    self.stats.faulted_ops += 1;
                }
            }
            parts.push((dst, kind, ciphertext, sealed.aad, open, cookie));
        }
        // The group decrypts as ONE background submission once the last
        // block is off the wire: a single fused dispatch covers every
        // block, so all deferred opens share its completion time.
        let open_time =
            self.timing
                .crypto
                .batch_seal_time(total_bytes, blocks.len(), self.crypto_threads);
        let reservation = self.crypto_pool.reserve(last_arrival, open_time);
        Ok(parts
            .into_iter()
            .map(
                |(region, kind, ciphertext, aad, open, cookie)| DeferredKvOpen {
                    region,
                    kind,
                    ciphertext,
                    aad,
                    open,
                    ready_at: reservation.end,
                    cookie,
                },
            )
            .collect())
    }

    /// Stores a payload into host memory bypassing page protection — the
    /// interposer's own store path (it manages protection itself).
    ///
    /// # Errors
    ///
    /// [`GpuError::Memory`] for unknown addresses or length mismatches.
    pub fn host_store_unchecked(
        &mut self,
        dst: HostRegion,
        payload: Payload,
    ) -> Result<(), GpuError> {
        self.host_store(dst, payload)
    }

    /// Opens a sealed message at the device endpoint and stores the
    /// payload. The borrowed variant clones the ciphertext so the caller
    /// keeps it — required by the protocol's NOP-pad-and-resubmit recovery
    /// (an `IvMismatch` ciphertext is resubmitted verbatim), and what lets
    /// the runtime recycle the staged buffer into its pool afterwards
    /// (consuming it here would move it into the device payload and starve
    /// the pool instead). The owned variant decrypts the message's own
    /// buffer in place for paths that truly finish with it.
    fn deliver_to_device(
        &mut self,
        dst: DevicePtr,
        sealed: &SealedMessage,
    ) -> Result<(), GpuError> {
        self.deliver_to_device_owned(dst, sealed.clone())
    }

    fn deliver_to_device_owned(
        &mut self,
        dst: DevicePtr,
        sealed: SealedMessage,
    ) -> Result<(), GpuError> {
        let kind = sealed_kind(&sealed);
        let mut opened = sealed.bytes;
        let rx = self.channel_mut().device_mut().rx_mut();
        match rx.open_in_place(&sealed.aad, &mut opened) {
            Ok(()) => {}
            // A mismatched/reused IV here is the *recoverable*
            // speculative-submit signal: the interposer inserts NOPs to
            // advance the counter (or re-seals) and retries, so the error
            // keeps its Crypto classification rather than being escalated
            // to a channel desync.
            Err(e) => return Err(GpuError::Crypto(e)),
        }
        self.device_mem
            .store(dst, Payload::from_plaintext(kind, opened))?;
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        direction: Direction,
        region: HostRegion,
        device: DevicePtr,
        len: u64,
        submitted: SimTime,
        completed: SimTime,
        iv: Option<u64>,
    ) {
        self.trace.push(TransferRecord {
            session: self.active,
            direction,
            region,
            device,
            len,
            submitted,
            completed,
            iv,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pages::Protection;

    fn ctx(cc: CcMode) -> CudaContext {
        CudaContext::new(ContextConfig {
            cc,
            device_capacity: 1 << 30,
            ..Default::default()
        })
    }

    #[test]
    fn cc_off_moves_plaintext() {
        let mut c = ctx(CcMode::Off);
        let src = c.host_mut().alloc_real(vec![1, 2, 3, 4]);
        let dst = c.alloc_device(4).unwrap();
        let t = c.memcpy_htod_async(SimTime::ZERO, dst, src).unwrap();
        assert!(t.complete > SimTime::ZERO);
        assert_eq!(
            t.api_return,
            SimTime::ZERO,
            "CC-off API returns immediately"
        );
        assert_eq!(
            c.device_memory().get(dst).unwrap(),
            &Payload::Real(vec![1, 2, 3, 4])
        );
        assert_eq!(c.stats().h2d_bytes, 4);
    }

    #[test]
    fn cc_on_roundtrips_real_bytes() {
        let mut c = ctx(CcMode::On);
        let data: Vec<u8> = (0..=255).collect();
        let src = c.host_mut().alloc_real(data.clone());
        let dst = c.alloc_device(256).unwrap();
        c.memcpy_htod_async(SimTime::ZERO, dst, src).unwrap();
        assert_eq!(
            c.device_memory().get(dst).unwrap(),
            &Payload::Real(data.clone())
        );
        // And back.
        let back = c.host_mut().alloc_real(vec![0u8; 256]);
        c.memcpy_dtoh_async(SimTime::ZERO, back, dst).unwrap();
        assert_eq!(
            c.host().get(back.addr).unwrap().payload(),
            &Payload::Real(data)
        );
    }

    #[test]
    fn cc_on_roundtrips_virtual_payloads() {
        let mut c = ctx(CcMode::On);
        let src = c.host_mut().alloc_virtual(64 << 20);
        let dst = c.alloc_device(64 << 20).unwrap();
        c.memcpy_htod_async(SimTime::ZERO, dst, src).unwrap();
        assert_eq!(
            c.device_memory().get(dst).unwrap(),
            &Payload::Virtual {
                len: 64 << 20,
                version: 0
            }
        );
    }

    #[test]
    fn cc_on_is_slower_than_cc_off() {
        let bytes = 32 << 20;
        let mut off = ctx(CcMode::Off);
        let mut on = ctx(CcMode::On);
        let (s_off, s_on) = (
            off.host_mut().alloc_virtual(bytes),
            on.host_mut().alloc_virtual(bytes),
        );
        let d_off = off.alloc_device(bytes).unwrap();
        let d_on = on.alloc_device(bytes).unwrap();
        let t_off = off
            .memcpy_htod_async(SimTime::ZERO, d_off, s_off)
            .unwrap()
            .complete;
        let t_on = on
            .memcpy_htod_async(SimTime::ZERO, d_on, s_on)
            .unwrap()
            .complete;
        let ratio = t_on.as_secs_f64() / t_off.as_secs_f64();
        assert!(
            ratio > 6.0,
            "CC should be ~an order of magnitude slower, got {ratio:.1}x"
        );
    }

    #[test]
    fn synchronize_reports_latest_completion() {
        let mut c = ctx(CcMode::On);
        let a = c.host_mut().alloc_virtual(1 << 20);
        let b = c.host_mut().alloc_virtual(8 << 20);
        let da = c.alloc_device(1 << 20).unwrap();
        let db = c.alloc_device(8 << 20).unwrap();
        let ta = c.memcpy_htod_async(SimTime::ZERO, da, a).unwrap().complete;
        let tb = c.memcpy_htod_async(SimTime::ZERO, db, b).unwrap().complete;
        let sync = c.synchronize(SimTime::ZERO);
        assert_eq!(sync, ta.max(tb));
        // A second synchronize with nothing pending returns `now`.
        let now = SimTime::from_millis(100);
        assert_eq!(c.synchronize(now), now);
    }

    #[test]
    fn speculative_seal_and_submit_in_order() {
        let mut c = ctx(CcMode::On);
        let src = c.host_mut().alloc_real(vec![42u8; 128]);
        let dst = c.alloc_device(128).unwrap();
        let iv = c.current_h2d_iv();
        let sealed = c.seal_region(src, iv).unwrap();
        let done = c
            .submit_htod_sealed(SimTime::ZERO, SimTime::ZERO, dst, src, &sealed, 128)
            .unwrap();
        assert!(done.complete > SimTime::ZERO);
        assert_eq!(done.api_return, SimTime::ZERO);
        assert_eq!(
            c.device_memory().get(dst).unwrap(),
            &Payload::Real(vec![42u8; 128])
        );
    }

    #[test]
    fn speculative_submit_with_future_iv_needs_nops() {
        let mut c = ctx(CcMode::On);
        let src = c.host_mut().alloc_real(vec![7u8; 32]);
        let dst = c.alloc_device(32).unwrap();
        let iv = c.current_h2d_iv() + 2; // predicted two ops ahead
        let sealed = c.seal_region(src, iv).unwrap();
        // Committing now must fail with a recoverable mismatch.
        let err = c
            .submit_htod_sealed(SimTime::ZERO, SimTime::ZERO, dst, src, &sealed, 32)
            .unwrap_err();
        assert!(matches!(
            err,
            GpuError::Crypto(CryptoError::IvMismatch { iv: _, expected: _ })
        ));
        // Two NOPs advance the IV; then the submit succeeds and the device
        // (whose counter also advanced by the NOPs) authenticates it.
        c.send_nop(SimTime::ZERO).unwrap();
        c.send_nop(SimTime::ZERO).unwrap();
        c.submit_htod_sealed(SimTime::ZERO, SimTime::ZERO, dst, src, &sealed, 32)
            .unwrap();
        assert_eq!(
            c.device_memory().get(dst).unwrap(),
            &Payload::Real(vec![7u8; 32])
        );
        assert_eq!(c.stats().nops, 2);
    }

    #[test]
    fn stale_speculative_ciphertext_is_refused() {
        let mut c = ctx(CcMode::On);
        let src = c.host_mut().alloc_real(vec![1u8; 16]);
        let other = c.host_mut().alloc_real(vec![2u8; 16]);
        let dst = c.alloc_device(16).unwrap();
        let iv = c.current_h2d_iv();
        let sealed = c.seal_region(src, iv).unwrap();
        // A competing native transfer consumes the IV first.
        c.memcpy_htod_async(SimTime::ZERO, dst, other).unwrap();
        let err = c
            .submit_htod_sealed(SimTime::ZERO, SimTime::ZERO, dst, src, &sealed, 16)
            .unwrap_err();
        assert!(matches!(
            err,
            GpuError::Crypto(CryptoError::IvReused { .. })
        ));
    }

    #[test]
    fn dtoh_raw_gives_plaintext_without_host_store() {
        let mut c = ctx(CcMode::On);
        let dst_host = c.host_mut().alloc_real(vec![0u8; 8]);
        let dev = c.alloc_device(8).unwrap();
        let src = c.host_mut().alloc_real(vec![9u8; 8]);
        c.memcpy_htod_async(SimTime::ZERO, dev, src).unwrap();
        let (done, payload) = c.memcpy_dtoh_raw(SimTime::ZERO, dst_host, dev).unwrap();
        assert!(done > SimTime::ZERO);
        assert_eq!(payload, Payload::Real(vec![9u8; 8]));
        // Host memory untouched until the caller stores it.
        assert_eq!(
            c.host().get(dst_host.addr).unwrap().payload(),
            &Payload::Real(vec![0u8; 8])
        );
        c.host_store_unchecked(dst_host, payload).unwrap();
        assert_eq!(
            c.host().get(dst_host.addr).unwrap().payload(),
            &Payload::Real(vec![9u8; 8])
        );
    }

    #[test]
    fn kv_group_swap_out_defers_opens_behind_revoked_pages() {
        let mut c = ctx(CcMode::On);
        let data_a = vec![0xaau8; 256];
        let data_b = vec![0xbbu8; 256];
        let (dev_a, dev_b) = (c.alloc_device(256).unwrap(), c.alloc_device(256).unwrap());
        c.device_memory_mut()
            .store(dev_a, Payload::Real(data_a.clone()))
            .unwrap();
        c.device_memory_mut()
            .store(dev_b, Payload::Real(data_b.clone()))
            .unwrap();
        let host_a = c.host_mut().alloc_real(vec![0u8; 256]);
        let host_b = c.host_mut().alloc_real(vec![0u8; 256]);
        let before = c.session_counters(SessionId::DEFAULT).unwrap();
        let deferred = c
            .swap_out_kv_group(
                SimTime::ZERO,
                42,
                &[(host_a, dev_a), (host_b, dev_b)],
                &[501, 502],
                &mut Vec::new(),
            )
            .unwrap();
        assert_eq!(deferred.len(), 2);
        // Both destination regions are access-revoked under their cookies.
        assert_eq!(
            c.pages_mut().protection_of(host_a),
            Some(Protection::AccessRevoked)
        );
        assert_eq!(
            c.pages_mut().protection_of(host_b),
            Some(Protection::AccessRevoked)
        );
        // The channel advanced two D2H IVs on both endpoints (lockstep).
        let after = c.session_counters(SessionId::DEFAULT).unwrap();
        assert_eq!(after.d2h_tx, before.d2h_tx + 2);
        assert!(after.in_lockstep(), "{after:?}");
        // The at-rest bytes are genuine ciphertext, and the deferred opens
        // recover the exact plaintext — out of order.
        let [a, b]: [DeferredKvOpen; 2] = deferred.try_into().unwrap();
        assert_ne!(&a.ciphertext[..256], data_a.as_slice());
        assert!(a.ready_at > SimTime::ZERO);
        for (d, want) in [(b, data_b), (a, data_a)] {
            let mut buf = d.ciphertext;
            d.open.open_in_place(&d.aad, &mut buf).unwrap();
            assert_eq!(buf, want);
        }
    }

    #[test]
    fn kv_group_swap_out_is_atomic_near_iv_exhaustion() {
        use pipellm_crypto::channel::IV_LIMIT;
        let mut c = ctx(CcMode::On);
        // One D2H IV left; a two-block group cannot seal.
        let sid = c
            .session_manager_mut()
            .open_with_initial_ivs(1, IV_LIMIT - 1);
        c.set_session(sid).unwrap();
        let mut pairs = Vec::new();
        for _ in 0..2 {
            let dev = c.alloc_device(64).unwrap();
            let host = c.host_mut().alloc_real(vec![0u8; 64]);
            pairs.push((host, dev));
        }
        let mut pool = vec![Vec::with_capacity(128)];
        let before = c.session_counters(sid).unwrap();
        let err = c
            .swap_out_kv_group(SimTime::ZERO, 5, &pairs, &[1, 2], &mut pool)
            .unwrap_err();
        assert!(matches!(
            err,
            GpuError::Crypto(CryptoError::IvExhausted { .. })
        ));
        // Nothing moved: no revocations, no IVs consumed, no staging
        // buffers drawn — a half-sealed group would strand block 0
        // behind a revocation whose deferred open was dropped.
        assert_eq!(c.pages_mut().protection_of(pairs[0].0), None);
        assert_eq!(c.pages_mut().protection_of(pairs[1].0), None);
        assert_eq!(c.session_counters(sid).unwrap(), before);
        assert_eq!(pool.len(), 1, "no buffer was consumed");
        assert_eq!(c.stats().d2h_ops, 0);
    }

    #[test]
    fn kv_group_swap_out_requires_cc() {
        let mut c = ctx(CcMode::Off);
        let dev = c.alloc_device(16).unwrap();
        let host = c.host_mut().alloc_real(vec![0u8; 16]);
        assert!(matches!(
            c.swap_out_kv_group(SimTime::ZERO, 1, &[(host, dev)], &[9], &mut Vec::new()),
            Err(GpuError::CcDisabled)
        ));
    }

    #[test]
    fn page_faults_are_reported_via_cookies() {
        let mut c = ctx(CcMode::On);
        let region = c.host_mut().alloc_virtual(4096);
        c.pages_mut()
            .protect(region, Protection::WriteProtected, 77);
        c.host_touch(region.addr).unwrap();
        assert_eq!(c.drain_faults(), vec![77]);
        assert!(c.drain_faults().is_empty(), "faults drain once");
    }

    #[test]
    fn interposition_surface_requires_cc() {
        let mut c = ctx(CcMode::Off);
        let src = c.host_mut().alloc_virtual(64);
        assert!(matches!(c.seal_region(src, 1), Err(GpuError::CcDisabled)));
        assert!(matches!(
            c.send_nop(SimTime::ZERO),
            Err(GpuError::CcDisabled)
        ));
    }

    #[test]
    fn trace_records_ivs_and_sizes() {
        let mut c = ctx(CcMode::On);
        let src = c.host_mut().alloc_virtual(256 * 1024);
        let dst = c.alloc_device(256 * 1024).unwrap();
        c.memcpy_htod_async(SimTime::ZERO, dst, src).unwrap();
        let trace = c.trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].len, 256 * 1024);
        assert_eq!(trace[0].iv, Some(1));
        assert_eq!(trace[0].direction, Direction::HostToDevice);
    }

    #[test]
    fn compute_launches_account_stalls() {
        let mut c = ctx(CcMode::On);
        c.launch_compute(SimTime::from_micros(10), Duration::from_micros(5));
        assert_eq!(c.gpu_engine().io_stall_time(), Duration::from_micros(10));
    }

    // ---------------------------------------------------------------
    // Chaos injection
    // ---------------------------------------------------------------

    use pipellm_chaos::FaultPlan;

    /// A context whose every frame faults: frame fault probability 1.0.
    fn storm_ctx() -> CudaContext {
        CudaContext::new(ContextConfig {
            cc: CcMode::On,
            device_capacity: 1 << 30,
            chaos: Some(Arc::new(ChaosInjector::new(
                FaultPlan::new(7).with_frame_rate(1.0),
            ))),
            ..Default::default()
        })
    }

    #[test]
    fn faulted_htod_burns_the_iv_and_keeps_lockstep() {
        let mut c = storm_ctx();
        let src = c.host_mut().alloc_real(vec![0x42; 64]);
        let dst = c.alloc_device(64).unwrap();
        let err = c.memcpy_htod_async(SimTime::ZERO, dst, src);
        assert!(
            matches!(err, Err(GpuError::TransferFaulted { iv: 1, .. })),
            "got {err:?}"
        );
        let counters = c.session_counters(c.active_session()).unwrap();
        assert!(
            counters.in_lockstep(),
            "fault must not desync: {counters:?}"
        );
        assert_eq!(counters.h2d_tx, 2, "both endpoints consumed the IV");
        assert_eq!(c.stats().faulted_ops, 1);
        // The payload never landed: the allocation still holds its
        // uninitialized virtual stand-in, not the real bytes.
        assert!(
            !matches!(c.device_memory().get(dst).unwrap(), Payload::Real(_)),
            "faulted transfer must not deliver plaintext"
        );
    }

    #[test]
    fn faulted_dtoh_leaves_host_memory_untouched() {
        let mut c = storm_ctx();
        let dst = c.alloc_device(32).unwrap();
        c.device_memory_mut()
            .store(dst, Payload::Real(vec![9; 32]))
            .unwrap();
        let back = c.host_mut().alloc_real(vec![0u8; 32]);
        let err = c.memcpy_dtoh_async(SimTime::ZERO, back, dst);
        assert!(matches!(err, Err(GpuError::TransferFaulted { .. })));
        assert_eq!(
            c.host().get(back.addr).unwrap().payload(),
            &Payload::Real(vec![0u8; 32]),
            "faulted D2H must not write host memory"
        );
        let counters = c.session_counters(c.active_session()).unwrap();
        assert!(counters.in_lockstep());
        assert_eq!(counters.d2h_tx, 2);
    }

    #[test]
    fn retry_after_fault_succeeds_at_a_fresh_iv() {
        // Storm at ~50%: deterministic plan, so walk until one fault and
        // one success have both been observed.
        let mut c = CudaContext::new(ContextConfig {
            cc: CcMode::On,
            device_capacity: 1 << 30,
            chaos: Some(Arc::new(ChaosInjector::new(
                FaultPlan::new(11).with_frame_rate(0.5),
            ))),
            ..Default::default()
        });
        let data: Vec<u8> = (0..64).collect();
        let src = c.host_mut().alloc_real(data.clone());
        let dst = c.alloc_device(64).unwrap();
        let (mut faults, mut successes) = (0u32, 0u32);
        for _ in 0..64 {
            match c.memcpy_htod_async(SimTime::ZERO, dst, src) {
                Ok(_) => {
                    successes += 1;
                    assert_eq!(
                        c.device_memory().get(dst).unwrap(),
                        &Payload::Real(data.clone())
                    );
                }
                Err(GpuError::TransferFaulted { .. }) => faults += 1,
                Err(other) => panic!("unexpected error {other:?}"),
            }
            let counters = c.session_counters(c.active_session()).unwrap();
            assert!(counters.in_lockstep(), "desync after op: {counters:?}");
        }
        assert!(
            faults > 0 && successes > 0,
            "{faults} faults, {successes} successes"
        );
        assert_eq!(c.stats().faulted_ops as u32, faults);
    }

    #[test]
    fn faulted_submit_consumes_the_committed_iv() {
        let mut c = storm_ctx();
        let src = c.host_mut().alloc_real(vec![5; 48]);
        let dst = c.alloc_device(48).unwrap();
        let chaos = Arc::clone(c.chaos().unwrap());
        let iv = c.current_h2d_iv();
        let sealed = c.seal_region(src, iv).unwrap();
        let err = c.submit_htod_sealed(SimTime::ZERO, SimTime::ZERO, dst, src, &sealed, 48);
        assert!(matches!(err, Err(GpuError::TransferFaulted { .. })));
        let counters = c.session_counters(c.active_session()).unwrap();
        assert!(counters.in_lockstep());
        assert_eq!(counters.h2d_tx, iv + 1, "commit + sentinel burned the IV");
        // A fresh speculative seal at the next IV goes through when the
        // injector is suppressed (the recovery path runs clean).
        let _quiet = chaos.suppress();
        let sealed2 = c.seal_region(src, iv + 1).unwrap();
        c.submit_htod_sealed(SimTime::ZERO, SimTime::ZERO, dst, src, &sealed2, 48)
            .unwrap();
        assert_eq!(
            c.device_memory().get(dst).unwrap(),
            &Payload::Real(vec![5; 48])
        );
    }

    #[test]
    fn kv_swap_out_fault_surfaces_at_the_deferred_open() {
        let mut c = storm_ctx();
        let dev = c.alloc_device(128).unwrap();
        c.device_memory_mut()
            .store(dev, Payload::Real(vec![3; 128]))
            .unwrap();
        let host = c.host_mut().alloc_real(vec![0u8; 128]);
        let mut pool = Vec::new();
        // The group call itself succeeds: atomicity holds under chaos.
        let deferred = c
            .swap_out_kv_group(SimTime::ZERO, 1, &[(host, dev)], &[101], &mut pool)
            .unwrap();
        assert_eq!(deferred.len(), 1);
        assert_eq!(c.stats().faulted_ops, 1);
        let counters = c.session_counters(c.active_session()).unwrap();
        assert!(counters.in_lockstep(), "host reserved the block's IV");
        // The at-rest ciphertext was damaged, so the deferred open fails
        // authentication — cleanly.
        let block = &deferred[0];
        let mut buf = block.ciphertext.clone();
        assert!(block.open.open_in_place(&block.aad, &mut buf).is_err());
    }

    #[test]
    fn suppressed_injector_fires_nothing() {
        let mut c = storm_ctx();
        let src = c.host_mut().alloc_real(vec![1; 16]);
        let dst = c.alloc_device(16).unwrap();
        let chaos = Arc::clone(c.chaos().unwrap());
        let _quiet = chaos.suppress();
        for _ in 0..8 {
            c.memcpy_htod_async(SimTime::ZERO, dst, src).unwrap();
        }
        assert_eq!(c.stats().faulted_ops, 0);
    }
}
