//! Secure channels with the NVIDIA-CC incrementing-IV discipline.
//!
//! Figure 1 of the PipeLLM paper shows the protocol this module reproduces:
//! the CPU→GPU direction is sealed under `keyCPU` and the GPU→CPU direction
//! under `keyGPU`; each direction has a counter IV that both endpoints
//! advance in lockstep, **without the IV ever being transmitted**. A
//! receiver therefore always opens the next message at its own counter
//! value; a ciphertext sealed at any other IV fails authentication.
//!
//! # The channel core
//!
//! Nine seal/open methods, one per job the paper's protocol needs:
//!
//! | job | method |
//! |-----|--------|
//! | seal at the counter (native CC `cudaMemcpyAsync`) | [`TxContext::seal_prepared`], [`TxContext::seal_batch_prepared`] |
//! | §4.3 speculative pre-encryption at a future IV | [`TxContext::seal_speculative_prepared`] |
//! | §5.3 NOP padding | a committed seal of [`TxContext::nop_message`] |
//! | open at the receiver's own counter | [`RxContext::open_in_place`] |
//! | §5.4 deferred open, IV reserved in wire order | [`RxContext::defer_open`], then [`DeferredOpen::open_in_place`] |
//! | sentinel open (chaos: the IV burns, the bytes are scrubbed) | [`RxContext::open_in_place_or_sentinel`], [`DeferredOpen::open_in_place_or_sentinel`] |
//! | copy-in / copy-out for borrowed bytes | [`Endpoint::seal`], [`Endpoint::open`] |
//!
//! Every seal takes a *staged* buffer: the plaintext on entry, the
//! message's `ciphertext || tag` storage on return, so a caller that stages
//! with [`TAG_LEN`] headroom (see [`staging_buffer`]) never copies or
//! reallocates. Every open decrypts the caller's buffer in place and
//! truncates the tag. A commit ([`TxContext::commit`]) is what turns a
//! speculative message into a sendable one — it requires the counter to
//! have caught up exactly, which is why the paper's error handler needs
//! NOP padding and pipeline relinquishing.

use crate::engine::CryptoEngine;
use crate::gcm::{nonce_from_iv, AesGcm, BatchSealMsg, NONCE_LEN, TAG_LEN};
use crate::{CryptoError, Result};
use std::sync::Arc;

/// Direction tag mixed into every nonce so the two streams of a channel can
/// never collide even if their counters coincide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// CPU (CVM) to GPU enclave; the "swap in" direction.
    HostToDevice,
    /// GPU enclave to CPU; the "swap out" direction.
    DeviceToHost,
}

impl Direction {
    fn tag(self) -> u32 {
        match self {
            Direction::HostToDevice => 0x4832_4421, // "H2D!"
            Direction::DeviceToHost => 0x4432_4821, // "D2H!"
        }
    }
}

/// A sealed transfer: `ciphertext || tag` plus sender-side bookkeeping.
///
/// `iv` is *not* transmitted in the real protocol; it is carried here only
/// so the sending runtime (PipeLLM) can track which counter value each
/// speculative ciphertext was produced under. The receiver never reads it.
///
/// The associated data is reference-counted: the PipeLLM runtime clones
/// messages into its speculation queue and pools their ciphertext buffers,
/// and an `Arc` keeps those clones from duplicating the descriptor bytes
/// (the seed allocated a fresh `Vec` per message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedMessage {
    /// IV under which this message was sealed (sender bookkeeping only).
    pub iv: u64,
    /// Authenticated associated data (transfer descriptor).
    pub aad: Arc<[u8]>,
    /// `ciphertext || 16-byte tag`.
    pub bytes: Vec<u8>,
}

impl SealedMessage {
    /// Plaintext length this message decrypts to.
    pub fn plaintext_len(&self) -> usize {
        self.bytes.len().saturating_sub(TAG_LEN)
    }
}

/// Copies `plaintext` into a fresh buffer with [`TAG_LEN`] bytes of
/// headroom, ready for a prepared seal: the appended tag never reallocates.
pub fn staging_buffer(plaintext: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(plaintext.len() + TAG_LEN);
    buf.extend_from_slice(plaintext);
    buf
}

/// Fill byte for sentinel payloads: when a frame fails authentication under
/// the sentinel discipline ([`RxContext::open_in_place_or_sentinel`]), the
/// output buffer is overwritten with this value so neither the rejected
/// ciphertext nor any decryption intermediate can be mistaken for plaintext.
pub const SENTINEL_BYTE: u8 = 0xFE;

/// IVs reserved below `u64::MAX` as exhaustion headroom: no seal may use a
/// counter value at or above [`IV_LIMIT`]. The headroom keeps speculative
/// seals (which run ahead of the counter by `spec_depth + iv_slack`) from
/// ever computing an IV that wraps, and gives the session layer room to
/// notice and rekey before the stream truly runs dry.
pub const IV_HEADROOM: u64 = 1 << 16;

/// First unusable IV value: sealing at `iv >= IV_LIMIT` returns
/// [`CryptoError::IvExhausted`].
pub const IV_LIMIT: u64 = u64::MAX - IV_HEADROOM;

/// Sending half of one channel direction: a key plus the sender counter.
#[derive(Debug, Clone)]
pub struct TxContext {
    gcm: AesGcm,
    direction: Direction,
    next_iv: u64,
    /// Shared `b"nop"` descriptor, so NOP padding never re-allocates AAD.
    nop_aad: Arc<[u8]>,
}

impl TxContext {
    fn new(gcm: AesGcm, direction: Direction, initial_iv: u64) -> Self {
        TxContext {
            gcm,
            direction,
            next_iv: initial_iv,
            nop_aad: Arc::from(&b"nop"[..]),
        }
    }

    /// The IV the next committed send will consume.
    pub fn next_iv(&self) -> u64 {
        self.next_iv
    }

    /// IVs left before this direction hits the exhaustion headroom and
    /// every further seal fails with [`CryptoError::IvExhausted`].
    pub fn remaining_ivs(&self) -> u64 {
        IV_LIMIT.saturating_sub(self.next_iv)
    }

    /// Refuses IVs inside the exhaustion headroom (nonce-wrap guard).
    fn check_exhaustion(&self, iv: u64) -> Result<()> {
        if iv >= IV_LIMIT {
            return Err(CryptoError::IvExhausted { iv });
        }
        Ok(())
    }

    /// Attaches the multi-threaded crypto engine: large seals go through
    /// the chunked gang path (bit-identical ciphertext and tags).
    pub(crate) fn set_engine(&mut self, engine: Option<Arc<CryptoEngine>>) {
        self.gcm.set_engine(engine);
    }

    /// Seals one staged buffer at `iv` on the single-message path (large
    /// buffers gang across the engine), without touching the counter.
    fn seal_at(&self, iv: u64, aad: Arc<[u8]>, mut buf: Vec<u8>) -> Result<SealedMessage> {
        self.check_exhaustion(iv)?;
        self.gcm
            .seal_vec(&nonce_from_iv(self.direction.tag(), iv), &aad, &mut buf);
        Ok(SealedMessage {
            iv,
            aad,
            bytes: buf,
        })
    }

    /// Seals a staged buffer at the current counter and advances it: `buf`
    /// holds the plaintext on entry and becomes the message's
    /// `ciphertext || tag` storage — no copy, and any spare capacity the
    /// caller pooled is reused.
    ///
    /// This is what the stock CUDA library does inside `cudaMemcpyAsync`
    /// when CC is enabled: on-the-fly encryption coupled to the transfer.
    ///
    /// # Errors
    ///
    /// [`CryptoError::IvExhausted`] when the counter sits in the headroom;
    /// the counter has not advanced and `buf` is dropped.
    pub fn seal_prepared(&mut self, aad: Arc<[u8]>, buf: Vec<u8>) -> Result<SealedMessage> {
        let sealed = self.seal_at(self.next_iv, aad, buf)?;
        self.next_iv += 1;
        Ok(sealed)
    }

    /// Seals a run of staged buffers at **consecutive** committed IVs in
    /// one fused engine submission (see [`AesGcm::seal_batch`]): each
    /// `(aad, plaintext-buf)` pair becomes a [`SealedMessage`] with its
    /// own nonce, AAD, and tag, bit-identical to sealing them one
    /// [`TxContext::seal_prepared`] call at a time — only the dispatch is
    /// coalesced. The exhaustion check covers the whole batch **before**
    /// any IV is consumed, so a failing batch is all-or-nothing (unlike a
    /// loop of single seals, which consumes IVs up to the failure).
    ///
    /// A batch of one never gangs; a single large message belongs on
    /// [`TxContext::seal_prepared`].
    ///
    /// # Errors
    ///
    /// [`CryptoError::IvExhausted`] if the batch would run into the IV
    /// headroom; the counter has not advanced and the buffers are dropped.
    pub fn seal_batch_prepared(
        &mut self,
        msgs: Vec<(Arc<[u8]>, Vec<u8>)>,
    ) -> Result<Vec<SealedMessage>> {
        let n = msgs.len() as u64;
        if n == 0 {
            return Ok(Vec::new());
        }
        let start_iv = self.next_iv;
        self.check_exhaustion(start_iv + (n - 1))?;
        let mut out: Vec<SealedMessage> = msgs
            .into_iter()
            .enumerate()
            .map(|(i, (aad, bytes))| SealedMessage {
                iv: start_iv + i as u64,
                aad,
                bytes,
            })
            .collect();
        let direction = self.direction.tag();
        let mut batch: Vec<BatchSealMsg<'_>> = out
            .iter_mut()
            .map(|m| BatchSealMsg {
                nonce: nonce_from_iv(direction, m.iv),
                aad: &m.aad,
                buf: &mut m.bytes,
            })
            .collect();
        self.gcm.seal_batch(&mut batch);
        self.next_iv += n;
        Ok(out)
    }

    /// Seals a staged buffer at a **future** `iv` without advancing the
    /// counter. This is speculative pre-encryption (paper §4.3): the
    /// message only becomes sendable once the counter reaches `iv` exactly
    /// and [`TxContext::commit`] consumes it.
    ///
    /// # Errors
    ///
    /// [`CryptoError::IvReused`] if `iv` is below the counter (that IV has
    /// already been consumed), [`CryptoError::IvExhausted`] if it lies in
    /// the headroom; on error `buf` is dropped.
    pub fn seal_speculative_prepared(
        &self,
        iv: u64,
        aad: Arc<[u8]>,
        buf: Vec<u8>,
    ) -> Result<SealedMessage> {
        // Sealing under a consumed IV again would repeat a GCM nonce.
        if iv < self.next_iv {
            return Err(CryptoError::IvReused { iv });
        }
        self.seal_at(iv, aad, buf)
    }

    /// Stages a NOP (paper §5.3): a 1-byte dummy transfer whose only
    /// purpose is to advance the IV, under the shared `b"nop"` descriptor.
    /// Nothing is sealed here — the returned pair goes through an ordinary
    /// committed seal ([`TxContext::seal_prepared`], or
    /// [`TxContext::seal_batch_prepared`] for a burst). `buf` is a
    /// recycled staging buffer; once it has held a NOP, padding allocates
    /// nothing.
    pub fn nop_message(&self, mut buf: Vec<u8>) -> (Arc<[u8]>, Vec<u8>) {
        buf.clear();
        buf.reserve(1 + TAG_LEN);
        buf.push(0u8);
        (Arc::clone(&self.nop_aad), buf)
    }

    /// Commits a previously sealed speculative message, consuming the
    /// counter value it was sealed under.
    ///
    /// # Errors
    ///
    /// - [`CryptoError::IvReused`] if the message's IV is already behind the
    ///   counter (irrecoverable; the ciphertext must be discarded).
    /// - [`CryptoError::IvMismatch`] if the message's IV is ahead of the
    ///   counter (recoverable by NOP padding first).
    pub fn commit(&mut self, message: &SealedMessage) -> Result<()> {
        if message.iv < self.next_iv {
            return Err(CryptoError::IvReused { iv: message.iv });
        }
        if message.iv > self.next_iv {
            return Err(CryptoError::IvMismatch {
                iv: message.iv,
                expected: self.next_iv,
            });
        }
        self.next_iv += 1;
        Ok(())
    }
}

/// Reports an authentication failure at the receiver-side IV that was
/// expected (the GCM layer does not know it); other errors pass through.
fn at_iv(err: CryptoError, iv: u64) -> CryptoError {
    match err {
        CryptoError::AuthenticationFailed { .. } => {
            CryptoError::AuthenticationFailed { expected_iv: iv }
        }
        other => other,
    }
}

/// A decryption decoupled from its arrival (paper §5.4, §6).
///
/// Ciphertext always *arrives* in wire order, which fixes the IV it must be
/// opened under — but PipeLLM's hooked decryption workers perform the
/// actual opens later, possibly out of order with each other, off the
/// critical path. [`RxContext::defer_open`] reserves the counter value at
/// arrival time and hands back this self-contained handle; the receiver
/// counter stays in lockstep with the sender while the bytes stay sealed.
#[derive(Clone)]
pub struct DeferredOpen {
    /// Shared with the owning [`RxContext`]: a deferred open holds a
    /// pointer to the key schedule, not a copy of it, so a burst of
    /// pending blocks costs one `Arc` bump each.
    gcm: Arc<AesGcm>,
    nonce: [u8; NONCE_LEN],
    iv: u64,
}

impl std::fmt::Debug for DeferredOpen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeferredOpen")
            .field("iv", &self.iv)
            .finish()
    }
}

impl DeferredOpen {
    /// The counter value this open was reserved at.
    pub fn iv(&self) -> u64 {
        self.iv
    }

    /// Opens `buf` (`ciphertext || tag`) in place at the reserved IV,
    /// truncating the tag on success; on failure `buf` is unchanged.
    ///
    /// # Errors
    ///
    /// [`CryptoError::AuthenticationFailed`] if the bytes were not sealed
    /// at this handle's IV under the matching key (or were tampered with).
    pub fn open_in_place(&self, aad: &[u8], buf: &mut Vec<u8>) -> Result<()> {
        self.gcm
            .open_vec(&self.nonce, aad, buf)
            .map_err(|e| at_iv(e, self.iv))
    }

    /// Sentinel variant of [`DeferredOpen::open_in_place`]: the reserved IV
    /// was consumed at reservation time, so a failed open cannot disturb
    /// the channel — but the rejected bytes must not linger either. On
    /// failure `buf` is truncated to the plaintext length and overwritten
    /// with [`SENTINEL_BYTE`], and the error is returned for accounting.
    pub fn open_in_place_or_sentinel(&self, aad: &[u8], buf: &mut Vec<u8>) -> Result<()> {
        self.open_in_place(aad, buf).inspect_err(|_| {
            sentinel_fill(buf);
        })
    }
}

/// Replaces a rejected `ciphertext || tag` buffer with a sentinel payload
/// of the corresponding plaintext length (zero for frames shorter than a
/// tag), so no ciphertext byte survives in a buffer a caller might read.
fn sentinel_fill(buf: &mut Vec<u8>) {
    let plaintext_len = buf.len().saturating_sub(TAG_LEN);
    buf.truncate(plaintext_len);
    buf.iter_mut().for_each(|b| *b = SENTINEL_BYTE);
}

/// Receiving half of one channel direction: a key plus the receiver counter.
///
/// The key schedule lives behind an `Arc` so [`RxContext::defer_open`]
/// hands out handles at pointer cost instead of copying the AES round
/// keys and GHASH tables per deferred block.
#[derive(Debug, Clone)]
pub struct RxContext {
    gcm: Arc<AesGcm>,
    direction: Direction,
    next_iv: u64,
}

impl RxContext {
    fn new(gcm: AesGcm, direction: Direction, initial_iv: u64) -> Self {
        RxContext {
            gcm: Arc::new(gcm),
            direction,
            next_iv: initial_iv,
        }
    }

    /// The IV the receiver will use for the next message.
    pub fn next_iv(&self) -> u64 {
        self.next_iv
    }

    /// Attaches the multi-threaded crypto engine (see [`TxContext::set_engine`]).
    pub(crate) fn set_engine(&mut self, engine: Option<Arc<CryptoEngine>>) {
        let mut gcm = (*self.gcm).clone();
        gcm.set_engine(engine);
        self.gcm = Arc::new(gcm);
    }

    /// Runs one open at the receiver's own counter: the counter advances
    /// on success and stays put on failure.
    fn open_at_counter(
        &mut self,
        open: impl FnOnce(&AesGcm, &[u8; NONCE_LEN]) -> Result<()>,
    ) -> Result<()> {
        let iv = self.next_iv;
        open(&self.gcm, &nonce_from_iv(self.direction.tag(), iv)).map_err(|e| at_iv(e, iv))?;
        self.next_iv += 1;
        Ok(())
    }

    /// Opens `buf` (`ciphertext || tag`) at the receiver's own counter,
    /// decrypting in place and truncating the tag — the IV the sender
    /// recorded is deliberately never consulted, as in the real protocol.
    ///
    /// On success the counter advances. On failure it does not and `buf`
    /// is unchanged: the real hardware treats an authentication failure as
    /// a fatal session error, and the PipeLLM validator exists precisely
    /// to keep bad ciphertext from ever reaching this point.
    ///
    /// # Errors
    ///
    /// [`CryptoError::AuthenticationFailed`] when the bytes were not sealed
    /// at this counter value (or were tampered with); the error reports the
    /// receiver-side IV that was expected. [`CryptoError::TruncatedCiphertext`]
    /// for frames shorter than a tag.
    pub fn open_in_place(&mut self, aad: &[u8], buf: &mut Vec<u8>) -> Result<()> {
        self.open_at_counter(|gcm, nonce| gcm.open_vec(nonce, aad, buf))
    }

    /// Reserves the current counter value for a message that arrived in
    /// order but whose decryption is deferred: the counter advances *now*
    /// (keeping the endpoints in lockstep), and the returned handle opens
    /// the ciphertext later — out of order with other deferred opens, as
    /// PipeLLM's decoupled decryption workers do.
    pub fn defer_open(&mut self) -> DeferredOpen {
        let iv = self.next_iv;
        self.next_iv += 1;
        DeferredOpen {
            gcm: Arc::clone(&self.gcm),
            nonce: nonce_from_iv(self.direction.tag(), iv),
            iv,
        }
    }

    /// Sentinel-discipline open (chaos/error-handling path): like
    /// [`RxContext::open_in_place`], but a failed authentication **still
    /// consumes the IV**. The receiver stays in lockstep with the sender —
    /// the frame occupied a counter slot on the wire whether or not its
    /// bytes survived — and the slot is burned, never reused. On failure
    /// `buf` is truncated to the plaintext length and overwritten with
    /// [`SENTINEL_BYTE`] so no ciphertext byte can be mistaken for
    /// plaintext, and the error is returned for the caller's retry logic.
    ///
    /// Frames mangled below the tag length (truncations, drops modelled as
    /// empty frames) are handled the same way: the IV is consumed and the
    /// sentinel payload is empty.
    ///
    /// # Errors
    ///
    /// [`CryptoError::AuthenticationFailed`] / [`CryptoError::TruncatedCiphertext`]
    /// exactly as [`RxContext::open_in_place`] — but note the counter *has*
    /// advanced when this returns an error.
    pub fn open_in_place_or_sentinel(&mut self, aad: &[u8], buf: &mut Vec<u8>) -> Result<()> {
        self.defer_open().open_in_place_or_sentinel(aad, buf)
    }

    /// Consumes the next IV without opening anything: the resynchronization
    /// step for a frame that was lost in flight. The sender sealed at this
    /// counter value, so the receiver must burn it too — skipping keeps the
    /// endpoints in lockstep and guarantees the lost frame's IV is never
    /// reused. Returns the consumed IV.
    pub fn skip(&mut self) -> u64 {
        let iv = self.next_iv;
        self.next_iv += 1;
        iv
    }
}

/// Key material for both directions of a channel.
#[derive(Clone)]
pub struct ChannelKeys {
    h2d: [u8; 32],
    d2h: [u8; 32],
}

impl std::fmt::Debug for ChannelKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ChannelKeys { .. }")
    }
}

impl ChannelKeys {
    /// Creates keys from explicit 32-byte values.
    pub fn new(h2d: [u8; 32], d2h: [u8; 32]) -> Self {
        ChannelKeys { h2d, d2h }
    }

    /// Derives deterministic (simulation-grade) keys from a seed, standing
    /// in for the SPDM key exchange performed at GPU attestation time.
    pub fn from_seed(seed: u64) -> Self {
        fn derive(seed: u64, salt: u8) -> [u8; 32] {
            let mut key = [0u8; 32];
            let mut state = seed ^ u64::from(salt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for chunk in key.chunks_mut(8) {
                // SplitMix64 step: good enough to decorrelate test keys.
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                chunk.copy_from_slice(&z.to_le_bytes());
            }
            key
        }
        ChannelKeys {
            h2d: derive(seed, 1),
            d2h: derive(seed, 2),
        }
    }
}

/// One endpoint of a secure channel: it can send in one direction and
/// receive in the other.
#[derive(Debug, Clone)]
pub struct Endpoint {
    tx: TxContext,
    rx: RxContext,
}

impl Endpoint {
    /// Sending context (outgoing direction).
    pub fn tx(&self) -> &TxContext {
        &self.tx
    }

    /// Mutable sending context.
    pub fn tx_mut(&mut self) -> &mut TxContext {
        &mut self.tx
    }

    /// Receiving context (incoming direction).
    pub fn rx(&self) -> &RxContext {
        &self.rx
    }

    /// Mutable receiving context.
    pub fn rx_mut(&mut self) -> &mut RxContext {
        &mut self.rx
    }

    /// Attaches the multi-threaded crypto engine to both directions of
    /// this endpoint.
    pub fn set_engine(&mut self, engine: Option<Arc<CryptoEngine>>) {
        self.tx.set_engine(engine.clone());
        self.rx.set_engine(engine);
    }

    /// Copies borrowed `plaintext` into a [`staging_buffer`] and seals it,
    /// without associated data, at the current send counter (see
    /// [`TxContext::seal_prepared`]).
    ///
    /// # Errors
    ///
    /// As [`TxContext::seal_prepared`].
    pub fn seal(&mut self, plaintext: &[u8]) -> Result<SealedMessage> {
        self.tx
            .seal_prepared(Arc::from(&[][..]), staging_buffer(plaintext))
    }

    /// Opens a borrowed message at the current receive counter, leaving it
    /// intact: the tag is verified over the message's own ciphertext (a
    /// failed open copies nothing), then the plaintext is decrypted into a
    /// fresh buffer. Counter accounting is [`RxContext::open_in_place`]'s.
    ///
    /// # Errors
    ///
    /// As [`RxContext::open_in_place`].
    pub fn open(&mut self, message: &SealedMessage) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.rx.open_at_counter(|gcm, nonce| {
            gcm.open_into(nonce, &message.aad, &message.bytes, &mut out)
        })?;
        Ok(out)
    }
}

/// A full CPU↔GPU secure channel: the host endpoint and the device endpoint
/// with mirrored key material and synchronized starting IVs.
///
/// In the real system the two endpoints live in different trust domains;
/// here they live in one struct so tests can drive both sides.
#[derive(Debug, Clone)]
pub struct SecureChannel {
    host: Endpoint,
    device: Endpoint,
}

impl SecureChannel {
    /// Builds a channel with both directions starting at IV 1, matching the
    /// paper's Figure 1 (the first CPU→GPU message is sealed at IV=1).
    pub fn new(keys: ChannelKeys) -> Self {
        Self::with_initial_ivs(keys, 1, 1)
    }

    /// Builds a channel with explicit starting IVs per direction.
    pub fn with_initial_ivs(keys: ChannelKeys, h2d_iv: u64, d2h_iv: u64) -> Self {
        let h2d_gcm = AesGcm::new(&keys.h2d).expect("32-byte key is always valid");
        let d2h_gcm = AesGcm::new(&keys.d2h).expect("32-byte key is always valid");
        SecureChannel {
            host: Endpoint {
                tx: TxContext::new(h2d_gcm.clone(), Direction::HostToDevice, h2d_iv),
                rx: RxContext::new(d2h_gcm.clone(), Direction::DeviceToHost, d2h_iv),
            },
            device: Endpoint {
                tx: TxContext::new(d2h_gcm, Direction::DeviceToHost, d2h_iv),
                rx: RxContext::new(h2d_gcm, Direction::HostToDevice, h2d_iv),
            },
        }
    }

    /// Host (CVM) endpoint.
    pub fn host(&self) -> &Endpoint {
        &self.host
    }

    /// Mutable host endpoint.
    pub fn host_mut(&mut self) -> &mut Endpoint {
        &mut self.host
    }

    /// Device (GPU enclave) endpoint.
    pub fn device(&self) -> &Endpoint {
        &self.device
    }

    /// Mutable device endpoint.
    pub fn device_mut(&mut self) -> &mut Endpoint {
        &mut self.device
    }

    /// Attaches the multi-threaded crypto engine to all four contexts of
    /// the channel (both endpoints, both directions): large transfers go
    /// through the chunked gang path with bit-identical ciphertext.
    pub fn set_engine(&mut self, engine: &Arc<CryptoEngine>) {
        self.host.set_engine(Some(Arc::clone(engine)));
        self.device.set_engine(Some(Arc::clone(engine)));
    }

    /// Builder form of [`SecureChannel::set_engine`].
    pub fn with_engine(mut self, engine: &Arc<CryptoEngine>) -> Self {
        self.set_engine(engine);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> SecureChannel {
        SecureChannel::new(ChannelKeys::from_seed(42))
    }

    /// Seals one committed NOP on the host's send direction.
    fn seal_nop(ch: &mut SecureChannel, buf: Vec<u8>) -> Result<SealedMessage> {
        let tx = ch.host_mut().tx_mut();
        let (aad, buf) = tx.nop_message(buf);
        tx.seal_prepared(aad, buf)
    }

    const PLAIN: &[u8] = b"kv-cache chunk 0123456789abcdef!";

    /// Messages per batch row.
    const BATCH: u64 = 3;

    /// Every public seal/open method of the core.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Core {
        SealPrepared,
        SealBatchPrepared,
        SealSpeculativePrepared,
        EndpointSeal,
        OpenInPlace,
        OpenInPlaceOrSentinel,
        EndpointOpen,
        DeferredOpenInPlace,
        DeferredOpenInPlaceOrSentinel,
    }

    /// The IV-accounting contract, one row per method: `(method, IVs a
    /// success consumes, IVs a failed open consumes, works in the caller's
    /// buffer)`. A deferred open's one IV is its wire-order reservation,
    /// burned whether or not the bytes authenticate; the two `Endpoint`
    /// methods copy in / copy out by design.
    const CORE: [(Core, u64, u64, bool); 9] = [
        (Core::SealPrepared, 1, 0, true),
        (Core::SealBatchPrepared, BATCH, 0, true),
        (Core::SealSpeculativePrepared, 0, 0, true),
        (Core::EndpointSeal, 1, 0, false),
        (Core::OpenInPlace, 1, 0, true),
        (Core::OpenInPlaceOrSentinel, 1, 1, true),
        (Core::EndpointOpen, 1, 0, false),
        (Core::DeferredOpenInPlace, 1, 1, true),
        (Core::DeferredOpenInPlaceOrSentinel, 1, 1, true),
    ];

    impl Core {
        fn is_seal(self) -> bool {
            matches!(
                self,
                Core::SealPrepared
                    | Core::SealBatchPrepared
                    | Core::SealSpeculativePrepared
                    | Core::EndpointSeal
            )
        }

        /// The counter the method moves: the host's send counter for
        /// seals, the device's receive counter for opens.
        fn counter(self, ch: &SecureChannel) -> u64 {
            if self.is_seal() {
                ch.host().tx().next_iv()
            } else {
                ch.device().rx().next_iv()
            }
        }

        /// Calls the method once: seals take `buf` as staged plaintext
        /// (speculative ones at `iv`), opens as a `ciphertext || tag` frame
        /// sealed under `b"hdr"`. Returns the outcome and the buffer the
        /// caller holds afterwards (for a batch, its first message's).
        fn call(self, ch: &mut SecureChannel, iv: u64, mut buf: Vec<u8>) -> (Result<()>, Vec<u8>) {
            let aad: Arc<[u8]> = Arc::from(&b"hdr"[..]);
            let batch = |buf: Vec<u8>| -> Vec<(Arc<[u8]>, Vec<u8>)> {
                let rest = (1..BATCH).map(|_| (Arc::clone(&aad), staging_buffer(PLAIN)));
                std::iter::once((Arc::clone(&aad), buf))
                    .chain(rest)
                    .collect()
            };
            let tx = ch.host_mut().tx_mut();
            let sealed = match self {
                Core::SealPrepared => tx.seal_prepared(aad.clone(), buf).map(|m| vec![m]),
                Core::SealBatchPrepared => tx.seal_batch_prepared(batch(buf)),
                Core::SealSpeculativePrepared => tx
                    .seal_speculative_prepared(iv, aad.clone(), buf)
                    .map(|m| vec![m]),
                Core::EndpointSeal => ch.host_mut().seal(&buf).map(|m| vec![m]),
                Core::EndpointOpen => {
                    let message = SealedMessage {
                        iv,
                        aad,
                        bytes: buf,
                    };
                    return match ch.device_mut().open(&message) {
                        Ok(plain) => (Ok(()), plain),
                        Err(e) => (Err(e), message.bytes),
                    };
                }
                open => {
                    let rx = ch.device_mut().rx_mut();
                    let outcome = match open {
                        Core::OpenInPlace => rx.open_in_place(&aad, &mut buf),
                        Core::OpenInPlaceOrSentinel => rx.open_in_place_or_sentinel(&aad, &mut buf),
                        Core::DeferredOpenInPlace => rx.defer_open().open_in_place(&aad, &mut buf),
                        _ => rx.defer_open().open_in_place_or_sentinel(&aad, &mut buf),
                    };
                    return (outcome, buf);
                }
            };
            match sealed {
                Ok(mut messages) => (Ok(()), messages.swap_remove(0).bytes),
                Err(e) => (Err(e), Vec::new()),
            }
        }
    }

    /// A genuine frame the host sealed under `b"hdr"` at the device's next IV.
    fn frame(ch: &mut SecureChannel) -> Vec<u8> {
        let tx = ch.host_mut().tx_mut();
        let sealed = tx.seal_prepared(Arc::from(&b"hdr"[..]), staging_buffer(PLAIN));
        sealed.unwrap().bytes
    }

    #[test]
    fn in_place_seal_and_open_roundtrip_in_lockstep() {
        // Contract: a success consumes exactly the IVs its row claims, and
        // a buffer staged with tag headroom keeps its allocation through
        // seal and in-place open.
        for (m, ivs, _, in_place) in CORE {
            let mut ch = channel();
            let buf = if m.is_seal() {
                staging_buffer(PLAIN)
            } else {
                frame(&mut ch)
            };
            let (ptr, before) = (buf.as_ptr(), m.counter(&ch));
            let (outcome, out) = m.call(&mut ch, before + 2, buf);
            assert_eq!(outcome, Ok(()), "{m:?}");
            assert_eq!(m.counter(&ch) - before, ivs, "{m:?}");
            if m.is_seal() {
                assert_eq!(out.len(), PLAIN.len() + TAG_LEN, "{m:?}");
                assert_ne!(&out[..PLAIN.len()], PLAIN, "{m:?} sealed nothing");
            } else {
                assert_eq!(out, PLAIN, "{m:?}");
            }
            if in_place {
                assert_eq!(out.as_ptr(), ptr, "{m:?} moved the staged buffer");
            }
        }
    }

    #[test]
    fn in_place_open_fails_without_touching_the_buffer() {
        // Contract: a failed plain open consumes no IV and leaves the buffer
        // byte-identical; a failed sentinel open consumes exactly one IV and
        // leaves only sentinel bytes.
        for (m, _, ivs, _) in CORE.into_iter().filter(|row| !row.0.is_seal()) {
            let mut ch = channel();
            let mut tampered = frame(&mut ch);
            tampered[3] ^= 0x40;
            let before = m.counter(&ch);
            let (outcome, out) = m.call(&mut ch, before, tampered.clone());
            let rejected = Err(CryptoError::AuthenticationFailed { expected_iv: 1 });
            assert_eq!(outcome, rejected, "{m:?}");
            assert_eq!(m.counter(&ch) - before, ivs, "{m:?}");
            let sentinel = matches!(
                m,
                Core::OpenInPlaceOrSentinel | Core::DeferredOpenInPlaceOrSentinel
            );
            let want = if sentinel {
                vec![SENTINEL_BYTE; PLAIN.len()]
            } else {
                tampered
            };
            assert_eq!(out, want, "{m:?}");
        }
    }

    #[test]
    fn speculative_seal_below_counter_is_refused() {
        // Contract: a speculative seal never advances the counter (its row
        // claims no IV) and refuses an IV the counter already consumed.
        let mut ch = channel();
        ch.host_mut().seal(b"x").unwrap();
        ch.host_mut().seal(b"y").unwrap();
        // Counter is now 3; sealing at 2 would reuse a nonce.
        let m = Core::SealSpeculativePrepared;
        let (outcome, _) = m.call(&mut ch, 2, staging_buffer(PLAIN));
        assert_eq!(outcome, Err(CryptoError::IvReused { iv: 2 }));
        assert_eq!(ch.host().tx().next_iv(), 3);
    }

    #[test]
    fn seals_inside_exhaustion_headroom_are_refused() {
        // Contract: no seal uses an IV inside the headroom, and a batch that
        // would reach it fails whole, consuming nothing.
        for (m, ..) in CORE.into_iter().filter(|row| row.0.is_seal()) {
            let batch = m == Core::SealBatchPrepared;
            // Two IVs short of the limit a single seal still fits; a batch
            // of three would need the first headroom IV.
            for start in [IV_LIMIT - (BATCH - 1), IV_LIMIT] {
                let keys = ChannelKeys::from_seed(3);
                let mut ch = SecureChannel::with_initial_ivs(keys, start, 1);
                let (outcome, out) = m.call(&mut ch, start, staging_buffer(PLAIN));
                if batch || start == IV_LIMIT {
                    let exhausted = matches!(outcome, Err(CryptoError::IvExhausted { .. }));
                    assert!(exhausted, "{m:?} at {start}");
                    assert!(out.is_empty(), "{m:?} sealed part of a refused call");
                    assert_eq!(ch.host().tx().next_iv(), start, "{m:?}");
                } else {
                    assert_eq!(outcome, Ok(()), "{m:?}");
                }
            }
        }
    }

    #[test]
    fn figure1_iv_progression() {
        // Figure 1: after two H2D and two D2H transfers starting from IVs
        // (1, 5), the counters sit at 3 and 7.
        let mut ch = SecureChannel::with_initial_ivs(ChannelKeys::from_seed(1), 1, 5);
        let a = ch.host_mut().seal(b"a").unwrap();
        let b = ch.host_mut().seal(b"b").unwrap();
        ch.device_mut().open(&a).unwrap();
        ch.device_mut().open(&b).unwrap();
        let c = ch.device_mut().seal(b"c").unwrap();
        let d = ch.device_mut().seal(b"d").unwrap();
        ch.host_mut().open(&c).unwrap();
        ch.host_mut().open(&d).unwrap();
        assert_eq!(ch.host().tx().next_iv(), 3);
        assert_eq!(ch.device().tx().next_iv(), 7);
        assert_eq!((a.iv, b.iv, c.iv, d.iv), (1, 2, 5, 6));
    }

    #[test]
    fn out_of_order_delivery_fails_authentication() {
        let mut ch = channel();
        let first = ch.host_mut().seal(b"first").unwrap();
        let second = ch.host_mut().seal(b"second").unwrap();
        // Delivering the second message first: receiver IV is 1, message was
        // sealed at IV 2 → must fail.
        let err = ch.device_mut().open(&second).unwrap_err();
        assert_eq!(err, CryptoError::AuthenticationFailed { expected_iv: 1 });
        // The receiver did not advance, so the correct order still works.
        assert_eq!(ch.device_mut().open(&first).unwrap(), b"first");
        assert_eq!(ch.device_mut().open(&second).unwrap(), b"second");
    }

    #[test]
    fn speculative_seal_at_future_iv_opens_after_nops() {
        let mut ch = channel();
        // Speculatively seal at IV 4 while the counter is 1.
        let spec = ch
            .host()
            .tx()
            .seal_speculative_prepared(4, Arc::from(&[][..]), staging_buffer(b"future"))
            .unwrap();
        // Committing now is an IV mismatch (recoverable).
        assert!(matches!(
            ch.host_mut().tx_mut().commit(&spec),
            Err(CryptoError::IvMismatch { iv: 4, expected: 1 })
        ));
        // Pad NOPs to advance 1→4, delivering each so the device follows.
        for _ in 0..3 {
            let nop = seal_nop(&mut ch, Vec::new()).unwrap();
            ch.device_mut().open(&nop).unwrap();
        }
        ch.host_mut().tx_mut().commit(&spec).unwrap();
        assert_eq!(ch.device_mut().open(&spec).unwrap(), b"future");
    }

    #[test]
    fn nop_advances_both_sides_and_carries_one_byte() {
        let mut ch = channel();
        let nop = seal_nop(&mut ch, Vec::new()).unwrap();
        assert_eq!(nop.plaintext_len(), 1);
        assert_eq!(&*nop.aad, b"nop");
        let opened = ch.device_mut().open(&nop).unwrap();
        assert_eq!(opened, vec![0u8]);
        assert_eq!(ch.host().tx().next_iv(), 2);
        assert_eq!(ch.device().rx().next_iv(), 2);
    }

    #[test]
    fn nop_staging_buffer_is_reused_without_reallocating() {
        let mut ch = channel();
        let nop = seal_nop(&mut ch, Vec::new()).unwrap();
        let mut recycled = nop.bytes;
        ch.device_mut()
            .rx_mut()
            .open_in_place(&nop.aad, &mut recycled)
            .unwrap();
        let ptr = recycled.as_ptr();
        let capacity = recycled.capacity();
        let nop2 = seal_nop(&mut ch, recycled).unwrap();
        assert_eq!(
            nop2.bytes.as_ptr(),
            ptr,
            "recycled NOP buffer must be reused"
        );
        assert_eq!(nop2.bytes.capacity(), capacity);
        assert_eq!(ch.device_mut().open(&nop2).unwrap(), vec![0u8]);
    }

    #[test]
    fn sentinel_open_consumes_iv_and_keeps_lockstep() {
        let mut ch = channel();
        let corrupted = ch.host_mut().seal(b"doomed frame").unwrap();
        let follower = ch.host_mut().seal(b"survivor").unwrap();
        let mut buf = corrupted.bytes;
        buf[3] ^= 0x40;
        let rx = ch.device_mut().rx_mut();
        assert!(matches!(
            rx.open_in_place_or_sentinel(&corrupted.aad, &mut buf),
            Err(CryptoError::AuthenticationFailed { expected_iv: 1 })
        ));
        // The failed frame burned IV 1: sentinel payload, counter advanced.
        assert_eq!(buf, vec![SENTINEL_BYTE; b"doomed frame".len()]);
        assert_eq!(ch.device().rx().next_iv(), 2);
        // Lockstep holds — the next in-order frame opens normally.
        assert_eq!(ch.device_mut().open(&follower).unwrap(), b"survivor");
    }

    #[test]
    fn sentinel_open_of_truncated_frame_yields_empty_sentinel() {
        let mut ch = channel();
        let sealed = ch.host_mut().seal(b"cut short").unwrap();
        let mut buf = sealed.bytes;
        buf.truncate(5); // shorter than the 16-byte tag
        let outcome = ch
            .device_mut()
            .rx_mut()
            .open_in_place_or_sentinel(&sealed.aad, &mut buf);
        assert!(matches!(
            outcome,
            Err(CryptoError::TruncatedCiphertext { got: 5 })
        ));
        assert!(buf.is_empty());
        assert_eq!(ch.device().rx().next_iv(), 2);
    }

    #[test]
    fn skip_resynchronizes_after_a_dropped_frame() {
        let mut ch = channel();
        let _lost = ch.host_mut().seal(b"dropped on the wire").unwrap();
        let delivered = ch.host_mut().seal(b"delivered").unwrap();
        // Without the skip, the delivered frame would fail (wrong IV).
        assert_eq!(ch.device_mut().rx_mut().skip(), 1);
        assert_eq!(ch.device_mut().open(&delivered).unwrap(), b"delivered");
        // The skipped IV is burned for the sender too — it already sealed
        // under it, and the receiver can never be convinced to reuse it.
        assert_eq!(ch.host().tx().next_iv(), 3);
        assert_eq!(ch.device().rx().next_iv(), 3);
    }

    #[test]
    fn deferred_sentinel_open_scrubs_the_buffer() {
        let mut ch = channel();
        let sealed = ch.host_mut().seal(b"deferred payload").unwrap();
        let deferred = ch.device_mut().rx_mut().defer_open();
        let mut buf = sealed.bytes.clone();
        buf[0] ^= 1;
        let err = deferred
            .open_in_place_or_sentinel(&sealed.aad, &mut buf)
            .unwrap_err();
        assert!(matches!(err, CryptoError::AuthenticationFailed { .. }));
        assert_eq!(buf, vec![SENTINEL_BYTE; b"deferred payload".len()]);
        // The reservation already advanced the counter; a fresh in-order
        // frame still opens.
        let next = ch.host_mut().seal(b"next").unwrap();
        assert_eq!(ch.device_mut().open(&next).unwrap(), b"next");
    }

    #[test]
    fn keys_from_different_seeds_are_incompatible() {
        let mut a = SecureChannel::new(ChannelKeys::from_seed(1));
        let mut b = SecureChannel::new(ChannelKeys::from_seed(2));
        let sealed = a.host_mut().seal(b"secret").unwrap();
        assert!(b.device_mut().open(&sealed).is_err());
    }
}
