//! The multi-tenant session layer: per-session secure channels derived
//! from one root secret.
//!
//! A production confidential-serving deployment multiplexes many tenants
//! over one GPU. Each tenant's CVM performs its own SPDM key exchange at
//! attestation time, so every tenant owns an independent pair of channel
//! keys and an independent pair of IV counters — while all tenants contend
//! for the same CPU crypto workers, PCIe link, and device memory. This
//! module provides the key-management half of that picture:
//!
//! - [`SessionId`]: an opaque per-tenant identity threaded through the GPU
//!   runtime's transfer API;
//! - [`SessionManager`]: derives per-session [`ChannelKeys`] from a root
//!   secret (the stand-in for the per-tenant SPDM exchange), owns one
//!   [`SecureChannel`] per session, and rekeys sessions whose IV counters
//!   approach the exhaustion headroom ([`crate::channel::IV_LIMIT`]);
//! - `device_key_seed` / `edge_key_seed`: the per-device and per-edge
//!   key roots a cluster seed fans out into, reachable only through
//!   [`crate::edge::WireEdge::key_seed`].
//!
//! Key separation is structural: two sessions (or two epochs of one
//! session) never share a key, so ciphertext sealed under one session can
//! never authenticate under another — the cross-tenant isolation property
//! the property tests in `tests/session_props.rs` pin down.

use crate::channel::{ChannelKeys, SecureChannel, IV_HEADROOM};
use crate::engine::CryptoEngine;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Opaque identity of one tenant session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl SessionId {
    /// The default session every context opens at construction, preserving
    /// the single-tenant API: session-unaware callers implicitly talk to
    /// this session.
    pub const DEFAULT: SessionId = SessionId(0);
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// One session's live state inside the manager.
#[derive(Debug, Clone)]
struct Session {
    /// Key epoch: bumped by every rekey, mixed into the derivation so the
    /// new keys share nothing with the old ones.
    epoch: u32,
    channel: SecureChannel,
}

/// Derives per-session channel keys from a root secret and owns the
/// resulting channel pairs.
///
/// Derivation is `root secret × session id × epoch × direction →
/// 32-byte key` through a SplitMix64 sponge — simulation-grade like
/// [`ChannelKeys::from_seed`], but with the same structural guarantees a
/// real KDF would give: distinct inputs yield decorrelated keys, and no
/// session ever learns anything about another session's keys.
#[derive(Clone)]
pub struct SessionManager {
    root: [u8; 32],
    next_id: u64,
    sessions: BTreeMap<SessionId, Session>,
    /// Shared multi-threaded crypto engine, installed on every session's
    /// channel pair (existing, newly opened, and rekeyed alike).
    engine: Option<Arc<CryptoEngine>>,
}

impl fmt::Debug for SessionManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionManager")
            .field("sessions", &self.sessions.len())
            .field("next_id", &self.next_id)
            .finish()
    }
}

/// Derives a decorrelated 64-bit sub-seed from `seed` and a role `tag` —
/// one step of the same SplitMix64 sponge the session KDF absorbs with.
/// Higher layers use it to fan one root seed out into per-device and
/// per-edge key roots without re-implementing the mixing step.
pub fn derive_subseed(seed: u64, tag: u64) -> u64 {
    let mut state = seed ^ tag.wrapping_mul(0x2545_f491_4f6c_dd1d);
    mix(&mut state)
}

/// The key-derivation root of device `device`'s host↔device channel,
/// derived from the cluster-wide seed. Both ends of a networked deployment
/// derive it independently from the shared cluster seed, so nothing
/// key-like ever crosses the wire.
pub(crate) fn device_key_seed(cluster_seed: u64, device: u64) -> u64 {
    derive_subseed(cluster_seed, 0x01_0000 | device)
}

/// The key-derivation root of the device-to-device edge joining `a < b`,
/// derived from the cluster-wide seed and the edge identity: the two
/// endpoints of an edge derive the same root, and no two edges share one.
pub(crate) fn edge_key_seed(cluster_seed: u64, a: u64, b: u64) -> u64 {
    derive_subseed(cluster_seed, 0x02_0000 | (a << 24) | b)
}

/// SplitMix64 step shared by the derivation sponge.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives one direction key: absorb the root, session, epoch, and a
/// direction salt; squeeze 32 bytes.
fn derive_direction_key(root: &[u8; 32], session: SessionId, epoch: u32, salt: u8) -> [u8; 32] {
    let mut state = u64::from(salt).wrapping_mul(0x2545_f491_4f6c_dd1d);
    for chunk in root.chunks(8) {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        state ^= u64::from_le_bytes(word);
        mix(&mut state);
    }
    state ^= session.0;
    mix(&mut state);
    state ^= u64::from(epoch) << 32 | u64::from(epoch);
    mix(&mut state);
    let mut key = [0u8; 32];
    for chunk in key.chunks_mut(8) {
        chunk.copy_from_slice(&mix(&mut state).to_le_bytes());
    }
    key
}

impl SessionManager {
    /// Creates a manager over an explicit 32-byte root secret. No session
    /// exists yet; open the default one with [`SessionManager::open`].
    pub fn new(root: [u8; 32]) -> Self {
        SessionManager {
            root,
            next_id: 0,
            sessions: BTreeMap::new(),
            engine: None,
        }
    }

    /// Creates a manager whose root secret is expanded from a u64 seed
    /// (simulation convenience, mirroring [`ChannelKeys::from_seed`]).
    pub fn from_seed(seed: u64) -> Self {
        let mut state = seed;
        let mut root = [0u8; 32];
        for chunk in root.chunks_mut(8) {
            chunk.copy_from_slice(&mix(&mut state).to_le_bytes());
        }
        Self::new(root)
    }

    /// Installs the shared multi-threaded crypto engine on every live
    /// session's channel pair, and on every channel opened or rekeyed from
    /// now on — the k of this pool is the same k the simulated
    /// `WorkerPool` timeline models.
    pub fn set_engine(&mut self, engine: Arc<CryptoEngine>) {
        for session in self.sessions.values_mut() {
            session.channel.set_engine(&engine);
        }
        self.engine = Some(engine);
    }

    /// Live session ids, in creation order.
    pub fn ids(&self) -> Vec<SessionId> {
        self.sessions.keys().copied().collect()
    }

    /// Whether `id` names a live session.
    pub fn contains(&self, id: SessionId) -> bool {
        self.sessions.contains_key(&id)
    }

    /// Derives the channel keys for (`id`, `epoch`) without opening a
    /// session — the deterministic KDF both endpoints would run after the
    /// per-tenant attestation exchange.
    pub fn derive_keys(&self, id: SessionId, epoch: u32) -> ChannelKeys {
        ChannelKeys::new(
            derive_direction_key(&self.root, id, epoch, 0x1d),
            derive_direction_key(&self.root, id, epoch, 0x2e),
        )
    }

    /// Opens a new session with freshly derived keys and both IV counters
    /// at 1 (the paper's Figure 1 start state).
    pub fn open(&mut self) -> SessionId {
        self.open_with_initial_ivs(1, 1)
    }

    /// Opens a new session with explicit starting IVs per direction (test
    /// support for exercising counters near the exhaustion limit).
    pub fn open_with_initial_ivs(&mut self, h2d_iv: u64, d2h_iv: u64) -> SessionId {
        let id = SessionId(self.next_id);
        self.next_id += 1;
        let mut channel = SecureChannel::with_initial_ivs(self.derive_keys(id, 0), h2d_iv, d2h_iv);
        if let Some(engine) = &self.engine {
            channel.set_engine(engine);
        }
        self.sessions.insert(id, Session { epoch: 0, channel });
        id
    }

    /// Closes a session, discarding its keys. Returns whether it existed.
    pub fn close(&mut self, id: SessionId) -> bool {
        self.sessions.remove(&id).is_some()
    }

    /// The session's channel pair.
    pub fn channel(&self, id: SessionId) -> Option<&SecureChannel> {
        self.sessions.get(&id).map(|s| &s.channel)
    }

    /// Mutable access to the session's channel pair.
    pub fn channel_mut(&mut self, id: SessionId) -> Option<&mut SecureChannel> {
        self.sessions.get_mut(&id).map(|s| &mut s.channel)
    }

    /// The session's current key epoch.
    pub fn epoch(&self, id: SessionId) -> Option<u32> {
        self.sessions.get(&id).map(|s| s.epoch)
    }

    /// Whether either direction of the session's channel has fewer than
    /// [`IV_HEADROOM`] IVs left before exhaustion.
    pub fn needs_rekey(&self, id: SessionId) -> Option<bool> {
        self.sessions.get(&id).map(|s| {
            s.channel.host().tx().remaining_ivs() < IV_HEADROOM
                || s.channel.device().tx().remaining_ivs() < IV_HEADROOM
        })
    }

    /// Rekeys the session: bumps the epoch, derives fresh keys, and resets
    /// both IV counters to 1 — the SPDM re-exchange a real deployment runs
    /// before a channel's nonce space runs dry. Any ciphertext sealed under
    /// the old epoch is invalidated (it will fail authentication), so the
    /// caller must drain speculative state first.
    ///
    /// Returns the new epoch, or `None` for an unknown session or one
    /// whose epoch space is exhausted.
    pub fn rekey(&mut self, id: SessionId) -> Option<u32> {
        let next = self.sessions.get(&id)?.epoch.checked_add(1)?;
        self.rekey_to(id, next)
    }

    /// Fast-forwards the session straight to `epoch`: the keys are derived
    /// for that epoch directly ([`SessionManager::derive_keys`] is a
    /// function of the epoch, not of the steps that led to it) and both IV
    /// counters restart at 1, so a jump of any size costs one derivation.
    ///
    /// Returns the new epoch, or `None` — leaving the session untouched —
    /// for an unknown session or an `epoch` not ahead of the current one:
    /// re-entering an epoch would restart its counters and repeat nonces.
    pub fn rekey_to(&mut self, id: SessionId, epoch: u32) -> Option<u32> {
        let channel = self.channel_at(id, epoch, 1, 1)?;
        self.install(id, epoch, channel)
    }

    /// The session's channel pair at `epoch`, ahead of its current one,
    /// with explicit starting IVs per direction — a candidate that moves
    /// nothing until [`SessionManager::install`]ed. `None` for an unknown
    /// session or an `epoch` not ahead of the current one.
    pub(crate) fn channel_at(
        &self,
        id: SessionId,
        epoch: u32,
        h2d_iv: u64,
        d2h_iv: u64,
    ) -> Option<SecureChannel> {
        if epoch <= self.sessions.get(&id)?.epoch {
            return None;
        }
        let mut channel =
            SecureChannel::with_initial_ivs(self.derive_keys(id, epoch), h2d_iv, d2h_iv);
        if let Some(engine) = &self.engine {
            channel.set_engine(engine);
        }
        Some(channel)
    }

    /// Moves the session to `epoch` on `channel`, a candidate from
    /// [`SessionManager::channel_at`]. Returns the new epoch, or `None` —
    /// leaving the session untouched — as [`SessionManager::rekey_to`].
    pub(crate) fn install(
        &mut self,
        id: SessionId,
        epoch: u32,
        channel: SecureChannel,
    ) -> Option<u32> {
        let session = self.sessions.get_mut(&id)?;
        if epoch <= session.epoch {
            return None;
        }
        session.epoch = epoch;
        session.channel = channel;
        Some(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::IV_LIMIT;
    use crate::CryptoError;

    #[test]
    fn sessions_get_distinct_monotonic_ids() {
        let mut mgr = SessionManager::from_seed(7);
        let a = mgr.open();
        let b = mgr.open();
        assert_eq!(a, SessionId::DEFAULT);
        assert_eq!(b, SessionId(1));
        assert_eq!(mgr.ids(), vec![a, b]);
        assert!(mgr.contains(a) && mgr.contains(b));
    }

    #[test]
    fn cross_session_ciphertext_fails_authentication() {
        let mut mgr = SessionManager::from_seed(7);
        let a = mgr.open();
        let b = mgr.open();
        let sealed = mgr.channel_mut(a).unwrap().host_mut().seal(b"a").unwrap();
        let err = mgr
            .channel_mut(b)
            .unwrap()
            .device_mut()
            .open(&sealed)
            .unwrap_err();
        assert!(matches!(err, CryptoError::AuthenticationFailed { .. }));
        // The right session still opens it.
        assert_eq!(
            mgr.channel_mut(a)
                .unwrap()
                .device_mut()
                .open(&sealed)
                .unwrap(),
            b"a"
        );
    }

    #[test]
    fn derivation_is_deterministic_and_epoch_separated() {
        let mgr = SessionManager::from_seed(9);
        let k0 = mgr.derive_keys(SessionId(3), 0);
        let k0_again = mgr.derive_keys(SessionId(3), 0);
        let k1 = mgr.derive_keys(SessionId(3), 1);
        // Same inputs → same channel behaviour; different epoch → different.
        let mut ch_a = SecureChannel::new(k0);
        let mut ch_b = SecureChannel::new(k0_again);
        let mut ch_e = SecureChannel::new(k1);
        let sealed = ch_a.host_mut().seal(b"x").unwrap();
        assert_eq!(ch_b.device_mut().open(&sealed).unwrap(), b"x");
        assert!(ch_e.device_mut().open(&sealed).is_err());
    }

    #[test]
    fn rekey_resets_counters_and_invalidates_old_ciphertext() {
        let mut mgr = SessionManager::from_seed(1);
        let id = mgr.open();
        let stale = mgr
            .channel_mut(id)
            .unwrap()
            .host_mut()
            .seal(b"old")
            .unwrap();
        assert_eq!(mgr.channel(id).unwrap().host().tx().next_iv(), 2);
        assert_eq!(mgr.rekey(id), Some(1));
        assert_eq!(mgr.epoch(id), Some(1));
        let ch = mgr.channel_mut(id).unwrap();
        assert_eq!(ch.host().tx().next_iv(), 1, "counters restart after rekey");
        assert!(
            ch.device_mut().open(&stale).is_err(),
            "old-epoch ciphertext must not authenticate"
        );
        let fresh = ch.host_mut().seal(b"new").unwrap();
        assert_eq!(ch.device_mut().open(&fresh).unwrap(), b"new");
    }

    #[test]
    fn direct_jump_opens_what_stepwise_rekeys_sealed() {
        let mut stepwise = SessionManager::from_seed(6);
        let mut direct = stepwise.clone();
        let id = stepwise.open();
        assert_eq!(direct.open(), id);
        for _ in 0..5 {
            stepwise.rekey(id).unwrap();
        }
        assert_eq!(direct.rekey_to(id, 5), Some(5));
        let sealed = stepwise
            .channel_mut(id)
            .unwrap()
            .host_mut()
            .seal(b"epoch five")
            .unwrap();
        let ch = direct.channel_mut(id).unwrap();
        assert_eq!(ch.device_mut().open(&sealed).unwrap(), b"epoch five");
        // Never backwards, never in place: both would repeat nonces.
        assert_eq!(direct.rekey_to(id, 5), None);
        assert_eq!(direct.rekey_to(id, 2), None);
        assert_eq!(direct.epoch(id), Some(5));
    }

    #[test]
    fn exhausted_counter_triggers_rekey_hook() {
        let mut mgr = SessionManager::from_seed(4);
        // Fresh session: far from exhaustion.
        let fresh = mgr.open();
        assert_eq!(mgr.needs_rekey(fresh), Some(false));
        // Session whose H2D counter sits one IV short of the limit.
        let near = mgr.open_with_initial_ivs(IV_LIMIT - 1, 1);
        assert_eq!(mgr.needs_rekey(near), Some(true));
        // Sealing once works; the next seal would be refused...
        let ch = mgr.channel_mut(near).unwrap();
        ch.host_mut().seal(b"last").unwrap();
        assert!(matches!(
            ch.host_mut().seal(b"one too many"),
            Err(CryptoError::IvExhausted { .. })
        ));
        // ...unless the session rekeys first.
        assert_eq!(mgr.rekey(near), Some(1));
        mgr.channel_mut(near)
            .unwrap()
            .host_mut()
            .seal(b"ok")
            .unwrap();
    }

    #[test]
    fn close_forgets_the_session() {
        let mut mgr = SessionManager::from_seed(2);
        let id = mgr.open();
        assert!(mgr.close(id));
        assert!(!mgr.close(id));
        assert!(mgr.channel(id).is_none());
        assert!(mgr.needs_rekey(id).is_none());
        assert!(mgr.ids().is_empty());
    }
}
