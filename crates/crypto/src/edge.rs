//! The one edge type. PipeLLM treats every inter-GPU hop as its own
//! encrypted channel: an edge owns a key root, one [`SecureChannel`] per
//! tenant session, an epoch, and a gapless IV counter per direction.
//! [`EdgeCrypto`] is that state at one endpoint. The in-process
//! `pipellm_gpu::cluster::ClusterContext` keeps one per end of every edge
//! (built with [`role_at`]), each process of a `pipellm_net` deployment
//! one per edge it touches. Both ends derive the root from the cluster
//! seed ([`WireEdge::key_seed`], the only public path from a cluster seed
//! to a channel root), so they agree on keys without negotiating.

use crate::channel::{
    staging_buffer, Endpoint, SealedMessage, SecureChannel, IV_HEADROOM, SENTINEL_BYTE,
};
use crate::engine::CryptoEngine;
use crate::session::{device_key_seed, edge_key_seed, SessionId, SessionManager};
use crate::{CryptoError, Result};
use std::fmt;
use std::sync::Arc;

/// Node id of the host (the orchestrator of a networked deployment, the
/// CVM of the in-process cluster) in edge ids.
pub const HOST_NODE: u32 = u32::MAX;

/// An undirected edge of the cluster graph, normalized `a < b`.
/// [`HOST_NODE`] is `u32::MAX`, so host edges sort as `(stage, HOST)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WireEdge {
    /// Lower endpoint.
    pub a: u32,
    /// Higher endpoint ([`HOST_NODE`] on host edges).
    pub b: u32,
}

impl WireEdge {
    /// The edge joining `i` and `j`, order-insensitive.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` — there are no self-edges.
    pub fn between(i: u32, j: u32) -> Self {
        assert_ne!(i, j, "no self-edges in the deployment graph");
        WireEdge {
            a: i.min(j),
            b: i.max(j),
        }
    }

    /// Whether `node` is an endpoint.
    pub fn touches(&self, node: u32) -> bool {
        self.a == node || self.b == node
    }

    /// The edge's key-derivation root under `cluster_seed`: a device's
    /// host↔device channel for a host edge, the device-to-device channel
    /// otherwise. Both endpoints derive it independently, so nothing
    /// key-like crosses the wire, and no two edges share a root.
    pub fn key_seed(self, cluster_seed: u64) -> u64 {
        if self.b == HOST_NODE {
            device_key_seed(cluster_seed, u64::from(self.a))
        } else {
            edge_key_seed(cluster_seed, u64::from(self.a), u64::from(self.b))
        }
    }
}

impl fmt::Display for WireEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.b == HOST_NODE {
            write!(f, "edge{}-host", self.a)
        } else {
            write!(f, "edge{}-{}", self.a, self.b)
        }
    }
}

/// Which endpoint of the edge's [`SecureChannel`] a node plays: the host
/// is the channel-host endpoint of every host edge, and on a
/// device↔device edge the lower node is. Transfers `a → b` therefore ride
/// the channel's H2D direction and `b → a` its D2H direction, each with
/// its own key and IV counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// This node drives the channel's host endpoint.
    ChannelHost,
    /// This node drives the channel's device endpoint.
    ChannelDevice,
}

impl Role {
    /// This role's side of a host/device pair.
    fn pick<T>(self, host: T, device: T) -> T {
        match self {
            Role::ChannelHost => host,
            Role::ChannelDevice => device,
        }
    }

    /// This role's endpoint of `channel`.
    fn end_mut(self, channel: &mut SecureChannel) -> &mut Endpoint {
        match self {
            Role::ChannelHost => channel.host_mut(),
            Role::ChannelDevice => channel.device_mut(),
        }
    }
}

/// The channel role `node` plays on `edge` (see [`Role`]), so both
/// endpoints derive mirrored state without negotiating.
pub fn role_at(edge: WireEdge, node: u32) -> Role {
    if node == HOST_NODE || (node == edge.a && edge.b != HOST_NODE) {
        Role::ChannelHost
    } else {
        Role::ChannelDevice
    }
}

/// One edge's live crypto state at one endpoint: a session manager keyed
/// by the edge's root, this node's [`Role`] on it, and the session the
/// session-unaware calls act on (the default one until
/// [`EdgeCrypto::set_session`] moves it).
pub struct EdgeCrypto {
    edge: WireEdge,
    role: Role,
    sessions: SessionManager,
    active: SessionId,
    /// The last epoch that frames failing authentication claimed ahead of
    /// the active session's, and how many of its receive IVs they consumed:
    /// an honest sender that rekeyed sealed them there
    /// ([`EdgeCrypto::open_ahead_or_sentinel`]). Once the session reaches
    /// or passes that epoch the entry matches no candidate again.
    ahead: Option<(u32, u64)>,
}

impl EdgeCrypto {
    /// Derives the edge's key root from the cluster seed — identically at
    /// both endpoints — and opens the default session.
    pub fn new(cluster_seed: u64, edge: WireEdge, role: Role) -> Self {
        let mut crypto = EdgeCrypto {
            edge,
            role,
            sessions: SessionManager::from_seed(edge.key_seed(cluster_seed)),
            active: SessionId::DEFAULT,
            ahead: None,
        };
        crypto.open_session();
        crypto
    }

    /// Installs the shared multi-threaded crypto engine on every session,
    /// present and future.
    pub fn set_engine(&mut self, engine: Arc<CryptoEngine>) {
        self.sessions.set_engine(engine);
    }

    /// The edge this state belongs to.
    pub fn edge(&self) -> WireEdge {
        self.edge
    }

    /// Opens a tenant session with both IV counters at 1. Ids are handed
    /// out in order, so ends that open sessions in lockstep agree on them.
    pub fn open_session(&mut self) -> SessionId {
        self.open_session_with_initial_ivs(1, 1)
    }

    /// Opens a tenant session with explicit starting IVs for `a → b` and
    /// `b → a` (test support for counters near the exhaustion limit).
    pub fn open_session_with_initial_ivs(&mut self, h2d_iv: u64, d2h_iv: u64) -> SessionId {
        self.sessions.open_with_initial_ivs(h2d_iv, d2h_iv)
    }

    /// Closes a session, discarding its keys. The active session stays
    /// open. Returns whether a session was closed.
    pub fn close_session(&mut self, id: SessionId) -> bool {
        id != self.active && self.sessions.close(id)
    }

    /// Points the session-unaware calls at `id`. Returns whether `id` is
    /// live; an unknown id changes nothing.
    pub fn set_session(&mut self, id: SessionId) -> bool {
        if self.sessions.contains(id) && id != self.active {
            self.active = id;
            self.ahead = None;
        }
        self.active == id
    }

    /// Current key epoch of the active session.
    pub fn epoch(&self) -> u32 {
        self.sessions.epoch(self.active).unwrap_or(0)
    }

    /// Whether this node's sending direction of the active session has
    /// fewer than [`IV_HEADROOM`] IVs left before exhaustion.
    pub fn needs_rekey(&self) -> bool {
        self.endpoint(self.active)
            .is_some_and(|endpoint| endpoint.tx().remaining_ivs() < IV_HEADROOM)
    }

    /// Fast-forwards the active session to `target` epoch (fresh keys,
    /// both IV counters restarted at 1 — never reusing a counter of the
    /// previous epoch), in one key derivation however far ahead `target`
    /// lies. A target at or below the current epoch is a no-op: rekey
    /// messages can arrive duplicated or late. The receive counter starts
    /// past any IVs that failed frames claiming `target` already consumed.
    pub fn rekey_to(&mut self, target: u32) {
        if let Some(channel) = self.candidate(target) {
            self.sessions.install(self.active, target, channel);
        }
    }

    /// The active session's channel at `epoch`, if ahead of the current
    /// one: this node's send counter at 1, its receive counter past the
    /// IVs failed frames claiming `epoch` consumed.
    fn candidate(&self, epoch: u32) -> Option<SecureChannel> {
        let rx_iv = self.consumed_in(epoch) + 1;
        let (h2d_iv, d2h_iv) = self.role.pick((1, rx_iv), (rx_iv, 1));
        self.sessions.channel_at(self.active, epoch, h2d_iv, d2h_iv)
    }

    /// Opens a received frame that claims `epoch`, ahead of the active
    /// session's, without trusting the claim: the frame is opened under
    /// that epoch's candidate keys, and only a verified tag moves the
    /// session there (its receive counter past this frame). Otherwise the
    /// frame is a sentinel at the *current* epoch and consumes its receive
    /// IV, as with any frame that fails: `current_aad` is the frame's
    /// binding under the current epoch, and if the bytes authenticate
    /// under it the sender sealed them there and only the header's epoch
    /// was rewritten in flight — they are rejected all the same. Bytes that
    /// authenticate under neither are remembered as one consumed IV of the
    /// claimed epoch, so a sender that did rekey and whose first frame was
    /// corrupted stays in lockstep once its epoch is confirmed.
    pub fn open_ahead_or_sentinel(
        &mut self,
        epoch: u32,
        aad: &[u8],
        current_aad: &[u8],
        mut sealed: Vec<u8>,
    ) -> (Vec<u8>, bool) {
        if let Some(mut channel) = self.candidate(epoch) {
            // A failed open leaves both the bytes and the counter as they were.
            if self
                .role
                .end_mut(&mut channel)
                .rx_mut()
                .open_in_place(aad, &mut sealed)
                .is_ok()
            {
                self.sessions.install(self.active, epoch, channel);
                return (sealed, true);
            }
        }
        let (mut buf, authentic) = self.open_or_sentinel(current_aad, sealed);
        if authentic {
            buf.fill(SENTINEL_BYTE);
        } else {
            self.ahead = Some((epoch, self.consumed_in(epoch) + 1));
        }
        (buf, false)
    }

    /// The receive IVs of `epoch` that failed frames claiming it consumed.
    fn consumed_in(&self, epoch: u32) -> u64 {
        match self.ahead {
            Some((claimed, consumed)) if claimed == epoch => consumed,
            _ => 0,
        }
    }

    /// This node's endpoint of the active session's channel.
    ///
    /// # Errors
    ///
    /// [`CryptoError::UnknownSession`] if the active session is gone.
    pub fn endpoint_mut(&mut self) -> Result<&mut Endpoint> {
        let role = self.role;
        self.sessions
            .channel_mut(self.active)
            .map(|channel| role.end_mut(channel))
            .ok_or(CryptoError::UnknownSession {
                session: self.active,
            })
    }

    /// This node's endpoint of session `id`'s channel.
    fn endpoint(&self, id: SessionId) -> Option<&Endpoint> {
        let channel = self.sessions.channel(id)?;
        Some(self.role.pick(channel.host(), channel.device()))
    }

    /// Seals `plaintext` under `aad` on this node's sending direction,
    /// consuming the next send IV.
    ///
    /// # Errors
    ///
    /// [`CryptoError::IvExhausted`] on IV exhaustion,
    /// [`CryptoError::UnknownSession`] if the active session is gone.
    pub fn seal(&mut self, aad: &[u8], plaintext: &[u8]) -> Result<SealedMessage> {
        self.endpoint_mut()?
            .tx_mut()
            .seal_prepared(aad.into(), staging_buffer(plaintext))
    }

    /// Opens a received frame at this node's receiving direction under the
    /// sentinel discipline: the IV is consumed whether or not the bytes
    /// authenticate, and on failure the returned buffer holds only
    /// sentinel bytes (no ciphertext escapes as plaintext).
    pub fn open_or_sentinel(&mut self, aad: &[u8], mut sealed: Vec<u8>) -> (Vec<u8>, bool) {
        let Ok(endpoint) = self.endpoint_mut() else {
            return (Vec::new(), false);
        };
        let ok = endpoint
            .rx_mut()
            .open_in_place_or_sentinel(aad, &mut sealed)
            .is_ok();
        (sealed, ok)
    }

    /// This node's next send IV in the active session.
    pub fn tx_iv(&self) -> u64 {
        self.endpoint(self.active)
            .map_or(0, |endpoint| endpoint.tx().next_iv())
    }

    /// This node's next receive IV in the active session.
    pub fn rx_iv(&self) -> u64 {
        self.endpoint(self.active)
            .map_or(0, |endpoint| endpoint.rx().next_iv())
    }

    /// Whether `other` is the opposite end of this edge in lockstep: the
    /// same live sessions, each at the same epoch, and in each direction
    /// the sender's next IV equal to the receiver's — nothing sealed and
    /// lost, nothing opened twice.
    pub fn mirrors(&self, other: &EdgeCrypto) -> bool {
        let ids = self.sessions.ids();
        self.edge == other.edge
            && self.role != other.role
            && ids == other.sessions.ids()
            && ids.into_iter().all(|id| {
                let (Some(mine), Some(theirs)) = (self.endpoint(id), other.endpoint(id)) else {
                    return false;
                };
                self.sessions.epoch(id) == other.sessions.epoch(id)
                    && mine.tx().next_iv() == theirs.rx().next_iv()
                    && mine.rx().next_iv() == theirs.tx().next_iv()
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::IV_LIMIT;

    /// The two ends of edge 0–1, keyed from one cluster seed.
    fn ends() -> (EdgeCrypto, EdgeCrypto) {
        let edge = WireEdge::between(0, 1);
        (
            EdgeCrypto::new(7, edge, role_at(edge, 0)),
            EdgeCrypto::new(7, edge, role_at(edge, 1)),
        )
    }

    #[test]
    fn headroom_rekey_continues_on_the_fresh_epoch() {
        let (mut a, mut b) = ends();
        let sid = a.open_session_with_initial_ivs(IV_LIMIT - 4, 1);
        assert_eq!(b.open_session_with_initial_ivs(IV_LIMIT - 4, 1), sid);
        assert!(a.set_session(sid) && b.set_session(sid));
        assert!(a.needs_rekey(), "a's sender is inside the headroom");
        assert!(!b.needs_rekey(), "b's sender is not");
        // Both ends move to epoch 1: keys change, both counters restart.
        a.rekey_to(1);
        b.rekey_to(1);
        assert_eq!((a.epoch(), b.epoch()), (1, 1));
        assert!(a.mirrors(&b));
        assert!(!a.needs_rekey() && a.tx_iv() == 1);
        // Traffic flows on the fresh epoch in both directions.
        let sealed = a.seal(b"hop", b"forward").unwrap();
        assert_eq!(sealed.iv, 1);
        let (plain, ok) = b.open_or_sentinel(b"hop", sealed.bytes);
        assert!(ok);
        assert_eq!(plain, b"forward");
        let sealed = b.seal(b"hop", b"back").unwrap();
        let (plain, ok) = a.open_or_sentinel(b"hop", sealed.bytes);
        assert!(ok);
        assert_eq!(plain, b"back");
        assert!(a.mirrors(&b));
        // A late duplicate of the rekey restarts nothing.
        a.rekey_to(1);
        assert_eq!((a.epoch(), a.tx_iv()), (1, 2));
        assert!(a.mirrors(&b));
    }
}
