//! Per-edge crypto state and the send/receive discipline of a data link.
//!
//! An edge of the networked deployment is exactly an edge of the
//! in-process [`pipellm_gpu::cluster::ClusterContext`]: a
//! [`SessionManager`] whose root is derived from the cluster seed and the
//! edge identity, carrying one [`SecureChannel`] for the default session
//! with an incrementing-IV counter per direction. Worker↔worker edges use
//! [`pipellm_gpu::cluster::edge_key_seed`]; a worker's ingress/egress edge
//! to the host uses [`pipellm_gpu::cluster::device_key_seed`] — the same
//! roots the in-process cluster derives, which is why ciphertext sealed by
//! a remote worker is bit-compatible with the cluster path.
//!
//! The send path ([`LinkSender::send`]) is where chaos meets the wire: each
//! outgoing data frame rolls the injector at
//! [`FaultSite::NetLink`]; frame-level faults mangle the sealed bytes in
//! flight (the receiver's sentinel open consumes the IV and NACKs for a
//! fresh-IV retransmit) and [`FaultKind::ConnectionDrop`] kills the whole
//! connection (recovered by reconnect + epoch bump on every adjacent
//! edge). Retransmits beyond [`RetryPolicy::max_retries`] run under
//! [`ChaosInjector::suppress`], the same escalation contract the
//! in-process retry loop follows.
//!
//! What a sender still owes its receiver lives in [`LinkTx`], the
//! in-flight set of one directed link: plaintexts held for fresh-IV
//! retransmission until acknowledged, in a deque sorted by sequence
//! number. Acks and NACKs find their frame by binary search, the
//! duplicate-payload guard reads a key index, a rekey walks the deque once
//! oldest first, and the level-triggered resend sweep visits frames only
//! when one can be due — an event loop pays for the frame an event names,
//! not for everything in flight. The orchestrator's ingress window
//! ([`crate::proto::INGRESS_WINDOW`]) bounds the set's size on every link.
//!
//! [`SecureChannel`]: pipellm_crypto::channel::SecureChannel

use crate::error::{NetError, NetResult};
use crate::proto::{DataFrame, Msg, HOST_NODE};
use crate::transport::FrameSender;
use pipellm_chaos::{ChaosInjector, FaultKind, FaultSite, RetryPolicy};
use pipellm_crypto::channel::SealedMessage;
use pipellm_crypto::session::{SessionId, SessionManager};
use pipellm_gpu::cluster::{device_key_seed, edge_key_seed, EdgeId};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// An undirected edge of the deployment graph, normalized `a < b`.
/// [`HOST_NODE`] is `u32::MAX`, so host edges sort as `(stage, HOST)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WireEdge {
    /// Lower endpoint.
    pub a: u32,
    /// Higher endpoint ([`HOST_NODE`] on ingress/egress edges).
    pub b: u32,
}

impl WireEdge {
    /// The edge joining `i` and `j`, order-insensitive.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` — no self-edges, as in the cluster topology.
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

/// Which endpoint of the edge's [`SecureChannel`] this node plays.
///
/// On a worker↔worker edge the lower stage is the channel-host endpoint
/// (the convention [`pipellm_gpu::cluster::ClusterContext`] fixes); on a
/// host edge the orchestrator is always the channel-host endpoint and the
/// worker the channel-device endpoint, mirroring the in-process
/// host↔device channel of that worker's [`CudaContext`].
///
/// [`SecureChannel`]: pipellm_crypto::channel::SecureChannel
/// [`CudaContext`]: pipellm_gpu::context::CudaContext
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// This node drives the channel's host endpoint.
    ChannelHost,
    /// This node drives the channel's device endpoint.
    ChannelDevice,
}

/// The channel role `node` plays on `edge`: the orchestrator is the
/// channel-host endpoint of every host edge, and on worker↔worker edges
/// the lower stage is — the same conventions the in-process cluster fixes,
/// so both endpoints derive mirrored state without negotiating.
pub fn role_at(edge: WireEdge, node: u32) -> Role {
    if edge.b == HOST_NODE {
        if node == HOST_NODE {
            Role::ChannelHost
        } else {
            Role::ChannelDevice
        }
    } else if edge.a == node {
        Role::ChannelHost
    } else {
        Role::ChannelDevice
    }
}

/// One edge's live crypto state at one endpoint.
pub struct EdgeCrypto {
    edge: WireEdge,
    role: Role,
    sessions: SessionManager,
}

impl EdgeCrypto {
    /// Derives the edge's key root from the cluster seed — identically at
    /// both endpoints, and identically to the in-process cluster — and
    /// opens the default session.
    pub fn new(cluster_seed: u64, edge: WireEdge, role: Role) -> Self {
        let seed = if edge.b == HOST_NODE {
            device_key_seed(cluster_seed, edge.a as usize)
        } else {
            edge_key_seed(
                cluster_seed,
                EdgeId::between(edge.a as usize, edge.b as usize),
            )
        };
        let mut sessions = SessionManager::from_seed(seed);
        let default = sessions.open();
        debug_assert_eq!(default, SessionId::DEFAULT);
        EdgeCrypto {
            edge,
            role,
            sessions,
        }
    }

    /// The edge this state belongs to.
    pub fn edge(&self) -> WireEdge {
        self.edge
    }

    /// Current key epoch of the default session.
    pub fn epoch(&self) -> u32 {
        self.sessions.epoch(SessionId::DEFAULT).unwrap_or(0)
    }

    /// Fast-forwards the default session to `target` epoch (fresh keys,
    /// both IV counters restarted at 1 — never reusing a counter of the
    /// previous epoch). A target at or below the current epoch is a no-op:
    /// rekey messages can arrive duplicated or late.
    pub fn rekey_to(&mut self, target: u32) {
        while self.epoch() < target {
            self.sessions.rekey(SessionId::DEFAULT);
        }
    }

    /// Seals `plaintext` under `aad` on this node's sending direction,
    /// consuming the next send IV.
    ///
    /// # Errors
    ///
    /// [`NetError::Crypto`] on IV exhaustion.
    pub fn seal(&mut self, aad: &[u8], plaintext: &[u8]) -> NetResult<SealedMessage> {
        let ch = self
            .sessions
            .channel_mut(SessionId::DEFAULT)
            .ok_or(NetError::Protocol {
                detail: "edge default session missing".to_string(),
            })?;
        let endpoint = match self.role {
            Role::ChannelHost => ch.host_mut(),
            Role::ChannelDevice => ch.device_mut(),
        };
        Ok(endpoint.tx_mut().seal_with_aad(aad, plaintext)?)
    }

    /// Opens a received frame at this node's receiving direction under the
    /// sentinel discipline: the IV is consumed whether or not the bytes
    /// authenticate, and on failure the returned buffer holds only
    /// sentinel bytes (no ciphertext escapes as plaintext).
    pub fn open_or_sentinel(&mut self, aad: &[u8], sealed: Vec<u8>) -> (Vec<u8>, bool) {
        let Some(ch) = self.sessions.channel_mut(SessionId::DEFAULT) else {
            return (Vec::new(), false);
        };
        let endpoint = match self.role {
            Role::ChannelHost => ch.host_mut(),
            Role::ChannelDevice => ch.device_mut(),
        };
        let rx = endpoint.rx_mut();
        let message = SealedMessage {
            iv: rx.next_iv(),
            aad: aad.into(),
            bytes: sealed,
        };
        let (buf, outcome) = rx.open_owned_or_sentinel(message);
        (buf, outcome.is_ok())
    }

    /// This node's next send IV on the edge.
    pub fn tx_iv(&self) -> u64 {
        self.endpoint_ivs().0
    }

    /// This node's next receive IV on the edge.
    pub fn rx_iv(&self) -> u64 {
        self.endpoint_ivs().1
    }

    fn endpoint_ivs(&self) -> (u64, u64) {
        let Some(ch) = self.sessions.channel(SessionId::DEFAULT) else {
            return (0, 0);
        };
        let endpoint = match self.role {
            Role::ChannelHost => ch.host(),
            Role::ChannelDevice => ch.device(),
        };
        (endpoint.tx().next_iv(), endpoint.rx().next_iv())
    }
}

/// One plaintext the sender must hold until the receiver acknowledges it.
#[derive(Debug, Clone)]
pub struct PendingFrame {
    /// Directed-link sequence number.
    pub seq: u64,
    /// Iteration of the carried micro-batch.
    pub iteration: u32,
    /// Micro-batch index.
    pub micro_batch: u32,
    /// The plaintext, kept for fresh-IV retransmission.
    pub plaintext: Vec<u8>,
    /// Transmission attempts so far.
    pub attempts: u32,
    /// When the frame last went out; its registration time until the first
    /// attempt, which every caller makes right after [`LinkTx::push`].
    pub last_sent: Instant,
}

/// Sender bookkeeping for one directed link `src → dst`: the in-flight
/// set, indexed so that no operation an event loop performs per event
/// walks it.
///
/// Invariants:
///
/// * `unacked` is sorted by `seq` — sequence numbers are handed out
///   monotonically and frames are only ever appended or removed, so an
///   ack or NACK finds its frame by binary search and the rekey walk sees
///   the frames oldest first.
/// * `payloads` counts the outstanding frames per `(iteration,
///   micro_batch)`, so [`LinkTx::has_payload`] never scans.
/// * `oldest_sent`, when set, is no later than any outstanding frame's
///   `last_sent`. [`LinkTx::sweep`] compares it with the clock reading it
///   is handed and visits the frames only when one of them can be due.
///
/// Pure: the methods that need the time take it as an argument.
#[derive(Default)]
pub struct LinkTx {
    next_seq: u64,
    unacked: VecDeque<PendingFrame>,
    payloads: BTreeMap<(u32, u32), usize>,
    oldest_sent: Option<Instant>,
}

impl LinkTx {
    /// Registers a new outgoing payload at `now` and returns its frame,
    /// ready for the first [`LinkSender::send`].
    pub fn push(
        &mut self,
        now: Instant,
        iteration: u32,
        micro_batch: u32,
        plaintext: Vec<u8>,
    ) -> &mut PendingFrame {
        let seq = self.next_seq;
        self.next_seq += 1;
        *self.payloads.entry((iteration, micro_batch)).or_insert(0) += 1;
        self.unacked.push_back(PendingFrame {
            seq,
            iteration,
            micro_batch,
            plaintext,
            attempts: 0,
            last_sent: now,
        });
        let newest = self.unacked.len() - 1;
        &mut self.unacked[newest]
    }

    /// Position of the outstanding frame with `seq`. Acks mostly arrive in
    /// send order, so the front is tried before the binary search.
    fn position(&self, seq: u64) -> Option<usize> {
        if self.unacked.front()?.seq == seq {
            return Some(0);
        }
        self.unacked.binary_search_by_key(&seq, |p| p.seq).ok()
    }

    /// The level-triggered retransmit sweep that recovers losses no NACK
    /// or rekey will ever report (a frame dropped into a dead relay leg, a
    /// retransmit that raced an empty sender slot): hands every frame
    /// unacknowledged for at least `threshold` as of `now` to `resend`,
    /// oldest first, and returns how many that was. `resend` must restamp
    /// `last_sent`, as [`LinkSender::send`] does.
    ///
    /// While no frame can be due the call returns without visiting any,
    /// so an event loop can sweep every turn: a frame left unacked is
    /// retransmitted at the first sweep at or after `last_sent +
    /// threshold`, and a zero threshold retransmits everything each call.
    ///
    /// # Errors
    ///
    /// The first error `resend` returns; frames after it are not visited.
    pub fn sweep(
        &mut self,
        now: Instant,
        threshold: Duration,
        mut resend: impl FnMut(&mut PendingFrame) -> NetResult<()>,
    ) -> NetResult<u64> {
        if self.unacked.is_empty() {
            return Ok(0);
        }
        if self
            .oldest_sent
            .is_some_and(|at| now.saturating_duration_since(at) < threshold)
        {
            return Ok(0);
        }
        let mut resent = 0;
        let mut oldest = now;
        for pending in &mut self.unacked {
            if now.saturating_duration_since(pending.last_sent) >= threshold {
                resend(pending)?;
                resent += 1;
            }
            oldest = oldest.min(pending.last_sent);
        }
        self.oldest_sent = Some(oldest);
        Ok(resent)
    }

    /// Drops the acknowledged frame. Returns whether it was outstanding.
    pub fn ack(&mut self, seq: u64) -> bool {
        let Some(frame) = self.position(seq).and_then(|i| self.unacked.remove(i)) else {
            return false;
        };
        if let Entry::Occupied(mut count) =
            self.payloads.entry((frame.iteration, frame.micro_batch))
        {
            *count.get_mut() -= 1;
            if *count.get() == 0 {
                count.remove();
            }
        }
        true
    }

    /// The outstanding frame with `seq`, if any.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut PendingFrame> {
        let index = self.position(seq)?;
        self.unacked.get_mut(index)
    }

    /// Every outstanding frame, oldest first (the rekey retransmit order).
    pub fn pending_mut(&mut self) -> impl Iterator<Item = &mut PendingFrame> {
        self.unacked.iter_mut()
    }

    /// Number of outstanding frames.
    pub fn in_flight(&self) -> usize {
        self.unacked.len()
    }

    /// Whether some outstanding frame already carries this payload — the
    /// guard that keeps a duplicate input from queueing the same
    /// `(iteration, micro_batch)` output twice.
    pub fn has_payload(&self, iteration: u32, micro_batch: u32) -> bool {
        self.payloads.contains_key(&(iteration, micro_batch))
    }
}

/// A sender half that pump threads can swap out on reconnect: `None`
/// while the link is down.
pub type SenderSlot = Arc<Mutex<Option<Box<dyn FrameSender>>>>;

/// A fresh, empty sender slot.
pub fn empty_slot() -> SenderSlot {
    Arc::new(Mutex::new(None))
}

fn lock_slot(slot: &SenderSlot) -> std::sync::MutexGuard<'_, Option<Box<dyn FrameSender>>> {
    match slot.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Installs a (re)connected sender half into the slot.
pub fn install_sender(slot: &SenderSlot, sender: Box<dyn FrameSender>) {
    *lock_slot(slot) = Some(sender);
}

/// Sends one encoded frame through the slot.
///
/// # Errors
///
/// [`NetError::ConnectionLost`] if the slot is empty (link down) or the
/// write fails at the transport.
pub fn send_on(slot: &SenderSlot, frame: &[u8], link: &str) -> NetResult<()> {
    let mut guard = lock_slot(slot);
    match guard.as_mut() {
        Some(sender) => {
            let out = sender.send_frame(frame);
            if matches!(out, Err(NetError::ConnectionLost { .. })) {
                *guard = None;
            }
            out
        }
        None => Err(NetError::ConnectionLost {
            link: link.to_string(),
        }),
    }
}

/// Kills the connection behind the slot (injected connection drop) and
/// empties it; the pump's reattach brings a replacement.
pub fn kill_slot(slot: &SenderSlot) {
    let mut guard = lock_slot(slot);
    if let Some(sender) = guard.as_mut() {
        sender.kill();
    }
    *guard = None;
}

/// Outcome of one [`LinkSender::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// The frame is on the wire (possibly mangled by an injected
    /// frame-level fault — the receiver's sentinel discipline owns that).
    Sent,
    /// Chaos killed the connection instead of delivering the frame; the
    /// caller must ride the reconnect + rekey recovery.
    DropInjected,
    /// The link was already down; the frame stays unacked and will be
    /// retransmitted after the link's rekey.
    LinkDown,
}

/// The sending end of one directed link `src → dst`: everything a
/// transmission needs besides the frame. An event loop borrows it beside
/// the link's [`LinkTx`], so a walk over the in-flight set (rekey, sweep)
/// sends as it goes instead of collecting sequence numbers to look up.
pub struct LinkSender<'a> {
    /// The edge's crypto state at this endpoint.
    pub crypto: &'a mut EdgeCrypto,
    /// Sending node.
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// Fault injector rolled at [`FaultSite::NetLink`], if chaos is on.
    pub chaos: Option<&'a Arc<ChaosInjector>>,
    /// Retransmit escalation budget.
    pub policy: &'a RetryPolicy,
    /// Where the data connection's sender half lives.
    pub slot: &'a SenderSlot,
    /// Link label for error messages.
    pub link: &'a str,
}

impl LinkSender<'_> {
    /// Seals `pending` on the edge and pushes it through the slot, rolling
    /// the chaos injector at [`FaultSite::NetLink`] on the way. Attempts
    /// beyond `policy.max_retries` are the escalation path and run with
    /// injection suppressed — recovery must be able to win.
    ///
    /// Every call consumes exactly one send IV (the epoch's counters
    /// advance even for frames chaos destroys; the receiver or the rekey
    /// burns the matching slot on the other side).
    ///
    /// # Errors
    ///
    /// Only unrecoverable ones: IV exhaustion, encode failures, or
    /// transport errors other than connection loss.
    pub fn send(&mut self, pending: &mut PendingFrame) -> NetResult<TxOutcome> {
        let epoch = self.crypto.epoch();
        let aad = DataFrame::bind_aad(
            self.src,
            self.dst,
            epoch,
            pending.iteration,
            pending.micro_batch,
            pending.plaintext.len() as u64,
        );
        let sealed = self.crypto.seal(&aad, &pending.plaintext)?;
        let mut bytes = sealed.bytes;
        pending.attempts += 1;
        pending.last_sent = Instant::now();
        // Roll chaos: the escalation attempt (budget exhausted) suppresses
        // injection but still advances the site's fault sequence, keeping
        // the stream deterministic for every later roll.
        let escalating = pending.attempts > self.policy.max_retries;
        let fault = if let Some(injector) = self.chaos {
            if escalating {
                let _quiet = injector.suppress();
                injector.roll_net(FaultSite::NetLink)
            } else {
                injector.roll_net(FaultSite::NetLink)
            }
        } else {
            None
        };
        if let Some(fault) = fault {
            if fault.kind == FaultKind::ConnectionDrop {
                kill_slot(self.slot);
                return Ok(TxOutcome::DropInjected);
            }
            fault.apply_to_frame(&mut bytes);
        }
        let msg = Msg::Data(DataFrame {
            src: self.src,
            dst: self.dst,
            seq: pending.seq,
            epoch,
            iteration: pending.iteration,
            micro_batch: pending.micro_batch,
            sealed: bytes,
        });
        match send_on(self.slot, &msg.encode()?, self.link) {
            Ok(()) => Ok(TxOutcome::Sent),
            Err(NetError::ConnectionLost { .. }) => Ok(TxOutcome::LinkDown),
            Err(e) => Err(e),
        }
    }
}

/// Opens a received [`DataFrame`] against `crypto`, handling epochs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RxOutcome {
    /// Authenticated plaintext.
    Plain(Vec<u8>),
    /// The frame failed authentication; its IV was consumed and the
    /// payload scrubbed. Sender owes a fresh-IV retransmit (NACK).
    Sentinel,
    /// The frame was sealed under a retired epoch; ignored without
    /// consuming an IV — the sender retransmits under the new keys.
    StaleEpoch,
}

/// Receives one data frame: fast-forwards the edge if the frame's epoch is
/// ahead (the rekey control message may still be in flight), discards
/// stale-epoch frames, and sentinel-opens everything else at the edge's
/// receive counter with the locally recomputed AAD binding. The open is in
/// place: the ciphertext body is taken out of `frame` (its header stays
/// for the caller's ack), so no hop copies a payload to decrypt it.
pub fn open_data(crypto: &mut EdgeCrypto, frame: &mut DataFrame) -> RxOutcome {
    if frame.epoch < crypto.epoch() {
        return RxOutcome::StaleEpoch;
    }
    if frame.epoch > crypto.epoch() {
        crypto.rekey_to(frame.epoch);
    }
    let aad = DataFrame::bind_aad(
        frame.src,
        frame.dst,
        frame.epoch,
        frame.iteration,
        frame.micro_batch,
        frame.sealed.len().saturating_sub(16) as u64,
    );
    let (buf, ok) = crypto.open_or_sentinel(&aad, std::mem::take(&mut frame.sealed));
    if ok {
        RxOutcome::Plain(buf)
    } else {
        RxOutcome::Sentinel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pair(edge: WireEdge) -> (EdgeCrypto, EdgeCrypto) {
        (
            EdgeCrypto::new(0x51ce, edge, Role::ChannelHost),
            EdgeCrypto::new(0x51ce, edge, Role::ChannelDevice),
        )
    }

    fn frame_for(
        tx: &mut EdgeCrypto,
        src: u32,
        dst: u32,
        iteration: u32,
        micro_batch: u32,
        plaintext: &[u8],
    ) -> DataFrame {
        let aad = DataFrame::bind_aad(
            src,
            dst,
            tx.epoch(),
            iteration,
            micro_batch,
            plaintext.len() as u64,
        );
        let sealed = tx.seal(&aad, plaintext).unwrap();
        DataFrame {
            src,
            dst,
            seq: 0,
            epoch: tx.epoch(),
            iteration,
            micro_batch,
            sealed: sealed.bytes,
        }
    }

    #[test]
    fn edge_roundtrip_and_counters_advance() {
        let edge = WireEdge::between(0, 1);
        let (mut tx, mut rx) = pair(edge);
        let mut frame = frame_for(&mut tx, 0, 1, 2, 3, b"activation bytes");
        assert_eq!(
            open_data(&mut rx, &mut frame),
            RxOutcome::Plain(b"activation bytes".to_vec())
        );
        assert_eq!(tx.tx_iv(), 2);
        assert_eq!(rx.rx_iv(), 2);
    }

    #[test]
    fn edge_keys_match_the_in_process_cluster() {
        use pipellm_gpu::cluster::{ClusterConfig, ClusterContext};
        // Seal on the in-process cluster edge 0-1, open with the net-side
        // EdgeCrypto derived from the same cluster seed: same keys.
        let seed = 0xA5A5;
        let mut cluster = ClusterContext::new(ClusterConfig {
            devices: 2,
            seed,
            ..ClusterConfig::default()
        });
        let sealed = cluster
            .edge_sessions_mut(EdgeId::between(0, 1))
            .unwrap()
            .channel_mut(SessionId::DEFAULT)
            .unwrap()
            .host_mut()
            .seal(b"cross-check")
            .unwrap();
        let mut net_side = EdgeCrypto::new(seed, WireEdge::between(0, 1), Role::ChannelDevice);
        let (buf, ok) = net_side.open_or_sentinel(&sealed.aad, sealed.bytes);
        assert!(ok, "net edge crypto must speak the cluster's channels");
        assert_eq!(buf, b"cross-check");
    }

    #[test]
    fn envelope_rewrite_breaks_authentication() {
        let edge = WireEdge::between(0, 1);
        let (mut tx, mut rx) = pair(edge);
        let mut frame = frame_for(&mut tx, 0, 1, 0, 0, b"payload");
        frame.micro_batch = 1; // relay "rewrites" routing metadata
        assert_eq!(open_data(&mut rx, &mut frame), RxOutcome::Sentinel);
        // IV consumed regardless: lockstep preserved.
        assert_eq!(rx.rx_iv(), tx.tx_iv());
    }

    #[test]
    fn stale_epoch_frames_are_ignored_without_iv_burn() {
        let edge = WireEdge::between(1, 2);
        let (mut tx, mut rx) = pair(edge);
        let mut frame = frame_for(&mut tx, 1, 2, 0, 0, b"old world");
        rx.rekey_to(1);
        assert_eq!(open_data(&mut rx, &mut frame), RxOutcome::StaleEpoch);
        assert_eq!(rx.rx_iv(), 1, "fresh epoch counter untouched");
    }

    #[test]
    fn future_epoch_frames_fast_forward_the_receiver() {
        let edge = WireEdge::between(1, 2);
        let (mut tx, mut rx) = pair(edge);
        tx.rekey_to(2);
        let mut frame = frame_for(&mut tx, 1, 2, 0, 0, b"new world");
        assert_eq!(
            open_data(&mut rx, &mut frame),
            RxOutcome::Plain(b"new world".to_vec())
        );
        assert_eq!(rx.epoch(), 2);
    }

    #[test]
    fn rekey_resets_counters_for_fresh_ivs() {
        let edge = WireEdge::between(0, HOST_NODE);
        let (mut host, mut dev) = pair(edge);
        for _ in 0..5 {
            let mut f = frame_for(&mut host, HOST_NODE, 0, 0, 0, b"x");
            let _ = open_data(&mut dev, &mut f);
        }
        assert_eq!(host.tx_iv(), 6);
        host.rekey_to(1);
        dev.rekey_to(1);
        assert_eq!(host.tx_iv(), 1, "fresh-IV recovery after rekey");
        assert_eq!(dev.rx_iv(), 1);
        let mut f = frame_for(&mut host, HOST_NODE, 0, 0, 0, b"post-rekey");
        assert_eq!(
            open_data(&mut dev, &mut f),
            RxOutcome::Plain(b"post-rekey".to_vec())
        );
    }

    #[test]
    fn link_tx_tracks_unacked_frames() {
        let now = Instant::now();
        let mut tx = LinkTx::default();
        let s0 = tx.push(now, 0, 0, vec![1]).seq;
        let s1 = tx.push(now, 0, 1, vec![2]).seq;
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(tx.in_flight(), 2);
        assert!(tx.has_payload(0, 0));
        assert!(tx.ack(s0));
        assert!(!tx.ack(s0));
        assert!(!tx.has_payload(0, 0));
        assert_eq!(tx.in_flight(), 1);
        assert!(tx.get_mut(s1).is_some());
    }

    /// The linear `LinkTx` this module shipped before the in-flight set
    /// was indexed, kept as the reference model: every operation scans the
    /// deque, and the sweep asks each frame for its age.
    #[derive(Default)]
    struct LinearTx {
        next_seq: u64,
        unacked: VecDeque<PendingFrame>,
    }

    impl LinearTx {
        fn push(&mut self, now: Instant, iteration: u32, micro_batch: u32) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.unacked.push_back(PendingFrame {
                seq,
                iteration,
                micro_batch,
                plaintext: Vec::new(),
                attempts: 0,
                last_sent: now,
            });
            seq
        }

        fn stale(&self, now: Instant, threshold: Duration) -> Vec<u64> {
            self.unacked
                .iter()
                .filter(|p| now.saturating_duration_since(p.last_sent) >= threshold)
                .map(|p| p.seq)
                .collect()
        }

        fn ack(&mut self, seq: u64) -> bool {
            let before = self.unacked.len();
            self.unacked.retain(|p| p.seq != seq);
            self.unacked.len() != before
        }

        fn get_mut(&mut self, seq: u64) -> Option<&mut PendingFrame> {
            self.unacked.iter_mut().find(|p| p.seq == seq)
        }

        fn has_payload(&self, iteration: u32, micro_batch: u32) -> bool {
            self.unacked
                .iter()
                .any(|p| p.iteration == iteration && p.micro_batch == micro_batch)
        }
    }

    /// What a transmission does to the frame's bookkeeping.
    fn transmit(pending: &mut PendingFrame, now: Instant) {
        pending.attempts += 1;
        pending.last_sent = now;
    }

    /// Which outstanding (or not) sequence number an ack or NACK names.
    #[derive(Debug, Clone)]
    enum Pick {
        Oldest,
        Newest,
        Nth(usize),
        /// A sequence number acknowledged before (or never outstanding).
        Settled(usize),
        /// A sequence number not handed out yet.
        Unknown,
    }

    #[derive(Debug, Clone)]
    enum Op {
        Push(u32, u32),
        Ack(Pick),
        Nack(Pick),
        Rekey,
        Sweep(u64),
        Advance(u64),
    }

    fn pick_strategy() -> impl Strategy<Value = Pick> {
        prop_oneof![
            Just(Pick::Oldest),
            Just(Pick::Newest),
            (0usize..64).prop_map(Pick::Nth),
            (0usize..64).prop_map(Pick::Settled),
            Just(Pick::Unknown),
        ]
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..3, 0u32..4).prop_map(|(it, mb)| Op::Push(it, mb)),
            (0u32..3, 0u32..4).prop_map(|(it, mb)| Op::Push(it, mb)),
            pick_strategy().prop_map(Op::Ack),
            pick_strategy().prop_map(Op::Nack),
            Just(Op::Rekey),
            (0u64..40).prop_map(Op::Sweep),
            (0u64..25).prop_map(Op::Advance),
        ]
    }

    /// Drives the indexed `LinkTx` and the linear reference through the
    /// same operations and holds them equal after each one: the frames
    /// every walk visits and their order, what acks report, the payload
    /// index, and every frame's attempts and send time.
    fn check_against_reference(ops: &[Op]) {
        let base = Instant::now();
        let mut clock_ms = 0u64;
        let mut tx = LinkTx::default();
        let mut model = LinearTx::default();
        let mut settled: Vec<u64> = Vec::new();
        for op in ops {
            let now = base + Duration::from_millis(clock_ms);
            let resolve = |pick: &Pick, model: &LinearTx| -> u64 {
                let seqs: Vec<u64> = model.unacked.iter().map(|p| p.seq).collect();
                match pick {
                    Pick::Oldest => seqs.first().copied().unwrap_or(u64::MAX),
                    Pick::Newest => seqs.last().copied().unwrap_or(u64::MAX),
                    Pick::Nth(n) if !seqs.is_empty() => seqs[n % seqs.len()],
                    Pick::Settled(n) if !settled.is_empty() => settled[n % settled.len()],
                    _ => model.next_seq + 7,
                }
            };
            match op {
                Op::Push(iteration, micro_batch) => {
                    let frame = tx.push(now, *iteration, *micro_batch, Vec::new());
                    transmit(frame, now);
                    let seq = frame.seq;
                    assert_eq!(seq, model.push(now, *iteration, *micro_batch));
                    transmit(model.get_mut(seq).unwrap(), now);
                }
                Op::Ack(pick) => {
                    let seq = resolve(pick, &model);
                    assert_eq!(tx.ack(seq), model.ack(seq), "ack {seq}");
                    settled.push(seq);
                }
                Op::Nack(pick) => {
                    let seq = resolve(pick, &model);
                    let (got, want) = (tx.get_mut(seq), model.get_mut(seq));
                    assert_eq!(got.is_some(), want.is_some(), "nack {seq}");
                    if let (Some(got), Some(want)) = (got, want) {
                        assert_eq!(got.seq, seq);
                        transmit(got, now);
                        transmit(want, now);
                    }
                }
                Op::Rekey => {
                    let mut walked = Vec::new();
                    for pending in tx.pending_mut() {
                        walked.push(pending.seq);
                        transmit(pending, now);
                    }
                    let expected: Vec<u64> = model.unacked.iter().map(|p| p.seq).collect();
                    assert_eq!(walked, expected, "rekey walks oldest first");
                    model.unacked.iter_mut().for_each(|p| transmit(p, now));
                }
                Op::Sweep(threshold_ms) => {
                    let threshold = Duration::from_millis(*threshold_ms);
                    let mut resent = Vec::new();
                    let count = tx
                        .sweep(now, threshold, |p| {
                            resent.push(p.seq);
                            transmit(p, now);
                            Ok(())
                        })
                        .unwrap();
                    let expected = model.stale(now, threshold);
                    for &seq in &expected {
                        transmit(model.get_mut(seq).unwrap(), now);
                    }
                    assert_eq!(resent, expected, "sweep at +{clock_ms} ms");
                    assert_eq!(count, expected.len() as u64);
                }
                Op::Advance(ms) => clock_ms += ms,
            }
            assert_eq!(tx.in_flight(), model.unacked.len());
            for iteration in 0..3 {
                for micro_batch in 0..4 {
                    assert_eq!(
                        tx.has_payload(iteration, micro_batch),
                        model.has_payload(iteration, micro_batch),
                        "payload ({iteration}, {micro_batch})"
                    );
                }
            }
            let state = |frames: Vec<&PendingFrame>| -> Vec<(u64, u32, u32, u32, Instant)> {
                frames
                    .iter()
                    .map(|p| (p.seq, p.iteration, p.micro_batch, p.attempts, p.last_sent))
                    .collect()
            };
            assert_eq!(
                state(tx.pending_mut().map(|p| &*p).collect()),
                state(model.unacked.iter().collect())
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn indexed_link_tx_agrees_with_the_linear_reference(
            ops in proptest::collection::vec(op_strategy(), 1..200),
        ) {
            check_against_reference(&ops);
        }
    }

    #[test]
    fn acks_in_every_order_agree_with_the_reference() {
        // The orders an ack stream really takes, each over a full window:
        // in order, reverse, and every ack duplicated.
        let pushes: Vec<Op> = (0..32).map(|i| Op::Push(i / 4, i % 4)).collect();
        for picks in [
            vec![Pick::Oldest; 32],
            vec![Pick::Newest; 32],
            (0..32)
                .flat_map(|_| [Pick::Oldest, Pick::Settled(usize::MAX)])
                .collect(),
        ] {
            let mut ops = pushes.clone();
            ops.extend(picks.into_iter().map(Op::Ack));
            ops.push(Op::Sweep(0));
            check_against_reference(&ops);
        }
    }

    #[test]
    fn an_unacked_frame_is_swept_within_the_threshold_plus_one_poll() {
        // An event loop sweeps once per turn, and a turn blocks at most
        // one poll interval. Whatever the phase of its ticks, and however
        // the gate's lower bound went stale in between, a frame is handed
        // to `resend` at the first tick at or after `last_sent + threshold`
        // — so never later than `threshold + poll` after it went out.
        let (threshold, poll) = (Duration::from_millis(300), Duration::from_millis(10));
        let base = Instant::now();
        for phase_ms in [0u64, 3, 9] {
            let mut tx = LinkTx::default();
            let sent_a = base;
            let a = tx.push(sent_a, 0, 0, Vec::new()).seq;
            let sent_b = base + Duration::from_millis(5);
            let b = tx.push(sent_b, 0, 1, Vec::new()).seq;
            let sent_c = base + Duration::from_millis(140);
            let mut resends: Vec<(u64, Instant)> = Vec::new();
            let mut c = None;
            let mut tick = base + Duration::from_millis(phase_ms);
            while tick < base + Duration::from_millis(700) {
                if c.is_none() && tick >= sent_c {
                    // The oldest frame is acked and a new one goes out
                    // after the gate last looked: its bound is now stale.
                    assert!(tx.ack(a));
                    c = Some(tx.push(sent_c, 0, 2, Vec::new()).seq);
                }
                tx.sweep(tick, threshold, |p| {
                    resends.push((p.seq, tick));
                    p.last_sent = tick;
                    Ok(())
                })
                .unwrap();
                tick += poll;
            }
            let first = |seq: u64| resends.iter().find(|(s, _)| *s == seq).map(|(_, at)| *at);
            assert_eq!(first(a), None, "acked frames are never resent");
            for (seq, sent) in [(b, sent_b), (c.unwrap(), sent_c)] {
                let at = first(seq).expect("an unacked frame must be swept");
                assert!(at >= sent + threshold, "frame {seq} resent early");
                assert!(at < sent + threshold + poll, "frame {seq} resent late");
            }
        }
    }

    #[test]
    fn a_zero_threshold_retransmits_everything_every_sweep() {
        let now = Instant::now();
        let mut tx = LinkTx::default();
        for micro_batch in 0..3 {
            tx.push(now, 0, micro_batch, Vec::new());
        }
        for _ in 0..4 {
            let resent = tx.sweep(now, Duration::ZERO, |p| {
                p.last_sent = Instant::now();
                Ok(())
            });
            assert_eq!(resent.unwrap(), 3);
        }
    }

    #[test]
    fn per_event_work_does_not_grow_with_the_in_flight_set() {
        // A complexity guard, not a benchmark: the linear implementation
        // needs minutes for this (each reverse ack and each sweep walked
        // the whole deque); the indexed one needs tens of milliseconds,
        // so the 2 s budget leaves more than 20x headroom on a slow,
        // unoptimized, shared runner.
        const FRAMES: u32 = 200_000;
        let started = Instant::now();
        let mut tx = LinkTx::default();
        for i in 0..FRAMES {
            tx.push(started, i / 8, i % 8, Vec::new());
        }
        for seq in (0..u64::from(FRAMES)).rev() {
            assert!(tx.ack(seq));
            assert!(!tx.has_payload(u32::MAX, 0));
        }
        assert_eq!(tx.in_flight(), 0);

        let now = Instant::now();
        for i in 0..10_000 {
            tx.push(now, i / 8, i % 8, Vec::new());
        }
        let mut visited = 0u64;
        for _ in 0..FRAMES {
            let resent = tx.sweep(now, Duration::from_secs(3600), |_| {
                visited += 1;
                Ok(())
            });
            assert_eq!(resent.unwrap(), 0);
        }
        assert_eq!(visited, 0, "fresh frames are never due");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "took {:?}",
            started.elapsed()
        );
    }
}
