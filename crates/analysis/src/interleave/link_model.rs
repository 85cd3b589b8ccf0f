//! Interleaving model of the ARQ link epoch/IV state machine
//! (`crates/net/src/link.rs`).
//!
//! [`LinkModel`] captures the pieces whose *interaction* is dangerous:
//!
//! - the sender's `EdgeCrypto` — a monotone `(epoch, iv)` counter pair
//!   where `rekey_to` bumps the epoch and resets the IV counter, and
//!   every seal consumes exactly one IV;
//! - the wire — a multiset of in-flight frames delivered (or corrupted,
//!   or dropped) in any order;
//! - the receiver's `open_data` — stale-epoch frames dropped without
//!   burning an IV, future-epoch frames fast-forwarding the receive
//!   epoch only when their tag verifies under the candidate keys, corrupt
//!   frames turned into sentinels plus a NACK (a corrupt future-epoch one
//!   at the current epoch, remembering the candidate IV it consumed);
//! - recovery — NACK-triggered reseal at a *fresh* IV, and the
//!   level-triggered resend sweep for frames lost on the wire; a loss is
//!   what a dead connection does, so it is followed by the rekey the
//!   connection's restoration triggers;
//! - the close — once every payload is acknowledged the sender emits a
//!   `Fin` naming its epoch and next send IV (`LinkSender::close`), again
//!   whenever a rekey moved those counters; the receiver accepts it only if
//!   they equal its own epoch and next receive IV (`LinkRx::accept`), and
//!   its `FinAck` is what completes the link.
//!
//! The explorer checks, under every interleaving of delivery, fault
//! injection, rekey, NACK-reseal and resend-sweep:
//!
//! 1. **No IV reuse**: no two seals ever use the same `(epoch, iv)`.
//! 2. **No stale-epoch open**: an accepted frame's epoch equals the
//!    receiver's epoch at open time.
//! 3. **Closed means drained**: no frame is opened on the link at the
//!    epoch of an accepted `Fin`, and at the end the accepted `Fin`'s send
//!    IV equals both the receiver's and the sender's counter.
//! 4. **Completeness**: every payload is eventually delivered exactly
//!    once, the `Fin` at the sender's final counters is acknowledged, and
//!    nothing is left on the wire or in the NACK queue.
//!
//! Buggy variants prove the checker detects each class:
//! [`LinkBug::ResealReusesIv`] (NACK reseal replays the original
//! counter), [`LinkBug::RekeyKeepsEpoch`] (IV counter reset without an
//! epoch bump), [`LinkBug::NoStaleEpochCheck`] (receiver opens
//! old-epoch frames after a rekey), and [`LinkBug::FinBeforeDrained`] (a
//! `Fin` sent while frames are still unacknowledged).

use super::{Action, Model};

/// Seeded bug for [`LinkModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkBug {
    /// NACK reseal re-sends the original `(epoch, iv)` instead of
    /// consuming a fresh IV.
    ResealReusesIv,
    /// Rekey resets the IV counter but forgets to bump the epoch, so
    /// subsequent seals replay `(epoch, 1)`, `(epoch, 2)`, ….
    RekeyKeepsEpoch,
    /// The receiver skips the `frame.epoch < rx_epoch` check and opens
    /// frames sealed under a retired epoch.
    NoStaleEpochCheck,
    /// The sender closes the link while its in-flight set is non-empty:
    /// a frame still owed a reseal can then be opened after the receiver
    /// accepted the `Fin`.
    FinBeforeDrained,
}

/// One frame in flight: a sealed payload, or a `Fin` (whose `iv` is the
/// next send IV it names; it consumes none and carries no `seq`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frame {
    seq: usize,
    epoch: u32,
    iv: u32,
    corrupt: bool,
    fin: bool,
}

/// Thread ids used in traces: 0 = sender, 1 = receiver/network, 2 = chaos.
const TX: usize = 0;
const RX: usize = 1;
const CHAOS: usize = 2;

/// The ARQ link model. `N` payloads (seqs) must all arrive despite one
/// corruption, one wire drop, and one rekey racing the recovery paths.
#[derive(Clone)]
pub struct LinkModel {
    bug: Option<LinkBug>,
    n: usize,
    // --- sender ---
    tx_epoch: u32,
    tx_next_iv: u32,
    /// Every `(epoch, iv)` ever consumed by a seal, in order.
    sealed: Vec<(u32, u32)>,
    /// Per seq: the `(epoch, iv)` of its first seal (for the reuse bug).
    first_seal: Vec<Option<(u32, u32)>>,
    sent_initial: Vec<bool>,
    acked: Vec<bool>,
    nacks: Vec<usize>,
    /// The last `Fin` sent, `(epoch, iv)`, and whether it was acked.
    fin_sent: Option<((u32, u32), bool)>,
    // --- wire ---
    wire: Vec<Frame>,
    // --- receiver ---
    rx_epoch: u32,
    rx_next_iv: u32,
    /// A newer epoch corrupt frames claimed, and how many of its IVs they
    /// consumed (`EdgeCrypto`'s candidate bookkeeping).
    rx_ahead: Option<(u32, u32)>,
    delivered: Vec<bool>,
    /// The `Fin` the receiver accepted, `(epoch, iv)`.
    fin_accepted: Option<(u32, u32)>,
    // --- chaos budgets ---
    /// A frame was lost: the connection's restoration owes a rekey.
    loss_rekey: bool,
    rekey_budget: u32,
    corrupt_budget: u32,
    drop_budget: u32,
    /// Set by `apply` when a step observes a broken invariant.
    violation: Option<String>,
}

impl LinkModel {
    /// A faithful model carrying `n` payloads.
    pub fn faithful(n: usize) -> LinkModel {
        LinkModel {
            bug: None,
            n,
            tx_epoch: 0,
            tx_next_iv: 1,
            sealed: Vec::new(),
            first_seal: vec![None; n],
            sent_initial: vec![false; n],
            acked: vec![false; n],
            nacks: Vec::new(),
            fin_sent: None,
            wire: Vec::new(),
            rx_epoch: 0,
            rx_next_iv: 1,
            rx_ahead: None,
            delivered: vec![false; n],
            fin_accepted: None,
            loss_rekey: false,
            rekey_budget: 1,
            corrupt_budget: 1,
            drop_budget: 1,
            violation: None,
        }
    }

    /// The faithful model with one bug seeded in.
    pub fn with_bug(n: usize, bug: LinkBug) -> LinkModel {
        LinkModel {
            bug: Some(bug),
            ..LinkModel::faithful(n)
        }
    }

    /// Seals `seq` at a chosen `(epoch, iv)`, recording the consumption
    /// and checking uniqueness — the IV-reuse invariant lives here.
    fn seal_at(&mut self, seq: usize, epoch: u32, iv: u32) {
        if self.sealed.contains(&(epoch, iv)) {
            self.violation = Some(format!(
                "IV reuse: (epoch {epoch}, iv {iv}) consumed twice (seq {seq})"
            ));
        }
        self.sealed.push((epoch, iv));
        if self.first_seal[seq].is_none() {
            self.first_seal[seq] = Some((epoch, iv));
        }
        self.wire.push(Frame {
            seq,
            epoch,
            iv,
            corrupt: false,
            fin: false,
        });
    }

    /// Seals `seq` with a fresh IV from the live counter.
    fn seal_fresh(&mut self, seq: usize) {
        let (epoch, iv) = (self.tx_epoch, self.tx_next_iv);
        self.tx_next_iv += 1;
        self.seal_at(seq, epoch, iv);
    }

    /// Whether `seq` has no copy in flight and no pending NACK — the
    /// level-trigger for the resend sweep.
    fn needs_sweep(&self, seq: usize) -> bool {
        !self.acked[seq]
            && self.sent_initial[seq]
            && !self.wire.iter().any(|f| !f.fin && f.seq == seq)
            && !self.nacks.contains(&seq)
    }

    /// Whether the sender closes the link now: it will seal nothing new,
    /// its in-flight set is empty (the bug skips that), and no `Fin` names
    /// its current counters yet. A `Fin` lost at the same counters is
    /// resent only through the rekey its loss triggers — the model has no
    /// clock for the sweep, and every schedule stays finite.
    fn fin_due(&self) -> bool {
        let drained = self.acked.iter().all(|&a| a) || self.bug == Some(LinkBug::FinBeforeDrained);
        self.sent_initial.iter().all(|&s| s)
            && drained
            && self.fin_sent.map(|(at, _)| at) != Some((self.tx_epoch, self.tx_next_iv))
    }

    /// The receive IVs of `epoch` that corrupt frames claiming it consumed.
    fn consumed_in(&self, epoch: u32) -> u32 {
        match self.rx_ahead {
            Some((claimed, consumed)) if claimed == epoch => consumed,
            _ => 0,
        }
    }

    /// Moves the receiver to the newer `epoch`, its counter past the IVs
    /// corrupt frames claiming that epoch consumed (`EdgeCrypto::rekey_to`).
    fn fast_forward(&mut self, epoch: u32) {
        (self.rx_epoch, self.rx_next_iv) = (epoch, self.consumed_in(epoch) + 1);
    }

    /// Receives a `Fin` as `LinkRx::accept` does, acknowledging it to the
    /// sender when accepted.
    fn deliver_fin(&mut self, f: Frame) {
        if f.epoch < self.rx_epoch {
            return;
        }
        if f.epoch > self.rx_epoch {
            self.fast_forward(f.epoch);
        }
        if f.iv != self.rx_next_iv {
            return;
        }
        self.fin_accepted = Some((f.epoch, f.iv));
        if let Some((at, acked)) = &mut self.fin_sent {
            *acked |= *at == (f.epoch, f.iv);
        }
    }
}

impl Model for LinkModel {
    fn actions(&self) -> Vec<Action> {
        let mut acts = Vec::new();
        // Sender: initial sends, NACK reseals, resend sweep.
        for seq in 0..self.n {
            if !self.sent_initial[seq] {
                acts.push(Action::with_arg(TX, "send_initial", seq));
            }
            if self.needs_sweep(seq) {
                acts.push(Action::with_arg(TX, "resend_sweep", seq));
            }
        }
        if !self.nacks.is_empty() {
            acts.push(Action::new(TX, "nack_reseal"));
        }
        if self.fin_due() {
            acts.push(Action::new(TX, "send_fin"));
        }
        // Receiver/network: deliver any in-flight frame, in any order.
        for i in 0..self.wire.len() {
            acts.push(Action::with_arg(RX, "deliver", i));
        }
        // Chaos: corrupt or drop an in-flight frame, or force a rekey.
        if self.corrupt_budget > 0 {
            for (i, f) in self.wire.iter().enumerate() {
                if !f.corrupt && !f.fin {
                    acts.push(Action::with_arg(CHAOS, "corrupt", i));
                }
            }
        }
        if self.drop_budget > 0 {
            for i in 0..self.wire.len() {
                acts.push(Action::with_arg(CHAOS, "drop", i));
            }
        }
        if self.rekey_budget > 0 || self.loss_rekey {
            acts.push(Action::new(CHAOS, "rekey"));
        }
        acts
    }

    fn apply(&mut self, a: &Action) {
        match a.name {
            "send_initial" => {
                self.sent_initial[a.arg] = true;
                self.seal_fresh(a.arg);
            }
            "resend_sweep" => self.seal_fresh(a.arg),
            "send_fin" => {
                let at = (self.tx_epoch, self.tx_next_iv);
                if self.sealed.contains(&at) {
                    // The counter a Fin names is the next one to seal: a
                    // consumed one means the counter went backwards.
                    self.violation = Some(format!(
                        "IV reuse: Fin names (epoch {}, iv {}), already consumed",
                        at.0, at.1
                    ));
                }
                self.fin_sent = Some((at, false));
                self.wire.push(Frame {
                    seq: 0,
                    epoch: at.0,
                    iv: at.1,
                    corrupt: false,
                    fin: true,
                });
            }
            "nack_reseal" => {
                let seq = self.nacks.remove(0);
                if self.bug == Some(LinkBug::ResealReusesIv) {
                    // Replays the original counter instead of burning a
                    // fresh one.
                    let Some((epoch, iv)) = self.first_seal[seq] else {
                        self.violation = Some(format!("NACK for seq {seq} that was never sealed"));
                        return;
                    };
                    self.seal_at(seq, epoch, iv);
                } else {
                    self.seal_fresh(seq);
                }
            }
            "deliver" => {
                let f = self.wire.remove(a.arg);
                if f.fin {
                    self.deliver_fin(f);
                    return;
                }
                if f.epoch < self.rx_epoch && self.bug != Some(LinkBug::NoStaleEpochCheck) {
                    // StaleEpoch: dropped without burning a receive IV —
                    // a retransmit (sweep) will recover the payload.
                    return;
                }
                if f.epoch > self.rx_epoch {
                    if f.corrupt {
                        // Fails under the candidate keys: a sentinel at the
                        // current epoch, which does not move; the candidate
                        // IV it consumed is remembered.
                        self.rx_ahead = Some((f.epoch, self.consumed_in(f.epoch) + 1));
                        self.rx_next_iv += 1;
                        if !self.nacks.contains(&f.seq) {
                            self.nacks.push(f.seq);
                        }
                        return;
                    }
                    // The tag verifies under the candidate keys: fast-forward,
                    // as the receiver does on the first frame after a rekey.
                    self.fast_forward(f.epoch);
                }
                if f.epoch != self.rx_epoch {
                    self.violation = Some(format!(
                        "stale-epoch open: frame epoch {} opened at rx epoch {} (seq {})",
                        f.epoch, self.rx_epoch, f.seq
                    ));
                }
                if self.fin_accepted.is_some_and(|(epoch, _)| epoch == f.epoch) {
                    self.violation = Some(format!(
                        "frame opened after Fin: seq {} at (epoch {}, iv {}) behind accepted Fin {:?}",
                        f.seq, f.epoch, f.iv, self.fin_accepted
                    ));
                }
                // Every open consumes the next receive IV, sentinel or not.
                self.rx_next_iv += 1;
                if f.corrupt {
                    // Sentinel path: the slot is poisoned and a NACK goes
                    // back; no delivery.
                    if !self.nacks.contains(&f.seq) {
                        self.nacks.push(f.seq);
                    }
                    return;
                }
                if !self.delivered[f.seq] {
                    self.delivered[f.seq] = true;
                    self.acked[f.seq] = true;
                }
                // Duplicates (late copies after a reseal) are dropped.
            }
            "corrupt" => {
                self.corrupt_budget -= 1;
                self.wire[a.arg].corrupt = true;
            }
            "drop" => {
                self.drop_budget -= 1;
                self.wire.remove(a.arg);
                self.loss_rekey = true;
            }
            "rekey" => {
                if self.loss_rekey {
                    self.loss_rekey = false;
                } else {
                    self.rekey_budget -= 1;
                }
                if self.bug != Some(LinkBug::RekeyKeepsEpoch) {
                    self.tx_epoch += 1;
                }
                self.tx_next_iv = 1;
            }
            other => unreachable!("link action {other}"),
        }
    }

    fn is_terminal(&self) -> bool {
        self.acked.iter().all(|&a| a)
            && self.wire.is_empty()
            && self.nacks.is_empty()
            && !self.loss_rekey
            && self.fin_sent == Some(((self.tx_epoch, self.tx_next_iv), true))
    }

    fn invariant(&self) -> Result<(), String> {
        match &self.violation {
            Some(v) => Err(v.clone()),
            None => Ok(()),
        }
    }

    fn on_complete(&self) -> Result<(), String> {
        if let Some(seq) = (0..self.n).find(|&s| !self.delivered[s]) {
            return Err(format!("payload {seq} never delivered"));
        }
        let counters = (self.tx_epoch, self.tx_next_iv);
        if self.fin_accepted != Some(counters) || (self.rx_epoch, self.rx_next_iv) != counters {
            return Err(format!(
                "closed out of lockstep: Fin {:?}, sender {counters:?}, receiver {:?}",
                self.fin_accepted,
                (self.rx_epoch, self.rx_next_iv)
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::{Explorer, Violation};

    #[test]
    fn faithful_link_survives_all_schedules() {
        let stats = Explorer::default()
            .explore(&LinkModel::faithful(2))
            .expect("faithful link model must pass every schedule");
        assert!(
            stats.schedules >= 1000,
            "want >= 1000 schedules, explored {}",
            stats.schedules
        );
    }

    fn expect_invariant(bug: LinkBug, needle: &str) {
        let err = Explorer::default()
            .explore(&LinkModel::with_bug(2, bug))
            .expect_err("seeded bug must be caught");
        match &err {
            Violation::Invariant { message, .. } => {
                assert!(message.contains(needle), "{message}");
            }
            other => panic!("expected invariant violation, got {}", other.render_trace()),
        }
    }

    #[test]
    fn reseal_reusing_the_original_iv_is_caught() {
        expect_invariant(LinkBug::ResealReusesIv, "IV reuse");
    }

    #[test]
    fn rekey_without_epoch_bump_is_caught() {
        expect_invariant(LinkBug::RekeyKeepsEpoch, "IV reuse");
    }

    #[test]
    fn missing_stale_epoch_check_is_caught() {
        expect_invariant(LinkBug::NoStaleEpochCheck, "stale-epoch open");
    }

    #[test]
    fn a_fin_sent_before_the_link_drained_is_caught() {
        expect_invariant(LinkBug::FinBeforeDrained, "frame opened after Fin");
    }
}
