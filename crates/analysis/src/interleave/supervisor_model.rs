//! Interleaving model of the supervisor failover state machine
//! (`crates/net/src/supervisor.rs`) and the worker's recovery by
//! recomputation (`crates/net/src/worker.rs`).
//!
//! [`SupervisorModel`] captures the pieces of a supervised deployment
//! whose *interaction* across a worker death is dangerous:
//!
//! - the orchestrator's session injection and post-failover re-injection
//!   (`restart_ready`): every admitted session whose output is missing
//!   is re-driven at ingress, once, when the replacement is serving;
//! - the worker's edge counters — a monotone `(epoch, iv)` pair where
//!   every sealed output consumes one IV, checkpoints snapshot the
//!   counters, and the failover force-rekey bumps the epoch past
//!   anything any incarnation ever burned;
//! - the worker's duplicate rules — it keeps no output once the frame
//!   carrying it is acknowledged, so a duplicate input below the
//!   committed-prefix watermark, or with its output still in flight, is
//!   only acknowledged, and any other duplicate is *recomputed* and
//!   sealed again at a fresh IV;
//! - the checkpoint relay — the worker ships a sealed constant-size
//!   `(barrier, prefix, epoch, next_iv)` snapshot, the orchestrator
//!   stores the latest and relays it to the replacement, and a *stale*
//!   restore (an older barrier than the incarnation already holds) must
//!   be refused, never applied;
//! - chaos — a process kill that loses the worker's state and every
//!   frame in flight to and from it, and a spurious retransmit that
//!   duplicates an input while the worker is healthy.
//!
//! The explorer checks, under every interleaving of injection,
//! processing, output delivery, checkpointing, the kill, failover,
//! duplicate inputs and duplicate restores:
//!
//! 1. **No IV reuse across failover**: no two seals — by any incarnation,
//!    first computation or recomputation — ever consume the same
//!    `(epoch, iv)`.
//! 2. **Barrier monotonicity**: an incarnation never applies a restore
//!    older than the barrier it already reached.
//! 3. **No lost session**: every admitted session is eventually
//!    delivered; a schedule that strands one deadlocks and is reported.
//!
//! Buggy variants prove the checker detects each class:
//! [`SupervisorBug::FailoverWithoutRekey`] (the replacement serves on
//! the dead incarnation's counters — IV reuse),
//! [`SupervisorBug::FailoverWithoutReplay`] (sessions lost with the dead
//! worker are never re-injected — deadlock),
//! [`SupervisorBug::AcceptStaleCheckpoint`] (a delayed duplicate restore
//! rolls the worker's barrier backwards), and
//! [`SupervisorBug::RestoreTrustsUncommitted`] (the checkpoint still
//! carries the processed set and the replacement believes it, but nobody
//! holds those outputs any more — a session processed by the dead
//! incarnation and never committed is stranded).

use super::{Action, Model};

/// Seeded bug for [`SupervisorModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorBug {
    /// Failover readmits the replacement without force-rekeying the
    /// edge, so it seals from the checkpointed (or initial) counters —
    /// counters the dead incarnation may have burned past.
    FailoverWithoutRekey,
    /// Failover restarts the replacement but never re-injects admitted
    /// sessions whose outputs are missing; whatever died with the old
    /// incarnation is simply lost.
    FailoverWithoutReplay,
    /// The worker applies any restore it is handed, including one whose
    /// barrier is older than the state it already reached.
    AcceptStaleCheckpoint,
    /// The worker seals its processed set into the checkpoint and the
    /// replacement restores it: sessions at or above the committed prefix
    /// count as processed, so their re-injected duplicates are only
    /// acknowledged — by a worker that cannot produce their outputs.
    RestoreTrustsUncommitted,
}

/// A checkpoint snapshot: barrier, committed-prefix watermark, and the
/// edge counters at seal time — the same four numbers whatever the run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Checkpoint {
    barrier: u32,
    prefix: usize,
    epoch: u32,
    next_iv: u32,
    /// [`SupervisorBug::RestoreTrustsUncommitted`] only: the processed
    /// set the buggy worker seals beside the watermark. Empty otherwise.
    trusted: Vec<bool>,
}

/// Thread ids used in traces: 0 = orchestrator, 1 = worker, 2 = chaos.
const ORCH: usize = 0;
const WORKER: usize = 1;
const CHAOS: usize = 2;

/// The supervised-stage model. `N` admitted sessions must all complete
/// despite one worker kill racing injection, checkpointing and the
/// failover/readmission sequence.
#[derive(Clone)]
pub struct SupervisorModel {
    bug: Option<SupervisorBug>,
    n: usize,
    // --- orchestrator ---
    injected: Vec<bool>,
    outputs: Vec<bool>,
    /// Stored checkpoints, in shipping order; the latest is relayed on
    /// failover, older entries model delayed duplicate restores.
    stored: Vec<Checkpoint>,
    /// Sessions the last failover queued for re-injection.
    replay: Vec<usize>,
    // --- wire ---
    /// Orchestrator -> worker input frames: one ordered stream, like the
    /// TCP link, with re-injections and retransmits queued behind.
    wire: Vec<usize>,
    /// Worker -> orchestrator sealed outputs, unacknowledged, in order.
    out_wire: Vec<usize>,
    // --- worker ---
    alive: bool,
    generation: u32,
    /// Sessions below this are committed at the orchestrator.
    watermark: usize,
    /// Sessions this incarnation has processed (meaningful at or above
    /// the watermark; a barrier forgets the rest).
    processed: Vec<bool>,
    barrier: u32,
    epoch: u32,
    next_iv: u32,
    /// Every `(epoch, iv)` any incarnation ever consumed by a seal.
    sealed: Vec<(u32, u32)>,
    /// Highest epoch any incarnation was ever keyed to.
    max_epoch: u32,
    /// Stale restores the worker refused (the faithful path).
    refused: u32,
    // --- chaos budgets ---
    kill_budget: u32,
    dup_restore_budget: u32,
    dup_input_budget: u32,
    /// Set by `apply` when a step observes a broken invariant.
    violation: Option<String>,
}

impl SupervisorModel {
    /// A faithful model carrying `n` sessions.
    pub fn faithful(n: usize) -> SupervisorModel {
        SupervisorModel {
            bug: None,
            n,
            injected: vec![false; n],
            outputs: vec![false; n],
            stored: Vec::new(),
            replay: Vec::new(),
            wire: Vec::new(),
            out_wire: Vec::new(),
            alive: true,
            generation: 0,
            watermark: 0,
            processed: vec![false; n],
            barrier: 0,
            epoch: 0,
            next_iv: 1,
            sealed: Vec::new(),
            max_epoch: 0,
            refused: 0,
            kill_budget: 1,
            dup_restore_budget: 1,
            dup_input_budget: 1,
            violation: None,
        }
    }

    /// The faithful model with one bug seeded in.
    pub fn with_bug(n: usize, bug: SupervisorBug) -> SupervisorModel {
        SupervisorModel {
            bug: Some(bug),
            ..SupervisorModel::faithful(n)
        }
    }

    /// Seals one output at the worker's live counters and puts it on the
    /// wire, recording the consumption — the cross-incarnation IV-reuse
    /// invariant lives here.
    fn seal_output(&mut self, seq: usize) {
        let (epoch, iv) = (self.epoch, self.next_iv);
        if self.sealed.contains(&(epoch, iv)) {
            self.violation = Some(format!(
                "IV reuse across failover: (epoch {epoch}, iv {iv}) consumed twice (session {seq}, gen {})",
                self.generation
            ));
        }
        self.sealed.push((epoch, iv));
        self.max_epoch = self.max_epoch.max(epoch);
        self.next_iv += 1;
        self.out_wire.push(seq);
    }

    /// Length of the contiguous committed prefix of outputs.
    fn prefix(&self) -> usize {
        self.outputs.iter().take_while(|&&o| o).count()
    }
}

impl Model for SupervisorModel {
    fn actions(&self) -> Vec<Action> {
        let mut acts = Vec::new();
        if self.alive {
            // Orchestrator: admit sessions in queue order, re-drive what
            // the last failover found missing, take delivery of outputs.
            if let Some(seq) = (0..self.n).find(|&seq| !self.injected[seq]) {
                acts.push(Action::with_arg(ORCH, "inject", seq));
            }
            for i in 0..self.replay.len() {
                acts.push(Action::with_arg(ORCH, "reinject", i));
            }
            if !self.out_wire.is_empty() {
                acts.push(Action::new(ORCH, "deliver"));
            }
            // Worker: take the next input off the link.
            if !self.wire.is_empty() {
                acts.push(Action::new(WORKER, "process"));
            }
            // Worker: a barrier each time the committed prefix advanced.
            if self.prefix() > self.stored.last().map_or(0, |c| c.prefix) {
                acts.push(Action::new(WORKER, "checkpoint"));
            }
            // Network: a delayed duplicate of an older restore frame, and
            // a spurious retransmit of an input the worker already took
            // (the first session's: over the schedules it is found in
            // flight, delivered but uncommitted, and committed).
            if self.dup_restore_budget > 0 && self.stored.iter().any(|c| c.barrier < self.barrier) {
                acts.push(Action::new(CHAOS, "dup_restore"));
            }
            if self.dup_input_budget > 0 && self.processed[0] {
                acts.push(Action::new(CHAOS, "dup_input"));
            }
            if self.kill_budget > 0 {
                acts.push(Action::new(CHAOS, "kill"));
            }
        } else {
            // The only way forward for a dead stage is failover.
            acts.push(Action::new(ORCH, "fail_over"));
        }
        acts
    }

    fn apply(&mut self, a: &Action) {
        match a.name {
            "inject" => {
                self.injected[a.arg] = true;
                self.wire.push(a.arg);
            }
            "reinject" => {
                let seq = self.replay.remove(a.arg);
                self.wire.push(seq);
            }
            "deliver" => {
                let seq = self.out_wire.remove(0);
                self.outputs[seq] = true;
            }
            "process" => {
                let seq = self.wire.remove(0);
                let trusted = self.bug == Some(SupervisorBug::RestoreTrustsUncommitted)
                    && self.processed[seq];
                if seq < self.watermark || self.out_wire.contains(&seq) || trusted {
                    // Committed, or still in flight: the ack settles it.
                    return;
                }
                // First computation, or a duplicate whose output nobody
                // holds any more: (re)compute and seal at a fresh IV.
                self.processed[seq] = true;
                self.seal_output(seq);
            }
            "checkpoint" => {
                self.barrier += 1;
                self.watermark = self.prefix();
                let trusted = if self.bug == Some(SupervisorBug::RestoreTrustsUncommitted) {
                    self.processed.clone()
                } else {
                    Vec::new()
                };
                self.stored.push(Checkpoint {
                    barrier: self.barrier,
                    prefix: self.watermark,
                    epoch: self.epoch,
                    next_iv: self.next_iv,
                    trusted,
                });
            }
            "kill" => {
                self.kill_budget -= 1;
                self.alive = false;
                // Frames in flight to and from the dead process are gone.
                self.wire.clear();
                self.out_wire.clear();
            }
            "fail_over" => {
                self.alive = true;
                self.generation += 1;
                // Restore from the latest relayed checkpoint — or from
                // scratch when none was ever shipped. The replacement
                // knows the watermark and nothing about what the dead
                // incarnation processed above it.
                let ckpt = self.stored.last().cloned().unwrap_or(Checkpoint {
                    barrier: 0,
                    prefix: 0,
                    epoch: 0,
                    next_iv: 1,
                    trusted: Vec::new(),
                });
                self.barrier = ckpt.barrier;
                self.watermark = ckpt.prefix;
                self.processed = if ckpt.trusted.is_empty() {
                    vec![false; self.n]
                } else {
                    ckpt.trusted
                };
                self.epoch = ckpt.epoch;
                self.next_iv = ckpt.next_iv;
                if self.bug != Some(SupervisorBug::FailoverWithoutRekey) {
                    // Force-rekey: a fresh epoch past anything any
                    // incarnation burned, IVs back to 1.
                    self.epoch = self.max_epoch + 1;
                    self.max_epoch = self.epoch;
                    self.next_iv = 1;
                }
                if self.bug != Some(SupervisorBug::FailoverWithoutReplay) {
                    // `restart_ready`: re-inject every admitted session
                    // whose output is missing and whose input is not
                    // already on its way.
                    self.replay = (0..self.n)
                        .filter(|&seq| self.injected[seq] && !self.outputs[seq])
                        .collect();
                }
            }
            "dup_input" => {
                self.dup_input_budget -= 1;
                self.wire.push(0);
            }
            "dup_restore" => {
                self.dup_restore_budget -= 1;
                let Some(stale) = self
                    .stored
                    .iter()
                    .find(|c| c.barrier < self.barrier)
                    .cloned()
                else {
                    return;
                };
                if self.bug == Some(SupervisorBug::AcceptStaleCheckpoint) {
                    self.violation = Some(format!(
                        "stale restore applied: barrier {} after reaching {}",
                        stale.barrier, self.barrier
                    ));
                    self.barrier = stale.barrier;
                    self.watermark = stale.prefix;
                } else {
                    // Faithful worker: barrier regression refused.
                    self.refused += 1;
                }
            }
            other => unreachable!("supervisor action {other}"),
        }
    }

    fn is_terminal(&self) -> bool {
        self.alive
            && self.outputs.iter().all(|&o| o)
            && self.wire.is_empty()
            && self.out_wire.is_empty()
    }

    fn invariant(&self) -> Result<(), String> {
        match &self.violation {
            Some(v) => Err(v.clone()),
            None => Ok(()),
        }
    }

    fn on_complete(&self) -> Result<(), String> {
        if let Some(seq) = (0..self.n).find(|&s| !self.outputs[s]) {
            return Err(format!("session {seq} never completed"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::{Explorer, Violation};

    #[test]
    fn faithful_supervisor_survives_all_schedules() {
        let stats = Explorer::default()
            .explore(&SupervisorModel::faithful(3))
            .expect("faithful supervisor model must pass every schedule");
        assert!(
            stats.schedules >= 1000,
            "want >= 1000 schedules, explored {}",
            stats.schedules
        );
    }

    fn expect_invariant(bug: SupervisorBug, needle: &str) {
        let err = Explorer::default()
            .explore(&SupervisorModel::with_bug(3, bug))
            .expect_err("seeded bug must be caught");
        match &err {
            Violation::Invariant { message, .. } => {
                assert!(message.contains(needle), "{message}");
            }
            other => panic!("expected invariant violation, got {}", other.render_trace()),
        }
    }

    #[test]
    fn failover_without_rekey_reuses_an_iv() {
        expect_invariant(SupervisorBug::FailoverWithoutRekey, "IV reuse");
    }

    #[test]
    fn failover_without_replay_strands_a_session() {
        let err = Explorer::default()
            .explore(&SupervisorModel::with_bug(
                3,
                SupervisorBug::FailoverWithoutReplay,
            ))
            .expect_err("a killed-in-flight session must be lost in some schedule");
        assert!(
            matches!(err, Violation::Deadlock { .. }),
            "expected a stranded-session deadlock, got {}",
            err.render_trace()
        );
    }

    #[test]
    fn accepting_a_stale_checkpoint_is_caught() {
        expect_invariant(SupervisorBug::AcceptStaleCheckpoint, "stale restore");
    }

    #[test]
    fn trusting_uncommitted_work_strands_a_session() {
        let err = Explorer::default()
            .explore(&SupervisorModel::with_bug(
                3,
                SupervisorBug::RestoreTrustsUncommitted,
            ))
            .expect_err("a processed-but-uncommitted session must be lost in some schedule");
        assert!(
            matches!(err, Violation::Deadlock { .. }),
            "expected a stranded-session deadlock, got {}",
            err.render_trace()
        );
    }
}
