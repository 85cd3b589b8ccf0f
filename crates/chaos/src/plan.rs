//! The fault taxonomy and the seeded per-kind probability table.
//!
//! A [`FaultPlan`] is pure data: a seed plus one probability per
//! [`FaultKind`]. Sampling is a pure function of `(seed, site, sequence)`,
//! so two runs with the same plan inject byte-identical faults — the
//! property that turns every chaos failure into a reproducible regression.

use crate::{mix, to_unit};

/// One class of injected failure.
///
/// The frame-level kinds mangle sealed AES-GCM frames in flight and must be
/// absorbed by the channel's sentinel discipline (the receiver consumes the
/// IV and reports the failure; it never reuses the IV and never emits
/// plaintext). The stage- and session-level kinds exercise the
/// orchestrator: timeouts, reroutes, and rekeys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Flip one bit of a sealed frame (ciphertext, tag, or AAD-covered
    /// header — the position is derived from the fault's salt).
    CorruptFrame,
    /// Cut a sealed frame short at a salt-derived byte position.
    TruncateFrame,
    /// Lose the frame entirely; the receiver must still consume its IV.
    DropFrame,
    /// A pipeline stage dies mid-iteration and must be restarted; every
    /// session touching the stage rekeys before traffic resumes.
    StageKill,
    /// A pipeline stage stops responding; the per-op timeout must fire and
    /// the orchestrator reroute without wedging other sessions.
    StageHang,
    /// A serving session closes and a fresh one opens mid-stream,
    /// exercising key derivation and IV-counter reset under load.
    SessionChurn,
    /// A rekey (epoch bump) races an in-flight KV swap-in: deferred opens
    /// reserved under the old epoch must still finalize correctly.
    RekeyRace,
    /// A network connection dies mid-stream: the transport must reconnect
    /// under the bounded retry policy and both endpoints must rekey the
    /// affected edges so traffic resumes at fresh IVs (never reusing the
    /// counters of the dead link).
    ConnectionDrop,
}

impl FaultKind {
    /// Every fault kind, in stable order (the order of the rate table).
    pub const ALL: [FaultKind; 8] = [
        FaultKind::CorruptFrame,
        FaultKind::TruncateFrame,
        FaultKind::DropFrame,
        FaultKind::StageKill,
        FaultKind::StageHang,
        FaultKind::SessionChurn,
        FaultKind::RekeyRace,
        FaultKind::ConnectionDrop,
    ];

    /// The frame-level kinds sampled by [`crate::ChaosInjector::roll_frame`].
    pub const FRAME: [FaultKind; 3] = [
        FaultKind::CorruptFrame,
        FaultKind::TruncateFrame,
        FaultKind::DropFrame,
    ];

    /// The stage-level kinds sampled by [`crate::ChaosInjector::roll_stage`].
    pub const STAGE: [FaultKind; 2] = [FaultKind::StageKill, FaultKind::StageHang];

    /// The session-level kinds sampled by
    /// [`crate::ChaosInjector::roll_session`].
    pub const SESSION: [FaultKind; 2] = [FaultKind::SessionChurn, FaultKind::RekeyRace];

    /// The network-link kinds sampled by [`crate::ChaosInjector::roll_net`]:
    /// the three frame manglings plus whole-connection loss.
    pub const NET: [FaultKind; 4] = [
        FaultKind::CorruptFrame,
        FaultKind::TruncateFrame,
        FaultKind::DropFrame,
        FaultKind::ConnectionDrop,
    ];

    /// Stable index into per-kind tables.
    pub(crate) fn index(self) -> usize {
        match self {
            FaultKind::CorruptFrame => 0,
            FaultKind::TruncateFrame => 1,
            FaultKind::DropFrame => 2,
            FaultKind::StageKill => 3,
            FaultKind::StageHang => 4,
            FaultKind::SessionChurn => 5,
            FaultKind::RekeyRace => 6,
            FaultKind::ConnectionDrop => 7,
        }
    }

    /// Human-readable label (used by stats displays and bench JSON).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::CorruptFrame => "corrupt_frame",
            FaultKind::TruncateFrame => "truncate_frame",
            FaultKind::DropFrame => "drop_frame",
            FaultKind::StageKill => "stage_kill",
            FaultKind::StageHang => "stage_hang",
            FaultKind::SessionChurn => "session_churn",
            FaultKind::RekeyRace => "rekey_race",
            FaultKind::ConnectionDrop => "connection_drop",
        }
    }
}

/// A place in the stack where faults can be injected.
///
/// Each site keeps its own injection sequence number, so adding a guarded
/// operation at one site never perturbs the faults another site sees — the
/// determinism that keeps chaos regressions stable across refactors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// CPU→GPU bounce-buffer transfer (`memcpy_htod_async` and the
    /// interposed `submit_htod_sealed`).
    HostToDevice,
    /// GPU→CPU transfer (`memcpy_dtoh_async`).
    DeviceToHost,
    /// GPU→GPU transfer over an NVLink edge (`memcpy_dtod_async`, the one
    /// edge path of every system).
    DeviceToDevice,
    /// KV-cache swap-out sealing (`swap_out_kv_group`).
    KvSwapOut,
    /// Deferred KV swap-in open (`KvSwapPipeline::finalize`).
    KvSwapIn,
    /// Background crypto-engine jobs.
    EngineJob,
    /// The serving engine's per-stage step loop.
    StageStep,
    /// Session lifecycle control (open/close/rekey).
    SessionControl,
    /// A networked transport link: the orchestrator↔worker TCP (or duplex)
    /// streams carrying sealed activation frames between processes.
    NetLink,
    /// A stage-worker *process*: abrupt kills and wedged hangs of a whole
    /// worker, injected in its serve loop so the orchestrator-side
    /// supervisor must detect the death and fail over.
    WorkerProcess,
}

impl FaultSite {
    /// Every site, in stable order.
    pub const ALL: [FaultSite; 10] = [
        FaultSite::HostToDevice,
        FaultSite::DeviceToHost,
        FaultSite::DeviceToDevice,
        FaultSite::KvSwapOut,
        FaultSite::KvSwapIn,
        FaultSite::EngineJob,
        FaultSite::StageStep,
        FaultSite::SessionControl,
        FaultSite::NetLink,
        FaultSite::WorkerProcess,
    ];

    /// Stable index into per-site tables.
    pub(crate) fn index(self) -> usize {
        match self {
            FaultSite::HostToDevice => 0,
            FaultSite::DeviceToHost => 1,
            FaultSite::DeviceToDevice => 2,
            FaultSite::KvSwapOut => 3,
            FaultSite::KvSwapIn => 4,
            FaultSite::EngineJob => 5,
            FaultSite::StageStep => 6,
            FaultSite::SessionControl => 7,
            FaultSite::NetLink => 8,
            FaultSite::WorkerProcess => 9,
        }
    }

    /// A site-unique word folded into every sampling decision.
    pub(crate) fn code(self) -> u64 {
        // Large odd multiplier keeps per-site streams decorrelated.
        mix(0xC4A5_0000 + self.index() as u64 * 0x9E37_79B9)
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::HostToDevice => "htod",
            FaultSite::DeviceToHost => "dtoh",
            FaultSite::DeviceToDevice => "dtod",
            FaultSite::KvSwapOut => "kv_swap_out",
            FaultSite::KvSwapIn => "kv_swap_in",
            FaultSite::EngineJob => "engine_job",
            FaultSite::StageStep => "stage_step",
            FaultSite::SessionControl => "session_control",
            FaultSite::NetLink => "net_link",
            FaultSite::WorkerProcess => "worker_process",
        }
    }
}

/// A seeded table of per-kind fault probabilities.
///
/// The plan is immutable once built; all mutability (sequence counters,
/// stats) lives in [`crate::ChaosInjector`].
///
/// # Example
///
/// ```
/// use pipellm_chaos::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::new(7)
///     .with_rate(FaultKind::CorruptFrame, 0.05)
///     .with_rate(FaultKind::StageHang, 0.01);
/// assert_eq!(plan.rate(FaultKind::CorruptFrame), 0.05);
/// assert_eq!(plan.rate(FaultKind::DropFrame), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rates: [f64; FaultKind::ALL.len()],
}

impl FaultPlan {
    /// A plan with the given seed and every rate at zero (injects nothing).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rates: [0.0; FaultKind::ALL.len()],
        }
    }

    /// Sets the probability of `kind` per guarded operation, clamped to
    /// `[0, 1]`.
    pub fn with_rate(mut self, kind: FaultKind, rate: f64) -> Self {
        self.rates[kind.index()] = rate.clamp(0.0, 1.0);
        self
    }

    /// Spreads a total frame-fault probability across the three frame
    /// kinds: 50% bit corruption, 30% truncation, 20% drops — roughly the
    /// mix observed on flaky interconnects, weighted toward the hardest
    /// case for AEAD (silent corruption).
    pub fn with_frame_rate(self, total: f64) -> Self {
        self.with_rate(FaultKind::CorruptFrame, total * 0.5)
            .with_rate(FaultKind::TruncateFrame, total * 0.3)
            .with_rate(FaultKind::DropFrame, total * 0.2)
    }

    /// Spreads a total stage-fault probability across hangs (70%) and
    /// kills (30%): stalls are more common than crashes in practice.
    pub fn with_stage_rate(self, total: f64) -> Self {
        self.with_rate(FaultKind::StageHang, total * 0.7)
            .with_rate(FaultKind::StageKill, total * 0.3)
    }

    /// Spreads a total session-fault probability evenly across churn and
    /// rekey races.
    pub fn with_session_rate(self, total: f64) -> Self {
        self.with_rate(FaultKind::SessionChurn, total * 0.5)
            .with_rate(FaultKind::RekeyRace, total * 0.5)
    }

    /// Spreads a total network-fault probability across the wire kinds:
    /// 40% bit corruption, 25% truncation, 15% frame loss, 20% whole
    /// connection drops — corruption still dominates (the hardest case for
    /// AEAD), but a real wire also loses entire connections.
    pub fn with_net_rate(self, total: f64) -> Self {
        self.with_rate(FaultKind::CorruptFrame, total * 0.40)
            .with_rate(FaultKind::TruncateFrame, total * 0.25)
            .with_rate(FaultKind::DropFrame, total * 0.15)
            .with_rate(FaultKind::ConnectionDrop, total * 0.20)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured probability of `kind`.
    pub fn rate(&self, kind: FaultKind) -> f64 {
        self.rates[kind.index()]
    }

    /// True if no kind can ever fire.
    pub fn is_quiet(&self) -> bool {
        self.rates.iter().all(|&r| r == 0.0)
    }

    /// Samples the `seq`-th decision at `site` over the `kinds` subset.
    ///
    /// Returns the chosen kind plus a salt word that deterministically
    /// parameterizes the fault (mutation position, hang duration, ...).
    /// Pure: the same `(plan, site, seq)` always returns the same answer.
    pub(crate) fn sample(
        &self,
        kinds: &[FaultKind],
        site: FaultSite,
        seq: u64,
    ) -> Option<(FaultKind, u64)> {
        let h = mix(self.seed ^ site.code() ^ mix(seq));
        let u = to_unit(h);
        let mut cumulative = 0.0;
        for &kind in kinds {
            cumulative += self.rates[kind.index()];
            if u < cumulative {
                return Some((kind, mix(h ^ kind.index() as u64)));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic() {
        let plan = FaultPlan::new(99).with_frame_rate(0.3);
        for seq in 0..64 {
            let a = plan.sample(&FaultKind::FRAME, FaultSite::DeviceToDevice, seq);
            let b = plan.sample(&FaultKind::FRAME, FaultSite::DeviceToDevice, seq);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn sites_have_independent_streams() {
        let plan = FaultPlan::new(5).with_frame_rate(0.5);
        let hits = |site: FaultSite| -> Vec<bool> {
            (0..256)
                .map(|seq| plan.sample(&FaultKind::FRAME, site, seq).is_some())
                .collect()
        };
        assert_ne!(hits(FaultSite::HostToDevice), hits(FaultSite::DeviceToHost));
    }

    #[test]
    fn empirical_rate_tracks_configured_rate() {
        let plan = FaultPlan::new(1234).with_rate(FaultKind::CorruptFrame, 0.10);
        let n = 20_000u64;
        let hits = (0..n)
            .filter(|&seq| {
                plan.sample(&FaultKind::FRAME, FaultSite::HostToDevice, seq)
                    .is_some()
            })
            .count();
        let observed = hits as f64 / n as f64;
        assert!(
            (observed - 0.10).abs() < 0.01,
            "observed rate {observed} too far from 0.10"
        );
    }

    #[test]
    fn subset_sampling_never_leaks_other_kinds() {
        // Stage rates are high, but a frame roll must never yield a stage
        // kind.
        let plan = FaultPlan::new(3).with_stage_rate(0.9).with_frame_rate(0.2);
        for seq in 0..1000 {
            if let Some((kind, _)) = plan.sample(&FaultKind::FRAME, FaultSite::KvSwapOut, seq) {
                assert!(FaultKind::FRAME.contains(&kind), "leaked {kind:?}");
            }
        }
    }

    #[test]
    fn quiet_plan_never_fires() {
        let plan = FaultPlan::new(77);
        assert!(plan.is_quiet());
        for site in FaultSite::ALL {
            for seq in 0..128 {
                assert_eq!(plan.sample(&FaultKind::ALL, site, seq), None);
            }
        }
    }

    #[test]
    fn rates_clamp_to_unit_interval() {
        let plan = FaultPlan::new(0).with_rate(FaultKind::DropFrame, 7.5);
        assert_eq!(plan.rate(FaultKind::DropFrame), 1.0);
        let plan = plan.with_rate(FaultKind::DropFrame, -2.0);
        assert_eq!(plan.rate(FaultKind::DropFrame), 0.0);
    }

    #[test]
    fn frame_mix_splits_as_documented() {
        let plan = FaultPlan::new(0).with_frame_rate(0.10);
        assert!((plan.rate(FaultKind::CorruptFrame) - 0.05).abs() < 1e-12);
        assert!((plan.rate(FaultKind::TruncateFrame) - 0.03).abs() < 1e-12);
        assert!((plan.rate(FaultKind::DropFrame) - 0.02).abs() < 1e-12);
    }
}
