//! Runtime statistics for PipeLLM's speculation machinery.

use std::fmt;

/// Counters describing how the speculation pipeline behaved during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipeLlmStats {
    /// Swap requests served directly from valid pre-encrypted ciphertext
    /// at the exactly-matching IV.
    pub spec_hits: u64,
    /// Swap requests whose entry was ahead of the IV stream and was
    /// committed after NOP padding (recoverable misprediction).
    pub nop_recoveries: u64,
    /// Swap requests suspended and served out of submission order within
    /// their batch (swap re-ordering, §5.3).
    pub reorders: u64,
    /// Swap requests that found the pipeline wrong (irrecoverable
    /// misprediction: no entry for them among those queued, an invalidated
    /// entry, or a stale IV) and were encrypted on demand.
    pub relinquishes: u64,
    /// Swap requests encrypted on demand with *nothing* queued — cold
    /// start, speculation disabled, or the accuracy gate holding the depth
    /// at 0. Not a misprediction: no prediction was acted on.
    pub on_demand: u64,
    /// Pre-encrypted entries invalidated by plaintext writes (§5.2).
    pub write_invalidations: u64,
    /// Pre-encrypted entries discarded unused (skipped by NOP padding or
    /// dropped at relinquish).
    pub wasted_entries: u64,
    /// Asynchronous decryptions performed in the background (§5.4).
    pub async_decrypts: u64,
    /// Page faults from the application touching data before its
    /// background decryption finished (forces synchronous decryption).
    pub decrypt_faults: u64,
    /// Pending background opens finalized ahead of use because the
    /// predictor expected their chunk to be swapped back in — the
    /// pre-decryption half of the encrypted KV-cache pipeline.
    pub pre_decrypts: u64,
    /// Chunks speculatively encrypted in total.
    pub speculated: u64,
    /// Deferred KV opens that failed authentication (at-rest ciphertext
    /// corrupted after the host accepted the frame). The block landed as a
    /// sentinel payload — page unblocked, no plaintext, IV lockstep held.
    pub kv_sentinels: u64,
}

impl std::ops::AddAssign for PipeLlmStats {
    fn add_assign(&mut self, rhs: Self) {
        self.spec_hits += rhs.spec_hits;
        self.nop_recoveries += rhs.nop_recoveries;
        self.reorders += rhs.reorders;
        self.relinquishes += rhs.relinquishes;
        self.on_demand += rhs.on_demand;
        self.write_invalidations += rhs.write_invalidations;
        self.wasted_entries += rhs.wasted_entries;
        self.async_decrypts += rhs.async_decrypts;
        self.decrypt_faults += rhs.decrypt_faults;
        self.pre_decrypts += rhs.pre_decrypts;
        self.speculated += rhs.speculated;
        self.kv_sentinels += rhs.kv_sentinels;
    }
}

impl PipeLlmStats {
    /// Sequence-prediction success rate over all pipelined swap-ins
    /// ([`PipeLlmStats::on_demand`] serves had no pipeline to judge).
    pub fn success_rate(&self) -> f64 {
        let served = self.spec_hits + self.nop_recoveries + self.reorders + self.relinquishes;
        if served == 0 {
            return 1.0;
        }
        (self.spec_hits + self.reorders) as f64 / served as f64
    }

    /// Fraction of background KV opens the predictor finalized ahead of
    /// use (pre-decryption hits over all asynchronous decrypts).
    pub fn pre_decrypt_rate(&self) -> f64 {
        if self.async_decrypts == 0 {
            return 1.0;
        }
        self.pre_decrypts as f64 / self.async_decrypts as f64
    }
}

impl fmt::Display for PipeLlmStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "spec_hits={} reorders={} nop_recoveries={} relinquishes={} \
             on_demand={} invalidations={} wasted={} async_dec={} \
             dec_faults={} pre_dec={} kv_sentinels={} success={:.1}%",
            self.spec_hits,
            self.reorders,
            self.nop_recoveries,
            self.relinquishes,
            self.on_demand,
            self.write_invalidations,
            self.wasted_entries,
            self.async_decrypts,
            self.decrypt_faults,
            self.pre_decrypts,
            self.kv_sentinels,
            self.success_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_rate_math() {
        let stats = PipeLlmStats {
            spec_hits: 90,
            reorders: 5,
            nop_recoveries: 3,
            relinquishes: 2,
            // Served with nothing queued: not a pipelined swap-in.
            on_demand: 40,
            ..PipeLlmStats::default()
        };
        assert!((stats.success_rate() - 0.95).abs() < 1e-9);
        // Empty stats report perfect success (nothing mispredicted).
        assert_eq!(PipeLlmStats::default().success_rate(), 1.0);
    }

    #[test]
    fn display_contains_counters() {
        let stats = PipeLlmStats {
            spec_hits: 7,
            ..Default::default()
        };
        let text = stats.to_string();
        assert!(text.contains("spec_hits=7"));
        assert!(text.contains("on_demand=0"));
        assert!(text.contains("success="));
    }
}
