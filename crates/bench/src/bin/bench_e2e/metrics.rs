//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and clock.
//!
//! `BENCHMARK.json` lists the same metrics and is compiled in: the relative
//! bounds `--compare` applies are read from it, and a unit test holds names,
//! units and directions identical.

use crate::json::{self, Value};

/// The repository's `BENCHMARK.json`, as it was when this binary was built.
const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Which clock a value was read from. Wall-clock and simulated times never
/// share a key; counts, ratios of counts and memory have no clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Wall,
    Virtual,
    /// A count, a ratio of counts, or memory.
    Unclocked,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Virtual => "virtual",
            Clock::Unclocked => "none",
        }
    }
}

/// How far an end-to-end metric may worsen before it counts as regressed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the base median.
    Relative(f64),
    /// Absolute distance in the metric's own unit (percentage points).
    Points(f64),
    /// Any value above zero is a regression.
    Zero,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
}

const fn m(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> Metric {
    Metric {
        name,
        unit,
        better,
        clock,
    }
}

use Better::{Higher, Lower};
use Clock::{Unclocked, Virtual, Wall};

pub const SETUP_S: &str = "setup_s";
pub const GOODPUT_MIB_S: &str = "goodput_mib_s";
pub const FIXED_MS: &str = "fixed_ms";
pub const PEAK_RSS_MIB: &str = "peak_rss_mib";
pub const VIRT_OVERHEAD_PCT: &str = "virt_overhead_pct";
pub const FAILED_RATIO: &str = "failed_ratio";
pub const TRACE_OVERHEAD_PCT: &str = "trace.overhead_pct";

/// End-to-end metrics, measured on untraced runs only. `BENCHMARK.json`'s
/// `end_to_end` list wants every metric on every workload, never zero, and
/// bounded as a share of the median: `setup_s`, `goodput_mib_s` and
/// `peak_rss_mib` fit. `fixed_ms` (`net_small` and `net_supervised` only)
/// and `virt_overhead_pct` (`swap_*` only, deterministic) do not, so the
/// file carries them under `per_layer`; `failed_ratio` is the file's
/// `failed`/`attempted` counts. `--compare` judges all six.
pub const END_TO_END: [Metric; 6] = [
    m(SETUP_S, "s", Lower, Wall),
    m(GOODPUT_MIB_S, "MiB/s", Higher, Wall),
    m(FIXED_MS, "ms", Lower, Wall),
    m(PEAK_RSS_MIB, "MiB", Lower, Unclocked),
    m(VIRT_OVERHEAD_PCT, "%", Lower, Virtual),
    m(FAILED_RATIO, "ratio", Lower, Unclocked),
];

/// The share of the parent's median by which `BENCHMARK.json` lets `name`
/// worsen; `None` for a metric its `end_to_end` list does not carry.
pub fn file_bound(name: &str) -> Option<f64> {
    let doc = json::parse(BENCHMARK_JSON).ok()?;
    let entry = doc
        .get("end_to_end")?
        .as_arr()?
        .iter()
        .find(|e| e.get("name").and_then(Value::as_str) == Some(name))?;
    entry.get("bound")?.as_f64()
}

/// The bound `--compare` applies to an end-to-end metric: the file's where
/// the file has one, the issue's for the three its schema cannot carry.
pub fn bound(name: &str) -> Option<Bound> {
    match name {
        FIXED_MS => Some(Bound::Relative(0.10)),
        VIRT_OVERHEAD_PCT => Some(Bound::Points(0.5)),
        FAILED_RATIO => Some(Bound::Zero),
        _ => file_bound(name).map(Bound::Relative),
    }
}

/// Per-layer metrics, from the traced run. A workload that does not
/// exercise a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [Metric; 65] = [
    // net::link over crypto — from the single-thread replay and the
    // program's own end-of-run counters.
    m("link.seal_us_p50", "us", Lower, Wall),
    m("link.seal_us_p95", "us", Lower, Wall),
    m("link.open_us_p50", "us", Lower, Wall),
    m("link.open_us_p95", "us", Lower, Wall),
    m("link.seal_mib_s", "MiB/s", Higher, Wall),
    m("link.open_mib_s", "MiB/s", Higher, Wall),
    m("link.ivs_per_mb", "count", Lower, Unclocked),
    m("link.retransmits", "count", Lower, Unclocked),
    m("link.retransmit_ratio", "ratio", Lower, Unclocked),
    m("link.sentinels", "count", Lower, Unclocked),
    m("link.reconnects", "count", Lower, Unclocked),
    m("link.rekeys", "count", Lower, Unclocked),
    // net::proto / net::frame
    m("proto.encode_us_p50", "us", Lower, Wall),
    m("proto.decode_us_p50", "us", Lower, Wall),
    // net::transport
    m("transport.tcp_frame_us_p50", "us", Lower, Wall),
    m("transport.tcp_frame_us_p95", "us", Lower, Wall),
    m("transport.tcp_rtt_us_p50", "us", Lower, Wall),
    // core::partition
    m("partition.apply_stage_us_p50", "us", Lower, Wall),
    m("partition.input_gen_us_p50", "us", Lower, Wall),
    // net::orchestrator
    m("orchestrator.relayed_frames", "count", Lower, Unclocked),
    m("orchestrator.relay_per_mb", "ratio", Lower, Unclocked),
    m("orchestrator.scaling_ratio", "ratio", Lower, Wall),
    // The ledger: the concurrent pipeline against the sequential floor of
    // the same operations.
    m("ledger.crypto_ms_per_mb", "ms", Lower, Wall),
    m("ledger.codec_ms_per_mb", "ms", Lower, Wall),
    m("ledger.compute_ms_per_mb", "ms", Lower, Wall),
    m("ledger.socket_ms_per_mb", "ms", Lower, Wall),
    m("ledger.floor_ms_per_mb", "ms", Lower, Wall),
    m("ledger.measured_ms_per_mb", "ms", Lower, Wall),
    m("ledger.floor_share", "ratio", Higher, Wall),
    // net::supervisor
    m("supervisor.heartbeats", "count", Lower, Unclocked),
    m("supervisor.barriers", "count", Lower, Unclocked),
    m("supervisor.checkpoints_stored", "count", Lower, Unclocked),
    m("supervisor.backpressure_events", "count", Lower, Unclocked),
    m("supervisor.detections", "count", Lower, Unclocked),
    m("supervisor.failovers", "count", Lower, Unclocked),
    m("supervisor.restores_sent", "count", Lower, Unclocked),
    m("supervisor.stale_rejects", "count", Lower, Unclocked),
    m(
        "supervisor.stale_rejects_per_failover",
        "ratio",
        Lower,
        Unclocked,
    ),
    m("supervisor.recovery_ms_per_failover", "ms", Lower, Wall),
    m("supervisor.tax_ratio", "ratio", Lower, Wall),
    // core (speculation runtime)
    m("core.htod_call_us_p50", "us", Lower, Wall),
    m("core.htod_call_us_p95", "us", Lower, Wall),
    m("core.dtoh_call_us_p50", "us", Lower, Wall),
    m("core.dtoh_call_us_p95", "us", Lower, Wall),
    m("core.sync_call_us_p50", "us", Lower, Wall),
    m("core.sync_call_us_p95", "us", Lower, Wall),
    m("core.spec_hit_ratio", "ratio", Higher, Unclocked),
    m("core.speculated", "count", Higher, Unclocked),
    m("core.nop_recoveries", "count", Lower, Unclocked),
    m("core.relinquishes", "count", Lower, Unclocked),
    m("core.wasted_entries", "count", Lower, Unclocked),
    m("core.wasted_seal_ratio", "ratio", Lower, Unclocked),
    m("core.pre_decrypt_ratio", "ratio", Higher, Unclocked),
    m("core.decrypt_faults", "count", Lower, Unclocked),
    // crypto::channel at chunk size, same thread count as the runtime
    m("crypto.channel_seal_mib_s", "MiB/s", Higher, Wall),
    m("crypto.channel_open_mib_s", "MiB/s", Higher, Wall),
    m("crypto.floor_share", "ratio", Higher, Wall),
    // gpu (simulated clock)
    m("gpu.virt_total_ms", "ms", Lower, Virtual),
    m("gpu.virt_total_ms_ccoff", "ms", Lower, Virtual),
    m("gpu.virt_total_ms_cc", "ms", Lower, Virtual),
    m("gpu.virt_io_stall_ms", "ms", Lower, Virtual),
    // whole process / the tracing itself
    m("proc.cpu_ms_per_op", "ms", Lower, Wall),
    m(TRACE_OVERHEAD_PCT, "%", Lower, Wall),
    // End-to-end metrics of some workloads only; see END_TO_END. The
    // driver's traced line takes them from the untraced runs beside it.
    m(FIXED_MS, "ms", Lower, Wall),
    m(VIRT_OVERHEAD_PCT, "%", Lower, Virtual),
];

pub fn end_to_end(name: &str) -> Option<Metric> {
    END_TO_END.iter().copied().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<Metric> {
    PER_LAYER.iter().copied().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use std::collections::BTreeSet;

    /// `BENCHMARK.json`'s rule for names: starts with a letter or digit, at
    /// most 64 of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    /// `BENCHMARK.json`'s rule for units: 1 to 16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        (1..=16).contains(&unit.len()) && unit.chars().all(ok)
    }

    #[test]
    fn name_and_unit_validators() {
        for good in ["setup_s", "link.seal_us_p50", "a-b.c_d", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        let too_long = "x".repeat(65);
        for bad in ["", ".hidden", "has space", "slash/no", "pct%", &too_long] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "MiB/s", "%", "1/s", "count"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "per second", "seventeen_chars__"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        // fixed_ms and virt_overhead_pct are deliberately in both lists.
        for metric in END_TO_END.into_iter().chain(
            PER_LAYER
                .into_iter()
                .filter(|m| end_to_end(m.name).is_none()),
        ) {
            assert!(valid_name(metric.name), "{}", metric.name);
            assert!(valid_unit(metric.unit), "{}: {}", metric.name, metric.unit);
            assert!(seen.insert(metric.name), "{} listed twice", metric.name);
        }
        for workload in WORKLOADS {
            assert!(valid_name(workload.name));
            assert!(seen.insert(workload.name), "{} clashes", workload.name);
        }
    }

    fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
        entry.get(key).and_then(Value::as_str).expect(key)
    }

    #[test]
    fn benchmark_json_declares_exactly_the_catalogue() {
        let doc = json::parse(BENCHMARK_JSON).expect("valid JSON");

        let declared: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| (field(w, "name").to_string(), field(w, "why").to_string()))
            .collect();
        let catalogue: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(declared, catalogue);

        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect(key)
                .iter()
                .map(|e| {
                    (
                        field(e, "name").to_string(),
                        field(e, "unit").to_string(),
                        field(e, "better").to_string(),
                    )
                })
                .collect()
        };
        let row = |m: Metric| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.name().to_string(),
            )
        };

        let in_file: Vec<Metric> = END_TO_END
            .into_iter()
            .filter(|m| file_bound(m.name).is_some())
            .collect();
        assert_eq!(
            listed("end_to_end"),
            in_file.iter().copied().map(row).collect::<Vec<_>>()
        );
        for metric in END_TO_END {
            let bound = bound(metric.name).expect("every end-to-end metric is bounded");
            if let Some(share) = file_bound(metric.name) {
                assert_eq!(bound, Bound::Relative(share));
                assert!(share > 0.0 && share <= 0.25, "{}", metric.name);
            }
        }
        assert!(bound("link.rekeys").is_none());

        assert_eq!(
            listed("per_layer"),
            PER_LAYER.into_iter().map(row).collect::<Vec<_>>()
        );
    }
}
