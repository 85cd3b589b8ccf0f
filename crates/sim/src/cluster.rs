//! Per-device and per-edge timelines for multi-GPU topologies.
//!
//! A pipeline-parallel cluster is a set of device compute engines joined by
//! inter-GPU links. Each link is a bandwidth-limited [`Link`] plus the
//! *crypto serialization* the confidential-computing mode adds on that hop:
//! every sealed transfer occupies a crypto worker for its seal and open
//! time, and that per-link serialization is exactly the quantity the
//! TM-style cost analyses say must be measured rather than assumed — it
//! grows with the number of stages a model is sharded across.
//!
//! [`EdgeTimeline`] wraps one link with that accounting;
//! [`TimelineSummary`] collects per-device and per-edge utilization rows so
//! the cluster context and the benches report one consistent table.

use crate::resource::{Link, Reservation};
use crate::time::SimTime;
use std::fmt;
use std::time::Duration;

/// One inter-GPU link's timeline: wire occupancy plus the crypto
/// serialization attributed to transfers crossing this edge.
#[derive(Debug, Clone)]
pub struct EdgeTimeline {
    link: Link,
    crypto_serialization: Duration,
    transfers: u64,
}

impl EdgeTimeline {
    /// Creates a timeline over a link with `gbps` GB/s of bandwidth and a
    /// fixed per-operation latency.
    pub fn new(gbps: f64, latency: Duration) -> Self {
        EdgeTimeline {
            link: Link::new(gbps, latency),
            crypto_serialization: Duration::ZERO,
            transfers: 0,
        }
    }

    /// Moves `bytes` over the wire starting no earlier than `at`.
    pub fn transfer(&mut self, at: SimTime, bytes: u64) -> Reservation {
        self.transfers += 1;
        self.link.transfer(at, bytes)
    }

    /// Attributes `time` of seal/open work to this edge's serialization
    /// account (the per-link crypto cost the cluster report surfaces).
    pub fn record_crypto(&mut self, time: Duration) {
        self.crypto_serialization += time;
    }

    /// Total seal/open time serialized onto this edge so far.
    pub fn crypto_serialization(&self) -> Duration {
        self.crypto_serialization
    }

    /// Payload bytes moved over the edge.
    pub fn bytes_moved(&self) -> u64 {
        self.link.bytes_moved()
    }

    /// Transfers carried so far.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// When the wire can next accept data.
    pub fn next_free(&self) -> SimTime {
        self.link.next_free()
    }

    /// The underlying link (occupancy math).
    pub fn link(&self) -> &Link {
        &self.link
    }
}

/// One utilization row of a [`TimelineSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineRow {
    /// Resource label (`"gpu0"`, `"edge0-1"`, …).
    pub label: String,
    /// Time the resource spent serving work.
    pub busy: Duration,
    /// Extra serialized time (I/O stall for devices, crypto serialization
    /// for edges).
    pub serialized: Duration,
    /// Operations served.
    pub ops: u64,
}

impl TimelineRow {
    /// Busy fraction of `makespan` (clamped to [0, 1]).
    pub fn utilization(&self, makespan: Duration) -> f64 {
        if makespan.is_zero() {
            0.0
        } else {
            (self.busy.as_secs_f64() / makespan.as_secs_f64()).min(1.0)
        }
    }
}

/// Per-resource utilization of one cluster run.
#[derive(Debug, Clone, Default)]
pub struct TimelineSummary {
    /// Per-device compute rows, in device order.
    pub devices: Vec<TimelineRow>,
    /// Per-edge link rows, in edge order.
    pub edges: Vec<TimelineRow>,
    /// Simulated wall-clock the rows are measured against.
    pub makespan: Duration,
}

impl TimelineSummary {
    /// Sum of the per-edge crypto serialization — the per-link overhead
    /// whose scaling with stage count the pipeline bench tracks.
    pub fn total_edge_serialization(&self) -> Duration {
        self.edges.iter().map(|row| row.serialized).sum()
    }

    /// Sum of the per-device I/O stall time.
    pub fn total_device_stall(&self) -> Duration {
        self.devices.iter().map(|row| row.serialized).sum()
    }
}

impl fmt::Display for TimelineSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<10} {:>12} {:>12} {:>8} {:>6}",
            "resource", "busy", "serialized", "ops", "util"
        )?;
        for row in self.devices.iter().chain(self.edges.iter()) {
            writeln!(
                f,
                "{:<10} {:>12.3?} {:>12.3?} {:>8} {:>5.1}%",
                row.label,
                row.busy,
                row.serialized,
                row.ops,
                row.utilization(self.makespan) * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_timeline_accounts_wire_and_crypto() {
        let mut edge = EdgeTimeline::new(1.0, Duration::ZERO); // 1 GiB/s
        let r = edge.transfer(SimTime::ZERO, 1 << 30);
        assert!((r.end.as_secs_f64() - 1.0).abs() < 1e-6);
        edge.record_crypto(Duration::from_millis(3));
        edge.record_crypto(Duration::from_millis(2));
        assert_eq!(edge.crypto_serialization(), Duration::from_millis(5));
        assert_eq!(edge.transfers(), 1);
        assert_eq!(edge.bytes_moved(), 1 << 30);
    }

    #[test]
    fn summary_totals_and_utilization() {
        let summary = TimelineSummary {
            devices: vec![TimelineRow {
                label: "gpu0".into(),
                busy: Duration::from_millis(50),
                serialized: Duration::from_millis(10),
                ops: 4,
            }],
            edges: vec![
                TimelineRow {
                    label: "edge0-1".into(),
                    busy: Duration::from_millis(20),
                    serialized: Duration::from_millis(7),
                    ops: 4,
                },
                TimelineRow {
                    label: "edge1-2".into(),
                    busy: Duration::from_millis(20),
                    serialized: Duration::from_millis(5),
                    ops: 4,
                },
            ],
            makespan: Duration::from_millis(100),
        };
        assert_eq!(
            summary.total_edge_serialization(),
            Duration::from_millis(12)
        );
        assert_eq!(summary.total_device_stall(), Duration::from_millis(10));
        assert!((summary.devices[0].utilization(summary.makespan) - 0.5).abs() < 1e-9);
        let text = summary.to_string();
        assert!(text.contains("gpu0") && text.contains("edge1-2"));
    }

    #[test]
    fn utilization_handles_zero_makespan() {
        let row = TimelineRow {
            label: "gpu0".into(),
            busy: Duration::from_millis(1),
            serialized: Duration::ZERO,
            ops: 1,
        };
        assert_eq!(row.utilization(Duration::ZERO), 0.0);
    }
}
