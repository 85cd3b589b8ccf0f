//! Chaos experiment: graceful degradation under injected faults.
//!
//! The pipeline-parallel engine runs at fault rates 0/1/5/10% under all
//! three link disciplines. At each point the injector mangles sealed
//! frames in flight (bit flips, truncations, drops), stalls and kills
//! stage executors, and churns the serving session mid-stream. Claims
//! under test:
//!
//! - every run **completes** at every fault rate — no wedged pipeline, no
//!   panic, no unbounded retry loop;
//! - outputs stay **bit-exact** with the same system's fault-free run —
//!   the sentinel/retry protocol recovers every frame, it never papers
//!   over a corruption;
//! - every edge's IV counters end in **lockstep** — a faulted frame
//!   consumes its IV on both endpoints, never desyncs and never reuses;
//! - throughput degrades **gracefully**: recovery costs backoff and
//!   restart time, not collapse.

use pipellm_chaos::{ChaosInjector, FaultPlan};
use pipellm_net::{deploy, NetPipelineSpec, SupervisedOptions, Wire};
use pipellm_serving::engine::ServingEngine;
use pipellm_serving::pipeline::{PipelineConfig, PipelineEngine, PipelineSystem};
use pipellm_serving::resilience::ResilienceStats;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pipeline stages at every sweep point.
pub const STAGES: usize = 4;

/// Injector seed: fixed so every chaos failure replays bit-identically.
pub const CHAOS_SEED: u64 = 0xC405;

/// The swept per-operation fault rates.
pub const FAULT_RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.10];

/// One (fault rate, system) measurement.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Total per-op fault probability swept.
    pub fault_rate: f64,
    /// System label ("w/o CC", "CC", "PipeLLM").
    pub system: String,
    /// Micro-batches retired per second.
    pub mb_per_sec: f64,
    /// Throughput relative to the same system's fault-free run.
    pub vs_clean: f64,
    /// Faults the injector actually landed (suppressed rolls excluded).
    pub faults_injected: u64,
    /// What the recovery protocol did.
    pub resilience: ResilienceStats,
    /// Micro-batches completed (must equal the configured total).
    pub completed: u64,
    /// Whether outputs match the same system's fault-free outputs.
    pub bit_exact: bool,
    /// Whether every edge's counters ended in lockstep for every session.
    pub lockstep: bool,
}

/// The plan at one sweep point: the total rate split across the frame
/// kinds (in-flight mangling), the stage kinds (hangs and kills), and the
/// session kinds (churn and rekey races). CC-off never reaches the frame
/// injection points (they live inside the encrypted paths), so its rows
/// isolate the orchestrator-level recovery cost.
fn plan(rate: f64) -> FaultPlan {
    FaultPlan::new(CHAOS_SEED)
        .with_frame_rate(rate)
        .with_stage_rate(rate * 0.5)
        .with_session_rate(rate * 0.5)
}

fn config(micro_batches: usize, iterations: usize) -> PipelineConfig {
    PipelineConfig {
        stages: STAGES,
        micro_batches,
        iterations,
        crypto_threads: crate::pipeline::CRYPTO_THREADS,
        ..PipelineConfig::default()
    }
}

/// Runs one system at one fault rate; `clean_outputs` (the same system at
/// rate zero) witnesses bit-exactness, `clean_mbps` normalizes throughput.
fn run_point(
    system: PipelineSystem,
    rate: f64,
    micro_batches: usize,
    iterations: usize,
    clean: Option<(&[Vec<u8>], f64)>,
) -> (ChaosRow, Vec<Vec<u8>>) {
    let chaos = Arc::new(ChaosInjector::new(plan(rate)));
    let mut engine = PipelineEngine::new(PipelineConfig {
        system,
        chaos: (rate > 0.0).then(|| Arc::clone(&chaos)),
        ..config(micro_batches, iterations)
    });
    let report = engine.run_to_completion().expect("chaotic run completes");
    let outputs = engine.outputs().to_vec();
    let (bit_exact, vs_clean) = match clean {
        Some((clean_outputs, clean_mbps)) => (
            outputs == clean_outputs,
            report.tokens_per_sec / clean_mbps.max(f64::MIN_POSITIVE),
        ),
        None => (true, 1.0),
    };
    let row = ChaosRow {
        fault_rate: rate,
        system: system.label().to_string(),
        mb_per_sec: report.tokens_per_sec,
        vs_clean,
        faults_injected: chaos.stats().total(),
        resilience: *engine.resilience(),
        completed: report.completed,
        bit_exact,
        lockstep: engine.verify_edges().is_ok(),
    };
    (row, outputs)
}

/// Runs the full sweep: for each system, the fault-free baseline first,
/// then every non-zero rate measured against it.
pub fn run(micro_batches: usize, iterations: usize) -> Vec<ChaosRow> {
    let systems = [
        PipelineSystem::CcOff,
        PipelineSystem::CcNative,
        PipelineSystem::PipeLlm,
    ];
    let mut rows = Vec::new();
    for &system in &systems {
        let (clean_row, clean_outputs) =
            run_point(system, FAULT_RATES[0], micro_batches, iterations, None);
        let clean_mbps = clean_row.mb_per_sec;
        rows.push(clean_row);
        for &rate in &FAULT_RATES[1..] {
            let (row, _) = run_point(
                system,
                rate,
                micro_batches,
                iterations,
                Some((&clean_outputs, clean_mbps)),
            );
            rows.push(row);
        }
    }
    rows
}

// ── Networked kill sweep: supervised deployments under process chaos ──

/// The swept per-received-frame worker kill/hang probabilities.
pub const KILL_RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.10];

/// Chaos-plan seed for the networked sweep (decorrelated from
/// [`CHAOS_SEED`] so the two experiments fault independently).
pub const NET_KILL_SEED: u64 = 0xD1E5;

/// One (kill rate, transport) measurement of a supervised deployment.
#[derive(Debug, Clone)]
pub struct NetKillRow {
    /// Per-received-frame worker kill/hang probability swept.
    pub kill_rate: f64,
    /// `"duplex"` or `"tcp"`.
    pub transport: String,
    /// End-to-end wall time, milliseconds.
    pub wall_ms: f64,
    /// Served micro-batches per second of wall time.
    pub mb_per_sec: f64,
    /// Worker deaths the supervisor detected (deadline or link loss).
    pub detections: u64,
    /// Failovers completed (replacement admitted and serving).
    pub failovers: u64,
    /// Sealed checkpoint blobs the orchestrator stored.
    pub checkpoints: u64,
    /// Restore messages relayed to replacement incarnations.
    pub restores: u64,
    /// Stale-generation connections/reattaches rejected.
    pub stale_rejects: u64,
    /// Heartbeats received across all incarnations.
    pub heartbeats: u64,
    /// Sessions served to completion.
    pub completed: u64,
    /// Outputs equal the fault-free twin's (and the no-network
    /// reference's) byte for byte.
    pub bit_exact: bool,
    /// End-of-run lockstep audit passed on every edge.
    pub lockstep: bool,
}

/// The supervised spec at one sweep point: small enough that a CI box
/// absorbs several failovers per run, deadlines tightened so detection
/// costs milliseconds instead of the production defaults.
pub fn net_kill_spec(rate: f64, smoke: bool) -> NetPipelineSpec {
    NetPipelineSpec {
        stages: 3,
        layers: 6,
        iterations: if smoke { 2 } else { 3 },
        micro_batches: if smoke { 2 } else { 3 },
        activation_bytes: 1024,
        seed: 0x9e37_79b9,
        worker_fault_rate: rate,
        chaos_seed: NET_KILL_SEED,
        // Generous: only fires on a true wedge; CI cores are starved.
        op_timeout: Duration::from_secs(120),
        ..NetPipelineSpec::default()
    }
}

/// Supervision tuning for the sweep — tightened deadlines so a kill is
/// detected and failed over in tens of milliseconds.
pub fn net_kill_options() -> SupervisedOptions {
    SupervisedOptions {
        heartbeat_interval: Duration::from_millis(10),
        suspect_after: Duration::from_millis(80),
        dead_after: Duration::from_millis(200),
        checkpoint_every: 2,
        ..SupervisedOptions::default()
    }
}

fn measure_supervised(
    wire: Wire<'_>,
    transport: &str,
    rate: f64,
    smoke: bool,
    twin: Option<&[Vec<u8>]>,
) -> (NetKillRow, Vec<Vec<u8>>) {
    let spec = net_kill_spec(rate, smoke);
    let options = net_kill_options();
    let start = Instant::now();
    let report = deploy(&spec, wire, Some(&options)).expect("supervised chaotic run completes");
    let wall = start.elapsed();
    let expected = spec.expected_outputs();
    let outputs = report.net.outputs.clone();
    let bit_exact = outputs == expected && twin.is_none_or(|t| outputs == *t);
    let row = NetKillRow {
        kill_rate: rate,
        transport: transport.to_string(),
        wall_ms: wall.as_secs_f64() * 1e3,
        mb_per_sec: report.completed.len() as f64 / wall.as_secs_f64().max(1e-9),
        detections: report.stats.detections,
        failovers: report.stats.failovers,
        checkpoints: report.stats.checkpoints_stored,
        restores: report.stats.restores_sent,
        stale_rejects: report.stats.stale_rejects,
        heartbeats: report.stats.heartbeats,
        completed: report.completed.len() as u64,
        bit_exact,
        lockstep: report.net.lockstep_ok,
    };
    (row, outputs)
}

/// Runs the networked kill sweep: for each transport, the fault-free
/// twin first, then every non-zero kill rate checked bit-for-bit against
/// it. Kills and hangs land on real worker event loops — over real
/// localhost TCP sockets for the `"tcp"` rows — and every recovery goes
/// through the full heartbeat-detect / force-rekey / checkpoint-restore
/// failover path.
pub fn run_net_kill(smoke: bool) -> Vec<NetKillRow> {
    let mut rows = Vec::new();
    for (label, wire) in [("duplex", Wire::Duplex), ("tcp", Wire::TcpThreads)] {
        let (twin_row, twin_outputs) = measure_supervised(wire, label, KILL_RATES[0], smoke, None);
        rows.push(twin_row);
        for &rate in &KILL_RATES[1..] {
            let (row, _) = measure_supervised(wire, label, rate, smoke, Some(&twin_outputs));
            rows.push(row);
        }
    }
    rows
}

/// Serializes the networked kill rows (the `"net_kill"` JSON section).
fn net_kill_json(rows: &[NetKillRow]) -> String {
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"kill_rate\": {:.2}, \"transport\": \"{}\", \"wall_ms\": {:.3}, \
             \"mb_per_sec\": {:.3}, \"detections\": {}, \"failovers\": {}, \
             \"checkpoints\": {}, \"restores\": {}, \"stale_rejects\": {}, \
             \"heartbeats\": {}, \"completed\": {}, \"bit_exact\": {}, \"lockstep\": {}}}{}",
            row.kill_rate,
            row.transport,
            row.wall_ms,
            row.mb_per_sec,
            row.detections,
            row.failovers,
            row.checkpoints,
            row.restores,
            row.stale_rejects,
            row.heartbeats,
            row.completed,
            row.bit_exact,
            row.lockstep,
            comma
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// Pretty table of the networked kill sweep for stdout.
pub fn net_kill_table(rows: &[NetKillRow]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:>5} {:<7} {:>10} {:>7} {:>9} {:>8} {:>8} {:>7} {:>9} {:>8}",
        "kill",
        "wire",
        "wall ms",
        "detect",
        "failover",
        "ckpts",
        "restores",
        "beats",
        "bit_exact",
        "lockstep"
    )
    .expect("writing to String cannot fail");
    for row in rows {
        writeln!(
            out,
            "{:>4.0}% {:<7} {:>10.2} {:>7} {:>9} {:>8} {:>8} {:>7} {:>9} {:>8}",
            row.kill_rate * 100.0,
            row.transport,
            row.wall_ms,
            row.detections,
            row.failovers,
            row.checkpoints,
            row.restores,
            row.heartbeats,
            row.bit_exact,
            row.lockstep,
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// Serializes both sweeps as the `BENCH_chaos.json` artifact.
pub fn artifact_json(rows: &[ChaosRow], net_kill: &[NetKillRow]) -> String {
    let mut out = to_json(rows);
    // Splice the net_kill section before the closing brace.
    out.truncate(out.rfind("  ]\n}\n").expect("artifact has a rows array"));
    out.push_str("  ],\n  \"net_kill\": [\n");
    out.push_str(&net_kill_json(net_kill));
    out.push_str("  ]\n}\n");
    out
}

/// Serializes rows as the `BENCH_chaos.json` artifact.
pub fn to_json(rows: &[ChaosRow]) -> String {
    let mut out = format!(
        "{{\n  \"experiment\": \"chaos_fault_sweep\",\n  \
         \"stages\": {STAGES},\n  \"chaos_seed\": {CHAOS_SEED},\n  \"rows\": [\n"
    );
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let r = &row.resilience;
        writeln!(
            out,
            "    {{\"fault_rate\": {:.2}, \"system\": \"{}\", \
             \"mb_per_sec\": {:.3}, \"vs_clean\": {:.3}, \
             \"faults_injected\": {}, \"retries\": {}, \"escalations\": {}, \
             \"timeouts\": {}, \"stage_kills\": {}, \"session_churns\": {}, \
             \"forced_rekeys\": {}, \"completed\": {}, \"bit_exact\": {}, \
             \"lockstep\": {}}}{}",
            row.fault_rate,
            row.system,
            row.mb_per_sec,
            row.vs_clean,
            row.faults_injected,
            r.retries,
            r.escalations,
            r.timeouts,
            r.stage_kills,
            r.session_churns,
            r.forced_rekeys,
            row.completed,
            row.bit_exact,
            row.lockstep,
            comma
        )
        .expect("writing to String cannot fail");
    }
    out.push_str("  ]\n}\n");
    out
}

/// Pretty table for stdout.
pub fn to_table(rows: &[ChaosRow]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:>5} {:<8} {:>10} {:>9} {:>7} {:>8} {:>6} {:>6} {:>6} {:>9} {:>8}",
        "rate",
        "system",
        "mb/s",
        "vs clean",
        "faults",
        "retries",
        "escal",
        "t/out",
        "kills",
        "bit_exact",
        "lockstep"
    )
    .expect("writing to String cannot fail");
    for row in rows {
        let r = &row.resilience;
        writeln!(
            out,
            "{:>4.0}% {:<8} {:>10.1} {:>8.2}x {:>7} {:>8} {:>6} {:>6} {:>6} {:>9} {:>8}",
            row.fault_rate * 100.0,
            row.system,
            row.mb_per_sec,
            row.vs_clean,
            row.faults_injected,
            r.retries,
            r.escalations,
            r.timeouts,
            r.stage_kills,
            row.bit_exact,
            row.lockstep,
        )
        .expect("writing to String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_completes_bit_exact_and_in_lockstep() {
        let rows = run(2, 2);
        assert_eq!(rows.len(), 3 * FAULT_RATES.len());
        for row in &rows {
            assert_eq!(row.completed, 4, "{} @ {}", row.system, row.fault_rate);
            assert!(
                row.bit_exact,
                "{} @ {} diverged",
                row.system, row.fault_rate
            );
            assert!(row.lockstep, "{} @ {} desynced", row.system, row.fault_rate);
        }
        // The encrypted systems see frame faults at 10% and recover.
        let recovered = rows
            .iter()
            .filter(|r| r.fault_rate >= 0.10 && r.system != "w/o CC")
            .map(|r| r.resilience.retries)
            .sum::<u64>();
        assert!(recovered > 0, "10% faults must trigger retries");
    }

    #[test]
    fn json_artifact_is_well_formed() {
        let rows = run(2, 1);
        let json = to_json(&rows);
        assert!(json.contains("\"experiment\": \"chaos_fault_sweep\""));
        assert_eq!(json.matches("\"fault_rate\":").count(), rows.len());
        assert!(!to_table(&rows).is_empty());
    }

    #[test]
    fn net_kill_sweep_fails_over_bit_identically() {
        let rows = run_net_kill(true);
        assert_eq!(rows.len(), 2 * KILL_RATES.len());
        for row in &rows {
            let at = format!("{} @ {:.0}%", row.transport, row.kill_rate * 100.0);
            assert!(row.bit_exact, "{at} diverged from its fault-free twin");
            assert!(row.lockstep, "{at} ended with desynced edge counters");
            assert_eq!(row.completed, 4, "{at} dropped sessions");
            // Every detected death was recovered from, none left hanging.
            assert_eq!(row.detections, row.failovers, "{at} unrecovered death");
        }
        // The sweep actually exercised failover somewhere.
        assert!(
            rows.iter().any(|r| r.failovers > 0),
            "no kill landed across the whole sweep — chaos wiring is dead"
        );
        let json = artifact_json(&run(2, 1), &rows);
        assert!(json.contains("\"net_kill\": ["));
        assert_eq!(json.matches("\"kill_rate\":").count(), rows.len());
        assert!(!net_kill_table(&rows).is_empty());
    }
}
