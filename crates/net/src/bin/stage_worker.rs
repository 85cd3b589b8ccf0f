//! `stage-worker`: serve one pipeline stage against a remote orchestrator.
//!
//! Dials the orchestrator twice (control + data), runs the handshake
//! (hello, shard manifest verification, start), serves sealed activation
//! frames for its layer range, and reports its edge counters at the end.
//! Exits non-zero on any handshake, crypto, or link failure.
//!
//! ```text
//! stage-worker --connect 127.0.0.1:7070 --stage 1 [--generation 0]
//!     [--fault-rate 0.0] [--worker-fault-rate 0.0] [--chaos-seed 0xC0A5]
//!     [--timeout-secs 30]
//! ```
//!
//! `--generation` identifies this incarnation to a supervised
//! orchestrator: an external respawn loop restarts a SIGKILLed worker
//! with the next generation, and the acceptor rejects any connection
//! still presenting a superseded one.

use pipellm_net::orchestrator::dial_worker_links;
use pipellm_net::{run_worker, NetPipelineSpec, NetTuning, WorkerConfig};
use std::process::ExitCode;
use std::time::Duration;

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| format!("not a number: {s}"))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let connect = arg_value(&args, "--connect").unwrap_or_else(|| "127.0.0.1:7070".to_string());
    let stage = match arg_value(&args, "--stage") {
        Some(v) => parse_u64(&v)? as u32,
        None => return Err("--stage is required".to_string()),
    };
    let timeout = match arg_value(&args, "--timeout-secs") {
        Some(v) => Duration::from_secs(parse_u64(&v)?),
        None => Duration::from_secs(30),
    };
    let generation = match arg_value(&args, "--generation") {
        Some(v) => parse_u64(&v)? as u32,
        None => 0,
    };
    let fault_rate: f64 = match arg_value(&args, "--fault-rate") {
        Some(v) => v.parse().map_err(|_| format!("not a rate: {v}"))?,
        None => 0.0,
    };
    let worker_fault_rate: f64 = match arg_value(&args, "--worker-fault-rate") {
        Some(v) => v.parse().map_err(|_| format!("not a rate: {v}"))?,
        None => 0.0,
    };
    let chaos_seed = match arg_value(&args, "--chaos-seed") {
        Some(v) => parse_u64(&v)?,
        None => 0xC0A5,
    };

    let addr = connect
        .parse()
        .map_err(|e| format!("bad address {connect}: {e}"))?;
    let mut config = WorkerConfig::with_tuning(stage, &NetTuning::from_env());
    config.generation = generation;
    config.op_timeout = timeout;
    if generation == 0 {
        // The per-node plan of the in-process deployments, so a
        // multi-process run replays their chaos schedule. A respawned
        // incarnation (generation > 0) is the recovery path and always
        // runs fault-free.
        let faults = NetPipelineSpec {
            net_fault_rate: fault_rate,
            worker_fault_rate,
            chaos_seed,
            ..NetPipelineSpec::default()
        };
        config.chaos = faults.injector_for(stage);
    }

    eprintln!("stage-worker {stage} gen {generation}: dialing {connect}");
    let links = dial_worker_links(addr, stage, generation, timeout).map_err(|e| e.to_string())?;
    let report = run_worker(links, config).map_err(|e| e.to_string())?;
    println!(
        "stage-worker {stage}: done. retransmits {}, sentinels {}, reconnects {}, edges {}",
        report.retransmits,
        report.sentinels,
        report.reconnects,
        report.edges.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("stage-worker: {e}");
            ExitCode::FAILURE
        }
    }
}
