//! `pipellm-orchestrator`: serve a networked pipeline over TCP.
//!
//! Binds a listener, waits for one `stage-worker` process per stage to
//! dial in (control + data connections each), then drives the full run:
//! handshake, sealed ingress, ciphertext relay, sequenced drain, lockstep
//! audit. Exits non-zero on any protocol, crypto, or audit failure.
//!
//! ```text
//! pipellm-orchestrator --listen 127.0.0.1:7070 --stages 4 [--layers 8]
//!     [--iterations 2] [--micro-batches 2] [--activation-bytes 4096]
//!     [--seed 0x9e3779b9] [--fault-rate 0.0] [--worker-fault-rate 0.0]
//!     [--chaos-seed 0xC0A5] [--supervised]
//! ```
//!
//! With `--supervised`, the orchestrator runs the heartbeat/failover
//! supervision layer: workers stream heartbeats, a SIGKILLed worker is
//! detected by deadline, and an externally respawned replacement (a
//! `stage-worker` restarted with `--generation <n>`) is readmitted,
//! handed the latest sealed checkpoint, and every adjacent edge is
//! force-rekeyed — the run completes bit-identical to its fault-free
//! reference. Heartbeat and deadline tuning comes from `PIPELLM_*`
//! environment variables ([`pipellm_net::NetTuning::from_env`]).

use pipellm_net::{deploy, NetPipelineSpec, NetTuning, SupervisedOptions, Wire};
use std::net::TcpListener;
use std::process::ExitCode;

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
    let listen = arg_value(&args, "--listen").unwrap_or_else(|| "127.0.0.1:7070".to_string());
    let mut spec = NetPipelineSpec::default();
    if let Some(v) = arg_value(&args, "--stages") {
        spec.stages = parse_u64(&v)? as u32;
    }
    if let Some(v) = arg_value(&args, "--layers") {
        spec.layers = parse_u64(&v)? as u32;
    }
    if let Some(v) = arg_value(&args, "--iterations") {
        spec.iterations = parse_u64(&v)? as u32;
    }
    if let Some(v) = arg_value(&args, "--micro-batches") {
        spec.micro_batches = parse_u64(&v)? as u32;
    }
    if let Some(v) = arg_value(&args, "--activation-bytes") {
        spec.activation_bytes = parse_u64(&v)? as usize;
    }
    if let Some(v) = arg_value(&args, "--seed") {
        spec.seed = parse_u64(&v)?;
    }
    if let Some(v) = arg_value(&args, "--chaos-seed") {
        spec.chaos_seed = parse_u64(&v)?;
    }
    if let Some(v) = arg_value(&args, "--fault-rate") {
        spec.net_fault_rate = v.parse().map_err(|_| format!("not a rate: {v}"))?;
    }
    if let Some(v) = arg_value(&args, "--worker-fault-rate") {
        spec.worker_fault_rate = v.parse().map_err(|_| format!("not a rate: {v}"))?;
    }
    let supervised = args.iter().any(|a| a == "--supervised");
    spec.validate().map_err(|e| e.to_string())?;

    let listener = TcpListener::bind(&listen).map_err(|e| format!("bind {listen}: {e}"))?;
    eprintln!(
        "orchestrator: listening on {listen}, {} stages x {} layers, {} iterations x {} micro-batches{}",
        spec.stages,
        spec.layers,
        spec.iterations,
        spec.micro_batches,
        if supervised { ", supervised" } else { "" },
    );
    let expected = spec.expected_outputs();
    let options = supervised.then(|| SupervisedOptions {
        tuning: NetTuning::from_env(),
        ..SupervisedOptions::default()
    });
    let run =
        deploy(&spec, Wire::Listener(&listener), options.as_ref()).map_err(|e| e.to_string())?;
    if supervised {
        println!(
            "orchestrator: supervision heartbeats {}, detections {}, failovers {}, barriers {}, checkpoints {}, restores {}, stale-rejects {}, shed {}",
            run.stats.heartbeats,
            run.stats.detections,
            run.stats.failovers,
            run.stats.barriers,
            run.stats.checkpoints_stored,
            run.stats.restores_sent,
            run.stats.stale_rejects,
            run.stats.shed_sessions,
        );
    }
    let report = run.net;
    let bit_identical = report.outputs == expected;
    println!(
        "orchestrator: done. digest {:#018x}, relayed {}, retransmits {}, sentinels {}, reconnects {}, rekeys {}, lockstep {}, bit-identical {}",
        report.output_digest,
        report.relayed_frames,
        report.retransmits,
        report.sentinels,
        report.reconnects,
        report.rekeys,
        report.lockstep_ok,
        bit_identical,
    );
    if !bit_identical {
        return Err("outputs diverged from the in-process reference".to_string());
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("orchestrator: {e}");
            ExitCode::FAILURE
        }
    }
}
