//! `pipellm-orchestrator`: serve a networked pipeline over TCP.
//!
//! Binds a listener, waits for one `stage-worker` process per stage to
//! dial in (control + data connections each), then drives the full run:
//! handshake, sealed ingress, ciphertext relay, per-edge `Fin` drain, lockstep
//! audit. Exits non-zero on any protocol, crypto, or audit failure.
//!
//! This process decides every setting of the run: the flags fill in the
//! `NetPipelineSpec`, `--supervised` adds the `SupervisedOptions`, and each
//! worker is told its share of them in its shard manifest.
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
//! reference. `PIPELLM_HEARTBEAT_MS`, `PIPELLM_SUSPECT_AFTER_MS` and
//! `PIPELLM_DEAD_AFTER_MS` override its deadlines in milliseconds (unset or
//! unparsable: the default); the workers follow through their manifests.

mod cli;

use cli::{flag, int};
use pipellm_net::{deploy, NetPipelineSpec, SupervisedOptions, Wire};
use std::net::TcpListener;
use std::process::ExitCode;
use std::time::Duration;

/// The supervised run's options: defaults, with the three deadlines taken
/// from the environment where set.
fn supervised_options() -> SupervisedOptions {
    let ms = |key: &str, default: Duration| {
        std::env::var(key)
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .map_or(default, Duration::from_millis)
    };
    let default = SupervisedOptions::default();
    SupervisedOptions {
        heartbeat_interval: ms("PIPELLM_HEARTBEAT_MS", default.heartbeat_interval),
        suspect_after: ms("PIPELLM_SUSPECT_AFTER_MS", default.suspect_after),
        dead_after: ms("PIPELLM_DEAD_AFTER_MS", default.dead_after),
        ..default
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let listen = flag(&args, "--listen", "127.0.0.1:7070".to_string(), |v| {
        Ok(v.into())
    })?;
    let rate = |v: &str| v.parse().map_err(|_| format!("not a rate: {v}"));
    let d = NetPipelineSpec::default();
    let spec = NetPipelineSpec {
        stages: flag(&args, "--stages", d.stages, int)?,
        layers: flag(&args, "--layers", d.layers, int)?,
        iterations: flag(&args, "--iterations", d.iterations, int)?,
        micro_batches: flag(&args, "--micro-batches", d.micro_batches, int)?,
        activation_bytes: flag(&args, "--activation-bytes", d.activation_bytes, int)?,
        seed: flag(&args, "--seed", d.seed, int)?,
        chaos_seed: flag(&args, "--chaos-seed", d.chaos_seed, int)?,
        net_fault_rate: flag(&args, "--fault-rate", d.net_fault_rate, rate)?,
        worker_fault_rate: flag(&args, "--worker-fault-rate", d.worker_fault_rate, rate)?,
        ..d
    };
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
    let options = supervised.then(supervised_options);
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
        "orchestrator: done. digest {:#018x}, relayed {}, retransmits {}, sentinels {}, egress-sentinels {}, reconnects {}, rekeys {}, lockstep {}, bit-identical {}",
        report.output_digest,
        report.relayed_frames,
        report.retransmits,
        report.sentinels,
        // Opens that failed here, on frames the last stage sealed: only
        // that worker's own chaos plan corrupts them.
        report.host_report.sentinels,
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
