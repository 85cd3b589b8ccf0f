//! `stage-worker`: serve one pipeline stage against a remote orchestrator.
//!
//! Dials the orchestrator twice (control + data), runs the handshake
//! (hello, shard manifest verification, start), serves sealed activation
//! frames for its layer range, and reports its edge counters at the end.
//! Exits non-zero on any handshake, crypto, or link failure.
//!
//! ```text
//! stage-worker --connect 127.0.0.1:7070 --stage 1 [--generation 0]
//!     [--timeout-secs 30]
//! ```
//!
//! Everything else — shard, geometry, resend threshold, heartbeat interval,
//! hang duration, chaos plan — arrives in the shard manifest.
//! `--timeout-secs` bounds the dial, the handshake, idle waits and the
//! drain.
//!
//! `--generation` identifies this incarnation to a supervised
//! orchestrator: an external respawn loop restarts a SIGKILLed worker
//! with the next generation, and the acceptor rejects any connection
//! still presenting a superseded one. Only generation 0 arms the chaos
//! plan.

mod cli;

use cli::{flag, int};
use pipellm_net::orchestrator::dial_worker_links;
use pipellm_net::{run_worker, WorkerConfig};
use std::process::ExitCode;
use std::time::Duration;

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let connect = flag(&args, "--connect", "127.0.0.1:7070".to_string(), |v| {
        Ok(v.into())
    })?;
    let stage = flag(&args, "--stage", None, |v| int(v).map(Some))?;
    let config = WorkerConfig {
        stage: stage.ok_or("--stage is required")?,
        generation: flag(&args, "--generation", 0, int)?,
        op_timeout: Duration::from_secs(flag(&args, "--timeout-secs", 30, int)?),
    };
    let (stage, generation) = (config.stage, config.generation);
    let addr = connect
        .parse()
        .map_err(|e| format!("bad address {connect}: {e}"))?;
    eprintln!("stage-worker {stage} gen {generation}: dialing {connect}");
    let links = dial_worker_links(addr, &config).map_err(|e| e.to_string())?;
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
