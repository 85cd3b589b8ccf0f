//! Networked deployment quickstart: a four-stage pipeline served by an
//! orchestrator and one worker per stage, first over the in-process
//! duplex transport, then over real localhost TCP — and then over TCP
//! with a 10% injected fault rate on every link.
//!
//! The three runs must agree byte for byte: the transport — and the
//! chaos on it — is invisible to the math. What the wire *does* change
//! is the resilience ledger:
//!
//! - a mangled sealed frame fails authentication at the receiver, which
//!   absorbs it as a sentinel (the IV is consumed — lockstep holds) and
//!   NACKs; the sender reseals at a fresh IV;
//! - a dropped connection is re-dialed with bounded backoff, and the
//!   restored link's edges are rekeyed to a new epoch before traffic
//!   resumes, so no IV is ever reused;
//! - anything that slips both paths is caught by the level-triggered
//!   resend sweep: an unacked frame past its age threshold is resealed
//!   and resent, again at a fresh IV.
//!
//! At the end of every run the orchestrator audits all edge counters:
//! each edge's two endpoints must agree on epoch and IV positions — the
//! lockstep invariant, now spanning processes and sockets.
//!
//! Run with: `cargo run --release --example networked_pipeline`

use pipellm_repro::net::{deploy, NetPipelineSpec, NetReport, Wire};
use std::time::Duration;

fn show(label: &str, r: &NetReport) {
    println!(
        "{label:<14} stages={} outputs={} digest={:016x} relayed={} retrans={} \
         sentinels={} reconnects={} rekeys={} lockstep={}",
        r.stages,
        r.outputs.len(),
        r.output_digest,
        r.relayed_frames,
        r.retransmits,
        r.sentinels,
        r.reconnects,
        r.rekeys,
        r.lockstep_ok,
    );
}

fn main() {
    let spec = NetPipelineSpec {
        stages: 4,
        layers: 8,
        iterations: 3,
        micro_batches: 2,
        activation_bytes: 2048,
        seed: 0xC0FF_EE00,
        // Deadlines only fire on a true wedge; keep them generous.
        op_timeout: Duration::from_secs(60),
        ..NetPipelineSpec::default()
    };

    // The reference computation: what every deployment must reproduce.
    let expected = spec.expected_outputs();

    // One deployment, two switches: the wire, and (off here) supervision.
    let duplex = deploy(&spec, Wire::Duplex, None)
        .expect("duplex deployment")
        .net;
    show("duplex", &duplex);

    let tcp = deploy(&spec, Wire::TcpThreads, None)
        .expect("tcp deployment")
        .net;
    show("tcp", &tcp);

    let faulty = NetPipelineSpec {
        net_fault_rate: 0.10,
        chaos_seed: 42,
        ..spec.clone()
    };
    let chaotic = deploy(&faulty, Wire::TcpThreads, None)
        .expect("chaotic tcp deployment")
        .net;
    show("tcp + chaos", &chaotic);

    assert_eq!(duplex.outputs, expected, "duplex diverged from reference");
    assert_eq!(tcp.outputs, expected, "tcp diverged from reference");
    assert_eq!(chaotic.outputs, expected, "chaos broke bit-exactness");
    assert!(duplex.lockstep_ok && tcp.lockstep_ok && chaotic.lockstep_ok);

    println!(
        "\nall three deployments bit-identical to the reference \
         ({} outputs, digest {:016x}); chaos absorbed {} sentinels, \
         {} reconnects, {} retransmits, {} rekeys — correctness unchanged",
        expected.len(),
        duplex.output_digest,
        chaotic.sentinels,
        chaotic.reconnects,
        chaotic.retransmits,
        chaotic.rekeys,
    );
}
