//! End-to-end tests of the networked deployment: TCP and duplex runs must
//! be bit-identical to each other and to the in-process reference, a
//! chaos-injected run must recover with every edge in lockstep, and the
//! lockstep audit must fail on counters that disagree.

use pipellm_repro::net::orchestrator::{audit_lockstep, dial_worker_links};
use pipellm_repro::net::proto::{CounterReport, EdgeCounterEntry, Msg, HOST_NODE};
use pipellm_repro::net::{
    deploy, run_tcp_threads, run_worker, NetError, NetPipelineSpec, Wire, WorkerConfig,
};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

fn spec() -> NetPipelineSpec {
    NetPipelineSpec {
        stages: 4,
        layers: 8,
        iterations: 2,
        micro_batches: 2,
        activation_bytes: 1024,
        seed: 0xA5A5_1234,
        // Generous: phase timeouts only fire on a true wedge, and the CI
        // runner may be a starved single core.
        op_timeout: Duration::from_secs(60),
        ..NetPipelineSpec::default()
    }
}

#[test]
fn four_stage_tcp_matches_the_in_process_reference_bit_for_bit() {
    let spec = spec();
    let report = run_tcp_threads(&spec).expect("tcp run");
    assert_eq!(report.transport, "tcp");
    assert_eq!(
        report.outputs,
        spec.expected_outputs(),
        "TCP outputs must equal the in-process computation byte for byte"
    );
    assert!(report.lockstep_ok);
}

#[test]
fn tcp_and_duplex_transports_are_interchangeable() {
    for stages in [1, 2, 4] {
        let spec = NetPipelineSpec { stages, ..spec() };
        let expected = spec.expected_outputs();
        let [tcp, duplex] = [Wire::TcpThreads, Wire::Duplex].map(|wire| {
            let report = deploy(&spec, wire, None)
                .unwrap_or_else(|e| panic!("{stages} stages over {wire:?}: {e}"))
                .net;
            assert_eq!(report.outputs, expected, "{stages} stages over {wire:?}");
            assert!(report.lockstep_ok);
            report
        });
        assert_eq!((tcp.stages, duplex.stages), (stages, stages));
        assert_eq!(
            tcp.output_digest, duplex.output_digest,
            "digest must not depend on the transport"
        );
    }
}

#[test]
fn strangers_on_the_listener_do_not_abort_an_unsupervised_run() {
    let spec = NetPipelineSpec {
        stages: 2,
        ..spec()
    };
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("local_addr");
    // Two strangers sit in the accept backlog ahead of every worker: one
    // speaks the framing but identifies as nothing, one connects and
    // leaves. Neither may cost the run anything.
    let mut junk = TcpStream::connect(addr).expect("stranger connects");
    junk.write_all(&Msg::Start.encode().expect("encode"))
        .expect("stranger sends a well-framed message");
    drop(TcpStream::connect(addr).expect("second stranger connects"));
    let workers: Vec<_> = (0..spec.stages)
        .map(|stage| {
            let config = WorkerConfig {
                op_timeout: spec.op_timeout,
                ..WorkerConfig::new(stage)
            };
            std::thread::spawn(move || run_worker(dial_worker_links(addr, &config)?, config))
        })
        .collect();
    let report = deploy(&spec, Wire::Listener(&listener), None)
        .expect("strangers must not abort the run")
        .net;
    assert_eq!(report.outputs, spec.expected_outputs());
    assert!(report.lockstep_ok);
    for worker in workers {
        worker
            .join()
            .expect("worker thread")
            .expect("worker exits cleanly");
    }
}

#[test]
fn chaos_connection_drops_recover_in_lockstep_over_tcp() {
    let spec = NetPipelineSpec {
        net_fault_rate: 0.2,
        ..spec()
    };
    let report = run_tcp_threads(&spec).expect("chaos tcp run");
    assert_eq!(
        report.outputs,
        spec.expected_outputs(),
        "recovery must preserve bit-exactness"
    );
    assert!(
        report.sentinels + report.reconnects > 0,
        "a 20% fault rate must actually fire (sentinels {}, reconnects {})",
        report.sentinels,
        report.reconnects
    );
    // Reconnected links resume at a bumped epoch with IV counters back at
    // 1 — the lockstep audit inside run_tcp_threads fails the run if any
    // edge's counters or epochs diverge, so reaching here with reconnects
    // is the no-IV-reuse witness.
    assert!(report.lockstep_ok);
    if report.reconnects > 0 {
        assert!(report.rekeys > 0, "reconnects must trigger epoch rekeys");
    }
}

#[test]
fn outputs_keep_no_receive_slack_at_small_or_large_frames() {
    // 4 KiB frames are read, decoded and freed as they always were; 1 MiB
    // frames are received into pooled buffers and opened in place. Either
    // way an output a run keeps holds its plaintext and at most a tag's
    // worth of spare room, never a receive buffer's slack.
    for (micro_batches, activation_bytes) in [(16, 4 << 10), (4, 1 << 20)] {
        let spec = NetPipelineSpec {
            stages: 2,
            layers: 2,
            iterations: 1,
            micro_batches,
            activation_bytes,
            ..spec()
        };
        let report = run_tcp_threads(&spec).expect("tcp run");
        assert_eq!(report.outputs, spec.expected_outputs());
        for output in &report.outputs {
            assert!(
                output.capacity() <= output.len() + 64,
                "{activation_bytes}-byte output keeps {} bytes of capacity",
                output.capacity()
            );
        }
    }
}

#[test]
fn the_lockstep_audit_fails_on_counters_that_disagree() {
    let entry = |epoch, tx_iv, rx_iv| EdgeCounterEntry {
        a: 0,
        b: HOST_NODE,
        epoch,
        tx_iv,
        rx_iv,
    };
    let report = |stage, edges| CounterReport {
        stage,
        edges,
        retransmits: 0,
        sentinels: 0,
        reconnects: 0,
    };
    // The host sealed four frames at epoch 1 and opened two.
    let host = report(HOST_NODE, vec![entry(1, 5, 3)]);
    let agreeing = report(0, vec![entry(1, 3, 5)]);
    assert_eq!(audit_lockstep(&[agreeing], &host), Ok(()));
    for stage in [
        report(0, vec![entry(1, 3, 4)]), // a frame sealed, never opened
        report(0, vec![entry(1, 4, 5)]), // a frame opened, never sealed
        report(0, vec![entry(2, 3, 5)]), // the ends disagree on the epoch
        report(0, Vec::new()),           // one end does not report
    ] {
        let audit = audit_lockstep(std::slice::from_ref(&stage), &host);
        assert!(
            matches!(audit, Err(NetError::Lockstep { .. })),
            "{stage:?}: {audit:?}"
        );
    }
}
