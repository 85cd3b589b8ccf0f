//! End-to-end tests of the networked deployment: TCP and duplex runs must
//! be bit-identical to each other and to the in-process reference, and a
//! chaos-injected run must recover with every edge in lockstep.

use pipellm_repro::net::orchestrator::dial_worker_links;
use pipellm_repro::net::proto::Msg;
use pipellm_repro::net::{
    deploy, run_tcp_threads, run_worker, NetPipelineSpec, Wire, WorkerConfig,
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
            let mut config = WorkerConfig::new(stage);
            config.op_timeout = spec.op_timeout;
            std::thread::spawn(move || {
                let links = dial_worker_links(addr, stage, 0, config.op_timeout)?;
                run_worker(links, config)
            })
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
