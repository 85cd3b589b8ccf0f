//! A stage worker driven through its public entry point by a hand-scripted
//! orchestrator: the full lifecycle of one micro-batch (greetings,
//! handshake, sealed input, ack, sealed output, the `Fin`/`FinAck` close
//! of both directions, counter report, `Shutdown`), a checkpoint barrier
//! that lands mid-handshake, and data frames that overtake `Start`.

use pipellm::partition::{apply_stage, iteration_input, stage_weight_hash};
use pipellm_chaos::FaultKind;
use pipellm_net::checkpoint::open_checkpoint;
use pipellm_net::link::{open_data, EdgeCrypto, Role, RxOutcome, WireEdge};
use pipellm_net::proto::{
    CheckpointReq, CounterReport, DataAck, DataFrame, Fin, Hello, ManifestAck, Msg, ShardManifest,
    HOST_NODE,
};
use pipellm_net::transport::{duplex_pair, FrameReceiver, FrameSender, Transport};
use pipellm_net::NetPipelineSpec;
use pipellm_net::{run_worker, NetError, NetResult, WorkerConfig, WorkerLinks};
use std::time::Duration;

const SEED: u64 = 0x77;
const LEN: usize = 64;
/// Longer than either test runs: no sweep or heartbeat fires.
const QUIET: Duration = Duration::from_secs(120);

/// The orchestrator's end of a one-stage deployment, driven by hand.
struct Scripted {
    worker: std::thread::JoinHandle<NetResult<CounterReport>>,
    ctl_tx: Box<dyn FrameSender>,
    ctl_rx: Box<dyn FrameReceiver>,
    data_tx: Box<dyn FrameSender>,
    data_rx: Box<dyn FrameReceiver>,
}

/// A one-stage run of one iteration. The scripted peer acks at its own
/// pace; a sweep retransmit would skew the exact IV counters these tests
/// assert.
fn spec(micro_batches: u32) -> NetPipelineSpec {
    NetPipelineSpec {
        stages: 1,
        layers: 4,
        iterations: 1,
        micro_batches,
        activation_bytes: LEN,
        seed: SEED,
        resend_after: QUIET,
        ..NetPipelineSpec::default()
    }
}

/// Session `micro_batch`'s input, sealed at the host's next IV.
fn sealed_input(host: &mut EdgeCrypto, micro_batch: u32) -> Msg {
    let input = iteration_input(SEED, 0, micro_batch as usize, LEN);
    let aad = DataFrame::bind_aad(HOST_NODE, 0, host.epoch(), 0, micro_batch, LEN as u64);
    Msg::Data(DataFrame {
        src: HOST_NODE,
        dst: 0,
        seq: u64::from(micro_batch),
        epoch: host.epoch(),
        iteration: 0,
        micro_batch,
        sealed: host.seal(&aad, &input).unwrap().bytes,
    })
}

impl Scripted {
    /// Starts a stage-0 worker on duplex links and takes its greetings.
    fn start() -> Self {
        let (ctl_orch, ctl_worker, _) = duplex_pair("ctl");
        let (data_orch, data_worker, _) = duplex_pair("data");
        let worker = std::thread::spawn(move || {
            run_worker(
                WorkerLinks {
                    control: Box::new(ctl_worker),
                    data: Box::new(data_worker),
                    data_reattach: None,
                },
                WorkerConfig::new(0),
            )
        });
        let (ctl_tx, ctl_rx) = Box::new(ctl_orch).split().unwrap();
        let (data_tx, data_rx) = Box::new(data_orch).split().unwrap();
        let mut peer = Scripted {
            worker,
            ctl_tx,
            ctl_rx,
            data_tx,
            data_rx,
        };
        assert_eq!(
            peer.recv_ctl("hello"),
            Msg::Hello(Hello {
                stage: 0,
                generation: 0,
            }),
            "control greeting"
        );
        assert_eq!(
            peer.recv_data("data hello"),
            Msg::DataHello {
                stage: 0,
                generation: 0,
            }
        );
        peer
    }

    fn recv(rx: &mut Box<dyn FrameReceiver>, step: &str) -> Msg {
        // Generous: a starved single-core runner can stall the worker
        // thread for seconds while other tests hold the CPU.
        let frame = rx
            .recv_frame(Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("waiting for {step}: {e}"));
        Msg::decode(&frame).unwrap_or_else(|e| panic!("decoding {step}: {e}"))
    }

    /// The next control message but the worker's heartbeats: beacons are
    /// not part of the script (the first goes out as serving starts).
    fn recv_ctl(&mut self, step: &str) -> Msg {
        loop {
            match Self::recv(&mut self.ctl_rx, step) {
                Msg::Heartbeat(_) => {}
                msg => return msg,
            }
        }
    }

    fn recv_data(&mut self, step: &str) -> Msg {
        Self::recv(&mut self.data_rx, step)
    }

    fn send_ctl(&mut self, msg: &Msg) {
        self.ctl_tx.send_frame(&msg.encode().unwrap()).unwrap();
    }

    /// Manifest out, the worker's manifest ack back.
    fn admit(&mut self) {
        self.admit_with(&spec(1));
    }

    /// [`Self::admit`] under `spec`.
    fn admit_with(&mut self, spec: &NetPipelineSpec) {
        self.send_ctl(&Msg::Manifest(ShardManifest {
            heartbeat_interval: QUIET,
            ..spec.manifest_for(0, None)
        }));
        assert_eq!(
            self.recv_ctl("manifest ack"),
            Msg::ManifestAck(ManifestAck {
                stage: 0,
                weight_hash: stage_weight_hash(0..4),
            })
        );
    }
}

#[test]
fn checkpoint_barrier_during_the_handshake_is_deferred_not_fatal() {
    // A replacement incarnation is admitted while the deployment around
    // it keeps serving, so a barrier broadcast can land between its
    // Manifest and its Start. It must reach serve and answer there.
    let mut peer = Scripted::start();
    peer.admit();
    peer.send_ctl(&Msg::CheckpointReq(CheckpointReq {
        barrier: 1,
        prefix: 0,
    }));
    peer.send_ctl(&Msg::Start);
    let Msg::CheckpointSave(save) = peer.recv_ctl("checkpoint save") else {
        panic!("the deferred barrier must be answered once serving");
    };
    assert_eq!((save.stage, save.barrier), (0, 1));
    let state = open_checkpoint(SEED, 0, 1, &save.sealed).expect("own checkpoint opens");
    assert_eq!(state.barrier, 1);
    peer.send_ctl(&Msg::Shutdown);
    peer.worker.join().unwrap().expect("clean exit");
}

#[test]
fn single_stage_worker_serves_a_scripted_orchestrator() {
    let mut peer = Scripted::start();
    peer.admit();
    peer.send_ctl(&Msg::Start);

    // Host side of the stage-0 host edge: seal the input, open the
    // worker's reply, check it equals apply_stage of the input.
    let edge = WireEdge::between(0, HOST_NODE);
    let mut host = EdgeCrypto::new(SEED, edge, Role::ChannelHost);
    let input = iteration_input(SEED, 0, 0, LEN);
    let frame = sealed_input(&mut host, 0).encode().unwrap();
    peer.data_tx.send_frame(&frame).unwrap();

    assert_eq!(
        peer.recv_ctl("data ack"),
        Msg::AckData(DataAck {
            src: HOST_NODE,
            dst: 0,
            seq: 0
        })
    );
    let Msg::Data(mut reply) = peer.recv_data("stage reply") else {
        panic!("expected the worker's output frame");
    };
    assert_eq!((reply.src, reply.dst), (0, HOST_NODE));
    let out = match open_data(&mut host, &mut reply) {
        RxOutcome::Plain(bytes) => bytes,
        other => panic!("expected plaintext, got {other:?}"),
    };
    let mut expected = input;
    apply_stage(0..4, &mut expected);
    assert_eq!(out, expected, "stage output must match apply_stage");
    peer.send_ctl(&Msg::AckData(DataAck {
        src: 0,
        dst: HOST_NODE,
        seq: reply.seq,
    }));

    // Close ingress. A Fin that does not match the worker's receive
    // counter is refused without a word; the one that does is acked.
    let fin = Fin {
        src: HOST_NODE,
        dst: 0,
        epoch: host.epoch(),
        tx_iv: host.tx_iv(),
    };
    let early = Fin {
        tx_iv: fin.tx_iv - 1,
        ..fin
    };
    for f in [early, fin] {
        peer.data_tx
            .send_frame(&Msg::Fin(f).encode().unwrap())
            .unwrap();
    }
    assert_eq!(peer.recv_ctl("fin ack"), Msg::FinAck(fin));
    // Its one output acked, the worker closes its out edge at its own
    // counters; the ack of that lets it report.
    let out_fin = Fin {
        src: 0,
        dst: HOST_NODE,
        epoch: host.epoch(),
        tx_iv: host.rx_iv(),
    };
    assert_eq!(peer.recv_data("out-edge fin"), Msg::Fin(out_fin));
    peer.send_ctl(&Msg::FinAck(out_fin));
    let Msg::Done(report) = peer.recv_ctl("done report") else {
        panic!("expected the worker's counter report");
    };
    assert_eq!(report.stage, 0);
    assert_eq!(report.sentinels, 0);
    assert_eq!(report.edges.len(), 1);
    // One frame each way on the single host edge.
    assert_eq!(report.edges[0].tx_iv, 2);
    assert_eq!(report.edges[0].rx_iv, 2);
    peer.send_ctl(&Msg::Shutdown);

    let worker_report = peer.worker.join().unwrap().unwrap();
    assert_eq!(worker_report, report);
}

#[test]
fn frames_deferred_by_the_handshake_take_the_worker_fault_roll() {
    // A plan whose first worker fault is a hang on fresh frame `j`, as
    // the spec predicts it. A hang (not a kill) keeps what the worker sent
    // before it on the wire while it sleeps.
    let (spec, j) = (0u64..)
        .find_map(|chaos_seed| {
            let spec = NetPipelineSpec {
                chaos_seed,
                worker_fault_rate: 0.3,
                ..spec(8)
            };
            let injector = spec.injector_for(0)?;
            let (j, fault) = (0u64..4).find_map(|i| injector.roll_worker().map(|f| (i, f)))?;
            (j > 0 && fault.kind == FaultKind::StageHang).then_some((spec, j))
        })
        .unwrap();
    let k = j + 2;

    // Frames 0..k reach the worker before its manifest, so every one of
    // them is deferred by the handshake.
    let mut peer = Scripted::start();
    let mut host = EdgeCrypto::new(SEED, WireEdge::between(0, HOST_NODE), Role::ChannelHost);
    for micro_batch in 0..k as u32 {
        let frame = sealed_input(&mut host, micro_batch).encode().unwrap();
        peer.data_tx.send_frame(&frame).unwrap();
    }
    std::thread::sleep(Duration::from_millis(100));
    peer.admit_with(&spec);
    peer.send_ctl(&Msg::Start);

    // The worker acks each frame it takes, and frame j hangs it: it acks
    // 0..j, wedges, then drops its links.
    let mut acked = Vec::new();
    loop {
        match peer.ctl_rx.recv_frame(Duration::from_secs(30)) {
            Ok(frame) => match Msg::decode(&frame).unwrap() {
                Msg::AckData(ack) => acked.push(ack.seq),
                Msg::Heartbeat(_) => {}
                other => panic!("unexpected {other:?}"),
            },
            Err(NetError::ConnectionLost { .. }) => break,
            Err(e) => panic!("the worker must die on frame {j}; it acked {acked:?}: {e}"),
        }
    }
    assert_eq!(acked, (0..j).collect::<Vec<_>>(), "dies on frame {j}");
    let err = peer.worker.join().unwrap().unwrap_err();
    assert!(
        err.to_string().contains("injected worker stage_hang"),
        "{err}"
    );
}
