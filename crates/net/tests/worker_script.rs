//! A stage worker driven through its public entry point by a hand-scripted
//! orchestrator: the full lifecycle of one micro-batch (greetings,
//! handshake, sealed input, ack, sealed output, `Finish`, counter report,
//! `Shutdown`), and a checkpoint barrier that lands mid-handshake.

use pipellm::partition::{apply_stage, iteration_input, stage_weight_hash};
use pipellm_net::checkpoint::open_checkpoint;
use pipellm_net::link::{open_data, EdgeCrypto, Role, RxOutcome, WireEdge};
use pipellm_net::proto::{
    CheckpointReq, CounterReport, DataAck, DataFrame, Hello, ManifestAck, Msg, ShardManifest,
    Welcome, HOST_NODE,
};
use pipellm_net::transport::{duplex_pair, FrameReceiver, FrameSender, Transport};
use pipellm_net::{run_worker, NetResult, WorkerConfig, WorkerLinks};
use std::time::Duration;

const SEED: u64 = 0x77;
const LEN: usize = 64;

/// The orchestrator's end of a one-stage deployment, driven by hand.
struct Scripted {
    worker: std::thread::JoinHandle<NetResult<CounterReport>>,
    ctl_tx: Box<dyn FrameSender>,
    ctl_rx: Box<dyn FrameReceiver>,
    data_tx: Box<dyn FrameSender>,
    data_rx: Box<dyn FrameReceiver>,
}

impl Scripted {
    /// Starts a stage-0 worker on duplex links and takes its greetings.
    fn start() -> Self {
        let (ctl_orch, ctl_worker, _) = duplex_pair("ctl");
        let (data_orch, data_worker, _) = duplex_pair("data");
        let worker = std::thread::spawn(move || {
            let mut config = WorkerConfig::new(0);
            // The scripted peer acks at its own pace; a sweep retransmit
            // would skew the exact IV counters these tests assert, and an
            // interleaved heartbeat would break the exact control script.
            config.resend_after = Duration::from_secs(120);
            config.heartbeat = None;
            run_worker(
                WorkerLinks {
                    control: Box::new(ctl_worker),
                    data: Box::new(data_worker),
                    data_reattach: None,
                },
                config,
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

    fn recv_ctl(&mut self, step: &str) -> Msg {
        Self::recv(&mut self.ctl_rx, step)
    }

    fn recv_data(&mut self, step: &str) -> Msg {
        Self::recv(&mut self.data_rx, step)
    }

    fn send_ctl(&mut self, msg: &Msg) {
        self.ctl_tx.send_frame(&msg.encode().unwrap()).unwrap();
    }

    /// Welcome and manifest out, the worker's manifest ack back.
    fn admit(&mut self) {
        self.send_ctl(&Msg::Welcome(Welcome { stages: 1 }));
        self.send_ctl(&Msg::Manifest(ShardManifest {
            stage: 0,
            stages: 1,
            layers: 4,
            layer_start: 0,
            layer_end: 4,
            weight_hash: stage_weight_hash(0..4),
            activation_bytes: LEN as u64,
            micro_batches: 1,
            iterations: 1,
            cluster_seed: SEED,
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
    let aad = DataFrame::bind_aad(HOST_NODE, 0, 0, 0, 0, LEN as u64);
    let sealed = host.seal(&aad, &input).unwrap();
    peer.data_tx
        .send_frame(
            &Msg::Data(DataFrame {
                src: HOST_NODE,
                dst: 0,
                seq: 0,
                epoch: 0,
                iteration: 0,
                micro_batch: 0,
                sealed: sealed.bytes,
            })
            .encode()
            .unwrap(),
        )
        .unwrap();

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

    peer.send_ctl(&Msg::Finish);
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
