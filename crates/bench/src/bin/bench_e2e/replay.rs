//! The sequential floor of a `net_*` workload: one harness thread pushes
//! micro-batches through the same public calls the deployment's threads
//! make, one after another, with a span around each call.
//!
//! Per micro-batch and for every hop (host → stage 0, stage s → host →
//! stage s+1 with both relay legs, last stage → host) that is: generate the
//! input, seal on the sender's edge state, encode the data frame, cross a
//! loopback TCP connection, decode, open on the receiver's edge state, run
//! the stage's layers. The bytes that come out must equal the reference
//! outputs. Summed per layer, the spans are what the work costs with no
//! concurrency, hand-off, polling or bookkeeping — the floor the ledger
//! sets the concurrent pipeline's measured cost against.

use crate::run::digest;
use crate::sut::{
    apply_stage, iteration_input, role_at, DataFrame, EdgeCrypto, FrameReceiver, FrameSender, Msg,
    NetPipelineSpec, StagePartition, TcpTransport, Transport, WireEdge, HOST_NODE,
};
use crate::trace::Recorder;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A frame that does not cross the loopback in this long is lost.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);

type Halves = (Box<dyn FrameSender>, Box<dyn FrameReceiver>);

/// A connected loopback pair, split: `(dialing side, accepting side)`.
fn loopback_pair() -> Result<(Halves, Halves), String> {
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    let dialed = TcpTransport::connect(addr, "tcp-replay-a").map_err(|e| e.to_string())?;
    let (stream, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
    let accepted = TcpTransport::new(stream, "tcp-replay-b");
    let split = |t: TcpTransport| Box::new(t).split().map_err(|e| e.to_string());
    Ok((split(dialed)?, split(accepted)?))
}

/// One direction of a loopback TCP connection: frames sent here come back
/// through a reader thread, because a frame larger than the socket buffers
/// cannot be written and read by the same thread.
struct Loopback {
    tx: Box<dyn FrameSender>,
    /// Unused half of the dialing side; dropping it with `tx` closes the
    /// connection, which ends the reader.
    _rx: Box<dyn FrameReceiver>,
    frames: mpsc::Receiver<Vec<u8>>,
    reader: JoinHandle<()>,
}

impl Loopback {
    fn open() -> Result<Loopback, String> {
        let ((tx, rx), (far_tx, mut far_rx)) = loopback_pair()?;
        let (frames_tx, frames) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let _keep_open = far_tx;
            while let Ok(frame) = far_rx.recv_frame(SOCKET_TIMEOUT) {
                if frames_tx.send(frame).is_err() {
                    break;
                }
            }
        });
        Ok(Loopback {
            tx,
            _rx: rx,
            frames,
            reader,
        })
    }

    /// Sends `frame` and waits for it on the far side.
    fn cross(&mut self, frame: &[u8]) -> Result<Vec<u8>, String> {
        self.tx.send_frame(frame).map_err(|e| e.to_string())?;
        self.frames
            .recv_timeout(SOCKET_TIMEOUT)
            .map_err(|e| format!("loopback frame lost: {e}"))
    }

    fn close(self) {
        let Loopback {
            tx, _rx, reader, ..
        } = self;
        drop((tx, _rx));
        // The reader only relays frames; a panic there already surfaced as
        // a lost frame.
        let _ = reader.join();
    }
}

/// Every edge endpoint the replay plays, keyed by `(edge, node)`.
struct Edges {
    seed: u64,
    states: BTreeMap<(WireEdge, u32), EdgeCrypto>,
}

impl Edges {
    fn at(&mut self, edge: WireEdge, node: u32) -> &mut EdgeCrypto {
        let seed = self.seed;
        self.states
            .entry((edge, node))
            .or_insert_with(|| EdgeCrypto::new(seed, edge, role_at(edge, node)))
    }
}

struct Replay<'a> {
    rec: &'a mut Recorder,
    edges: Edges,
    wire: Loopback,
}

impl Replay<'_> {
    /// One socket traversal plus the decode the receiving pump does.
    fn deliver(&mut self, mb: u64, encoded: &[u8]) -> Result<DataFrame, String> {
        let span = self.rec.begin("transport", "socket", mb);
        let received = self.wire.cross(encoded);
        self.rec.end(span);
        let span = self.rec.begin("proto", "decode", mb);
        let decoded = Msg::decode(&received?);
        self.rec.end(span);
        match decoded {
            Ok(Msg::Data(frame)) => Ok(frame),
            Ok(other) => Err(format!("replay decoded {other:?}")),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Carries `plain` from `src` to `dst` the way the deployment does.
    fn hop(&mut self, mb: u32, src: u32, dst: u32, plain: &[u8]) -> Result<Vec<u8>, String> {
        let id = u64::from(mb);
        let edge = WireEdge::between(src, dst);

        let span = self.rec.begin("link", "seal", id);
        let sender = self.edges.at(edge, src);
        let epoch = sender.epoch();
        let aad = DataFrame::bind_aad(src, dst, epoch, 0, mb, plain.len() as u64);
        let sealed = sender.seal(&aad, plain);
        self.rec.end(span);
        let frame = DataFrame {
            src,
            dst,
            seq: u64::from(mb),
            epoch,
            iteration: 0,
            micro_batch: mb,
            sealed: sealed.map_err(|e| e.to_string())?.bytes,
        };

        let span = self.rec.begin("proto", "encode", id);
        let encoded = Msg::Data(frame).encode();
        self.rec.end(span);
        let mut frame = self.deliver(id, &encoded.map_err(|e| e.to_string())?)?;

        if src != HOST_NODE && dst != HOST_NODE {
            // Worker-to-worker frames bounce off the orchestrator, which
            // re-encodes a copy of the frame it decoded: the second leg.
            let span = self.rec.begin("proto", "encode", id);
            let relayed = Msg::Data(frame.clone()).encode();
            self.rec.end(span);
            frame = self.deliver(id, &relayed.map_err(|e| e.to_string())?)?;
        }

        let span = self.rec.begin("link", "open", id);
        let aad = DataFrame::bind_aad(
            frame.src,
            frame.dst,
            frame.epoch,
            frame.iteration,
            frame.micro_batch,
            frame.sealed.len().saturating_sub(16) as u64,
        );
        let (bytes, authentic) = self
            .edges
            .at(edge, dst)
            .open_or_sentinel(&aad, frame.sealed);
        self.rec.end(span);
        if authentic {
            Ok(bytes)
        } else {
            Err(format!(
                "micro-batch {mb}: hop {src}->{dst} failed to authenticate"
            ))
        }
    }

    fn micro_batch(&mut self, spec: &NetPipelineSpec, mb: u32) -> Result<Vec<u8>, String> {
        let id = u64::from(mb);
        let partition = StagePartition::balanced(spec.layers, spec.stages as usize);
        let span = self.rec.begin("partition", "input_gen", id);
        let input = iteration_input(spec.seed, 0, mb as usize, spec.activation_bytes);
        self.rec.end(span);
        let mut bytes = self.hop(mb, HOST_NODE, 0, &input)?;
        for stage in 0..spec.stages {
            let span = self.rec.begin("partition", "apply_stage", id);
            apply_stage(partition.layers_of(stage as usize), &mut bytes);
            self.rec.end(span);
            let next = if stage + 1 < spec.stages {
                stage + 1
            } else {
                HOST_NODE
            };
            bytes = self.hop(mb, stage, next, &bytes)?;
        }
        Ok(bytes)
    }
}

/// Replays the first `expected.len()` micro-batches of `spec`, recording
/// spans into `rec`. Returns how many came out with the wrong bytes.
///
/// # Errors
///
/// Socket set-up failures, or the first hop that loses or rejects a frame.
pub fn replay(spec: &NetPipelineSpec, expected: &[u64], rec: &mut Recorder) -> Result<u64, String> {
    let mut replay = Replay {
        rec,
        edges: Edges {
            seed: spec.seed,
            states: BTreeMap::new(),
        },
        wire: Loopback::open()?,
    };
    let mut wrong = 0;
    let mut outcome = Ok(());
    for (mb, want) in expected.iter().enumerate() {
        let span = replay.rec.begin("replay", "micro_batch", mb as u64);
        let output = replay.micro_batch(spec, mb as u32);
        replay.rec.end(span);
        match output {
            Ok(bytes) if digest(&bytes) == *want => {}
            Ok(_) => wrong += 1,
            Err(e) => {
                outcome = Err(e);
                break;
            }
        }
    }
    replay.wire.close();
    outcome.map(|()| wrong)
}

/// A valid data frame whose sealed field is `len` zero bytes.
fn probe_frame(len: usize) -> Result<Vec<u8>, String> {
    Msg::Data(DataFrame {
        src: 0,
        dst: 1,
        seq: 0,
        epoch: 0,
        iteration: 0,
        micro_batch: 0,
        sealed: vec![0; len],
    })
    .encode()
    .map_err(|e| e.to_string())
}

/// Streams `count` frames carrying `len` bytes one way over loopback TCP and
/// returns the gap (µs) between consecutive arrivals: what one more frame
/// costs a connection that is kept busy.
pub fn probe_stream_us(len: usize, count: usize) -> Result<Vec<f64>, String> {
    let frame = probe_frame(len)?;
    let ((mut tx, _rx), (far_tx, mut far_rx)) = loopback_pair()?;
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            (0..count).try_for_each(|_| tx.send_frame(&frame).map_err(|e| e.to_string()))
        });
        let mut gaps = Vec::with_capacity(count);
        let mut last = Instant::now();
        let mut received = Ok(());
        for _ in 0..count {
            if let Err(e) = far_rx.recv_frame(SOCKET_TIMEOUT) {
                received = Err(e.to_string());
                break;
            }
            let now = Instant::now();
            gaps.push((now - last).as_secs_f64() * 1e6);
            last = now;
        }
        // On a receive error the sender may be blocked on a full socket;
        // closing the far side unblocks it.
        drop((far_tx, far_rx));
        let sent = sender
            .join()
            .unwrap_or(Err("stream sender panicked".to_string()));
        received.and(sent).map(|()| gaps)
    })
}

/// Round-trip times (µs) of a 64-byte frame bounced off an echo thread.
pub fn probe_rtt_us(count: usize) -> Result<Vec<f64>, String> {
    let frame = probe_frame(64)?;
    let ((mut tx, mut rx), (mut far_tx, mut far_rx)) = loopback_pair()?;
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || {
            while let Ok(frame) = far_rx.recv_frame(SOCKET_TIMEOUT) {
                if far_tx.send_frame(&frame).is_err() {
                    break;
                }
            }
        });
        let result = (0..count)
            .map(|_| {
                let start = Instant::now();
                tx.send_frame(&frame).map_err(|e| e.to_string())?;
                rx.recv_frame(SOCKET_TIMEOUT).map_err(|e| e.to_string())?;
                Ok(start.elapsed().as_secs_f64() * 1e6)
            })
            .collect::<Result<Vec<f64>, String>>();
        // Closing this side ends the echo thread's receive loop.
        drop((tx, rx));
        let _ = echo.join();
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net_run::expected_digests;
    use crate::workload::{net_spec, Kind, Params, Scale};

    fn smoke_spec(kind: Kind) -> NetPipelineSpec {
        let Params::Net(p) = kind.params(Scale::Smoke) else {
            panic!("{kind:?} is a net workload")
        };
        net_spec(&p, p.micro_batches, 11)
    }

    #[test]
    fn replay_is_bit_exact_and_spans_every_layer_call() {
        let spec = smoke_spec(Kind::NetSmall);
        let expected = expected_digests(&spec);
        let mut rec = Recorder::new(true);
        assert_eq!(replay(&spec, &expected, &mut rec), Ok(0));
        let n = expected.len();
        let spans = rec.families();
        // 2 stages: 3 hops, 4 socket legs (the middle hop is relayed).
        assert_eq!(spans["link.seal"].len(), 3 * n);
        assert_eq!(spans["link.open"].len(), 3 * n);
        assert_eq!(spans["proto.encode"].len(), 4 * n);
        assert_eq!(spans["proto.decode"].len(), 4 * n);
        assert_eq!(spans["transport.socket"].len(), 4 * n);
        assert_eq!(spans["partition.apply_stage"].len(), 2 * n);
        assert_eq!(spans["partition.input_gen"].len(), n);
        assert_eq!(spans["replay.micro_batch"].len(), n);
    }

    #[test]
    fn replay_counts_a_wrong_reference_as_a_failure() {
        let spec = smoke_spec(Kind::NetSmall);
        let mut expected = expected_digests(&spec);
        expected[3] ^= 1;
        let mut rec = Recorder::new(true);
        assert_eq!(replay(&spec, &expected, &mut rec), Ok(1));
    }

    #[test]
    fn replay_carries_frames_larger_than_the_socket_buffers() {
        let mut spec = smoke_spec(Kind::NetLarge);
        spec.activation_bytes = 8 << 20;
        spec.micro_batches = 1;
        let expected = expected_digests(&spec);
        assert_eq!(replay(&spec, &expected, &mut Recorder::new(true)), Ok(0));
    }

    #[test]
    fn transport_probes_return_one_sample_per_frame() {
        let gaps = probe_stream_us(16 << 10, 50).unwrap();
        assert_eq!(gaps.len(), 50);
        assert!(gaps.iter().all(|g| *g >= 0.0));
        let rtts = probe_rtt_us(50).unwrap();
        assert_eq!(rtts.len(), 50);
        assert!(rtts.iter().all(|r| *r > 0.0));
    }
}
