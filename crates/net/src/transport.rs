//! The byte-stream abstraction the orchestrator and workers are written
//! against, with two interchangeable backends.
//!
//! - [`TcpTransport`]: a real `std::net::TcpStream`. Framing rides the
//!   stream's native byte order; the receiver half keeps partial frames
//!   across timeouts so a slow sender never desynchronizes the parse.
//! - [`duplex_pair`]: an in-process pair over a mutex/condvar queue, so
//!   every test is hermetic. The pair models connection loss faithfully:
//!   [`DuplexCore::kill`] makes both halves fail like a reset socket, and
//!   a *generation counter* models re-dialing — a reattached handle only
//!   sees traffic of its own generation.
//!
//! A transport [`Transport::split`]s into independent send/receive halves
//! so a pump thread can block on reads while the main loop writes.
//! [`Reattach`] abstracts how a dead link comes back: the worker side
//! re-dials (TCP) or resets the pair (duplex); the orchestrator side waits
//! for the acceptor thread to route a fresh connection (TCP) or for the
//! generation to advance (duplex).

use crate::error::{NetError, NetResult};
use crate::frame::{HEADER_LEN, MAGIC, MAX_FRAME_LEN};
use crate::proto::{Msg, PROTO_VERSION};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The sending half of a split transport.
pub trait FrameSender: Send {
    /// Writes one complete frame (header included) to the wire.
    fn send_frame(&mut self, frame: &[u8]) -> NetResult<()>;

    /// Forcibly kills the underlying connection, as an injected
    /// [`pipellm_chaos::FaultKind::ConnectionDrop`] demands: both halves
    /// (and the peer) must observe the loss.
    fn kill(&mut self);
}

/// The receiving half of a split transport.
pub trait FrameReceiver: Send {
    /// Blocks up to `timeout` for one complete frame.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] if no complete frame arrived in time (partial
    /// bytes are retained for the next call); [`NetError::ConnectionLost`]
    /// when the peer is gone; framing errors for garbage on the wire.
    fn recv_frame(&mut self, timeout: Duration) -> NetResult<Vec<u8>>;
}

/// A connected, not-yet-split byte stream.
pub trait Transport: Send {
    /// Splits into independent halves; the main loop keeps the sender, a
    /// pump thread owns the receiver.
    fn split(self: Box<Self>) -> NetResult<(Box<dyn FrameSender>, Box<dyn FrameReceiver>)>;

    /// Human-readable link name for diagnostics ("tcp worker2-data", ...).
    fn label(&self) -> String;
}

/// How a dead link comes back. One provider exists per data link, held by
/// that link's pump thread.
pub trait Reattach: Send {
    /// Blocks up to `timeout` for a replacement transport.
    fn reattach(&mut self, timeout: Duration) -> NetResult<Box<dyn Transport>>;
}

// ---------------------------------------------------------------------
// TCP backend
// ---------------------------------------------------------------------

/// A real TCP connection.
pub struct TcpTransport {
    pub(crate) stream: TcpStream,
    label: String,
}

impl TcpTransport {
    /// Wraps an accepted or connected stream.
    pub fn new(stream: TcpStream, label: impl Into<String>) -> Self {
        let _ = stream.set_nodelay(true);
        TcpTransport {
            stream,
            label: label.into(),
        }
    }

    /// Dials `addr`.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the connect fails.
    pub fn connect(addr: SocketAddr, label: impl Into<String>) -> NetResult<Self> {
        let stream = TcpStream::connect(addr).map_err(|e| NetError::io("connect", &e))?;
        // A loopback dial can be assigned the destination port itself as
        // its source port (TCP simultaneous open), yielding a socket
        // connected to itself whose frames echo straight back. Reject it
        // so the caller's retry loop dials again.
        if stream.local_addr().ok() == stream.peer_addr().ok() {
            return Err(NetError::io(
                "connect",
                &std::io::Error::new(std::io::ErrorKind::ConnectionReset, "self-connected socket"),
            ));
        }
        Ok(TcpTransport::new(stream, label))
    }
}

impl Transport for TcpTransport {
    fn split(self: Box<Self>) -> NetResult<(Box<dyn FrameSender>, Box<dyn FrameReceiver>)> {
        let read_half = self
            .stream
            .try_clone()
            .map_err(|e| NetError::io("try_clone", &e))?;
        Ok((
            Box::new(TcpSender {
                stream: self.stream,
                label: self.label.clone(),
            }),
            Box::new(TcpReceiver {
                stream: read_half,
                label: self.label,
                pending: Vec::new(),
                read_timeout: None,
            }),
        ))
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

struct TcpSender {
    stream: TcpStream,
    label: String,
}

impl FrameSender for TcpSender {
    fn send_frame(&mut self, frame: &[u8]) -> NetResult<()> {
        self.stream.write_all(frame).map_err(|e| match e.kind() {
            std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe => NetError::ConnectionLost {
                link: self.label.clone(),
            },
            _ => NetError::io("send_frame", &e),
        })
    }

    fn kill(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

struct TcpReceiver {
    stream: TcpStream,
    label: String,
    /// Partial frame bytes carried across timed-out reads.
    pending: Vec<u8>,
    /// The read timeout this receiver last set on the socket; `None`
    /// until its first `recv_frame`.
    read_timeout: Option<Duration>,
}

impl TcpReceiver {
    /// If `pending` holds a complete, valid frame, drains and returns it.
    /// Returns a framing error for garbage, `Ok(None)` for "need more".
    fn try_parse(&mut self) -> NetResult<Option<Vec<u8>>> {
        if self.pending.len() < HEADER_LEN {
            return Ok(None);
        }
        let magic = u16::from_le_bytes([self.pending[0], self.pending[1]]);
        if magic != MAGIC {
            return Err(NetError::BadMagic { got: magic });
        }
        let version = self.pending[2];
        if version != PROTO_VERSION {
            return Err(NetError::VersionSkew {
                got: version,
                want: PROTO_VERSION,
            });
        }
        let len = u32::from_le_bytes([
            self.pending[4],
            self.pending[5],
            self.pending[6],
            self.pending[7],
        ]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(NetError::Oversize {
                len,
                max: MAX_FRAME_LEN,
            });
        }
        let total = HEADER_LEN + len;
        if self.pending.len() < total {
            return Ok(None);
        }
        let rest = self.pending.split_off(total);
        let frame = std::mem::replace(&mut self.pending, rest);
        Ok(Some(frame))
    }
}

impl FrameReceiver for TcpReceiver {
    /// Waits up to `timeout` for a frame to complete. Each socket read
    /// blocks for at most `timeout`, so a call whose last read began just
    /// before the deadline returns within twice that — the deadline is a
    /// poll granularity, not a hard bound. A pump passes the same value
    /// on every call, so the socket option is set once per connection.
    fn recv_frame(&mut self, timeout: Duration) -> NetResult<Vec<u8>> {
        let deadline = Instant::now() + timeout;
        // A zero read timeout is rejected by the OS; such a call only
        // drains what is already buffered in `pending`.
        if self.read_timeout != Some(timeout) && !timeout.is_zero() {
            self.stream
                .set_read_timeout(Some(timeout))
                .map_err(|e| NetError::io("set_read_timeout", &e))?;
            self.read_timeout = Some(timeout);
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(frame) = self.try_parse()? {
                return Ok(frame);
            }
            if Instant::now() >= deadline {
                return Err(NetError::Timeout {
                    op: "recv_frame",
                    waited: timeout,
                });
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(NetError::ConnectionLost {
                        link: self.label.clone(),
                    })
                }
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut
                        || e.kind() == std::io::ErrorKind::Interrupted =>
                {
                    continue;
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::ConnectionReset
                        || e.kind() == std::io::ErrorKind::ConnectionAborted
                        || e.kind() == std::io::ErrorKind::BrokenPipe =>
                {
                    return Err(NetError::ConnectionLost {
                        link: self.label.clone(),
                    })
                }
                Err(e) => return Err(NetError::io("recv_frame", &e)),
            }
        }
    }
}

/// Worker-side reattach: re-dial the orchestrator and re-identify the data
/// channel with a `DataHello`.
///
/// The provider is pinned to one worker incarnation: every re-dial
/// identifies with that incarnation's admission generation, so a redial
/// that races a supervisor failover presents a stale generation and is
/// rejected at identification instead of hijacking the replacement's slot.
pub struct TcpDial {
    addr: SocketAddr,
    stage: u32,
    generation: u32,
    label: String,
}

impl TcpDial {
    /// A provider that dials `addr` and identifies as `stage`'s data link
    /// at admission generation `generation`.
    pub fn new(addr: SocketAddr, stage: u32, generation: u32, label: impl Into<String>) -> Self {
        TcpDial {
            addr,
            stage,
            generation,
            label: label.into(),
        }
    }
}

impl Reattach for TcpDial {
    /// One dial: a failed connect returns at once, and the pump's bounded
    /// retry loop — which a stopping pump leaves — paces the next, so a
    /// worker outliving its orchestrator's listener exits promptly.
    fn reattach(&mut self, _timeout: Duration) -> NetResult<Box<dyn Transport>> {
        let mut t = TcpTransport::connect(self.addr, self.label.clone())?;
        let hello = Msg::DataHello {
            stage: self.stage,
            generation: self.generation,
        }
        .encode()?;
        t.stream
            .write_all(&hello)
            .map_err(|e| NetError::io("data_hello", &e))?;
        Ok(Box::new(t))
    }
}

/// Orchestrator-side reattach: the acceptor thread routes re-dialed data
/// connections (identified by their `DataHello`) into a per-stage queue;
/// this provider just waits on it.
pub struct TcpAcceptSlot {
    rx: mpsc::Receiver<TcpTransport>,
}

impl TcpAcceptSlot {
    /// A provider fed by the acceptor thread through `rx`.
    pub fn new(rx: mpsc::Receiver<TcpTransport>) -> Self {
        TcpAcceptSlot { rx }
    }
}

impl Reattach for TcpAcceptSlot {
    fn reattach(&mut self, timeout: Duration) -> NetResult<Box<dyn Transport>> {
        match self.rx.recv_timeout(timeout) {
            Ok(t) => Ok(Box::new(t)),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(NetError::Timeout {
                op: "accept_reattach",
                waited: timeout,
            }),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(NetError::ConnectionLost {
                link: "acceptor".to_string(),
            }),
        }
    }
}

// ---------------------------------------------------------------------
// In-process duplex backend
// ---------------------------------------------------------------------

/// Shared state of one duplex link: two frame queues (one per direction),
/// an alive flag, and a generation counter that advances on every
/// "re-dial" so stale handles fail like closed sockets.
pub struct DuplexCore {
    state: Mutex<DuplexState>,
    cv: Condvar,
}

struct DuplexState {
    queues: [VecDeque<Vec<u8>>; 2],
    alive: bool,
    generation: u64,
}

impl DuplexCore {
    fn new() -> Arc<Self> {
        Arc::new(DuplexCore {
            state: Mutex::new(DuplexState {
                queues: [VecDeque::new(), VecDeque::new()],
                alive: true,
                generation: 0,
            }),
            cv: Condvar::new(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DuplexState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Kills the link: queued frames are lost, every half errors with
    /// [`NetError::ConnectionLost`] — the injected-connection-drop
    /// analogue of a TCP reset.
    pub fn kill(&self) {
        let mut s = self.lock();
        s.alive = false;
        s.queues[0].clear();
        s.queues[1].clear();
        drop(s);
        self.cv.notify_all();
    }

    /// Kills the link only if it is still at `generation` — the kill a
    /// split half performs. A half whose generation was superseded by a
    /// reset (a supervisor already admitted a replacement over this core)
    /// must not be able to tear down the replacement's live link.
    fn kill_generation(&self, generation: u64) {
        let mut s = self.lock();
        if s.generation != generation {
            return;
        }
        s.alive = false;
        s.queues[0].clear();
        s.queues[1].clear();
        drop(s);
        self.cv.notify_all();
    }

    /// Re-establishes the link at the next generation: fresh queues, old
    /// handles stay dead (their generation no longer matches).
    pub fn reset(&self) -> u64 {
        let mut s = self.lock();
        s.alive = true;
        s.generation += 1;
        s.queues[0].clear();
        s.queues[1].clear();
        let generation = s.generation;
        drop(s);
        self.cv.notify_all();
        generation
    }

    /// Blocks until the generation advances past `seen` (a peer reset the
    /// link) or `timeout` expires.
    fn wait_past(&self, seen: u64, timeout: Duration) -> NetResult<u64> {
        let deadline = Instant::now() + timeout;
        let mut s = self.lock();
        loop {
            if s.alive && s.generation > seen {
                return Ok(s.generation);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Timeout {
                    op: "duplex_reattach",
                    waited: timeout,
                });
            }
            let (guard, _) =
                self.cv
                    .wait_timeout(s, deadline - now)
                    .map_err(|_| NetError::ConnectionLost {
                        link: "duplex (poisoned)".to_string(),
                    })?;
            s = guard;
        }
    }
}

/// One end of an in-process duplex link.
pub struct DuplexTransport {
    core: Arc<DuplexCore>,
    /// 0 or 1; a side sends into `queues[side]`, receives from the other.
    side: usize,
    generation: u64,
    label: String,
}

/// Builds a connected duplex pair plus the shared core (used by reattach
/// providers and by chaos to kill the link).
pub fn duplex_pair(label: &str) -> (DuplexTransport, DuplexTransport, Arc<DuplexCore>) {
    let core = DuplexCore::new();
    let a = DuplexTransport {
        core: Arc::clone(&core),
        side: 0,
        generation: 0,
        label: format!("{label}-a"),
    };
    let b = DuplexTransport {
        core: Arc::clone(&core),
        side: 1,
        generation: 0,
        label: format!("{label}-b"),
    };
    (a, b, core)
}

/// A fresh handle for `side` at the core's current generation — what a
/// reattach returns after a [`DuplexCore::reset`].
pub fn duplex_handle(
    core: &Arc<DuplexCore>,
    side: usize,
    label: impl Into<String>,
) -> DuplexTransport {
    let generation = core.lock().generation;
    DuplexTransport {
        core: Arc::clone(core),
        side: side & 1,
        generation,
        label: label.into(),
    }
}

impl Transport for DuplexTransport {
    fn split(self: Box<Self>) -> NetResult<(Box<dyn FrameSender>, Box<dyn FrameReceiver>)> {
        let sender = DuplexHalf {
            core: Arc::clone(&self.core),
            side: self.side,
            generation: self.generation,
            label: self.label.clone(),
        };
        let receiver = DuplexHalf {
            core: self.core,
            side: self.side,
            generation: self.generation,
            label: self.label,
        };
        Ok((Box::new(sender), Box::new(receiver)))
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

struct DuplexHalf {
    core: Arc<DuplexCore>,
    side: usize,
    generation: u64,
    label: String,
}

impl DuplexHalf {
    fn lost(&self) -> NetError {
        NetError::ConnectionLost {
            link: self.label.clone(),
        }
    }
}

impl FrameSender for DuplexHalf {
    fn send_frame(&mut self, frame: &[u8]) -> NetResult<()> {
        let mut s = self.core.lock();
        if !s.alive || s.generation != self.generation {
            return Err(self.lost());
        }
        s.queues[self.side].push_back(frame.to_vec());
        drop(s);
        self.core.cv.notify_all();
        Ok(())
    }

    fn kill(&mut self) {
        self.core.kill_generation(self.generation);
    }
}

impl FrameReceiver for DuplexHalf {
    fn recv_frame(&mut self, timeout: Duration) -> NetResult<Vec<u8>> {
        let deadline = Instant::now() + timeout;
        let mut s = self.core.lock();
        loop {
            if !s.alive || s.generation != self.generation {
                return Err(self.lost());
            }
            if let Some(frame) = s.queues[1 - self.side].pop_front() {
                return Ok(frame);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Timeout {
                    op: "recv_frame",
                    waited: timeout,
                });
            }
            let (guard, _) = self.core.cv.wait_timeout(s, deadline - now).map_err(|_| {
                NetError::ConnectionLost {
                    link: "duplex (poisoned)".to_string(),
                }
            })?;
            s = guard;
        }
    }
}

/// Active-side duplex reattach: reset the core to a fresh generation and
/// hand back a live handle (the worker's analogue of re-dialing).
pub struct DuplexActive {
    core: Arc<DuplexCore>,
    side: usize,
    label: String,
    /// Admission guard pinning this provider to one worker incarnation;
    /// returning `false` refuses the reattach without touching the core.
    admitted: Option<Box<dyn Fn() -> bool + Send>>,
}

impl DuplexActive {
    /// A provider resetting `core` on behalf of `side`.
    pub fn new(core: Arc<DuplexCore>, side: usize, label: impl Into<String>) -> Self {
        DuplexActive {
            core,
            side,
            label: label.into(),
            admitted: None,
        }
    }

    /// A provider pinned to one worker incarnation: `admitted` is checked
    /// before every reset, and once it reports `false` (a supervisor moved
    /// the stage's admission generation past this incarnation) the
    /// reattach refuses instead of resetting the replacement's live link —
    /// the duplex analogue of the TCP acceptor rejecting a stale
    /// `DataHello`. Without it, a hung-then-woken incarnation's pump would
    /// tug-of-war resets against the replacement that superseded it.
    pub fn pinned(
        core: Arc<DuplexCore>,
        side: usize,
        label: impl Into<String>,
        admitted: Box<dyn Fn() -> bool + Send>,
    ) -> Self {
        DuplexActive {
            core,
            side,
            label: label.into(),
            admitted: Some(admitted),
        }
    }
}

impl Reattach for DuplexActive {
    fn reattach(&mut self, _timeout: Duration) -> NetResult<Box<dyn Transport>> {
        if let Some(admitted) = &self.admitted {
            if !admitted() {
                return Err(NetError::ConnectionLost {
                    link: format!("{} (stale generation)", self.label),
                });
            }
        }
        let generation = self.core.reset();
        Ok(Box::new(DuplexTransport {
            core: Arc::clone(&self.core),
            side: self.side,
            generation,
            label: self.label.clone(),
        }))
    }
}

/// Passive-side duplex reattach: wait for the peer to reset the core (the
/// orchestrator's analogue of accepting a re-dial).
pub struct DuplexPassive {
    core: Arc<DuplexCore>,
    side: usize,
    seen: u64,
    label: String,
}

impl DuplexPassive {
    /// A provider waiting on `core` on behalf of `side`.
    pub fn new(core: Arc<DuplexCore>, side: usize, label: impl Into<String>) -> Self {
        let seen = core.lock().generation;
        DuplexPassive {
            core,
            side,
            seen,
            label: label.into(),
        }
    }
}

impl Reattach for DuplexPassive {
    fn reattach(&mut self, timeout: Duration) -> NetResult<Box<dyn Transport>> {
        let generation = self.core.wait_past(self.seen, timeout)?;
        self.seen = generation;
        Ok(Box::new(DuplexTransport {
            core: Arc::clone(&self.core),
            side: self.side,
            generation,
            label: self.label.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;
    use std::net::TcpListener;

    const POLL: Duration = Duration::from_millis(500);

    #[test]
    fn duplex_delivers_both_directions() {
        let (a, b, _core) = duplex_pair("t");
        let (mut atx, mut arx) = Box::new(a).split().unwrap();
        let (mut btx, mut brx) = Box::new(b).split().unwrap();
        let f1 = encode_frame(1, b"a to b").unwrap();
        let f2 = encode_frame(2, b"b to a").unwrap();
        atx.send_frame(&f1).unwrap();
        btx.send_frame(&f2).unwrap();
        assert_eq!(brx.recv_frame(POLL).unwrap(), f1);
        assert_eq!(arx.recv_frame(POLL).unwrap(), f2);
    }

    #[test]
    fn duplex_kill_fails_both_halves_and_reset_revives() {
        let (a, b, core) = duplex_pair("t");
        let (mut atx, _arx) = Box::new(a).split().unwrap();
        let (_btx, mut brx) = Box::new(b).split().unwrap();
        core.kill();
        let frame = encode_frame(1, b"x").unwrap();
        assert!(matches!(
            atx.send_frame(&frame),
            Err(NetError::ConnectionLost { .. })
        ));
        assert!(matches!(
            brx.recv_frame(Duration::from_millis(10)),
            Err(NetError::ConnectionLost { .. })
        ));
        // Reattach both sides at the new generation: the active reset
        // advances the generation, then the passive wait returns at once.
        let mut active = DuplexActive::new(Arc::clone(&core), 0, "t-a");
        let mut passive = DuplexPassive::new(Arc::clone(&core), 1, "t-b");
        let new_a = active.reattach(POLL).unwrap();
        let new_b = passive.reattach(POLL).unwrap();
        let (mut atx2, _arx2) = new_a.split().unwrap();
        let (_btx2, mut brx2) = new_b.split().unwrap();
        atx2.send_frame(&frame).unwrap();
        assert_eq!(brx2.recv_frame(POLL).unwrap(), frame);
        // Old halves remain dead (stale generation).
        assert!(atx.send_frame(&frame).is_err());
    }

    #[test]
    fn stale_half_cannot_kill_a_reset_core() {
        let (a, _b, core) = duplex_pair("t");
        let (mut atx, _arx) = Box::new(a).split().unwrap();
        core.kill();
        core.reset();
        // The superseded half's kill must be a no-op on the revived core:
        // a hung worker waking up after its replacement was admitted must
        // not tear the replacement's link down.
        atx.kill();
        let fresh = duplex_handle(&core, 0, "t-a2");
        let (mut tx2, _rx2) = Box::new(fresh).split().unwrap();
        let frame = encode_frame(1, b"x").unwrap();
        tx2.send_frame(&frame).unwrap();
    }

    #[test]
    fn duplex_recv_times_out_cleanly() {
        let (a, _b, _core) = duplex_pair("t");
        let (_atx, mut arx) = Box::new(a).split().unwrap();
        assert!(matches!(
            arx.recv_frame(Duration::from_millis(5)),
            Err(NetError::Timeout { .. })
        ));
    }

    #[test]
    fn tcp_roundtrips_frames_with_partial_delivery() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let frame = encode_frame(9, &vec![0x5Au8; 5000]).unwrap();
        let frame_clone = frame.clone();
        let writer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            // Dribble the frame in small chunks to force partial reads.
            for chunk in frame_clone.chunks(113) {
                stream.write_all(chunk).unwrap();
                stream.flush().unwrap();
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        let (stream, _) = listener.accept().unwrap();
        let t = Box::new(TcpTransport::new(stream, "test"));
        let (_tx, mut rx) = t.split().unwrap();
        let got = rx.recv_frame(Duration::from_secs(5)).unwrap();
        assert_eq!(got, frame);
        writer.join().unwrap();
    }

    #[test]
    fn tcp_peer_close_reports_connection_lost() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        drop(client);
        let t = Box::new(TcpTransport::new(stream, "test"));
        let (_tx, mut rx) = t.split().unwrap();
        assert!(matches!(
            rx.recv_frame(Duration::from_secs(1)),
            Err(NetError::ConnectionLost { .. })
        ));
    }
}
