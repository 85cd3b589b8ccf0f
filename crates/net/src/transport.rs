//! The byte-stream abstraction the orchestrator and workers are written
//! against, with two interchangeable backends.
//!
//! - [`TcpTransport`]: a real `std::net::TcpStream`. Framing rides the
//!   stream's native byte order; the receiver half keeps partial frames
//!   across timeouts so a slow sender never desynchronizes the parse. The
//!   sender half holds an *outbox*: [`FrameSender::queue_frame`] appends a
//!   small frame to it, and [`FrameSender::flush`] writes everything queued
//!   with one syscall. The outbox holds at most [`OUTBOX_CAP`] bytes — a
//!   frame that would overflow it flushes it first, and a frame at or above
//!   the cap is written directly, never copied in. An event loop flushes
//!   before it blocks and at least every [`crate::proto::FLUSH_BOUND`]
//!   while busy (see [`crate::link::flush_slot`]). Queued frames die with
//!   their connection: [`FrameSender::kill`] drops them unwritten, like
//!   bytes lost in a kernel buffer.
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
use crate::frame::{parse_header, FramePool, HEADER_LEN};
use crate::proto::{kind, Msg, OUTBOX_CAP, POOLED_MIN};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The sending half of a split transport.
pub trait FrameSender: Send {
    /// Writes one complete frame (header included) to the wire now, after
    /// anything [`Self::queue_frame`] left queued.
    fn send_frame(&mut self, frame: &[u8]) -> NetResult<()>;

    /// Queues one complete frame for the next [`Self::flush`]; a backend
    /// without an outbox writes it at once.
    fn queue_frame(&mut self, frame: &[u8]) -> NetResult<()> {
        self.send_frame(frame)
    }

    /// Writes every queued frame, in queue order.
    fn flush(&mut self) -> NetResult<()> {
        Ok(())
    }

    /// Forcibly kills the underlying connection, as an injected
    /// [`pipellm_chaos::FaultKind::ConnectionDrop`] demands: both halves
    /// (and the peer) must observe the loss. Queued frames are dropped.
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

    /// [`Self::recv_frame`], reading a large data frame into a buffer from `pool` if it can.
    fn recv_pooled(&mut self, timeout: Duration, _pool: &FramePool) -> NetResult<Vec<u8>> {
        self.recv_frame(timeout)
    }
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
                outbox: Vec::with_capacity(OUTBOX_CAP),
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
    /// Queued frames, back to back: at most [`OUTBOX_CAP`] bytes.
    outbox: Vec<u8>,
}

/// Writes `bytes` to `stream`; a reset or broken pipe is connection loss.
fn write_all(stream: &mut TcpStream, label: &str, bytes: &[u8]) -> NetResult<()> {
    stream.write_all(bytes).map_err(|e| match e.kind() {
        std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::ConnectionAborted
        | std::io::ErrorKind::BrokenPipe => NetError::ConnectionLost {
            link: label.to_string(),
        },
        _ => NetError::io("send_frame", &e),
    })
}

impl FrameSender for TcpSender {
    fn send_frame(&mut self, frame: &[u8]) -> NetResult<()> {
        self.flush()?;
        write_all(&mut self.stream, &self.label, frame)
    }

    fn queue_frame(&mut self, frame: &[u8]) -> NetResult<()> {
        if self.outbox.len() + frame.len() > OUTBOX_CAP {
            self.flush()?;
        }
        if frame.len() >= OUTBOX_CAP {
            return write_all(&mut self.stream, &self.label, frame);
        }
        self.outbox.extend_from_slice(frame);
        Ok(())
    }

    /// Writes the outbox. It is emptied whatever the outcome: after a
    /// failed write the connection is gone, and its frames with it.
    fn flush(&mut self) -> NetResult<()> {
        if self.outbox.is_empty() {
            return Ok(());
        }
        let written = write_all(&mut self.stream, &self.label, &self.outbox);
        self.outbox.clear();
        written
    }

    fn kill(&mut self) {
        self.outbox.clear();
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
    /// The kind and length, header included, of the frame `pending` starts
    /// with, once its header is in; a framing error for garbage.
    fn frame_len(&self) -> NetResult<Option<(u8, usize)>> {
        match self.pending.first_chunk::<HEADER_LEN>() {
            Some(header) => parse_header(header).map(|(kind, len)| Some((kind, HEADER_LEN + len))),
            None => Ok(None),
        }
    }

    /// Waits up to `timeout` for a frame to complete. Each socket read
    /// blocks for at most `timeout`, so a call whose last read began just
    /// before the deadline returns within twice that — the deadline is a
    /// poll granularity, not a hard bound. A pump passes the same value
    /// on every call, so the socket option is set once per connection.
    /// With a `pool`, a data frame of [`POOLED_MIN`] bytes or more is read
    /// into a pooled buffer, and that buffer is the frame returned.
    fn recv(&mut self, timeout: Duration, pool: Option<&FramePool>) -> NetResult<Vec<u8>> {
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
            let frame_len = self.frame_len()?;
            if let Some((_, total)) = frame_len.filter(|&(_, total)| self.pending.len() >= total) {
                let rest = self.pending.split_off(total);
                return Ok(std::mem::replace(&mut self.pending, rest));
            }
            if Instant::now() >= deadline {
                return Err(NetError::Timeout {
                    op: "recv_frame",
                    waited: timeout,
                });
            }
            // Until the header is in, read whatever has arrived; after, read
            // the rest of this frame straight into `pending`, grown once or
            // pooled. A read that times out keeps the bytes it got.
            let read = match frame_len {
                Some((kind_byte, total)) => {
                    let pooled = kind_byte == kind::DATA && total >= POOLED_MIN;
                    if let Some(pool) = pool.filter(|_| pooled && self.pending.capacity() < total) {
                        let mut buf = pool.take(total);
                        buf.extend_from_slice(&self.pending);
                        self.pending = buf;
                    }
                    let missing = total - self.pending.len();
                    self.pending.reserve_exact(missing);
                    (&mut self.stream)
                        .take(missing as u64)
                        .read_to_end(&mut self.pending)
                }
                None => self.stream.read(&mut chunk).inspect(|&n| {
                    self.pending.extend_from_slice(&chunk[..n]);
                }),
            };
            match read {
                Ok(0) => {
                    return Err(NetError::ConnectionLost {
                        link: self.label.clone(),
                    })
                }
                Ok(_) => {}
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

impl FrameReceiver for TcpReceiver {
    fn recv_frame(&mut self, timeout: Duration) -> NetResult<Vec<u8>> {
        self.recv(timeout, None)
    }

    fn recv_pooled(&mut self, timeout: Duration, pool: &FramePool) -> NetResult<Vec<u8>> {
        self.recv(timeout, Some(pool))
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

    /// A connected TCP pair: this end's sender (outbox visible), the far
    /// end's receiver.
    fn tcp_pair() -> (TcpSender, Box<dyn FrameReceiver>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (far, _) = listener.accept().unwrap();
        let (_, rx) = Box::new(TcpTransport::new(far, "far")).split().unwrap();
        let tx = TcpSender {
            stream: near,
            label: "near".to_string(),
            outbox: Vec::with_capacity(OUTBOX_CAP),
        };
        (tx, rx)
    }

    fn frames(sizes: &[usize]) -> Vec<Vec<u8>> {
        (0u8..)
            .zip(sizes)
            .map(|(kind, &size)| encode_frame(kind, &vec![kind; size]).unwrap())
            .collect()
    }

    fn assert_off_the_wire(rx: &mut Box<dyn FrameReceiver>) {
        assert!(matches!(
            rx.recv_frame(Duration::from_millis(50)),
            Err(NetError::Timeout { .. })
        ));
    }

    #[test]
    fn queued_frames_wait_for_a_flush_or_the_cap_and_arrive_in_order() {
        let (mut tx, mut rx) = tcp_pair();
        let small = frames(&[10, 1000, 3000]);
        for frame in &small {
            tx.queue_frame(frame).unwrap();
        }
        assert_off_the_wire(&mut rx);
        tx.flush().unwrap();
        for frame in &small {
            assert_eq!(&rx.recv_frame(POLL).unwrap(), frame);
        }
        // Four 4 KiB frames fill the outbox; the fifth overflows it, which
        // writes the four and queues the fifth.
        let full = frames(&[4000; 5]);
        for frame in &full {
            tx.queue_frame(frame).unwrap();
        }
        for frame in &full[..4] {
            assert_eq!(&rx.recv_frame(POLL).unwrap(), frame);
        }
        assert_off_the_wire(&mut rx);
        tx.flush().unwrap();
        assert_eq!(rx.recv_frame(POLL).unwrap(), full[4]);
        assert!(tx.outbox.capacity() <= OUTBOX_CAP, "the outbox never grows");
    }

    #[test]
    fn a_frame_at_the_cap_flushes_the_queue_and_bypasses_the_outbox() {
        let (mut tx, mut rx) = tcp_pair();
        let sent = frames(&[100, 200, OUTBOX_CAP, 300]);
        for frame in &sent[..3] {
            tx.queue_frame(frame).unwrap();
        }
        assert!(tx.outbox.is_empty(), "the large frame was not copied in");
        for frame in &sent[..3] {
            assert_eq!(&rx.recv_frame(POLL).unwrap(), frame);
        }
        tx.queue_frame(&sent[3]).unwrap();
        assert_off_the_wire(&mut rx);
        assert_eq!(tx.outbox.capacity(), OUTBOX_CAP);
    }

    #[test]
    fn send_frame_writes_after_the_queued_frames() {
        let (mut tx, mut rx) = tcp_pair();
        let sent = frames(&[10, 20, 30]);
        tx.queue_frame(&sent[0]).unwrap();
        tx.queue_frame(&sent[1]).unwrap();
        tx.send_frame(&sent[2]).unwrap();
        for frame in &sent {
            assert_eq!(&rx.recv_frame(POLL).unwrap(), frame);
        }
    }

    #[test]
    fn kill_drops_the_queue_and_the_reattached_connection_never_sees_it() {
        use crate::link::{empty_slot, flush_slot, install_sender, kill_slot, send_on};
        let slot = empty_slot();
        let (first, mut first_rx) = tcp_pair();
        install_sender(&slot, Box::new(first));
        let sent = frames(&[10, 20]);
        send_on(&slot, &sent[0], "t").unwrap();
        kill_slot(&slot);
        assert!(
            matches!(
                first_rx.recv_frame(POLL),
                Err(NetError::ConnectionLost { .. })
            ),
            "the killed connection carried nothing"
        );
        let (second, mut second_rx) = tcp_pair();
        install_sender(&slot, Box::new(second));
        send_on(&slot, &sent[1], "t").unwrap();
        flush_slot(&slot, "t").unwrap();
        assert_eq!(second_rx.recv_frame(POLL).unwrap(), sent[1]);
        assert_off_the_wire(&mut second_rx);
    }

    #[test]
    fn a_read_that_times_out_mid_frame_keeps_its_bytes() {
        let (mut tx, mut rx) = tcp_pair();
        let frame = encode_frame(3, &vec![0xC3u8; 200_000]).unwrap();
        // Inside the header, then inside the body, then the rest.
        for part in [&frame[..5], &frame[5..90_000], &frame[90_000..]] {
            assert_off_the_wire(&mut rx);
            tx.send_frame(part).unwrap();
        }
        assert_eq!(rx.recv_frame(POLL).unwrap(), frame);
    }

    #[test]
    fn a_pooled_read_keeps_its_bytes_across_timeouts_and_lands_in_the_pool() {
        let (mut tx, mut rx) = tcp_pair();
        let data = crate::proto::DataFrame {
            src: 0,
            dst: 1,
            seq: 2,
            epoch: 3,
            iteration: 4,
            micro_batch: 5,
            sealed: vec![0xC3u8; 200_000],
        };
        let frame = Msg::Data(data).encode().unwrap();
        let small = Msg::Start.encode().unwrap();
        let (pool, buf) = (FramePool::default(), Vec::with_capacity(frame.len()));
        let at = buf.as_ptr();
        pool.give(buf);
        // Inside the header, inside the frame, then the rest followed by a
        // small frame.
        let rest = [&frame[90_000..], &small[..]].concat();
        for part in [&frame[..5], &frame[5..90_000], &rest[..]] {
            let waited = rx.recv_pooled(Duration::from_millis(50), &pool);
            assert!(matches!(waited, Err(NetError::Timeout { .. })));
            tx.send_frame(part).unwrap();
        }
        let got = rx.recv_pooled(POLL, &pool).unwrap();
        assert_eq!(
            (&got, got.as_ptr()),
            (&frame, at),
            "read into the pooled buffer"
        );
        assert_eq!(rx.recv_pooled(POLL, &pool).unwrap(), small);
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
