//! Per-link receive pumps.
//!
//! Every connection gets one pump thread that owns the receiver half,
//! decodes frames into [`Msg`]s, and feeds them to the owning event loop
//! ([`EventLoop`]) through an `mpsc` channel; a large data frame's body
//! is received into a buffer of the actor's [`FramePool`] and stays there
//! in the decoded [`Msg::Data`]. When the connection dies the pump runs the
//! bounded reconnect path: it reports [`PumpEvent::Down`], drives the
//! link's [`Reattach`] provider under [`WIRE_RETRY`] (per-attempt
//! timeout, exponential deterministically-jittered backoff), installs the
//! fresh sender half into the link's [`SenderSlot`], and reports
//! [`PumpEvent::Up`]. A link with no provider — or one whose retry budget
//! runs dry — ends with [`PumpEvent::Dead`], which the event loop treats
//! as fatal for the run. A reattach that succeeds is not yet a recovery:
//! the peer can accept the connection and drop it at identification (the
//! acceptor does that to a superseded incarnation's `DataHello`), so an
//! attachment that dies before delivering a frame spends the same retry
//! budget as a failed dial, and only a delivered frame refills it.

use crate::error::{NetError, NetResult};
use crate::frame::FramePool;
use crate::link::{flush_slot, install_sender, SenderSlot};
use crate::proto::{Msg, FLUSH_BOUND, POLL_INTERVAL, WIRE_RETRY};
use crate::transport::{FrameReceiver, Reattach};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One event loop's two sides of the wire: the events its pumps feed it,
/// and the sender slots it writes through. What a turn sends waits in the
/// connections' outboxes (see [`crate::link::send_on`]);
/// [`Self::next_event`] writes them before it blocks, and at least every
/// [`FLUSH_BOUND`] while events keep arriving, so a busy loop makes one
/// write per connection for many frames and an idle one leaves nothing
/// queued.
pub(crate) struct EventLoop {
    events: mpsc::Receiver<(u32, PumpEvent)>,
    slots: Vec<SenderSlot>,
    /// When the outboxes were last known empty.
    flushed_at: Instant,
}

impl EventLoop {
    /// A loop reading `events` and flushing `slots`.
    pub fn new(events: mpsc::Receiver<(u32, PumpEvent)>, slots: Vec<SenderSlot>) -> Self {
        EventLoop {
            events,
            slots,
            flushed_at: Instant::now(),
        }
    }

    /// The next pump event, or `None` after `poll` of silence.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] once every pump feeding the loop has exited;
    /// the transport errors of [`Self::flush`].
    pub fn next_event(&mut self, poll: Duration) -> NetResult<Option<(u32, PumpEvent)>> {
        match self.events.try_recv() {
            Ok(ev) => {
                let now = Instant::now();
                if now.saturating_duration_since(self.flushed_at) >= FLUSH_BOUND {
                    self.flush()?;
                    self.flushed_at = now;
                }
                return Ok(Some(ev));
            }
            Err(mpsc::TryRecvError::Empty) => {}
            Err(mpsc::TryRecvError::Disconnected) => return Err(all_pumps_exited()),
        }
        self.flush()?;
        let next = self.events.recv_timeout(poll);
        self.flushed_at = Instant::now();
        match next {
            Ok(ev) => Ok(Some(ev)),
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(all_pumps_exited()),
        }
    }

    /// Writes every slot's outbox. A lost connection is not an error here:
    /// its slot is emptied and its pump reports the loss.
    ///
    /// # Errors
    ///
    /// Transport errors other than connection loss.
    pub fn flush(&self) -> NetResult<()> {
        for slot in &self.slots {
            match flush_slot(slot, "outbox") {
                Ok(()) | Err(NetError::ConnectionLost { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

fn all_pumps_exited() -> NetError {
    NetError::Protocol {
        detail: "all pumps exited".to_string(),
    }
}

/// What a pump reports to its event loop, tagged with the pump's id.
#[derive(Debug)]
pub(crate) enum PumpEvent {
    /// A decoded message off the wire.
    Frame(Msg),
    /// The connection died; the pump is reattaching.
    Down,
    /// Reattach succeeded; a fresh sender is installed in the slot.
    Up,
    /// The link is gone for good (no provider, budget exhausted, or a
    /// framing-level protocol violation).
    Dead(NetError),
}

/// A running pump thread; stops and joins on drop.
pub(crate) struct Pump {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Pump {
    /// Spawns a pump over `receiver`. `reattach` enables the reconnect
    /// path; `slot` is where reconnected sender halves are installed.
    /// Events arrive on `events` tagged with `tag`; `link` names the
    /// connection in the error that ends it. Large data frames are
    /// received into buffers from `pool`.
    pub fn spawn(
        tag: u32,
        link: String,
        receiver: Box<dyn FrameReceiver>,
        reattach: Option<Box<dyn Reattach>>,
        slot: SenderSlot,
        events: mpsc::Sender<(u32, PumpEvent)>,
        pool: FramePool,
    ) -> Pump {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            pump_loop(tag, &link, receiver, reattach, slot, events, &pool, &flag);
        });
        Pump {
            stop,
            handle: Some(handle),
        }
    }

    /// Asks the pump to exit at its next poll tick.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

impl Drop for Pump {
    fn drop(&mut self) {
        self.stop();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn pump_loop(
    tag: u32,
    link: &str,
    mut receiver: Box<dyn FrameReceiver>,
    mut reattach: Option<Box<dyn Reattach>>,
    slot: SenderSlot,
    events: mpsc::Sender<(u32, PumpEvent)>,
    pool: &FramePool,
    stop: &AtomicBool,
) {
    // Retry budget spent since a frame was last delivered, and whether the
    // current attachment is a reattachment still to deliver its first.
    let (mut failures, mut frameless) = (0u32, false);
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        match receiver.recv_pooled(POLL_INTERVAL, pool) {
            Ok(frame) => match Msg::decode_owned(frame) {
                Ok(msg) => {
                    (failures, frameless) = (0, false);
                    if events.send((tag, PumpEvent::Frame(msg))).is_err() {
                        return; // event loop gone; nothing left to feed
                    }
                }
                Err(e) => {
                    let _ = events.send((tag, PumpEvent::Dead(e)));
                    return;
                }
            },
            Err(NetError::Timeout { .. }) => continue,
            Err(NetError::ConnectionLost { .. }) => {
                let Some(provider) = reattach.as_mut() else {
                    let _ = events.send((
                        tag,
                        PumpEvent::Dead(NetError::ConnectionLost {
                            link: link.to_string(),
                        }),
                    ));
                    return;
                };
                if events.send((tag, PumpEvent::Down)).is_err() {
                    return;
                }
                match reconnect(provider.as_mut(), tag, stop, &mut failures, frameless) {
                    Ok(transport) => match transport.split() {
                        Ok((sender, new_receiver)) => {
                            install_sender(&slot, sender);
                            receiver = new_receiver;
                            frameless = true;
                            if events.send((tag, PumpEvent::Up)).is_err() {
                                return;
                            }
                        }
                        Err(e) => {
                            let _ = events.send((tag, PumpEvent::Dead(e)));
                            return;
                        }
                    },
                    Err(e) => {
                        let _ = events.send((tag, PumpEvent::Dead(e)));
                        return;
                    }
                }
            }
            Err(e) => {
                let _ = events.send((tag, PumpEvent::Dead(e)));
                return;
            }
        }
    }
}

/// Bounded reconnect: one initial attempt plus [`WIRE_RETRY`]'s
/// `max_retries` retries, each bounded by its `op_timeout`, with its
/// deterministic jittered backoff between attempts. `failures` is the
/// budget spent since a frame was last delivered; `failed` charges the
/// previous attachment's frameless death like a dial that failed.
fn reconnect(
    provider: &mut dyn Reattach,
    tag: u32,
    stop: &AtomicBool,
    failures: &mut u32,
    mut failed: bool,
) -> NetResult<Box<dyn crate::transport::Transport>> {
    loop {
        if stop.load(Ordering::Relaxed) {
            return Err(NetError::ConnectionLost {
                link: format!("pump#{tag} (stopping)"),
            });
        }
        if failed {
            if !WIRE_RETRY.allows(*failures) {
                return Err(NetError::RetriesExhausted {
                    op: "reattach",
                    attempts: *failures + 1,
                });
            }
            std::thread::sleep(WIRE_RETRY.backoff_after(*failures, u64::from(tag)));
            *failures += 1;
        }
        match provider.reattach(WIRE_RETRY.op_timeout) {
            Ok(t) => return Ok(t),
            Err(_) => failed = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::empty_slot;
    use crate::transport::{duplex_pair, FrameSender, Transport};
    use std::sync::atomic::AtomicU32;

    /// Every attachment connects and is dead on arrival — what a superseded
    /// incarnation meets when the acceptor drops its stale `DataHello`.
    struct DeadOnArrival(Arc<AtomicU32>);

    impl Reattach for DeadOnArrival {
        fn reattach(&mut self, _timeout: Duration) -> NetResult<Box<dyn Transport>> {
            self.0.fetch_add(1, Ordering::SeqCst);
            let (ours, _theirs, core) = duplex_pair("doa");
            core.kill();
            Ok(Box::new(ours))
        }
    }

    /// Counts the flushes an event loop makes.
    struct Counting(Arc<AtomicU32>);

    impl FrameSender for Counting {
        fn send_frame(&mut self, _frame: &[u8]) -> NetResult<()> {
            Ok(())
        }

        fn flush(&mut self) -> NetResult<()> {
            self.0.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }

        fn kill(&mut self) {}
    }

    #[test]
    fn next_event_flushes_before_blocking_and_once_the_bound_passes() {
        const IDLE: Duration = Duration::from_millis(1);
        let flushes = Arc::new(AtomicU32::new(0));
        let slot = empty_slot();
        install_sender(&slot, Box::new(Counting(Arc::clone(&flushes))));
        let (tx, rx) = mpsc::channel();
        let mut events = EventLoop::new(rx, vec![slot]);
        let count = || flushes.load(Ordering::SeqCst);

        // Nothing ready: flush, then block.
        assert!(events.next_event(IDLE).unwrap().is_none());
        assert_eq!(count(), 1);

        // Back-to-back events inside the bound (the last flush stamped an
        // hour ahead, so no scheduling delay can cross it): no flush.
        for _ in 0..3 {
            tx.send((0, PumpEvent::Up)).unwrap();
        }
        events.flushed_at = Instant::now() + Duration::from_secs(3600);
        for _ in 0..2 {
            assert!(events.next_event(POLL_INTERVAL).unwrap().is_some());
        }
        assert_eq!(count(), 1, "no flush between ready events");

        // The bound has passed: the next ready event flushes first.
        events.flushed_at = Instant::now() - FLUSH_BOUND;
        assert!(events.next_event(POLL_INTERVAL).unwrap().is_some());
        assert_eq!(count(), 2);

        // Drained: flush before blocking again.
        assert!(events.next_event(IDLE).unwrap().is_none());
        assert_eq!(count(), 3);
    }

    #[test]
    fn attachments_that_die_frameless_spend_the_retry_budget() {
        let dials_allowed = WIRE_RETRY.max_retries + 1;
        let dials = Arc::new(AtomicU32::new(0));
        let (first, _peer, core) = duplex_pair("first");
        core.kill();
        let (_sender, receiver) = Box::new(first).split().unwrap();
        let (events_tx, events) = mpsc::channel();
        let _pump = Pump::spawn(
            7,
            "test".to_string(),
            receiver,
            Some(Box::new(DeadOnArrival(Arc::clone(&dials)))),
            empty_slot(),
            events_tx,
            FramePool::default(),
        );
        let mut ups = 0;
        let dead = loop {
            match events.recv_timeout(Duration::from_secs(30)) {
                Ok((7, PumpEvent::Up)) => {
                    ups += 1;
                    assert!(ups <= dials_allowed, "redial busy-loop");
                }
                Ok((7, PumpEvent::Down)) => {}
                Ok((7, PumpEvent::Dead(e))) => break e,
                other => panic!("unexpected pump event {other:?}"),
            }
        };
        assert!(
            matches!(dead, NetError::RetriesExhausted { attempts, .. } if attempts == dials_allowed),
            "{dead}"
        );
        assert_eq!(dials.load(Ordering::SeqCst), dials_allowed);
        assert_eq!(ups, dials_allowed, "each dial itself succeeded");
    }
}
