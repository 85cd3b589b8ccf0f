//! Per-link receive pumps.
//!
//! Every connection gets one pump thread that owns the receiver half,
//! decodes frames into [`Msg`]s, and feeds them to the owning event loop
//! through an `mpsc` channel. When the connection dies the pump runs the
//! bounded reconnect path: it reports [`PumpEvent::Down`], drives the
//! link's [`Reattach`] provider under the wire [`RetryPolicy`] (per-attempt
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
use crate::link::{install_sender, SenderSlot};
use crate::proto::Msg;
use crate::transport::{FrameReceiver, Reattach};
use pipellm_chaos::RetryPolicy;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// The next pump event, or `None` after `poll` of silence.
///
/// # Errors
///
/// [`NetError::Protocol`] once every pump feeding `events` has exited.
pub(crate) fn next_event(
    events: &mpsc::Receiver<(u32, PumpEvent)>,
    poll: Duration,
) -> NetResult<Option<(u32, PumpEvent)>> {
    match events.recv_timeout(poll) {
        Ok(ev) => Ok(Some(ev)),
        Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(NetError::Protocol {
            detail: "all pumps exited".to_string(),
        }),
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
    /// Events arrive on `events` tagged with `tag`.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        tag: u32,
        receiver: Box<dyn FrameReceiver>,
        reattach: Option<Box<dyn Reattach>>,
        slot: SenderSlot,
        policy: RetryPolicy,
        poll: Duration,
        events: mpsc::Sender<(u32, PumpEvent)>,
    ) -> Pump {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            pump_loop(tag, receiver, reattach, slot, policy, poll, events, &flag);
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
    mut receiver: Box<dyn FrameReceiver>,
    mut reattach: Option<Box<dyn Reattach>>,
    slot: SenderSlot,
    policy: RetryPolicy,
    poll: Duration,
    events: mpsc::Sender<(u32, PumpEvent)>,
    stop: &AtomicBool,
) {
    // Retry budget spent since a frame was last delivered, and whether the
    // current attachment is a reattachment still to deliver its first.
    let (mut failures, mut frameless) = (0u32, false);
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        match receiver.recv_frame(poll) {
            Ok(frame) => match Msg::decode(&frame) {
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
                            link: format!("pump#{tag}"),
                        }),
                    ));
                    return;
                };
                if events.send((tag, PumpEvent::Down)).is_err() {
                    return;
                }
                match reconnect(
                    provider.as_mut(),
                    &policy,
                    tag,
                    stop,
                    &mut failures,
                    frameless,
                ) {
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

/// Bounded reconnect: one initial attempt plus `policy.max_retries`
/// retries, each bounded by `policy.op_timeout`, with the policy's
/// deterministic jittered backoff between attempts. `failures` is the
/// budget spent since a frame was last delivered; `failed` charges the
/// previous attachment's frameless death like a dial that failed.
fn reconnect(
    provider: &mut dyn Reattach,
    policy: &RetryPolicy,
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
            if !policy.allows(*failures) {
                return Err(NetError::RetriesExhausted {
                    op: "reattach",
                    attempts: *failures + 1,
                });
            }
            std::thread::sleep(policy.backoff_after(*failures, u64::from(tag)));
            *failures += 1;
        }
        match provider.reattach(policy.op_timeout) {
            Ok(t) => return Ok(t),
            Err(_) => failed = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::empty_slot;
    use crate::transport::{duplex_pair, Transport};
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

    #[test]
    fn attachments_that_die_frameless_spend_the_retry_budget() {
        let policy = RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            jitter: 0.0,
            op_timeout: Duration::from_secs(1),
        };
        let dials = Arc::new(AtomicU32::new(0));
        let (first, _peer, core) = duplex_pair("first");
        core.kill();
        let (_sender, receiver) = Box::new(first).split().unwrap();
        let (events_tx, events) = mpsc::channel();
        let _pump = Pump::spawn(
            7,
            receiver,
            Some(Box::new(DeadOnArrival(Arc::clone(&dials)))),
            empty_slot(),
            policy,
            Duration::from_millis(5),
            events_tx,
        );
        let mut ups = 0;
        let dead = loop {
            match events.recv_timeout(Duration::from_secs(30)) {
                Ok((7, PumpEvent::Up)) => {
                    ups += 1;
                    assert!(ups <= policy.max_retries + 1, "redial busy-loop");
                }
                Ok((7, PumpEvent::Down)) => {}
                Ok((7, PumpEvent::Dead(e))) => break e,
                other => panic!("unexpected pump event {other:?}"),
            }
        };
        assert!(
            matches!(dead, NetError::RetriesExhausted { attempts: 4, .. }),
            "{dead}"
        );
        assert_eq!(dials.load(Ordering::SeqCst), policy.max_retries + 1);
        assert_eq!(ups, policy.max_retries + 1, "each dial itself succeeded");
    }
}
