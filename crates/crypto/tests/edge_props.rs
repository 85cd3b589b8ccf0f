//! Property tests for the one edge type, `edge::EdgeCrypto`, on
//! worker↔worker and host edges with several sessions: the two ends built
//! with `role_at` stay mirrored under random traffic, session switches and
//! epoch jumps, and a sealed frame opens only at the mirrored end of the
//! same (edge, session, epoch).

use pipellm_crypto::edge::{role_at, EdgeCrypto, WireEdge, HOST_NODE};
use pipellm_crypto::session::SessionId;
use proptest::prelude::*;

/// Sessions every end opens (the default one plus two tenants).
const SESSIONS: u64 = 3;

/// A worker↔worker edge or, when `b` is drawn past the workers, a
/// worker↔host edge.
fn edge() -> impl Strategy<Value = WireEdge> {
    (0..6u32, 0..7u32).prop_map(|(a, b)| match b {
        6 => WireEdge::between(a, HOST_NODE),
        b if b == a => WireEdge::between(a, (a + 1) % 6),
        b => WireEdge::between(a, b),
    })
}

/// Both ends of `edge` as its two nodes build them, every session open.
fn ends(seed: u64, edge: WireEdge) -> [EdgeCrypto; 2] {
    [edge.a, edge.b].map(|node| {
        let mut end = EdgeCrypto::new(seed, edge, role_at(edge, node));
        for _ in 1..SESSIONS {
            end.open_session();
        }
        end
    })
}

/// One step driven on both ends.
#[derive(Debug, Clone)]
enum Step {
    /// End `from` seals a frame of `byte`s; the other end opens it.
    Send(usize, u8),
    /// Both ends switch to a session.
    Switch(u64),
    /// Both ends jump the active session this many epochs ahead.
    Rekey(u32),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..2usize, any::<u8>()).prop_map(|(from, byte)| Step::Send(from, byte)),
        (0..SESSIONS).prop_map(Step::Switch),
        (1..1000u32).prop_map(Step::Rekey),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every step one end's send counter equals the other's receive
    /// counter in both directions and both ends sit at the same epoch;
    /// every frame opens at the other end at the IV it was sealed under.
    #[test]
    fn ends_built_with_role_at_stay_mirrored(
        seed in any::<u64>(),
        edge in edge(),
        steps in proptest::collection::vec(step(), 1..60),
    ) {
        let mut ends = ends(seed, edge);
        for step in steps {
            match step {
                Step::Send(from, byte) => {
                    let [a, b] = &mut ends;
                    let (tx, rx) = if from == 0 { (a, b) } else { (b, a) };
                    let (iv, payload) = (tx.tx_iv(), vec![byte; 24]);
                    let sealed = tx.seal(b"hop", &payload).unwrap();
                    prop_assert_eq!(sealed.iv, iv);
                    prop_assert_eq!(rx.open_or_sentinel(b"hop", sealed.bytes), (payload, true));
                }
                Step::Switch(id) => {
                    for end in &mut ends {
                        prop_assert!(end.set_session(SessionId(id)));
                    }
                }
                Step::Rekey(jump) => {
                    let target = ends[0].epoch() + jump;
                    for end in &mut ends {
                        end.rekey_to(target);
                    }
                    prop_assert_eq!(ends[0].tx_iv(), 1, "a jump restarts the counters");
                }
            }
            let [a, b] = &ends;
            prop_assert_eq!((a.tx_iv(), a.rx_iv()), (b.rx_iv(), b.tx_iv()));
            prop_assert_eq!(a.epoch(), b.epoch());
            prop_assert!(a.mirrors(b));
        }
        // One end rekeyed alone no longer mirrors the other.
        let next = ends[0].epoch() + 1;
        ends[0].rekey_to(next);
        prop_assert!(!ends[0].mirrors(&ends[1]));
    }

    /// A frame sealed at one end of (edge, session, epoch) opens at the
    /// other end of exactly that (edge, session, epoch) and nowhere else.
    /// Sealer and probe are fresh, so both counters sit at IV 1 and only
    /// the keys decide.
    #[test]
    fn a_frame_opens_only_at_the_mirrored_end(
        seed in any::<u64>(),
        edges in (edge(), edge(), any::<bool>()),
        sides in (0..2usize, 0..2usize),
        sealing_at in (0..SESSIONS, 0..2u32),
        probe_at in (0..SESSIONS, 0..2u32),
    ) {
        let (sealing_edge, probe_edge) = match edges {
            (edge, _, true) => (edge, edge),
            (edge, other, false) => (edge, other),
        };
        let end = |edge: WireEdge, side: usize, (session, epoch): (u64, u32)| {
            let [a, b] = ends(seed, edge);
            let mut end = if side == 0 { a } else { b };
            assert!(end.set_session(SessionId(session)));
            end.rekey_to(epoch);
            end
        };
        let sealed = end(sealing_edge, sides.0, sealing_at).seal(b"hop", b"x").unwrap();
        let mut probe = end(probe_edge, sides.1, probe_at);
        let opened = probe.endpoint_mut().unwrap().open(&sealed).is_ok();
        let mirrored = probe_edge == sealing_edge && sides.0 != sides.1 && probe_at == sealing_at;
        prop_assert_eq!(
            opened, mirrored,
            "sealed on {} side {} at {:?}, probed on {} side {} at {:?}",
            sealing_edge, sides.0, sealing_at, probe_edge, sides.1, probe_at
        );
    }
}
