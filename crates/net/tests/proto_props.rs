//! Property-based tests of the wire protocol: every handshake and
//! shard-manifest message round-trips through encode/decode identically,
//! and malformed, truncated, or version-skewed frames reject with clean
//! errors — no panic, and never a byte of sealed payload surfacing as
//! accepted plaintext.
//!
//! The vendored proptest shim caps tuples at four elements and has no
//! `prop_flat_map`, so messages are derived from a few `u64` entropy
//! seeds instead of one strategy per field.

use pipellm_net::frame::{decode_frame, encode_frame, HEADER_LEN};
use pipellm_net::proto::{
    CheckpointReq, CheckpointSave, CounterReport, DataAck, DataFrame, EdgeCounterEntry, Fin,
    Heartbeat, Hello, ManifestAck, Msg, RekeyEdge, Restore, ShardManifest, DATA_HEAD_LEN,
    POOLED_MIN,
};
use pipellm_net::NetError;
use proptest::prelude::*;
use std::time::Duration;

/// Splits one entropy word into four u32-sized fields (reused as needed).
fn quarters(x: u64) -> [u32; 4] {
    [
        x as u32,
        (x >> 32) as u32,
        (x.rotate_left(13)) as u32,
        (x.rotate_left(47)) as u32,
    ]
}

/// Derives an internally consistent manifest (the decoder validates stage
/// and layer ranges, a nonzero resend threshold and fault rates in
/// `[0, 1]`, so the round-trip corpus must satisfy them).
fn manifest_from(a: u64, b: u64) -> ShardManifest {
    let q = quarters(a);
    let stages = 1 + (q[0] % 64);
    let layers = q[2] % 256;
    let layer_start = if layers == 0 { 0 } else { q[3] % (layers + 1) };
    let layer_end = layer_start + (b as u32 % (layers - layer_start + 1));
    ShardManifest {
        stage: q[1] % stages,
        stages,
        layers,
        layer_start,
        layer_end,
        weight_hash: a ^ b,
        activation_bytes: b.rotate_left(7),
        micro_batches: 1 + ((b >> 32) as u32 % 16),
        iterations: 1 + ((b >> 48) as u32 % 16),
        cluster_seed: b,
        resend_after: Duration::from_nanos(1 + (a >> 1)),
        heartbeat_interval: Duration::from_nanos(a ^ b),
        hang_for: Duration::from_nanos(b.rotate_left(29)),
        chaos_seed: a.rotate_left(3) ^ b,
        net_fault_rate: f64::from(q[0]) / f64::from(u32::MAX),
        worker_fault_rate: f64::from(q[3]) / f64::from(u32::MAX),
        kill_at_drain: b & 1 == 1,
    }
}

/// Derives an end-of-stream marker; its endpoints always differ, as the
/// decoder requires.
fn fin_from(a: u64, b: u64) -> Fin {
    let q = quarters(a);
    Fin {
        src: q[0],
        dst: q[0] ^ (q[1] | 1),
        epoch: q[2],
        tx_iv: b,
    }
}

/// Derives one protocol message of an arbitrary variant from entropy.
fn msg_from(pick: u64, a: u64, b: u64, sealed: Vec<u8>) -> Msg {
    let q = quarters(a);
    match pick % 19 {
        0 => Msg::Hello(Hello {
            stage: q[0],
            generation: q[2],
        }),
        1 => Msg::Manifest(manifest_from(a, b)),
        2 => Msg::ManifestAck(ManifestAck {
            stage: q[0],
            weight_hash: b,
        }),
        3 => Msg::Start,
        4 => Msg::Data(DataFrame {
            src: q[0],
            dst: q[1],
            seq: b,
            epoch: q[2],
            iteration: q[3],
            micro_batch: (b >> 32) as u32,
            sealed,
        }),
        5 => Msg::AckData(DataAck {
            src: q[0],
            dst: q[1],
            seq: b,
        }),
        6 => Msg::NackData(DataAck {
            src: q[0],
            dst: q[1],
            seq: b,
        }),
        7 => Msg::RekeyEdge(RekeyEdge {
            a: q[0],
            b: q[1],
            epoch: q[2],
        }),
        8 => Msg::LinkRestored { stage: q[0] },
        9 => Msg::DataHello {
            stage: q[1],
            generation: q[3],
        },
        10 => Msg::Fin(fin_from(a, b)),
        11 => {
            let edges = (0..(b % 4))
                .map(|i| {
                    let e = quarters(b.rotate_left(i as u32 * 16 + 1));
                    EdgeCounterEntry {
                        a: e[0],
                        b: e[1],
                        epoch: e[2],
                        tx_iv: u64::from(e[3]),
                        rx_iv: b ^ i,
                    }
                })
                .collect();
            Msg::Done(CounterReport {
                stage: q[0],
                edges,
                retransmits: a % 1000,
                sentinels: b % 1000,
                reconnects: (a ^ b) % 1000,
            })
        }
        12 => Msg::Heartbeat(Heartbeat {
            stage: q[0],
            generation: q[1],
            seq: b,
        }),
        13 => Msg::HeartbeatAck(Heartbeat {
            stage: q[0],
            generation: q[1],
            seq: b,
        }),
        14 => Msg::CheckpointReq(CheckpointReq {
            barrier: a,
            prefix: b,
        }),
        15 => Msg::CheckpointSave(CheckpointSave {
            stage: q[0],
            barrier: b,
            sealed,
        }),
        16 => Msg::Restore(Restore { barrier: b, sealed }),
        17 => Msg::FinAck(fin_from(a, b)),
        _ => Msg::Shutdown,
    }
}

fn msg_strategy() -> impl Strategy<Value = Msg> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(|(pick, a, b, sealed)| msg_from(pick, a, b, sealed))
}

/// Frames for the two decode entry points: a valid frame of any message
/// (a data frame's body small or of `POOLED_MIN` bytes more), or one cut
/// short, with trailing bytes, with a length that lies (a data frame's
/// body length or the header's), or with its kind byte replaced.
fn frame_strategy() -> impl Strategy<Value = Vec<u8>> {
    (
        msg_strategy(),
        any::<u64>(),
        (any::<u64>(), any::<u64>(), any::<u8>()),
        proptest::collection::vec(any::<u8>(), 0..300),
    )
        .prop_map(|(msg, pick, (a, b, byte), mut sealed)| {
            if pick & 64 != 0 {
                sealed.resize(sealed.len() + POOLED_MIN, byte);
            }
            let data = Msg::Data(match msg_from(4, a, b, sealed) {
                Msg::Data(d) => d,
                _ => unreachable!("pick 4 is a data frame"),
            });
            let mut frame = if pick % 2 == 0 { msg } else { data }
                .encode()
                .expect("encodable");
            let lie = (a as u32 | 1).to_le_bytes();
            match (pick >> 1) % 6 {
                0 => {}
                1 => frame.truncate(b as usize % frame.len()),
                2 => frame.extend_from_slice(&a.to_le_bytes()[..1 + (b % 8) as usize]),
                3 if frame.len() >= DATA_HEAD_LEN => {
                    let field = &mut frame[DATA_HEAD_LEN - 4..DATA_HEAD_LEN];
                    for (byte, flip) in field.iter_mut().zip(lie) {
                        *byte ^= flip;
                    }
                }
                4 => {
                    for (byte, flip) in frame[4..HEADER_LEN].iter_mut().zip(lie) {
                        *byte ^= flip;
                    }
                }
                _ => frame[3] = byte,
            }
            frame
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The owning decode and the borrowing one are one parser: for every
    /// frame, `decode_owned` returns what `decode` returns — the same
    /// message or the same error — and a data message of `POOLED_MIN`
    /// bytes or more keeps the frame's buffer.
    #[test]
    fn one_parser_two_entry_points(frame in frame_strategy()) {
        let (at, large) = (frame.as_ptr(), frame.len() >= POOLED_MIN);
        prop_assert_eq!(&Msg::decode_owned(frame.clone()), &Msg::decode(&frame));
        if let Ok(Msg::Data(d)) = Msg::decode_owned(frame) {
            prop_assert_eq!(d.sealed.as_ptr() == at, large);
        }
    }

    /// A data frame built in its own buffer is its encoding.
    #[test]
    fn a_frame_built_in_place_is_the_encoding(a in any::<u64>(), b in any::<u64>(), sealed in proptest::collection::vec(any::<u8>(), 0..300)) {
        let Msg::Data(frame) = msg_from(4, a, b, sealed) else { unreachable!("pick 4 is a data frame") };
        let encoded = Msg::Data(frame.clone()).encode().expect("encodable");
        prop_assert_eq!(frame.into_frame().expect("under the cap"), encoded);
    }

    /// decode ∘ encode is the identity for every protocol message.
    #[test]
    fn message_roundtrip(msg in msg_strategy()) {
        let frame = msg.encode().expect("encodable");
        prop_assert_eq!(Msg::decode(&frame).expect("decodable"), msg);
    }

    /// Truncating an encoded frame at any point strictly before its end
    /// rejects cleanly — an error, never a panic, never a decode.
    #[test]
    fn truncation_rejects_cleanly(msg in msg_strategy(), cut in any::<prop::sample::Index>()) {
        let frame = msg.encode().expect("encodable");
        let cut = cut.index(frame.len());
        prop_assert!(Msg::decode(&frame[..cut]).is_err());
    }

    /// Version skew in the header rejects every message.
    #[test]
    fn version_skew_rejects(msg in msg_strategy(), skew in 1u32..256) {
        let mut frame = msg.encode().expect("encodable");
        frame[2] = frame[2].wrapping_add(skew as u8);
        prop_assert!(Msg::decode(&frame).is_err());
    }

    /// Corrupting either magic byte rejects every message.
    #[test]
    fn bad_magic_rejects(msg in msg_strategy(), byte in 0usize..2, flip in 1u32..256) {
        let mut frame = msg.encode().expect("encodable");
        frame[byte] ^= flip as u8;
        prop_assert!(Msg::decode(&frame).is_err());
    }

    /// Arbitrary bytes never panic the decoder, and anything it does
    /// accept must re-encode to exactly the input — the codec admits no
    /// second representation.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(msg) = Msg::decode(&bytes) {
            prop_assert_eq!(msg.encode().expect("encodable"), bytes);
        }
    }

    /// Every field of a well-formed manifest, the run settings a worker
    /// takes from it included, survives the wire bit for bit.
    #[test]
    fn manifest_roundtrip(a in any::<u64>(), b in any::<u64>()) {
        let m = manifest_from(a, b);
        let frame = Msg::Manifest(m).encode().expect("encodable");
        prop_assert_eq!(Msg::decode(&frame).expect("decodable"), Msg::Manifest(m));
    }

    /// A manifest no worker can serve is rejected by the decoder even when
    /// the frame itself is well formed — one case per check: stage out of
    /// range, layer range out of bounds, zero resend threshold, and a
    /// fault rate that is not finite or lies outside `[0, 1]`.
    #[test]
    fn inconsistent_manifests_reject(a in any::<u64>(), b in any::<u64>(), case in 0u32..7) {
        let mut m = manifest_from(a, b);
        match case {
            0 => m.stage = m.stages,
            1 => m.layer_start = m.layers + 1,
            2 => m.resend_after = Duration::ZERO,
            3 => m.net_fault_rate = f64::NAN,
            4 => m.worker_fault_rate = f64::INFINITY,
            5 => m.net_fault_rate = -f64::MIN_POSITIVE,
            _ => m.worker_fault_rate = 1.0 + f64::EPSILON,
        }
        let frame = Msg::Manifest(m).encode().expect("encoding skips validation");
        prop_assert!(Msg::decode(&frame).is_err());
    }

    /// A manifest whose drain-kill flag is neither 0 nor 1 is rejected:
    /// the codec admits one representation of each flag value.
    #[test]
    fn manifest_drain_kill_flag_is_zero_or_one(a in any::<u64>(), b in any::<u64>(), flag in 2u32..u32::MAX) {
        let mut frame = Msg::Manifest(manifest_from(a, b)).encode().expect("encodable");
        let at = frame.len() - 4;
        frame[at..].copy_from_slice(&flag.to_le_bytes());
        prop_assert!(matches!(Msg::decode(&frame), Err(NetError::Malformed { .. })));
    }

    /// An end-of-stream marker or its ack naming a self-edge is
    /// malformed, whatever its counters.
    #[test]
    fn fin_on_a_self_edge_rejects(a in any::<u64>(), b in any::<u64>(), ack in any::<bool>()) {
        let fin = Fin { dst: fin_from(a, b).src, ..fin_from(a, b) };
        let msg = if ack { Msg::FinAck(fin) } else { Msg::Fin(fin) };
        let frame = msg.encode().expect("encoding skips validation");
        prop_assert!(matches!(Msg::decode(&frame), Err(NetError::Malformed { .. })));
    }

    /// A data frame encodes byte for byte as the generic framing of its
    /// fields, written one after another: the single-copy encoder is the
    /// same codec, into one buffer of exactly the frame's size.
    #[test]
    fn data_encoding_is_the_generic_framing(
        a in any::<u64>(),
        b in any::<u64>(),
        sealed in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let q = quarters(a);
        let frame = DataFrame {
            src: q[0],
            dst: q[1],
            seq: b,
            epoch: q[2],
            iteration: q[3],
            micro_batch: (b >> 32) as u32,
            sealed,
        };
        let mut payload = Vec::new();
        for word in [frame.src, frame.dst] {
            payload.extend_from_slice(&word.to_le_bytes());
        }
        payload.extend_from_slice(&frame.seq.to_le_bytes());
        for word in [frame.epoch, frame.iteration, frame.micro_batch, frame.sealed.len() as u32] {
            payload.extend_from_slice(&word.to_le_bytes());
        }
        payload.extend_from_slice(&frame.sealed);
        let encoded = Msg::Data(frame).encode().expect("encodable");
        prop_assert_eq!(encoded.capacity(), encoded.len());
        prop_assert_eq!(encoded, encode_frame(0x10, &payload).expect("under the cap"));
    }

    /// Trailing garbage after a valid payload rejects.
    #[test]
    fn trailing_bytes_reject(msg in msg_strategy(), extra in proptest::collection::vec(any::<u8>(), 1..16)) {
        let mut frame = msg.encode().expect("encodable");
        frame.extend_from_slice(&extra);
        prop_assert!(Msg::decode(&frame).is_err());
    }

    /// The sealed payload of a data frame survives framing byte for byte:
    /// what decodes is exactly the ciphertext that was framed, and the
    /// envelope exposes nothing else.
    #[test]
    fn sealed_payload_is_opaque_and_exact(
        sealed in proptest::collection::vec(any::<u8>(), 0..512),
        src in any::<u32>(),
        seq in any::<u64>(),
    ) {
        let frame = Msg::Data(DataFrame {
            src,
            dst: src.wrapping_add(1),
            seq,
            epoch: 0,
            iteration: 1,
            micro_batch: 2,
            sealed: sealed.clone(),
        })
        .encode()
        .expect("encodable");
        match Msg::decode(&frame).expect("decodable") {
            Msg::Data(d) => prop_assert_eq!(d.sealed, sealed),
            other => prop_assert!(false, "wrong variant {:?}", other),
        }
    }

    /// The raw frame layer round-trips any kind/payload, and every
    /// header-level truncation rejects — checked against the generic
    /// framing, independent of the message layer above it.
    #[test]
    fn raw_frame_roundtrip(kind in 0u32..256, payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let kind = kind as u8;
        let frame = encode_frame(kind, &payload).expect("under the cap");
        let (k, p) = decode_frame(&frame).expect("decodable");
        prop_assert_eq!(k, kind);
        prop_assert_eq!(p, &payload[..]);
        for cut in 0..HEADER_LEN {
            prop_assert!(decode_frame(&frame[..cut]).is_err());
        }
    }
}
