//! Length-delimited framing: the one wire format every byte rides in.
//!
//! ```text
//!  0      2      3      4              8
//!  +------+------+------+--------------+----------------- - - -
//!  | magic| ver  | kind | payload len  | payload (len bytes)
//!  | u16  | u8   | u8   | u32 LE       |
//!  +------+------+------+--------------+----------------- - - -
//! ```
//!
//! The header is fixed at [`HEADER_LEN`] bytes; `magic` is [`MAGIC`]
//! (`"PL"`), `ver` is [`crate::proto::PROTO_VERSION`], `kind` selects the
//! message decoder, and `len` counts payload bytes only. Streams are
//! self-delimiting: a reader pulls one header, then exactly `len` bytes.
//! Anything else — wrong magic, version skew, a length over
//! [`MAX_FRAME_LEN`], a short read — is a clean [`NetError`], never a
//! panic.

use crate::error::{NetError, NetResult};
use crate::proto::{POOLED_MIN, POOL_BOUND, PROTO_VERSION};
use std::io::Read;
use std::sync::{Arc, Mutex, PoisonError};

/// First two bytes of every frame: `b"PL"` little-endian.
pub const MAGIC: u16 = u16::from_le_bytes(*b"PL");

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 8;

/// Hard cap on a frame's payload: large enough for any activation shard
/// this repo ships (the default micro-batch is 4 KiB, the benchmark's
/// largest 1 MiB), small enough that a corrupted length field cannot make
/// a receiver allocate the moon.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// At most [`POOL_BOUND`] recycled buffers of [`POOLED_MIN`] bytes or more,
/// shared by one actor's event loop and pumps; a buffer is only cleared
/// and refilled, never read past its length.
#[derive(Clone, Debug, Default)]
pub struct FramePool(Arc<Mutex<Vec<Vec<u8>>>>);

impl FramePool {
    /// An empty buffer with room for `len` bytes: the last one given back if
    /// its capacity is `len` to `len + len / 8` (so no buffer kept as an
    /// output carries much slack), else a fresh one of exactly `len`.
    pub fn take(&self, len: usize) -> Vec<u8> {
        let pooled = (len >= POOLED_MIN)
            .then(|| self.0.lock().unwrap_or_else(PoisonError::into_inner).pop())
            .flatten();
        pooled
            .filter(|buf| (len..=len + len / 8).contains(&buf.capacity()))
            .unwrap_or_else(|| Vec::with_capacity(len))
    }

    /// Clears `buf` and keeps it for reuse, unless it is small or the pool
    /// full.
    pub fn give(&self, mut buf: Vec<u8>) {
        if buf.capacity() >= POOLED_MIN {
            let mut pool = self.0.lock().unwrap_or_else(PoisonError::into_inner);
            if pool.len() < POOL_BOUND {
                buf.clear();
                pool.push(buf);
            }
        }
    }
}

/// Encodes one frame: header plus payload, ready for the wire.
///
/// # Errors
///
/// [`NetError::Oversize`] if `payload` exceeds [`MAX_FRAME_LEN`].
pub fn encode_frame(kind: u8, payload: &[u8]) -> NetResult<Vec<u8>> {
    let mut w = Writer::frame(kind, payload.len());
    w.0.extend_from_slice(payload);
    w.finish_frame(0)
}

/// Validates a complete frame and returns `(kind, payload)`.
///
/// # Errors
///
/// - [`NetError::Truncated`] if the bytes end before the header or the
///   declared payload length;
/// - [`NetError::BadMagic`] / [`NetError::VersionSkew`] for a foreign or
///   version-skewed peer;
/// - [`NetError::Oversize`] for a length over the cap;
/// - [`NetError::TrailingBytes`] if bytes follow the payload.
pub fn decode_frame(bytes: &[u8]) -> NetResult<(u8, &[u8])> {
    let Some((header, body)) = bytes.split_first_chunk::<HEADER_LEN>() else {
        return Err(NetError::Truncated {
            need: HEADER_LEN,
            got: bytes.len(),
        });
    };
    let (kind, len) = parse_header(header)?;
    if body.len() < len {
        return Err(NetError::Truncated {
            need: len,
            got: body.len(),
        });
    }
    if body.len() > len {
        return Err(NetError::TrailingBytes {
            extra: body.len() - len,
        });
    }
    Ok((kind, body))
}

/// Reads one frame off a blocking byte stream, returning the complete
/// frame bytes (header included).
///
/// # Errors
///
/// [`NetError::ConnectionLost`] on EOF, [`NetError::Io`] on read errors,
/// plus every validation error of [`decode_frame`]'s header phase.
pub fn read_frame<R: Read>(reader: &mut R, link: &str) -> NetResult<Vec<u8>> {
    let mut header = [0u8; HEADER_LEN];
    read_exact(reader, &mut header, link)?;
    let (_, len) = parse_header(&header)?;
    let mut frame = vec![0u8; HEADER_LEN + len];
    frame[..HEADER_LEN].copy_from_slice(&header);
    read_exact(reader, &mut frame[HEADER_LEN..], link)?;
    Ok(frame)
}

/// Validates a header's magic, version and length cap; returns `(kind,
/// payload length)`.
pub(crate) fn parse_header(header: &[u8; HEADER_LEN]) -> NetResult<(u8, usize)> {
    let magic = u16::from_le_bytes([header[0], header[1]]);
    if magic != MAGIC {
        return Err(NetError::BadMagic { got: magic });
    }
    if header[2] != PROTO_VERSION {
        return Err(NetError::VersionSkew {
            got: header[2],
            want: PROTO_VERSION,
        });
    }
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(NetError::Oversize {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    Ok((header[3], len))
}

fn read_exact<R: Read>(reader: &mut R, buf: &mut [u8], link: &str) -> NetResult<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(NetError::ConnectionLost {
                    link: link.to_string(),
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::ConnectionReset
                    || e.kind() == std::io::ErrorKind::ConnectionAborted
                    || e.kind() == std::io::ErrorKind::BrokenPipe =>
            {
                return Err(NetError::ConnectionLost {
                    link: link.to_string(),
                })
            }
            Err(e) => return Err(NetError::io("read_frame", &e)),
        }
    }
    Ok(())
}

/// Little-endian field writer for message payloads.
#[derive(Default)]
pub(crate) struct Writer(pub Vec<u8>);

impl Writer {
    /// A frame's header, length zero, with room for `payload` bytes.
    pub fn frame(kind: u8, payload: usize) -> Self {
        let mut out = Vec::with_capacity(HEADER_LEN + payload);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.push(PROTO_VERSION);
        out.push(kind);
        out.extend_from_slice(&0u32.to_le_bytes());
        Writer(out)
    }

    /// Writes the length into a [`Writer::frame`]'s header, counting `body`
    /// bytes the caller writes later; errs over the cap.
    pub fn finish_frame(mut self, body: usize) -> NetResult<Vec<u8>> {
        let len = self.0.len() - HEADER_LEN + body;
        if len > MAX_FRAME_LEN {
            return Err(NetError::Oversize {
                len,
                max: MAX_FRAME_LEN,
            });
        }
        self.0[4..HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
        Ok(self.0)
    }

    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Length-prefixed byte slice (u32 length).
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v);
    }
}

/// Little-endian field reader; every accessor fails cleanly on short input.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> NetResult<&'a [u8]> {
        let end = self.at.checked_add(n).ok_or(NetError::Malformed {
            what: "length overflow",
        })?;
        if end > self.buf.len() {
            return Err(NetError::Truncated {
                need: n,
                got: self.buf.len() - self.at,
            });
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    pub fn u32(&mut self) -> NetResult<u32> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    pub fn u64(&mut self) -> NetResult<u64> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    /// Length-prefixed byte slice (u32 length).
    pub fn bytes(&mut self) -> NetResult<&'a [u8]> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME_LEN {
            return Err(NetError::Oversize {
                len,
                max: MAX_FRAME_LEN,
            });
        }
        self.take(len)
    }

    /// Fails if any input remains unconsumed.
    pub fn finish(self) -> NetResult<()> {
        if self.at != self.buf.len() {
            return Err(NetError::TrailingBytes {
                extra: self.buf.len() - self.at,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrips() {
        let frame = encode_frame(7, b"hello wire").unwrap();
        let (kind, payload) = decode_frame(&frame).unwrap();
        assert_eq!(kind, 7);
        assert_eq!(payload, b"hello wire");
    }

    #[test]
    fn bad_magic_rejects() {
        let mut frame = encode_frame(1, b"x").unwrap();
        frame[0] ^= 0xFF;
        assert!(matches!(
            decode_frame(&frame),
            Err(NetError::BadMagic { .. })
        ));
    }

    #[test]
    fn version_skew_rejects() {
        let mut frame = encode_frame(1, b"x").unwrap();
        frame[2] = PROTO_VERSION + 1;
        assert!(matches!(
            decode_frame(&frame),
            Err(NetError::VersionSkew { got, want }) if got == PROTO_VERSION + 1 && want == PROTO_VERSION
        ));
    }

    #[test]
    fn truncation_rejects() {
        let frame = encode_frame(1, b"some payload").unwrap();
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_reject() {
        let mut frame = encode_frame(1, b"p").unwrap();
        frame.push(0);
        assert!(matches!(
            decode_frame(&frame),
            Err(NetError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn oversize_length_rejects_without_allocating() {
        let mut frame = encode_frame(1, b"x").unwrap();
        frame[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&frame),
            Err(NetError::Oversize { .. })
        ));
    }

    #[test]
    fn a_pool_holds_at_most_its_bound_and_only_large_buffers() {
        let pool = FramePool::default();
        let held = || pool.0.lock().unwrap().len();
        pool.give(Vec::with_capacity(POOLED_MIN - 1));
        assert_eq!(held(), 0, "a small buffer is freed");
        for _ in 0..2 * POOL_BOUND {
            pool.give(vec![0xAB; POOLED_MIN]);
        }
        assert_eq!(held(), POOL_BOUND);
        let buf = pool.take(POOLED_MIN);
        assert!(buf.is_empty() && buf.capacity() >= POOLED_MIN, "cleared");
        assert_eq!(held(), POOL_BOUND - 1);
        assert_eq!(pool.take(2 * POOLED_MIN).capacity(), 2 * POOLED_MIN);
        assert_eq!(held(), POOL_BOUND - 2, "too small: freed");
        pool.give(Vec::with_capacity(8 * POOLED_MIN));
        assert_eq!(pool.take(POOLED_MIN).capacity(), POOLED_MIN);
        assert_eq!(held(), POOL_BOUND - 2, "too large: freed");
        assert_eq!(pool.take(64).capacity(), 64);
        assert_eq!(held(), POOL_BOUND - 2, "small takes skip the pool");
    }

    #[test]
    fn stream_reader_consumes_exactly_one_frame() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_frame(1, b"first").unwrap());
        stream.extend_from_slice(&encode_frame(2, b"second").unwrap());
        let mut cursor = &stream[..];
        let f1 = read_frame(&mut cursor, "test").unwrap();
        let f2 = read_frame(&mut cursor, "test").unwrap();
        assert_eq!(decode_frame(&f1).unwrap(), (1, &b"first"[..]));
        assert_eq!(decode_frame(&f2).unwrap(), (2, &b"second"[..]));
        assert!(matches!(
            read_frame(&mut cursor, "test"),
            Err(NetError::ConnectionLost { .. })
        ));
    }
}
