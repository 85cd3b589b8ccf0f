//! Cryptographic substrate for the PipeLLM reproduction.
//!
//! NVIDIA H100 confidential computing encrypts every CPU↔GPU transfer with
//! AES-GCM under a session key and a strictly incrementing Initialization
//! Vector (IV) that is implicitly synchronized between both endpoints
//! (PipeLLM paper, §2.2 and Figure 1). This crate provides:
//!
//! - [`aes`]: the AES-128/AES-256 block cipher, implemented from first
//!   principles (S-box, key schedule, rounds) and checked against FIPS-197
//!   vectors. The hot multi-block entry point dispatches to AES-NI where
//!   the CPU has it, with a four-T-table software path everywhere else.
//! - [`gcm`]: Galois/Counter Mode on top of AES, including the GHASH
//!   universal hash over GF(2^128) (8-bit Shoup tables, or PCLMULQDQ on
//!   x86_64), checked against NIST CAVP vectors, with zero-copy
//!   `seal_in_place`/`open_in_place` entry points.
//! - [`hw`]: the runtime-detected hardware acceleration layer backing the
//!   two fast paths above.
//! - [`engine`]: the multi-threaded crypto engine — a persistent pool of
//!   worker threads servicing chunked seal/open gangs (large payloads are
//!   split into segments whose CTR keystreams and partial GHASHes run
//!   concurrently, combined into the standard tag, bit-identical to the
//!   sequential path) and background deferred-open jobs.
//! - [`channel`]: [`channel::SecureChannel`], a pair of endpoints that model
//!   the CPU-side and GPU-side encryption engines with the exact IV
//!   discipline PipeLLM exploits and must not break: each encryption consumes
//!   the next IV, IVs never repeat, and decrypting with the wrong IV fails
//!   authentication. Its core is ten seal/open methods, one per protocol
//!   job: committed and speculative seals of staged buffers (single and
//!   batched), in-place opens at the counter and at a deferred
//!   reservation (each with a sentinel variant), and the copying
//!   [`channel::Endpoint::seal`] / [`channel::Endpoint::open`].
//! - [`cost`]: a calibrated throughput model for the CPU encryption engine,
//!   used by the timing layer (`pipellm-sim`) so benchmarks can move
//!   *virtual* multi-gigabyte payloads without encrypting them.
//! - [`kv`]: multi-block sealing for the encrypted paged KV cache — a
//!   group of KV blocks sealed back to back at consecutive channel IVs,
//!   with AAD binding each block to its group, index, and size, and
//!   deferred per-block opens so decryption can run off the critical path.
//! - [`session`]: the multi-tenant session layer — [`session::SessionId`]
//!   and [`session::SessionManager`], which derive per-session
//!   [`channel::ChannelKeys`] from a root secret, own one channel pair per
//!   session, and rekey sessions whose IV counters approach exhaustion.
//! - [`edge`]: the one edge type — [`edge::WireEdge`] and
//!   [`edge::EdgeCrypto`], an edge's key root, role, epoch and IV
//!   counters at one endpoint, held the same way by the simulated cluster
//!   and by every process of a networked deployment.
//! - [`reuse`]: the **deliberately insecure** ciphertext-reuse strawman of
//!   the paper's §8.2 (static per-chunk nonces), built to demonstrate the
//!   replay attack the IV discipline prevents and to quantify the
//!   performance it trades away.
//!
//! # Example
//!
//! ```
//! use pipellm_crypto::channel::{ChannelKeys, SecureChannel};
//!
//! # fn main() -> Result<(), pipellm_crypto::CryptoError> {
//! let keys = ChannelKeys::from_seed(7);
//! let mut channel = SecureChannel::new(keys);
//! let msg = b"kv-cache block 42";
//! let sealed = channel.host_mut().seal(msg)?;
//! let opened = channel.device_mut().open(&sealed)?;
//! assert_eq!(opened.as_slice(), msg);
//! # Ok(())
//! # }
//! ```

// `unsafe` is denied crate-wide; the exemptions are the [`hw`] module
// (runtime-detected AES-NI / PCLMULQDQ intrinsics) and the lifetime
// erasure inside [`engine`]'s scoped gang dispatch.
#![deny(unsafe_code)]
#![warn(missing_docs)]
// Library code must propagate crypto failures, never panic on them: a
// corrupted frame is a handled event (sentinel + retry), not a crash.
// Tests are exempt — an `unwrap` in a test *is* the assertion.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod aes;
pub mod channel;
pub mod cost;
pub mod edge;
pub mod engine;
pub mod gcm;
pub mod hw;
pub mod kv;
pub mod reuse;
pub mod session;

use std::error::Error;
use std::fmt;

/// Errors produced by the cryptographic substrate.
///
/// All failure modes are explicit because PipeLLM's error handler (§5.3 of
/// the paper) is driven by *which* way a speculative ciphertext is unusable.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// The authentication tag did not verify: the ciphertext was tampered
    /// with, or it was produced under a different IV than the receiver used.
    AuthenticationFailed {
        /// IV the receiving endpoint used for this decryption attempt.
        expected_iv: u64,
    },
    /// An encryption was requested with an IV that this endpoint has already
    /// consumed. Reusing an IV under GCM is catastrophic, so the channel
    /// refuses rather than silently weakening security.
    IvReused {
        /// The IV that was requested again.
        iv: u64,
    },
    /// A send was committed at an IV that does not match the sender's
    /// counter. The caller must pad NOPs (if `iv > expected`) or discard the
    /// speculative ciphertext (if `iv < expected`, see [`CryptoError::IvReused`]).
    IvMismatch {
        /// IV carried by the message being committed.
        iv: u64,
        /// IV the sender's counter currently expects.
        expected: u64,
    },
    /// The sender's IV counter ran into the reserved exhaustion headroom
    /// near `u64::MAX`. Advancing further would eventually wrap the counter
    /// and silently reuse nonces, so the channel refuses; the session must
    /// be rekeyed (see [`session::SessionManager::rekey`]).
    IvExhausted {
        /// The counter value that hit the headroom.
        iv: u64,
    },
    /// A key of invalid length was supplied.
    InvalidKeyLength {
        /// Number of key bytes supplied.
        got: usize,
    },
    /// The ciphertext is too short to contain the authentication tag.
    TruncatedCiphertext {
        /// Number of ciphertext bytes supplied.
        got: usize,
    },
    /// The session an operation targets is not open.
    UnknownSession {
        /// The unknown id.
        session: session::SessionId,
    },
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::AuthenticationFailed { expected_iv } => {
                write!(f, "authentication failed at receiver IV {expected_iv}")
            }
            CryptoError::IvReused { iv } => write!(f, "refusing to reuse IV {iv}"),
            CryptoError::IvMismatch { iv, expected } => {
                write!(
                    f,
                    "committed IV {iv} does not match sender counter {expected}"
                )
            }
            CryptoError::IvExhausted { iv } => {
                write!(
                    f,
                    "IV counter {iv} is inside the exhaustion headroom; rekey the session"
                )
            }
            CryptoError::InvalidKeyLength { got } => {
                write!(f, "invalid key length {got}, expected 16 or 32 bytes")
            }
            CryptoError::TruncatedCiphertext { got } => {
                write!(
                    f,
                    "ciphertext of {got} bytes is shorter than the 16-byte tag"
                )
            }
            CryptoError::UnknownSession { session } => write!(f, "unknown {session}"),
        }
    }
}

impl Error for CryptoError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, CryptoError>;
