//! Project-invariant static analysis and deterministic concurrency checking
//! for the PipeLLM workspace.
//!
//! Two engines live here:
//!
//! - **`pipellm-lint`** (the [`rules`] / [`allowlist`] / [`workspace`]
//!   modules plus the `pipellm-lint` binary): a workspace-aware static
//!   analyzer built on a hand-rolled Rust lexer ([`lexer`]) and a
//!   structural context pass ([`context`]). It enforces the project's
//!   crypto/net discipline — `// SAFETY:` on every `unsafe`, no panics in
//!   lib code, IV/nonce construction confined to `crypto::channel`,
//!   crypto open call sites must handle `CryptoError` via the sentinel/skip
//!   protocol, frame constants confined to `net::frame`, and more. See
//!   [`rules::RuleId`] for the catalog.
//! - **[`interleave`]**: a miniature deterministic scheduler that
//!   exhaustively explores yield-point interleavings of small models of
//!   the `CryptoEngine` job queue and the ARQ link epoch/IV state machine,
//!   asserting no IV reuse, no lost wakeup, and no stale-epoch open under
//!   *every* schedule — not just the ones the OS happens to produce.
//!
//! Both engines are hermetic: no dependencies outside `std`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod allowlist;
pub mod context;
pub mod interleave;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod workspace;
