//! The project-invariant rule catalog.
//!
//! Every rule here encodes an invariant the rest of the workspace relies
//! on dynamically (end-of-run lockstep audits, property tests, chaos
//! benches) but could silently lose to a single careless edit. The linter
//! makes the invariant *structural*: a violation fails the build with a
//! `file:line` diagnostic carrying the rule id below.
//!
//! | id    | rule |
//! |-------|------|
//! | PL001 | every `unsafe` block/fn carries a `SAFETY:` comment |
//! | PL002 | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in lib code outside tests |
//! | PL003 | no literal IVs/nonces or hand-rolled IV counter arithmetic outside `pipellm-crypto` |
//! | PL004 | crypto open call sites must handle failure (no `?` / `unwrap` / `expect`) |
//! | PL005 | no `println!`/`eprintln!`/`dbg!` in lib code outside tests |
//! | PL006 | no wall-clock reads (`Instant::now`/`SystemTime::now`) in crypto hot-path modules |
//! | PL007 | frame magic/size constants live only in `net::frame` |
//! | PL008 | timing literals (`Duration::from_*`) in `pipellm-net` live only in `net::proto` |
//!
//! Scope notes baked into the catalog:
//!
//! - "lib code" means files under a crate's `src/` excluding `src/bin/`;
//!   binaries, examples, benches, integration tests, and `#[cfg(test)]`
//!   regions are exempt from PL002/PL003/PL004/PL005/PL007.
//! - PL003 exempts the whole `pipellm-crypto` crate: IV/nonce construction
//!   is that crate's job, with `crypto::channel` as the enforcement point
//!   every other crate must go through.
//! - PL004 exempts the whole `pipellm-crypto` crate too — it *implements*
//!   the open protocol and the sentinel/skip discipline the rule forces
//!   callers onto, so its internal wrappers legitimately propagate.
//! - PL006 applies to the crypto hot-path modules (`aes`, `gcm`, `hw`,
//!   `kv`, `channel`) where a wall-clock read in a seal/open loop would
//!   perturb the timing model and the benches.
//! - PL008 applies only to `pipellm-net` lib code: heartbeat intervals,
//!   suspect/dead deadlines, resend/backoff and poll intervals are tuning
//!   knobs the supervisor, workers and benches must agree on, so their
//!   defaults live in `net::proto`, a run sets them on `NetPipelineSpec`
//!   or `SupervisedOptions`, and workers receive them in their
//!   `ShardManifest` — a `Duration::from_millis(300)` buried in
//!   `worker.rs` is a fork of that contract.

use crate::context::SourceFile;
use crate::lexer::{Delim, TokenKind};

/// Machine-readable rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleId {
    /// `unsafe` without a `SAFETY:` comment.
    UnsafeNeedsSafetyComment,
    /// Panicking call in lib code.
    NoPanicInLib,
    /// IV/nonce literal or counter arithmetic outside the crypto crate.
    IvLiteralsConfined,
    /// Unhandled crypto open result.
    OpenMustBeHandled,
    /// Debug printing in lib code.
    NoDebugPrintInLib,
    /// Wall-clock read in a crypto hot-path module.
    NoClockInCryptoHotPath,
    /// Frame magic/size constant outside `net::frame`.
    FrameConstantsConfined,
    /// `Duration::from_*` literal in net lib code outside `net::proto`.
    SupervisionTimingConfined,
}

impl RuleId {
    /// The stable diagnostic id (`PL001`…).
    pub fn id(self) -> &'static str {
        match self {
            RuleId::UnsafeNeedsSafetyComment => "PL001",
            RuleId::NoPanicInLib => "PL002",
            RuleId::IvLiteralsConfined => "PL003",
            RuleId::OpenMustBeHandled => "PL004",
            RuleId::NoDebugPrintInLib => "PL005",
            RuleId::NoClockInCryptoHotPath => "PL006",
            RuleId::FrameConstantsConfined => "PL007",
            RuleId::SupervisionTimingConfined => "PL008",
        }
    }

    /// Parses a `PL00x` id.
    pub fn from_id(s: &str) -> Option<RuleId> {
        Some(match s {
            "PL001" => RuleId::UnsafeNeedsSafetyComment,
            "PL002" => RuleId::NoPanicInLib,
            "PL003" => RuleId::IvLiteralsConfined,
            "PL004" => RuleId::OpenMustBeHandled,
            "PL005" => RuleId::NoDebugPrintInLib,
            "PL006" => RuleId::NoClockInCryptoHotPath,
            "PL007" => RuleId::FrameConstantsConfined,
            "PL008" => RuleId::SupervisionTimingConfined,
            _ => return None,
        })
    }

    /// All rules, in id order.
    pub fn all() -> [RuleId; 8] {
        [
            RuleId::UnsafeNeedsSafetyComment,
            RuleId::NoPanicInLib,
            RuleId::IvLiteralsConfined,
            RuleId::OpenMustBeHandled,
            RuleId::NoDebugPrintInLib,
            RuleId::NoClockInCryptoHotPath,
            RuleId::FrameConstantsConfined,
            RuleId::SupervisionTimingConfined,
        ]
    }
}

/// How a file participates in the build — decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library source (`crates/*/src/**`, excluding `src/bin/`).
    Lib,
    /// A binary (`src/bin/**`) — prints and unwraps are its job.
    Bin,
    /// An integration test (`tests/**`).
    Test,
    /// An example (`examples/**`).
    Example,
}

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// The trimmed source line (also the allowlist match target).
    pub snippet: String,
}

/// Classifies a workspace-relative path (see [`FileClass`]).
pub fn classify(path: &str) -> FileClass {
    let p = path.replace('\\', "/");
    if p.contains("/src/bin/") {
        FileClass::Bin
    } else if p.starts_with("examples/") || p.contains("/examples/") || p.contains("/benches/") {
        FileClass::Example
    } else if p.starts_with("tests/") || p.contains("/tests/") {
        FileClass::Test
    } else {
        FileClass::Lib
    }
}

/// Runs the whole catalog over one file.
pub fn check_file(file: &SourceFile, class: FileClass) -> Vec<Finding> {
    let mut out = Vec::new();
    rule_unsafe_safety(file, &mut out);
    if class == FileClass::Lib {
        rule_no_panic(file, &mut out);
        rule_iv_literals(file, &mut out);
        rule_open_handled(file, &mut out);
        rule_no_debug_print(file, &mut out);
        rule_no_clock_in_hot_path(file, &mut out);
        rule_frame_constants(file, &mut out);
        rule_timing_confined(file, &mut out);
    }
    out.sort_by_key(|f| f.line);
    out
}

fn finding(file: &SourceFile, rule: RuleId, line: u32, message: String) -> Finding {
    Finding {
        rule,
        file: file.path.clone(),
        line,
        message,
        snippet: file.line_text(line).to_string(),
    }
}

/// PL001: every `unsafe` block or `unsafe fn` must carry a comment
/// containing `SAFETY` nearby — immediately above (within a few lines, so a
/// `let x = unsafe { … }` binding prefix or an attribute can intervene) or
/// as the first token inside the block. Applies everywhere, tests included.
fn rule_unsafe_safety(file: &SourceFile, out: &mut Vec<Finding>) {
    for (i, tok) in file.tokens.iter().enumerate() {
        if !tok.is_ident("unsafe") {
            continue;
        }
        let Some(next) = file.next_code(i + 1) else {
            continue;
        };
        let next_tok = &file.tokens[next];
        let (is_block, lookback) = match next_tok.kind {
            TokenKind::Open(Delim::Brace) => (true, 8),
            TokenKind::Ident if next_tok.text == "fn" => (false, 24),
            _ => continue, // `unsafe impl` / `unsafe trait`: no body of their own
        };
        let line = tok.line;
        let documented = has_safety_comment_before(file, i, line, lookback)
            || (is_block && first_inside_is_safety(file, next));
        if !documented {
            let what = if is_block {
                "unsafe block"
            } else {
                "unsafe fn"
            };
            out.push(finding(
                file,
                RuleId::UnsafeNeedsSafetyComment,
                line,
                format!("{what} without a `SAFETY:` comment"),
            ));
        }
    }
}

fn has_safety_comment_before(file: &SourceFile, before: usize, line: u32, lookback: u32) -> bool {
    let floor = line.saturating_sub(lookback);
    file.tokens[..before]
        .iter()
        .rev()
        .take_while(|t| t.line >= floor)
        .any(|t| t.is_comment() && mentions_safety(&t.text))
}

fn first_inside_is_safety(file: &SourceFile, open: usize) -> bool {
    file.tokens
        .get(open + 1)
        .is_some_and(|t| t.is_comment() && mentions_safety(&t.text))
}

fn mentions_safety(comment: &str) -> bool {
    comment.contains("SAFETY") || comment.contains("Safety")
}

/// PL002: `unwrap`/`expect` method calls and `panic!`/`todo!`/
/// `unimplemented!` invocations are forbidden in non-test lib code. Every
/// exception needs an allowlist entry with a justification.
fn rule_no_panic(file: &SourceFile, out: &mut Vec<Finding>) {
    for (i, tok) in file.tokens.iter().enumerate() {
        if file.in_test[i] || tok.kind != TokenKind::Ident {
            continue;
        }
        let name = tok.text.as_str();
        let is_method = matches!(name, "unwrap" | "expect")
            && i > 0
            && file.tokens[i - 1].is_punct('.')
            && file
                .tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Open(Delim::Paren));
        let is_macro = matches!(name, "panic" | "todo" | "unimplemented")
            && file.tokens.get(i + 1).is_some_and(|t| t.is_punct('!'));
        if is_method {
            out.push(finding(
                file,
                RuleId::NoPanicInLib,
                tok.line,
                format!("`.{name}()` in lib code — return an error or justify via the allowlist"),
            ));
        } else if is_macro {
            out.push(finding(
                file,
                RuleId::NoPanicInLib,
                tok.line,
                format!("`{name}!` in lib code — return an error or justify via the allowlist"),
            ));
        }
    }
}

/// Whether an identifier names an IV/nonce (`iv`, `start_iv`, `next_iv`,
/// `nonce`, … — matched per `_`-separated segment, so `derive`/`given` do
/// not trip it).
fn names_iv(ident: &str) -> bool {
    ident.split('_').any(|seg| {
        matches!(
            seg.to_ascii_lowercase().as_str(),
            "iv" | "ivs" | "nonce" | "nonces"
        )
    })
}

/// PL003: outside `pipellm-crypto`, IV/nonce-named bindings must not be
/// assigned integer literals (`iv: 7`, `nonce = 0`) and must not be
/// advanced by hand (`iv += 1`, `next_iv() + k`): counters belong to
/// `crypto::channel`, which is the only place that can keep them gapless
/// and reuse-free.
fn rule_iv_literals(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.path.starts_with("crates/crypto/src") {
        return;
    }
    for (i, tok) in file.tokens.iter().enumerate() {
        if file.in_test[i] || tok.kind != TokenKind::Ident || !names_iv(&tok.text) {
            continue;
        }
        // `iv: <int>` or `iv = <int>` (but not `==`).
        let mut j = i + 1;
        if file
            .tokens
            .get(j)
            .is_some_and(|t| t.kind == TokenKind::Open(Delim::Paren))
        {
            // Skip an empty call `next_iv()`.
            if file
                .tokens
                .get(j + 1)
                .is_some_and(|t| t.kind == TokenKind::Close(Delim::Paren))
            {
                j += 2;
            } else {
                continue;
            }
        }
        let Some(after) = file.tokens.get(j) else {
            continue;
        };
        // `iv == 5` is fine (tokens[j+1] is `=`, not a literal); `iv != 5`
        // and `iv <= 5` never reach here (tokens[j] is `!`/`<`).
        let assigns_literal = (after.is_punct(':') || after.is_punct('='))
            && file
                .tokens
                .get(j + 1)
                .is_some_and(|t| matches!(t.kind, TokenKind::Num { .. }));
        let hand_rolled = after.is_punct('+') || after.is_punct('-');
        if assigns_literal {
            out.push(finding(
                file,
                RuleId::IvLiteralsConfined,
                tok.line,
                format!(
                    "literal IV/nonce assignment to `{}` outside pipellm-crypto",
                    tok.text
                ),
            ));
        } else if hand_rolled {
            out.push(finding(
                file,
                RuleId::IvLiteralsConfined,
                tok.line,
                format!(
                    "hand-rolled IV counter arithmetic on `{}` outside pipellm-crypto",
                    tok.text
                ),
            ));
        }
    }
}

/// Crypto opens whose results must be handled at the call site: the
/// fallible opens of the `crypto::channel` core (`Endpoint::open`, the
/// `RxContext` / `DeferredOpen` in-place opens and their sentinel variants)
/// plus `crypto::kv::open_kv_group`.
const OPEN_METHODS: &[&str] = &[
    "open",
    "open_in_place",
    "open_in_place_or_sentinel",
    "open_kv_group",
];

/// PL004: a crypto open call — a method call `.open…(` or a path call
/// `::open…(` — must not `?`-propagate or `unwrap`/`expect` its result:
/// past the lockstep point the only sound reactions to a failed open are
/// the sentinel/skip discipline or an explicit match that keeps the
/// endpoints in step. A sentinel open's error is an event to account (the
/// frame burned its IV and must be retried), not an exit.
fn rule_open_handled(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.path.starts_with("crates/crypto/src") {
        return; // the implementation of the discipline itself
    }
    for (i, tok) in file.tokens.iter().enumerate() {
        if file.in_test[i]
            || tok.kind != TokenKind::Ident
            || !OPEN_METHODS.contains(&tok.text.as_str())
            || i == 0
            || !(file.tokens[i - 1].is_punct('.') || file.tokens[i - 1].is_punct(':'))
        {
            continue;
        }
        let Some(open) = file.tokens.get(i + 1) else {
            continue;
        };
        if open.kind != TokenKind::Open(Delim::Paren) {
            continue;
        }
        let Some(close) = matching_close(file, i + 1) else {
            continue;
        };
        let Some(after) = file.next_code(close + 1) else {
            continue;
        };
        let t = &file.tokens[after];
        let unhandled = if t.is_punct('?') {
            true
        } else if t.is_punct('.') {
            file.tokens
                .get(after + 1)
                .is_some_and(|m| m.is_ident("unwrap") || m.is_ident("expect"))
        } else {
            false
        };
        if unhandled {
            out.push(finding(
                file,
                RuleId::OpenMustBeHandled,
                tok.line,
                format!(
                    "`.{}(…)` result propagated/unwrapped — handle via sentinel/skip or an explicit match",
                    tok.text
                ),
            ));
        }
    }
}

/// Index of the `)` matching the `(` at `open`.
fn matching_close(file: &SourceFile, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in file.tokens.iter().enumerate().skip(open) {
        match t.kind {
            TokenKind::Open(Delim::Paren) => depth += 1,
            TokenKind::Close(Delim::Paren) => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// PL005: `println!`/`print!`/`eprintln!`/`eprint!`/`dbg!` in non-test lib
/// code. Binaries own stdout; libraries return data.
fn rule_no_debug_print(file: &SourceFile, out: &mut Vec<Finding>) {
    for (i, tok) in file.tokens.iter().enumerate() {
        if file.in_test[i] || tok.kind != TokenKind::Ident {
            continue;
        }
        if matches!(
            tok.text.as_str(),
            "println" | "print" | "eprintln" | "eprint" | "dbg"
        ) && file.tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
        {
            out.push(finding(
                file,
                RuleId::NoDebugPrintInLib,
                tok.line,
                format!("`{}!` in lib code", tok.text),
            ));
        }
    }
}

/// Crypto modules on the seal/open hot path, where a wall-clock read would
/// distort the paper's timing model (and costs real throughput).
const HOT_PATH_FILES: &[&str] = &[
    "crates/crypto/src/aes.rs",
    "crates/crypto/src/gcm.rs",
    "crates/crypto/src/hw.rs",
    "crates/crypto/src/kv.rs",
    "crates/crypto/src/channel.rs",
];

/// PL006: no `Instant::now` / `SystemTime::now` in the crypto hot-path
/// modules (outside tests). Calibration probes must be allowlisted with a
/// justification.
fn rule_no_clock_in_hot_path(file: &SourceFile, out: &mut Vec<Finding>) {
    if !HOT_PATH_FILES.contains(&file.path.as_str()) {
        return;
    }
    for (i, tok) in file.tokens.iter().enumerate() {
        if file.in_test[i] || tok.kind != TokenKind::Ident {
            continue;
        }
        if (tok.text == "Instant" || tok.text == "SystemTime")
            && file.tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && file.tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && file.tokens.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            out.push(finding(
                file,
                RuleId::NoClockInCryptoHotPath,
                tok.line,
                format!("`{}::now` in a crypto hot-path module", tok.text),
            ));
        }
    }
}

/// The frame-layer constants that must stay confined (and their values).
const FRAME_LEN_VALUE: u128 = 64 << 20;

/// PL007: the wire magic (`b"PL"` / `0x4C50`) and the frame-size cap
/// (`64 << 20`) are referenced only from `net::frame`; everywhere else
/// must name the `frame::MAGIC` / `frame::MAX_FRAME_LEN` constants, so a
/// protocol bump cannot leave a stale copy behind. Redefining constants
/// with those names elsewhere is equally a violation.
fn rule_frame_constants(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.path == "crates/net/src/frame.rs" {
        return;
    }
    for (i, tok) in file.tokens.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        match &tok.kind {
            TokenKind::ByteStr if tok.text == "PL" => {
                out.push(finding(
                    file,
                    RuleId::FrameConstantsConfined,
                    tok.line,
                    "literal frame magic `b\"PL\"` outside net::frame".to_string(),
                ));
            }
            TokenKind::Num { value: Some(v) } if *v == FRAME_LEN_VALUE => {
                out.push(finding(
                    file,
                    RuleId::FrameConstantsConfined,
                    tok.line,
                    "literal frame-size cap outside net::frame".to_string(),
                ));
            }
            TokenKind::Num { value: Some(64) }
                if file.path.starts_with("crates/net/")
                    && file.tokens.get(i + 1).is_some_and(|t| t.is_punct('<'))
                    && file.tokens.get(i + 2).is_some_and(|t| t.is_punct('<'))
                    && file
                        .tokens
                        .get(i + 3)
                        .is_some_and(|t| t.kind == (TokenKind::Num { value: Some(20) })) =>
            {
                out.push(finding(
                    file,
                    RuleId::FrameConstantsConfined,
                    tok.line,
                    "`64 << 20` frame-size expression outside net::frame".to_string(),
                ));
            }
            TokenKind::Ident
                if tok.text == "const"
                    && file.tokens.get(i + 1).is_some_and(|t| {
                        matches!(t.text.as_str(), "MAGIC" | "MAX_FRAME_LEN" | "HEADER_LEN")
                    })
                    && file.path.starts_with("crates/net/") =>
            {
                out.push(finding(
                    file,
                    RuleId::FrameConstantsConfined,
                    tok.line,
                    format!(
                        "redefinition of frame constant `{}` outside net::frame",
                        file.tokens[i + 1].text
                    ),
                ));
            }
            _ => {}
        }
    }
}

/// The `Duration` constructors whose literal use PL008 confines.
const DURATION_CTORS: &[&str] = &["from_millis", "from_secs", "from_micros", "from_nanos"];

/// PL008: in `pipellm-net` lib code outside `net::proto`, a
/// `Duration::from_*(<integer literal>)` is a forked timing knob: the
/// heartbeat interval, suspect/dead deadlines, resend sweep, poll interval
/// and dial/backoff pacing are a *contract* between the supervisor, the
/// workers, the chaos benches and the deterministic models. Its defaults
/// are written down once, as `net::proto` constants; a run sets them on
/// `NetPipelineSpec` / `SupervisedOptions`, and a worker reads them from
/// its `ShardManifest`. Everywhere else must name a proto constant or
/// read one of those fields.
fn rule_timing_confined(file: &SourceFile, out: &mut Vec<Finding>) {
    if !file.path.starts_with("crates/net/src") || file.path == "crates/net/src/proto.rs" {
        return;
    }
    for (i, tok) in file.tokens.iter().enumerate() {
        if file.in_test[i] || !tok.is_ident("Duration") {
            continue;
        }
        let path_call = file.tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && file.tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && file
                .tokens
                .get(i + 3)
                .is_some_and(|t| DURATION_CTORS.contains(&t.text.as_str()))
            && file
                .tokens
                .get(i + 4)
                .is_some_and(|t| t.kind == TokenKind::Open(Delim::Paren))
            && file
                .tokens
                .get(i + 5)
                .is_some_and(|t| matches!(t.kind, TokenKind::Num { .. }));
        if path_call {
            out.push(finding(
                file,
                RuleId::SupervisionTimingConfined,
                tok.line,
                format!(
                    "`Duration::{}(…)` literal in net lib code — name a `net::proto` constant or read a `NetPipelineSpec` / `SupervisedOptions` / `ShardManifest` field",
                    file.tokens[i + 3].text
                ),
            ));
        }
    }
}
