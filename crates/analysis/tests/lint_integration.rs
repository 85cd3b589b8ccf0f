//! End-to-end tests for `pipellm-lint`: seeded fixture violations must be
//! found with the exact rule id and line; the real workspace must lint
//! clean under the checked-in allowlist; invalid allowlists must be hard
//! errors.

use pipellm_analysis::workspace::{read_allowlist, run_lint, LintError};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn seeded_fixture_violations_are_found_with_exact_rule_and_line() {
    let report = run_lint(&fixture_root(), "").expect("fixture lint runs");
    let mut got: Vec<(String, String, u32)> = report
        .blocking
        .iter()
        .map(|f| (f.rule.id().to_string(), f.file.clone(), f.line))
        .collect();
    got.sort();
    let mut want: Vec<(String, String, u32)> = [
        ("PL006", "crates/crypto/src/gcm.rs", 5),
        ("PL002", "crates/demo/src/lib.rs", 6),
        ("PL005", "crates/demo/src/lib.rs", 7),
        ("PL001", "crates/demo/src/lib.rs", 13),
        ("PL003", "crates/demo/src/lib.rs", 18),
        ("PL003", "crates/demo/src/lib.rs", 19),
        ("PL004", "crates/demo/src/lib.rs", 25),
        ("PL004", "crates/demo/src/lib.rs", 26),
        ("PL004", "crates/demo/src/lib.rs", 27),
        ("PL004", "crates/demo/src/lib.rs", 28),
        // The wire.rs fixture trips PL007 twice per line: once for the
        // constant name, once for the magic/size expression.
        ("PL007", "crates/net/src/wire.rs", 4),
        ("PL007", "crates/net/src/wire.rs", 4),
        ("PL007", "crates/net/src/wire.rs", 6),
        ("PL007", "crates/net/src/wire.rs", 6),
        ("PL008", "crates/net/src/wire.rs", 8),
    ]
    .iter()
    .map(|(r, f, l)| (r.to_string(), f.to_string(), *l))
    .collect();
    want.sort();
    assert_eq!(got, want, "report:\n{}", report.render_text());
    // The #[cfg(test)] unwrap/println in the fixture must NOT be findings.
    assert!(
        !report.blocking.iter().any(|f| f.line > 46),
        "test-region code was flagged:\n{}",
        report.render_text()
    );
}

#[test]
fn the_real_workspace_lints_clean_under_the_checked_in_allowlist() {
    let root = workspace_root();
    let allowlist = read_allowlist(&root).expect("lint-allow.toml is readable");
    assert!(
        !allowlist.is_empty(),
        "lint-allow.toml should exist at the workspace root"
    );
    let report = run_lint(&root, &allowlist).expect("workspace lint runs");
    assert!(
        report.is_clean(),
        "the workspace must lint clean; run `cargo run -p pipellm-analysis --bin pipellm-lint` \
         and fix or justify the findings:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned > 100, "suspiciously few files scanned");
    // Sanity: the allowlist is actually exercised, not dead weight.
    assert!(!report.allowed.is_empty());
}

#[test]
fn allowlist_entry_without_justification_is_a_hard_error() {
    let bad = "[[allow]]\nrule = \"PL002\"\npattern = \".unwrap(\"\n";
    match run_lint(&fixture_root(), bad) {
        Err(LintError::Allowlist(e)) => {
            assert!(e.message.contains("justification"), "{e}");
        }
        Ok(_) => panic!("missing justification must fail the run"),
        Err(other) => panic!("wrong error kind: {other}"),
    }
}

#[test]
fn allowlisted_findings_are_split_out_and_stale_entries_reported() {
    let allow = r#"
[[allow]]
rule = "PL002"
file = "crates/demo/src/lib.rs"
justification = "fixture: seeded unwrap"

[[allow]]
rule = "PL002"
file = "crates/nonexistent/src/lib.rs"
justification = "fixture: matches nothing on purpose"
"#;
    let report = run_lint(&fixture_root(), allow).expect("fixture lint runs");
    assert_eq!(report.allowed.len(), 1);
    assert!(report.blocking.iter().all(|f| f.rule.id() != "PL002"));
    assert_eq!(report.unused_allows.len(), 1);
    // A stale entry keeps the run dirty even if everything else passed.
    assert!(!report.is_clean());
    assert!(report.render_text().contains("unused-allow"));
}

#[test]
fn json_report_carries_the_machine_readable_fields() {
    let report = run_lint(&fixture_root(), "").expect("fixture lint runs");
    let json = report.render_json();
    for needle in [
        "\"tool\": \"pipellm-lint\"",
        "\"clean\": false",
        "\"rule\": \"PL001\"",
        "\"file\": \"crates/demo/src/lib.rs\"",
        "\"line\": 13",
    ] {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }
}
