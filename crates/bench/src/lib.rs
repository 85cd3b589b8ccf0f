//! Experiment harness for the PipeLLM reproduction.
//!
//! One module per table/figure of the paper's evaluation (§3, §7). Each
//! module exposes a `run` function returning printable rows, so the same
//! code drives the `fig*` binaries and the integration tests. Absolute
//! numbers come from the calibrated simulator
//! ([`pipellm_gpu::IoTimingModel`]); the claims under test are *shapes*:
//! who wins, by what factor, and where the crossovers sit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod ablations;
pub mod chaos;
pub mod fig02;
pub mod fig03;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod kvcache;
pub mod multitenant;
pub mod pipeline;
pub mod runners;
pub mod systems;
pub mod table;

pub use runners::Scale;
pub use systems::System;
pub use table::Table;

/// Parses the common CLI convention of the `fig*` binaries: `--paper`
/// selects paper-sized traces, anything else (or nothing) the quick scale.
pub fn scale_from_args() -> Scale {
    if std::env::args().any(|a| a == "--paper") {
        Scale::Paper
    } else {
        Scale::Quick
    }
}

/// Parsed command line of a `bench_*` binary.
pub struct BenchArgs {
    /// `--smoke` was passed: run the CI-sized sweep.
    pub smoke: bool,
    /// Artifact output path: the first non-flag argument, or the
    /// checked-in workspace default.
    pub out_path: String,
}

/// Parses the CLI convention every `bench_*` binary shares: a `--smoke`
/// flag anywhere on the line, and an optional artifact path as the first
/// non-flag argument, defaulting to [`workspace_artifact`]`(default_artifact)`.
pub fn bench_args(default_artifact: &str) -> BenchArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    BenchArgs {
        smoke: args.iter().any(|a| a == "--smoke"),
        out_path: args
            .iter()
            .find(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| {
                workspace_artifact(default_artifact)
                    .to_string_lossy()
                    .into_owned()
            }),
    }
}

/// Absolute path of artifact `name` at the workspace root.
///
/// The `BENCH_*.json` artifacts are checked in so the perf trajectory is
/// tracked in-repo; defaulting the bench bins here makes `cargo run -p
/// pipellm-bench --bin bench_*` update them in place no matter which
/// directory inside the workspace the command runs from. The root is
/// resolved at runtime (nearest ancestor of the current directory holding
/// a `Cargo.lock`), falling back to the build-time manifest location when
/// the binary runs outside any workspace.
pub fn workspace_artifact(name: &str) -> std::path::PathBuf {
    let runtime_root = std::env::current_dir().ok().and_then(|cwd| {
        cwd.ancestors()
            .find(|dir| dir.join("Cargo.lock").is_file())
            .map(std::path::Path::to_path_buf)
    });
    let root = runtime_root.unwrap_or_else(|| {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("bench crate lives two levels below the workspace root")
            .to_path_buf()
    });
    root.join(name)
}
