//! Pipeline-parallel quickstart: a model sharded over four GPUs with
//! encrypted inter-stage links.
//!
//! Each device-to-device edge owns its own secure channel per session
//! (keys and IV counters independent per link); the PipeLLM system seals
//! each activation on the crypto pool the moment its producer kernel
//! retires, so the stage threads never block on encryption. The run
//! verifies bit-exact outputs against the single-GPU configuration and
//! prints the per-device and per-edge utilization timelines.
//!
//! Run with: `cargo run --release --example pipeline_parallel`

use pipellm_repro::serving::pipeline::{PipelineConfig, PipelineEngine, PipelineSystem};
use pipellm_repro::serving::ServingEngine;

fn main() {
    let base = PipelineConfig {
        stages: 4,
        layers: 16,
        micro_batches: 4,
        iterations: 3,
        ..PipelineConfig::default()
    };

    // The single-GPU reference run (native CC) for the bit-exact check.
    let mut reference = PipelineEngine::new(PipelineConfig {
        stages: 1,
        system: PipelineSystem::CcNative,
        ..base.clone()
    });
    reference.run_to_completion().expect("reference run");

    for system in [
        PipelineSystem::CcOff,
        PipelineSystem::CcNative,
        PipelineSystem::PipeLlm,
    ] {
        let mut engine = PipelineEngine::new(PipelineConfig {
            system,
            ..base.clone()
        });
        let report = engine.run_to_completion().expect("pipeline run");
        println!("{report}");
        assert_eq!(
            engine.outputs(),
            reference.outputs(),
            "4-stage output must be bit-exact with the single-GPU run"
        );
        engine
            .verify_edges()
            .expect("per-edge counters in lockstep");
        if system == PipelineSystem::PipeLlm {
            print!("{}", engine.cluster().timeline_summary(report.finished_at));
        }
    }
    println!("all systems bit-exact with single-GPU; all edges in lockstep ✓");
}
