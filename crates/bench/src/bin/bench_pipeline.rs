//! Stage-scaling benchmark: emits `BENCH_pipeline.json` with pipeline-
//! parallel throughput and per-link crypto serialization versus stage
//! count, for CC-off, native CC, and PipeLLM.
//!
//! Usage:
//!   cargo run --release -p pipellm-bench --bin bench_pipeline \
//!       [--smoke] [out.json]
//!
//! `--smoke` runs the CI-sized sweep (fewer micro-batches/iterations);
//! both sweeps cover stages 1/2/4/8. Without an explicit path the
//! artifact lands at the workspace root, so the committed perf trajectory
//! updates in place.

use pipellm_bench::pipeline;

fn main() {
    let pipellm_bench::BenchArgs { smoke, out_path } =
        pipellm_bench::bench_args("BENCH_pipeline.json");

    let stages = [1usize, 2, 4, 8];
    let (micro_batches, iterations) = if smoke { (3, 2) } else { (6, 4) };

    let rows = pipeline::run(&stages, micro_batches, iterations);
    print!("{}", pipeline::to_table(&rows));

    // The claims the artifact exists to track.
    for &n in &stages {
        let get = |label: &str| {
            rows.iter()
                .find(|r| r.stages == n && r.system == label)
                .map(|r| r.mb_per_sec)
                .unwrap_or_else(|| panic!("missing row {label}@{n}"))
        };
        assert!(
            get("PipeLLM") + 1e-9 >= get("CC"),
            "PipeLLM must not trail native CC at {n} stages"
        );
        assert!(
            get("w/o CC") + 1e-9 >= get("PipeLLM"),
            "CC-off stays the upper bound at {n} stages"
        );
    }
    assert!(
        rows.iter().all(|r| r.lockstep),
        "edge counters out of lockstep"
    );

    let json = pipeline::to_json(&rows);
    std::fs::write(&out_path, &json).expect("write benchmark artifact");
    println!("wrote {out_path}");
}
