//! From runs to numbers: per-workload summaries, the tables printed on
//! stdout, the `--json` artifact and the driver's result line.

use crate::json::{self, Value};
use crate::metrics::{
    self, Metric, END_TO_END, FAILED_RATIO, FIXED_MS, GOODPUT_MIB_S, PEAK_RSS_MIB, PER_LAYER,
    SETUP_S, TRACE_OVERHEAD_PCT, VIRT_OVERHEAD_PCT,
};
use crate::run::{RunResult, SpanSummary};
use crate::stats::{median, quartiles, spread};
use crate::sut;
use crate::workload::{Params, Scale, Workload};
use std::fmt::Write as _;

/// One end-to-end metric on one workload. A sample is the median over one
/// batch of fresh-process runs — the unit `BENCHMARK.json`'s bounds are set
/// for, and what one invocation by the acceptance driver reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Samples {
    pub metric: Metric,
    pub values: Vec<f64>,
}

impl Samples {
    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    /// `(q3 − q1) / median`.
    pub fn spread(&self) -> f64 {
        spread(&self.values)
    }
}

/// Everything measured on one workload.
#[derive(Debug, Clone)]
pub struct WorkloadSummary {
    pub workload: Workload,
    pub params: Params,
    /// Untraced runs that produced a result, over all batches.
    pub timed_runs: usize,
    pub attempted: u64,
    pub failed: u64,
    /// From untraced runs only.
    pub end_to_end: Vec<Samples>,
    /// From the traced run; empty when none ran.
    pub per_layer: Vec<(Metric, f64)>,
    /// Span families of the traced run.
    pub spans: Vec<SpanSummary>,
    pub errors: Vec<String>,
}

/// One run's result, or why it has none.
pub type Run = Result<RunResult, String>;

/// What one workload's runs returned.
pub struct Runs {
    /// Untraced runs, grouped into the batches whose medians are samples.
    pub batches: Vec<Vec<Run>>,
    pub traced: Option<Run>,
}

pub fn summarize(workload: Workload, scale: Scale, runs: Runs) -> WorkloadSummary {
    let params = workload.kind.params(scale);
    let mut errors = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    // A run that returned nothing attempted everything and delivered none.
    let mut tally = |run: &Run, label: &str| match run {
        Ok(r) => {
            attempted += r.attempted;
            failed += r.failed;
            errors.extend(r.errors.iter().map(|e| format!("{label}: {e}")));
        }
        Err(e) => {
            attempted += params.attempted();
            failed += params.attempted();
            errors.push(format!("{label}: {e}"));
        }
    };
    for (b, batch) in runs.batches.iter().enumerate() {
        for (i, run) in batch.iter().enumerate() {
            tally(run, &format!("batch {b} run {i}"));
        }
    }
    if let Some(run) = &runs.traced {
        tally(run, "traced run");
    }

    let batches: Vec<Vec<&RunResult>> = runs
        .batches
        .iter()
        .map(|batch| batch.iter().filter_map(|r| r.as_ref().ok()).collect())
        .filter(|batch: &Vec<&RunResult>| !batch.is_empty())
        .collect();
    let timed_runs: usize = batches.iter().map(Vec::len).sum();
    let mut end_to_end = Vec::new();
    // One sample per batch: the median of what `of` takes from its runs.
    let mut push = |name: &str, of: &dyn Fn(&RunResult) -> Vec<f64>| {
        let metric = metrics::end_to_end(name).expect("catalogued");
        let values: Vec<f64> = batches
            .iter()
            .map(|batch| batch.iter().flat_map(|r| of(r)).collect::<Vec<f64>>())
            .filter(|taken| !taken.is_empty())
            .map(|taken| median(&taken))
            .collect();
        if !values.is_empty() {
            end_to_end.push(Samples { metric, values });
        }
    };
    push(SETUP_S, &|r| vec![r.setup_s]);
    push(GOODPUT_MIB_S, &|r| vec![r.goodput_mib_s()]);
    push(FIXED_MS, &|r| r.fixed_ms.clone());
    push(PEAK_RSS_MIB, &|r| vec![r.peak_rss_mib()]);
    push(VIRT_OVERHEAD_PCT, &|r| {
        r.virt_overhead_pct.into_iter().collect()
    });
    if attempted > 0 && timed_runs > 0 {
        end_to_end.push(Samples {
            metric: metrics::end_to_end(FAILED_RATIO).expect("catalogued"),
            values: vec![failed as f64 / attempted as f64],
        });
    }

    let mut per_layer = Vec::new();
    let mut spans = Vec::new();
    if let Some(Ok(traced)) = &runs.traced {
        spans.clone_from(&traced.spans);
        let mut layer = traced.layer.clone();
        if timed_runs > 0 {
            let walls: Vec<f64> = batches.iter().flatten().map(|r| r.wall_s).collect();
            let untraced = median(&walls);
            let overhead = 100.0 * (traced.wall_s - untraced) / untraced;
            layer.push((TRACE_OVERHEAD_PCT.to_string(), overhead));
        }
        for (name, value) in layer {
            match metrics::per_layer(&name) {
                Some(metric) => per_layer.push((metric, value)),
                None => errors.push(format!("traced run emitted uncatalogued metric {name}")),
            }
        }
    }

    WorkloadSummary {
        workload,
        params,
        timed_runs,
        attempted,
        failed,
        end_to_end,
        per_layer,
        spans,
        errors,
    }
}

impl WorkloadSummary {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    pub fn samples(&self, name: &str) -> Option<&Samples> {
        self.end_to_end.iter().find(|s| s.metric.name == name)
    }

    /// The human-readable tables.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let w = self.workload;
        let _ = writeln!(out, "\n== {} — {}", w.name, w.why);
        let _ = writeln!(
            out,
            "   {} untraced runs ({} samples, each the median of a batch), {} attempted, {} failed",
            self.timed_runs,
            self.samples(GOODPUT_MIB_S).map_or(0, |s| s.values.len()),
            self.attempted,
            self.failed
        );
        if !self.end_to_end.is_empty() {
            let _ = writeln!(
                out,
                "   {:<20} {:>12} {:>12} {:>12} {:>8} {:>4}  {:<6} {:<7}",
                "end-to-end", "median", "q1", "q3", "spread", "n", "unit", "clock"
            );
        }
        for s in &self.end_to_end {
            let (q1, q3) = quartiles(&s.values);
            let _ = writeln!(
                out,
                "   {:<20} {:>12.4} {:>12.4} {:>12.4} {:>7.2}% {:>4}  {:<6} {:<7}",
                s.metric.name,
                s.median(),
                q1,
                q3,
                s.spread() * 100.0,
                s.values.len(),
                s.metric.unit,
                s.metric.clock.name()
            );
        }
        if !self.per_layer.is_empty() {
            let _ = writeln!(
                out,
                "   {:<38} {:>14}  {:<6} {:<7}  (traced run, n=1)",
                "per-layer", "value", "unit", "clock"
            );
        }
        for (metric, value) in &self.per_layer {
            let _ = writeln!(
                out,
                "   {:<38} {:>14.4}  {:<6} {:<7}",
                metric.name,
                value,
                metric.unit,
                metric.clock.name()
            );
        }
        if !self.spans.is_empty() {
            let _ = writeln!(
                out,
                "   {:<38} {:>8} {:>14} {:>14}  (wall, us)",
                "spans of the traced run", "n", "p50", "tail"
            );
        }
        for s in &self.spans {
            let tail = s
                .tail
                .map_or("-".to_string(), |(p, us)| format!("p{p} {us:.3}"));
            let _ = writeln!(
                out,
                "   {:<38} {:>8} {:>14.3} {:>14}",
                s.name, s.n, s.p50_us, tail
            );
        }
        for e in &self.errors {
            let _ = writeln!(out, "   ERROR {e}");
        }
        out
    }

    pub fn to_json(&self) -> Value {
        let params = Value::Obj(
            self.params
                .describe()
                .into_iter()
                .map(|(k, v)| (k.to_string(), Value::Num(v)))
                .collect(),
        );
        let end_to_end = self
            .end_to_end
            .iter()
            .map(|s| {
                let (q1, q3) = quartiles(&s.values);
                json::obj([
                    ("name", json::str(s.metric.name)),
                    ("unit", json::str(s.metric.unit)),
                    ("clock", json::str(s.metric.clock.name())),
                    ("better", json::str(s.metric.better.name())),
                    ("n", Value::UInt(s.values.len() as u64)),
                    ("median", Value::Num(s.median())),
                    ("q1", Value::Num(q1)),
                    ("q3", Value::Num(q3)),
                    ("spread", Value::Num(s.spread())),
                    ("values", json::nums(&s.values)),
                ])
            })
            .collect();
        let per_layer = self
            .per_layer
            .iter()
            .map(|(metric, value)| {
                json::obj([
                    ("name", json::str(metric.name)),
                    ("unit", json::str(metric.unit)),
                    ("clock", json::str(metric.clock.name())),
                    ("n", Value::UInt(1)),
                    ("value", Value::Num(*value)),
                ])
            })
            .collect();
        json::obj([
            ("name", json::str(self.workload.name)),
            ("why", json::str(self.workload.why)),
            (
                "load",
                json::str("closed: the whole batch is handed over up front"),
            ),
            ("params", params),
            ("untraced_runs", Value::UInt(self.timed_runs as u64)),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("end_to_end", Value::Arr(end_to_end)),
            ("per_layer", Value::Arr(per_layer)),
            (
                "spans",
                Value::Arr(self.spans.iter().map(SpanSummary::to_json).collect()),
            ),
            (
                "errors",
                Value::Arr(self.errors.iter().map(json::str).collect()),
            ),
        ])
    }

    /// The one-line result the acceptance driver reads: with `traced`,
    /// every per-layer metric (the two end-to-end ones among them from the
    /// untraced runs; 0 where this workload does not exercise the layer);
    /// without, every end-to-end metric `BENCHMARK.json` bounds.
    pub fn driver_line(&self, traced: bool) -> Value {
        let entry = |metric: Metric, value: f64| {
            (
                metric.name.to_string(),
                json::obj([
                    ("value", Value::Num(value)),
                    ("unit", json::str(metric.unit)),
                ]),
            )
        };
        let metrics = if traced {
            PER_LAYER
                .into_iter()
                .map(|metric| {
                    let value = self
                        .per_layer
                        .iter()
                        .find(|(m, _)| m.name == metric.name)
                        .map(|(_, v)| *v)
                        .or_else(|| self.samples(metric.name).map(Samples::median));
                    entry(metric, value.unwrap_or(0.0))
                })
                .collect()
        } else {
            END_TO_END
                .into_iter()
                .filter(|metric| metrics::file_bound(metric.name).is_some())
                .map(|metric| {
                    let value = self.samples(metric.name).map_or(0.0, Samples::median);
                    entry(metric, value)
                })
                .collect()
        };
        json::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::UInt(self.attempted.max(1))),
            ("failed", Value::UInt(self.failed)),
            ("metrics", Value::Obj(metrics)),
        ])
    }
}

/// Where, how and from what the numbers were produced.
pub fn provenance(seed: u64, scale: Scale) -> Value {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let features = Value::Obj(
        sut::cpu_features()
            .iter()
            .map(|(name, present)| (name.to_string(), Value::Bool(*present)))
            .collect(),
    );
    let tool = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    // Only a checkout's own .git is consulted: git would otherwise walk up
    // into whatever repository happens to contain the working directory.
    let git_commit = if std::path::Path::new(".git").exists() {
        tool("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    json::obj([
        ("host_cores", Value::UInt(host_cores as u64)),
        ("cpu_features", features),
        (
            "hardware_accelerated",
            Value::Bool(sut::aes_available() && sut::clmul_available()),
        ),
        ("rustc", json::str(tool("rustc", &["--version"]))),
        ("git_commit", json::str(git_commit)),
        ("build_profile", json::str("release")),
        ("seed", Value::UInt(seed)),
        ("scale", json::str(scale.name())),
    ])
}

/// The `--json` artifact. `claim` stays last: this benchmark reports, it
/// does not claim a gain.
pub fn artifact(seed: u64, scale: Scale, summaries: &[WorkloadSummary]) -> Value {
    json::obj([
        ("benchmark", json::str("bench_e2e")),
        ("provenance", provenance(seed, scale)),
        (
            "workloads",
            Value::Arr(summaries.iter().map(WorkloadSummary::to_json).collect()),
        ),
        ("claim", Value::Null),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{find, Scale};

    fn result(goodput_scale: f64) -> RunResult {
        RunResult {
            setup_s: 0.5,
            wall_s: 2.0 / goodput_scale,
            fixed_ms: vec![100.0, 102.0],
            peak_rss_kib: 2048,
            cpu_ms: 10.0,
            attempted: 32,
            failed: 0,
            verified_bytes: 32 * 4096,
            errors: vec![],
            virt_overhead_pct: None,
            layer: vec![],
            spans: vec![],
        }
    }

    #[test]
    fn summary_takes_medians_of_untraced_runs_and_pools_fixed_samples() {
        let w = find("net_small").unwrap();
        let mut traced = result(0.5);
        traced.layer = vec![("link.seal_us_p50".to_string(), 3.0)];
        let runs = Runs {
            batches: vec![
                vec![Ok(result(1.0)), Ok(result(2.0)), Ok(result(4.0))],
                vec![Ok(result(4.0)), Ok(result(4.0)), Ok(result(1.0))],
            ],
            traced: Some(Ok(traced)),
        };
        let s = summarize(w, Scale::Smoke, runs);
        assert!(s.correct());
        assert_eq!(s.timed_runs, 6);
        assert_eq!(s.attempted, 7 * 32);
        // One sample per batch, each the batch's median: 2x and 4x the
        // base goodput of 32 * 4 KiB in 2 s.
        let goodput = s.samples(GOODPUT_MIB_S).unwrap();
        assert_eq!(goodput.values, [0.125, 0.25]);
        assert_eq!(s.samples(FIXED_MS).unwrap().values, [101.0, 101.0]);
        assert_eq!(s.samples(FAILED_RATIO).unwrap().median(), 0.0);
        assert!(
            s.samples(VIRT_OVERHEAD_PCT).is_none(),
            "net has no virtual clock"
        );
        // Traced wall 4 s against an untraced median of (1 + 0.5) / 2 s.
        let overhead = s
            .per_layer
            .iter()
            .find(|(m, _)| m.name == TRACE_OVERHEAD_PCT);
        assert!((overhead.unwrap().1 - 100.0 * (4.0 - 0.75) / 0.75).abs() < 1e-9);
    }

    #[test]
    fn a_run_without_a_result_fails_everything_it_attempted() {
        let w = find("net_small").unwrap();
        let runs = Runs {
            batches: vec![vec![Ok(result(1.0)), Err("child was killed".to_string())]],
            traced: None,
        };
        let s = summarize(w, Scale::Smoke, runs);
        assert!(!s.correct());
        assert_eq!((s.attempted, s.failed), (64, 32));
        assert_eq!(s.samples(FAILED_RATIO).unwrap().median(), 0.5);
        assert_eq!(
            s.driver_line(false).get("correct"),
            Some(&Value::Bool(false))
        );
    }

    #[test]
    fn driver_line_has_exactly_the_declared_metrics() {
        let w = find("swap_lifo").unwrap();
        let mut traced = result(1.0);
        traced.layer = vec![("core.speculated".to_string(), 48.0)];
        let mut untraced = result(1.0);
        untraced.virt_overhead_pct = Some(295.5);
        let runs = Runs {
            batches: vec![vec![Ok(untraced.clone()), Ok(untraced)]],
            traced: Some(Ok(traced)),
        };
        let s = summarize(w, Scale::Smoke, runs);
        let names = |line: &Value| -> Vec<String> {
            let metrics = line.get("metrics").and_then(Value::as_obj).unwrap();
            metrics.iter().map(|(k, _)| k.clone()).collect()
        };
        assert_eq!(
            names(&s.driver_line(false)),
            [SETUP_S, GOODPUT_MIB_S, PEAK_RSS_MIB]
        );
        let traced_line = s.driver_line(true);
        assert_eq!(
            names(&traced_line),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        let value = |name: &str| {
            traced_line
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
        };
        assert_eq!(value("core.speculated"), Some(48.0));
        assert_eq!(value("link.rekeys"), Some(0.0), "layer not exercised");
        assert_eq!(value(FIXED_MS), Some(101.0), "from the untraced runs");
        assert_eq!(value(VIRT_OVERHEAD_PCT), Some(295.5));
    }

    #[test]
    fn artifact_ends_with_a_null_claim() {
        let doc = artifact(3, Scale::Smoke, &[]);
        let pairs = doc.as_obj().unwrap();
        assert_eq!(pairs.last(), Some(&("claim".to_string(), Value::Null)));
        let provenance = doc.get("provenance").unwrap();
        assert!(
            provenance
                .get("host_cores")
                .and_then(Value::as_u64)
                .unwrap()
                >= 1
        );
        assert_eq!(provenance.get("seed").and_then(Value::as_u64), Some(3));
    }
}
