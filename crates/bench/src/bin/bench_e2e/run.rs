//! One run of one workload, and what it reports.
//!
//! A run is: untimed set-up, a few minimal lifecycles (the fixed cost), the
//! timed call into the program, a reading of the process's peak RSS, and
//! only then verification of every output. A traced run additionally
//! records spans and measures each layer on its own.

use crate::json::{self, Value};
use crate::stats::Dist;
use crate::trace::Recorder;
use crate::workload::{Params, Scale, Workload};
use crate::{net_run, swap_run};
use std::time::Instant;

/// What one run measured. Serialized as the child process's one output line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    pub setup_s: f64,
    /// Wall of the timed call (whole deployment lifecycle, or the swap loop
    /// minus the harness's own fill and verify time).
    pub wall_s: f64,
    /// Wall of each minimal lifecycle.
    pub fixed_ms: Vec<f64>,
    /// `VmHWM` right after the timed call, before verification allocates.
    pub peak_rss_kib: u64,
    /// Process CPU time (user + system, all threads) of the timed call.
    pub cpu_ms: f64,
    pub attempted: u64,
    /// Operations whose bytes were wrong or missing, plus one per errored
    /// run or failed lockstep audit (capped at `attempted`).
    pub failed: u64,
    /// Payload bytes of the operations that verified.
    pub verified_bytes: u64,
    pub errors: Vec<String>,
    /// Simulated-time overhead over CC-off (`swap_*` only).
    pub virt_overhead_pct: Option<f64>,
    /// Per-layer metrics (traced runs only).
    pub layer: Vec<(String, f64)>,
    /// Every span family of the traced run: how often, how long.
    pub spans: Vec<SpanSummary>,
}

/// One span family (`layer.name`) of a traced run: sample count, median,
/// and the highest percentile with at least ten samples beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    pub name: String,
    pub n: usize,
    pub p50_us: f64,
    /// `(percentile, µs)`; `None` below 40 samples.
    pub tail: Option<(f64, f64)>,
}

impl RunResult {
    pub fn goodput_mib_s(&self) -> f64 {
        self.verified_bytes as f64 / (1u64 << 20) as f64 / self.wall_s.max(1e-9)
    }

    pub fn peak_rss_mib(&self) -> f64 {
        self.peak_rss_kib as f64 / 1024.0
    }

    /// Records a failed operation count and its reason.
    pub fn fail(&mut self, count: u64, why: impl Into<String>) {
        self.failed = (self.failed + count).min(self.attempted);
        self.errors.push(why.into());
    }

    pub fn to_json(&self) -> Value {
        json::obj([
            ("setup_s", Value::Num(self.setup_s)),
            ("wall_s", Value::Num(self.wall_s)),
            ("fixed_ms", json::nums(&self.fixed_ms)),
            ("peak_rss_kib", Value::UInt(self.peak_rss_kib)),
            ("cpu_ms", Value::Num(self.cpu_ms)),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("verified_bytes", Value::UInt(self.verified_bytes)),
            (
                "errors",
                Value::Arr(self.errors.iter().map(json::str).collect()),
            ),
            (
                "virt_overhead_pct",
                self.virt_overhead_pct.map_or(Value::Null, Value::Num),
            ),
            (
                "layer",
                Value::Obj(
                    self.layer
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "spans",
                Value::Arr(self.spans.iter().map(SpanSummary::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(doc: &Value) -> Result<RunResult, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("run result lacks number {key:?}"))
        };
        let uint = |key: &str| {
            doc.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("run result lacks count {key:?}"))
        };
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("run result lacks list {key:?}"))
        };
        Ok(RunResult {
            setup_s: num("setup_s")?,
            wall_s: num("wall_s")?,
            fixed_ms: list("fixed_ms")?.iter().filter_map(Value::as_f64).collect(),
            peak_rss_kib: uint("peak_rss_kib")?,
            cpu_ms: num("cpu_ms")?,
            attempted: uint("attempted")?,
            failed: uint("failed")?,
            verified_bytes: uint("verified_bytes")?,
            errors: list("errors")?
                .iter()
                .filter_map(|e| e.as_str().map(str::to_string))
                .collect(),
            virt_overhead_pct: doc.get("virt_overhead_pct").and_then(Value::as_f64),
            layer: doc
                .get("layer")
                .and_then(Value::as_obj)
                .ok_or("run result lacks object \"layer\"")?
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                .collect(),
            spans: list("spans")?
                .iter()
                .filter_map(SpanSummary::from_json)
                .collect(),
        })
    }
}

impl SpanSummary {
    pub fn to_json(&self) -> Value {
        json::obj([
            ("name", json::str(self.name.as_str())),
            ("n", Value::UInt(self.n as u64)),
            ("p50_us", Value::Num(self.p50_us)),
            (
                "tail_percentile",
                self.tail.map_or(Value::Null, |(p, _)| Value::Num(p)),
            ),
            (
                "tail_us",
                self.tail.map_or(Value::Null, |(_, us)| Value::Num(us)),
            ),
        ])
    }

    fn from_json(doc: &Value) -> Option<SpanSummary> {
        let tail_percentile = doc.get("tail_percentile").and_then(Value::as_f64);
        let tail_us = doc.get("tail_us").and_then(Value::as_f64);
        Some(SpanSummary {
            name: doc.get("name")?.as_str()?.to_string(),
            n: doc.get("n")?.as_u64()? as usize,
            p50_us: doc.get("p50_us")?.as_f64()?,
            tail: tail_percentile.zip(tail_us),
        })
    }
}

/// Runs `workload` once in this process.
pub fn run_once(workload: Workload, scale: Scale, seed: u64, rec: &mut Recorder) -> RunResult {
    let params = workload.kind.params(scale);
    let mut result = RunResult {
        attempted: params.attempted(),
        ..RunResult::default()
    };
    match params {
        Params::Net(p) => net_run::run(&p, seed, rec, &mut result),
        Params::Swap(p) => swap_run::run(&p, seed, rec, &mut result),
    }
    result.spans = rec
        .families()
        .into_iter()
        .map(|(name, durations)| {
            let d = Dist::of(&durations);
            SpanSummary {
                name,
                n: d.n,
                p50_us: d.p50,
                tail: d.tail,
            }
        })
        .collect();
    let verified = result.attempted - result.failed;
    result.verified_bytes = params.payload_bytes() / result.attempted.max(1) * verified;
    result
}

/// Times `f`, returning its value, wall seconds and process CPU ms.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu = process_cpu_ms();
    let start = Instant::now();
    let value = f();
    let wall = start.elapsed().as_secs_f64();
    (value, wall, process_cpu_ms() - cpu)
}

/// A 64-bit digest of `bytes`, word at a time: reference outputs are held
/// as digests so the harness's copy of them does not count towards the
/// peak RSS it reports for the program.
pub fn digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = K ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
        h = (h ^ word).wrapping_mul(K).rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(K).rotate_left(29);
    }
    h ^ (h >> 32)
}

/// Peak resident set of this process in KiB (`VmHWM`); 0 where `/proc` has
/// no such line.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// User + system CPU time of this process, all threads, in ms; 0 where
/// `/proc` is absent. `/proc/self/stat` counts in clock ticks, which Linux
/// fixes at 100 per second for user space.
pub fn process_cpu_ms() -> f64 {
    const MS_PER_TICK: f64 = 10.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // The command name (field 2) may contain spaces; fields are
            // counted from the closing parenthesis. utime and stime are
            // fields 14 and 15.
            let rest = &stat[stat.rfind(')')? + 1..];
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) * MS_PER_TICK)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_round_trips_through_json() {
        let result = RunResult {
            setup_s: 0.25,
            wall_s: 2.5,
            fixed_ms: vec![110.5, 111.25],
            peak_rss_kib: 204_016,
            cpu_ms: 4_310.0,
            attempted: 8192,
            failed: 1,
            verified_bytes: 8191 * 4096,
            errors: vec!["micro-batch 17: digest mismatch".to_string()],
            virt_overhead_pct: Some(12.5),
            layer: vec![("link.seal_us_p50".to_string(), 3.25)],
            spans: vec![
                SpanSummary {
                    name: "link.seal".to_string(),
                    n: 3072,
                    p50_us: 3.25,
                    tail: Some((99.0, 4.5)),
                },
                SpanSummary {
                    name: "orchestrator.run".to_string(),
                    n: 1,
                    p50_us: 2.5e6,
                    tail: None,
                },
            ],
        };
        let line = result.to_json().to_string();
        assert!(!line.contains('\n'));
        assert_eq!(
            RunResult::from_json(&json::parse(&line).unwrap()).unwrap(),
            result
        );
        assert!(RunResult::from_json(&json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn failures_are_capped_at_attempted() {
        let mut result = RunResult {
            attempted: 4,
            ..RunResult::default()
        };
        result.fail(3, "three wrong");
        result.fail(3, "run errored");
        assert_eq!(result.failed, 4);
        assert_eq!(result.errors.len(), 2);
    }

    #[test]
    fn digest_sees_every_byte_and_the_length() {
        let base = vec![7u8; 4099];
        let d = digest(&base);
        assert_eq!(d, digest(&base.clone()));
        for at in [0, 8, 4095, 4098] {
            let mut changed = base.clone();
            changed[at] ^= 1;
            assert_ne!(digest(&changed), d, "byte {at}");
        }
        assert_ne!(digest(&base[..4098]), d);
        assert_ne!(digest(&[]), digest(&[0]));
    }

    #[test]
    fn proc_readings_are_live_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kib() > 0);
            let before = process_cpu_ms();
            let mut x = 0u64;
            for i in 0..50_000_000u64 {
                x = x.wrapping_add(std::hint::black_box(i));
            }
            std::hint::black_box(x);
            assert!(process_cpu_ms() >= before);
        }
    }
}
