//! `bench_e2e`: one wall-clock benchmark for the real stack.
//!
//! Six workloads, measured strictly from outside the program (every program
//! item the harness touches is named in `sut.rs` and nowhere else), each run
//! in a fresh child process, every output verified after the clock stops.
//! End-to-end metrics come from untraced runs; a separate traced run gives
//! the per-layer numbers. See README.md beside this file.
//!
//! ```text
//! bench_e2e [--workload W] [--seed S] [--scale full|smoke]
//!           [--seconds T] [--trace 0|1] [--json OUT] [--trace-out OUT]
//! bench_e2e --compare BASE.json CANDIDATE.json
//! ```
//!
//! A sample of an end-to-end metric is the median over a batch of untraced
//! runs. Without `--seconds` each workload gets 5 batches of 3 runs, then 1
//! traced run. With `--seconds T` (the acceptance driver's form, which needs
//! `--workload`) one batch runs until T seconds have passed, and `--trace 1`
//! replaces it with the traced run plus the two untraced runs its overhead
//! is measured against. With `--workload` the last line of stdout is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod child;
mod compare;
mod json;
mod metrics;
mod net_run;
mod replay;
mod report;
mod run;
mod stats;
mod sut;
mod swap_run;
mod trace;
mod workload;

use report::{Runs, WorkloadSummary};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::{Scale, Workload, WORKLOADS};

/// Samples per workload when no time budget is given.
const BATCHES: usize = 5;
/// Untraced runs per sample: a median needs three. Under a time budget the
/// single batch keeps growing until the budget is spent.
const BATCH_RUNS: usize = 3;
/// Untraced runs a traced-only invocation makes to measure trace overhead.
const OVERHEAD_RUNS: usize = 2;

const DEFAULT_SEED: u64 = 1;

/// The command line, checked.
struct Args {
    /// The one workload named; all six run when none is. Naming one also
    /// asks for the driver's result line.
    workload: Option<Workload>,
    seed: u64,
    scale: Scale,
    seconds: Option<Duration>,
    /// `Some(false)`: untraced runs only; `Some(true)`: the traced run (and
    /// its overhead baseline) only; `None`: both.
    trace: Option<bool>,
    json_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    child: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

impl Args {
    fn workloads(&self) -> Vec<Workload> {
        self.workload.map_or(WORKLOADS.to_vec(), |w| vec![w])
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        scale: Scale::Full,
        seconds: None,
        trace: None,
        json_out: None,
        trace_out: None,
        child: false,
        compare: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{text:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(workload::find(&name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => args.seed = number(value("a number")?)?,
            "--seconds" => {
                args.seconds = Some(Duration::from_secs(number(value("a number")?)?));
            }
            "--scale" => {
                let text = value("full or smoke")?;
                args.scale = Scale::parse(&text).ok_or(format!("bad --scale {text:?}"))?;
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--json" => args.json_out = Some(PathBuf::from(value("a path")?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("a path")?)),
            "--child" => args.child = true,
            "--compare" => {
                let base = PathBuf::from(value("two paths")?);
                let candidate = PathBuf::from(value("two paths")?);
                args.compare = Some((base, candidate));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_none() && (args.seconds.is_some() || args.child) {
        return Err("--seconds and --child need --workload".to_string());
    }
    Ok(args)
}

/// Where the traced run of `workload` writes its Chrome trace: the path as
/// given for a single workload, `<stem>.<workload>.json` when several run.
fn trace_path(args: &Args, workload: Workload) -> Option<PathBuf> {
    let base = args.trace_out.as_ref()?;
    if args.workload.is_some() {
        return Some(base.clone());
    }
    Some(base.with_extension(format!("{}.json", workload.name)))
}

fn measure(args: &Args, workload: Workload) -> WorkloadSummary {
    let spawn = |traced: bool| {
        let trace_out = if traced {
            trace_path(args, workload)
        } else {
            None
        };
        child::spawn_run(
            workload,
            args.scale,
            args.seed,
            traced,
            trace_out.as_deref(),
        )
    };
    let batch_of = |enough: &dyn Fn(usize) -> bool| {
        let mut batch = Vec::new();
        while !enough(batch.len()) {
            batch.push(spawn(false));
        }
        batch
    };
    let start = Instant::now();
    let batches = match (args.trace, args.seconds) {
        (Some(true), _) => vec![batch_of(&|runs| runs >= OVERHEAD_RUNS)],
        (_, Some(budget)) => {
            vec![batch_of(&|runs| {
                runs >= BATCH_RUNS && start.elapsed() >= budget
            })]
        }
        (_, None) => (0..BATCHES)
            .map(|_| batch_of(&|runs| runs >= BATCH_RUNS))
            .collect(),
    };
    let traced = (args.trace != Some(false)).then(|| spawn(true));
    report::summarize(workload, args.scale, Runs { batches, traced })
}

fn run(args: &Args) -> Result<i32, String> {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "bench_e2e: seed {} scale {} host_cores {host_cores} hardware_accelerated {}",
        args.seed,
        args.scale.name(),
        sut::aes_available() && sut::clmul_available()
    );
    if host_cores < 2 {
        println!(
            "WARNING host_cores < 2: crypto threads, gangs and the deployment's workers \
             are serialized on one core; parallel numbers are not comparable"
        );
    }
    let mut summaries = Vec::new();
    for workload in args.workloads() {
        let summary = measure(args, workload);
        print!("{}", summary.table());
        summaries.push(summary);
    }
    if let Some(path) = &args.json_out {
        let artifact = report::artifact(args.seed, args.scale, &summaries);
        std::fs::write(path, artifact.pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("\nwrote {}", path.display());
    }
    let correct = summaries.iter().all(WorkloadSummary::correct);
    if args.workload.is_some() {
        println!("{}", summaries[0].driver_line(args.trace == Some(true)));
    } else {
        println!("\nall outputs correct: {correct}");
    }
    Ok(i32::from(!correct))
}

fn compare_files(base: &PathBuf, candidate: &PathBuf) -> Result<i32, String> {
    let load = |path: &PathBuf| -> Result<json::Value, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (table, regressed) = compare::compare(&load(base)?, &load(candidate)?)?;
    print!("{table}");
    Ok(i32::from(regressed))
}

fn main_inner() -> Result<i32, String> {
    let args = parse_args(std::env::args().skip(1))?;
    if let Some((base, candidate)) = &args.compare {
        return compare_files(base, candidate);
    }
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; use `cargo run --release`".to_string());
    }
    if let (true, Some(workload)) = (args.child, args.workload) {
        return Ok(child::child_main(
            workload,
            args.scale,
            args.seed,
            args.trace == Some(true),
            args.trace_out.as_deref(),
        ));
    }
    run(&args)
}

fn main() {
    let code = main_inner().unwrap_or_else(|e| {
        eprintln!("bench_e2e: {e}");
        2
    });
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{PER_LAYER, TRACE_OVERHEAD_PCT};
    use crate::trace::Recorder;
    use std::collections::BTreeSet;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let one = args("--workload net_large --seed 42 --seconds 12 --trace 1").unwrap();
        assert_eq!(one.workloads().len(), 1);
        assert_eq!(one.workloads()[0].name, "net_large");
        assert_eq!((one.seed, one.scale), (42, Scale::Full));
        assert_eq!(one.seconds, Some(Duration::from_secs(12)));
        assert_eq!(one.trace, Some(true));

        let all = args("").unwrap();
        assert_eq!(all.workloads().len(), 6);
        assert_eq!((all.seed, all.trace), (DEFAULT_SEED, None));
        assert!(all.workload.is_none() && !all.child && all.compare.is_none());
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--seed",
            "--seed x",
            "--frobnicate",
            "--workload nope",
            "--trace 2",
            "--scale huge",
            "--seconds 5",
            "--child",
            "--compare only-one.json",
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn trace_files_are_per_workload_when_several_run() {
        let one = args("--workload swap_lifo --trace-out /tmp/t.json").unwrap();
        assert_eq!(
            trace_path(&one, WORKLOADS[4]),
            Some(PathBuf::from("/tmp/t.json"))
        );
        let all = args("--trace-out /tmp/t.json").unwrap();
        assert_eq!(
            trace_path(&all, WORKLOADS[1]),
            Some(PathBuf::from("/tmp/t.net_large.json"))
        );
        assert_eq!(trace_path(&args("").unwrap(), WORKLOADS[0]), None);
    }

    /// The `--scale smoke` pass: all six workloads, traced, in this process.
    /// Every output must verify, every emitted per-layer metric must be a
    /// catalogued one, and together the workloads must emit the whole
    /// catalogue (bar the overhead figure the parent process computes and
    /// the end-to-end metrics listed there, which untraced runs supply).
    #[test]
    fn smoke_pass_of_all_six_workloads() {
        let mut emitted = BTreeSet::new();
        for workload in WORKLOADS {
            let mut rec = Recorder::new(true);
            let result = run::run_once(workload, Scale::Smoke, 7, &mut rec);
            assert_eq!(
                (result.failed, &result.errors),
                (0, &Vec::new()),
                "{}",
                workload.name
            );
            assert_eq!(
                result.attempted,
                workload.kind.params(Scale::Smoke).attempted()
            );
            assert!(
                result.wall_s > 0.0 && result.setup_s > 0.0,
                "{}",
                workload.name
            );
            let lifecycles = match workload.kind.params(Scale::Smoke) {
                workload::Params::Net(_) => 1,
                workload::Params::Swap(_) => 0,
            };
            assert_eq!(result.fixed_ms.len(), lifecycles);
            assert!(result.goodput_mib_s() > 0.0);
            assert!(!rec.spans().is_empty());
            for (name, value) in &result.layer {
                assert!(
                    metrics::per_layer(name).is_some(),
                    "{}: uncatalogued {name}",
                    workload.name
                );
                assert!(value.is_finite(), "{}: {name} = {value}", workload.name);
                emitted.insert(name.clone());
            }
        }
        let declared: BTreeSet<String> = PER_LAYER
            .iter()
            .map(|m| m.name.to_string())
            .filter(|name| name != TRACE_OVERHEAD_PCT && metrics::end_to_end(name).is_none())
            .collect();
        assert_eq!(emitted, declared);
    }
}
