//! Sweep-throughput benchmark for the SPCP simulator.
//!
//! ```text
//! cargo run --release --manifest-path sweepbench/Cargo.toml -- \
//!     --workload paper-mix --seed 7 --seconds 55 --trace 0
//! ```
//!
//! Run from the repository root. Each workload is a run matrix swept in a
//! closed loop (a cell starts only after the previous one finished) on one
//! sweep worker through the public sweep path. `--trace 0` measures the
//! end-to-end metrics; `--trace 1` is a separate traced run that splits
//! host time across the layers. Every simulated result is checked; see
//! `sweepbench/README.md` for the metrics, the workloads and why each
//! exists. The last line of standard output is one JSON object with the
//! result; the exit status is nonzero when any cell fails a check.

mod checks;
mod model;
mod replay;
mod spans;
mod stats;
mod sweep;
mod timed;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

use spcp_harness::SweepEngine;

use crate::checks::Goldens;
use crate::sweep::{PassContext, Tally};

/// End-to-end metrics the JSON result carries with `--trace 0`.
const END_TO_END: [&str; 6] = [
    "sweep_wall_s",
    "sim_mops_per_s",
    "cell_ns_per_op_p50",
    "cell_ns_per_op_p90",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics the JSON result carries with `--trace 1`: those every
/// workload exercises. Workload-specific ones (the predictors, the spool)
/// are printed in the per-layer table only.
const PER_LAYER: [&str; 25] = [
    "workloads.generate_ms",
    "workloads.generate_ns_per_op",
    "system.run_ms",
    "system.host_ns_per_miss",
    "system.unattributed_frac",
    "system.l2_misses_per_op",
    "system.l2_miss_replay_match",
    "mem.cache.calls",
    "mem.cache.ns_per_call",
    "mem.cache.l2_hit_ratio",
    "mem.cache.replay_match",
    "mem.dir.calls",
    "mem.dir.ns_per_call",
    "mem.dir.replay_match",
    "noc.sends",
    "noc.ns_per_send",
    "noc.msgs_per_miss",
    "noc.contention_cycles_per_msg",
    "noc.replay_match",
    "sync.calls",
    "sync.ns_per_call",
    "sim.eventq.push_pops",
    "sim.eventq.ns_per_push_pop",
    "harness.render_ms",
    "harness.overhead_frac",
];

/// Default workload seed: the seed of the checked-in goldens.
const DEFAULT_SEED: u64 = 7;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// The value, `None` when it could not be measured.
    pub value: Option<f64>,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; non-finite values count as unmeasured.
    pub fn new(name: &'static str, value: Option<f64>, unit: &'static str) -> Self {
        Metric {
            name,
            value: value.filter(|v| v.is_finite()),
            unit,
        }
    }

    /// `name = value unit`, for the human-readable lines.
    pub fn line(&self) -> String {
        match self.value {
            Some(v) => format!("{} = {v} {}", self.name, self.unit),
            None => format!("{} = unmeasured {}", self.name, self.unit),
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: spcp-sweepbench --workload <paper-mix|bcast-fanout|compute-sync> \
                     [--seed N] [--seconds N] [--trace 0|1]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 55.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(def) = sweep::define(&args.workload, args.seed) else {
        eprintln!(
            "unknown workload {}; known: {}",
            args.workload,
            sweep::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let golden_dir = PathBuf::from("tests/golden");
    if !golden_dir.is_dir() {
        eprintln!(
            "run from the repository root: {} is missing",
            golden_dir.display()
        );
        return ExitCode::from(2);
    }
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }

    println!(
        "workload {} | seed {} | {} cells | trace {} | one sweep worker ({} host threads available)",
        def.name,
        args.seed,
        def.matrix.len(),
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut ctx = PassContext {
        def: &def,
        engine: SweepEngine::new(1),
        spool_root: out_dir.clone(),
        goldens: Goldens::default(),
        golden_dir,
        passes: 0,
    };
    let mut tally = Tally::default();
    let (metrics, wanted): (Vec<Metric>, &[&str]) = if args.trace {
        let m = traced::run(&mut ctx, args.seconds, args.seed, &out_dir, &mut tally);
        (m, &PER_LAYER)
    } else {
        let m = timed::run(&mut ctx, args.seconds, &mut tally);
        for m in &m {
            println!("{}", m.line());
        }
        (m, &END_TO_END)
    };
    for note in &tally.notes {
        eprintln!("FAILED {note}");
    }

    let mut json = Vec::new();
    let mut complete = true;
    for name in wanted {
        match metrics
            .iter()
            .find(|m| m.name == *name)
            .and_then(|m| m.value.map(|v| (m, v)))
        {
            Some((m, v)) => json.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.unit
            )),
            None => {
                eprintln!("metric {name} could not be measured");
                complete = false;
            }
        }
    }
    let correct = tally.failed == 0 && complete;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
