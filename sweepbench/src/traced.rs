//! The traced run: per-layer host time and counts of one workload.
//!
//! For each cell, in canonical order:
//! 1. generate the workload (`workloads.generate`);
//! 2. time `CmpSystem::run_workload` untraced (`system.run`);
//! 3. run it again with `RunConfig::tracing()` (`system.run_traced`) to get
//!    its miss/sync trace, whose results must equal the untraced run's;
//! 4. replay the op streams and trace through standalone layer instances
//!    (`replay.record`), timing each layer's call log in batches under
//!    `replay.timed` (see [`crate::replay`]).
//!
//! One pass through the workload's sweep path (`harness.pass`) then times
//! the harness itself. Self times come from the spans; simulated counts
//! from the real runs' `RunStats`, which repeat exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use spcp_harness::golden;
use spcp_system::{CmpSystem, RunStats};

use crate::checks::Source;
use crate::replay::{self, Replay};
use crate::spans::{self_times, Spans};
use crate::stats;
use crate::sweep::{cell_config, PassContext, Reference, Tally};
use crate::{model, timed, Metric};

/// Largest |replayed / real − 1| at which a layer's replayed host time
/// is trusted.
pub const REPLAY_TOLERANCE: f64 = 0.01;

/// The simulator layers whose batches the timed replay attributes.
const LAYERS: [&str; 7] = [
    "mem.cache",
    "mem.dir",
    "noc",
    "core.sp",
    "baselines.addr",
    "sync",
    "sim.eventq",
];

/// Exact counts summed over one pass's cells.
#[derive(Debug, Default, Clone)]
struct Counts {
    ops: u64,
    l2_misses: u64,
    l2_hits: u64,
    hits: u64,
    noc_messages: u64,
    contention: u64,
    /// Per predictor layer: (predictions, sufficient) of the real runs.
    predictions: BTreeMap<&'static str, (u64, u64)>,
    /// Real SP statistics: (predictions, correct).
    sp: (u64, u64),
    calls: BTreeMap<&'static str, u64>,
    replay: ReplayCounts,
}

/// Counts the replays saw, summed over one pass's cells.
#[derive(Debug, Default, Clone)]
struct ReplayCounts {
    ops: u64,
    hits: u64,
    l2_misses: u64,
    noc_messages: u64,
    miss_events: u64,
    target_mismatches: u64,
    sync_divergences: u64,
    predictions: BTreeMap<&'static str, u64>,
    sp: (u64, u64),
}

impl Counts {
    fn add_real(&mut self, stats: &RunStats, layer: Option<&'static str>) {
        self.ops += stats.total_ops;
        self.l2_misses += stats.l2_misses;
        self.l2_hits += stats.l2_hits;
        self.hits += stats.l1_hits + stats.l2_hits;
        self.noc_messages += stats.noc.messages;
        self.contention += stats.noc.contention_cycles;
        if let Some(layer) = layer {
            let p = self.predictions.entry(layer).or_default();
            p.0 += stats.predictions;
            p.1 += stats.pred_sufficient;
        }
        if let Some(sp) = &stats.sp {
            self.sp.0 += sp.predictions;
            self.sp.1 += sp.correct();
        }
    }

    fn add_replay(&mut self, done: &Replay, layer: Option<&'static str>) {
        for l in &done.layers {
            *self.calls.entry(l.name).or_default() += l.calls;
        }
        let f = &done.fidelity;
        let r = &mut self.replay;
        r.ops += f.ops;
        r.hits += f.hits;
        r.l2_misses += f.l2_misses;
        r.noc_messages += f.noc_messages;
        r.miss_events += f.miss_events;
        r.target_mismatches += f.target_mismatches;
        r.sync_divergences += f.sync_divergences;
        if let Some(layer) = layer {
            *r.predictions.entry(layer).or_default() += f.predictions;
        }
        if let Some(sp) = &f.sp {
            r.sp.0 += sp.predictions;
            r.sp.1 += sp.correct();
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Runs traced passes (at least one, and another only while it is
/// expected to end within `seconds`), writes the span file and per-layer
/// table under `out_dir`, and returns the per-layer metrics (medians over
/// passes).
pub fn run(
    ctx: &mut PassContext,
    seconds: f64,
    seed: u64,
    out_dir: &Path,
    tally: &mut Tally,
) -> Vec<Metric> {
    let specs = ctx.def.matrix.expand();
    let (_, ops) = timed::setup(&specs);
    let mut reference = Reference::new(specs.clone(), ops);
    let mut spans = Spans::default();
    let mut per_pass: Vec<Vec<Metric>> = Vec::new();
    let mut flags: BTreeMap<&'static str, String> = BTreeMap::new();
    let mut model_metrics = Vec::new();
    let started = Instant::now();

    let mut last_pass = 0.0;
    while per_pass.is_empty() || started.elapsed().as_secs_f64() + last_pass <= seconds {
        let pass_started = Instant::now();
        let first_span = spans.all().len();
        let mut counts = Counts::default();
        let mut real_stats = Vec::with_capacity(specs.len());
        for (index, spec) in specs.iter().enumerate() {
            tally.attempted += 1;
            let id = spec.id();
            let cell = spans.open(&format!("cell {id}"), None);
            let cfg = cell_config(spec);
            let s = spans.open("workloads.generate", Some(cell));
            let workload = spec.bench.generate(spec.machine.num_cores, spec.seed);
            spans.close(s);

            let runs = catch_unwind(AssertUnwindSafe(|| {
                let s = spans.open("system.run", Some(cell));
                let plain = CmpSystem::run_workload(&workload, &cfg);
                spans.close(s);
                let s = spans.open("system.run_traced", Some(cell));
                let traced = CmpSystem::run_workload(&workload, &cfg.clone().tracing());
                spans.close(s);
                (plain, traced)
            }));
            let Ok((plain, traced)) = runs else {
                spans.close(cell);
                tally.fail(&id, "the run panicked");
                continue;
            };
            let layer = replay::predictor_layer(&cfg.protocol);
            if !reference.check_cell(
                index,
                &plain,
                Source::InMemory,
                &mut ctx.goldens,
                &ctx.golden_dir,
                tally,
            ) {
                spans.close(cell);
                continue;
            }
            if golden::snapshot_run(spec, &traced) != golden::snapshot_run(spec, &plain) {
                tally.fail(&id, "tracing changed the run's results");
                spans.close(cell);
                continue;
            }
            counts.add_real(&plain, layer);

            match replay::replay(&workload, &cfg, &traced.trace, &mut spans, cell) {
                Ok(done) => counts.add_replay(&done, layer),
                Err(e) => tally.fail(&id, format!("replay: {e}")),
            }
            spans.close(cell);
            real_stats.push(plain);
        }
        if model_metrics.is_empty() && real_stats.len() == specs.len() {
            model_metrics = model::metrics(&specs, &real_stats);
        }

        let s = spans.open("harness.pass", None);
        let harness = ctx.pass(&mut reference, tally, false);
        spans.close(s);

        let mut self_ns: BTreeMap<&str, u64> = BTreeMap::new();
        let all = spans.all();
        for (span, ns) in all[first_span..].iter().zip(&self_times(all)[first_span..]) {
            let name = span.name.split(' ').next().unwrap_or_default();
            *self_ns.entry(name).or_default() += ns;
        }
        per_pass.push(pass_metrics(
            &counts,
            &self_ns,
            harness.as_ref(),
            &mut flags,
        ));
        last_pass = pass_started.elapsed().as_secs_f64();
    }

    let mut metrics = Vec::new();
    for m in &per_pass[0] {
        let values: Vec<f64> = per_pass
            .iter()
            .filter_map(|p| p.iter().find(|x| x.name == m.name).and_then(|x| x.value))
            .collect();
        metrics.push(Metric::new(m.name, stats::median(&values), m.unit));
    }
    metrics.extend(model_metrics);

    let table = layer_table(&metrics, &flags, per_pass.len());
    print!("{table}");
    let stem = format!("{}-seed{seed}", ctx.def.name);
    let span_path = out_dir.join(format!("spans-{stem}.jsonl"));
    let table_path = out_dir.join(format!("layers-{stem}.txt"));
    let written = spans
        .write_jsonl(&span_path)
        .and_then(|()| std::fs::write(&table_path, &table));
    match written {
        Ok(()) => println!(
            "spans: {} | table: {} | traced run peak RSS {:.1} MB",
            span_path.display(),
            table_path.display(),
            crate::peak_rss_mb().unwrap_or(f64::NAN)
        ),
        Err(e) => tally.fail(ctx.def.name, format!("writing the span file failed: {e}")),
    }
    metrics
}

/// The per-layer metrics of one pass. Records in `flags` every layer
/// whose replay count is off by more than [`REPLAY_TOLERANCE`].
fn pass_metrics(
    c: &Counts,
    self_ns: &BTreeMap<&str, u64>,
    harness: Option<&crate::sweep::Pass>,
    flags: &mut BTreeMap<&'static str, String>,
) -> Vec<Metric> {
    let ns = |name: &str| self_ns.get(name).copied().unwrap_or(0);
    let calls = |name: &str| c.calls.get(name).copied().unwrap_or(0);
    let run_ns = ns("system.run");
    let attributed: u64 = LAYERS.iter().map(|l| ns(l)).sum();
    let r = &c.replay;
    let mut m = vec![
        Metric::new(
            "workloads.generate_ms",
            Some(ns("workloads.generate") as f64 / 1e6),
            "ms",
        ),
        Metric::new(
            "workloads.generate_ns_per_op",
            Some(ratio(ns("workloads.generate"), c.ops)),
            "ns",
        ),
        Metric::new("system.run_ms", Some(run_ns as f64 / 1e6), "ms"),
        Metric::new(
            "system.host_ns_per_miss",
            Some(ratio(run_ns, c.l2_misses)),
            "ns",
        ),
        Metric::new(
            "system.unattributed_frac",
            Some(1.0 - ratio(attributed, run_ns)),
            "ratio",
        ),
        Metric::new(
            "system.trace_overhead_frac",
            Some(ratio(ns("system.run_traced"), run_ns) - 1.0),
            "ratio",
        ),
        Metric::new(
            "system.l2_misses_per_op",
            Some(ratio(c.l2_misses, c.ops)),
            "ratio",
        ),
        Metric::new(
            "system.l2_miss_replay_match",
            Some(ratio(r.l2_misses, c.l2_misses)),
            "ratio",
        ),
        Metric::new(
            "mem.cache.l2_hit_ratio",
            Some(ratio(c.l2_hits, c.l2_hits + c.l2_misses)),
            "ratio",
        ),
        Metric::new(
            "mem.cache.replay_match",
            Some(ratio(r.hits, c.hits)),
            "ratio",
        ),
        Metric::new(
            "mem.dir.replay_match",
            Some(1.0 - ratio(r.target_mismatches, r.miss_events)),
            "ratio",
        ),
        Metric::new(
            "noc.msgs_per_miss",
            Some(ratio(c.noc_messages, c.l2_misses)),
            "count",
        ),
        Metric::new(
            "noc.contention_cycles_per_msg",
            Some(ratio(c.contention, c.noc_messages)),
            "cycles",
        ),
        Metric::new(
            "noc.replay_match",
            Some(ratio(r.noc_messages, c.noc_messages)),
            "ratio",
        ),
    ];
    let mut per_call = |layer: &'static str, calls_name: &'static str, ns_name: &'static str| {
        if let Some(&n) = c.calls.get(layer) {
            m.push(Metric::new(calls_name, Some(n as f64), "count"));
            m.push(Metric::new(
                ns_name,
                Some(ratio(ns(layer), calls(layer))),
                "ns",
            ));
        }
    };
    per_call("mem.cache", "mem.cache.calls", "mem.cache.ns_per_call");
    per_call("mem.dir", "mem.dir.calls", "mem.dir.ns_per_call");
    per_call("noc", "noc.sends", "noc.ns_per_send");
    per_call("core.sp", "core.sp.calls", "core.sp.ns_per_call");
    per_call(
        "baselines.addr",
        "baselines.addr.calls",
        "baselines.addr.ns_per_call",
    );
    per_call("sync", "sync.calls", "sync.ns_per_call");
    per_call(
        "sim.eventq",
        "sim.eventq.push_pops",
        "sim.eventq.ns_per_push_pop",
    );
    if let Some(&(p, s)) = c.predictions.get("core.sp") {
        m.push(Metric::new(
            "core.sp.sufficient_ratio",
            Some(ratio(s, p)),
            "ratio",
        ));
        m.push(Metric::new(
            "core.sp.predictions_replay_match",
            Some(ratio(r.sp.0, c.sp.0)),
            "ratio",
        ));
        m.push(Metric::new(
            "core.sp.sufficient_replay_match",
            Some(ratio(r.sp.1, c.sp.1)),
            "ratio",
        ));
    }
    if let Some(&(p, s)) = c.predictions.get("baselines.addr") {
        let replayed = r.predictions.get("baselines.addr").copied().unwrap_or(0);
        m.push(Metric::new(
            "baselines.addr.sufficient_ratio",
            Some(ratio(s, p)),
            "ratio",
        ));
        m.push(Metric::new(
            "baselines.addr.replay_match",
            Some(ratio(replayed, p)),
            "ratio",
        ));
    }
    if let Some(h) = harness {
        let busy: f64 = h.cells.iter().map(|x| x.wall.as_secs_f64()).sum();
        let wall = h.wall.as_secs_f64();
        m.push(Metric::new(
            "harness.render_ms",
            Some(h.render.as_secs_f64() * 1e3),
            "ms",
        ));
        m.push(Metric::new(
            "harness.replay_ms",
            Some(h.replay.as_secs_f64() * 1e3),
            "ms",
        ));
        m.push(Metric::new(
            "harness.spool_write_ms",
            Some(h.spool_write.as_secs_f64() * 1e3),
            "ms",
        ));
        m.push(Metric::new(
            "harness.overhead_frac",
            Some((wall - busy) / wall),
            "ratio",
        ));
    }

    let off = |name: &str| {
        m.iter()
            .find(|x| x.name == name)
            .and_then(|x| x.value)
            .is_some_and(|v| (v - 1.0).abs() > REPLAY_TOLERANCE)
    };
    let mut flag = |layer: &'static str, why: String| {
        flags.entry(layer).or_insert(why);
    };
    if off("mem.cache.replay_match") || off("system.l2_miss_replay_match") {
        flag(
            "mem.cache",
            "replayed hits/misses differ from RunStats".into(),
        );
    }
    if off("mem.dir.replay_match") {
        flag(
            "mem.dir",
            "replayed directory targets differ from the trace".into(),
        );
    }
    if off("noc.replay_match") {
        flag(
            "noc",
            "replayed messages differ from RunStats.noc.messages".into(),
        );
    }
    if off("core.sp.predictions_replay_match") || off("core.sp.sufficient_replay_match") {
        flag(
            "core.sp",
            "replayed SP predictions differ from RunStats.sp".into(),
        );
    }
    if off("baselines.addr.replay_match") {
        flag(
            "baselines.addr",
            "replayed ADDR predictions differ from RunStats".into(),
        );
    }
    if r.sync_divergences > 0 {
        flag(
            "sync",
            format!(
                "{} lock operations resolved differently",
                r.sync_divergences
            ),
        );
    }
    if r.ops != c.ops {
        flag("sim.eventq", format!("replayed {} ops of {}", r.ops, c.ops));
    }
    m
}

/// The per-layer table: each layer's calls, cost per call and share of
/// the untraced run, flagged when its replay is untrusted.
fn layer_table(
    metrics: &[Metric],
    flags: &BTreeMap<&'static str, String>,
    passes: usize,
) -> String {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.value)
    };
    let run_ms = get("system.run_ms").unwrap_or(0.0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "per-layer replay (median of {passes} traced pass(es); tolerance ±{REPLAY_TOLERANCE})"
    );
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>10} {:>10} {:>8}  trust",
        "layer", "calls", "ns/call", "self ms", "of run"
    );
    let rows = [
        ("mem.cache", "mem.cache.calls", "mem.cache.ns_per_call"),
        ("mem.dir", "mem.dir.calls", "mem.dir.ns_per_call"),
        ("noc", "noc.sends", "noc.ns_per_send"),
        ("core.sp", "core.sp.calls", "core.sp.ns_per_call"),
        (
            "baselines.addr",
            "baselines.addr.calls",
            "baselines.addr.ns_per_call",
        ),
        ("sync", "sync.calls", "sync.ns_per_call"),
        (
            "sim.eventq",
            "sim.eventq.push_pops",
            "sim.eventq.ns_per_push_pop",
        ),
    ];
    for (layer, calls, per) in rows {
        let (Some(calls), Some(per)) = (get(calls), get(per)) else {
            continue;
        };
        let self_ms = calls * per / 1e6;
        let trust = flags
            .get(layer)
            .map_or("ok".to_string(), |why| format!("UNTRUSTED: {why}"));
        let _ = writeln!(
            out,
            "{layer:<16} {calls:>12.0} {per:>10.2} {self_ms:>10.2} {:>7.1}%  {trust}",
            100.0 * self_ms / run_ms.max(f64::MIN_POSITIVE)
        );
    }
    for m in metrics {
        let _ = writeln!(out, "{}", m.line());
    }
    out
}
