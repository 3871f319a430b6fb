//! Parallel-determinism guarantees of the sweep engine: a ≥24-run matrix
//! produces bit-identical per-run stats and merged summaries at `--jobs 1`,
//! `--jobs 4` and `--jobs 8`, and summary merging is independent of worker
//! scheduling order. The same guarantees are pinned for the streamed
//! (spooled-to-disk) path: streaming at any job count reproduces the
//! in-memory sweep bit for bit, and the shard merge order never changes
//! the report.

use std::path::PathBuf;

use spcp::harness::spool::{self, SpoolMerge};
use spcp::harness::{golden, RunMatrix, StreamConfig, SweepEngine, SweepResult, SweepSummary};
use spcp::sim::DetRng;
use spcp::system::{PredictorKind, ProtocolKind};
use spcp::workloads::suite;

/// 3 benchmarks × 4 protocols × 2 seeds = 24 runs.
fn matrix_24() -> RunMatrix {
    RunMatrix::new()
        .bench(suite::by_name("fft").unwrap())
        .bench(suite::by_name("radix").unwrap())
        .bench(suite::by_name("lu").unwrap())
        .protocol("dir", ProtocolKind::Directory)
        .protocol("bc", ProtocolKind::Broadcast)
        .protocol("sp", ProtocolKind::Predicted(PredictorKind::sp_default()))
        .protocol("uni", ProtocolKind::Predicted(PredictorKind::Uni))
        .seeds(&[7, 11])
}

fn assert_bit_identical(a: &SweepResult, b: &SweepResult) {
    assert_eq!(a.runs.len(), b.runs.len());
    for (x, y) in a.runs.iter().zip(&b.runs) {
        let id = x.spec.id();
        assert_eq!(x.spec.id(), y.spec.id());
        assert_eq!(
            x.stats.exec_cycles, y.stats.exec_cycles,
            "{id}: exec_cycles"
        );
        assert_eq!(
            x.stats.noc.byte_hops, y.stats.noc.byte_hops,
            "{id}: byte_hops"
        );
        assert_eq!(
            x.stats.noc.ctrl_byte_hops, y.stats.noc.ctrl_byte_hops,
            "{id}"
        );
        assert_eq!(
            x.stats.predictions, y.stats.predictions,
            "{id}: predictions"
        );
        assert_eq!(x.stats.pred_sufficient, y.stats.pred_sufficient, "{id}");
        assert_eq!(x.stats.pred_insufficient, y.stats.pred_insufficient, "{id}");
        assert_eq!(x.stats.indirections, y.stats.indirections, "{id}");
        assert_eq!(x.stats.total_ops, y.stats.total_ops, "{id}: total_ops");
        assert_eq!(x.stats.l2_misses, y.stats.l2_misses, "{id}: l2_misses");
        assert_eq!(
            x.stats.comm_misses, y.stats.comm_misses,
            "{id}: comm_misses"
        );
    }
    assert_eq!(a.summary(), b.summary());
}

#[test]
fn jobs_1_4_8_are_bit_identical() {
    let matrix = matrix_24();
    assert_eq!(matrix.len(), 24);
    let serial = SweepEngine::new(1).run(&matrix);
    let four = SweepEngine::new(4).run(&matrix);
    let eight = SweepEngine::new(8).run(&matrix);
    assert_eq!(serial.jobs, 1);
    assert_bit_identical(&serial, &four);
    assert_bit_identical(&serial, &eight);

    // The harness's own timing metrics must report a ≥3x speedup on a
    // 4+-core machine. On smaller machines (e.g. a 1-core CI container)
    // parallelism cannot help, so only check the metrics are present.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "serial: {}\n jobs8: {}  ({cores} cores available)",
        serial.timing_line(),
        eight.timing_line()
    );
    if cores >= 4 {
        assert!(
            eight.speedup() >= 3.0,
            "expected >=3x speedup on a {cores}-core machine, got {:.2}x",
            eight.speedup()
        );
    }
    assert!(eight.speedup() > 0.0);
    assert!(eight.throughput_ops_per_sec() > 0.0);
}

/// A scratch spool directory, wiped before (and after) use so reruns and
/// crashed prior runs never leak shards into the test.
struct Spool(PathBuf);

impl Spool {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("spcp-det-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Spool(dir)
    }
}

impl Drop for Spool {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn streamed_jobs_1_4_8_bit_identical_to_in_memory() {
    let matrix = matrix_24();
    let reference = SweepEngine::new(1).run(&matrix);
    let reference_render = golden::render(&reference);

    for jobs in [1usize, 4, 8] {
        let spool = Spool::new(&format!("jobs{jobs}"));
        let streamed = SweepEngine::new(jobs)
            .run_streamed(&matrix, &StreamConfig::new(&spool.0))
            .expect("streamed sweep");
        assert_eq!(streamed.executed, 24, "jobs={jobs}");
        assert_eq!(streamed.resumed, 0, "jobs={jobs}");

        // The golden rendering — every counter of every run — is byte-for-
        // byte the in-memory engine's, no matter the worker count.
        let render = streamed.render_golden().expect("replay spool");
        assert_eq!(render, reference_render, "jobs={jobs}");
        assert_eq!(
            streamed.summary().expect("replay spool"),
            reference.summary(),
            "jobs={jobs}"
        );

        // Rehydrating the spool into a SweepResult matches too (canonical
        // run order, identical stats).
        let rehydrated = streamed.into_sweep_result().expect("replay spool");
        assert_bit_identical(&reference, &rehydrated);
    }
}

#[test]
fn shard_merge_order_never_changes_report() {
    let matrix = matrix_24();
    let spool = Spool::new("mergeorder");
    let streamed = SweepEngine::new(4)
        .run_streamed(&matrix, &StreamConfig::new(&spool.0))
        .expect("streamed sweep");
    let reference = streamed.summary().expect("replay spool");
    let fingerprint = streamed.fingerprint();

    let shards = spool::shard_files(&spool.0).expect("list shards");
    assert!(!shards.is_empty());

    let mut rng = DetRng::seeded(0x5eed);
    for trial in 0..10 {
        let mut order = shards.clone();
        rng.shuffle(&mut order);
        let mut merge = SpoolMerge::open(&order, fingerprint).expect("open shards");
        let mut summary = SweepSummary::new();
        let mut last_index = None;
        while let Some(rec) = merge.next().expect("merge") {
            // Records always drain in canonical matrix order, regardless
            // of the order the shard files were listed in.
            assert!(last_index < Some(rec.index), "trial {trial}");
            last_index = Some(rec.index);
            summary.observe(&rec.stats);
        }
        assert_eq!(summary, reference, "trial {trial}");
    }
}

#[test]
fn summary_merge_is_independent_of_worker_order() {
    // Partition the matrix results as if different workers had finished in
    // arbitrary orders, and check every merge order gives the same summary.
    let result = SweepEngine::new(2).run(&matrix_24());
    let reference = result.summary();

    let mut rng = DetRng::seeded(42);
    for trial in 0..10 {
        // Random partition into up to 8 "worker" summaries.
        let mut parts: Vec<SweepSummary> = (0..8).map(|_| SweepSummary::new()).collect();
        for run in &result.runs {
            parts[rng.index(8)].observe(&run.stats);
        }
        // Merge in a random order.
        rng.shuffle(&mut parts);
        let mut merged = SweepSummary::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged, reference, "trial {trial}");
    }
}

#[test]
fn summary_reflects_run_count_and_ops() {
    let result = SweepEngine::new(2).run(&matrix_24());
    let summary = result.summary();
    assert_eq!(summary.runs, 24);
    let totals = &summary.totals;
    let ops: u64 = result.runs.iter().map(|r| r.stats.total_ops).sum();
    assert_eq!(totals.total_ops, ops);
    assert!(totals.accuracy() > 0.0, "sp/uni runs must predict");
    assert!(totals.noc.byte_hops > 0);
    assert_eq!(
        totals.miss_latency.count(),
        totals.miss_latency_hist.total(),
        "every miss latency sample is histogrammed"
    );
}
