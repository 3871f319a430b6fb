//! The untraced run: end-to-end metrics of one workload.

use std::time::{Duration, Instant};

use spcp_system::CmpSystem;
use spcp_workloads::Workload;

use crate::stats::{self, MIN_BEYOND};
use crate::sweep::{await_thread_exit, cell_config, PassContext, Reference, Tally};
use crate::{model, peak_rss_mb, Metric};

/// Percentile reported for the cell distribution.
pub const TAIL_PCT: usize = 90;

/// Passes stop once this much time has been measured even if fewer
/// samples than the tail percentile needs were collected, so a run ends
/// well inside its time limit.
const MAX_MEASURE: Duration = Duration::from_secs(120);

/// What every cell pays before its first op, summed over the cells:
/// workload generation plus machine construction (a run of an empty
/// workload with the cell's configuration). Returns the time and each
/// cell's generated op count.
///
/// It runs on a worker thread, as the cells do, so its allocations land in
/// the allocator arena the sweep's worker then reuses. On the main thread
/// they would stay resident beside the sweep's, and peak RSS would add the
/// two in a proportion that varies with the seed.
pub fn setup(specs: &[spcp_harness::RunSpec]) -> (f64, Vec<u64>) {
    await_thread_exit();
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let mut total = Duration::ZERO;
                let mut ops = Vec::with_capacity(specs.len());
                for spec in specs {
                    let cores = spec.machine.num_cores;
                    let t0 = Instant::now();
                    let workload = spec.bench.generate(cores, spec.seed);
                    let empty = Workload::from_threads(spec.bench.name, vec![Vec::new(); cores]);
                    let built = CmpSystem::run_workload(&empty, &cell_config(spec));
                    total += t0.elapsed();
                    std::hint::black_box(&built);
                    ops.push(workload.total_ops() as u64);
                }
                (total.as_secs_f64(), ops)
            })
            .join()
            .expect("set-up does not panic")
    })
}

/// Measures `ctx`'s workload for `seconds` of passes after one warm-up
/// pass, returning the end-to-end metrics.
///
/// Set-up is measured once before the warm-up and once before every timed
/// pass, so `setup_s`, a median like the pass metrics, samples the host
/// over the same stretch of time.
pub fn run(ctx: &mut PassContext, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let specs = ctx.def.matrix.expand();
    let (first_setup, ops) = setup(&specs);
    let mut setups = vec![first_setup];
    let mut reference = Reference::new(specs, ops);

    let warm = ctx.pass(&mut reference, tally, true);
    let model_metrics = warm
        .as_ref()
        .map(|w| model::metrics(reference.specs(), &w.stats))
        .unwrap_or_default();

    let min_cells = stats::min_samples(TAIL_PCT, MIN_BEYOND);
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut mops = Vec::new();
    let mut ns_per_op = Vec::new();
    // Each cell's host time and simulated ops, summed over the passes.
    let mut per_cell: Vec<(f64, u64)> = vec![(0.0, 0); reference.specs().len()];
    loop {
        setups.push(setup(reference.specs()).0);
        if let Some(pass) = ctx.pass(&mut reference, tally, false) {
            walls.push(pass.wall.as_secs_f64());
            let ops: u64 = pass.cells.iter().map(|c| c.ops).sum();
            let busy: f64 = pass.cells.iter().map(|c| c.wall.as_secs_f64()).sum();
            if busy > 0.0 {
                mops.push(ops as f64 / busy / 1e6);
            }
            for c in &pass.cells {
                let ns = c.wall.as_nanos() as f64 / c.ops.max(1) as f64;
                let cell = &mut per_cell[c.index];
                cell.0 += c.wall.as_nanos() as f64;
                cell.1 += c.ops;
                ns_per_op.push(ns);
            }
        }
        let elapsed = started.elapsed();
        if (elapsed.as_secs_f64() >= seconds && ns_per_op.len() >= min_cells)
            || elapsed >= MAX_MEASURE
        {
            break;
        }
    }

    println!(
        "passes {} | {} simulated ops per pass | cell samples {} ({} beyond p{TAIL_PCT}) | cells_failed_frac {} ({} of {})",
        walls.len(),
        reference.ops().iter().sum::<u64>(),
        ns_per_op.len(),
        stats::samples_beyond(ns_per_op.len(), TAIL_PCT),
        tally.failed_frac(),
        tally.failed,
        tally.attempted
    );
    for m in &model_metrics {
        println!("{}", m.line());
    }
    let cell_means: Vec<f64> = per_cell
        .iter()
        .filter(|&&(_, ops)| ops > 0)
        .map(|&(ns, ops)| ns / ops as f64)
        .collect();
    let mut out = vec![
        Metric::new("sweep_wall_s", stats::median(&walls), "s"),
        Metric::new("sim_mops_per_s", stats::median(&mops), "Mops/s"),
        // Each cell's ns per op over all its passes, then the median over
        // cells. The host runs in a fast and a slow state; a cell's mean
        // moves smoothly with the share of time spent in each, where a
        // median over a dozen passes jumps between them, and the median
        // over cells is never the boundary between two cells' clusters of
        // samples the way a pooled median can be.
        Metric::new("cell_ns_per_op_p50", stats::median(&cell_means), "ns"),
    ];
    if stats::samples_beyond(ns_per_op.len(), TAIL_PCT) >= MIN_BEYOND {
        out.push(Metric::new(
            "cell_ns_per_op_p90",
            stats::percentile(&ns_per_op, TAIL_PCT),
            "ns",
        ));
    } else {
        println!("cell_ns_per_op_p90 withheld: fewer than {MIN_BEYOND} samples beyond it");
    }
    out.push(Metric::new("setup_s", stats::median(&setups), "s"));
    out.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB"));
    out
}
