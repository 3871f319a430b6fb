//! The benchmark's workloads and one closed-loop pass over a workload's
//! matrix through the public sweep path.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use spcp_harness::{golden, RunMatrix, RunSpec, StreamConfig, SweepEngine, SweepSummary};
use spcp_system::{PredictorKind, ProtocolKind, RunConfig, RunStats};
use spcp_workloads::{suite, BenchmarkSpec};

use crate::checks::{identity_violations, Goldens, Source};

/// Workload names, in the order `--help` lists them.
pub const NAMES: [&str; 3] = ["paper-mix", "bcast-fanout", "compute-sync"];

/// Models with the most NoC traffic per op under broadcast.
const BCAST_MODELS: [&str; 6] = [
    "ocean",
    "streamcluster",
    "facesim",
    "x264",
    "fmm",
    "water-sp",
];

/// Models dominated by barriers and critical sections.
const SYNC_MODELS: [&str; 6] = [
    "radiosity",
    "raytrace",
    "dedup",
    "water-ns",
    "fluidanimate",
    "water-sp",
];

/// Non-memory cycles between accesses on `compute-sync`, set the way the
/// `ext_compute_intensity` experiment sets it.
const WORK_PER_ACCESS: u32 = 16;

/// Idle time before every new worker thread (each pass and each set-up
/// measurement). A finished worker hands its allocator arena back only as
/// its thread exits, which can be after the scope that ran it returned;
/// without the pause the next worker sometimes finds no free arena and
/// opens a second one, and peak RSS then depends on that race (about 16 MB
/// more) instead of on the program.
const THREAD_EXIT_PAUSE: Duration = Duration::from_millis(5);

/// Waits out the previous worker thread's exit; see [`THREAD_EXIT_PAUSE`].
pub fn await_thread_exit() {
    std::thread::sleep(THREAD_EXIT_PAUSE);
}

/// One benchmark workload: a run matrix and the sweep path it takes.
#[derive(Debug, Clone)]
pub struct WorkloadDef {
    /// Workload name.
    pub name: &'static str,
    /// The cells, all at the benchmark's seed.
    pub matrix: RunMatrix,
    /// Whether passes go through `run_streamed` and a spool replay
    /// instead of the in-memory engine.
    pub streamed: bool,
}

fn model(name: &str) -> BenchmarkSpec {
    suite::by_name(name).expect("every benchmark model named here is in the suite")
}

/// The workload `name` at `seed`, or `None` for an unknown name.
pub fn define(name: &str, seed: u64) -> Option<WorkloadDef> {
    let (name, matrix, streamed) = match name {
        "paper-mix" => (
            "paper-mix",
            RunMatrix::new()
                .benches(suite::all())
                .protocol("dir", ProtocolKind::Directory)
                .protocol("sp", ProtocolKind::Predicted(PredictorKind::sp_default()))
                .protocol(
                    "addr",
                    ProtocolKind::Predicted(PredictorKind::Addr {
                        entries: None,
                        macroblock_bytes: 256,
                    }),
                ),
            false,
        ),
        "bcast-fanout" => (
            "bcast-fanout",
            RunMatrix::new()
                .benches(BCAST_MODELS.map(model))
                .protocol("bc", ProtocolKind::Broadcast),
            false,
        ),
        "compute-sync" => (
            "compute-sync",
            RunMatrix::new()
                .benches(SYNC_MODELS.map(|name| {
                    let mut spec = model(name);
                    for epoch in spec.phases.iter_mut().flat_map(|p| &mut p.epochs) {
                        epoch.work_per_access = WORK_PER_ACCESS;
                    }
                    spec
                }))
                .protocol("dir", ProtocolKind::Directory),
            true,
        ),
        _ => return None,
    };
    Some(WorkloadDef {
        name,
        matrix: matrix.seeds(&[seed]),
        streamed,
    })
}

/// The run configuration `RunSpec::execute` builds for `spec`.
pub fn cell_config(spec: &RunSpec) -> RunConfig {
    let mut cfg = RunConfig::new(spec.machine.clone(), spec.protocol.clone());
    if spec.record {
        cfg = cfg.recording();
    }
    if spec.snoop_filter {
        cfg = cfg.with_snoop_filter();
    }
    if spec.variant.migrate_every > 0 || spec.variant.logical_tracking {
        cfg = cfg.with_migration(
            spec.variant.migrate_every,
            spec.variant.migrate_rotation,
            spec.variant.logical_tracking,
        );
    }
    cfg
}

/// Attempted and failed cells, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that failed a check.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records a failed cell.
    pub fn fail(&mut self, id: &str, why: impl AsRef<str>) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(format!("{id}: {}", why.as_ref()));
        }
    }

    /// Failed cells over attempted cells.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Reference results every pass is checked against: the generated op
/// count and the warm-up pass's golden snapshot of each cell.
#[derive(Debug)]
pub struct Reference {
    specs: Vec<RunSpec>,
    ops: Vec<u64>,
    snapshots: Vec<Option<String>>,
    rendered: Option<String>,
}

impl Reference {
    /// A reference for `specs` whose generated workloads have `ops` ops.
    pub fn new(specs: Vec<RunSpec>, ops: Vec<u64>) -> Self {
        let snapshots = vec![None; specs.len()];
        Reference {
            specs,
            ops,
            snapshots,
            rendered: None,
        }
    }

    /// The cells, in canonical order.
    pub fn specs(&self) -> &[RunSpec] {
        &self.specs
    }

    /// Each cell's generated op count.
    pub fn ops(&self) -> &[u64] {
        &self.ops
    }

    /// Checks one cell's stats: its identities, its snapshot against the
    /// first one seen for the cell, and (on the first sighting) the
    /// checked-in golden covering it. Returns whether the cell passed.
    pub fn check_cell(
        &mut self,
        index: usize,
        stats: &RunStats,
        source: Source,
        goldens: &mut Goldens,
        golden_dir: &Path,
        tally: &mut Tally,
    ) -> bool {
        let spec = &self.specs[index];
        let id = spec.id();
        let broken = identity_violations(stats, self.ops[index], source);
        if !broken.is_empty() {
            tally.fail(&id, broken.join("; "));
            return false;
        }
        let snapshot = golden::snapshot_run(spec, stats);
        match &self.snapshots[index] {
            Some(first) if *first != snapshot => {
                tally.fail(&id, "golden snapshot differs between repetitions");
                false
            }
            Some(_) => true,
            None => {
                let golden_ok = goldens
                    .section(golden_dir, spec)
                    .is_none_or(|section| section == snapshot);
                self.snapshots[index] = Some(snapshot);
                if !golden_ok {
                    tally.fail(&id, "differs from its checked-in golden section");
                }
                golden_ok
            }
        }
    }
}

/// One cell's host time in a pass.
#[derive(Debug, Clone, Copy)]
pub struct CellSample {
    /// Cell index in canonical order.
    pub index: usize,
    /// Wall time of the cell's simulation.
    pub wall: Duration,
    /// Simulated ops the cell retired.
    pub ops: u64,
}

/// Host-side timings of one pass.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall time of the whole pass: engine, spool and report.
    pub wall: Duration,
    /// Per-cell samples of cells that passed every check.
    pub cells: Vec<CellSample>,
    /// Rendering the golden text and summary after the engine finished.
    pub render: Duration,
    /// Streamed only: the summary's spool replay.
    pub replay: Duration,
    /// Streamed only: engine time spent outside cell execution.
    pub spool_write: Duration,
    /// Per-cell stats of an in-memory pass, for callers that need more
    /// than the checks (empty for streamed passes).
    pub stats: Vec<RunStats>,
}

/// Context shared by every pass of one benchmark run.
pub struct PassContext<'a> {
    /// The workload.
    pub def: &'a WorkloadDef,
    /// The engine (one worker).
    pub engine: SweepEngine,
    /// Where streamed passes spool.
    pub spool_root: PathBuf,
    /// Checked-in goldens, read lazily.
    pub goldens: Goldens,
    /// Directory holding the checked-in goldens.
    pub golden_dir: PathBuf,
    /// Passes run so far (names spool directories).
    pub passes: usize,
}

impl PassContext<'_> {
    /// Runs one pass over every cell and checks each cell's output.
    ///
    /// `force_memory` runs the in-memory path whatever the workload's
    /// path is (the warm-up pass, whose full `RunStats` carry the
    /// communication matrix). A panic anywhere in the pass fails every
    /// cell of the pass.
    pub fn pass(
        &mut self,
        reference: &mut Reference,
        tally: &mut Tally,
        force_memory: bool,
    ) -> Option<Pass> {
        await_thread_exit();
        let n = reference.specs().len();
        tally.attempted += n as u64;
        let streamed = self.def.streamed && !force_memory;
        self.passes += 1;
        let spool = self
            .spool_root
            .join(format!("spool-{}-{}", std::process::id(), self.passes));
        let engine = self.engine;
        let matrix = &self.def.matrix;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if streamed {
                streamed_pass(engine, matrix, &spool)
            } else {
                Ok(memory_pass(engine, matrix))
            }
        }));
        let _ = std::fs::remove_dir_all(&spool);
        let (mut pass, Records { runs, rendered }) = match outcome {
            Ok(Ok(done)) => done,
            Ok(Err(e)) => {
                self.fail_all(reference, tally, &format!("streamed sweep failed: {e}"));
                return None;
            }
            Err(_) => {
                self.fail_all(reference, tally, "the pass panicked");
                return None;
            }
        };
        if runs.len() != n {
            self.fail_all(
                reference,
                tally,
                "the sweep returned the wrong number of runs",
            );
            return None;
        }
        let source = if streamed {
            Source::Spooled
        } else {
            Source::InMemory
        };
        let mut cells = Vec::with_capacity(n);
        for (index, (stats, wall)) in runs.iter().enumerate() {
            if reference.check_cell(
                index,
                stats,
                source,
                &mut self.goldens,
                &self.golden_dir,
                tally,
            ) {
                cells.push(CellSample {
                    index,
                    wall: *wall,
                    ops: stats.total_ops,
                });
            }
        }
        match &reference.rendered {
            None => reference.rendered = Some(rendered),
            Some(first) if *first != rendered && cells.len() == n => {
                // Every cell matched its own snapshot, so the difference
                // lies in how the sweep assembled the report.
                tally.fail(
                    self.def.name,
                    "the rendered golden report differs between passes",
                );
            }
            Some(_) => {}
        }
        pass.cells = cells;
        if !streamed {
            pass.stats = runs.into_iter().map(|(s, _)| s).collect();
        }
        Some(pass)
    }

    fn fail_all(&self, reference: &Reference, tally: &mut Tally, why: &str) {
        for spec in reference.specs() {
            tally.fail(&spec.id(), why);
        }
    }
}

/// What a pass returned, before checking: each cell's stats and wall
/// time in canonical order, and the rendered golden report.
struct Records {
    runs: Vec<(RunStats, Duration)>,
    rendered: String,
}

fn memory_pass(engine: SweepEngine, matrix: &RunMatrix) -> (Pass, Records) {
    let t0 = Instant::now();
    let result = engine.run(matrix);
    let t_render = Instant::now();
    let rendered = golden::render(&result);
    let summary = result.summary();
    let wall = t0.elapsed();
    std::hint::black_box(&summary);
    let pass = Pass {
        wall,
        cells: Vec::new(),
        render: wall - (t_render - t0),
        replay: Duration::ZERO,
        spool_write: Duration::ZERO,
        stats: Vec::new(),
    };
    let runs = result.runs.into_iter().map(|r| (r.stats, r.wall)).collect();
    (pass, Records { runs, rendered })
}

fn streamed_pass(
    engine: SweepEngine,
    matrix: &RunMatrix,
    spool: &Path,
) -> Result<(Pass, Records), String> {
    let t0 = Instant::now();
    let streamed = engine
        .run_streamed(matrix, &StreamConfig::new(spool))
        .map_err(|e| e.to_string())?;
    let t_replay = Instant::now();
    let summary: SweepSummary = streamed.summary().map_err(|e| e.to_string())?;
    let t_render = Instant::now();
    let rendered = streamed.render_golden().map_err(|e| e.to_string())?;
    let wall = t0.elapsed();
    std::hint::black_box(&summary);

    let mut runs = Vec::with_capacity(streamed.specs().len());
    streamed
        .for_each_run(|_, rec| runs.push((rec.stats.clone(), rec.wall)))
        .map_err(|e| e.to_string())?;
    let busy: Duration = runs.iter().map(|(_, w)| *w).sum();
    let pass = Pass {
        wall,
        cells: Vec::new(),
        render: wall - (t_render - t0),
        replay: t_render - t_replay,
        spool_write: streamed.elapsed.saturating_sub(busy),
        stats: Vec::new(),
    };
    Ok((pass, Records { runs, rendered }))
}
