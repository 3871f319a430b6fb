//! In-process A/B driver: the working tree's simulator crates and a
//! baseline revision's crates, linked into one binary and run cell by
//! cell in alternation, so slow drift of the host's speed lands on both
//! versions alike.
//!
//! Built and run by `scripts/ab_inprocess.sh`, which exports the baseline,
//! bumps its crate versions so Cargo can link both copies, and writes this
//! driver's manifest (`head_*` crates = working tree, `base_*` crates =
//! baseline).
//!
//! Arguments: `<paper-mix|compute-sync> <rounds> <seed>`. Each round runs
//! every cell of the workload once per version, alternating which
//! version goes first, and prints the head ÷ base ratio of the summed
//! simulation host time (workload generation is not timed). Every cell's
//! `golden::snapshot_run` text must be identical across the versions;
//! the driver exits 1 if any differs.

use std::process::ExitCode;
use std::time::Duration;

/// The simulator API the driver uses, instantiated once per version.
macro_rules! version {
    ($name:ident, $harness:ident, $system:ident, $workloads:ident) => {
        mod $name {
            use std::time::{Duration, Instant};

            use $harness::{golden, RunMatrix, RunSpec};
            use $system::{CmpSystem, PredictorKind, ProtocolKind, RunConfig};
            use $workloads::suite;

            /// The cells of `workload` at `seed`, in matrix order: the
            /// sweep benchmark's `paper-mix` (every suite model × dir, sp,
            /// addr) or `compute-sync` (six sync-heavy models with 16
            /// compute cycles per access × dir).
            pub fn cells(workload: &str, seed: u64) -> Vec<RunSpec> {
                let matrix = match workload {
                    "paper-mix" => RunMatrix::new()
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
                    "compute-sync" => RunMatrix::new()
                        .benches(
                            [
                                "radiosity",
                                "raytrace",
                                "dedup",
                                "water-ns",
                                "fluidanimate",
                                "water-sp",
                            ]
                            .map(|name| {
                                let mut spec = suite::by_name(name).expect("suite model");
                                for epoch in spec.phases.iter_mut().flat_map(|p| &mut p.epochs) {
                                    epoch.work_per_access = 16;
                                }
                                spec
                            }),
                        )
                        .protocol("dir", ProtocolKind::Directory),
                    other => panic!("unknown workload {other:?}"),
                };
                matrix.seeds(&[seed]).expand()
            }

            /// Runs one cell: host time of the simulation alone, and its
            /// golden snapshot.
            pub fn run(spec: &RunSpec) -> (Duration, String) {
                let workload = spec.bench.generate(spec.machine.num_cores, spec.seed);
                let cfg = RunConfig::new(spec.machine.clone(), spec.protocol.clone());
                let start = Instant::now();
                let stats = CmpSystem::run_workload(&workload, &cfg);
                let wall = start.elapsed();
                (wall, golden::snapshot_run(spec, &stats))
            }
        }
    };
}

version!(head, head_harness, head_system, head_workloads);
version!(base, base_harness, base_system, base_workloads);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [workload, rounds, seed] = args.as_slice() else {
        eprintln!("usage: ab_inprocess <paper-mix|compute-sync> <rounds> <seed>");
        return ExitCode::from(2);
    };
    let rounds: usize = rounds.parse().expect("rounds is a count");
    let seed: u64 = seed.parse().expect("seed is an integer");
    let head_cells = head::cells(workload, seed);
    let base_cells = base::cells(workload, seed);
    assert_eq!(head_cells.len(), base_cells.len(), "matrices differ");
    println!(
        "{workload} seed {seed}: {} cells x {rounds} rounds, ratio = head / base host time",
        head_cells.len()
    );

    let mut mismatches = 0usize;
    let mut ratios = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let (mut head_total, mut base_total) = (Duration::ZERO, Duration::ZERO);
        for (i, (h, b)) in head_cells.iter().zip(&base_cells).enumerate() {
            let ((head_wall, head_snap), (base_wall, base_snap)) = if (round + i) % 2 == 0 {
                let first = head::run(h);
                (first, base::run(b))
            } else {
                let first = base::run(b);
                (head::run(h), first)
            };
            head_total += head_wall;
            base_total += base_wall;
            if head_snap != base_snap {
                mismatches += 1;
                let (line_h, line_b) = head_snap
                    .lines()
                    .zip(base_snap.lines())
                    .find(|(x, y)| x != y)
                    .unwrap_or(("<length differs>", ""));
                println!(
                    "SNAPSHOT MISMATCH round {round} cell {}/{}: head `{line_h}` vs base `{line_b}`",
                    h.bench.name, h.protocol_label
                );
            }
        }
        let ratio = head_total.as_secs_f64() / base_total.as_secs_f64();
        ratios.push(ratio);
        println!(
            "round {round}: {ratio:.3} (head {:.3} s, base {:.3} s)",
            head_total.as_secs_f64(),
            base_total.as_secs_f64()
        );
    }
    ratios.sort_by(f64::total_cmp);
    if let (Some(lo), Some(hi)) = (ratios.first(), ratios.last()) {
        println!(
            "median {:.3} (min {lo:.3}, max {hi:.3}) over {rounds} rounds",
            ratios[ratios.len() / 2]
        );
    }
    if mismatches > 0 {
        println!("{mismatches} cell snapshot(s) differ between head and base");
        return ExitCode::FAILURE;
    }
    println!("all cell snapshots identical");
    ExitCode::SUCCESS
}
