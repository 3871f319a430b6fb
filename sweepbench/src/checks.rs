//! Output checks that decide whether a simulated cell counts as failed.
//!
//! A cell fails when its run panics, when its [`RunStats`] break one of
//! the accounting identities below, when its golden snapshot differs
//! between repetitions of the same cell, or when a checked-in golden in
//! `tests/golden/` covers the cell and its section differs.

use std::collections::HashMap;
use std::path::Path;

use spcp_harness::RunSpec;
use spcp_system::{MachineConfig, PredictorKind, ProtocolKind, RunStats};
use spcp_workloads::suite;

/// Where a cell's statistics came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A full in-memory [`RunStats`].
    InMemory,
    /// A record replayed from a spool. Spool records do not carry the
    /// communication matrix, so its identity is checked on the in-memory
    /// warm-up pass of the same cell instead; the golden section (which
    /// includes `actual_set_sum`) must still equal that pass's.
    Spooled,
}

/// Every accounting identity `stats` breaks, as human-readable lines.
///
/// `expected_ops` is the generated workload's `total_ops()`.
pub fn identity_violations(stats: &RunStats, expected_ops: u64, source: Source) -> Vec<String> {
    let mut out = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            out.push(what);
        }
    };
    require(
        stats.l1_hits + stats.l2_hits + stats.l2_misses == stats.loads + stats.stores,
        format!(
            "l1_hits {} + l2_hits {} + l2_misses {} != loads {} + stores {}",
            stats.l1_hits, stats.l2_hits, stats.l2_misses, stats.loads, stats.stores
        ),
    );
    require(
        stats.comm_misses + stats.noncomm_misses == stats.l2_misses,
        format!(
            "comm_misses {} + noncomm_misses {} != l2_misses {}",
            stats.comm_misses, stats.noncomm_misses, stats.l2_misses
        ),
    );
    require(
        stats.miss_latency.count() == stats.l2_misses,
        format!(
            "miss_latency.count {} != l2_misses {}",
            stats.miss_latency.count(),
            stats.l2_misses
        ),
    );
    require(
        stats.pred_sufficient + stats.pred_insufficient == stats.predictions,
        format!(
            "pred_sufficient {} + pred_insufficient {} != predictions {}",
            stats.pred_sufficient, stats.pred_insufficient, stats.predictions
        ),
    );
    if source == Source::InMemory {
        require(
            stats.comm_matrix.total() == stats.actual_set_sum,
            format!(
                "comm_matrix.total {} != actual_set_sum {}",
                stats.comm_matrix.total(),
                stats.actual_set_sum
            ),
        );
    }
    require(
        stats.total_ops == expected_ops,
        format!(
            "total_ops {} != generated workload's {}",
            stats.total_ops, expected_ops
        ),
    );
    out
}

/// The `[run …]` block headed by `header` in a golden file's text,
/// including the header line and the newline ending its last field — the
/// exact text `golden::snapshot_run` renders for that run.
pub fn golden_section<'a>(golden: &'a str, header: &str) -> Option<&'a str> {
    let mut offset = 0;
    let mut start = None;
    for line in golden.split_inclusive('\n') {
        let body = line.trim_end_matches('\n');
        match start {
            None if body == header => start = Some(offset),
            Some(s) if body.is_empty() || body.starts_with("[run ") => {
                return Some(&golden[s..offset]);
            }
            _ => {}
        }
        offset += line.len();
    }
    start.map(|s| &golden[s..])
}

/// The protocol a checked-in golden file stores under each label.
fn golden_protocol(label: &str) -> Option<ProtocolKind> {
    Some(match label {
        "dir" => ProtocolKind::Directory,
        "bc" => ProtocolKind::Broadcast,
        "sp" => ProtocolKind::Predicted(PredictorKind::sp_default()),
        "uni" => ProtocolKind::Predicted(PredictorKind::Uni),
        _ => return None,
    })
}

/// The golden header a cell would appear under, when a checked-in golden
/// can cover it: seed 7, the unscaled suite model, the paper machine, the
/// pinned variant and a protocol the golden files carry.
pub fn golden_header(spec: &RunSpec) -> Option<String> {
    let covered = spec.seed == 7
        && spec.machine_label == "paper16"
        && spec.machine == MachineConfig::paper_16core()
        && spec.variant.label.is_empty()
        && !spec.record
        && !spec.snoop_filter
        && suite::by_name(spec.bench.name).as_ref() == Some(&spec.bench)
        && golden_protocol(&spec.protocol_label).as_ref() == Some(&spec.protocol);
    covered.then(|| {
        format!(
            "[run {} {} seed={} machine={} cores={}]",
            spec.bench.name,
            spec.protocol_label,
            spec.seed,
            spec.machine_label,
            spec.machine.num_cores
        )
    })
}

/// Checked-in golden files, read once (never written).
#[derive(Debug, Default)]
pub struct Goldens {
    files: HashMap<&'static str, Option<String>>,
}

impl Goldens {
    /// The golden section covering `spec`, read from `dir`, if any.
    pub fn section(&mut self, dir: &Path, spec: &RunSpec) -> Option<String> {
        let header = golden_header(spec)?;
        let text = self
            .files
            .entry(spec.bench.name)
            .or_insert_with(|| {
                std::fs::read_to_string(dir.join(format!("{}.golden", spec.bench.name))).ok()
            })
            .as_deref()?;
        golden_section(text, &header).map(str::to_string)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcp_harness::{golden, RunMatrix};

    fn fft_dir() -> (RunSpec, RunStats) {
        let spec = RunMatrix::new()
            .bench(suite::by_name("fft").expect("fft is in the suite"))
            .protocol("dir", ProtocolKind::Directory)
            .expand()
            .remove(0);
        let stats = spec.execute();
        (spec, stats)
    }

    fn expected_ops(spec: &RunSpec) -> u64 {
        spec.bench
            .generate(spec.machine.num_cores, spec.seed)
            .total_ops() as u64
    }

    #[test]
    fn real_run_satisfies_every_identity() {
        let (spec, stats) = fft_dir();
        let ops = expected_ops(&spec);
        assert!(identity_violations(&stats, ops, Source::InMemory).is_empty());
    }

    #[test]
    fn corrupted_stats_are_rejected() {
        let (spec, stats) = fft_dir();
        let ops = expected_ops(&spec);
        type Corruption = (&'static str, fn(&mut RunStats));
        let corruptions: [Corruption; 6] = [
            ("l1_hits", |s| s.l1_hits += 1),
            ("comm_misses", |s| s.comm_misses -= 1),
            ("miss_latency.count", |s| s.miss_latency.record(1)),
            ("pred_sufficient", |s| s.pred_sufficient += 1),
            ("comm_matrix.total", |s| s.actual_set_sum += 1),
            ("total_ops", |s| s.total_ops += 1),
        ];
        for (what, corrupt) in corruptions {
            let mut bad = stats.clone();
            corrupt(&mut bad);
            let found = identity_violations(&bad, ops, Source::InMemory);
            assert!(
                found.iter().any(|v| v.contains(what)),
                "corrupting {what} went unnoticed: {found:?}"
            );
        }
    }

    #[test]
    fn spooled_stats_skip_only_the_matrix_identity() {
        let (spec, mut stats) = fft_dir();
        let ops = expected_ops(&spec);
        stats.comm_matrix = Default::default();
        assert!(identity_violations(&stats, ops, Source::Spooled).is_empty());
        assert_eq!(identity_violations(&stats, ops, Source::InMemory).len(), 1);
    }

    #[test]
    fn golden_section_matches_one_checked_in_run_block() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/golden");
        let (spec, stats) = fft_dir();
        let mut goldens = Goldens::default();
        let section = goldens.section(&dir, &spec).expect("fft/dir is golden");
        assert!(section.starts_with("[run fft dir seed=7 machine=paper16 cores=16]\n"));
        assert_eq!(section.lines().filter(|l| l.starts_with("[run")).count(), 1);
        assert_eq!(section, golden::snapshot_run(&spec, &stats));
    }

    #[test]
    fn golden_section_extraction_edges() {
        let text = "# spcp golden v1\n\n[run a dir seed=7]\nx = 1\n\n[run a bc seed=7]\ny = 2\n";
        assert_eq!(
            golden_section(text, "[run a dir seed=7]"),
            Some("[run a dir seed=7]\nx = 1\n")
        );
        assert_eq!(
            golden_section(text, "[run a bc seed=7]"),
            Some("[run a bc seed=7]\ny = 2\n")
        );
        assert_eq!(golden_section(text, "[run a sp seed=7]"), None);
    }

    #[test]
    fn only_unscaled_seed7_cells_are_golden_covered() {
        let (spec, _) = fft_dir();
        assert!(golden_header(&spec).is_some());
        let mut other_seed = spec.clone();
        other_seed.seed = 11;
        assert!(golden_header(&other_seed).is_none());
        let mut scaled = spec.clone();
        scaled.bench.phases[0].epochs[0].work_per_access = 16;
        assert!(golden_header(&scaled).is_none());
        let mut addr = spec.clone();
        addr.protocol_label = "addr".to_string();
        assert!(golden_header(&addr).is_none());
    }
}
