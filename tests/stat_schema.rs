//! Coverage of the statistics table `spcp_system::metrics::STATS`: every
//! row survives the spool record codec, is summed by `SweepSummary`, and
//! appears in golden snapshots exactly when it is flagged `golden`. A run
//! record written before the table existed still decodes to the same
//! golden block, which pins `--resume` of older spools.

use std::collections::HashSet;
use std::time::Duration;

use spcp::harness::record::{decode_record, encode_record};
use spcp::harness::{golden, RunMatrix, RunRecord, RunSpec, SweepSummary};
use spcp::sim::MeanAccumulator;
use spcp::system::metrics::{Stat, StatField, STATS};
use spcp::system::{PredictorKind, ProtocolKind, RunStats};
use spcp::workloads::suite;

/// The value row `i` is set to: distinct across rows and from every
/// other number in a snapshot.
fn row_value(i: usize) -> u64 {
    1_000_003 * (i as u64 + 1)
}

/// What a row reads as, for comparisons across both row kinds.
#[derive(Debug, PartialEq)]
enum Value {
    Count(u64),
    Mean(MeanAccumulator),
}

fn read(stat: &Stat, stats: &RunStats) -> Value {
    match stat.field {
        StatField::Count(get, _) => Value::Count(get(stats)),
        StatField::Mean(get, _, _) => Value::Mean(*get(stats)),
    }
}

/// Stats whose every row holds its own [`row_value`] — a counter that
/// value, an accumulator the samples `v` and `v + 1` — set through the
/// row's own setter.
fn distinct_stats() -> RunStats {
    let mut stats = RunStats::default();
    for (i, stat) in STATS.iter().enumerate() {
        let v = row_value(i);
        match stat.field {
            StatField::Count(_, set) => set(&mut stats, v),
            StatField::Mean(_, get_mut, _) => {
                get_mut(&mut stats).record(v);
                get_mut(&mut stats).record(v + 1);
            }
        }
    }
    stats
}

fn expected(stat: &Stat, i: usize, runs: u64) -> Value {
    let v = row_value(i);
    match stat.field {
        StatField::Count(..) => Value::Count(v * runs),
        StatField::Mean(..) => Value::Mean(MeanAccumulator::from_parts(
            (2 * v + 1) as u128 * runs as u128,
            2 * runs,
            v,
            v + 1,
        )),
    }
}

fn fft_sp_spec() -> RunSpec {
    RunMatrix::new()
        .bench(suite::by_name("fft").expect("fft model"))
        .protocol("sp", ProtocolKind::Predicted(PredictorKind::sp_default()))
        .expand()
        .remove(0)
}

#[test]
fn row_names_are_unique_and_rows_hold_their_own_field() {
    let names: HashSet<&str> = STATS.iter().map(|s| s.name).collect();
    assert_eq!(names.len(), STATS.len(), "duplicate row name");
    // A row that read or wrote another row's field would see that row's
    // value here instead of its own.
    let stats = distinct_stats();
    for (i, stat) in STATS.iter().enumerate() {
        assert_eq!(read(stat, &stats), expected(stat, i, 1), "{}", stat.name);
    }
}

#[test]
fn every_row_survives_the_spool_record() {
    let rec = RunRecord {
        index: 3,
        id: "fft/sp/seed7/paper16".to_string(),
        wall: Duration::from_nanos(42),
        worker: 1,
        stats: distinct_stats(),
    };
    let back = decode_record(&encode_record(&rec)).expect("decode");
    for (i, stat) in STATS.iter().enumerate() {
        assert_eq!(
            read(stat, &back.stats),
            expected(stat, i, 1),
            "{}",
            stat.name
        );
    }
    assert_eq!(back.stats, rec.stats);
}

#[test]
fn every_row_is_summed_by_observe_and_merge() {
    let stats = distinct_stats();
    let mut observed = SweepSummary::new();
    observed.observe(&stats);
    observed.observe(&stats);
    let mut merged = observed.clone();
    merged.merge(&observed);
    for (i, stat) in STATS.iter().enumerate() {
        assert_eq!(
            read(stat, &observed.totals),
            expected(stat, i, 2),
            "{}",
            stat.name
        );
        assert_eq!(
            read(stat, &merged.totals),
            expected(stat, i, 4),
            "{}",
            stat.name
        );
    }
    assert_eq!(merged.runs, 4);
}

#[test]
fn snapshot_renders_exactly_the_golden_rows() {
    let text = golden::snapshot_run(&fft_sp_spec(), &distinct_stats());
    let lines: Vec<&str> = text.lines().collect();
    let mut payload_lines = 0;
    for (i, stat) in STATS.iter().enumerate() {
        let v = row_value(i);
        let (rendered, other) = match stat.field {
            StatField::Count(..) => (vec![format!("{} = {v}", stat.name)], v),
            StatField::Mean(..) => (
                vec![
                    format!("{}_sum = {}", stat.name, 2 * v + 1),
                    format!("{}_count = 2", stat.name),
                ],
                2 * v + 1,
            ),
        };
        if stat.golden {
            for line in &rendered {
                assert!(lines.contains(&line.as_str()), "missing {line:?}");
            }
            payload_lines += rendered.len();
        } else {
            assert!(
                !lines.iter().any(|l| l.starts_with(stat.name)),
                "{} is not golden but rendered",
                stat.name
            );
            assert!(!text.contains(&format!(" = {other}\n")), "{}", stat.name);
        }
    }
    assert_eq!(lines.len(), 1 + payload_lines, "{text}");
}

/// A run record spooled by the release that predates the statistics
/// table (`spcp sweep --benches fft --protocols sp --seeds 7 --out …`).
const PRE_TABLE_RECORD: &str = r#"{"kind":"run","v":1,"index":0,"id":"fft/sp/seed7/paper16","wall_ns":48273047,"worker":0,"benchmark":"fft","protocol":"predicted-SP","total_ops":53248,"loads":35328,"stores":16896,"l1_hits":32,"l2_hits":224,"l2_misses":51968,"upgrades":15360,"comm_misses":32480,"noncomm_misses":19488,"exec_cycles":305816,"snoop_probes":199265,"predictions":45199,"pred_sufficient":33090,"pred_sufficient_comm":17155,"pred_insufficient":12109,"indirections":15325,"predicted_set_sum":183940,"actual_set_sum":32480,"predictor_storage_bits":11200,"pred_overhead_comm":4623424,"pred_overhead_noncomm":2586496,"filtered_predictions":0,"migrations":0,"ml_sum":4444762,"ml_count":51968,"ml_min":14,"ml_max":274,"cml_sum":1060185,"cml_count":32480,"cml_min":14,"cml_max":131,"hist_bounds":[16,32,64,128,256,512],"hist_counts":[1298,13796,16899,485,19487,3,0],"noc_messages":512818,"noc_bytes_injected":8411536,"noc_byte_hops":20798392,"noc_ctrl_byte_hops":8895064,"noc_contention_cycles":1209162,"noc_energy_bits":4726751191785013248,"snoop_energy_bits":4711610589716152320}"#;

/// The `key:value` pairs of a flat record object, sorted. No string in
/// these records contains `,"`, so splitting on it separates the pairs.
fn pairs(payload: &str) -> Vec<&str> {
    let body = payload.strip_prefix("{\"").expect("object");
    let mut pairs: Vec<&str> = body
        .strip_suffix('}')
        .expect("object")
        .split(",\"")
        .collect();
    pairs.sort_unstable();
    pairs
}

#[test]
fn pre_table_spool_record_decodes_to_the_same_golden_block() {
    let rec = decode_record(PRE_TABLE_RECORD).expect("old record decodes");
    let stored = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fft.golden"),
    )
    .expect("fft golden");
    let block: String = stored
        .lines()
        .skip_while(|l| !l.starts_with("[run fft sp "))
        .take_while(|l| !l.is_empty())
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(golden::snapshot_run(&fft_sp_spec(), &rec.stats), block);
    // Re-encoding writes the same key set with the same values.
    assert_eq!(pairs(&encode_record(&rec)), pairs(PRE_TABLE_RECORD));
}
