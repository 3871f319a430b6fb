//! Pins the §5.3 region-filter path: fft and water-sp under SP
//! prediction with `with_snoop_filter()` at seed 7, compared against
//! snapshots written before the region tracker moved from `HashMap` onto
//! `FlatMap` and became optional. No checked-in golden enables the
//! filter, so this file is its only end-to-end pin: any change to which
//! predictions the filter suppresses shows as a line diff here.

use spcp::harness::{golden, RunMatrix, SweepEngine};
use spcp::system::{PredictorKind, ProtocolKind};
use spcp::workloads::suite;

const FFT_SP_FILTERED: &str = concat!(
    "[run fft sp seed=7 machine=paper16 cores=16]\n",
    "total_ops = 53248\n",
    "loads = 35328\n",
    "stores = 16896\n",
    "l1_hits = 32\n",
    "l2_hits = 224\n",
    "l2_misses = 51968\n",
    "upgrades = 15360\n",
    "comm_misses = 32480\n",
    "noncomm_misses = 19488\n",
    "exec_cycles = 302627\n",
    "miss_latency_sum = 4387858\n",
    "miss_latency_count = 51968\n",
    "noc_messages = 372768\n",
    "noc_bytes_injected = 7291136\n",
    "noc_byte_hops = 17983152\n",
    "noc_ctrl_byte_hops = 6074640\n",
    "noc_contention_cycles = 598217\n",
    "snoop_probes = 129456\n",
    "predictions = 27552\n",
    "pred_sufficient = 17424\n",
    "pred_sufficient_comm = 17424\n",
    "pred_insufficient = 10128\n",
    "indirections = 15056\n",
    "predicted_set_sum = 114400\n",
    "actual_set_sum = 32480\n",
    "predictor_storage_bits = 11200\n",
    "filtered_predictions = 18456\n",
    "migrations = 0\n",
);

const WATER_SP_SP_FILTERED: &str = concat!(
    "[run water-sp sp seed=7 machine=paper16 cores=16]\n",
    "total_ops = 103584\n",
    "loads = 53120\n",
    "stores = 45152\n",
    "l1_hits = 1318\n",
    "l2_hits = 914\n",
    "l2_misses = 96040\n",
    "upgrades = 41980\n",
    "comm_misses = 87492\n",
    "noncomm_misses = 8548\n",
    "exec_cycles = 310956\n",
    "miss_latency_sum = 3617537\n",
    "miss_latency_count = 96040\n",
    "noc_messages = 580902\n",
    "noc_bytes_injected = 13480496\n",
    "noc_byte_hops = 28712368\n",
    "noc_ctrl_byte_hops = 7632784\n",
    "noc_contention_cycles = 647008\n",
    "snoop_probes = 173716\n",
    "predictions = 87032\n",
    "pred_sufficient = 85928\n",
    "pred_sufficient_comm = 85928\n",
    "pred_insufficient = 1104\n",
    "indirections = 1564\n",
    "predicted_set_sum = 172152\n",
    "actual_set_sum = 87492\n",
    "predictor_storage_bits = 4512\n",
    "filtered_predictions = 8484\n",
    "migrations = 0\n",
);

fn check(bench: &str, want: &str, want_filtered: u64) {
    let matrix = RunMatrix::new()
        .bench(suite::by_name(bench).expect("known benchmark"))
        .protocol("sp", ProtocolKind::Predicted(PredictorKind::sp_default()))
        .seeds(&[7])
        .with_snoop_filter();
    let result = SweepEngine::new(1).run(&matrix);
    assert_eq!(result.runs.len(), 1);
    let run = &result.runs[0];
    assert_eq!(golden::snapshot_run(&run.spec, &run.stats), want);
    assert_eq!(run.stats.filtered_predictions, want_filtered);
}

#[test]
fn fft_sp_with_snoop_filter_matches_pinned_snapshot() {
    check("fft", FFT_SP_FILTERED, 18456);
}

#[test]
fn water_sp_sp_with_snoop_filter_matches_pinned_snapshot() {
    check("water-sp", WATER_SP_SP_FILTERED, 8484);
}
