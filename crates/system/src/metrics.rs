//! Run statistics and per-epoch communication records.

use spcp_core::SpStats;
use spcp_noc::NocStats;
use spcp_sim::{CoreSet, Histogram, MeanAccumulator};
use spcp_sync::EpochId;
use std::collections::HashMap;
use std::time::Duration;

/// The recorded communication of one dynamic epoch instance on one core —
/// the raw material for Figures 2, 4, 5, 6 and the oracle predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// The static epoch.
    pub id: EpochId,
    /// Dynamic instance number on this core.
    pub instance: u64,
    /// Communication volume towards each core. An *empty* vector means
    /// the instance communicated with nobody (all-zero volumes): the
    /// recorder stores non-communicating epochs this way so their counter
    /// buffer can be reused instead of reallocated.
    pub volumes: Vec<u32>,
    /// The minimal sufficient target set of every communicating miss in
    /// the instance (for ideal-accuracy evaluation).
    pub miss_targets: Vec<CoreSet>,
}

impl EpochRecord {
    /// Total communication volume of the instance.
    pub fn total_volume(&self) -> u64 {
        self.volumes.iter().map(|&v| v as u64).sum()
    }

    /// The hot communication set at `threshold` (§3.3).
    pub fn hot_set(&self, threshold: f64) -> CoreSet {
        let total = self.total_volume();
        if total == 0 {
            return CoreSet::empty();
        }
        let cutoff = ((total as f64 * threshold).ceil() as u64).max(1);
        self.volumes
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v as u64 >= cutoff)
            .map(|(i, _)| spcp_sim::CoreId::new(i))
            .collect()
    }
}

/// Bucket upper bounds of [`RunStats::miss_latency_hist`].
pub const LATENCY_BUCKETS: [u64; 6] = [16, 32, 64, 128, 256, 512];

/// Whole-run communication volume matrix, stored as one flat row-major
/// `Vec<u64>` so the per-miss increment on the simulator's hot path is a
/// single indexed add with no pointer chase through nested vectors.
///
/// # Examples
///
/// ```
/// use spcp_system::metrics::CommMatrix;
///
/// let mut m = CommMatrix::new(4);
/// m.bump(0, 3);
/// m.bump(0, 3);
/// assert_eq!(m.at(0, 3), 2);
/// assert_eq!(m.total(), 2);
/// assert_eq!(m.row(0), &[0, 0, 0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CommMatrix {
    n: usize,
    cells: Vec<u64>,
}

impl CommMatrix {
    /// An all-zero `n × n` matrix.
    pub fn new(n: usize) -> Self {
        CommMatrix {
            n,
            cells: vec![0; n * n],
        }
    }

    /// Number of cores per side (0 for the default empty matrix).
    pub fn num_cores(&self) -> usize {
        self.n
    }

    /// Increments the `src → dst` cell.
    #[inline]
    pub fn bump(&mut self, src: usize, dst: usize) {
        self.cells[src * self.n + dst] += 1;
    }

    /// The `src → dst` cell value.
    pub fn at(&self, src: usize, dst: usize) -> u64 {
        self.cells[src * self.n + dst]
    }

    /// One source core's per-target volumes.
    pub fn row(&self, src: usize) -> &[u64] {
        &self.cells[src * self.n..(src + 1) * self.n]
    }

    /// Iterates the rows in source order.
    pub fn rows(&self) -> impl Iterator<Item = &[u64]> {
        self.cells.chunks(self.n.max(1))
    }

    /// Sum of every cell (total communicating-miss volume).
    pub fn total(&self) -> u64 {
        self.cells.iter().sum()
    }

    /// Largest single cell value.
    pub fn max(&self) -> u64 {
        self.cells.iter().copied().max().unwrap_or(0)
    }
}

/// Everything measured in one simulation run.
///
/// Every integer statistic is also a row of [`STATS`], which golden
/// snapshots, spool records, sweep summaries and reports iterate instead
/// of naming fields.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Benchmark name.
    pub benchmark: String,
    /// Protocol name.
    pub protocol: String,

    /// Total operations executed (memory + sync + compute).
    pub total_ops: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits (after L1 miss).
    pub l2_hits: u64,
    /// L2 misses (coherence transactions).
    pub l2_misses: u64,
    /// Write hits on Shared/Forward lines (upgrades).
    pub upgrades: u64,

    /// Misses whose minimal sufficient target set was non-empty.
    pub comm_misses: u64,
    /// Misses satisfied by memory alone.
    pub noncomm_misses: u64,

    /// Latency over all L2 misses (incl. upgrades).
    pub miss_latency: MeanAccumulator,
    /// Latency over communicating misses only.
    pub comm_miss_latency: MeanAccumulator,
    /// Miss-latency distribution (bucket upper bounds: 16, 32, 64, 128,
    /// 256, 512 cycles, plus overflow).
    pub miss_latency_hist: Histogram,
    /// End-to-end execution time in cycles.
    pub exec_cycles: u64,

    /// Network traffic and energy.
    pub noc: NocStats,
    /// L2 tag probes caused by external (forwarded/predicted/snoop)
    /// requests.
    pub snoop_probes: u64,
    /// Energy of those probes.
    pub snoop_energy: f64,

    /// Misses on which a (non-empty) prediction was issued.
    pub predictions: u64,
    /// Predictions that were sufficient (superset of the true targets).
    pub pred_sufficient: u64,
    /// Sufficient predictions on *communicating* misses — the Figure 7
    /// numerator (indirection avoided).
    pub pred_sufficient_comm: u64,
    /// Insufficient predictions.
    pub pred_insufficient: u64,
    /// Communicating misses that paid the directory indirection.
    pub indirections: u64,
    /// Sum of predicted-set sizes over predicted misses.
    pub predicted_set_sum: u64,
    /// Sum of minimal-sufficient-set sizes over communicating misses.
    pub actual_set_sum: u64,
    /// Predictor storage at end of run, in bits (sum over tiles).
    pub predictor_storage_bits: u64,
    /// Byte·hops of prediction-specific messages (predicted requests,
    /// nacks, directory updates) issued for *communicating* misses.
    pub pred_overhead_comm: u64,
    /// Byte·hops of prediction-specific messages issued for
    /// *non-communicating* misses (the always-wasted attempts of §5.3).
    pub pred_overhead_noncomm: u64,

    /// Predictions suppressed by the region snoop filter (§5.3).
    pub filtered_predictions: u64,
    /// Thread-migration events performed (§5.5 scenario).
    pub migrations: u64,

    /// Aggregated SP statistics (present for SP runs).
    pub sp: Option<SpStats>,

    /// Whole-run communication volume matrix (`src → dst`).
    pub comm_matrix: CommMatrix,
    /// Per-core epoch records (only when recording was enabled).
    pub epoch_records: Vec<Vec<EpochRecord>>,
    /// Per-static-instruction communication volumes (only when recording):
    /// `pc -> per-target volumes`.
    pub pc_volumes: HashMap<u32, Vec<u64>>,
    /// The §3.2-style miss + sync-point trace (only when trace collection
    /// was enabled).
    pub trace: Vec<spcp_trace::TraceEvent>,
}

impl Default for RunStats {
    fn default() -> Self {
        RunStats {
            benchmark: String::new(),
            protocol: String::new(),
            total_ops: 0,
            loads: 0,
            stores: 0,
            l1_hits: 0,
            l2_hits: 0,
            l2_misses: 0,
            upgrades: 0,
            comm_misses: 0,
            noncomm_misses: 0,
            miss_latency: MeanAccumulator::new(),
            comm_miss_latency: MeanAccumulator::new(),
            miss_latency_hist: Histogram::with_bounds(&LATENCY_BUCKETS),
            exec_cycles: 0,
            noc: Default::default(),
            snoop_probes: 0,
            snoop_energy: 0.0,
            predictions: 0,
            pred_sufficient: 0,
            pred_sufficient_comm: 0,
            pred_insufficient: 0,
            indirections: 0,
            predicted_set_sum: 0,
            actual_set_sum: 0,
            predictor_storage_bits: 0,
            pred_overhead_comm: 0,
            pred_overhead_noncomm: 0,
            filtered_predictions: 0,
            migrations: 0,
            sp: None,
            comm_matrix: CommMatrix::default(),
            epoch_records: Vec::new(),
            pc_volumes: HashMap::new(),
            trace: Vec::new(),
        }
    }
}

/// Where one [`STATS`] row lives in [`RunStats`].
#[derive(Clone, Copy)]
pub enum StatField {
    /// A `u64` counter: getter and setter.
    Count(fn(&RunStats) -> u64, fn(&mut RunStats, u64)),
    /// A latency accumulator: getter, mutable getter and spool key prefix.
    /// Golden snapshots render its `<name>_sum` and `<name>_count`; spool
    /// records carry its four raw parts as `<prefix>_sum`, `_count`,
    /// `_min` and `_max`.
    Mean(
        fn(&RunStats) -> &MeanAccumulator,
        fn(&mut RunStats) -> &mut MeanAccumulator,
        &'static str,
    ),
}

/// One integer statistic of a run: a row of [`STATS`].
#[derive(Clone, Copy)]
pub struct Stat {
    /// Key in golden snapshots, spool records and JSON reports.
    pub name: &'static str,
    /// Whether golden snapshots (format v1) render the row.
    pub golden: bool,
    /// How the row is read and written.
    pub field: StatField,
}

macro_rules! count {
    ($golden:literal, $name:literal, $($field:ident).+) => {
        Stat {
            name: $name,
            golden: $golden,
            field: StatField::Count(|s| s.$($field).+, |s, v| s.$($field).+ = v),
        }
    };
}

macro_rules! mean {
    ($golden:literal, $name:literal, $prefix:literal, $field:ident) => {
        Stat {
            name: $name,
            golden: $golden,
            field: StatField::Mean(|s| &s.$field, |s| &mut s.$field, $prefix),
        }
    };
}

/// Every integer statistic of [`RunStats`], in golden-snapshot order.
///
/// Adding a statistic means one `RunStats` field, its `Default` value and
/// one row here: golden snapshots render the rows flagged `golden`, spool
/// records carry every row, sweep summaries sum every row and the JSON
/// report prints every row. The latency histogram and the two `f64`
/// energies are not rows.
pub const STATS: &[Stat] = &[
    count!(true, "total_ops", total_ops),
    count!(true, "loads", loads),
    count!(true, "stores", stores),
    count!(true, "l1_hits", l1_hits),
    count!(true, "l2_hits", l2_hits),
    count!(true, "l2_misses", l2_misses),
    count!(true, "upgrades", upgrades),
    count!(true, "comm_misses", comm_misses),
    count!(true, "noncomm_misses", noncomm_misses),
    count!(true, "exec_cycles", exec_cycles),
    mean!(true, "miss_latency", "ml", miss_latency),
    count!(true, "noc_messages", noc.messages),
    count!(true, "noc_bytes_injected", noc.bytes_injected),
    count!(true, "noc_byte_hops", noc.byte_hops),
    count!(true, "noc_ctrl_byte_hops", noc.ctrl_byte_hops),
    count!(true, "noc_contention_cycles", noc.contention_cycles),
    count!(true, "snoop_probes", snoop_probes),
    count!(true, "predictions", predictions),
    count!(true, "pred_sufficient", pred_sufficient),
    count!(true, "pred_sufficient_comm", pred_sufficient_comm),
    count!(true, "pred_insufficient", pred_insufficient),
    count!(true, "indirections", indirections),
    count!(true, "predicted_set_sum", predicted_set_sum),
    count!(true, "actual_set_sum", actual_set_sum),
    count!(true, "predictor_storage_bits", predictor_storage_bits),
    count!(true, "filtered_predictions", filtered_predictions),
    count!(true, "migrations", migrations),
    count!(false, "pred_overhead_comm", pred_overhead_comm),
    count!(false, "pred_overhead_noncomm", pred_overhead_noncomm),
    mean!(false, "comm_miss_latency", "cml", comm_miss_latency),
];

impl RunStats {
    /// Folds `run` into these pooled totals: every [`STATS`] row is summed
    /// and the latency histograms are merged. Other fields are left as
    /// they are. The ratio methods of the result are the pooled ratios.
    pub fn pool(&mut self, run: &RunStats) {
        for stat in STATS {
            match stat.field {
                StatField::Count(get, set) => set(self, get(self) + get(run)),
                StatField::Mean(get, get_mut, _) => get_mut(self).merge(get(run)),
            }
        }
        self.miss_latency_hist.merge(&run.miss_latency_hist);
    }

    /// Approximate latency percentile (the upper bound of the bucket
    /// containing the `p`-quantile sample), or `None` with no misses.
    pub fn latency_percentile(&self, p: f64) -> Option<u64> {
        let total = self.miss_latency_hist.total();
        if total == 0 {
            return None;
        }
        let rank = (total as f64 * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &count) in self.miss_latency_hist.bucket_counts().iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(LATENCY_BUCKETS.get(i).copied().unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }

    /// Fraction of L2 misses that communicate (Figure 1).
    pub fn comm_ratio(&self) -> f64 {
        let total = self.comm_misses + self.noncomm_misses;
        if total == 0 {
            0.0
        } else {
            self.comm_misses as f64 / total as f64
        }
    }

    /// Fraction of communicating misses that avoided indirection
    /// (Figure 7's y-value).
    pub fn accuracy(&self) -> f64 {
        if self.comm_misses == 0 {
            0.0
        } else {
            self.pred_sufficient_comm as f64 / self.comm_misses as f64
        }
    }

    /// Fraction of all misses that paid indirection (Figure 12's y-axis).
    pub fn indirection_ratio(&self) -> f64 {
        let total = self.comm_misses + self.noncomm_misses;
        if total == 0 {
            0.0
        } else {
            self.indirections as f64 / total as f64
        }
    }

    /// Mean predicted-set size over predicted misses (Table 5).
    pub fn mean_predicted_set(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.predicted_set_sum as f64 / self.predictions as f64
        }
    }

    /// Mean minimal sufficient set size over communicating misses
    /// (Table 5's "actual").
    pub fn mean_actual_set(&self) -> f64 {
        if self.comm_misses == 0 {
            0.0
        } else {
            self.actual_set_sum as f64 / self.comm_misses as f64
        }
    }

    /// Total energy (NoC + snoop probes), the Figure 11 metric.
    pub fn energy(&self) -> f64 {
        self.noc.energy + self.snoop_energy
    }

    /// Bandwidth metric used for Figures 9/12: byte·hops moved on the NoC.
    pub fn bandwidth(&self) -> u64 {
        self.noc.byte_hops
    }

    /// Simulated operations retired per second of host time `wall`, or
    /// 0.0 for a zero `wall`.
    pub fn ops_per_sec(&self, wall: Duration) -> f64 {
        let secs = wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.total_ops as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcp_sim::CoreId;
    use spcp_sync::{StaticSyncId, SyncKind};

    fn record(volumes: Vec<u32>) -> EpochRecord {
        EpochRecord {
            id: EpochId {
                kind: SyncKind::Barrier,
                static_id: StaticSyncId::new(1),
            },
            instance: 0,
            volumes,
            miss_targets: Vec::new(),
        }
    }

    #[test]
    fn epoch_record_hot_set_threshold() {
        let mut v = vec![0u32; 16];
        v[5] = 90;
        v[2] = 10;
        v[7] = 1;
        let r = record(v);
        assert_eq!(r.total_volume(), 101);
        let hot = r.hot_set(0.10);
        assert!(hot.contains(CoreId::new(5)));
        assert!(!hot.contains(CoreId::new(2)));
        assert!(!hot.contains(CoreId::new(7)));
    }

    #[test]
    fn empty_record_has_empty_hot_set() {
        let r = record(vec![0; 16]);
        assert!(r.hot_set(0.10).is_empty());
    }

    #[test]
    fn ratios_handle_zero_denominators() {
        let s = RunStats::default();
        assert_eq!(s.comm_ratio(), 0.0);
        assert_eq!(s.accuracy(), 0.0);
        assert_eq!(s.indirection_ratio(), 0.0);
        assert_eq!(s.mean_predicted_set(), 0.0);
        assert_eq!(s.mean_actual_set(), 0.0);
    }

    #[test]
    fn latency_percentiles_from_histogram() {
        let mut s = RunStats::default();
        assert_eq!(s.latency_percentile(0.5), None);
        // 9 fast misses (<=16) and 1 slow one (>512).
        for _ in 0..9 {
            s.miss_latency_hist.record(10);
        }
        s.miss_latency_hist.record(10_000);
        assert_eq!(s.latency_percentile(0.5), Some(16));
        assert_eq!(s.latency_percentile(0.9), Some(16));
        assert_eq!(s.latency_percentile(1.0), Some(u64::MAX));
    }

    #[test]
    fn stats_table_covers_every_counter() {
        // Exhaustive literal, no `..Default`: a new field does not compile
        // here until it is listed. Counters get distinct values; pooling
        // them into empty stats copies only table rows, so a counter
        // without a row stays zero and the comparison fails.
        let mean = |v: u64| MeanAccumulator::from_parts(v as u128, 1, v, v);
        let full = RunStats {
            benchmark: "b".into(),
            protocol: "p".into(),
            total_ops: 1,
            loads: 2,
            stores: 3,
            l1_hits: 4,
            l2_hits: 5,
            l2_misses: 6,
            upgrades: 7,
            comm_misses: 8,
            noncomm_misses: 9,
            miss_latency: mean(10),
            comm_miss_latency: mean(11),
            miss_latency_hist: Histogram::from_parts(&LATENCY_BUCKETS, &[1, 2, 3, 4, 5, 6, 7]),
            exec_cycles: 12,
            noc: NocStats {
                messages: 13,
                bytes_injected: 14,
                byte_hops: 15,
                ctrl_byte_hops: 16,
                energy: 0.0,
                contention_cycles: 17,
            },
            snoop_probes: 18,
            snoop_energy: 0.0,
            predictions: 19,
            pred_sufficient: 20,
            pred_sufficient_comm: 21,
            pred_insufficient: 22,
            indirections: 23,
            predicted_set_sum: 24,
            actual_set_sum: 25,
            predictor_storage_bits: 26,
            pred_overhead_comm: 27,
            pred_overhead_noncomm: 28,
            filtered_predictions: 29,
            migrations: 30,
            sp: None,
            comm_matrix: CommMatrix::default(),
            epoch_records: Vec::new(),
            pc_volumes: HashMap::new(),
            trace: Vec::new(),
        };
        let mut pooled = RunStats {
            benchmark: "b".into(),
            protocol: "p".into(),
            ..RunStats::default()
        };
        pooled.pool(&full);
        assert_eq!(pooled, full);
    }

    #[test]
    fn derived_metrics_compute() {
        let s = RunStats {
            comm_misses: 80,
            noncomm_misses: 20,
            pred_sufficient_comm: 60,
            indirections: 25,
            predictions: 50,
            predicted_set_sum: 125,
            actual_set_sum: 96,
            ..RunStats::default()
        };
        assert!((s.comm_ratio() - 0.8).abs() < 1e-12);
        assert!((s.accuracy() - 0.75).abs() < 1e-12);
        assert!((s.indirection_ratio() - 0.25).abs() < 1e-12);
        assert!((s.mean_predicted_set() - 2.5).abs() < 1e-12);
        assert!((s.mean_actual_set() - 1.2).abs() < 1e-12);
    }
}
