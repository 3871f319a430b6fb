//! Mergeable, order-independent aggregation of [`RunStats`] across a sweep.
//!
//! The summary pools every [`STATS`](spcp_system::metrics::STATS) row by
//! exact integer sums (and merges the latency histograms), so
//! `observe`/`merge` are commutative and associative: the summary of a
//! sweep is bit-identical no matter how runs were scheduled across workers
//! or in which order partial summaries were combined. Pooled ratios are
//! the [`RunStats`] ratio methods of [`SweepSummary::totals`], so a pooled
//! ratio and a per-run ratio share one formula.

use spcp_system::RunStats;

/// Exact aggregate of the [`RunStats`] of many runs.
///
/// # Examples
///
/// ```
/// use spcp_harness::SweepSummary;
///
/// let a = SweepSummary::new();
/// let mut b = SweepSummary::new();
/// b.merge(&a);
/// assert_eq!(b, SweepSummary::new());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepSummary {
    /// Number of runs aggregated.
    pub runs: u64,
    /// Pooled statistics: see [`RunStats::pool`].
    pub totals: RunStats,
}

impl SweepSummary {
    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one run's stats into the summary.
    pub fn observe(&mut self, stats: &RunStats) {
        self.runs += 1;
        self.totals.pool(stats);
    }

    /// Merges another partial summary into this one.
    ///
    /// Exact and commutative: `a.merge(&b)` equals `b.merge(&a)` field for
    /// field, which the determinism tests assert under shuffled merge
    /// orders.
    pub fn merge(&mut self, other: &SweepSummary) {
        self.runs += other.runs;
        self.totals.pool(&other.totals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_stats(ops: u64, cycles: u64) -> RunStats {
        let mut s = RunStats {
            total_ops: ops,
            loads: ops / 2,
            stores: ops - ops / 2,
            exec_cycles: cycles,
            l2_misses: ops / 10,
            comm_misses: ops / 20,
            noncomm_misses: ops / 10 - ops / 20,
            predictions: ops / 20,
            pred_sufficient: ops / 25,
            pred_sufficient_comm: ops / 25,
            ..Default::default()
        };
        s.noc.byte_hops = ops * 3;
        s.miss_latency.record(cycles / 100 + 1);
        s.miss_latency_hist.record(cycles / 100 + 1);
        s
    }

    #[test]
    fn observe_accumulates_exactly() {
        let mut sum = SweepSummary::new();
        sum.observe(&fake_stats(100, 1000));
        sum.observe(&fake_stats(200, 4000));
        assert_eq!(sum.runs, 2);
        assert_eq!(sum.totals.total_ops, 300);
        assert_eq!(sum.totals.exec_cycles, 5000);
        assert_eq!(sum.totals.noc.byte_hops, 900);
        assert_eq!(sum.totals.miss_latency.count(), 2);
        assert_eq!(sum.totals.miss_latency_hist.total(), 2);
    }

    #[test]
    fn merge_is_commutative_and_matches_sequential_observe() {
        let runs: Vec<RunStats> = (1..=6).map(|i| fake_stats(i * 37, i * 911)).collect();

        let mut sequential = SweepSummary::new();
        for r in &runs {
            sequential.observe(r);
        }

        // Split across three "workers" and merge in two different orders.
        let mut parts: Vec<SweepSummary> = Vec::new();
        for chunk in runs.chunks(2) {
            let mut p = SweepSummary::new();
            for r in chunk {
                p.observe(r);
            }
            parts.push(p);
        }
        let mut fwd = SweepSummary::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = SweepSummary::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, sequential);
        assert_eq!(rev, sequential);
    }

    #[test]
    fn pooled_accuracy_is_the_figure_7_ratio() {
        // Two runs at 52 % and 96 % pool to (52 + 96) / 200, the ratio of
        // the sums, not the share of sufficient predictions (40 / 50).
        let mut a = fake_stats(1000, 1000);
        a.comm_misses = 100;
        a.pred_sufficient_comm = 52;
        let mut b = a.clone();
        b.pred_sufficient_comm = 96;
        let mut sum = SweepSummary::new();
        sum.observe(&a);
        sum.observe(&b);
        assert_eq!(sum.totals.accuracy(), 148.0 / 200.0);
    }

    #[test]
    fn empty_summary_ratios_are_zero() {
        let s = SweepSummary::new();
        assert_eq!(s.totals.accuracy(), 0.0);
        assert_eq!(s.totals.comm_ratio(), 0.0);
        assert_eq!(s.totals.miss_latency.mean(), 0.0);
    }
}
