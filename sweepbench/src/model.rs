//! The model reference check.
//!
//! The repository holds one reference from the paper: each model's
//! Figure 1 communicating-miss ratio (`BenchmarkSpec::paper_comm_ratio`).
//! The paper also reports that SP-prediction avoids indirection on about
//! 77% of communicating misses (Figure 7's average). Both figures are
//! deterministic in the seed, so a change meant only to speed up the
//! simulator must leave them bit-identical. Beyond these two numbers the
//! model is unvalidated.

use spcp_harness::RunSpec;
use spcp_system::RunStats;
use spcp_workloads::suite;

use crate::Metric;

/// The paper's Figure 7 average share of communicating misses that
/// SP-prediction serves without indirection.
pub const PAPER_SP_INDIRECTION_AVOIDED: f64 = 0.77;

/// Model metrics over the cells of unscaled suite models: the mean
/// |simulated − paper| communicating-miss ratio over the `dir` cells, and
/// the mean share of communicating misses the `sp` cells served without
/// indirection. Empty when the cells include neither.
pub fn metrics(specs: &[RunSpec], stats: &[RunStats]) -> Vec<Metric> {
    let unscaled = |spec: &RunSpec| suite::by_name(spec.bench.name).as_ref() == Some(&spec.bench);
    let mut comm_err = Vec::new();
    let mut avoided = Vec::new();
    for (spec, s) in specs.iter().zip(stats) {
        if !unscaled(spec) {
            continue;
        }
        match spec.protocol_label.as_str() {
            "dir" => comm_err.push((s.comm_ratio() - spec.bench.paper_comm_ratio).abs()),
            "sp" => avoided.push(s.accuracy()),
            _ => {}
        }
    }
    let mean = |xs: &[f64]| (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64);
    let mut out = Vec::new();
    if let Some(err) = mean(&comm_err) {
        out.push(Metric::new("model.comm_ratio_abs_err", Some(err), "ratio"));
    }
    if let Some(share) = mean(&avoided) {
        out.push(Metric::new(
            "model.sp_indirection_avoided",
            Some(share),
            "ratio",
        ));
        out.push(Metric::new(
            "model.sp_indirection_avoided_paper",
            Some(PAPER_SP_INDIRECTION_AVOIDED),
            "ratio",
        ));
    }
    out
}
