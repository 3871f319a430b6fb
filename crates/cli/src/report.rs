//! Human- and machine-readable run summaries.

use spcp_system::metrics::{StatField, STATS};
use spcp_system::RunStats;

/// Formats a one-run summary as a human-readable block.
pub fn text_summary(s: &RunStats) -> String {
    let mut out = String::new();
    out.push_str(&format!("benchmark            {}\n", s.benchmark));
    out.push_str(&format!("protocol             {}\n", s.protocol));
    out.push_str(&format!("execution time       {} cycles\n", s.exec_cycles));
    out.push_str(&format!(
        "L2 misses            {} ({:.1}% communicating)\n",
        s.l2_misses,
        s.comm_ratio() * 100.0
    ));
    out.push_str(&format!(
        "avg miss latency     {:.1} cycles (communicating: {:.1})\n",
        s.miss_latency.mean(),
        s.comm_miss_latency.mean()
    ));
    if let (Some(p50), Some(p95)) = (s.latency_percentile(0.5), s.latency_percentile(0.95)) {
        let fmt = |v: u64| {
            if v == u64::MAX {
                ">512".to_string()
            } else {
                format!("<={v}")
            }
        };
        out.push_str(&format!(
            "latency percentiles  P50 {} cycles, P95 {} cycles\n",
            fmt(p50),
            fmt(p95)
        ));
    }
    out.push_str(&format!(
        "NoC traffic          {} byte-hops, energy {:.0}\n",
        s.noc.byte_hops,
        s.energy()
    ));
    if s.predictions > 0 {
        out.push_str(&format!(
            "predictions          {} ({:.1}% of communicating misses sufficient)\n",
            s.predictions,
            s.accuracy() * 100.0
        ));
        out.push_str(&format!(
            "predictor storage    {:.2} KB\n",
            s.predictor_storage_bits as f64 / 8.0 / 1024.0
        ));
    }
    if s.filtered_predictions > 0 {
        out.push_str(&format!(
            "filtered predictions {}\n",
            s.filtered_predictions
        ));
    }
    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Formats a one-run summary as a flat JSON object (no dependencies):
/// every [`STATS`] row under its name (a latency accumulator as its
/// `<name>_mean`), then the derived ratios.
pub fn json_summary(s: &RunStats) -> String {
    let mut body = vec![
        format!("\"benchmark\":\"{}\"", json_escape(&s.benchmark)),
        format!("\"protocol\":\"{}\"", json_escape(&s.protocol)),
    ];
    for stat in STATS {
        body.push(match stat.field {
            StatField::Count(get, _) => format!("\"{}\":{}", stat.name, get(s)),
            StatField::Mean(get, _, _) => format!("\"{}_mean\":{:.3}", stat.name, get(s).mean()),
        });
    }
    body.push(format!("\"comm_ratio\":{:.6}", s.comm_ratio()));
    body.push(format!("\"energy\":{:.3}", s.energy()));
    body.push(format!("\"accuracy\":{:.6}", s.accuracy()));
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> RunStats {
        RunStats {
            benchmark: "x264".into(),
            protocol: "predicted-SP".into(),
            exec_cycles: 1000,
            l2_misses: 10,
            comm_misses: 8,
            noncomm_misses: 2,
            predictions: 8,
            pred_sufficient_comm: 6,
            ..RunStats::default()
        }
    }

    #[test]
    fn text_contains_key_lines() {
        let t = text_summary(&stats());
        assert!(t.contains("benchmark            x264"));
        assert!(t.contains("80.0% communicating"));
        assert!(t.contains("75.0% of communicating misses sufficient"));
    }

    #[test]
    fn json_is_flat_and_parsable_shape() {
        let j = json_summary(&stats());
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"benchmark\":\"x264\""));
        assert!(j.contains("\"accuracy\":0.75"));
        assert!(j.contains("\"noc_byte_hops\":0"));
        assert!(j.contains("\"miss_latency_mean\":0.000"));
        for stat in STATS {
            assert!(j.contains(&format!("\"{}", stat.name)), "{}", stat.name);
        }
        // Basic structural sanity: balanced braces and quotes.
        assert_eq!(j.matches('{').count(), 1);
        assert_eq!(j.matches('}').count(), 1);
        assert_eq!(j.matches('"').count() % 2, 0);
    }

    #[test]
    fn json_escapes_quotes() {
        let mut s = stats();
        s.benchmark = "we\"ird".into();
        assert!(json_summary(&s).contains("we\\\"ird"));
    }
}
