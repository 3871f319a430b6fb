//! Golden-snapshot emit/verify for sweep results.
//!
//! Snapshots are a line-based text format (documented in
//! `docs/FORMATS.md`): one `[run …]` header per run followed by
//! `field = value` lines. Only exactly reproducible quantities — integers
//! and integer-derived moments — are snapshotted, so a golden file either
//! matches bit-for-bit or the simulator's behavior changed.
//!
//! Verification reads the file and compares strings; regeneration is gated
//! behind the `UPDATE_GOLDEN=1` environment variable so CI can never
//! silently rewrite its own reference data.

use std::fmt;
use std::fs;
use std::path::Path;

use spcp_system::metrics::{StatField, STATS};
use spcp_system::RunStats;

use crate::engine::SweepResult;
use crate::matrix::RunSpec;

/// Magic first line of every golden file; bump the version when the field
/// set (the [`STATS`] rows flagged `golden`) changes so stale files fail
/// loudly instead of diffing confusingly.
pub const GOLDEN_HEADER: &str = "# spcp golden v1";

/// Renders the snapshot of one run: its `[run …]` header, then one
/// `name = value` line per [`STATS`] row flagged `golden`.
pub fn snapshot_run(spec: &RunSpec, stats: &RunStats) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str(&format!(
        "[run {} {} seed={} machine={} cores={}]\n",
        spec.bench.name, spec.protocol_label, spec.seed, spec.machine_label, spec.machine.num_cores
    ));
    for stat in STATS.iter().filter(|s| s.golden) {
        match stat.field {
            StatField::Count(get, _) => out.push_str(&format!("{} = {}\n", stat.name, get(stats))),
            StatField::Mean(get, _, _) => {
                let m = get(stats);
                out.push_str(&format!("{}_sum = {}\n", stat.name, m.sum()));
                out.push_str(&format!("{}_count = {}\n", stat.name, m.count()));
            }
        }
    }
    out
}

/// Builds a golden file from runs pushed in canonical matrix order: the
/// header, then one [`snapshot_run`] block per run.
pub(crate) struct GoldenWriter {
    out: String,
}

impl GoldenWriter {
    pub(crate) fn new() -> Self {
        GoldenWriter {
            out: format!("{GOLDEN_HEADER}\n"),
        }
    }

    pub(crate) fn push(&mut self, spec: &RunSpec, stats: &RunStats) {
        self.out.push('\n');
        self.out.push_str(&snapshot_run(spec, stats));
    }

    pub(crate) fn finish(self) -> String {
        self.out
    }
}

/// Renders a whole sweep (runs in canonical matrix order).
pub fn render(result: &SweepResult) -> String {
    let mut golden = GoldenWriter::new();
    for r in &result.runs {
        golden.push(&r.spec, &r.stats);
    }
    golden.finish()
}

/// Why a golden check failed.
#[derive(Debug)]
pub enum GoldenError {
    /// No golden file exists at the path yet.
    Missing {
        /// The expected file location.
        path: String,
    },
    /// The rendered snapshot differs from the stored one.
    Mismatch {
        /// The golden file location.
        path: String,
        /// 1-based line number of the first difference.
        line: usize,
        /// The stored line (empty if the file ended early).
        expected: String,
        /// The freshly rendered line (empty if the render ended early).
        actual: String,
    },
    /// Reading or writing the file failed.
    Io {
        /// The file location.
        path: String,
        /// The underlying error, stringified.
        error: String,
    },
}

impl fmt::Display for GoldenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoldenError::Missing { path } => write!(
                f,
                "golden file {path} does not exist; run with UPDATE_GOLDEN=1 to create it"
            ),
            GoldenError::Mismatch {
                path,
                line,
                expected,
                actual,
            } => write!(
                f,
                "golden mismatch at {path}:{line}\n  golden: {expected}\n  actual: {actual}\n\
                 rerun with UPDATE_GOLDEN=1 to accept the new behavior"
            ),
            GoldenError::Io { path, error } => write!(f, "golden io error at {path}: {error}"),
        }
    }
}

impl std::error::Error for GoldenError {}

/// True when the caller asked to regenerate goldens (`UPDATE_GOLDEN=1`).
pub fn update_requested() -> bool {
    std::env::var("UPDATE_GOLDEN")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Verifies `rendered` against the golden file at `path`, or rewrites the
/// file when [`update_requested`] is set.
///
/// Returns `Ok(true)` when the file was (re)written, `Ok(false)` when it
/// matched.
pub fn check_or_update(path: &Path, rendered: &str) -> Result<bool, GoldenError> {
    let path_str = path.display().to_string();
    if update_requested() {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).map_err(|e| GoldenError::Io {
                path: path_str.clone(),
                error: e.to_string(),
            })?;
        }
        fs::write(path, rendered).map_err(|e| GoldenError::Io {
            path: path_str,
            error: e.to_string(),
        })?;
        return Ok(true);
    }
    let stored = match fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(GoldenError::Missing { path: path_str })
        }
        Err(e) => {
            return Err(GoldenError::Io {
                path: path_str,
                error: e.to_string(),
            })
        }
    };
    compare(&path_str, &stored, rendered)?;
    Ok(false)
}

/// Line-by-line comparison with a precise first-difference report.
fn compare(path: &str, stored: &str, rendered: &str) -> Result<(), GoldenError> {
    let mut golden_lines = stored.lines();
    let mut fresh_lines = rendered.lines();
    let mut line = 0;
    loop {
        line += 1;
        match (golden_lines.next(), fresh_lines.next()) {
            (None, None) => return Ok(()),
            (g, a) => {
                let g = g.unwrap_or("");
                let a = a.unwrap_or("");
                if g != a {
                    return Err(GoldenError::Mismatch {
                        path: path.to_string(),
                        line,
                        expected: g.to_string(),
                        actual: a.to_string(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SweepEngine;
    use crate::matrix::RunMatrix;
    use spcp_system::ProtocolKind;
    use spcp_workloads::suite;

    fn one_run() -> SweepResult {
        let matrix = RunMatrix::new()
            .bench(suite::by_name("fft").unwrap())
            .protocol("dir", ProtocolKind::Directory);
        SweepEngine::new(1).run(&matrix)
    }

    #[test]
    fn snapshot_has_header_and_run_block() {
        let text = render(&one_run());
        assert!(text.starts_with(GOLDEN_HEADER));
        assert!(text.contains("[run fft dir seed=7 machine=paper16 cores=16]"));
        assert!(text.contains("exec_cycles = "));
        assert!(text.contains("noc_byte_hops = "));
    }

    #[test]
    fn snapshot_is_reproducible() {
        assert_eq!(render(&one_run()), render(&one_run()));
    }

    #[test]
    fn compare_reports_first_divergent_line() {
        let err = compare("x", "a\nb\nc", "a\nB\nc").unwrap_err();
        match err {
            GoldenError::Mismatch {
                line,
                expected,
                actual,
                ..
            } => {
                assert_eq!(line, 2);
                assert_eq!(expected, "b");
                assert_eq!(actual, "B");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn compare_catches_length_differences() {
        assert!(compare("x", "a\nb", "a").is_err());
        assert!(compare("x", "a", "a\nb").is_err());
        assert!(compare("x", "a\nb", "a\nb").is_ok());
    }

    #[test]
    fn missing_file_is_a_missing_error() {
        if update_requested() {
            // Under UPDATE_GOLDEN=1 the call would write instead of verify.
            return;
        }
        let err = check_or_update(Path::new("/nonexistent/dir/g.txt"), "x").unwrap_err();
        assert!(matches!(err, GoldenError::Missing { .. }));
        assert!(err.to_string().contains("UPDATE_GOLDEN=1"));
    }
}
