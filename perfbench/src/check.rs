//! Correctness checks on cell outputs: invariants every cell must keep
//! under any seed, and the `results/quick` golden rows at seed 0.

use std::path::PathBuf;

use modis::campaign::CampaignReport;
use modis::{TaskKind, TelemetrySnapshot};
use simcore::report::Csv;
use simload::SloTracker;

/// SLO accounting must balance: every scheduled arrival either
/// completed or failed, and the failure classes fit inside the failures.
pub fn slo(s: &SloTracker) -> Vec<String> {
    let mut problems = Vec::new();
    if s.scheduled != s.completed + s.failed {
        problems.push(format!(
            "scheduled {} != completed {} + failed {}",
            s.scheduled, s.completed, s.failed
        ));
    }
    if s.shed + s.budget_exhausted + s.timed_out > s.failed {
        problems.push(format!(
            "failure classes {} + {} + {} exceed failures {}",
            s.shed, s.budget_exhausted, s.timed_out, s.failed
        ));
    }
    if s.late > s.completed {
        problems.push(format!("late {} > completed {}", s.late, s.completed));
    }
    problems
}

/// A modis segment's execution counts must agree across its views.
pub fn modis(report: &CampaignReport, snap: &TelemetrySnapshot) -> Vec<String> {
    let by_kind: u64 = TaskKind::ALL.iter().map(|&k| snap.kind_count(k)).sum();
    let mut problems = Vec::new();
    if report.executions != snap.total_executions() || by_kind != snap.total_executions() {
        problems.push(format!(
            "executions {} != outcome total {} / kind total {by_kind}",
            report.executions,
            snap.total_executions()
        ));
    }
    problems
}

/// Every numeric field of a result row must be finite.
pub fn finite(row: &str) -> Option<String> {
    row.split(',')
        .find(|f| f.parse::<f64>().is_ok_and(|v| !v.is_finite()))
        .map(|f| format!("non-finite result field {f:?} in {row}"))
}

/// The checked-in quick results this benchmark's seed-0 cells must
/// reproduce. Read at run time, so a justified re-baseline of the
/// goldens carries over without touching the benchmark.
fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../results/quick")
}

/// The data rows (header dropped) of a golden CSV.
pub fn golden_rows(campaign: &str) -> std::io::Result<Vec<String>> {
    let text = std::fs::read_to_string(golden_dir().join(format!("{campaign}.csv")))?;
    Ok(text.lines().skip(1).map(str::to_string).collect())
}

/// Compare merged modis segments with the campaign's `fig7.csv` and
/// `table2.txt`, rendered the way the campaign renders them.
pub fn modis_golden(segments: &[(TelemetrySnapshot, u64)]) -> std::io::Result<Vec<String>> {
    let mut snap = TelemetrySnapshot::default();
    let mut day = 0usize;
    for (s, days) in segments {
        snap.merge_offset(s, day);
        day += usize::try_from(*days).expect("segment days fit in usize");
    }
    let mut csv = Csv::new();
    csv.row(&["day", "executions", "vm_timeouts", "fraction"]);
    for (day, total, hits, frac) in snap.daily_timeout_rows() {
        csv.row(&[
            day.to_string(),
            total.to_string(),
            hits.to_string(),
            format!("{frac:.5}"),
        ]);
    }
    let dir = golden_dir();
    let mut problems = Vec::new();
    if std::fs::read_to_string(dir.join("fig7.csv"))? != csv.as_str() {
        problems.push("daily timeout rows differ from results/quick/fig7.csv".to_string());
    }
    if std::fs::read_to_string(dir.join("table2.txt"))? != snap.render_table2() {
        problems.push("Table 2 differs from results/quick/table2.txt".to_string());
    }
    Ok(problems)
}
