//! The unified anchor-check framework: declare a paper anchor once and
//! derive the human-readable OK/OFF line, the CSV row and the manifest
//! entry from the same declaration.
//!
//! The report-line format reproduces the pre-simlab `bench::anchor_line`
//! byte for byte, so regenerated `*.anchors.txt` artifacts do not churn.

/// An anchor: a named scalar the paper reports, with the tolerance used
/// when the reproduction is compared against it.
#[derive(Debug, Clone, Copy)]
pub struct Anchor {
    /// Short identifier (also used in EXPERIMENTS.md).
    pub name: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// Relative tolerance for "reproduced" (0.15 = ±15 %).
    pub rel_tol: f64,
}

impl Anchor {
    /// Compare `measured` against the anchor: the one check record whose
    /// [`AnchorCheck::ok`] verdict tests, campaigns and the manifest all
    /// share.
    pub fn check(&self, measured: f64) -> AnchorCheck {
        AnchorCheck {
            anchor: *self,
            measured,
        }
    }
}

/// One paper-vs-measured comparison.
#[derive(Debug, Clone)]
pub struct AnchorCheck {
    /// The anchor compared against.
    pub anchor: Anchor,
    /// What the campaign measured.
    pub measured: f64,
}

impl AnchorCheck {
    /// Relative error of the measurement against the paper value.
    pub fn rel_err(&self) -> f64 {
        let paper = self.anchor.paper;
        if paper == 0.0 {
            if self.measured == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.measured - paper) / paper
        }
    }

    /// Whether the measurement lands within tolerance.
    pub fn ok(&self) -> bool {
        self.rel_err().abs() <= self.anchor.rel_tol
    }

    /// The `  [OK ] name  paper X  measured Y  (+Z%)` report line.
    pub fn line(&self) -> String {
        let verdict = if self.ok() { "OK " } else { "OFF" };
        format!(
            "  [{verdict}] {:<40} paper {:>10.3}  measured {:>10.3}  ({:+.1}%)",
            self.anchor.name,
            self.anchor.paper,
            self.measured,
            self.rel_err() * 100.0
        )
    }

    /// CSV row `name,paper,measured,rel_err,ok`.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{:.6},{}",
            self.anchor.name,
            self.anchor.paper,
            self.measured,
            self.rel_err(),
            self.ok()
        )
    }
}

/// Render a titled block of anchor lines (the `*.anchors.txt` format).
pub fn render_block(title: &str, checks: &[AnchorCheck]) -> String {
    let mut out = format!("{title}\n");
    for c in checks {
        out.push_str(&c.line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn anchor(name: &'static str, paper: f64, rel_tol: f64) -> Anchor {
        Anchor {
            name,
            paper,
            rel_tol,
        }
    }

    #[test]
    fn verdicts_and_errors() {
        let a = anchor("x", 10.0, 0.1).check(10.5);
        assert!(a.ok());
        assert!((a.rel_err() - 0.05).abs() < 1e-12);
        assert!(a.line().contains("[OK ]"));
        let b = anchor("x", 10.0, 0.1).check(20.0);
        assert!(!b.ok());
        assert!(b.line().contains("[OFF]"));
        assert!(b.csv_row().ends_with("false"));
    }

    #[test]
    fn line_format_matches_legacy_bench_output() {
        let a = anchor("fig1 download, 1 client (MB/s)", 13.0, 0.15).check(12.262);
        assert_eq!(
            a.line(),
            "  [OK ] fig1 download, 1 client (MB/s)           paper     13.000  measured     12.262  (-5.7%)"
        );
    }

    #[test]
    fn zero_paper_value_edge() {
        let z = anchor("z", 0.0, 0.5);
        assert!(z.check(0.0).ok());
        // A zero anchor tolerates no deviation at all, however wide
        // `rel_tol` is.
        assert!(!z.check(0.05).ok());
    }

    #[test]
    fn block_has_title_and_one_line_per_check() {
        let c = anchor("a", 1.0, 0.1).check(1.0);
        let s = render_block("Paper anchors (T):", &[c.clone(), c]);
        assert_eq!(s.lines().count(), 3);
        assert!(s.starts_with("Paper anchors (T):\n"));
    }
}
