//! The machine-readable campaign manifest (`results/manifest.json`).
//!
//! Hand-rolled JSON (the workspace builds offline, no serde): fixed
//! field order, two-space indentation, `\n` line endings, floats via
//! Rust's shortest round-trip formatting — so the same campaign state
//! always serializes to the same bytes. Wall-clock (`wall_us`) is the
//! one nondeterministic field; [`Manifest::to_json_normalized`] zeroes
//! it for the shard-invariance comparison.

use crate::anchor::AnchorCheck;

/// One campaign's row in the manifest.
#[derive(Debug, Clone)]
pub struct CampaignEntry {
    /// Campaign name (`fig1` ... `ablations`).
    pub name: String,
    /// Cells executed.
    pub cells: usize,
    /// Wall-clock microseconds for the whole campaign. Microseconds,
    /// not milliseconds: several quick campaigns finish in well under a
    /// millisecond and recorded an unhelpful `0` at ms resolution.
    pub wall_us: u64,
    /// Anchor verdicts.
    pub anchors: Vec<AnchorCheck>,
    /// Files written into the results directory.
    pub artifacts: Vec<String>,
}

/// The full run manifest.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// Whether this was a `--quick` run.
    pub quick: bool,
    /// Shard count the run used.
    pub shards: usize,
    /// Fault preset name (`"none"` when no `--faults` was given).
    pub faults: String,
    /// One entry per campaign, in execution order.
    pub campaigns: Vec<CampaignEntry>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no Infinity/NaN; the manifest only carries finite
        // measurements, but don't emit invalid JSON if one slips in.
        "null".to_string()
    }
}

impl Manifest {
    /// Serialize to deterministic, pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.render(false)
    }

    /// Like [`to_json`](Self::to_json) but with `wall_ms` zeroed —
    /// everything that remains must be identical across shard counts.
    pub fn to_json_normalized(&self) -> String {
        self.render(true)
    }

    fn render(&self, normalize: bool) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"quick\": {},\n", self.quick));
        s.push_str(&format!("  \"shards\": {},\n", self.shards));
        s.push_str(&format!(
            "  \"faults\": \"{}\",\n",
            json_escape(&self.faults)
        ));
        s.push_str("  \"campaigns\": [");
        for (i, c) in self.campaigns.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {\n");
            s.push_str(&format!("      \"name\": \"{}\",\n", json_escape(&c.name)));
            s.push_str(&format!("      \"cells\": {},\n", c.cells));
            let wall = if normalize { 0 } else { c.wall_us };
            s.push_str(&format!("      \"wall_us\": {wall},\n"));
            s.push_str("      \"anchors\": [");
            for (j, a) in c.anchors.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "\n        {{\"name\": \"{}\", \"paper\": {}, \"measured\": {}, \"rel_err\": {}, \"ok\": {}}}",
                    json_escape(a.anchor.name),
                    json_f64(a.anchor.paper),
                    json_f64(a.measured),
                    json_f64(a.rel_err()),
                    a.ok()
                ));
            }
            if !c.anchors.is_empty() {
                s.push_str("\n      ");
            }
            s.push_str("],\n");
            s.push_str("      \"artifacts\": [");
            for (j, f) in c.artifacts.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("\"{}\"", json_escape(f)));
            }
            s.push_str("]\n    }");
        }
        if !self.campaigns.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anchor::Anchor;

    fn sample(wall: u64) -> Manifest {
        Manifest {
            quick: true,
            shards: 4,
            faults: "none".to_string(),
            campaigns: vec![CampaignEntry {
                name: "fig1".to_string(),
                cells: 6,
                wall_us: wall,
                anchors: vec![Anchor {
                    name: "fig1 download, 1 client (MB/s)",
                    paper: 13.0,
                    rel_tol: 0.15,
                }
                .check(12.262)],
                artifacts: vec!["fig1.csv".to_string(), "fig1.anchors.txt".to_string()],
            }],
        }
    }

    #[test]
    fn serializes_deterministically() {
        assert_eq!(sample(123).to_json(), sample(123).to_json());
        assert_ne!(sample(123).to_json(), sample(456).to_json());
    }

    #[test]
    fn normalization_hides_wall_clock_only() {
        assert_eq!(
            sample(123).to_json_normalized(),
            sample(99999).to_json_normalized()
        );
        assert!(sample(123).to_json().contains("\"wall_us\": 123"));
        assert!(sample(123).to_json_normalized().contains("\"wall_us\": 0"));
    }

    #[test]
    fn json_is_structurally_sound() {
        let j = sample(5).to_json();
        // Cheap structural checks (no JSON parser in the workspace).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains("\"campaigns\""));
        assert!(j.ends_with("}\n"));
        let empty = Manifest::default().to_json();
        assert!(empty.contains("\"campaigns\": []"));
    }

    #[test]
    fn escapes_special_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }
}
