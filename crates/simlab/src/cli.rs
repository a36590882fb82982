//! Flag parsing for the `azlab` regeneration driver.
//!
//! The pre-simlab binaries scanned `std::env::args()` ad hoc: `--trace`
//! with a missing path silently disabled tracing, and `--shards` did
//! not exist. Here every malformed flag is a hard usage error — parse
//! errors exit with status 2 after printing the binary's usage line.

use std::path::PathBuf;

use simfault::FaultPlan;

/// Parsed command line of the regeneration driver.
#[derive(Debug, Default)]
pub struct Flags {
    /// `--quick`: scaled-down campaign.
    pub quick: bool,
    /// `--shards N`: worker shards (`None` = pick a default).
    pub shards: Option<usize>,
    /// `--faults <preset>`: fault plan for every cell.
    pub faults: Option<FaultPlan>,
    /// `--trace <path>`: Chrome trace of the representative cell.
    pub trace: Option<PathBuf>,
    /// `--out <path>`: output file override (used by `azlab bench`).
    pub out: Option<PathBuf>,
    /// `--tau <seconds>`: bounded-staleness bound override for the
    /// consistency campaign. Validated here — τ ≤ 0 (an empty
    /// consistency guarantee) is a usage error, not a config to run.
    pub tau: Option<f64>,
    /// `--list`: enumerate the known targets instead of running.
    pub list: bool,
    /// Positional words (subcommand + target for `azlab`).
    pub words: Vec<String>,
}

/// Parse an argument list (without the program name).
///
/// `--flag value` and `--flag=value` are both accepted; any other
/// dash-prefixed argument (including single-dash typos like `-quick`
/// and near-misses like `--sharsd`) is a hard error rather than a
/// positional word.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Flags, String> {
    let mut flags = Flags::default();
    // Rewrite `--flag=value` to `--flag value` so both spellings share
    // one code path.
    let mut split = Vec::new();
    for a in args {
        match a.split_once('=') {
            Some((f, v)) if f.starts_with("--") => {
                split.push(f.to_string());
                split.push(v.to_string());
            }
            _ => split.push(a),
        }
    }
    let mut it = split.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => flags.quick = true,
            "--list" => flags.list = true,
            "--shards" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--shards: missing value".to_string())?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--shards {v:?}: expected a positive integer"))?;
                if n == 0 {
                    return Err("--shards 0: shard count must be >= 1".to_string());
                }
                flags.shards = Some(n);
            }
            "--faults" => {
                let name = it
                    .next()
                    .ok_or_else(|| "--faults: missing preset name".to_string())?;
                flags.faults = Some(FaultPlan::by_name(&name).ok_or_else(|| {
                    format!(
                        "--faults {name:?}: unknown preset (expected one of: {})",
                        FaultPlan::PRESETS.join(", ")
                    )
                })?);
            }
            "--trace" => {
                let p = it
                    .next()
                    .ok_or_else(|| "--trace: missing output path".to_string())?;
                if p.starts_with("--") {
                    return Err(format!("--trace: missing output path (got flag {p:?})"));
                }
                flags.trace = Some(PathBuf::from(p));
            }
            "--out" => {
                let p = it
                    .next()
                    .ok_or_else(|| "--out: missing output path".to_string())?;
                flags.out = Some(PathBuf::from(p));
            }
            "--tau" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--tau: missing value (seconds)".to_string())?;
                let tau: f64 = v
                    .parse()
                    .map_err(|_| format!("--tau {v:?}: expected a number of seconds"))?;
                if !tau.is_finite() || tau <= 0.0 {
                    return Err(format!(
                        "--tau {v}: staleness bound must be a finite positive number of seconds"
                    ));
                }
                flags.tau = Some(tau);
            }
            other if other.starts_with('-') && other.len() > 1 => {
                return Err(format!("unknown flag {other:?}"));
            }
            word => flags.words.push(word.to_string()),
        }
    }
    Ok(flags)
}

/// Parse the process's arguments; on error print the message plus
/// `usage` to stderr and exit with status 2.
pub fn parse_or_exit(usage: &str) -> Flags {
    match parse(std::env::args().skip(1)) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: {usage}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Flags, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn happy_path() {
        let f = p(&[
            "run", "all", "--quick", "--shards", "4", "--faults", "paper", "--trace", "t.json",
        ])
        .unwrap();
        assert_eq!(f.words, vec!["run", "all"]);
        assert!(f.quick);
        assert_eq!(f.shards, Some(4));
        assert_eq!(f.faults.as_ref().unwrap().name, "paper");
        assert_eq!(f.trace.as_deref(), Some(std::path::Path::new("t.json")));
    }

    #[test]
    fn shards_rejects_zero_and_garbage() {
        assert!(p(&["--shards", "0"]).unwrap_err().contains("--shards 0"));
        assert!(p(&["--shards", "four"])
            .unwrap_err()
            .contains("positive integer"));
        assert!(p(&["--shards"]).unwrap_err().contains("missing value"));
    }

    #[test]
    fn trace_requires_a_path() {
        assert!(p(&["--trace"]).unwrap_err().contains("missing output path"));
        assert!(p(&["--trace", "--quick"]).is_err());
    }

    #[test]
    fn faults_rejects_unknown_presets() {
        let e = p(&["--faults", "bogus"]).unwrap_err();
        assert!(e.contains("unknown preset") && e.contains("crash-partition"));
        assert!(p(&["--faults"]).is_err());
    }

    #[test]
    fn unknown_flags_are_errors() {
        assert!(p(&["--frobnicate"]).unwrap_err().contains("--frobnicate"));
        // A typo'd flag must not silently become a positional word (it
        // used to turn `--sharsd 4` into a bogus subcommand).
        assert!(p(&["run", "all", "--sharsd", "4"])
            .unwrap_err()
            .contains("--sharsd"));
        // Single-dash spellings are errors too, not positional words.
        assert!(p(&["-quick"]).unwrap_err().contains("-quick"));
        assert!(p(&["-q"]).unwrap_err().contains("-q"));
    }

    #[test]
    fn tau_rejects_nonpositive_and_garbage() {
        assert_eq!(p(&["--tau", "2.5"]).unwrap().tau, Some(2.5));
        assert_eq!(p(&["--tau=0.5"]).unwrap().tau, Some(0.5));
        assert!(p(&["--tau", "0"]).unwrap_err().contains("positive"));
        assert!(p(&["--tau", "-3"]).unwrap_err().contains("positive"));
        assert!(p(&["--tau", "inf"]).unwrap_err().contains("finite"));
        assert!(p(&["--tau", "nan"])
            .unwrap_err()
            .contains("finite positive"));
        assert!(p(&["--tau", "soon"]).unwrap_err().contains("number"));
        assert!(p(&["--tau"]).unwrap_err().contains("missing value"));
        assert_eq!(p(&[]).unwrap().tau, None);
    }

    #[test]
    fn equals_form_is_accepted() {
        let f = p(&["--shards=8", "--faults=paper", "--trace=t.json"]).unwrap();
        assert_eq!(f.shards, Some(8));
        assert_eq!(f.faults.as_ref().unwrap().name, "paper");
        assert_eq!(f.trace.as_deref(), Some(std::path::Path::new("t.json")));
        assert!(p(&["--shards=zero"]).unwrap_err().contains("integer"));
        assert!(p(&["--bogus=1"]).unwrap_err().contains("--bogus"));
    }

    #[test]
    fn empty_args_are_fine() {
        let f = p(&[]).unwrap();
        assert!(!f.quick && f.shards.is_none() && f.words.is_empty());
        assert!(!f.list);
    }

    #[test]
    fn list_is_a_bare_flag() {
        let f = p(&["run", "--list"]).unwrap();
        assert!(f.list);
        assert_eq!(f.words, vec!["run"]);
    }
}
