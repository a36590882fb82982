//! The simulator's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <frontier|elastic|consistency|modis> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One process runs one workload: its cells back to back on one thread
//! (`simlab::run_cells`, one shard), repeated in passes while another
//! pass still fits in `--seconds` of wall time. Every cell's output is
//! checked. Cells are timed in thread CPU time, scaled by the host's
//! speed around each cell as a reference kernel measures it (`calib`). With `--trace 0` the end-to-end metrics are printed; with
//! `--trace 1` untraced and traced passes alternate and the per-layer
//! metrics are printed. The last line of stdout is one JSON object.
//! See `perfbench/README.md` for the metrics and workloads.

mod calib;
mod check;
mod metrics;
mod probe;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use simlab::{run_cells, RunOpts};
use workloads::{Cell, CellOut, Workload};

const USAGE: &str =
    "usage: perfbench --workload <frontier|elastic|consistency|modis> --seed <n> --seconds <n> --trace <0|1>";

/// Checked command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 20, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| bad("expected a whole number of seconds >= 1"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Run every cell once, serially.
fn pass(cells: &[Cell], traced: bool) -> Vec<CellOut> {
    run_cells(cells.len(), &RunOpts::serial(), |i, ctx| {
        cells[i].run(ctx, traced)
    })
    .cells
}

/// Golden results a seed-0 run must reproduce.
enum Golden {
    Rows(Vec<String>),
    Modis,
}

/// Every problem of one pass, by cell index: the cells' own invariant
/// failures, differences from the reference pass (same inputs must give
/// the same rows and event fingerprints, traced or not), and at seed 0
/// differences from the golden results.
fn pass_problems(
    plan: &[Cell],
    outs: &[CellOut],
    reference: &[CellOut],
    golden: Option<&Golden>,
) -> std::io::Result<Vec<Vec<String>>> {
    let mut problems: Vec<Vec<String>> = outs.iter().map(|c| c.problems.clone()).collect();
    for (i, (c, r)) in outs.iter().zip(reference).enumerate() {
        if c.row != r.row || c.reading.fingerprint != r.reading.fingerprint {
            problems[i].push(format!(
                "differs from the first untraced pass: {} (fingerprint {:016x}) vs {} ({:016x})",
                c.row, c.reading.fingerprint, r.row, r.reading.fingerprint
            ));
        }
    }
    let mirrored: Vec<(usize, usize)> = plan
        .iter()
        .enumerate()
        .filter_map(|(i, c)| Some((i, c.golden?)))
        .collect();
    match golden {
        Some(Golden::Rows(rows)) => {
            for &(i, g) in &mirrored {
                if rows.get(g) != Some(&outs[i].row) {
                    problems[i].push(format!(
                        "golden row {g} differs: {:?} vs {:?}",
                        outs[i].row,
                        rows.get(g)
                    ));
                }
            }
        }
        Some(Golden::Modis) => {
            let segments: Vec<_> = mirrored
                .iter()
                .map(|&(i, _)| {
                    outs[i]
                        .segment
                        .clone()
                        .expect("modis cells carry their telemetry")
                })
                .collect();
            let diffs = check::modis_golden(&segments)?;
            for &(i, _) in &mirrored {
                problems[i].extend(diffs.iter().cloned());
            }
        }
        None => {}
    }
    Ok(problems)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> std::io::Result<()> {
    let w = args.workload;
    let plan = workloads::plan(w, args.seed);
    let golden = match (args.seed, w) {
        (0, Workload::Modis) => Some(Golden::Modis),
        (0, _) => Some(Golden::Rows(check::golden_rows(w.name())?)),
        _ => None,
    };

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut peak_rss_mb = None;
    // Passes repeat while another one still fits in the budget, so a
    // run measures for about `--seconds` and never overshoots by a pass.
    loop {
        let round = Instant::now();
        plain.push(pass(&plan, false));
        let p = plain.last().expect("a pass just ran");
        let sum = |f: fn(&CellOut) -> f64| p.iter().map(f).sum::<f64>();
        eprintln!(
            "pass {}: {:.3} s wall, {:.3} s CPU, {:.3} s reference-host",
            plain.len(),
            sum(|c| c.reading.wall_s),
            sum(|c| c.reading.total_s),
            sum(|c| c.reading.scaled_total_s()),
        );
        // The high-water mark of one pass: later passes reuse freed
        // memory to a degree that depends on how many of them fit.
        if peak_rss_mb.is_none() {
            peak_rss_mb = Some(metrics::peak_rss_mb()?);
        }
        if args.trace {
            traced.push(pass(&plan, true));
        }
        if start.elapsed() + round.elapsed() > budget {
            break;
        }
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut report = Vec::new();
    for cells in plain.iter().chain(&traced) {
        for (i, p) in pass_problems(&plan, cells, &plain[0], golden.as_ref())?
            .into_iter()
            .enumerate()
        {
            attempted += 1;
            if !p.is_empty() {
                failed += 1;
                report.extend(p.into_iter().map(|line| format!("cell {i}: {line}")));
            }
        }
    }
    for line in report.iter().take(5) {
        eprintln!("{line}");
    }

    for (i, c) in plain[0].iter().enumerate() {
        eprintln!(
            "cell {i:2}: {:8.3} s CPU, {:6.3} s setup, {:9} events, {:8} spawns  {}",
            c.reading.total_s, c.reading.setup_s, c.reading.events, c.reading.spawns, c.row
        );
    }

    let values = if args.trace {
        metrics::per_layer(&plain, &traced)
    } else {
        metrics::end_to_end(&plain, peak_rss_mb.expect("one pass ran"))
    };
    let declared = if args.trace {
        &metrics::PER_LAYER[..]
    } else {
        &metrics::END_TO_END[..]
    };

    println!(
        "perfbench {} seed {}: {} cells ({} mirrored) x {} untraced + {} traced passes in {:.1} s",
        w.name(),
        args.seed,
        plan.len(),
        plan.iter().filter(|c| c.golden.is_some()).count(),
        plain.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    println!(
        "  cells_failed_frac = {} ({failed} of {attempted} cell runs failed a check)",
        failed as f64 / attempted as f64
    );
    for (name, unit) in declared {
        println!("  {name} = {} {unit}", values[name]);
    }
    println!(
        "{}",
        metrics::json(failed == 0, attempted, failed, declared, &values)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_parse_and_reject() {
        let a = args(&[
            "--workload",
            "modis",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid flags");
        assert_eq!(a.workload, Workload::Modis);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        for bad in [
            &["--workload", "nope"][..],
            &["--workload", "modis", "--seconds", "0"],
            &["--workload", "modis", "--trace", "2"],
            &["--workload", "modis", "--seed"],
            &["--workload", "modis", "--sed", "1"],
            &["--seed", "1"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn mirrored_cells_match_the_campaign_plans() {
        for w in Workload::ALL {
            let n = bench::campaigns::cell_count(w.name(), true).expect("a campaign per workload");
            let golden: Vec<usize> = workloads::plan(w, 0)
                .iter()
                .filter_map(|c| c.golden)
                .collect();
            assert!(golden.windows(2).all(|p| p[0] < p[1]), "{}", w.name());
            assert!(golden.iter().all(|&g| g < n), "{}", w.name());
            // The frontier workload is the campaign's steady slice.
            let expected = if w == Workload::Frontier { 12 } else { n };
            assert_eq!(golden.len(), expected, "{}", w.name());
        }
    }

    /// Run the mirrored cells of `w` once at `seed` and return their
    /// problems (goldens apply at seed 0) and fingerprints.
    fn mirrored_pass(w: Workload, seed: u64) -> (Vec<Vec<String>>, Vec<u64>) {
        let cells: Vec<Cell> = workloads::plan(w, seed)
            .into_iter()
            .filter(|c| c.golden.is_some())
            .collect();
        let outs = pass(&cells, false);
        let golden = match (seed, w) {
            (0, Workload::Modis) => Some(Golden::Modis),
            (0, _) => Some(Golden::Rows(
                check::golden_rows(w.name()).expect("golden CSV readable"),
            )),
            _ => None,
        };
        let problems =
            pass_problems(&cells, &outs, &outs, golden.as_ref()).expect("goldens readable");
        (
            problems,
            outs.iter().map(|o| o.reading.fingerprint).collect(),
        )
    }

    #[test]
    fn seed_zero_reproduces_goldens_and_other_seeds_change_fingerprints() {
        for w in [Workload::Frontier, Workload::Modis] {
            let (p0, f0) = mirrored_pass(w, 0);
            let (p7, f7) = mirrored_pass(w, 7);
            assert!(p0.iter().all(Vec::is_empty), "{}: {p0:?}", w.name());
            assert!(p7.iter().all(Vec::is_empty), "{}: {p7:?}", w.name());
            assert!(f0.iter().zip(&f7).all(|(a, b)| a != b), "{}", w.name());
        }
    }

    /// The `"<field>": "<value>"` values inside the `"<key>": [...]`
    /// list of a JSON text.
    fn listed(json: &str, key: &str, field: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let list = &json[start..];
        let list = &list[..list.find(']').expect("list closes")];
        let tag = format!("\"{field}\": \"");
        list.split(&tag)
            .skip(1)
            .map(|v| v[..v.find('"').expect("string closes")].to_string())
            .collect()
    }

    #[test]
    fn printed_metrics_are_the_declared_ones() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let names = |m: &[(&str, &str)]| m.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        let units = |m: &[(&str, &str)]| m.iter().map(|(_, u)| u.to_string()).collect::<Vec<_>>();
        for (key, declared) in [
            ("end_to_end", &metrics::END_TO_END[..]),
            ("per_layer", &metrics::PER_LAYER[..]),
        ] {
            assert_eq!(listed(&json, key, "name"), names(declared), "{key} names");
            assert_eq!(listed(&json, key, "unit"), units(declared), "{key} units");
        }
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(listed(&json, "workloads", "name"), workloads);
    }
}
