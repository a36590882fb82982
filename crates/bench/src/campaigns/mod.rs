//! The paper's campaigns as library functions.
//!
//! Each regeneration target (Figs 1–5 and 7, Tables 1–2, the ablation
//! suite) is a pure function `run(quick, &RunOpts) -> CampaignOutput`:
//! it decomposes the campaign into deterministic cells, drives them
//! through [`simlab::run_cells`] (so `--shards`, `--faults` and
//! `--trace` all apply uniformly), and returns everything the campaign
//! produces — rendered stdout, result files, anchor verdicts — without
//! touching the filesystem. The `azlab` driver handles printing, saving
//! and the manifest.
//!
//! Table 2 and Fig 7 come from the same ModisAzure campaign, so they
//! share one entry ([`modis`]) that emits both artifacts; `azlab run
//! table2` and `azlab run fig7` are aliases for it.

use std::path::Path;

use simlab::{AnchorCheck, RunOpts};

pub mod ablations;
pub mod consistency;
pub mod elastic;
pub mod faas;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod frontier;
pub mod geo;
pub mod modis;
pub mod shedding;
pub mod table1;

/// Everything one campaign produces, computed without side effects.
#[derive(Debug)]
pub struct CampaignOutput {
    /// Canonical campaign name (`fig1` ... `ablations`).
    pub name: &'static str,
    /// Cells the sharded runner executed.
    pub cells: usize,
    /// Exactly what the campaign prints on stdout (tables + anchor
    /// blocks), byte-identical for any shard count.
    pub stdout: String,
    /// Result files as `(file name, contents)`, to be written into the
    /// run's results directory.
    pub files: Vec<(String, String)>,
    /// Anchor verdicts for the manifest.
    pub anchors: Vec<AnchorCheck>,
    /// Latency breakdown + file note of the traced cell, if any.
    pub trace_summary: Option<String>,
}

/// Canonical campaign names, in `azlab run all` execution order.
pub const ALL: [&str; 14] = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "table1",
    "modis",
    "frontier",
    "geo",
    "shedding",
    "elastic",
    "faas",
    "consistency",
    "ablations",
];

/// Resolve a CLI target (including the `table2`/`fig7` aliases) to its
/// canonical campaign name.
pub fn canonical(target: &str) -> Option<&'static str> {
    match target {
        "table2" | "fig7" => Some("modis"),
        t => ALL.iter().find(|n| **n == t).copied(),
    }
}

/// Run one campaign by canonical name.
pub fn run(name: &str, quick: bool, opts: &RunOpts) -> Option<CampaignOutput> {
    Some(match canonical(name)? {
        "fig1" => fig1::run(quick, opts),
        "fig2" => fig2::run(quick, opts),
        "fig3" => fig3::run(quick, opts),
        "fig4" => fig4::run(quick, opts),
        "fig5" => fig5::run(quick, opts),
        "table1" => table1::run(quick, opts),
        "modis" => modis::run(quick, opts),
        "frontier" => frontier::run(quick, opts),
        "geo" => geo::run(quick, opts),
        "shedding" => shedding::run(quick, opts),
        "elastic" => elastic::run(quick, opts),
        "faas" => faas::run(quick, opts),
        "consistency" => consistency::run(quick, opts),
        "ablations" => ablations::run(quick, opts),
        _ => unreachable!("canonical() returned an unknown name"),
    })
}

/// Planned cell count of one campaign in one mode, without running it
/// (the `azlab bench` report records quick and full counts side by
/// side).
pub fn cell_count(name: &str, quick: bool) -> Option<usize> {
    Some(match canonical(name)? {
        "fig1" => fig1::cell_count(quick),
        "fig2" => fig2::cell_count(quick),
        "fig3" => fig3::cell_count(quick),
        "fig4" => fig4::cell_count(quick),
        "fig5" => fig5::cell_count(quick),
        "table1" => table1::cell_count(quick),
        "modis" => modis::cell_count(quick),
        "frontier" => frontier::cell_count(quick),
        "geo" => geo::cell_count(quick),
        "shedding" => shedding::cell_count(quick),
        "elastic" => elastic::cell_count(quick),
        "faas" => faas::cell_count(quick),
        "consistency" => consistency::cell_count(quick),
        "ablations" => ablations::cell_count(quick),
        _ => unreachable!("canonical() returned an unknown name"),
    })
}

/// Print a campaign's stdout, write its files into `dir` (announcing
/// each on stdout like the pre-simlab binaries did), and print the
/// trace summary if one was captured.
pub fn emit(out: &CampaignOutput, dir: &Path) {
    print!("{}", out.stdout);
    for (name, contents) in &out.files {
        let path = dir.join(name);
        if std::fs::write(&path, contents).is_ok() {
            println!("[saved {}]", path.display());
        }
    }
    if let Some(t) = &out.trace_summary {
        print!("{t}");
    }
}

/// Default shard count: one per available core.
pub fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
