//! Fig 1 campaign: average per-client blob download/upload bandwidth vs
//! concurrency (paper §3.1). One cell per swept client count.

use cloudbench::anchors;
use cloudbench::experiments::blob::{self, BlobScalingConfig, BlobScalingResult};
use simcore::report::Csv;
use simlab::{anchor, run_cells, RunOpts};

use super::CampaignOutput;

/// Planned cell count for one mode (recorded by `azlab bench`).
pub fn cell_count(quick: bool) -> usize {
    if quick {
        BlobScalingConfig::quick()
    } else {
        BlobScalingConfig::default()
    }
    .client_counts
    .len()
}

/// Run the Fig 1 campaign.
pub fn run(quick: bool, opts: &RunOpts) -> CampaignOutput {
    let cfg = if quick {
        BlobScalingConfig::quick()
    } else {
        BlobScalingConfig::default()
    };
    eprintln!(
        "fig1: sweeping {:?} clients, {} runs each, {:.0} MB blob ...",
        cfg.client_counts,
        cfg.runs,
        cfg.blob_bytes / 1.0e6
    );
    let out = run_cells(cfg.client_counts.len(), opts, |i, ctx| {
        blob::run_point(&cfg, cfg.client_counts[i], ctx)
    });
    let result = BlobScalingResult { rows: out.cells };

    let mut csv = Csv::new();
    csv.row(&[
        "clients",
        "download_per_client_mbps",
        "download_aggregate_mbps",
        "upload_per_client_mbps",
        "upload_aggregate_mbps",
    ]);
    for r in &result.rows {
        csv.row(&[
            r.clients.to_string(),
            format!("{:.3}", r.download_per_client_mbps),
            format!("{:.2}", r.download_aggregate_mbps),
            format!("{:.3}", r.upload_per_client_mbps),
            format!("{:.2}", r.upload_aggregate_mbps),
        ]);
    }

    let mut checks = Vec::new();
    if let Some(r1) = result.at(1) {
        checks.push(anchors::FIG1_DL_1CLIENT_MBPS.check(r1.download_per_client_mbps));
        if let Some(r32) = result.at(32) {
            checks.push(
                anchors::FIG1_DL_32CLIENT_RATIO
                    .check(r32.download_per_client_mbps / r1.download_per_client_mbps),
            );
        }
    }
    if let Some(r128) = result.at(128) {
        checks.push(anchors::FIG1_DL_PEAK_MBPS.check(r128.download_aggregate_mbps));
    }
    if let Some(r64) = result.at(64) {
        checks.push(anchors::FIG1_UL_64CLIENT_MBPS.check(r64.upload_per_client_mbps));
    }
    if let Some(r192) = result.at(192) {
        checks.push(anchors::FIG1_UL_192CLIENT_MBPS.check(r192.upload_per_client_mbps));
        checks.push(anchors::FIG1_UL_PEAK_MBPS.check(r192.upload_aggregate_mbps));
    }
    let block = anchor::render_block("Paper anchors (Fig 1):", &checks);

    let stdout = format!("{}\n{}", result.render(), block);
    CampaignOutput {
        name: "fig1",
        cells: cfg.client_counts.len(),
        stdout,
        files: vec![
            ("fig1.csv".to_string(), csv.as_str().to_string()),
            ("fig1.anchors.txt".to_string(), block),
        ],
        anchors: checks,
        trace_summary: out.trace_summary,
    }
}
