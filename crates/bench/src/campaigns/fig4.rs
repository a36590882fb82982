//! Fig 4 campaign: cumulative TCP latency between two small VMs (paper
//! §4.2). One cell per VM pair.
//!
//! The latency model is a closed-form draw with no `Sim` behind it, so
//! the cells are transparent to fault plans; when a trace is requested
//! the traced cell additionally runs a representative NIC-level ping
//! scenario so the Chrome trace has real `net.flow` spans in it.

use cloudbench::anchors;
use cloudbench::experiments::tcp::{self, TcpLatencyConfig, TcpLatencyResult};
use dcnet::{LatencyModel, LinkModel, Network};
use simcore::prelude::SampleSet;
use simcore::report::Csv;
use simlab::{anchor, run_cells, RunOpts};

use super::CampaignOutput;

/// Planned cell count for one mode (recorded by `azlab bench`).
pub fn cell_count(quick: bool) -> usize {
    if quick {
        10
    } else {
        TcpLatencyConfig::default().pairs
    }
}

/// Run the Fig 4 campaign.
pub fn run(quick: bool, opts: &RunOpts) -> CampaignOutput {
    let cfg = if quick {
        TcpLatencyConfig {
            pairs: 10,
            samples_per_pair: 200,
            ..TcpLatencyConfig::default()
        }
    } else {
        TcpLatencyConfig::default()
    };
    eprintln!(
        "fig4: {} pairs x {} RTT samples ...",
        cfg.pairs, cfg.samples_per_pair
    );
    let placements = LatencyModel::default().spread_placements(cfg.pairs);
    let out = run_cells(cfg.pairs, opts, |i, ctx| {
        let samples = tcp::latency_pair(&cfg, i, placements[i]);
        if ctx.is_traced() {
            // A few 1-byte-scale ping flows across a VM pair's NIC
            // links (net.flow spans + bandwidth-share counters).
            ctx.with_sim(cfg.seed, |sim| {
                let net = Network::new(sim);
                let tx = net.add_link("vm_a.tx", LinkModel::Shared { capacity: 125.0e6 });
                let rx = net.add_link("vm_b.rx", LinkModel::Shared { capacity: 125.0e6 });
                for _ in 0..5 {
                    let net = net.clone();
                    sim.spawn(async move {
                        for _ in 0..4 {
                            net.transfer(&[tx, rx], 1.0e3, f64::INFINITY).await;
                        }
                    });
                }
                sim.run();
            });
        }
        samples
    });
    let mut samples = SampleSet::with_capacity(cfg.pairs * cfg.samples_per_pair);
    for cell in &out.cells {
        for &v in cell {
            samples.push(v);
        }
    }
    let result = TcpLatencyResult {
        samples_ms: samples,
    };

    let mut csv = Csv::new();
    csv.row(&["latency_ms", "cumulative_fraction"]);
    for (v, f) in result.samples_ms.cdf().into_iter().step_by(25) {
        csv.row(&[format!("{v:.4}"), format!("{f:.4}")]);
    }

    let checks = vec![
        anchors::FIG4_LE_1MS.check(result.fraction_at_most(1.0)),
        anchors::FIG4_LE_2MS.check(result.fraction_at_most(2.0)),
    ];
    let block = anchor::render_block("Paper anchors (Fig 4):", &checks);

    let stdout = format!("{}\n{}", result.render(), block);
    CampaignOutput {
        name: "fig4",
        cells: cfg.pairs,
        stdout,
        files: vec![
            ("fig4.csv".to_string(), csv.as_str().to_string()),
            ("fig4.anchors.txt".to_string(), block),
        ],
        anchors: checks,
        trace_summary: out.trace_summary,
    }
}
