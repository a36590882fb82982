//! Table 1 campaign: worker/web role VM request times across the five
//! lifecycle phases (paper §4.1; 431 successful runs). The campaign is
//! one long sequential simulation, so it stays a single cell — the cell
//! context still routes `--faults`/`--trace` to whichever thread runs
//! it.

use cloudbench::anchors;
use cloudbench::experiments::vm::{self, VmLifecycleConfig};
use fabric::{Phase, RoleType, VmSize};
use simcore::report::Csv;
use simlab::{anchor, run_cells, RunOpts};

use super::CampaignOutput;

/// Planned cell count for one mode (recorded by `azlab bench`).
pub fn cell_count(_quick: bool) -> usize {
    1
}

/// Run the Table 1 campaign.
pub fn run(quick: bool, opts: &RunOpts) -> CampaignOutput {
    let cfg = if quick {
        VmLifecycleConfig::quick()
    } else {
        VmLifecycleConfig::default()
    };
    eprintln!(
        "table1: collecting {} successful runs ...",
        cfg.successful_runs
    );
    let out = run_cells(1, opts, |_i, ctx| vm::run_ctx(&cfg, ctx));
    let result = &out.cells[0];

    let mut csv = Csv::new();
    csv.row(&["role", "size", "phase", "avg_s", "std_s", "n"]);
    for role in RoleType::ALL {
        for size in VmSize::ALL {
            for phase in Phase::ALL {
                if let Some(stats) = result.cells.get(&(role, size, phase)) {
                    csv.row(&[
                        role.to_string(),
                        size.to_string(),
                        phase.to_string(),
                        format!("{:.1}", stats.mean()),
                        format!("{:.1}", stats.std()),
                        stats.count().to_string(),
                    ]);
                }
            }
        }
    }

    let small_worker_startup = result
        .mean(RoleType::Worker, VmSize::Small, Phase::Create)
        .unwrap_or(0.0)
        + result
            .mean(RoleType::Worker, VmSize::Small, Phase::Run)
            .unwrap_or(0.0);
    let checks = vec![
        anchors::TAB1_SMALL_WORKER_STARTUP_S.check(small_worker_startup),
        anchors::TAB1_STARTUP_FAILURE_RATE.check(result.failure_rate()),
    ];
    let block = anchor::render_block("Paper anchors (Table 1):", &checks);

    let stdout = format!(
        "{}\nstartup failures: {} of {} start requests ({:.2}%)  [paper: 2.6%]\n{}",
        result.render(),
        result.failures,
        result.start_requests,
        result.failure_rate() * 100.0,
        block
    );
    CampaignOutput {
        name: "table1",
        cells: 1,
        stdout,
        files: vec![
            ("table1.csv".to_string(), csv.as_str().to_string()),
            ("table1.anchors.txt".to_string(), block),
        ],
        anchors: checks,
        trace_summary: out.trace_summary,
    }
}
