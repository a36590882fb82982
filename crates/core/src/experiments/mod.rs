//! The paper's experiments, one module per table/figure.
//!
//! | Module | Paper artifact | Regeneration target |
//! |---|---|---|
//! | [`blob`]  | Fig 1 — blob bandwidth vs concurrency | `azlab run fig1` |
//! | [`table`] | Fig 2 — table ops vs concurrency | `azlab run fig2` |
//! | [`queue`] | Fig 3 — queue ops vs concurrency | `azlab run fig3` |
//! | [`vm`]    | Table 1 — VM lifecycle times | `azlab run table1` |
//! | [`tcp`]   | Figs 4 & 5 — TCP latency / bandwidth | `azlab run fig4`, `azlab run fig5` |
//!
//! (Table 2 and Fig 7 come from the `modis` crate's campaign.)
//!
//! Every experiment exposes two entry points: `run(cfg)` that sweeps
//! all points on its own (the library/test path), and per-cell
//! functions taking a [`simlab::CellCtx`] so the sharded campaign
//! runner can execute individual cells on worker threads with the fault
//! plan and tracer installed there. A sweeping `run(cfg)` drives those
//! same per-cell functions through [`simlab::run_cells`], one thread
//! per point; a single-simulation one through a detached context. Both
//! paths execute the exact same event sequences.

use azstore::{FaultProfile, StampConfig};
use simlab::CellCtx;

pub mod blob;
pub mod queue;
pub mod table;
pub mod tcp;
pub mod vm;

/// The concurrency ladder used throughout the paper: "For all our tests
/// we use from 1 to 192 concurrent clients" (§3).
pub const CLIENT_COUNTS: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 192];

/// Mean of a slice (0 for empty) — tiny helper shared by experiments.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Stamp configuration for a cell: steady-state storage fault rates
/// come from the cell's fault plan (microbenchmarks are clean without
/// `--faults`, exactly the pre-simlab behaviour). Public so campaigns
/// outside this crate (the `simload` frontier) build their stamps the
/// same way.
pub fn stamp_config(ctx: &CellCtx) -> StampConfig {
    match ctx.fault_plan() {
        Some(plan) => StampConfig {
            faults: FaultProfile::from_plan(plan),
            ..StampConfig::default()
        },
        None => StampConfig::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_ladder_matches_paper() {
        assert_eq!(CLIENT_COUNTS.first(), Some(&1));
        assert_eq!(CLIENT_COUNTS.last(), Some(&192));
        assert!(CLIENT_COUNTS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
