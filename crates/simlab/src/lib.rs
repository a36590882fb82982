//! # simlab — experiment orchestration for the reproduction
//!
//! The paper's evaluation is eight independent campaigns (Figs 1–5 and
//! 7, Tables 1–2), each a grid of *cells*: one cell is one deterministic
//! simulation (a `(parameter point, seed)` pair) whose result merges
//! into the campaign's tables, CSVs and anchor checks. Before this crate
//! each regeneration binary carried its own copy of that machinery —
//! sweep loop, ad-hoc statistics, anchor printing — and the thread-local
//! `simfault` injector never reached the sweep worker threads, so
//! `--faults` silently shaped only the traced replay.
//!
//! `simlab` makes orchestration a first-class subsystem:
//!
//! * [`shard`] — the deterministic sharded runner. A campaign's cells
//!   are split across worker threads with a **fixed shard→cell
//!   assignment** (cell `i` runs on shard `i mod N`, each shard walks
//!   its cells in ascending order) and merged back in canonical cell
//!   order, so the merged output is byte-identical for any `--shards N`
//!   — including `N = 1`, which reproduces the old serial path exactly.
//!   Each cell's [`CellCtx`](shard::CellCtx) installs the fault plan
//!   (and, for the traced cell, the tracer) *on the worker thread that
//!   runs the cell*, closing the thread-local gap.
//! * [`stats`] — mergeable streaming statistics: Welford
//!   mean/variance ([`simcore::stats::OnlineStats`]) paired with a
//!   fixed-bucket base-2 logarithmic histogram ([`stats::Log2Hist`])
//!   whose merge is exact integer addition, so percentile summaries of
//!   millions of samples cross shard boundaries without shipping or
//!   sorting sample vectors.
//! * [`anchor`] — declare a paper anchor once, get the OK/OFF report
//!   line, CSV row and manifest entry from the same declaration.
//! * [`manifest`] — the machine-readable `results/manifest.json`
//!   (per-campaign cell counts, wall-clock, anchor verdicts) written by
//!   the `azlab` driver.
//! * [`cli`] — flag parsing for the `azlab` regeneration driver, with
//!   hard usage errors (exit 2) for malformed `--shards`/`--trace`/
//!   `--faults` values instead of silent defaults.
//!
//! The determinism contract is spelled out in `DESIGN.md` §6 and
//! enforced by `tests/shard_invariance.rs` at the workspace root.

#![warn(missing_docs)]

pub mod anchor;
pub mod cli;
pub mod manifest;
pub mod shard;
pub mod stats;

pub use anchor::{Anchor, AnchorCheck};
pub use cli::Flags;
pub use manifest::{CampaignEntry, Manifest};
pub use shard::{run_cells, CellCtx, RunOpts, RunOutcome, TraceSpec};
pub use stats::{Log2Hist, StreamSummary};
