//! # cloudbench — the paper's measurement harness
//!
//! This crate is the reproduction's *primary contribution* layer: the
//! methodology of *Early observations on the performance of Windows
//! Azure* (HPDC'10) packaged as a reusable library. It drives the
//! simulated platform (`azstore`, `fabric`, `dcnet`) through exactly the
//! protocols the paper describes and aggregates the same statistics the
//! paper plots:
//!
//! * [`experiments::blob`] — Fig 1 (blob bandwidth vs concurrency)
//! * [`experiments::table`] — Fig 2 (table ops vs concurrency)
//! * [`experiments::queue`] — Fig 3 (queue ops vs concurrency)
//! * [`experiments::vm`] — Table 1 (VM lifecycle campaign)
//! * [`experiments::tcp`] — Figs 4 & 5 (TCP latency / bandwidth)
//!
//! Sweep points are independent simulations, run one thread per point
//! through [`simlab::run_cells`]; the paper's published numbers live in
//! [`anchors`] so results can be compared programmatically.
//!
//! ## Example
//! ```
//! use cloudbench::experiments::blob;
//!
//! // A scaled-down Fig 1 sweep (full scale: BlobScalingConfig::default()).
//! let mut cfg = blob::BlobScalingConfig::quick();
//! cfg.client_counts = vec![1, 32];
//! let result = blob::run(&cfg);
//! let one = result.at(1).unwrap().download_per_client_mbps;
//! let many = result.at(32).unwrap().download_per_client_mbps;
//! assert!(many < one); // concurrency costs per-client bandwidth
//! ```

#![warn(missing_docs)]

pub mod anchors;
pub mod experiments;

pub use anchors::Anchor;
pub use experiments::CLIENT_COUNTS;
