//! Experiment FIG1 — blob download/upload bandwidth vs concurrency
//! (paper §3.1, Fig 1).
//!
//! Protocol, following the paper: "we start a number of worker roles
//! (1–192) that download the same 1 GB blob simultaneously from the blob
//! storage"; for upload, "the worker role instances will upload the same
//! 1 GB data to the same container in the blob storage, using different
//! blob name."

use std::cell::RefCell;
use std::rc::Rc;

use azstore::StorageStamp;
use simcore::report::{num, AsciiTable};
use simlab::{run_cells, CellCtx, RunOpts};

use super::{mean, CLIENT_COUNTS};

/// Configuration for the blob scaling experiment.
#[derive(Debug, Clone)]
pub struct BlobScalingConfig {
    /// Blob size in bytes (paper: 1 GB).
    pub blob_bytes: f64,
    /// Client counts to sweep.
    pub client_counts: Vec<usize>,
    /// Repeated runs per point ("we run the same test three times each
    /// day"); means are taken across runs.
    pub runs: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for BlobScalingConfig {
    fn default() -> Self {
        BlobScalingConfig {
            blob_bytes: 1.0e9,
            client_counts: CLIENT_COUNTS.to_vec(),
            runs: 3,
            seed: 0xF161,
        }
    }
}

/// A smaller, faster variant for tests and examples.
impl BlobScalingConfig {
    /// Reduced blob size / ladder for quick runs.
    pub fn quick() -> Self {
        BlobScalingConfig {
            blob_bytes: 100.0e6,
            client_counts: vec![1, 8, 32, 64, 128, 192],
            runs: 1,
            seed: 0xF161,
        }
    }
}

/// One Fig 1 sweep point.
#[derive(Debug, Clone, Copy)]
pub struct BlobScalingRow {
    /// Concurrent clients.
    pub clients: usize,
    /// Mean per-client download bandwidth, MB/s.
    pub download_per_client_mbps: f64,
    /// Aggregate (service-side) download throughput, MB/s.
    pub download_aggregate_mbps: f64,
    /// Mean per-client upload bandwidth, MB/s.
    pub upload_per_client_mbps: f64,
    /// Aggregate upload throughput, MB/s.
    pub upload_aggregate_mbps: f64,
}

/// Full Fig 1 result.
#[derive(Debug, Clone)]
pub struct BlobScalingResult {
    /// One row per swept client count.
    pub rows: Vec<BlobScalingRow>,
}

impl BlobScalingResult {
    /// Row for an exact client count, if swept.
    pub fn at(&self, clients: usize) -> Option<&BlobScalingRow> {
        self.rows.iter().find(|r| r.clients == clients)
    }

    /// Peak aggregate download throughput `(clients, MB/s)`.
    pub fn download_peak(&self) -> (usize, f64) {
        self.rows
            .iter()
            .map(|r| (r.clients, r.download_aggregate_mbps))
            .fold(
                (0, 0.0),
                |best, cur| if cur.1 > best.1 { cur } else { best },
            )
    }

    /// Render the Fig 1 data as a table.
    pub fn render(&self) -> String {
        let mut t = AsciiTable::new(vec![
            "clients",
            "dl MB/s per client",
            "dl aggregate MB/s",
            "ul MB/s per client",
            "ul aggregate MB/s",
        ])
        .with_title("Fig 1 — average per-client blob bandwidth vs concurrency");
        for r in &self.rows {
            t.row(vec![
                r.clients.to_string(),
                num(r.download_per_client_mbps, 2),
                num(r.download_aggregate_mbps, 1),
                num(r.upload_per_client_mbps, 2),
                num(r.upload_aggregate_mbps, 1),
            ]);
        }
        t.render()
    }
}

fn one_download_run(clients: usize, bytes: f64, seed: u64, ctx: &CellCtx) -> (f64, f64) {
    ctx.with_sim(seed, |sim| {
        let stamp = StorageStamp::standalone(sim, super::stamp_config(ctx));
        stamp.blob_service().seed("bench", "theblob", bytes);
        let rates: Rc<RefCell<Vec<f64>>> = Rc::default();
        let t0 = sim.now();
        for _ in 0..clients {
            let c = stamp.attach_small_client();
            let r = rates.clone();
            sim.spawn(async move {
                if let Ok(dl) = c.blob.get("bench", "theblob").await {
                    r.borrow_mut().push(dl.rate_bps() / 1.0e6);
                }
            });
        }
        sim.run();
        let elapsed = (sim.now() - t0).as_secs_f64();
        let per_client = mean(&rates.borrow());
        let aggregate = clients as f64 * bytes / 1.0e6 / elapsed;
        (per_client, aggregate)
    })
}

fn one_upload_run(clients: usize, bytes: f64, seed: u64, ctx: &CellCtx) -> (f64, f64) {
    ctx.with_sim(seed, |sim| {
        let stamp = StorageStamp::standalone(sim, super::stamp_config(ctx));
        let rates: Rc<RefCell<Vec<f64>>> = Rc::default();
        let t0 = sim.now();
        for i in 0..clients {
            let c = stamp.attach_small_client();
            let r = rates.clone();
            sim.spawn(async move {
                let name = format!("upload-{i}");
                if let Ok(ul) = c.blob.put("bench", &name, bytes).await {
                    r.borrow_mut()
                        .push(ul.bytes / ul.elapsed.as_secs_f64() / 1.0e6);
                }
            });
        }
        sim.run();
        let elapsed = (sim.now() - t0).as_secs_f64();
        let per_client = mean(&rates.borrow());
        let aggregate = clients as f64 * bytes / 1.0e6 / elapsed;
        (per_client, aggregate)
    })
}

/// Run one sweep point (all repeated runs of one client count) — the
/// per-cell entry the sharded campaign runner drives.
pub fn run_point(cfg: &BlobScalingConfig, clients: usize, ctx: &CellCtx) -> BlobScalingRow {
    let mut dl_pc = Vec::with_capacity(cfg.runs);
    let mut dl_ag = Vec::with_capacity(cfg.runs);
    let mut ul_pc = Vec::with_capacity(cfg.runs);
    let mut ul_ag = Vec::with_capacity(cfg.runs);
    for run in 0..cfg.runs {
        let seed = cfg.seed ^ ((clients as u64) << 16) ^ run as u64;
        let (pc, ag) = one_download_run(clients, cfg.blob_bytes, seed, ctx);
        dl_pc.push(pc);
        dl_ag.push(ag);
        let (pc, ag) = one_upload_run(clients, cfg.blob_bytes, seed ^ 0xABCD, ctx);
        ul_pc.push(pc);
        ul_ag.push(ag);
    }
    BlobScalingRow {
        clients,
        download_per_client_mbps: mean(&dl_pc),
        download_aggregate_mbps: mean(&dl_ag),
        upload_per_client_mbps: mean(&ul_pc),
        upload_aggregate_mbps: mean(&ul_ag),
    }
}

/// Run the full Fig 1 experiment.
pub fn run(cfg: &BlobScalingConfig) -> BlobScalingResult {
    // One thread per point: each point is a whole simulation.
    let n = cfg.client_counts.len();
    let opts = RunOpts {
        shards: n,
        ..RunOpts::default()
    };
    let rows = run_cells(n, &opts, |i, ctx| run_point(cfg, cfg.client_counts[i], ctx)).cells;
    BlobScalingResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_result() -> BlobScalingResult {
        run(&BlobScalingConfig {
            blob_bytes: 1.0e9,
            client_counts: vec![1, 32, 64, 128, 192],
            runs: 1,
            seed: 42,
        })
    }

    /// The headline Fig 1 anchors, end to end through the simulator.
    #[test]
    fn fig1_anchor_points_hold() {
        let r = full_result();
        let one = r.at(1).unwrap();
        let thirty_two = r.at(32).unwrap();
        let at128 = r.at(128).unwrap();
        let at192 = r.at(192).unwrap();

        // 1 client ≈ 13 MB/s (the 100 Mbit per-VM allocation).
        assert!(
            (11.0..13.5).contains(&one.download_per_client_mbps),
            "1-client dl = {}",
            one.download_per_client_mbps
        );
        // 32 clients ≈ half the single-client bandwidth.
        let ratio = thirty_two.download_per_client_mbps / one.download_per_client_mbps;
        assert!((0.40..0.62).contains(&ratio), "32-client ratio = {ratio}");
        // Peak aggregate ≈ 393 MB/s at 128 clients.
        assert!(
            (330.0..430.0).contains(&at128.download_aggregate_mbps),
            "128-client aggregate = {}",
            at128.download_aggregate_mbps
        );
        // 192 aggregate below the 128 peak (the observed dip).
        assert!(
            at192.download_aggregate_mbps < at128.download_aggregate_mbps,
            "192 {} !< 128 {}",
            at192.download_aggregate_mbps,
            at128.download_aggregate_mbps
        );
        // Upload anchors: ~1.25 MB/s at 64, ~0.65 at 192, aggregate
        // peaking ~124 MB/s at 192.
        let at64 = r.at(64).unwrap();
        assert!(
            (0.95..1.6).contains(&at64.upload_per_client_mbps),
            "64-client ul = {}",
            at64.upload_per_client_mbps
        );
        assert!(
            (0.5..0.85).contains(&at192.upload_per_client_mbps),
            "192-client ul = {}",
            at192.upload_per_client_mbps
        );
        assert!(
            (100.0..130.0).contains(&at192.upload_aggregate_mbps),
            "192 ul aggregate = {}",
            at192.upload_aggregate_mbps
        );
        // Upload is about half of download per-client at any point.
        assert!(one.upload_per_client_mbps < one.download_per_client_mbps);
    }

    #[test]
    fn per_client_bandwidth_declines_monotonically() {
        let r = full_result();
        for w in r.rows.windows(2) {
            assert!(
                w[1].download_per_client_mbps < w[0].download_per_client_mbps * 1.05,
                "per-client dl should decline: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn render_contains_all_rows() {
        let r = run(&BlobScalingConfig {
            blob_bytes: 10.0e6,
            client_counts: vec![1, 8],
            runs: 1,
            seed: 1,
        });
        let s = r.render();
        assert!(s.contains("Fig 1"));
        assert_eq!(s.lines().count(), 1 + 2 + 2); // title + header+sep + 2 rows
    }

    #[test]
    fn download_peak_helper() {
        let r = full_result();
        let (at, mbps) = r.download_peak();
        assert_eq!(at, 128, "peak at {at} ({mbps} MB/s)");
    }
}
