//! Light cross-crate anchor checks: scaled-down versions of every
//! experiment, each compared against the paper's published number via
//! the `cloudbench::anchors` table. (Heavier shape tests live in the
//! experiment modules; full-scale regeneration is `azlab run`,
//! recorded in EXPERIMENTS.md.)

use cloudbench::anchors::{self, Anchor};
use cloudbench::experiments::{blob, queue, tcp};

/// Assert `measured` passes `anchor` (`Anchor::check(..).ok()`, the
/// rule the campaign goldens use), reporting the anchor line if not.
fn holds(anchor: Anchor, measured: f64) {
    let c = anchor.check(measured);
    assert!(c.ok(), "{}", c.line());
}

#[test]
fn fig1_blob_anchors_scaled() {
    let r = blob::run(&blob::BlobScalingConfig {
        blob_bytes: 500.0e6,
        client_counts: vec![1, 32, 64, 128, 192],
        runs: 1,
        seed: 21,
    });
    let one = r.at(1).unwrap();
    holds(anchors::FIG1_DL_1CLIENT_MBPS, one.download_per_client_mbps);
    let ratio = r.at(32).unwrap().download_per_client_mbps / one.download_per_client_mbps;
    holds(anchors::FIG1_DL_32CLIENT_RATIO, ratio);
    let at = |c| r.at(c).unwrap();
    holds(anchors::FIG1_DL_PEAK_MBPS, at(128).download_aggregate_mbps);
    holds(
        anchors::FIG1_UL_64CLIENT_MBPS,
        at(64).upload_per_client_mbps,
    );
    holds(
        anchors::FIG1_UL_192CLIENT_MBPS,
        at(192).upload_per_client_mbps,
    );
    holds(anchors::FIG1_UL_PEAK_MBPS, at(192).upload_aggregate_mbps);
}

#[test]
fn fig3_queue_anchors_scaled() {
    let r = queue::run(&queue::QueueScalingConfig {
        message_bytes: 512.0,
        client_counts: vec![64, 128, 192],
        ops_per_client: 60,
        seed: 22,
    });
    let ops = |op, c| r.at(op, c).unwrap().aggregate_ops_s;
    holds(anchors::FIG3_ADD_PEAK_OPS, ops(queue::QueueOp::Add, 64));
    holds(
        anchors::FIG3_RECV_PEAK_OPS,
        ops(queue::QueueOp::Receive, 64),
    );
    holds(anchors::FIG3_PEEK_128_OPS, ops(queue::QueueOp::Peek, 128));
    holds(anchors::FIG3_PEEK_192_OPS, ops(queue::QueueOp::Peek, 192));
}

#[test]
fn fig4_latency_anchors() {
    let r = tcp::run_latency(&tcp::TcpLatencyConfig {
        pairs: 50,
        samples_per_pair: 400,
        seed: 23,
    });
    holds(anchors::FIG4_LE_1MS, r.fraction_at_most(1.0));
    holds(anchors::FIG4_LE_2MS, r.fraction_at_most(2.0));
}

#[test]
fn fig5_bandwidth_anchors_scaled() {
    let r = tcp::run_bandwidth(&tcp::TcpBandwidthConfig::quick());
    holds(anchors::FIG5_GE_90MBPS, r.fraction_at_least(90.0));
    holds(anchors::FIG5_LE_30MBPS, r.fraction_at_most(30.0));
}
