//! The benchmark's metrics: their names and units (which must equal
//! those in `BENCHMARK.json`), how they are computed from the passes,
//! and the JSON result line.

use std::collections::BTreeMap;

use crate::probe::Layers;
use crate::workloads::CellOut;

/// End-to-end metrics, from untraced passes.
pub const END_TO_END: [(&str, &str); 3] = [
    ("sim_ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, from a run whose traced passes alternate with
/// untraced ones.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("simcore.events", "count"),
    ("simcore.spawns", "count"),
    ("simcore.wakes", "count"),
    ("simcore.ns_per_event", "ns"),
    ("simcore.wake_host_s", "s"),
    ("simcore.live_tasks_end", "count"),
    ("simload.arrivals", "count"),
    ("simload.spawns_per_arrival", "ratio"),
    ("dcnet.flows", "count"),
    ("dcnet.completions", "count"),
    ("dcnet.rate_updates", "count"),
    ("dcnet.updates_per_flow", "ratio"),
    ("dcnet.mean_active_flows", "count"),
    ("dcnet.completion_host_s", "s"),
    ("azstore.ops", "count"),
    ("azstore.shed", "count"),
    ("azgeo.ship_entries", "count"),
    ("azroute.reads_secondary", "count"),
    ("azroute.escalations", "count"),
    ("fabric.starts_ok", "count"),
    ("autoscale.scale_out", "count"),
    ("modis.executions", "count"),
    ("simlab.wall_s", "s"),
    ("simlab.cell_max_s", "s"),
    ("simlab.makespan_2shards_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("host.cpu_s", "s"),
    ("host.speed", "ratio"),
];

pub type Values = BTreeMap<&'static str, f64>;

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Per cell, the median over passes of `f`.
fn cell_medians(passes: &[Vec<CellOut>], f: impl Fn(&CellOut) -> f64) -> Vec<f64> {
    (0..passes[0].len())
        .map(|i| median(passes.iter().map(|p| f(&p[i])).collect()))
        .collect()
}

/// `num / den`, or 0 when there is nothing to divide.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's resident-set high-water mark (`VmHWM`), in MB.
pub fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

/// Host times are in reference-host seconds (CPU time scaled by the
/// host's speed around each cell, see `calib`), summed over cells of
/// each cell's median over the passes, so one disturbed pass of one
/// cell does not move them.
pub fn end_to_end(plain: &[Vec<CellOut>], peak_rss_mb: f64) -> Values {
    let wall: f64 = cell_medians(plain, |c| c.reading.scaled_total_s())
        .iter()
        .sum();
    let setup: f64 = cell_medians(plain, |c| c.reading.scaled_setup_s())
        .iter()
        .sum();
    let ops: u64 = plain[0].iter().map(|c| c.ops).sum();
    BTreeMap::from([
        ("sim_ops_per_s", ops as f64 / wall),
        ("setup_s", setup),
        ("peak_rss_mb", peak_rss_mb),
    ])
}

fn layers(c: &CellOut) -> &Layers {
    c.reading
        .layers
        .as_ref()
        .expect("traced passes carry layer readings")
}

/// The deterministic per-layer counts of one traced pass.
fn counts(cells: &[CellOut]) -> Values {
    let sum = |f: &dyn Fn(&CellOut) -> u64| cells.iter().map(f).sum::<u64>() as f64;
    Values::from([
        ("simcore.events", sum(&|c| c.reading.events)),
        ("simcore.spawns", sum(&|c| c.reading.spawns)),
        ("simcore.wakes", sum(&|c| layers(c).wakes)),
        ("simload.arrivals", sum(&|c| layers(c).arrivals)),
        ("dcnet.flows", sum(&|c| layers(c).flows)),
        ("dcnet.completions", sum(&|c| layers(c).calls)),
        ("dcnet.rate_updates", sum(&|c| layers(c).rate_updates)),
        ("azstore.ops", sum(&|c| layers(c).store_ops)),
        ("azstore.shed", sum(&|c| layers(c).store_shed)),
        ("azgeo.ship_entries", sum(&|c| layers(c).ship_entries)),
        (
            "azroute.reads_secondary",
            sum(&|c| layers(c).reads_secondary),
        ),
        ("azroute.escalations", sum(&|c| layers(c).escalations)),
        ("fabric.starts_ok", sum(&|c| layers(c).starts_ok)),
        ("autoscale.scale_out", sum(&|c| layers(c).scale_out)),
        ("modis.executions", sum(&|c| layers(c).executions)),
    ])
}

/// Per-layer metrics. Counts come from the traced passes; host times of
/// whole cells and of the run phase come from the untraced passes, and
/// the per-pop host times from the traced ones. The simlab times are
/// wall time, as `azlab run` users see it; the others are CPU time.
pub fn per_layer(plain: &[Vec<CellOut>], traced: &[Vec<CellOut>]) -> Values {
    let last = traced.last().expect("a traced run has traced passes");
    let mut v = counts(last);

    let cell_s = cell_medians(plain, |c| c.reading.wall_s);
    let run_s: f64 = cell_medians(plain, |c| c.reading.run_s()).iter().sum();
    let scaled = |passes: &[Vec<CellOut>]| -> f64 {
        cell_medians(passes, |c| c.reading.scaled_total_s())
            .iter()
            .sum()
    };
    let cpu_s: f64 = cell_medians(plain, |c| c.reading.total_s).iter().sum();
    let speed = median(plain.iter().flatten().map(|c| c.reading.speed()).collect());
    let pass_sum = |passes: &[Vec<CellOut>], f: &dyn Fn(&CellOut) -> f64| {
        median(passes.iter().map(|p| p.iter().map(f).sum()).collect())
    };
    let shard = |s: usize| cell_s.iter().skip(s).step_by(2).sum::<f64>();
    let flow_s: f64 = last.iter().map(|c| layers(c).flow_virtual_s).sum();
    let horizon_s: f64 = last.iter().map(|c| c.reading.horizon_s).sum();

    v.extend([
        (
            "simcore.ns_per_event",
            ratio(run_s * 1e9, v["simcore.events"]),
        ),
        (
            "simcore.wake_host_s",
            pass_sum(traced, &|c| layers(c).wake_host_s),
        ),
        (
            "simcore.live_tasks_end",
            last.iter().map(|c| c.reading.live_tasks as f64).sum(),
        ),
        (
            "simload.spawns_per_arrival",
            ratio(v["simcore.spawns"], v["simload.arrivals"]),
        ),
        (
            "dcnet.updates_per_flow",
            ratio(v["dcnet.rate_updates"], v["dcnet.flows"]),
        ),
        ("dcnet.mean_active_flows", ratio(flow_s, horizon_s)),
        (
            "dcnet.completion_host_s",
            pass_sum(traced, &|c| layers(c).call_host_s),
        ),
        ("simlab.wall_s", cell_s.iter().sum()),
        (
            "simlab.cell_max_s",
            cell_s.iter().copied().fold(0.0, f64::max),
        ),
        ("simlab.makespan_2shards_s", shard(0).max(shard(1))),
        ("trace.overhead_frac", scaled(traced) / scaled(plain) - 1.0),
        ("host.cpu_s", cpu_s),
        ("host.speed", speed),
    ]);
    v
}

/// The result line: exactly the declared metrics, in declared order.
pub fn json(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[(&str, &str)],
    values: &Values,
) -> String {
    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            let v = values[name];
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
