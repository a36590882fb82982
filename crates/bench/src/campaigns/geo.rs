//! Geo campaign: the multi-stamp platform — aggregate scale-out,
//! cross-stamp behavior, stamp failover and hot-range rebalancing.
//!
//! Everything before this campaign measures one storage stamp. Here an
//! `azgeo` set of four stamps runs behind the location-service front
//! door, and three cell families probe the platform-level story:
//!
//! * **Clean sweeps** — open-loop offered load at 4x the single-stamp
//!   frontier nominals, swept through the aggregate knee under
//!   home-stamp affinity. The aggregate peak goodput must land on
//!   4 x the Fig 1–3 closed-loop peaks (the scale-out anchors): with
//!   balanced placement every stamp runs at the same operating point
//!   the single-stamp frontier swept, so the platform ceiling is
//!   linear in stamps or the composition is broken.
//! * **Failover cells** — one per service at sub-knee load with a
//!   stamp-0 partition opening mid-run. The health monitor's missed
//!   probes declare the stamp dead, secondaries are promoted, and the
//!   cell measures RTO (exactly the closed-form detection+promotion
//!   time, anchored) and RPO (the abandoned unshipped tail — positive
//!   under asynchronous replication, anchored as an indicator; the
//!   queue cell is the verdict cell because only mutations replicate).
//! * **A rebalance rider** — queue load skewed hard onto one account
//!   (`u^4` popularity) with per-stamp token-bucket admission, so the
//!   hot stamp sheds past the rebalancer's threshold and the busiest
//!   account migrates to the coldest stamp. Decisions land in the
//!   byte-reproducible `geo.decisions.txt` log.

use azgeo::{run_geo, GeoConfig, GeoResult};
use cloudbench::anchors;
use cloudbench::experiments::stamp_config;
use simcore::report::{num, AsciiTable, Csv};
use simfault::{FaultEpisode, FaultKind, FaultPlan};
use simlab::{anchor, run_cells, RunOpts};
use simload::{ArrivalProcess, Workload};

use super::CampaignOutput;

/// Stamps in the geo set (equal capacity weights).
const STAMPS: usize = 4;
/// Placement seed for the location service (fixed: the account→stamp
/// map is part of the campaign's deterministic contract).
const PLACEMENT_SEED: u64 = 0xA2;

/// The three swept services.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Service {
    Blob,
    Table,
    Queue,
}

impl Service {
    fn name(self) -> &'static str {
        match self {
            Service::Blob => "blob",
            Service::Table => "table",
            Service::Queue => "queue",
        }
    }

    /// Throughput unit for reporting (blob in MB/s, others in ops/s).
    fn unit(self) -> &'static str {
        match self {
            Service::Blob => "MB/s",
            _ => "ops/s",
        }
    }
}

/// Cell family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Home-affinity Poisson sweep point.
    Clean,
    /// Mid-run stamp-0 partition: failover, RTO/RPO.
    Failover,
    /// Skewed load + admission: the rebalancer migrates hot ranges.
    Rebalance,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Clean => "clean",
            Kind::Failover => "failover",
            Kind::Rebalance => "rebalance",
        }
    }
}

/// Per-service sweep parameters (aggregate = STAMPS x the single-stamp
/// frontier nominal, so each stamp sees the frontier's operating
/// point).
struct ServicePlan {
    service: Service,
    workload: Workload,
    /// Aggregate nominal capacity across the set (ops/s).
    nominal_ops_s: f64,
    /// Latency SLO (seconds from the scheduled instant).
    deadline_s: f64,
}

/// Full cell grid + windows for one mode.
struct Plan {
    services: Vec<ServicePlan>,
    multipliers: Vec<f64>,
    /// Multiplier the failover cells run at (sub-knee: the surviving
    /// stamps must have headroom to absorb redirected accounts).
    failover_multiplier: f64,
    /// Multiplier the rebalance rider runs at.
    rebalance_multiplier: f64,
    warmup_s: f64,
    window_s: f64,
    /// Client VMs across the whole set.
    fleet: usize,
    /// Storage accounts placed over the stamps.
    accounts: u32,
    /// Stamp-0 partition opening instant for failover cells.
    fault_start_s: f64,
    seed: u64,
}

/// One grid entry.
#[derive(Clone, Copy)]
struct Cell {
    si: usize,
    multiplier: f64,
    kind: Kind,
}

impl Plan {
    fn new(quick: bool) -> Plan {
        let blob_bytes = if quick { 2e6 } else { 8e6 };
        let services = vec![
            ServicePlan {
                service: Service::Blob,
                workload: Workload::BlobGet { blob_bytes },
                nominal_ops_s: STAMPS as f64 * 400e6 / blob_bytes,
                deadline_s: if quick { 1.0 } else { 4.0 },
            },
            ServicePlan {
                service: Service::Table,
                workload: Workload::TableQuery {
                    entities: 512,
                    entity_kb: 4,
                },
                nominal_ops_s: STAMPS as f64 * 3900.0,
                deadline_s: 0.08,
            },
            ServicePlan {
                service: Service::Queue,
                workload: Workload::QueueAdd {
                    message_bytes: 512.0,
                },
                nominal_ops_s: STAMPS as f64 * 585.0,
                deadline_s: 0.5,
            },
        ];
        Plan {
            services,
            multipliers: if quick {
                vec![0.85, 1.0]
            } else {
                vec![0.5, 0.85, 1.0, 1.15]
            },
            // Quick failover cells run at half load purely for wall
            // clock; RTO/RPO do not depend on the offered rate.
            failover_multiplier: if quick { 0.5 } else { 0.85 },
            rebalance_multiplier: 0.85,
            warmup_s: if quick { 2.0 } else { 5.0 },
            window_s: if quick { 8.0 } else { 15.0 },
            fleet: if quick { 256 } else { 10_000 },
            accounts: if quick { 64 } else { 1024 },
            // Probes tick every 2 s: partition at 3 s (quick) is first
            // missed at 4, declared at 8, promoted at 13 (after the
            // 10 s horizon, still deterministic); at 8 s (full) it is
            // missed at 8, declared at 12, promoted at 17 — inside the
            // 20 s horizon, so the post-failover regime is measured.
            fault_start_s: if quick { 3.0 } else { 8.0 },
            seed: 0x6E0,
        }
    }

    /// Canonical cell order (the shard-merge contract): the Poisson
    /// sweep per service, then one failover cell per service, then the
    /// queue rebalance rider.
    fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for (si, _) in self.services.iter().enumerate() {
            for &m in &self.multipliers {
                cells.push(Cell {
                    si,
                    multiplier: m,
                    kind: Kind::Clean,
                });
            }
        }
        for (si, _) in self.services.iter().enumerate() {
            cells.push(Cell {
                si,
                multiplier: self.failover_multiplier,
                kind: Kind::Failover,
            });
        }
        cells.push(Cell {
            si: 2,
            multiplier: self.rebalance_multiplier,
            kind: Kind::Rebalance,
        });
        cells
    }

    fn config(&self, c: &Cell) -> GeoConfig {
        let sp = &self.services[c.si];
        GeoConfig {
            stamps: STAMPS,
            accounts: self.accounts,
            workload: sp.workload,
            process: ArrivalProcess::Poisson,
            offered_ops_s: sp.nominal_ops_s * c.multiplier,
            warmup_s: self.warmup_s,
            window_s: self.window_s,
            fleet: self.fleet,
            deadline_s: sp.deadline_s,
            // `u^4` popularity: the hottest account alone draws ~18 %
            // (full, 1024 accounts) to ~35 % (quick, 64) of all
            // arrivals, pushing its stamp well past the admission rate
            // in both modes.
            skew_alpha: (c.kind == Kind::Rebalance).then_some(4.0),
            rebalance: c.kind == Kind::Rebalance,
            placement_seed: PLACEMENT_SEED,
        }
    }
}

/// Planned cell count for one mode (the bench report records this
/// without executing the campaign).
pub fn cell_count(quick: bool) -> usize {
    Plan::new(quick).cells().len()
}

/// One measured cell.
struct Point {
    service: Service,
    kind: Kind,
    multiplier: f64,
    unit_scale: f64,
    r: GeoResult,
}

impl Point {
    fn offered(&self) -> f64 {
        self.r.offered_ops_s * self.unit_scale
    }

    fn goodput(&self) -> f64 {
        self.r.goodput_ops_s * self.unit_scale
    }
}

/// Run the geo campaign.
pub fn run(quick: bool, opts: &RunOpts) -> CampaignOutput {
    let plan = Plan::new(quick);
    let cells = plan.cells();
    eprintln!(
        "geo: {} stamps, {} accounts, fleet {}, x{:?} aggregate sweep + {} failover + 1 rebalance cells ({} s windows) ...",
        STAMPS,
        plan.accounts,
        plan.fleet,
        plan.multipliers,
        plan.services.len(),
        plan.window_s,
    );
    let out = run_cells(cells.len(), opts, |i, ctx| {
        let c = &cells[i];
        let cfg = plan.config(c);
        // Failover cells layer the stamp-0 partition on top of whatever
        // `--faults` plan the run carries (`install` nests, restoring
        // the outer plan on drop).
        let fault = (c.kind == Kind::Failover).then(|| {
            let mut fp = ctx.fault_plan().cloned().unwrap_or_else(FaultPlan::none);
            fp.episodes.push(FaultEpisode {
                start_s: plan.fault_start_s,
                duration_s: 600.0,
                kind: FaultKind::StampPartition { stamp: 0 },
            });
            fp
        });
        let mut base = stamp_config(ctx);
        if c.kind == Kind::Rebalance {
            // Per-stamp admission at the single-stamp queue nominal:
            // the skewed hot stamp sheds, the cold ones do not — the
            // signal the rebalancer keys on.
            base.admission = azstore::AdmissionConfig::TokenBucket {
                rate_ops_s: 585.0,
                burst: 32.0,
            };
        }
        let seed = plan.seed ^ ((c.si as u64) << 8) ^ ((i as u64) << 16);
        ctx.with_sim(seed, |sim| {
            let _fault = fault.as_ref().map(|fp| simfault::install(sim, fp));
            run_geo(sim, base, &cfg)
        })
    });
    let points: Vec<Point> = out
        .cells
        .into_iter()
        .zip(&cells)
        .map(|(r, c)| {
            let sp = &plan.services[c.si];
            let unit_scale = match sp.service {
                Service::Blob => sp.workload.bytes_per_op() / 1e6,
                _ => 1.0,
            };
            Point {
                service: sp.service,
                kind: c.kind,
                multiplier: c.multiplier,
                unit_scale,
                r,
            }
        })
        .collect();

    let mut table = AsciiTable::new(vec![
        "service",
        "cell",
        "x nominal",
        "offered",
        "goodput",
        "unit",
        "p99 ms",
        "SLO viol",
        "unavail",
        "promos",
        "rto s",
        "lost",
        "moves",
    ])
    .with_title("Geo platform — 4-stamp aggregate, failover, rebalance".to_string());
    let mut csv = Csv::new();
    let mut hdr = vec![
        "service".to_string(),
        "cell".to_string(),
        "multiplier".to_string(),
        "offered_ops_s".to_string(),
        "scheduled_ops_s".to_string(),
        "achieved_ops_s".to_string(),
        "goodput_ops_s".to_string(),
        "offered_units".to_string(),
        "goodput_units".to_string(),
        "unit".to_string(),
        "p50_ms".to_string(),
        "p99_ms".to_string(),
        "violation_frac".to_string(),
        "completed".to_string(),
        "failed".to_string(),
    ];
    for s in 0..STAMPS {
        hdr.push(format!("s{s}_ops"));
    }
    hdr.extend(
        [
            "admit_shed",
            "latch_shed",
            "revalidations",
            "redirects",
            "remote_ops",
            "unavailable_ops",
            "ship_batches",
            "ship_entries",
            "rpo_max_s",
            "rpo_at_promotion_s",
            "lost_entries",
            "promotions",
            "rto_s",
            "moves",
            "placement_fp",
        ]
        .map(String::from),
    );
    csv.row(&hdr);
    for p in &points {
        table.row(vec![
            p.service.name().to_string(),
            p.kind.name().to_string(),
            num(p.multiplier, 2),
            num(p.offered(), 1),
            num(p.goodput(), 1),
            p.service.unit().to_string(),
            num(p.r.slo.quantile_ms(0.99), 1),
            format!("{:.1}%", p.r.slo.violation_fraction() * 100.0),
            p.r.unavailable_ops.to_string(),
            p.r.promotions.to_string(),
            num(p.r.rto_s, 1),
            p.r.lost_entries.to_string(),
            p.r.moves.to_string(),
        ]);
        let mut row = vec![
            p.service.name().to_string(),
            p.kind.name().to_string(),
            format!("{:.2}", p.multiplier),
            format!("{:.3}", p.r.offered_ops_s),
            format!("{:.3}", p.r.scheduled_ops_s),
            format!("{:.3}", p.r.achieved_ops_s),
            format!("{:.3}", p.r.goodput_ops_s),
            format!("{:.2}", p.offered()),
            format!("{:.2}", p.goodput()),
            p.service.unit().to_string(),
            format!("{:.3}", p.r.slo.quantile_ms(0.50)),
            format!("{:.3}", p.r.slo.quantile_ms(0.99)),
            format!("{:.4}", p.r.slo.violation_fraction()),
            p.r.slo.completed.to_string(),
            p.r.slo.failed.to_string(),
        ];
        for &n in &p.r.stamp_ops {
            row.push(n.to_string());
        }
        row.extend([
            p.r.admit_shed.to_string(),
            p.r.latch_shed.to_string(),
            p.r.revalidations.to_string(),
            p.r.redirects.to_string(),
            p.r.remote_ops.to_string(),
            p.r.unavailable_ops.to_string(),
            p.r.ship_batches.to_string(),
            p.r.ship_entries.to_string(),
            format!("{:.3}", p.r.rpo_max_s),
            format!("{:.3}", p.r.rpo_at_promotion_s),
            p.r.lost_entries.to_string(),
            p.r.promotions.to_string(),
            format!("{:.3}", p.r.rto_s),
            p.r.moves.to_string(),
            format!("{:016x}", p.r.placement_fingerprint),
        ]);
        csv.row(&row);
    }

    // Scale-out anchors: per service, the best aggregate goodput over
    // the clean Poisson sweep, compared against STAMPS x the Fig 1–3
    // closed-loop peaks. The per-stamp knee ties to the single-stamp
    // frontier: each stamp's share of the aggregate peak is reported
    // below the verdicts.
    let mut share_lines = String::new();
    let mut checks = Vec::new();
    for sp in &plan.services {
        let sweep: Vec<&Point> = points
            .iter()
            .filter(|p| p.service == sp.service && p.kind == Kind::Clean)
            .collect();
        let peak = sweep.iter().map(|p| p.goodput()).fold(0.0, f64::max);
        let best = sweep
            .iter()
            .max_by(|a, b| a.goodput().partial_cmp(&b.goodput()).unwrap())
            .expect("sweep is non-empty");
        let total: u64 = best.r.stamp_ops.iter().sum();
        let shares: Vec<String> = best
            .r
            .stamp_ops
            .iter()
            .map(|&n| format!("{:.1}%", 100.0 * n as f64 / total.max(1) as f64))
            .collect();
        share_lines.push_str(&format!(
            "  {}: aggregate peak {} {unit} at {:.2}x nominal; per-stamp share [{}] (single-stamp Fig 1-3 peak x{} = {} {unit})\n",
            sp.service.name(),
            num(peak, 1),
            best.multiplier,
            shares.join(", "),
            STAMPS,
            num(
                match sp.service {
                    Service::Blob => anchors::GEO_BLOB_AGGREGATE_MBPS.paper,
                    Service::Table => anchors::GEO_TABLE_AGGREGATE_OPS.paper,
                    Service::Queue => anchors::GEO_QUEUE_AGGREGATE_OPS.paper,
                },
                1
            ),
            unit = sp.service.unit(),
        ));
        let a = match sp.service {
            Service::Blob => anchors::GEO_BLOB_AGGREGATE_MBPS,
            Service::Table => anchors::GEO_TABLE_AGGREGATE_OPS,
            Service::Queue => anchors::GEO_QUEUE_AGGREGATE_OPS,
        };
        checks.push(a.check(peak));
    }
    // Failover verdicts come from the queue failover cell: queue adds
    // are the only mutations, so only there can the abandoned tail be
    // non-empty.
    let fo = points
        .iter()
        .find(|p| p.service == Service::Queue && p.kind == Kind::Failover)
        .expect("grid has a queue failover cell");
    checks.push(anchors::GEO_FAILOVER_RTO_S.check(fo.r.rto_s));
    let rpo_ok = fo.r.lost_entries > 0 && fo.r.rpo_at_promotion_s > 0.0;
    checks.push(anchors::GEO_FAILOVER_RPO_POSITIVE.check(if rpo_ok { 1.0 } else { 0.0 }));

    let mut block = anchor::render_block(
        "Scale-out + failover verdicts (4-stamp aggregate vs Fig 1-3, RTO/RPO):",
        &checks,
    );
    block.push_str("Aggregate peaks and per-stamp balance:\n");
    block.push_str(&share_lines);
    block.push_str(&format!(
        "Failover (queue cell): RTO {:.1} s, RPO at promotion {:.2} s, {} entries lost, {} accounts promoted; rebalance rider made {} moves\n",
        fo.r.rto_s,
        fo.r.rpo_at_promotion_s,
        fo.r.lost_entries,
        fo.r.promotions,
        points.last().map(|p| p.r.moves).unwrap_or(0),
    ));

    // The failover + rebalance decision logs, byte-reproducible for
    // any shard count.
    let mut decisions = String::new();
    for p in &points {
        if p.r.decisions.is_empty() {
            continue;
        }
        decisions.push_str(&format!(
            "# {} {} x{:.2}\n",
            p.service.name(),
            p.kind.name(),
            p.multiplier
        ));
        for d in &p.r.decisions {
            decisions.push_str(d);
            decisions.push('\n');
        }
    }

    let stdout = format!("{}\n{}", table.render(), block);
    CampaignOutput {
        name: "geo",
        cells: cells.len(),
        stdout,
        files: vec![
            ("geo.csv".to_string(), csv.as_str().to_string()),
            ("geo.anchors.txt".to_string(), block),
            ("geo.decisions.txt".to_string(), decisions),
        ],
        anchors: checks,
        trace_summary: out.trace_summary,
    }
}
