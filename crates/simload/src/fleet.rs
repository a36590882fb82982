//! Open-loop client fleets.
//!
//! A closed-loop benchmark (the Fig 1–3 protocols in `cloudbench`)
//! issues the next request only after the previous one returns, so
//! under overload the *offered* rate politely backs off and the
//! measured latency hides the queueing a real workload would see. The
//! open-loop fleet instead fires each operation at its *scheduled*
//! arrival instant — drawn by the
//! [`ArrivalProcess`](crate::ArrivalProcess) and injected by the
//! [`OpenLoop`] harness — and charges latency from that scheduled
//! instant. An op that waits
//! behind a saturated service pays its full queueing delay, which is
//! what makes the offered-load frontier honest past the knee.
//!
//! Arrivals are dispatched round-robin to a fleet of small-instance
//! VMs (`clients[i % fleet]`), so no single VM's 13 MB/s storage
//! throttle caps the offered aggregate.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use azstore::{Entity, StampConfig, StorageAccountClient, StorageError, StorageStamp};
use simcore::prelude::*;
use simfault::{Backoff, GiveUp, Jitter, RetryBudget, RetryPolicy};
use simtrace::Layer;

use crate::arrival::ArrivalProcess;
use crate::harness::{OpenLoop, OpenLoopCell};
use crate::inject::Arrival;
use crate::slo::{FailClass, SloTracker};

/// Number of table partitions the seeded benchmark entities spread
/// across (matches the Fig 2 protocol's multi-partition layout).
const TABLE_PARTITIONS: usize = 16;

/// The operation an open-loop fleet fires per arrival.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// Download one pre-seeded blob (the Fig 1 DL op).
    BlobGet {
        /// Blob size in bytes.
        blob_bytes: f64,
    },
    /// Point query against pre-seeded entities (the Fig 2 Query op).
    TableQuery {
        /// Seeded entity population (arrival `i` reads entity `i % entities`).
        entities: usize,
        /// Entity payload size in kB.
        entity_kb: usize,
    },
    /// Enqueue a message (the Fig 3 Add op).
    QueueAdd {
        /// Message size in bytes.
        message_bytes: f64,
    },
}

impl Workload {
    /// Short name (used in the frontier CSV and trace spans).
    pub fn name(&self) -> &'static str {
        match self {
            Workload::BlobGet { .. } => "blob_get",
            Workload::TableQuery { .. } => "table_query",
            Workload::QueueAdd { .. } => "queue_add",
        }
    }

    /// Payload bytes moved per successful op (for MB/s conversions).
    pub fn bytes_per_op(&self) -> f64 {
        match self {
            Workload::BlobGet { blob_bytes } => *blob_bytes,
            Workload::TableQuery { entity_kb, .. } => *entity_kb as f64 * 1e3,
            Workload::QueueAdd { message_bytes } => *message_bytes,
        }
    }
}

/// Client-side handling of shed (`ServerBusy`) responses: exponential
/// backoff with centred jitter, bounded per call by `retries` and
/// across calls by a per-client-VM [`RetryBudget`] — the brake that
/// keeps a shedding front door from being answered with a retry storm.
#[derive(Debug, Clone, Copy)]
pub struct ShedRetry {
    /// Backoff schedule between attempts.
    pub backoff: Backoff,
    /// Maximum retries per operation.
    pub retries: u32,
    /// Per-client retry-credit cap (bucket starts full).
    pub budget_max: f64,
    /// Credits earned back per successful operation.
    pub budget_earn: f64,
}

impl ShedRetry {
    /// Defaults scaled to the workload's SLO: back off at an eighth of
    /// the deadline doubling to half of it, three retries per op, a
    /// 10-credit client budget earning 0.1 per success.
    pub fn for_deadline(deadline_s: f64) -> Self {
        ShedRetry {
            backoff: Backoff::Exponential {
                base_s: deadline_s / 8.0,
                factor: 2.0,
                max_s: deadline_s / 2.0,
            },
            retries: 3,
            budget_max: 10.0,
            budget_earn: 0.1,
        }
    }
}

/// One open-loop measurement cell.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// The operation fired per arrival.
    pub workload: Workload,
    /// Arrival process shaping the schedule.
    pub process: ArrivalProcess,
    /// Target mean offered rate, operations per second.
    pub offered_ops_s: f64,
    /// Warmup before the measurement window; arrivals scheduled earlier
    /// run but are excluded from the statistics.
    pub warmup_s: f64,
    /// Measurement window length, seconds.
    pub window_s: f64,
    /// Number of small-instance client VMs arrivals round-robin over.
    pub fleet: usize,
    /// Latency SLO, seconds from the scheduled instant.
    pub deadline_s: f64,
    /// Retry shed responses (`None`: a shed fails the op outright).
    pub shed_retry: Option<ShedRetry>,
}

/// Result of one open-loop cell.
#[derive(Debug, Clone)]
pub struct LoadCellResult {
    /// Target offered rate (ops/s).
    pub offered_ops_s: f64,
    /// Offered rate actually scheduled in the window (ops/s) — differs
    /// from the target only by arrival-process granularity.
    pub scheduled_ops_s: f64,
    /// Achieved throughput (ops/s); see
    /// [`OpenLoopResult::achieved_ops_s`](crate::OpenLoopResult).
    pub achieved_ops_s: f64,
    /// In-window completions that also met the deadline (ops/s).
    pub goodput_ops_s: f64,
    /// SLO accounting over the cohort of arrivals *scheduled* inside
    /// the window.
    pub slo: SloTracker,
    /// Client retries of shed responses over the whole run (warmup
    /// included); 0 without [`LoadConfig::shed_retry`].
    pub retries: u64,
    /// Front-door admissions over the whole run (stamp-wide); 0 when
    /// admission is off.
    pub admit_accepted: u64,
    /// Front-door sheds over the whole run (stamp-wide).
    pub admit_shed: u64,
    /// Station-level `ContendedLatch` sheds over the whole run.
    pub latch_shed: u64,
}

/// Run one open-loop cell to completion on `sim` (drives `sim.run()`).
///
/// Builds a standalone stamp, seeds the workload's data, attaches the
/// fleet, and runs the cell through the [`OpenLoop`] harness with the
/// schedule drawn from the dedicated `"load.arrivals"` stream. Every
/// latency is measured from the scheduled instant (no coordinated
/// omission); arrivals scheduled during warmup execute but are not
/// recorded.
pub fn run_open_loop(sim: &Sim, stamp_cfg: StampConfig, cfg: &LoadConfig) -> LoadCellResult {
    assert!(cfg.fleet > 0, "fleet must be non-empty");
    let stamp = StorageStamp::standalone(sim, stamp_cfg);
    seed_workload(&stamp, cfg.workload);

    let clients: Vec<Rc<StorageAccountClient>> = stamp
        .attach_small_fleet(cfg.fleet)
        .into_iter()
        .map(Rc::new)
        .collect();

    let cell = OpenLoopCell {
        stream: "load.arrivals",
        process: &cfg.process,
        rate_ops_s: cfg.offered_ops_s,
        offset_s: 0.0,
        warmup_s: cfg.warmup_s,
        window_s: cfg.window_s,
        deadline_s: cfg.deadline_s,
        layer: Layer::Load,
        kind: "load.op",
    };
    // Per-client-VM retry budgets (shared across that VM's arrivals).
    let budgets: Option<Vec<Rc<RetryBudget>>> = cfg.shed_retry.map(|sr| {
        (0..clients.len())
            .map(|_| Rc::new(RetryBudget::new(sr.budget_max, sr.budget_earn)))
            .collect()
    });
    let retries_total = Rc::new(Cell::new(0u64));
    let (shed_retry, workload, deadline_s) = (cfg.shed_retry, cfg.workload, cfg.deadline_s);
    let s = sim.clone();
    let rt = Rc::clone(&retries_total);
    let run = OpenLoop::start(sim, &cell, cell.draw(sim), move |a| {
        let i = a.index;
        let s = s.clone();
        let client = Rc::clone(&clients[i % clients.len()]);
        let retries_total = Rc::clone(&rt);
        let budget = budgets.as_ref().map(|b| Rc::clone(&b[i % clients.len()]));
        let op = move || async move {
            let Some((sr, budget)) = shed_retry.zip(budget) else {
                return fire_once(client, workload, a, deadline_s).await;
            };
            // The absolute SLO deadline, declared to the front door
            // before every attempt: a retry that arrives with most of
            // its budget already burned is exactly the request a
            // deadline-aware policy should shed first.
            let deadline_abs_s = a.at_s + deadline_s;
            let rng = RefCell::new(s.rng(&format!("load.retry.{i}")));
            let policy = RetryPolicy {
                backoff: sr.backoff,
                retries: sr.retries,
                attempt_timeout: None,
                jitter: Jitter::Centered,
                retry_counter: Some("load.shed_retries"),
            };
            let attempts = Cell::new(0u64);
            let res = policy
                .run_budgeted(
                    &s,
                    Some(&rng),
                    &budget,
                    || None::<StorageError>,
                    |_| {
                        attempts.set(attempts.get() + 1);
                        azstore::admit::stash_deadline(deadline_abs_s);
                        fire(Rc::clone(&client), workload, i)
                    },
                    |e| *e == StorageError::ServerBusy,
                    || StorageError::Timeout,
                )
                .await;
            retries_total.set(retries_total.get() + attempts.get().saturating_sub(1));
            res.map_err(|(e, giveup)| classify(&e, giveup))
        };
        (move || format!("load:{}", workload.name()), op)
    });
    sim.run();

    let m = run.finish();
    let (admit_accepted, admit_shed) = stamp.admission_stats();
    LoadCellResult {
        offered_ops_s: m.offered_ops_s,
        scheduled_ops_s: m.scheduled_ops_s,
        achieved_ops_s: m.achieved_ops_s,
        goodput_ops_s: m.goodput_ops_s,
        slo: m.slo,
        retries: retries_total.get(),
        admit_accepted,
        admit_shed,
        latch_shed: stamp.latch_shed_total(),
    }
}

/// Seed the data a workload's ops read (writes need no seeding).
pub fn seed_workload(stamp: &Rc<StorageStamp>, workload: Workload) {
    match workload {
        Workload::BlobGet { blob_bytes } => {
            stamp.blob_service().seed("load", "blob", blob_bytes);
        }
        Workload::TableQuery {
            entities,
            entity_kb,
        } => {
            assert!(entities > 0, "table workload needs seeded entities");
            for j in 0..entities {
                let pk = format!("p{}", j % TABLE_PARTITIONS);
                let rk = format!("r{j}");
                stamp
                    .table_service()
                    .seed("load", Entity::benchmark(&pk, &rk, entity_kb));
            }
        }
        Workload::QueueAdd { .. } => {}
    }
}

/// Live progress counters for an open-loop run, kept by the
/// [`OpenLoop`] harness and shared with whoever is watching the fleet
/// (the elastic supervisor reads queue depth as `dispatched -
/// completed` and shed deltas between control ticks).
#[derive(Debug, Default)]
pub struct LoadObserver {
    /// Arrivals whose scheduled instant has passed (op issued).
    pub dispatched: Cell<u64>,
    /// Ops finished, successfully or not.
    pub completed: Cell<u64>,
    /// Ops finished successfully within the deadline.
    pub good: Cell<u64>,
    /// Ops failed with a shed (`ServerBusy`) response.
    pub shed: Cell<u64>,
}

impl LoadObserver {
    /// Ops issued but not yet finished — the fleet's backlog.
    pub fn in_flight(&self) -> u64 {
        self.dispatched.get() - self.completed.get()
    }
}

/// Fire one workload op; discard the payload-specific success value.
pub async fn fire(
    client: Rc<StorageAccountClient>,
    workload: Workload,
    i: usize,
) -> Result<(), StorageError> {
    match workload {
        Workload::BlobGet { .. } => client.blob.get("load", "blob").await.map(|_| ()),
        Workload::TableQuery { entities, .. } => {
            let j = i % entities;
            let pk = format!("p{}", j % TABLE_PARTITIONS);
            let rk = format!("r{j}");
            client.table.query_point("load", &pk, &rk).await.map(|_| ())
        }
        Workload::QueueAdd { message_bytes } => client
            .queue
            .add("load", format!("m{i}"), message_bytes)
            .await
            .map(|_| ()),
    }
}

/// Fire arrival `a`'s op once, with no client retries, declaring its
/// absolute SLO deadline to the front door first.
pub async fn fire_once(
    client: Rc<StorageAccountClient>,
    workload: Workload,
    a: Arrival,
    deadline_s: f64,
) -> Result<(), FailClass> {
    azstore::admit::stash_deadline(a.at_s + deadline_s);
    fire(client, workload, a.index)
        .await
        .map_err(|e| classify(&e, GiveUp::NotRetryable))
}

/// Map a final error + give-up reason to its SLO failure class. Callers
/// without client retries pass [`GiveUp::NotRetryable`].
pub fn classify(e: &StorageError, giveup: GiveUp) -> FailClass {
    match (e, giveup) {
        (StorageError::ServerBusy, GiveUp::BudgetExhausted) => FailClass::BudgetExhausted,
        (StorageError::ServerBusy, _) => FailClass::Shed,
        (StorageError::Timeout, _) => FailClass::Timeout,
        _ => FailClass::Other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(seed: u64, offered: f64) -> LoadCellResult {
        let sim = Sim::new(seed);
        run_open_loop(
            &sim,
            StampConfig::default(),
            &LoadConfig {
                workload: Workload::QueueAdd {
                    message_bytes: 512.0,
                },
                process: ArrivalProcess::Poisson,
                offered_ops_s: offered,
                warmup_s: 2.0,
                window_s: 10.0,
                fleet: 8,
                deadline_s: 0.5,
                shed_retry: None,
            },
        )
    }

    #[test]
    fn below_knee_achieved_tracks_offered() {
        let r = cell(7, 50.0);
        assert!(r.slo.scheduled > 300, "scheduled {}", r.slo.scheduled);
        assert_eq!(r.slo.failed, 0);
        assert!(
            (r.achieved_ops_s - r.scheduled_ops_s).abs() / r.scheduled_ops_s < 0.02,
            "achieved {} vs scheduled {}",
            r.achieved_ops_s,
            r.scheduled_ops_s
        );
        assert!(r.slo.violation_fraction() < 0.05);
        assert!(r.goodput_ops_s <= r.achieved_ops_s);
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let (a, b) = (cell(11, 80.0), cell(11, 80.0));
        assert_eq!(a.slo.completed, b.slo.completed);
        assert_eq!(a.slo.latency.hist, b.slo.latency.hist);
        assert_eq!(a.achieved_ops_s.to_bits(), b.achieved_ops_s.to_bits());
        assert_eq!(
            a.slo.latency.mean().to_bits(),
            b.slo.latency.mean().to_bits()
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let (a, b) = (cell(1, 80.0), cell(2, 80.0));
        assert_ne!(
            a.slo.latency.mean().to_bits(),
            b.slo.latency.mean().to_bits()
        );
    }

    #[test]
    fn blob_and_table_workloads_run() {
        let sim = Sim::new(3);
        let r = run_open_loop(
            &sim,
            StampConfig::default(),
            &LoadConfig {
                workload: Workload::BlobGet { blob_bytes: 4e6 },
                process: ArrivalProcess::ConstantRate,
                offered_ops_s: 4.0,
                warmup_s: 1.0,
                window_s: 5.0,
                fleet: 4,
                deadline_s: 5.0,
                shed_retry: None,
            },
        );
        assert!(r.slo.completed > 0);
        assert!(r.slo.latency.mean() > 0.0);

        let sim = Sim::new(4);
        let r = run_open_loop(
            &sim,
            StampConfig::default(),
            &LoadConfig {
                workload: Workload::TableQuery {
                    entities: 64,
                    entity_kb: 4,
                },
                process: ArrivalProcess::Poisson,
                offered_ops_s: 40.0,
                warmup_s: 1.0,
                window_s: 5.0,
                fleet: 8,
                deadline_s: 1.0,
                shed_retry: None,
            },
        );
        assert_eq!(r.slo.failed, 0);
        assert!(r.slo.completed > 100);
    }
}
