//! The elastic cell runner: one autoscaling experiment, end to end.
//!
//! A cell closes the loop the rest of the workspace leaves open:
//! `simload` fires an open-loop arrival schedule at an `azstore`
//! stamp whose serving capacity is a dial
//! ([`CapacityScale`]), and a control loop turns the dial by running
//! *real* `fabric` deployments — every instance bought pays the full
//! Table 1 lifecycle (≈10 minutes to first capacity on scale-out,
//! ≈183 s staggers for the rest, 2.6 % startup failures), every
//! instance held accrues instance-hours. The output is one point on
//! the SLO-violations-vs-cost frontier.
//!
//! ## Timeline
//!
//! ```text
//! t=0        create + boot the initial deployment (run_with_retry)
//! t≈1100     initial fleet Ready; supervisor ticks begin
//! t=setup_s  arrivals start; observation windows and billing open
//! t=setup_s+horizon_s   window closes; in-flight work drains
//! ```
//!
//! The arrival schedule is drawn from the dedicated `"load.arrivals"`
//! stream before any fabric randomness is consumed, so for a given
//! seed **every policy faces the byte-identical demand** — the
//! frontier compares controllers, not luck.
//!
//! ## Capacity model
//!
//! `r = ready / REF` where `REF` is the notional front-end fleet the
//! calibrated stamp constants correspond to (the Fig 2/3 saturation
//! throughputs attributed to per-instance rates μᵢ). Ready instances
//! serve; provisioning instances bill but do not serve — exactly the
//! 10-minute tax the paper's Table 1 measures.

use std::rc::Rc;

use azstore::{AdmissionConfig, CapacityScale, StampConfig, StorageAccountClient, StorageStamp};
use fabric::{DeploymentSpec, FabricConfig, FabricController, HostPoolConfig, RoleType, VmSize};
use simcore::prelude::*;
use simload::{
    fire_once, seed_workload, ArrivalProcess, OpenLoop, OpenLoopCell, SloTracker, Workload,
};
use simtrace::Layer;

use crate::actuator::Actuator;
use crate::harness::{Decision, Harness};
use crate::policy::{self, Scaler, Signals};

/// Notional reference front-end fleet behind the calibrated queue
/// constants: the simulated Fig 3 Add saturation (~585 ops/s) read as
/// 64 instances of μᵢ ≈ 9.14 ops/s each.
pub const QUEUE_REF_INSTANCES: f64 = 64.0;
/// Simulated queue Add saturation throughput at reference capacity.
pub const QUEUE_NOMINAL_OPS_S: f64 = 585.0;
/// Notional reference fleet behind the calibrated table constants:
/// the simulated Fig 2 Query saturation (~3900 ops/s) read as 400
/// instances of μᵢ = 9.75 ops/s each.
pub const TABLE_REF_INSTANCES: f64 = 400.0;
/// Simulated table Query saturation throughput at reference capacity.
pub const TABLE_NOMINAL_OPS_S: f64 = 3900.0;

/// Minimum seconds between scale-out orders.
pub const COOLDOWN_OUT_S: f64 = 60.0;
/// Minimum seconds between scale-ins (and after the last scale-out).
pub const COOLDOWN_IN_S: f64 = 60.0;
/// Holt level smoothing factor.
pub const HOLT_ALPHA: f64 = 0.4;
/// Holt trend smoothing factor.
pub const HOLT_BETA: f64 = 0.3;
/// Holt trend damping factor (forecast-horizon damping).
pub const HOLT_PHI: f64 = 1.0;
/// Multiplicative capacity headroom the predictive policy buys over
/// its forecast (ramp earliness; the planned-peak cap keeps it from
/// inflating top-of-cycle capacity).
pub const PREDICTIVE_HEADROOM: f64 = 1.05;
/// Utilization above which the hysteresis policy scales out.
pub const UTIL_UP: f64 = 0.85;
/// Utilization below which the hysteresis policy scales in.
pub const UTIL_DOWN: f64 = 0.50;
/// Utilization the hysteresis policy re-sizes to when acting.
pub const UTIL_TARGET: f64 = 0.80;

/// Which storage service the elastic fleet serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Service {
    /// Queue Add (latch-bound: capacity lives in replica-sync holds).
    Queue,
    /// Table point Query (station-bound: capacity lives in load terms).
    Table,
}

impl Service {
    /// Stable short name (CSV column values).
    pub fn name(self) -> &'static str {
        match self {
            Service::Queue => "queue",
            Service::Table => "table",
        }
    }

    /// Calibrated per-instance service rate μᵢ (ops/s).
    pub fn per_instance_ops_s(self) -> f64 {
        match self {
            Service::Queue => QUEUE_NOMINAL_OPS_S / QUEUE_REF_INSTANCES,
            Service::Table => TABLE_NOMINAL_OPS_S / TABLE_REF_INSTANCES,
        }
    }

    /// The notional reference fleet size `REF` (capacity dial is
    /// `ready / REF`).
    pub fn reference_instances(self) -> f64 {
        match self {
            Service::Queue => QUEUE_REF_INSTANCES,
            Service::Table => TABLE_REF_INSTANCES,
        }
    }

    /// Latency SLO for this service's op, seconds from the scheduled
    /// arrival instant.
    pub fn deadline_s(self) -> f64 {
        match self {
            Service::Queue => 2.0,
            Service::Table => 1.0,
        }
    }

    /// The workload fired per arrival.
    pub fn workload(self) -> Workload {
        match self {
            Service::Queue => Workload::QueueAdd {
                message_bytes: 512.0,
            },
            Service::Table => Workload::TableQuery {
                entities: 512,
                entity_kb: 1,
            },
        }
    }
}

/// Which controller drives the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Static provisioning for planned peak.
    Fixed,
    /// Reactive backlog threshold.
    QueueDepth,
    /// Reactive utilization target with hysteresis.
    UtilHysteresis,
    /// Holt forecast ordering a full scale-out lead ahead.
    PredictiveHolt,
}

impl PolicyKind {
    /// All four policies, frontier order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Fixed,
        PolicyKind::QueueDepth,
        PolicyKind::UtilHysteresis,
        PolicyKind::PredictiveHolt,
    ];

    /// Stable short name (CSV column values).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fixed => "fixed",
            PolicyKind::QueueDepth => "queue_depth",
            PolicyKind::UtilHysteresis => "util_hyst",
            PolicyKind::PredictiveHolt => "predictive",
        }
    }

    /// Initial fleet size: every policy boots the planned-peak
    /// provision an operator would deploy, so cells differ only in
    /// what the controller does *after* t=0 (elastic ones release the
    /// trough and re-buy ahead of the next peak).
    pub fn initial_instances(self, cfg: &ElasticConfig) -> usize {
        let _ = self;
        cfg.fixed_instances()
    }

    /// Instantiate the policy for this cell.
    fn build(self, cfg: &ElasticConfig, mu: f64, deadline_s: f64) -> Box<dyn Scaler> {
        match self {
            PolicyKind::Fixed => Box::new(policy::Fixed {
                instances: cfg.fixed_instances(),
            }),
            PolicyKind::QueueDepth => Box::new(policy::QueueDepth {
                // One SLO's worth of backlog per instance triggers
                // growth; an eighth of that releases capacity.
                high_per_instance: mu * deadline_s,
                low_per_instance: mu * deadline_s / 8.0,
            }),
            PolicyKind::UtilHysteresis => Box::new(policy::UtilHysteresis {
                up: UTIL_UP,
                down: UTIL_DOWN,
                target: UTIL_TARGET,
            }),
            PolicyKind::PredictiveHolt => Box::new(policy::PredictiveHolt::new(
                HOLT_ALPHA,
                HOLT_BETA,
                HOLT_PHI,
                PREDICTIVE_HEADROOM,
                // The same planning knowledge the fixed baseline uses.
                cfg.peak_units * mu,
                // Forecast one real scale-out lead (add boot + first
                // stagger) ahead, plus a control tick and one
                // observation window: the rate the forecaster acts on
                // is already up to a window old when it arrives.
                fabric::calib::scale_out_lead_s(RoleType::Worker, VmSize::Small)
                    .expect("small worker adds are calibrated")
                    + cfg.tick_s
                    + cfg.obs_window_s,
                cfg.obs_window_s,
            )),
        }
    }
}

/// One elastic cell: service × arrival pattern × policy.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// Which storage service the fleet serves.
    pub service: Service,
    /// Arrival process shaping the demand curve.
    pub pattern: ArrivalProcess,
    /// The controller under test.
    pub policy: PolicyKind,
    /// Mean demand, in per-instance capacity units (multiples of μᵢ).
    pub demand_units: f64,
    /// Planned peak demand in the same units (what [`PolicyKind::Fixed`]
    /// provisions for: `floor(peak_units)` instances).
    pub peak_units: f64,
    /// Setup budget before arrivals start (the initial deployment must
    /// boot inside it), seconds.
    pub setup_s: f64,
    /// Measurement horizon (arrivals, billing, observation), seconds.
    pub horizon_s: f64,
    /// Supervisor control tick, seconds.
    pub tick_s: f64,
    /// Arrival-rate observation window, seconds.
    pub obs_window_s: f64,
    /// Lower bound on committed instances.
    pub min_instances: usize,
    /// Upper bound on committed instances (≤ the 20-core quota).
    pub max_instances: usize,
    /// Client VMs the arrivals round-robin over.
    pub fleet: usize,
    /// Physical hosts behind the elastic fleet (small pools make
    /// simfault host-crash episodes bite).
    pub hosts: usize,
}

impl ElasticConfig {
    /// What the fixed baseline provisions: `floor(peak_units)` — the
    /// honest capacity-planning answer that is still fractionally
    /// under true peak, exactly the regime the paper's 10-minute
    /// scale-out tax makes dangerous.
    pub fn fixed_instances(&self) -> usize {
        (self.peak_units.floor() as usize).clamp(self.min_instances, self.max_instances)
    }

    /// What adaptive policies boot with: mean demand, rounded up.
    pub fn mean_instances(&self) -> usize {
        (self.demand_units.ceil() as usize).clamp(self.min_instances, self.max_instances)
    }
}

/// Everything one elastic cell reports.
#[derive(Debug, Clone)]
pub struct ElasticResult {
    /// Policy short name.
    pub policy: &'static str,
    /// SLO accounting over every scheduled arrival (mergeable).
    pub slo: SloTracker,
    /// Committed instance-hours accrued inside the measurement window
    /// (Ready and provisioning both bill — you pay from the order).
    pub instance_hours: f64,
    /// Fleet size the cell booted with.
    pub initial_instances: usize,
    /// Largest committed fleet observed.
    pub max_committed: usize,
    /// Scale-out orders issued.
    pub scale_outs: u64,
    /// Scale-in operations issued.
    pub scale_ins: u64,
    /// Add batches lost to startup failures / quota.
    pub adds_failed: u64,
    /// Instances reaped off crashed hosts.
    pub reaped: u64,
    /// Mean order-to-first-ready lead over add batches, seconds.
    pub first_ready_lead_s: Option<f64>,
    /// Mean within-batch readiness stagger, seconds.
    pub add_stagger_mean_s: Option<f64>,
    /// Number of within-batch staggers observed.
    pub stagger_count: usize,
    /// Initial boot's observed stagger spread over its Table 1
    /// expectation (≈1.0 when the lifecycle is calibrated).
    pub initial_ramp_ratio: f64,
    /// When the initial fleet was fully Ready (sim seconds).
    pub initial_ready_s: f64,
    /// Front-door sheds over the whole run.
    pub admit_shed: u64,
    /// The harness's rendered decision log (byte-reproducible).
    pub decision_log: String,
    /// The actuator's scale-event log.
    pub events: String,
}

impl ElasticResult {
    /// Scheduled arrivals that missed the SLO (failed, late, or never
    /// completed).
    pub fn violations(&self) -> u64 {
        self.slo.scheduled - self.slo.good().min(self.slo.scheduled)
    }
}

/// What the supervisor task hands back when the window closes.
struct SupervisorOut {
    act: Rc<Actuator>,
    decision_log: String,
    instance_hours: f64,
    max_committed: usize,
    initial_ramp_ratio: f64,
    initial_ready_s: f64,
}

/// Run one elastic cell to completion on `sim` (drives `sim.run()`).
pub fn run_elastic(sim: &Sim, cfg: &ElasticConfig) -> ElasticResult {
    assert!(cfg.fleet > 0 && cfg.hosts > 0);
    assert!(cfg.horizon_s > 0.0 && cfg.setup_s > 0.0 && cfg.tick_s > 0.0);
    let mu = cfg.service.per_instance_ops_s();
    let deadline_s = cfg.service.deadline_s();
    let rate = cfg.demand_units * mu;
    let peak_rate = cfg.peak_units * mu;

    // The stamp's capacity dial starts at "nothing serving": until the
    // first instances are Ready the service has no front-ends. The
    // admission bound is one planned-peak SLO's worth of backlog —
    // work beyond that would violate anyway, so it sheds fast instead
    // of rotting in the queues.
    let capacity = CapacityScale::unit();
    capacity.set(1e-3);
    let admit_limit = ((peak_rate * deadline_s).ceil() as usize).max(64);
    let stamp = StorageStamp::standalone(
        sim,
        StampConfig {
            admission: AdmissionConfig::QueueBound { limit: admit_limit },
            capacity: capacity.clone(),
            ..StampConfig::default()
        },
    );
    let workload = cfg.service.workload();
    seed_workload(&stamp, workload);
    let clients: Vec<Rc<StorageAccountClient>> = stamp
        .attach_small_fleet(cfg.fleet)
        .into_iter()
        .map(Rc::new)
        .collect();

    // Demand first: the schedule must not depend on anything the
    // policy does, so it is drawn before any fabric randomness. The
    // window opens when the arrivals start, so every one is recorded.
    let cell = OpenLoopCell {
        stream: "load.arrivals",
        process: &cfg.pattern,
        rate_ops_s: rate,
        offset_s: cfg.setup_s,
        warmup_s: cfg.setup_s,
        window_s: cfg.horizon_s,
        deadline_s,
        layer: Layer::Load,
        kind: "load.op",
    };
    let instants = cell.draw(sim);
    let windows =
        simload::WindowedArrivals::new(&instants, cfg.setup_s, cfg.obs_window_s, cfg.horizon_s);

    // Sheds fail the op outright (no client retries): an elastic
    // controller is expected to buy capacity, not paper over the
    // shortfall with retry storms.
    let run = OpenLoop::start(sim, &cell, instants, move |a| {
        let client = Rc::clone(&clients[a.index % clients.len()]);
        let op = move || fire_once(client, workload, a, deadline_s);
        (move || format!("load:{}", workload.name()), op)
    });

    let fc = FabricController::new(
        sim,
        FabricConfig {
            hosts: HostPoolConfig {
                hosts: cfg.hosts,
                ..HostPoolConfig::default()
            },
            ..FabricConfig::default()
        },
    );

    let initial = cfg.policy.initial_instances(cfg);
    let mut harness = Harness::new(
        cfg.policy.build(cfg, mu, deadline_s),
        cfg.min_instances,
        cfg.max_instances,
        COOLDOWN_OUT_S,
        COOLDOWN_IN_S,
    );

    let s = sim.clone();
    let observer_sup = run.observer();
    let cfg_sup = cfg.clone();
    let sup = sim.spawn(async move {
        let cfg = cfg_sup;
        let dep = fc
            .create_deployment(DeploymentSpec {
                role: RoleType::Worker,
                size: VmSize::Small,
                instances: initial,
                package_mb: fabric::calib::REFERENCE_PACKAGE_MB,
            })
            .await
            .expect("initial fleet within quota");
        // Startup failures (2.6 %) retry the whole boot 30 s later —
        // the paper's own "developer must retry" remedy.
        let boot = dep
            .run_with_retry(&simfault::RetryPolicy::fixed(30.0, simfault::FOREVER))
            .await
            .expect("retried boot eventually succeeds");
        let offs = &boot.instance_ready_offsets;
        let initial_ramp_ratio = if offs.len() >= 2 {
            (offs[offs.len() - 1].as_secs_f64() - offs[0].as_secs_f64())
                / ((offs.len() - 1) as f64 * fabric::calib::RUN_STAGGER_MEAN_S)
        } else {
            1.0
        };
        let initial_ready_s = s.now().as_secs_f64();
        let ref_n = cfg.service.reference_instances();
        let act = Actuator::new(&s, dep);
        capacity.set(act.deployment().ready_count() as f64 / ref_n);

        let end_s = cfg.setup_s + cfg.horizon_s;
        let mut consumed = 0usize;
        let mut last_shed = 0u64;
        let mut hours = 0.0;
        let mut max_committed = act.deployment().instance_count();
        loop {
            let seg_start = s.now().as_secs_f64();
            if seg_start >= end_s {
                break;
            }
            let billed = act.deployment().instance_count();
            s.delay(SimDuration::from_secs_f64(cfg.tick_s)).await;
            let now = s.now().as_secs_f64();
            let (a, b) = (seg_start.max(cfg.setup_s), now.min(end_s));
            if b > a {
                hours += billed as f64 * (b - a) / 3600.0;
            }

            act.reap();
            let ready = act.deployment().ready_count();
            capacity.set(ready as f64 / ref_n);
            let committed = act.deployment().instance_count();
            max_committed = max_committed.max(committed);

            let done = windows.completed_windows(now);
            let new_rates: Vec<f64> = (consumed..done).map(|k| windows.rate(k)).collect();
            consumed = done;
            let shed_total = observer_sup.shed.get();
            let shed_delta = shed_total - last_shed;
            last_shed = shed_total;

            if done > 0 && now < end_s {
                let sig = Signals {
                    now_s: now,
                    rate_ops_s: windows.rate(done - 1),
                    new_rates,
                    in_flight: observer_sup.in_flight(),
                    shed_delta,
                    ready,
                    committed,
                    per_instance_ops_s: mu,
                };
                match harness.decide(&sig) {
                    Decision::ScaleOut(n) => act.scale_out(n),
                    Decision::ScaleIn(n) => {
                        act.scale_in(n);
                    }
                    Decision::Hold => {}
                }
            }
        }
        SupervisorOut {
            act,
            decision_log: harness.into_log(),
            instance_hours: hours,
            max_committed,
            initial_ramp_ratio,
            initial_ready_s,
        }
    });

    sim.run();

    let out = sup.try_take().expect("supervisor ran to completion");
    let slo = run.finish().slo;
    let (_, admit_shed) = stamp.admission_stats();
    ElasticResult {
        policy: cfg.policy.name(),
        slo,
        instance_hours: out.instance_hours,
        initial_instances: initial,
        max_committed: out.max_committed,
        scale_outs: out.act.scale_outs.get(),
        scale_ins: out.act.scale_ins.get(),
        adds_failed: out.act.adds_failed.get(),
        reaped: out.act.reaped.get(),
        first_ready_lead_s: out.act.first_ready_lead_s(),
        add_stagger_mean_s: out.act.add_stagger_mean_s(),
        stagger_count: out.act.stagger_count(),
        initial_ramp_ratio: out.initial_ramp_ratio,
        initial_ready_s: out.initial_ready_s,
        admit_shed,
        decision_log: out.decision_log,
        events: out.act.events(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(policy: PolicyKind, seed: u64) -> ElasticResult {
        let sim = Sim::new(seed);
        run_elastic(
            &sim,
            &ElasticConfig {
                service: Service::Queue,
                pattern: ArrivalProcess::Diurnal {
                    period_s: 900.0,
                    amplitude: 0.8,
                    phase: 0.0,
                },
                policy,
                demand_units: 2.0,
                peak_units: 3.6,
                setup_s: 1500.0,
                horizon_s: 900.0,
                tick_s: 10.0,
                obs_window_s: 60.0,
                min_instances: 1,
                max_instances: 16,
                fleet: 8,
                hosts: 8,
            },
        )
    }

    #[test]
    fn cell_runs_and_accounts() {
        let r = tiny(PolicyKind::PredictiveHolt, 5);
        assert!(r.slo.scheduled > 5_000, "scheduled {}", r.slo.scheduled);
        assert_eq!(
            r.slo.scheduled,
            r.slo.completed + r.slo.failed,
            "every arrival resolves"
        );
        assert!(r.instance_hours > 0.1, "hours {}", r.instance_hours);
        assert!(!r.decision_log.is_empty());
        assert!(r.initial_ready_s < 1500.0, "boot {}", r.initial_ready_s);
    }

    #[test]
    fn same_seed_reproduces_the_decision_log_byte_for_byte() {
        let (a, b) = (
            tiny(PolicyKind::QueueDepth, 9),
            tiny(PolicyKind::QueueDepth, 9),
        );
        assert_eq!(a.decision_log, b.decision_log);
        assert_eq!(a.events, b.events);
        assert_eq!(a.instance_hours.to_bits(), b.instance_hours.to_bits());
        assert_eq!(a.slo.latency.hist, b.slo.latency.hist);
    }

    #[test]
    fn fixed_baseline_holds_its_provision() {
        let r = tiny(PolicyKind::Fixed, 5);
        assert_eq!(r.initial_instances, 3); // floor(3.6)
        assert_eq!(r.scale_ins, 0);
        // Fixed only re-buys after failures; clean cell → no orders.
        assert_eq!(r.scale_outs, 0);
        let expected = 3.0 * 900.0 / 3600.0;
        assert!(
            (r.instance_hours - expected).abs() < 0.02,
            "hours {} vs {expected}",
            r.instance_hours
        );
    }
}
