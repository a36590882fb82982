//! The open-loop runners' event schedules, pinned.
//!
//! Every open-loop runner (`simload::run_open_loop`, the elastic
//! fleet, the geo and consistency cells) fires its operations at
//! arrival instants drawn up front. How those arrivals are injected
//! into the kernel is an implementation detail that must not move a
//! single event: each cell below must reproduce a committed
//! `(trace fingerprint, events fired)` golden, and its spawn count must
//! be the golden's plus exactly one per arrival injector.
//!
//! Regenerate with `cargo test --release --test arrival_schedule --
//! --nocapture` after an intentional schedule change, and say why in
//! the commit message.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use autoscale::{run_elastic, ElasticConfig, PolicyKind, Service};
use azgeo::{run_geo, GeoConfig};
use azroute::{run_consistency, Consistency, ReaderPlacement, RouteConfig};
use azstore::{AdmissionConfig, StampConfig};
use simcore::prelude::*;
use simcore::KernelEvent;
use simload::{run_open_loop, ArrivalProcess, LoadConfig, ShedRetry, Workload};

/// What one cell's kernel did: the schedule digest and the work counts.
#[derive(Debug, PartialEq, Eq)]
struct Schedule {
    fingerprint: u64,
    events: u64,
    spawns: u64,
}

fn schedule(sim: &Sim) -> Schedule {
    assert_eq!(sim.live_tasks(), 0, "every task finished");
    Schedule {
        fingerprint: sim.trace_fingerprint(),
        events: sim.events_fired(),
        spawns: sim.tasks_spawned(),
    }
}

/// Check `got` against a golden recorded before arrivals were injected
/// lazily: same fingerprint and event count, and `injectors` more spawns
/// (one per arrival stream).
fn assert_golden(name: &str, got: Schedule, golden: (u64, u64, u64), injectors: u64) {
    println!("{name}: {got:?}");
    let (fingerprint, events, spawns) = golden;
    assert_eq!(
        got,
        Schedule {
            fingerprint,
            events,
            spawns: spawns + injectors,
        },
        "{name}: event schedule changed"
    );
}

fn open_loop(seed: u64, process: ArrivalProcess, shed_retry: bool) -> Schedule {
    let sim = Sim::new(seed);
    let r = run_open_loop(
        &sim,
        StampConfig {
            admission: AdmissionConfig::QueueBound { limit: 8 },
            ..StampConfig::default()
        },
        &LoadConfig {
            workload: Workload::QueueAdd {
                message_bytes: 512.0,
            },
            process,
            offered_ops_s: 300.0,
            warmup_s: 1.0,
            window_s: 4.0,
            fleet: 8,
            deadline_s: 0.5,
            shed_retry: shed_retry.then(|| ShedRetry::for_deadline(0.5)),
        },
    );
    assert_eq!(r.slo.scheduled, r.slo.completed + r.slo.failed);
    if shed_retry {
        assert!(r.retries > 0, "the shed-retry path ran");
    }
    schedule(&sim)
}

#[test]
fn open_loop_with_shed_retry_schedule_is_pinned() {
    let got = open_loop(0x5EED, ArrivalProcess::Poisson, true);
    assert_golden(
        "open_loop shed_retry",
        got,
        (16259733076517900909, 2908, 1505),
        1,
    );
}

/// Replayed instants at 0.0 are due at the moment the runner starts,
/// and repeated instants tie to the nanosecond: both must keep the
/// order they had when every arrival was its own task.
#[test]
fn replay_with_due_and_tied_instants_schedule_is_pinned() {
    let trace = vec![
        0.0, 0.0, 0.25, 0.25, 0.25, 0.5, 1.0, 1.0, 2.0, 2.5, 2.5, 4.75,
    ];
    let got = open_loop(0x5EED, ArrivalProcess::Replay(trace), false);
    assert_golden("open_loop replay", got, (13278556721807877902, 34, 12), 1);
}

#[test]
fn elastic_schedule_is_pinned() {
    let sim = Sim::new(0xE1A5);
    let r = run_elastic(
        &sim,
        &ElasticConfig {
            service: Service::Queue,
            pattern: ArrivalProcess::Diurnal {
                period_s: 600.0,
                amplitude: 0.8,
                phase: 0.0,
            },
            policy: PolicyKind::QueueDepth,
            demand_units: 2.0,
            peak_units: 3.6,
            setup_s: 1500.0,
            horizon_s: 600.0,
            tick_s: 10.0,
            obs_window_s: 60.0,
            min_instances: 1,
            max_instances: 16,
            fleet: 8,
            hosts: 8,
        },
    );
    assert!(r.slo.scheduled > 1_000, "scheduled {}", r.slo.scheduled);
    assert_golden(
        "elastic",
        schedule(&sim),
        (10383458109453851232, 32573, 10916),
        1,
    );
}

#[test]
fn geo_schedule_is_pinned() {
    let sim = Sim::new(0x6E0);
    let r = run_geo(
        &sim,
        StampConfig::default(),
        &GeoConfig {
            stamps: 2,
            accounts: 8,
            workload: Workload::QueueAdd {
                message_bytes: 512.0,
            },
            process: ArrivalProcess::Poisson,
            offered_ops_s: 100.0,
            warmup_s: 1.0,
            window_s: 10.0,
            fleet: 16,
            deadline_s: 0.5,
            skew_alpha: Some(2.0),
            rebalance: true,
            placement_seed: 0x6E0,
        },
    );
    assert!(r.ship_entries > 0, "queue adds replicated");
    assert_golden("geo", schedule(&sim), (9451634085212067184, 4122, 1174), 1);
}

#[test]
fn consistency_with_writes_schedule_is_pinned() {
    let sim = Sim::new(0xC0);
    let r = run_consistency(
        &sim,
        StampConfig::default(),
        &RouteConfig {
            stamps: 4,
            accounts: 16,
            workload: Workload::TableQuery {
                entities: 64,
                entity_kb: 4,
            },
            process: ArrivalProcess::Poisson,
            offered_ops_s: 100.0,
            warmup_s: 1.0,
            window_s: 4.0,
            fleet: 16,
            deadline_s: 0.5,
            mode: Consistency::Session,
            placement: ReaderPlacement::Remote,
            placement_seed: 0xA2,
            rtt_seed: 0xC3,
            rtt_base_s: 0.035,
            rtt_spread: 0.5,
            write_ops_s: 16.0,
            fault_start_s: None,
        },
    );
    assert!(r.writes_ok > 0, "the background writers ran");
    // Two arrival streams: reads and background writes.
    assert_golden(
        "consistency",
        schedule(&sim),
        (10230855407282070821, 2185, 607),
        2,
    );
}

/// Two arrivals tied to the nanosecond, between timers scheduled for
/// the same instant before the injector, before its first poll, and
/// after it: the order is the one a task per arrival, each sleeping
/// until its instant, produces.
#[test]
fn tied_arrivals_keep_their_place_among_timers() {
    let at_s = 0.75;
    let at = SimTime::ZERO + SimDuration::from_secs_f64(at_s);
    let run = |lazy: bool| {
        let sim = Sim::new(3);
        let log: Rc<RefCell<Vec<String>>> = Rc::default();
        let note = |log: &Rc<RefCell<Vec<String>>>, what: String| {
            let log = Rc::clone(log);
            move |_: &Sim| log.borrow_mut().push(what)
        };
        sim.schedule_at(at, note(&log, "timer before".into()));
        if lazy {
            let l = Rc::clone(&log);
            simload::inject(&sim, vec![at_s, at_s], move |a| {
                let l = Rc::clone(&l);
                async move { l.borrow_mut().push(format!("arrival {}", a.index)) }
            });
        } else {
            for i in 0..2 {
                let (s, l) = (sim.clone(), Rc::clone(&log));
                sim.spawn(async move {
                    s.sleep_until(at).await;
                    l.borrow_mut().push(format!("arrival {i}"));
                });
            }
        }
        sim.schedule_at(at, note(&log, "timer after".into()));
        let (s, cb) = (sim.clone(), note(&log, "timer from a task".into()));
        sim.spawn(async move {
            s.schedule_at(at, cb);
        });
        sim.run();
        let order = log.borrow().clone();
        (order, sim.trace_fingerprint(), sim.events_fired())
    };
    let (order, fingerprint, events) = run(true);
    assert_eq!(
        order,
        [
            "timer before",
            "timer after",
            "arrival 0",
            "arrival 1",
            "timer from a task"
        ]
    );
    assert_eq!((order, fingerprint, events), run(false));
}

/// Live tasks stay bounded by the work in flight, not by the length of
/// the schedule: a 20 000-arrival cell below the knee never holds more
/// than a few dozen tasks, and spawns exactly one task per arrival plus
/// the injector (a standalone stamp runs no background tasks).
#[test]
fn live_tasks_are_bounded_by_in_flight_work() {
    let sim = Sim::new(0xB0);
    let peak = Rc::new(Cell::new(0usize));
    let p = Rc::clone(&peak);
    sim.add_kernel_hook(Rc::new(move |sim: &Sim, ev| {
        if ev == KernelEvent::WakeFired {
            p.set(p.get().max(sim.live_tasks()));
        }
    }));
    let r = run_open_loop(
        &sim,
        StampConfig::default(),
        &LoadConfig {
            workload: Workload::QueueAdd {
                message_bytes: 512.0,
            },
            process: ArrivalProcess::ConstantRate,
            offered_ops_s: 200.0,
            warmup_s: 0.0,
            window_s: 100.0,
            fleet: 8,
            deadline_s: 0.5,
            shed_retry: None,
        },
    );
    let arrivals = r.slo.scheduled;
    assert_eq!(arrivals, 20_000);
    assert_eq!(r.slo.failed, 0, "below the knee");
    // ≈200 ops/s × tens of ms per queue Add, plus the injector; with a
    // task per arrival spawned up front the peak was the whole schedule.
    assert!(peak.get() <= 32, "peak live tasks {}", peak.get());
    assert_eq!(sim.tasks_spawned(), arrivals + 1);
    assert_eq!(sim.live_tasks(), 0);
}
