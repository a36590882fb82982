//! Criterion benches for the DES kernel: raw event throughput, timer
//! cancellation, process spawning, channels and semaphores. These quantify the cost basis of
//! every experiment (a full ModisAzure campaign is ~10⁸ events).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simcore::prelude::*;
use simcore::EventHandle;

fn bench_timer_events(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/timers");
    for n in [1_000u64, 10_000] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let sim = Sim::new(1);
                for i in 0..n {
                    sim.schedule_at(SimTime::from_nanos(i * 7 % 1_000_000), |_| {});
                }
                sim.run();
                assert_eq!(sim.events_fired(), n);
            });
        });
    }
    g.finish();
}

/// dcnet's rescheduling pattern: `n` live flow completions, and on every
/// change in the flow set each one is cancelled and pushed again at its
/// new finish time.
fn bench_cancel_reschedule(c: &mut Criterion) {
    const CHANGES: u64 = 100;
    let mut g = c.benchmark_group("kernel/cancel_reschedule");
    for n in [100u64, 1_000] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let sim = Sim::new(6);
                let s = sim.clone();
                sim.spawn(async move {
                    let finish = |i: u64| SimDuration::from_nanos(1_000 + i);
                    let mut live: Vec<EventHandle> =
                        (0..n).map(|i| s.schedule_in(finish(i), |_| {})).collect();
                    for _ in 0..CHANGES {
                        s.delay(SimDuration::from_nanos(1)).await;
                        for (i, h) in (0..n).zip(live.iter_mut()) {
                            s.cancel(*h);
                            *h = s.schedule_in(finish(i), |_| {});
                        }
                    }
                });
                sim.run();
                let stats = sim.kernel_stats();
                assert_eq!(stats.events_fired, n + CHANGES);
                assert_eq!(stats.cancelled_pops, n * CHANGES);
            });
        });
    }
    g.finish();
}

fn bench_process_ping_pong(c: &mut Criterion) {
    c.bench_function("kernel/process_ping_pong_1k", |b| {
        b.iter(|| {
            let sim = Sim::new(2);
            let (tx_a, rx_a) = channel::<u32>();
            let (tx_b, rx_b) = channel::<u32>();
            sim.spawn(async move {
                for i in 0..1_000 {
                    tx_a.send(i);
                    rx_b.recv().await;
                }
            });
            sim.spawn(async move {
                while let Some(v) = rx_a.recv().await {
                    tx_b.send(v);
                }
            });
            sim.run();
        });
    });
}

fn bench_semaphore_contention(c: &mut Criterion) {
    c.bench_function("kernel/semaphore_100x100", |b| {
        b.iter(|| {
            let sim = Sim::new(3);
            let sem = Semaphore::new(4);
            for _ in 0..100 {
                let (s, sm) = (sim.clone(), sem.clone());
                sim.spawn(async move {
                    for _ in 0..100 {
                        let _p = sm.acquire().await;
                        s.delay(SimDuration::from_nanos(10)).await;
                    }
                });
            }
            sim.run();
            assert_eq!(sem.acquired_total(), 10_000);
        });
    });
}

fn bench_spawn_throughput(c: &mut Criterion) {
    c.bench_function("kernel/spawn_10k_tasks", |b| {
        b.iter(|| {
            let sim = Sim::new(4);
            for _ in 0..10_000 {
                let s = sim.clone();
                sim.spawn(async move {
                    s.delay(SimDuration::from_nanos(1)).await;
                });
            }
            sim.run();
            assert_eq!(sim.tasks_spawned(), 10_000);
        });
    });
}

/// Span-heavy workload: 100 tasks x 50 ops, each op wrapped in a span
/// when `spans` is set. With no tracer installed the span call must be a
/// near-free thread-local check (the perf guard below holds it to <2%).
fn tracing_workload(sim_seed: u64, spans: bool, install: bool) {
    let sim = Sim::new(sim_seed);
    let tracer = simtrace::Tracer::new(&sim);
    let guard = if install {
        Some(tracer.install())
    } else {
        None
    };
    for i in 0..100 {
        let s = sim.clone();
        sim.spawn(async move {
            for _ in 0..50 {
                if spans {
                    let sp =
                        simtrace::span(simtrace::Layer::App, "bench.op", || format!("task{i}"));
                    s.delay(SimDuration::from_nanos(10)).await;
                    drop(sp);
                } else {
                    s.delay(SimDuration::from_nanos(10)).await;
                }
            }
        });
    }
    sim.run();
    drop(guard);
}

fn bench_tracing_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/tracing");
    let mut baseline = std::time::Duration::ZERO;
    let mut disabled = std::time::Duration::ZERO;
    let mut enabled = std::time::Duration::ZERO;
    g.bench_function("baseline_no_spans", |b| {
        b.iter(|| tracing_workload(5, false, false));
        baseline = b.min();
    });
    g.bench_function("spans_disabled", |b| {
        b.iter(|| tracing_workload(5, true, false));
        disabled = b.min();
    });
    g.bench_function("spans_enabled", |b| {
        b.iter(|| tracing_workload(5, true, true));
        enabled = b.min();
    });
    g.finish();

    // Perf guard: uninstrumented-cost of the tracing hooks. Spans compiled
    // in but no tracer installed must stay within 2% of the span-free
    // baseline; the enabled figure is informational (recording is opt-in).
    let overhead = disabled.as_secs_f64() / baseline.as_secs_f64() - 1.0;
    let enabled_x = enabled.as_secs_f64() / baseline.as_secs_f64();
    println!(
        "kernel/tracing: disabled overhead {:+.2}% (guard: <2%), enabled {:.2}x baseline",
        overhead * 100.0,
        enabled_x
    );
    assert!(
        overhead < 0.02,
        "tracing-disabled overhead {:.2}% exceeds the 2% guard",
        overhead * 100.0
    );
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_timer_events,
        bench_cancel_reschedule,
        bench_process_ping_pong,
        bench_semaphore_contention,
        bench_spawn_throughput,
        bench_tracing_overhead
);
criterion_main!(benches);
