//! Timers and counters around one cell's simulation.
//!
//! Everything here sits outside the simulator: it wraps the cell's
//! entry point in host-clock reads and watches the kernel through the
//! public observation surface (`Sim::add_kernel_hook`, the `Sim` work
//! counters and a `simtrace::Tracer`). Nothing inside the program is
//! instrumented for the benchmark.

use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use simcore::{KernelEvent, KernelHookId, Sim};
use simlab::CellCtx;
use simtrace::{Layer, Tracer};

use crate::calib;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the thread CPU clock and /proc as 64-bit Linux lays them out");

/// CPU time the calling thread has used (`CLOCK_THREAD_CPUTIME_ID`).
///
/// The benchmark runs its cells on one thread, so on a dedicated core
/// this equals the wall time a user waits. On a shared host it leaves
/// out the time the scheduler gives to other processes, which wall time
/// counts and which varies from run to run.
pub fn thread_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of
    // the call, laid out as the 64-bit Linux ABI defines it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Host-side and kernel-side readings of one cell.
#[derive(Debug, Clone, Default)]
pub struct Reading {
    /// Host CPU seconds from entering the cell until its runner returned.
    pub total_s: f64,
    /// Host CPU seconds from entering the cell until its first event
    /// fired.
    pub setup_s: f64,
    /// Host wall seconds from entering the cell until its runner
    /// returned.
    pub wall_s: f64,
    /// Host CPU seconds of one reference-kernel sample, the mean of one
    /// taken just before the cell and one just after (`calib::sample`).
    pub ref_s: f64,
    /// Events fired.
    pub events: u64,
    /// Tasks spawned.
    pub spawns: u64,
    /// Tasks still alive once the runner returned (must be 0).
    pub live_tasks: usize,
    /// The kernel's order-sensitive event fingerprint.
    pub fingerprint: u64,
    /// Virtual seconds the simulation ran.
    pub horizon_s: f64,
    /// Per-layer readings; only in traced passes.
    pub layers: Option<Layers>,
}

impl Reading {
    /// Host CPU seconds of the run phase (first event to runner return).
    pub fn run_s(&self) -> f64 {
        self.total_s - self.setup_s
    }

    /// The host's speed around the cell relative to the reference host
    /// (`calib::speed`).
    pub fn speed(&self) -> f64 {
        calib::speed(self.ref_s)
    }

    /// `total_s` in reference-host seconds.
    pub fn scaled_total_s(&self) -> f64 {
        self.total_s * self.speed()
    }

    /// `setup_s` in reference-host seconds.
    pub fn scaled_setup_s(&self) -> f64 {
        self.setup_s * self.speed()
    }
}

/// Per-layer counts and host times of one traced cell.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `kernel.wakes`: wake events fired.
    pub wakes: u64,
    /// `kernel.calls`: callback events fired (each one a dcnet flow
    /// completion today).
    pub calls: u64,
    /// Host seconds from each wake event to the next kernel pop.
    pub wake_host_s: f64,
    /// Host seconds from each callback event to the next kernel pop.
    pub call_host_s: f64,
    /// Open-loop arrivals that reached their scheduled instant.
    pub arrivals: u64,
    /// `net.flow` spans.
    pub flows: u64,
    /// Summed virtual duration of the `net.flow` spans.
    pub flow_virtual_s: f64,
    /// `net.rate_updates`.
    pub rate_updates: u64,
    /// Top-level storage operation spans (blob, table and queue calls).
    pub store_ops: u64,
    /// `admit.shed` + `store.latch_shed`.
    pub store_shed: u64,
    /// `geo.ship.entries`.
    pub ship_entries: u64,
    /// `route.reads.secondary`.
    pub reads_secondary: u64,
    /// `route.escalations`.
    pub escalations: u64,
    /// `fabric.starts_ok`.
    pub starts_ok: u64,
    /// `autoscale.scale_out`.
    pub scale_out: u64,
    /// `modis.executions`.
    pub executions: u64,
}

/// Host time between consecutive kernel pops, charged to the kind of
/// the earlier pop. A pop's interval covers its own action (a callback
/// or a task wake), the task polls that follow it, and any cancelled
/// heap entries skipped before the next pop.
#[derive(Default)]
struct PopClock {
    /// Thread CPU time at the first pop.
    first: Cell<Option<Duration>>,
    last: Cell<Option<(Instant, KernelEvent)>>,
    wake_s: Cell<f64>,
    call_s: Cell<f64>,
}

impl PopClock {
    fn pop(&self, ev: KernelEvent, now: Instant) {
        if self.first.get().is_none() {
            self.first.set(Some(thread_cpu()));
        }
        self.close(now);
        self.last.set(Some((now, ev)));
    }

    fn close(&self, now: Instant) {
        if let Some((at, ev)) = self.last.take() {
            let dt = (now - at).as_secs_f64();
            match ev {
                KernelEvent::WakeFired => self.wake_s.set(self.wake_s.get() + dt),
                KernelEvent::CallFired => self.call_s.set(self.call_s.get() + dt),
                KernelEvent::TaskSpawned => {}
            }
        }
    }
}

/// Run `body` on the cell's simulation and take its readings.
///
/// Untraced, the only hook is a one-shot that stamps the first event
/// pop and removes itself, so the run phase pays nothing. Traced, a
/// `simtrace::Tracer` is installed and every pop is clocked.
pub fn observe<R>(
    ctx: &CellCtx,
    seed: u64,
    traced: bool,
    body: impl FnOnce(&Sim) -> R,
) -> (R, Reading) {
    let ref_before = calib::sample();
    let enter_wall = Instant::now();
    let enter = thread_cpu();
    let (out, mut reading) = ctx.with_sim(seed, |sim| {
        let clock = Rc::new(PopClock::default());
        let hook_id: Rc<Cell<Option<KernelHookId>>> = Rc::new(Cell::new(None));
        let hook = {
            let (clock, hook_id) = (Rc::clone(&clock), Rc::clone(&hook_id));
            Rc::new(move |sim: &Sim, ev: KernelEvent| {
                if ev == KernelEvent::TaskSpawned {
                    return;
                }
                clock.pop(ev, Instant::now());
                if !traced {
                    if let Some(id) = hook_id.take() {
                        sim.remove_kernel_hook(id);
                    }
                }
            })
        };
        hook_id.set(Some(sim.add_kernel_hook(hook)));
        let tracer = traced.then(|| Tracer::new(sim));
        let guard = tracer.as_ref().map(Tracer::install);

        let out = body(sim);

        let end = thread_cpu();
        let end_wall = Instant::now();
        drop(guard);
        if let Some(id) = hook_id.take() {
            sim.remove_kernel_hook(id);
        }
        clock.close(end_wall);
        let first = clock.first.get().unwrap_or(end);
        let reading = Reading {
            total_s: (end - enter).as_secs_f64(),
            setup_s: (first - enter).as_secs_f64(),
            wall_s: (end_wall - enter_wall).as_secs_f64(),
            ref_s: 0.0,
            events: sim.events_fired(),
            spawns: sim.tasks_spawned(),
            live_tasks: sim.live_tasks(),
            fingerprint: sim.trace_fingerprint(),
            horizon_s: sim.now().as_secs_f64(),
            layers: tracer.map(|t| layers(&t, &clock)),
        };
        (out, reading)
    });
    reading.ref_s = (ref_before + calib::sample()) / 2.0;
    (out, reading)
}

fn layers(t: &Tracer, clock: &PopClock) -> Layers {
    let count = |name: &str| u64::try_from(t.counter(name)).expect("counters only grow");
    let mut l = Layers {
        wakes: count("kernel.wakes"),
        calls: count("kernel.calls"),
        wake_host_s: clock.wake_s.get(),
        call_host_s: clock.call_s.get(),
        arrivals: count("route.writes"),
        rate_updates: count("net.rate_updates"),
        store_shed: count("admit.shed") + count("store.latch_shed"),
        ship_entries: count("geo.ship.entries"),
        reads_secondary: count("route.reads.secondary"),
        escalations: count("route.escalations"),
        starts_ok: count("fabric.starts_ok"),
        scale_out: count("autoscale.scale_out"),
        executions: count("modis.executions"),
        ..Layers::default()
    };
    for s in t.span_stats() {
        match (s.layer, s.kind) {
            (Layer::Load, "load.op") | (Layer::Geo, "geo.op") | (Layer::Route, "route.read") => {
                l.arrivals += s.count;
            }
            (Layer::Net, "net.flow") => {
                l.flows += s.count;
                l.flow_virtual_s += s.durations.values().iter().sum::<f64>();
            }
            (Layer::Store, kind)
                if ["blob.", "table.", "queue."]
                    .iter()
                    .any(|p| kind.starts_with(p)) =>
            {
                l.store_ops += s.count;
            }
            _ => {}
        }
    }
    l
}
