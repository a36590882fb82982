//! The open-loop cell harness: one schedule, window and SLO fold for
//! every open-loop runner.
//!
//! Every open-loop measurement runs the same skeleton: draw a whole
//! arrival schedule from a named RNG stream, inject each arrival's op
//! at its instant ([`inject`]), charge its latency from the scheduled
//! instant (no coordinated omission), count the completions that land
//! inside the measurement window, and fold the window's cohort into one
//! [`SloTracker`]. [`OpenLoop`] is that skeleton; a runner supplies
//! only its setup, the op fired per arrival, and its own extras.
//!
//! ```text
//! offset_s      warmup_s                 warmup_s + window_s
//!    |---warmup---|--------window--------|
//!    arrivals start; those before warmup_s run but are not recorded
//! ```

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;

use simcore::Sim;
use simtrace::{Layer, Span};

use crate::arrival::ArrivalProcess;
use crate::fleet::LoadObserver;
use crate::inject::{inject, Arrival};
use crate::slo::{FailClass, SloTracker};

/// What one open-loop cell fires, when, and which of it counts.
#[derive(Debug)]
pub struct OpenLoopCell<'a> {
    /// Named RNG stream the schedule is drawn from.
    pub stream: &'static str,
    /// Arrival process shaping the schedule.
    pub process: &'a ArrivalProcess,
    /// Target mean offered rate, operations per second.
    pub rate_ops_s: f64,
    /// Instant the schedule starts on the simulation clock; drawn
    /// instants are shifted by it.
    pub offset_s: f64,
    /// Start of the measurement window on the simulation clock;
    /// arrivals scheduled earlier run but are not recorded.
    pub warmup_s: f64,
    /// Measurement window length, seconds. The schedule ends with it.
    pub window_s: f64,
    /// Latency SLO, seconds from the scheduled instant.
    pub deadline_s: f64,
    /// Trace layer of each op's span.
    pub layer: Layer,
    /// Trace kind of each op's span.
    pub kind: &'static str,
}

impl OpenLoopCell<'_> {
    /// Draw the schedule from the cell's stream: instants in seconds
    /// from `offset_s`, ascending, up to the window's end. A pure
    /// function of (seed, stream, process, rate, horizon).
    pub fn draw(&self, sim: &Sim) -> Vec<f64> {
        let mut rng = sim.rng(self.stream);
        let horizon_s = self.warmup_s - self.offset_s + self.window_s;
        self.process.instants(&mut rng, self.rate_ops_s, horizon_s)
    }
}

/// What a successful op reports to the harness beyond its latency.
pub trait Served {
    /// Observed staleness of a read answer, seconds, for read layers
    /// that measure it; recorded into [`SloTracker::staleness`].
    fn staleness_s(&self) -> Option<f64> {
        None
    }

    /// Attach op-specific attributes to the op's span.
    fn annotate(&self, _span: &Span) {}
}

impl Served for () {}

/// The fold of one open-loop cell, returned by [`OpenLoop::finish`].
#[derive(Debug, Clone)]
pub struct OpenLoopResult {
    /// Target offered rate (ops/s).
    pub offered_ops_s: f64,
    /// Rate actually scheduled in the window (ops/s).
    pub scheduled_ops_s: f64,
    /// Successful completion events inside the window, from any
    /// arrival (warmup cohort included), per second of window. Below
    /// the knee completions track arrivals; above it the service runs
    /// backlogged and the same count measures its capacity.
    pub achieved_ops_s: f64,
    /// In-window completions that also met the deadline (ops/s).
    pub goodput_ops_s: f64,
    /// SLO accounting over the cohort of arrivals scheduled inside the
    /// window.
    pub slo: SloTracker,
}

/// State shared by the injected ops.
#[derive(Debug)]
struct Fold {
    slo: RefCell<SloTracker>,
    /// In-window successful completions: `(all, within deadline)`.
    drained: Cell<(u64, u64)>,
}

/// A running open-loop cell: started before `sim.run()`, finished after.
pub struct OpenLoop {
    offered_ops_s: f64,
    window_s: f64,
    in_window: u64,
    fold: Rc<Fold>,
    observer: Rc<LoadObserver>,
}

impl OpenLoop {
    /// Shift `instants` (drawn by [`OpenLoopCell::draw`]) to the cell's
    /// offset and inject `op` at each. `op(arrival)` returns the span's
    /// component label (rendered only when tracing) and a closure that
    /// makes the op future, which resolves to the op's success value or
    /// its failure class. The future is made inside the harness's own,
    /// so an in-flight op is stored once, not twice. Does not call
    /// `sim.run()`.
    pub fn start<F, L, G, Fut, T>(
        sim: &Sim,
        cell: &OpenLoopCell,
        mut instants: Vec<f64>,
        mut op: F,
    ) -> OpenLoop
    where
        F: FnMut(Arrival) -> (L, G) + 'static,
        L: FnOnce() -> String + 'static,
        G: FnOnce() -> Fut + 'static,
        Fut: Future<Output = Result<T, FailClass>> + 'static,
        T: Served + 'static,
    {
        assert!(cell.window_s > 0.0, "window must be positive");
        for t in &mut instants {
            *t += cell.offset_s;
        }
        let (warmup_s, deadline_s) = (cell.warmup_s, cell.deadline_s);
        let end_s = warmup_s + cell.window_s;
        let in_window = instants.iter().filter(|&&t| t >= warmup_s).count() as u64;
        let mut slo = SloTracker::new(deadline_s);
        slo.scheduled = in_window;
        let fold = Rc::new(Fold {
            slo: RefCell::new(slo),
            drained: Cell::new((0, 0)),
        });
        let observer = Rc::new(LoadObserver::default());
        let (layer, kind) = (cell.layer, cell.kind);
        let s = sim.clone();
        let (fd, ob) = (Rc::clone(&fold), Rc::clone(&observer));
        inject(sim, instants, move |a| {
            let (label, run) = op(a);
            let (s, fold, observer) = (s.clone(), Rc::clone(&fd), Rc::clone(&ob));
            async move {
                bump(&observer.dispatched);
                let sp = simtrace::span(layer, kind, label);
                sp.attr("sched_s", format_args!("{:.6}", a.at_s));
                let res = run().await;
                // Coordinated-omission-free: charge from the scheduled
                // instant, not from when the op actually got issued.
                let latency_s = (s.now() - a.at).as_secs_f64();
                let ok = res.is_ok();
                sp.attr("latency_ms", format_args!("{:.3}", latency_s * 1e3));
                sp.attr("deadline", if ok { "met" } else { "failed" });
                if let Ok(v) = &res {
                    v.annotate(&sp);
                }
                sp.end();
                let done_s = s.now().as_secs_f64();
                let met = ok && latency_s <= deadline_s;
                bump(&observer.completed);
                if met {
                    bump(&observer.good);
                }
                if ok && (warmup_s..end_s).contains(&done_s) {
                    let (all, good) = fold.drained.get();
                    fold.drained.set((all + 1, good + met as u64));
                }
                if matches!(res, Err(FailClass::Shed)) {
                    bump(&observer.shed);
                }
                if a.at_s >= warmup_s {
                    let mut slo = fold.slo.borrow_mut();
                    match res {
                        Ok(v) => {
                            slo.record_ok(latency_s, done_s);
                            if let Some(st) = v.staleness_s() {
                                slo.record_staleness(st);
                            }
                        }
                        Err(class) => slo.record_fail(class),
                    }
                }
            }
        });
        OpenLoop {
            offered_ops_s: cell.rate_ops_s,
            window_s: cell.window_s,
            in_window,
            fold,
            observer,
        }
    }

    /// Live progress counters over every arrival, warmup included (what
    /// a controller watching the fleet reads).
    pub fn observer(&self) -> Rc<LoadObserver> {
        Rc::clone(&self.observer)
    }

    /// Fold the cell once `sim.run()` has returned.
    pub fn finish(self) -> OpenLoopResult {
        let fold = Rc::try_unwrap(self.fold).expect("all arrival tasks finished");
        let (all, good) = fold.drained.get();
        OpenLoopResult {
            offered_ops_s: self.offered_ops_s,
            scheduled_ops_s: self.in_window as f64 / self.window_s,
            achieved_ops_s: all as f64 / self.window_s,
            goodput_ops_s: good as f64 / self.window_s,
            slo: fold.slo.into_inner(),
        }
    }
}

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    /// Run a cell of fake ops over a replayed schedule: arrival `i`
    /// sleeps `service_s[i]`, then fails with a shed if `i` is in
    /// `fail`.
    fn run(
        instants: &[f64],
        (offset_s, warmup_s, window_s): (f64, f64, f64),
        service_s: &'static [f64],
        fail: &'static [usize],
    ) -> (OpenLoopResult, Rc<LoadObserver>) {
        let sim = Sim::new(1);
        let process = ArrivalProcess::Replay(instants.to_vec());
        let cell = OpenLoopCell {
            stream: "test.arrivals",
            process: &process,
            rate_ops_s: 1.0,
            offset_s,
            warmup_s,
            window_s,
            deadline_s: 0.5,
            layer: Layer::Load,
            kind: "test.op",
        };
        let s = sim.clone();
        let run = OpenLoop::start(&sim, &cell, cell.draw(&sim), move |a| {
            let s = s.clone();
            let op = move || async move {
                s.delay(SimDuration::from_secs_f64(service_s[a.index]))
                    .await;
                match fail.contains(&a.index) {
                    true => Err(FailClass::Shed),
                    false => Ok(()),
                }
            };
            (String::new, op)
        });
        let observer = run.observer();
        sim.run();
        assert_eq!(sim.live_tasks(), 0);
        (run.finish(), observer)
    }

    #[test]
    fn fold_counts_the_window_cohort_and_in_window_completions() {
        // Warmup 1 s, window 4 s, deadline 0.5 s. Arrival 1 runs in
        // warmup but completes inside the window; 3 completes late; 4
        // is shed; 5 completes after the window closes.
        let (r, obs) = run(
            &[0.2, 0.9, 1.5, 2.0, 2.5, 4.8],
            (0.0, 1.0, 4.0),
            &[0.1, 0.2, 0.1, 0.7, 0.1, 0.3],
            &[4],
        );
        // Warmup arrivals run but are not recorded.
        assert_eq!(obs.dispatched.get(), 6);
        assert_eq!(r.slo.scheduled, 4);
        assert_eq!((r.slo.completed, r.slo.failed, r.slo.shed), (3, 1, 1));
        assert_eq!(r.slo.late, 1);
        assert_eq!((r.offered_ops_s, r.scheduled_ops_s), (1.0, 1.0));
        // Achieved: completions of 1, 2 and 3 — not 0 (before the
        // window), 4 (failed) or 5 (after it).
        assert_eq!(r.achieved_ops_s, 3.0 / 4.0);
        // Goodput: of those, only 1 and 2 met the deadline.
        assert_eq!(r.goodput_ops_s, 2.0 / 4.0);
        // The observer saw every arrival, warmup included, and drained.
        assert_eq!(obs.in_flight(), 0);
        assert_eq!((obs.good.get(), obs.shed.get()), (4, 1));
    }

    #[test]
    fn window_opening_at_the_offset_records_every_shifted_arrival() {
        let (r, obs) = run(&[0.0, 1.0, 4.5], (10.0, 10.0, 5.0), &[0.1; 3], &[]);
        assert_eq!((r.slo.scheduled, r.slo.completed), (3, 3));
        // Latency is charged from the shifted instants: the last op ran
        // at 14.5 s.
        assert!((r.slo.last_completion_s - 14.6).abs() < 1e-9);
        assert!((r.slo.latency.max() - 0.1).abs() < 1e-9);
        assert_eq!(r.achieved_ops_s, 3.0 / 5.0);
        assert_eq!(obs.in_flight(), 0);
    }
}
