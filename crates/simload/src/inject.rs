//! Lazy arrival injection: one task per arrival stream.
//!
//! An open-loop schedule is drawn whole, up front, but its operations
//! need not exist before their instants. [`inject`] spawns one injector
//! task that sleeps from instant to instant and spawns each arrival's
//! operation when it is due, so live tasks, futures and heap entries
//! are bounded by the work in flight rather than by the length of the
//! schedule.
//!
//! The event schedule is the one a task per arrival, each sleeping
//! until its instant, would produce. Those tasks' first polls run
//! back to back: an arrival already due runs its operation there, and
//! every later one takes the next sequence number for its wake. So
//! [`inject`] spawns the operations already due at once, and the
//! injector reserves the block of sequence numbers the later wakes
//! would have taken ([`Sim::reserve_seqs`]) and fires each wake with
//! its own ([`Sim::sleep_until_reserved`]). Every wake keeps its
//! `(time, seq)` slot, ties to the nanosecond included, and the trace
//! fingerprint is unchanged; only the spawn count grows, by one.

use std::future::Future;

use simcore::{Sim, SimDuration, SimTime};

/// One arrival, as handed to the `op` closure of [`inject`].
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Position in the schedule.
    pub index: usize,
    /// Scheduled instant, seconds (the schedule's own value).
    pub at_s: f64,
    /// Scheduled instant on the simulation clock.
    pub at: SimTime,
}

impl Arrival {
    fn new(index: usize, at_s: f64) -> Self {
        Arrival {
            index,
            at_s,
            at: clock(at_s),
        }
    }
}

fn clock(at_s: f64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs_f64(at_s)
}

/// Spawn `op(arrival)` at each instant of `instants` (seconds,
/// ascending). Operations already due are spawned immediately; one
/// injector task spawns the rest, each at its instant. Does not call
/// `sim.run()`.
pub fn inject<F, Fut>(sim: &Sim, instants: Vec<f64>, mut op: F)
where
    F: FnMut(Arrival) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    assert!(
        instants.windows(2).all(|w| w[0] <= w[1]),
        "arrival instants must be ascending"
    );
    let now = sim.now();
    let due = instants.partition_point(|&t| clock(t) <= now);
    for (i, &t) in instants[..due].iter().enumerate() {
        sim.spawn(op(Arrival::new(i, t)));
    }
    let s = sim.clone();
    sim.spawn(async move {
        let first = s.reserve_seqs((instants.len() - due) as u64);
        for (seq, i) in (first..).zip(due..instants.len()) {
            let arrival = Arrival::new(i, instants[i]);
            s.sleep_until_reserved(arrival.at, seq).await;
            s.spawn(op(arrival));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn log_run(instants: Vec<f64>) -> Vec<(u64, usize)> {
        let sim = Sim::new(1);
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::default();
        let l = Rc::clone(&log);
        let s = sim.clone();
        inject(&sim, instants, move |a| {
            let (l, s) = (Rc::clone(&l), s.clone());
            async move { l.borrow_mut().push((s.now().as_nanos(), a.index)) }
        });
        sim.run();
        assert_eq!(sim.live_tasks(), 0);
        let out = log.borrow().clone();
        out
    }

    #[test]
    fn ops_run_at_their_instants_in_order() {
        let got = log_run(vec![0.0, 0.5, 0.5, 2.0]);
        assert_eq!(
            got,
            vec![
                (0, 0),
                (500_000_000, 1),
                (500_000_000, 2),
                (2_000_000_000, 3)
            ]
        );
    }

    #[test]
    fn empty_schedule_spawns_only_the_injector() {
        let sim = Sim::new(1);
        inject(&sim, Vec::new(), |_| async {});
        sim.run();
        assert_eq!(sim.tasks_spawned(), 1);
        assert_eq!(sim.events_fired(), 0);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_schedule_is_rejected() {
        let sim = Sim::new(1);
        inject(&sim, vec![1.0, 0.5], |_| async {});
    }
}
