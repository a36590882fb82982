//! Tests of the event core: the event slab and its compaction, task-id
//! timer wakes, the ready queue and its remote inbox, and the
//! [`KernelStats`] counters that show them.

use super::*;
use crate::combinators::{select2, Either};
use crate::sync::{channel, Signal};
use crate::time::SimDuration as D;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::task::Wake;

#[test]
fn kernel_stats_pin_a_fixed_scenario() {
    let sim = Sim::new(1);
    let (tx, rx) = channel::<u32>();
    let got = Rc::new(Cell::new(None));
    let (s, g) = (sim.clone(), got.clone());
    sim.spawn(async move {
        s.delay(D::from_nanos(10)).await;
        // The send at t=20 wins; the 100 ns timeout is cancelled.
        match select2(rx.recv(), s.delay(D::from_nanos(100))).await {
            Either::Left(v) => g.set(v),
            Either::Right(()) => panic!("timeout won"),
        }
    });
    let s = sim.clone();
    sim.spawn(async move {
        s.delay(D::from_nanos(20)).await;
        tx.send(7);
    });
    sim.run();
    assert_eq!(got.get(), Some(7));
    assert_eq!(sim.now(), SimTime::from_nanos(20));
    assert_eq!(
        sim.kernel_stats(),
        KernelStats {
            events_fired: 2,
            cancelled_pops: 1,
            heap_peak: 2,
            spawns: 2,
            polls: 5,
        }
    );
}

#[test]
fn heap_stays_within_twice_the_live_events_under_churn() {
    let sim = Sim::new(1);
    let live = 10u64;
    for i in 0..live {
        sim.schedule_at(SimTime::from_nanos(1_000 + i), |_| {});
    }
    for i in 0..100_000u64 {
        let h = sim.schedule_at(SimTime::from_nanos(i % 500), |_| {});
        sim.cancel(h);
    }
    let stats = sim.kernel_stats();
    assert!(
        stats.heap_peak <= 2 * live + 1,
        "heap peaked at {} keys for {live} live events",
        stats.heap_peak
    );
    sim.run();
    let stats = sim.kernel_stats();
    assert_eq!(stats.events_fired, live);
    assert_eq!(stats.cancelled_pops, 100_000);
}

#[test]
fn stale_handle_cancels_nothing_in_a_reused_slot() {
    let sim = Sim::new(1);
    let fired = Rc::new(Cell::new(0u32));
    let f = fired.clone();
    let old = sim.schedule_at(SimTime::from_nanos(1), move |_| f.set(f.get() + 1));
    sim.run();
    let f = fired.clone();
    let new = sim.schedule_at(SimTime::from_nanos(2), move |_| f.set(f.get() + 10));
    assert_eq!(old.slot, new.slot, "the fired event's slot is reused");
    sim.cancel(old);
    sim.run();
    assert_eq!(fired.get(), 11);
    assert_eq!(sim.kernel_stats().cancelled_pops, 0);
}

#[test]
fn cancel_drops_the_action_at_once() {
    let sim = Sim::new(1);
    let held = Rc::new(());
    let h = {
        let held = Rc::clone(&held);
        sim.schedule_in(D::from_secs(1), move |_| drop(held))
    };
    assert_eq!(Rc::strong_count(&held), 2);
    sim.cancel(h);
    assert_eq!(Rc::strong_count(&held), 1);
    sim.run();
    assert_eq!(sim.events_fired(), 0);
}

#[test]
fn dropping_an_unfired_delay_cancels_its_event() {
    let sim = Sim::new(1);
    let s = sim.clone();
    sim.spawn(async move {
        let raced = select2(s.delay(D::from_secs(1)), s.delay(D::from_secs(10))).await;
        assert_eq!(raced, Either::Left(()));
    });
    sim.run();
    assert_eq!(sim.now(), SimTime::from_nanos(1_000_000_000));
    let stats = sim.kernel_stats();
    assert_eq!(stats.events_fired, 1, "the dropped 10 s timer never fires");
    assert_eq!(stats.cancelled_pops, 1);
}

/// Counts its wakes; a waker no task owns.
#[derive(Default)]
struct CountingWaker(AtomicUsize);

impl Wake for CountingWaker {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, AtomicOrdering::SeqCst);
    }
}

#[test]
fn delay_under_a_foreign_waker_wakes_that_waker() {
    let sim = Sim::new(1);
    let count = Arc::new(CountingWaker::default());
    let (s, c) = (sim.clone(), Arc::clone(&count));
    sim.spawn(async move {
        let mut inner = s.delay(D::from_nanos(5));
        let foreign = Waker::from(Arc::clone(&c));
        let polled = Pin::new(&mut inner).poll(&mut Context::from_waker(&foreign));
        assert!(polled.is_pending());
        s.delay(D::from_nanos(10)).await;
        drop(inner);
    });
    sim.run();
    assert_eq!(count.0.load(AtomicOrdering::SeqCst), 1);
    // The spawn poll and the t=10 wake: the t=5 event woke no task.
    assert_eq!(sim.kernel_stats().polls, 2);
}

#[test]
fn waker_woken_on_another_thread_resumes_its_task() {
    let sim = Sim::new(1);
    let parked: Rc<RefCell<Option<Waker>>> = Rc::default();
    let go = Arc::new(AtomicBool::new(false));
    let (p, g) = (parked.clone(), go.clone());
    let h = sim.spawn(std::future::poll_fn(move |cx| {
        if g.load(AtomicOrdering::SeqCst) {
            Poll::Ready(42)
        } else {
            *p.borrow_mut() = Some(cx.waker().clone());
            Poll::Pending
        }
    }));
    sim.run();
    assert_eq!(sim.live_tasks(), 1);
    let waker = parked.borrow_mut().take().expect("task parked its waker");
    std::thread::spawn(move || {
        go.store(true, AtomicOrdering::SeqCst);
        waker.wake();
    })
    .join()
    .expect("waking thread");
    sim.run();
    assert_eq!(sim.live_tasks(), 0);
    assert_eq!(h.try_take(), Some(42));
}

#[test]
fn wakes_at_one_instant_poll_in_wake_order() {
    let sim = Sim::new(1);
    let log: Rc<RefCell<Vec<&'static str>>> = Rc::default();
    let sig = Signal::new();
    let (tx, rx) = channel::<u32>();
    let at = SimTime::from_nanos(10);
    let (s, l) = (sim.clone(), log.clone());
    sim.spawn(async move {
        s.sleep_until(at).await;
        l.borrow_mut().push("timer-early");
    });
    for name in ["signal-a", "signal-b"] {
        let (w, l) = (sig.wait(), log.clone());
        sim.spawn(async move {
            w.await;
            l.borrow_mut().push(name);
        });
    }
    for name in ["chan-a", "chan-b"] {
        let (rx, l) = (rx.clone(), log.clone());
        sim.spawn(async move {
            rx.recv().await;
            l.borrow_mut().push(name);
        });
    }
    let (s, l) = (sim.clone(), log.clone());
    sim.spawn(async move {
        s.sleep_until(at).await;
        tx.send(1);
        sig.fire();
        tx.send(2);
        l.borrow_mut().push("sender");
        s.delay(D::ZERO).await;
        l.borrow_mut().push("sender-again");
    });
    let (s, l) = (sim.clone(), log.clone());
    sim.spawn(async move {
        s.sleep_until(at).await;
        l.borrow_mut().push("timer-late");
    });
    sim.run();
    // The order the kernel with a locked ready queue produced.
    assert_eq!(
        *log.borrow(),
        vec![
            "timer-early",
            "sender",
            "sender-again",
            "chan-a",
            "signal-a",
            "signal-b",
            "chan-b",
            "timer-late"
        ]
    );
}

#[test]
fn two_sims_on_one_thread_keep_separate_ready_queues() {
    let (a, b) = (Sim::new(1), Sim::new(2));
    let sig = Signal::new();
    let done = Rc::new(Cell::new(false));
    let (w, d) = (sig.wait(), done.clone());
    a.spawn(async move {
        w.await;
        d.set(true);
    });
    a.run();
    let bs = b.clone();
    b.spawn(async move {
        bs.delay(D::from_nanos(3)).await;
        sig.fire();
    });
    b.run();
    // The wake went to a's queue: b's run never polled a's task.
    assert!(!done.get());
    assert_eq!(b.kernel_stats().polls, 2);
    a.run();
    assert!(done.get());
    assert_eq!(a.kernel_stats().polls, 2);
}

#[test]
fn run_until_looks_past_a_cancelled_event_on_top() {
    let sim = Sim::new(1);
    let fired = Rc::new(Cell::new(0u32));
    let early = sim.schedule_at(SimTime::from_nanos(10), |_| {});
    let f = fired.clone();
    sim.schedule_at(SimTime::from_nanos(100), move |_| f.set(f.get() + 1));
    sim.cancel(early);
    sim.run_until(SimTime::from_nanos(50));
    assert_eq!(fired.get(), 0, "an event past the bound fired");
    assert_eq!(sim.now(), SimTime::from_nanos(50));
}
