//! The simulation driver: virtual clock, event heap, process spawning.
//!
//! A [`Sim`] is a cheaply-cloneable handle (internally `Rc`) to one
//! simulation world. Everything scheduled against it is totally ordered by
//! `(time, sequence-number)`, so a run is a pure function of the initial
//! seed — the basis of the determinism guarantees the higher layers
//! (and the reproduction experiments) rely on.

use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::executor::{Executor, TaskId};
use crate::time::{SimDuration, SimTime};

/// What a fired event does.
enum Action {
    /// Wake a suspended task through its waker.
    Wake(Waker),
    /// Wake the task with this id: what [`Delay`] arms when it is polled
    /// by its own task, so a timer wake clones no waker.
    WakeTask(TaskId),
    /// Run an arbitrary callback against the simulation.
    Call(Box<dyn FnOnce(&Sim)>),
}

/// Heap key of one scheduled event; its action waits in slab slot
/// `slot`, which still holds `seq` while the event is live.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
    // first. seq breaks ties FIFO, which makes runs reproducible.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// One slab slot: the action of the event with sequence number `seq`,
/// or `None` once that event fired or was cancelled (the slot is then on
/// the free list, and a later event may take it with a new `seq`).
struct EventSlot {
    seq: u64,
    action: Option<Action>,
}

/// The event queue: a heap of [`Key`]s over a slab of actions.
///
/// A cancelled event's action leaves the slab at once; its key stays in
/// the heap as a tombstone (its slot no longer holds its `seq` and
/// action) until it is popped, or until tombstones pass half the heap
/// and [`compact`](Self::compact) drops them all. The heap therefore
/// stays within twice the live events plus one; the slab, whose slots
/// are freed on cancel, within the most events ever live at once.
#[derive(Default)]
struct Events {
    heap: BinaryHeap<Key>,
    slots: Vec<EventSlot>,
    free: Vec<u32>,
    tombstones: usize,
}

impl Events {
    fn is_live(slots: &[EventSlot], key: Key) -> bool {
        let slot = &slots[key.slot as usize];
        slot.seq == key.seq && slot.action.is_some()
    }

    /// Rebuild the heap without its tombstones; returns how many went.
    fn compact(&mut self) -> usize {
        let before = self.heap.len();
        let slots = &self.slots;
        self.heap.retain(|&k| Self::is_live(slots, k));
        self.tombstones = 0;
        before - self.heap.len()
    }
}

/// Handle to a scheduled event, for cancelling it through
/// [`Sim::cancel`] before it fires. It is a plain `Copy` pair (slab
/// slot, sequence number), so holding one costs nothing; a handle whose
/// event already fired or was cancelled cancels nothing, even once its
/// slot holds a newer event. This is how in-flight network transfers
/// get rescheduled when fair-share rates change.
#[derive(Debug, Clone, Copy)]
pub struct EventHandle {
    slot: u32,
    seq: u64,
}

/// Event-core counters of one simulation (see [`Sim::kernel_stats`]):
/// what the simulator itself did, independent of the model it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Events fired (same as [`Sim::events_fired`]).
    pub events_fired: u64,
    /// Cancelled events removed from the heap, whether skipped when
    /// popped or purged by compaction.
    pub cancelled_pops: u64,
    /// Most keys the event heap held at once, tombstones included.
    pub heap_peak: u64,
    /// Processes spawned (same as [`Sim::tasks_spawned`]).
    pub spawns: u64,
    /// Task polls performed.
    pub polls: u64,
}

/// Kernel-level happenings observable through [`Sim::add_kernel_hook`].
///
/// Hooks exist so external subsystems (the `simtrace` tracer, the
/// `simfault` injector) can watch executor activity without the kernel
/// depending on them. When no hook is installed the cost is a single
/// flag check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelEvent {
    /// A simulation process was spawned.
    TaskSpawned,
    /// A scheduled wake event fired (a suspended task resumes).
    WakeFired,
    /// A scheduled callback event fired.
    CallFired,
}

/// Shape of a kernel observation hook (see [`Sim::add_kernel_hook`]).
pub type KernelHook = Rc<dyn Fn(&Sim, KernelEvent)>;

/// Handle identifying one installed kernel hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelHookId(u64);

struct SimInner {
    now: Cell<SimTime>,
    seq: Cell<u64>,
    events: RefCell<Events>,
    exec: Executor,
    events_fired: Cell<u64>,
    cancelled_pops: Cell<u64>,
    heap_peak: Cell<u64>,
    trace_hash: Cell<u64>,
    base_seed: u64,
    hooks: RefCell<Vec<(u64, KernelHook)>>,
    next_hook_id: Cell<u64>,
    has_hook: Cell<bool>,
}

/// A handle to one simulation world. Clone freely; all clones share state.
#[derive(Clone)]
pub struct Sim {
    inner: Rc<SimInner>,
}

impl Sim {
    /// Create a simulation whose RNG streams derive from `seed`.
    pub fn new(seed: u64) -> Self {
        Sim {
            inner: Rc::new(SimInner {
                now: Cell::new(SimTime::ZERO),
                seq: Cell::new(0),
                events: RefCell::default(),
                exec: Executor::new(),
                events_fired: Cell::new(0),
                cancelled_pops: Cell::new(0),
                heap_peak: Cell::new(0),
                trace_hash: Cell::new(0xcbf2_9ce4_8422_2325),
                base_seed: seed,
                hooks: RefCell::new(Vec::new()),
                next_hook_id: Cell::new(0),
                has_hook: Cell::new(false),
            }),
        }
    }

    /// Install a kernel observation hook. Hooks fire on process spawn
    /// and on every event pop, in installation order; a hook must not
    /// re-enter the simulation. Several independent subsystems (tracer,
    /// fault injector) can each hold one; remove with
    /// [`remove_kernel_hook`](Self::remove_kernel_hook). With no hooks
    /// installed the emission cost is a single flag check.
    pub fn add_kernel_hook(&self, hook: KernelHook) -> KernelHookId {
        let id = self.inner.next_hook_id.get();
        self.inner.next_hook_id.set(id + 1);
        self.inner.hooks.borrow_mut().push((id, hook));
        self.inner.has_hook.set(true);
        KernelHookId(id)
    }

    /// Remove a previously installed kernel hook; unknown ids are a
    /// no-op (a guard may outlive a hook explicitly removed earlier).
    pub fn remove_kernel_hook(&self, id: KernelHookId) {
        let mut hooks = self.inner.hooks.borrow_mut();
        hooks.retain(|(h, _)| *h != id.0);
        self.inner.has_hook.set(!hooks.is_empty());
    }

    #[inline]
    fn emit_kernel(&self, ev: KernelEvent) {
        if self.inner.has_hook.get() {
            // Clone out so hooks can (un)install hooks while iterating.
            let hooks: Vec<KernelHook> = self
                .inner
                .hooks
                .borrow()
                .iter()
                .map(|(_, h)| Rc::clone(h))
                .collect();
            for h in hooks {
                h(self, ev);
            }
        }
    }

    /// The seed this simulation was created with.
    pub fn seed(&self) -> u64 {
        self.inner.base_seed
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.inner.now.get()
    }

    /// Derive a deterministic RNG stream for a named component.
    pub fn rng(&self, label: &str) -> crate::rng::SimRng {
        crate::rng::SimRng::for_stream(self.inner.base_seed, label)
    }

    fn next_seq(&self) -> u64 {
        let s = self.inner.seq.get();
        self.inner.seq.set(s + 1);
        s
    }

    fn push_event(&self, at: SimTime, action: Action) -> EventHandle {
        let seq = self.next_seq();
        self.push_entry(at, seq, action)
    }

    /// Insert one event. Checked in release builds too: an event in the
    /// past would silently move the clock backwards.
    fn push_entry(&self, at: SimTime, seq: u64, action: Action) -> EventHandle {
        assert!(
            at >= self.now(),
            "event scheduled in the past: {at:?} < {:?}",
            self.now()
        );
        let mut ev = self.inner.events.borrow_mut();
        let slot = match ev.free.pop() {
            Some(slot) => {
                ev.slots[slot as usize] = EventSlot {
                    seq,
                    action: Some(action),
                };
                slot
            }
            None => {
                let slot = u32::try_from(ev.slots.len()).expect("event slab overflow");
                ev.slots.push(EventSlot {
                    seq,
                    action: Some(action),
                });
                slot
            }
        };
        ev.heap.push(Key { at, seq, slot });
        let len = ev.heap.len() as u64;
        if len > self.inner.heap_peak.get() {
            self.inner.heap_peak.set(len);
        }
        EventHandle { slot, seq }
    }

    /// Cancel a scheduled event: its action is dropped at once and it
    /// will not fire. A no-op if the event already fired or was
    /// cancelled, even when its slab slot now holds a newer event.
    pub fn cancel(&self, handle: EventHandle) {
        let action = {
            let mut ev = self.inner.events.borrow_mut();
            let ev = &mut *ev;
            let slot = &mut ev.slots[handle.slot as usize];
            if slot.seq != handle.seq {
                return;
            }
            let Some(action) = slot.action.take() else {
                return;
            };
            ev.free.push(handle.slot);
            ev.tombstones += 1;
            if 2 * ev.tombstones > ev.heap.len() {
                let purged = ev.compact() as u64;
                self.inner
                    .cancelled_pops
                    .set(self.inner.cancelled_pops.get() + purged);
            }
            action
        };
        // Dropped outside the borrow: a callback's captures may
        // themselves cancel events when dropped.
        drop(action);
    }

    /// Reserve a block of `n` consecutive sequence numbers and return the
    /// first. Events later scheduled with them (through
    /// [`sleep_until_reserved`](Self::sleep_until_reserved)) order
    /// among same-instant events as if they had been scheduled now — how
    /// an arrival injector holds each future arrival's place in the
    /// `(time, seq)` order without keeping one heap entry per arrival.
    pub fn reserve_seqs(&self, n: u64) -> u64 {
        let first = self.inner.seq.get();
        self.inner.seq.set(first + n);
        first
    }

    /// Schedule `f` to run at absolute time `at`.
    pub fn schedule_at(&self, at: SimTime, f: impl FnOnce(&Sim) + 'static) -> EventHandle {
        self.push_event(at, Action::Call(Box::new(f)))
    }

    /// Schedule `f` to run after `d` has elapsed.
    pub fn schedule_in(&self, d: SimDuration, f: impl FnOnce(&Sim) + 'static) -> EventHandle {
        self.schedule_at(self.now() + d, f)
    }

    /// Spawn a simulation process. The future runs on this simulation's
    /// executor; its `Output` is retrievable through the returned
    /// [`JoinHandle`].
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let state = Rc::new(JoinState {
            result: RefCell::new(None),
            waiters: RefCell::new(Vec::new()),
        });
        let st = Rc::clone(&state);
        self.inner.exec.spawn(Box::pin(async move {
            let out = future.await;
            *st.result.borrow_mut() = Some(out);
            for w in st.waiters.borrow_mut().drain(..) {
                w.wake();
            }
        }));
        self.emit_kernel(KernelEvent::TaskSpawned);
        JoinHandle { state }
    }

    /// Future that completes after `d` of virtual time.
    pub fn delay(&self, d: SimDuration) -> Delay {
        self.sleep_until(self.now() + d)
    }

    /// Future that completes at absolute virtual time `deadline` (or
    /// immediately if the deadline has passed).
    pub fn sleep_until(&self, deadline: SimTime) -> Delay {
        Delay {
            sim: self.clone(),
            deadline,
            event: None,
        }
    }

    /// Future that completes at `deadline` through a wake event carrying
    /// `seq`, a number taken earlier from
    /// [`reserve_seqs`](Self::reserve_seqs). Unlike [`Delay`] it always
    /// goes through its event, even when `deadline` is already now: the
    /// reserved slot in the `(time, seq)` order is the point. It cannot
    /// be cancelled, so only a task that awaits it to the end may use it.
    pub fn sleep_until_reserved(&self, deadline: SimTime, seq: u64) -> ReservedSleep {
        assert!(
            seq < self.inner.seq.get(),
            "sequence number {seq} was never reserved"
        );
        ReservedSleep {
            sim: self.clone(),
            deadline,
            seq,
            armed: false,
        }
    }

    /// Pop tombstones off the top of the heap; returns the earliest
    /// live key, left in place.
    fn next_live(&self, ev: &mut Events) -> Option<Key> {
        let mut skipped = 0;
        let next = loop {
            match ev.heap.peek() {
                Some(&key) if Events::is_live(&ev.slots, key) => break Some(key),
                Some(_) => {
                    ev.heap.pop();
                    skipped += 1;
                }
                None => break None,
            }
        };
        ev.tombstones -= skipped;
        self.inner
            .cancelled_pops
            .set(self.inner.cancelled_pops.get() + skipped as u64);
        next
    }

    fn fire_next(&self) -> bool {
        let (key, action) = {
            let mut ev = self.inner.events.borrow_mut();
            let Some(key) = self.next_live(&mut ev) else {
                return false;
            };
            ev.heap.pop();
            ev.free.push(key.slot);
            let action = ev.slots[key.slot as usize].action.take();
            (key, action.expect("live key without an action"))
        };
        debug_assert!(key.at >= self.now());
        self.inner.now.set(key.at);
        self.inner
            .events_fired
            .set(self.inner.events_fired.get() + 1);
        // Fold (time, seq) into the trace fingerprint (FNV-1a style);
        // two runs with the same seed must produce identical hashes.
        let mut h = self.inner.trace_hash.get();
        for word in [key.at.as_nanos(), key.seq] {
            h ^= word;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.inner.trace_hash.set(h);
        match action {
            Action::Wake(w) => {
                self.emit_kernel(KernelEvent::WakeFired);
                w.wake();
            }
            Action::WakeTask(id) => {
                self.emit_kernel(KernelEvent::WakeFired);
                self.inner.exec.wake(id);
            }
            Action::Call(f) => {
                self.emit_kernel(KernelEvent::CallFired);
                f(self);
            }
        }
        true
    }

    /// Run until no ready tasks and no pending events remain.
    pub fn run(&self) {
        loop {
            self.inner.exec.drain_ready();
            if !self.fire_next() {
                break;
            }
        }
    }

    /// Run until virtual time would exceed `until`; the clock finishes at
    /// `min(until, time of last event)`. Events at exactly `until` fire.
    pub fn run_until(&self, until: SimTime) {
        loop {
            self.inner.exec.drain_ready();
            let next = self.next_live(&mut self.inner.events.borrow_mut());
            let Some(Key { at: next_at, .. }) = next else {
                break;
            };
            if next_at > until {
                break;
            }
            self.fire_next();
        }
        if self.now() < until {
            self.inner.now.set(until);
        }
    }

    /// Run for `d` more virtual time.
    pub fn run_for(&self, d: SimDuration) {
        let until = self.now() + d;
        self.run_until(until);
    }

    /// Number of events fired so far (simulation statistic).
    pub fn events_fired(&self) -> u64 {
        self.inner.events_fired.get()
    }

    /// Total processes ever spawned.
    pub fn tasks_spawned(&self) -> u64 {
        self.inner.exec.spawned_total()
    }

    /// Processes that have not finished yet.
    pub fn live_tasks(&self) -> usize {
        self.inner.exec.live_tasks()
    }

    /// Event-core counters so far. They are plain counters kept on
    /// every run, so reading them costs nothing extra.
    pub fn kernel_stats(&self) -> KernelStats {
        KernelStats {
            events_fired: self.events_fired(),
            cancelled_pops: self.inner.cancelled_pops.get(),
            heap_peak: self.inner.heap_peak.get(),
            spawns: self.tasks_spawned(),
            polls: self.inner.exec.polls(),
        }
    }

    /// Timer wake for the current poll: by task id when `cx` is the
    /// polling task's own context, else through a clone of its waker.
    fn timer_action(&self, cx: &Context<'_>) -> Action {
        match self.inner.exec.polling_task(cx.waker()) {
            Some(id) => Action::WakeTask(id),
            None => Action::Wake(cx.waker().clone()),
        }
    }

    /// Order-sensitive fingerprint of every event fired so far. Equal
    /// fingerprints across two runs certify identical schedules.
    pub fn trace_fingerprint(&self) -> u64 {
        self.inner.trace_hash.get()
    }
}

/// Future returned by [`Sim::delay`] / [`Sim::sleep_until`].
///
/// Its first pending poll schedules one wake event. Polled by a task's
/// own context, the event wakes that task by id, which queues it exactly
/// as its waker would; otherwise the event holds a clone of the waker.
/// Dropping an unfired `Delay` (e.g. losing a `select2` race) cancels
/// the event through [`Sim::cancel`]: the event leaves the slab at once,
/// so abandoned timeouts cannot hold the simulation clock hostage, and a
/// dropped timer cannot wake a task that no longer waits on it.
pub struct Delay {
    sim: Sim,
    deadline: SimTime,
    event: Option<EventHandle>,
}

impl Future for Delay {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.deadline {
            self.event = None;
            return Poll::Ready(());
        }
        if self.event.is_none() {
            let action = self.sim.timer_action(cx);
            let handle = self.sim.push_event(self.deadline, action);
            self.event = Some(handle);
        }
        Poll::Pending
    }
}

impl Drop for Delay {
    fn drop(&mut self) {
        if let Some(ev) = self.event.take() {
            self.sim.cancel(ev);
        }
    }
}

/// Future returned by [`Sim::sleep_until_reserved`].
pub struct ReservedSleep {
    sim: Sim,
    deadline: SimTime,
    seq: u64,
    armed: bool,
}

impl Future for ReservedSleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.armed {
            return Poll::Ready(());
        }
        self.armed = true;
        let action = self.sim.timer_action(cx);
        self.sim.push_entry(self.deadline, self.seq, action);
        Poll::Pending
    }
}

struct JoinState<T> {
    result: RefCell<Option<T>>,
    waiters: RefCell<Vec<Waker>>,
}

/// Handle to a spawned process; awaiting it yields the process's output.
///
/// Panics if awaited after the value was already taken by another waiter.
pub struct JoinHandle<T> {
    state: Rc<JoinState<T>>,
}

impl<T> JoinHandle<T> {
    /// True once the process has finished (its result may still be pending
    /// pickup).
    pub fn is_finished(&self) -> bool {
        self.state.result.borrow().is_some()
    }

    /// Take the result without awaiting, if available.
    pub fn try_take(&self) -> Option<T> {
        self.state.result.borrow_mut().take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        if let Some(v) = self.state.result.borrow_mut().take() {
            return Poll::Ready(v);
        }
        self.state.waiters.borrow_mut().push(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod kernel_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration as D;

    #[test]
    fn clock_starts_at_zero() {
        let sim = Sim::new(1);
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn delay_advances_clock() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.delay(D::from_secs(5)).await;
            s.now()
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), SimTime::from_nanos(5_000_000_000));
    }

    #[test]
    fn events_fire_in_time_order_with_fifo_ties() {
        let sim = Sim::new(1);
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let (a, b, c, d) = (log.clone(), log.clone(), log.clone(), log.clone());
        sim.schedule_at(SimTime::from_nanos(20), move |_| a.borrow_mut().push("t20"));
        sim.schedule_at(SimTime::from_nanos(10), move |_| {
            b.borrow_mut().push("t10-first")
        });
        sim.schedule_at(SimTime::from_nanos(10), move |_| {
            c.borrow_mut().push("t10-second")
        });
        sim.schedule_at(SimTime::from_nanos(5), move |_| d.borrow_mut().push("t5"));
        sim.run();
        assert_eq!(*log.borrow(), vec!["t5", "t10-first", "t10-second", "t20"]);
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let sim = Sim::new(1);
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let l = log.clone();
        let h = sim.schedule_in(D::from_secs(1), move |_| l.borrow_mut().push(1));
        let l2 = log.clone();
        sim.schedule_in(D::from_secs(2), move |_| l2.borrow_mut().push(2));
        sim.cancel(h);
        sim.cancel(h);
        sim.run();
        assert_eq!(*log.borrow(), vec![2]);
    }

    #[test]
    fn join_handle_returns_value() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.delay(D::from_millis(3)).await;
            42u32
        });
        let h2 = sim.spawn(async move { h.await * 2 });
        sim.run();
        assert_eq!(h2.try_take(), Some(84));
    }

    #[test]
    fn nested_spawns_and_delays_interleave_correctly() {
        let sim = Sim::new(1);
        let log: Rc<RefCell<Vec<(u64, &'static str)>>> = Rc::default();
        for (name, start, step) in [("a", 0u64, 10u64), ("b", 5, 10)] {
            let s = sim.clone();
            let l = log.clone();
            sim.spawn(async move {
                s.delay(D::from_nanos(start)).await;
                for _ in 0..3 {
                    l.borrow_mut().push((s.now().as_nanos(), name));
                    s.delay(D::from_nanos(step)).await;
                }
            });
        }
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![
                (0, "a"),
                (5, "b"),
                (10, "a"),
                (15, "b"),
                (20, "a"),
                (25, "b")
            ]
        );
    }

    #[test]
    fn run_until_stops_clock_at_bound() {
        let sim = Sim::new(1);
        let fired = Rc::new(Cell::new(0u32));
        let f = fired.clone();
        sim.schedule_at(SimTime::from_nanos(100), move |_| {
            f.set(f.get() + 1);
        });
        sim.run_until(SimTime::from_nanos(50));
        assert_eq!(fired.get(), 0);
        assert_eq!(sim.now(), SimTime::from_nanos(50));
        sim.run_until(SimTime::from_nanos(100));
        assert_eq!(fired.get(), 1);
    }

    #[test]
    fn deterministic_fingerprint_across_runs() {
        fn build_and_run() -> u64 {
            let sim = Sim::new(99);
            for i in 0..50u64 {
                let s = sim.clone();
                sim.spawn(async move {
                    let mut rng = s.rng("proc");
                    for _ in 0..5 {
                        let d = D::from_nanos(rng.u64_below(1000) + i);
                        s.delay(d).await;
                    }
                });
            }
            sim.run();
            sim.trace_fingerprint()
        }
        assert_eq!(build_and_run(), build_and_run());
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let sim = Sim::new(1);
        sim.schedule_at(SimTime::from_nanos(10), |_| {});
        sim.run();
        sim.schedule_at(SimTime::from_nanos(9), |_| {});
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn reserved_wake_in_the_past_panics() {
        let sim = Sim::new(1);
        sim.schedule_at(SimTime::from_nanos(10), |_| {});
        sim.run();
        let seq = sim.reserve_seqs(1);
        let s = sim.clone();
        sim.spawn(async move { s.sleep_until_reserved(SimTime::from_nanos(9), seq).await });
        sim.run();
    }

    #[test]
    fn reserved_seqs_keep_their_place_among_ties() {
        let sim = Sim::new(1);
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let at = SimTime::from_nanos(10);
        let l = log.clone();
        sim.schedule_at(at, move |_| l.borrow_mut().push("before"));
        let seq = sim.reserve_seqs(2);
        let l = log.clone();
        sim.schedule_at(at, move |_| l.borrow_mut().push("after"));
        // Armed last, yet fires in its reserved slots; a reserved wake
        // due right now still goes through its event.
        let (s, l) = (sim.clone(), log.clone());
        sim.spawn(async move {
            s.sleep_until_reserved(at, seq).await;
            l.borrow_mut().push("reserved-0");
            s.sleep_until_reserved(at, seq + 1).await;
            l.borrow_mut().push("reserved-1");
        });
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec!["before", "reserved-0", "reserved-1", "after"]
        );
        assert_eq!(sim.events_fired(), 4);
    }

    #[test]
    #[should_panic(expected = "never reserved")]
    fn unreserved_seq_is_rejected() {
        let sim = Sim::new(1);
        drop(sim.sleep_until_reserved(SimTime::ZERO, 0));
    }

    #[test]
    fn counters_track_activity() {
        let sim = Sim::new(1);
        let s = sim.clone();
        sim.spawn(async move {
            s.delay(D::from_secs(1)).await;
        });
        assert_eq!(sim.live_tasks(), 1);
        sim.run();
        assert_eq!(sim.live_tasks(), 0);
        assert_eq!(sim.tasks_spawned(), 1);
        assert!(sim.events_fired() >= 1);
    }
}
