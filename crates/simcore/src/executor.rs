//! A minimal single-threaded task executor for simulation processes.
//!
//! Simulation processes are plain `async fn`s. They are **not** `Send`:
//! a whole simulation lives on one thread (parallelism in this project
//! happens *across* independent simulations, one per sweep point). The
//! ready queue is a `RefCell<VecDeque>` owned by that thread, so spawns,
//! timer wakes and wakes from the simulation's own thread take no lock:
//!
//! * Spawns and task-id wakes ([`Executor::wake`], used by the event core
//!   for timers armed inside a task poll) push straight onto it.
//! * A [`std::task::Waker`] must be `Send + Sync`, so it cannot hold the
//!   queue itself. It holds the executor's id and reaches the queue
//!   through a thread-local registry of the executors alive on the
//!   current thread.
//! * A waker woken on any other thread finds no registry entry and
//!   pushes to the executor's `Mutex` inbox instead. The executor moves
//!   the inbox into its queue before it polls the next task.
//!
//! On the owning thread the queue is strictly FIFO in wake order.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::task::{Context, RawWakerVTable, Wake, Waker};

/// Identifier of a spawned task (slot index in the task slab).
pub(crate) type TaskId = usize;

/// Ready queue of one executor, shared with this thread's registry.
type ReadyQueue = Rc<RefCell<VecDeque<TaskId>>>;

thread_local! {
    /// Executors alive on this thread, oldest first, with their queues.
    static QUEUES: RefCell<Vec<(u64, ReadyQueue)>> = const { RefCell::new(Vec::new()) };
}

static NEXT_EXECUTOR: AtomicU64 = AtomicU64::new(0);

/// Wakes that arrive from other threads. The ids live under the mutex;
/// `pending` only spares the owning thread a lock per poll. A remote
/// wake sets it (`Release`) after its push, and the owner clears it
/// before taking the lock, so a push it misses leaves the flag set for
/// the next check.
#[derive(Default)]
struct Inbox {
    pending: AtomicBool,
    ids: Mutex<Vec<TaskId>>,
}

impl Inbox {
    fn ids(&self) -> MutexGuard<'_, Vec<TaskId>> {
        // A panic elsewhere cannot leave a `Vec` push half done.
        self.ids.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Waker for one task: waking puts the task id on its executor's queue.
struct TaskWaker {
    id: TaskId,
    exec: u64,
    inbox: Arc<Inbox>,
}

impl TaskWaker {
    fn push(&self) {
        let local = QUEUES
            .try_with(|qs| {
                // Newest first: the running simulation is usually the
                // most recently created one on its thread.
                let qs = qs.borrow();
                let q = qs.iter().rev().find(|(e, _)| *e == self.exec);
                q.map(|(_, q)| q.borrow_mut().push_back(self.id)).is_some()
            })
            .unwrap_or(false);
        if !local {
            self.inbox.ids().push(self.id);
            self.inbox.pending.store(true, Ordering::Release);
        }
    }
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.push();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.push();
    }
}

type LocalFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;

/// One slab slot. `Running` marks a task whose future has been taken out
/// for polling, so that re-entrant `spawn`/`wake` calls from inside the
/// poll cannot alias it.
enum Slot {
    Vacant { next_free: Option<TaskId> },
    Occupied { future: LocalFuture, waker: Waker },
    Running,
}

/// Identity of the waker of the task being polled: its data pointer and
/// vtable, compared the way [`Waker::will_wake`] compares two wakers.
type Polling = (TaskId, *const (), &'static RawWakerVTable);

/// The task slab plus ready queue. Owned by the simulation, `!Send`.
pub(crate) struct Executor {
    id: u64,
    slots: RefCell<Vec<Slot>>,
    free_head: Cell<Option<TaskId>>,
    ready: ReadyQueue,
    inbox: Arc<Inbox>,
    polling: Cell<Option<Polling>>,
    live: Cell<usize>,
    spawned_total: Cell<u64>,
    polls: Cell<u64>,
}

impl Executor {
    pub(crate) fn new() -> Self {
        let id = NEXT_EXECUTOR.fetch_add(1, Ordering::Relaxed);
        let ready = ReadyQueue::default();
        QUEUES.with(|qs| qs.borrow_mut().push((id, Rc::clone(&ready))));
        Executor {
            id,
            slots: RefCell::new(Vec::new()),
            free_head: Cell::new(None),
            ready,
            inbox: Arc::default(),
            polling: Cell::new(None),
            live: Cell::new(0),
            spawned_total: Cell::new(0),
            polls: Cell::new(0),
        }
    }

    /// Number of tasks that have not yet completed.
    pub(crate) fn live_tasks(&self) -> usize {
        self.live.get()
    }

    /// Total tasks ever spawned (simulation statistic).
    pub(crate) fn spawned_total(&self) -> u64 {
        self.spawned_total.get()
    }

    /// Total task polls performed (simulation statistic).
    pub(crate) fn polls(&self) -> u64 {
        self.polls.get()
    }

    /// The task being polled, if `waker` is that task's own waker. A
    /// future polled with any other waker (outside a task poll, or under
    /// a combinator that installs its own) gets `None`.
    pub(crate) fn polling_task(&self, waker: &Waker) -> Option<TaskId> {
        let (id, data, vtable) = self.polling.get()?;
        (waker.data() == data && std::ptr::eq(waker.vtable(), vtable)).then_some(id)
    }

    /// Queue task `id` for polling, exactly as waking its waker on this
    /// thread would. A stale id (the task finished) is ignored when
    /// popped, like a stale waker.
    pub(crate) fn wake(&self, id: TaskId) {
        self.ready.borrow_mut().push_back(id);
    }

    /// Insert a task and mark it ready for its first poll.
    pub(crate) fn spawn(&self, future: LocalFuture) -> TaskId {
        let id = {
            let mut slots = self.slots.borrow_mut();
            match self.free_head.get() {
                Some(id) => {
                    let next = match slots[id] {
                        Slot::Vacant { next_free } => next_free,
                        _ => unreachable!("free list points at non-vacant slot"),
                    };
                    self.free_head.set(next);
                    id
                }
                None => {
                    slots.push(Slot::Vacant { next_free: None });
                    slots.len() - 1
                }
            }
        };
        let waker = Waker::from(Arc::new(TaskWaker {
            id,
            exec: self.id,
            inbox: Arc::clone(&self.inbox),
        }));
        self.slots.borrow_mut()[id] = Slot::Occupied { future, waker };
        self.live.set(self.live.get() + 1);
        self.spawned_total.set(self.spawned_total.get() + 1);
        self.wake(id);
        id
    }

    /// Next task to poll: remote wakes first join the queue's tail.
    fn pop_ready(&self) -> Option<TaskId> {
        if self.inbox.pending.load(Ordering::Acquire) {
            self.inbox.pending.store(false, Ordering::Relaxed);
            self.ready.borrow_mut().extend(self.inbox.ids().drain(..));
        }
        self.ready.borrow_mut().pop_front()
    }

    /// Poll every ready task until the ready queue drains. Tasks spawned
    /// or woken during polling are processed in the same drain (still at
    /// the same virtual time).
    pub(crate) fn drain_ready(&self) {
        while let Some(id) = self.pop_ready() {
            // Take the future out so the slab is not borrowed across the
            // poll (the poll may spawn new tasks or wake this one).
            let taken = {
                let mut slots = self.slots.borrow_mut();
                match &mut slots[id] {
                    slot @ Slot::Occupied { .. } => {
                        let old = std::mem::replace(slot, Slot::Running);
                        match old {
                            Slot::Occupied { future, waker } => Some((future, waker)),
                            _ => unreachable!(),
                        }
                    }
                    // Stale wake for a finished/cancelled task: ignore.
                    Slot::Vacant { .. } => None,
                    // Duplicate wake while the task is mid-poll: the task
                    // will be re-queued by its own waker if still pending;
                    // a duplicate entry is harmless to drop here because
                    // the re-queue happened before we popped this one.
                    Slot::Running => None,
                }
            };
            let Some((mut future, waker)) = taken else {
                continue;
            };
            self.polls.set(self.polls.get() + 1);
            let outer = self
                .polling
                .replace(Some((id, waker.data(), waker.vtable())));
            let mut cx = Context::from_waker(&waker);
            let done = future.as_mut().poll(&mut cx).is_ready();
            self.polling.set(outer);
            if done {
                self.release(id);
            } else {
                self.slots.borrow_mut()[id] = Slot::Occupied { future, waker };
            }
        }
    }

    fn release(&self, id: TaskId) {
        self.slots.borrow_mut()[id] = Slot::Vacant {
            next_free: self.free_head.get(),
        };
        self.free_head.set(Some(id));
        self.live.set(self.live.get() - 1);
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // Wakes after this point go to the inbox, which nobody reads.
        let _ = QUEUES.try_with(|qs| qs.borrow_mut().retain(|(e, _)| *e != self.id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::task::Poll;

    #[test]
    fn spawn_and_complete_immediately_ready_task() {
        let ex = Executor::new();
        let hit = Rc::new(Cell::new(false));
        let h = hit.clone();
        ex.spawn(Box::pin(async move {
            h.set(true);
        }));
        assert_eq!(ex.live_tasks(), 1);
        ex.drain_ready();
        assert!(hit.get());
        assert_eq!(ex.live_tasks(), 0);
    }

    #[test]
    fn slots_are_reused_after_completion() {
        let ex = Executor::new();
        let a = ex.spawn(Box::pin(async {}));
        ex.drain_ready();
        let b = ex.spawn(Box::pin(async {}));
        assert_eq!(a, b, "freed slot should be reused");
        ex.drain_ready();
        assert_eq!(ex.spawned_total(), 2);
    }

    #[test]
    fn task_spawned_during_drain_runs_in_same_drain() {
        struct YieldOnce(bool);
        impl Future for YieldOnce {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.0 {
                    Poll::Ready(())
                } else {
                    self.0 = true;
                    cx.waker().wake_by_ref();
                    Poll::Pending
                }
            }
        }

        let ex = Rc::new(Executor::new());
        let order = Rc::new(RefCell::new(Vec::new()));
        let (o1, o2) = (order.clone(), order.clone());
        let ex2 = Rc::clone(&ex);
        ex.spawn(Box::pin(async move {
            o1.borrow_mut().push("outer");
            ex2.spawn(Box::pin(async move {
                o2.borrow_mut().push("inner");
            }));
            YieldOnce(false).await;
        }));
        ex.drain_ready();
        assert_eq!(*order.borrow(), vec!["outer", "inner"]);
        assert_eq!(ex.live_tasks(), 0);
    }

    #[test]
    fn pending_task_stays_live_until_woken() {
        struct WaitForFlag(Rc<Cell<bool>>, Rc<RefCell<Option<Waker>>>);
        impl Future for WaitForFlag {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.0.get() {
                    Poll::Ready(())
                } else {
                    *self.1.borrow_mut() = Some(cx.waker().clone());
                    Poll::Pending
                }
            }
        }
        let ex = Executor::new();
        let flag = Rc::new(Cell::new(false));
        let waker_cell: Rc<RefCell<Option<Waker>>> = Rc::new(RefCell::new(None));
        ex.spawn(Box::pin(WaitForFlag(flag.clone(), waker_cell.clone())));
        ex.drain_ready();
        assert_eq!(ex.live_tasks(), 1);
        flag.set(true);
        waker_cell.borrow().as_ref().unwrap().wake_by_ref();
        ex.drain_ready();
        assert_eq!(ex.live_tasks(), 0);
    }
}
