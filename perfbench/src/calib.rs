//! A reference kernel that measures how fast the host runs right now.
//!
//! The benchmark's host is shared: over minutes its speed drifts with
//! what other tenants run on the same cores, caches and memory, and
//! thread CPU time follows that drift. The kernel here does a fixed
//! amount of work shaped like a discrete-event kernel's — a binary heap
//! of timed entries plus random read-modify-writes over a 1 MiB table —
//! using only the standard library, so no change to the simulator
//! changes its cost. Timed beside each cell, it tells how much of a
//! cell's time is the host's speed at that moment rather than the
//! simulator's. Variants with an 8 MiB or 32 MiB table, without the
//! cache sweep, or with register-only arithmetic tracked the
//! simulator's slowdowns worse.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::probe::thread_cpu;

/// Entries kept in the heap.
const HEAP_LEN: usize = 1 << 14;
/// Table words touched at random (1 MiB).
const TABLE_LEN: usize = 1 << 17;
/// Pop-and-push steps per sample.
const STEPS: usize = 1 << 15;
/// Untimed steps before each sample, after a sweep over the kernel's
/// state, which bring the state back into the caches the previous cell
/// used.
const WARM_STEPS: usize = 1 << 12;

/// Host CPU seconds one sample takes at the reference host speed:
/// about its median (3.9 ms) on the 2-vCPU Xeon host the first
/// baseline was recorded on.
pub const NOMINAL_S: f64 = 0.004;

/// How much the simulator slows down when this kernel slows down, as
/// an exponent: on the host above, the log of a pass's CPU time rose
/// 1.0–1.3 times as fast as the log of the kernel's time, on every
/// workload (correlation 0.92–0.98), so the simulator's slowdown is
/// taken as the kernel's raised to this power.
pub const SENSITIVITY: f64 = 1.2;

/// The host's speed, as the simulator feels it, relative to the
/// reference host, given one sample's time: below 1 when the host runs
/// slower than the reference.
pub fn speed(sample_s: f64) -> f64 {
    (NOMINAL_S / sample_s).powf(SENSITIVITY)
}

struct State {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    table: Vec<u64>,
    rng: u64,
}

impl State {
    fn new() -> State {
        let mut s = State {
            heap: BinaryHeap::with_capacity(HEAP_LEN + 1),
            table: (0..TABLE_LEN as u64).collect(),
            rng: 0x9E37_79B9_7F4A_7C15,
        };
        for id in 0..HEAP_LEN as u32 {
            let t = s.next();
            s.heap.push(Reverse((t >> 20, id)));
        }
        s
    }

    fn next(&mut self) -> u64 {
        // xorshift64
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// The fixed work: pop the earliest entry, touch the table at two
    /// places derived from it, and push it back later in time.
    fn steps(&mut self, n: usize) -> u64 {
        let mut acc = 0u64;
        for _ in 0..n {
            let Reverse((t, id)) = self.heap.pop().expect("the heap stays full");
            let r = self.next();
            let a = (r as usize ^ id as usize) % TABLE_LEN;
            let b = (r >> 32) as usize % TABLE_LEN;
            self.table[a] = self.table[a].wrapping_add(self.table[b] ^ t);
            acc = acc.wrapping_add(self.table[a]);
            self.heap.push(Reverse((t + (r >> 44), id)));
        }
        acc
    }
}

thread_local! {
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// Host CPU seconds the reference work takes now. The first call on a
/// thread builds the kernel's state, untimed.
pub fn sample() -> f64 {
    STATE.with(|cell| {
        let mut slot = cell.borrow_mut();
        let state = slot.get_or_insert_with(State::new);
        std::hint::black_box(state.table.iter().sum::<u64>());
        std::hint::black_box(state.heap.iter().map(|e| e.0 .0).sum::<u64>());
        std::hint::black_box(state.steps(WARM_STEPS));
        let start = thread_cpu();
        std::hint::black_box(state.steps(STEPS));
        (thread_cpu() - start).as_secs_f64()
    })
}
