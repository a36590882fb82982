//! The deterministic sharded campaign runner.
//!
//! A campaign is `n` independent *cells*; cell `i` is a pure function of
//! its index (each experiment derives the cell's seed from the index, so
//! the cell's result does not depend on which thread runs it or when).
//! The runner's contract, enforced by `tests/shard_invariance.rs`:
//!
//! 1. **Fixed assignment** — cell `i` runs on shard `i mod N`; each
//!    shard walks its cells in ascending index order.
//! 2. **Canonical merge** — results are slotted by cell index and
//!    returned in order `0..n`, so the merged output is byte-identical
//!    for any `N` (including `N = 1`, the old serial path).
//! 3. **Per-thread installation** — the cell's [`CellCtx`] installs the
//!    `simfault` injector (and, for the traced cell, the `simtrace`
//!    tracer) on the worker thread that runs the cell. Both are
//!    thread-local RAII installs, so `--faults` applies to every sweep
//!    worker — the gap the per-figure binaries used to document.

use std::cell::Cell;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Mutex;

use simcore::Sim;
use simfault::FaultPlan;

/// Trace one cell of a campaign: dump a Chrome trace-event file of that
/// cell's first simulation and capture its latency breakdown.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Cell index to trace (cell 0 is the campaign's representative
    /// point — the first parameter-grid entry).
    pub cell: usize,
    /// Chrome trace-event JSON output path.
    pub path: PathBuf,
}

/// How to run a campaign's cells.
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// Worker shards (0 or 1 = serial; the assignment contract makes
    /// the merged output identical either way).
    pub shards: usize,
    /// Fault plan installed around every cell's simulations.
    pub faults: Option<FaultPlan>,
    /// Optional trace capture of one cell.
    pub trace: Option<TraceSpec>,
    /// Bounded-staleness bound override (seconds) for campaigns with a
    /// consistency sweep (`--tau`). Pre-validated positive by the CLI.
    pub tau: Option<f64>,
}

impl RunOpts {
    /// Serial, no faults, no trace.
    pub fn serial() -> Self {
        RunOpts::default()
    }
}

/// Merged outcome of a [`run_cells`] call.
#[derive(Debug)]
pub struct RunOutcome<R> {
    /// Cell results in canonical order `0..n`.
    pub cells: Vec<R>,
    /// Latency breakdown + file note of the traced cell, if any.
    pub trace_summary: Option<String>,
}

/// Per-cell execution context, handed to the cell closure. Experiments
/// create their simulations through [`CellCtx::with_sim`] so the fault
/// plan and tracer are installed on whichever thread runs the cell.
pub struct CellCtx<'a> {
    faults: Option<&'a FaultPlan>,
    trace: Option<&'a TraceSpec>,
    /// Arms tracing for the first `with_sim` of the traced cell only
    /// (a cell may run several sims; the first is its representative).
    trace_armed: Cell<bool>,
    trace_out: Option<&'a Mutex<Option<String>>>,
}

impl<'a> CellCtx<'a> {
    /// A context with no fault plan and no tracing — library callers
    /// outside [`run_cells`] (single-simulation entry points, unit
    /// tests) use this; it makes
    /// `with_sim(seed, f)` exactly `f(&Sim::new(seed))`.
    pub fn detached() -> CellCtx<'static> {
        CellCtx {
            faults: None,
            trace: None,
            trace_armed: Cell::new(false),
            trace_out: None,
        }
    }

    fn for_cell(
        idx: usize,
        opts: &'a RunOpts,
        trace_out: &'a Mutex<Option<String>>,
    ) -> CellCtx<'a> {
        let traced = opts.trace.as_ref().is_some_and(|t| t.cell == idx);
        CellCtx {
            faults: opts.faults.as_ref(),
            trace: opts.trace.as_ref().filter(|_| traced),
            trace_armed: Cell::new(traced),
            trace_out: Some(trace_out),
        }
    }

    /// The fault plan this cell runs under, if any. Experiments use it
    /// to derive stamp-level steady-state fault rates; episode faults
    /// flow through the injector [`with_sim`](Self::with_sim) installs.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults
    }

    /// True if this is the campaign's traced cell (`--trace`). Cells
    /// whose measurement is closed-form (no `Sim` at all, e.g. the
    /// Fig 4 latency draws) use this to run a representative simulated
    /// scenario only when a trace was actually requested.
    pub fn is_traced(&self) -> bool {
        self.trace.is_some()
    }

    /// Create a `Sim`, install the cell's fault plan (and tracer, for
    /// the traced cell's first simulation) on the current thread, and
    /// run `f`. The scenario `f` drives the simulation itself —
    /// including `sim.run()` — exactly as the pre-simlab experiment
    /// code did, so a detached context adds nothing to the event
    /// sequence and the output stays byte-identical.
    pub fn with_sim<R>(&self, seed: u64, f: impl FnOnce(&Sim) -> R) -> R {
        let sim = Sim::new(seed);
        let _faults = self.faults.map(|p| simfault::install(&sim, p));
        if self.trace_armed.replace(false) {
            let spec = self.trace.expect("trace spec armed without spec");
            let tracer = simtrace::Tracer::new(&sim);
            let guard = tracer.install();
            let out = f(&sim);
            // Drain anything the scenario left pending before freezing
            // the trace (run() is a no-op on a drained sim).
            sim.run();
            drop(guard);
            let mut summary = format!("\n{}", tracer.latency_breakdown());
            let json = tracer.chrome_trace();
            match std::fs::write(&spec.path, &json) {
                Ok(()) => summary.push_str(&format!(
                    "[trace: {} spans, {} bytes -> {}]\n",
                    tracer.span_count(),
                    json.len(),
                    spec.path.display()
                )),
                Err(e) => summary.push_str(&format!(
                    "trace: failed to write {}: {e}\n",
                    spec.path.display()
                )),
            }
            if let Some(slot) = self.trace_out {
                *slot.lock().unwrap() = Some(summary);
            }
            out
        } else {
            f(&sim)
        }
    }
}

/// Run `n` cells under `opts`, returning results in canonical order.
///
/// Shard `s` (of `N = max(opts.shards, 1)`) runs cells `s, s+N, s+2N,
/// ...` in ascending order on its own OS thread; results stream back
/// over a channel and are slotted by index. With `N = 1` everything
/// runs on one worker thread in index order — the serial path.
pub fn run_cells<R, F>(n: usize, opts: &RunOpts, f: F) -> RunOutcome<R>
where
    R: Send,
    F: Fn(usize, &CellCtx) -> R + Sync,
{
    let shards = opts.shards.max(1).min(n.max(1));
    let trace_out: Mutex<Option<String>> = Mutex::new(None);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let cells = std::thread::scope(|scope| {
        for s in 0..shards {
            let tx = tx.clone();
            let f = &f;
            let opts = &*opts;
            let trace_out = &trace_out;
            scope.spawn(move || {
                let mut i = s;
                while i < n {
                    let ctx = CellCtx::for_cell(i, opts, trace_out);
                    let r = f(i, &ctx);
                    // Receiver outlives all senders inside the scope.
                    let _ = tx.send((i, r));
                    i += shards;
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        while let Ok((i, r)) = rx.recv() {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("shard dropped a cell result"))
            .collect()
    });
    RunOutcome {
        cells,
        trace_summary: trace_out.into_inner().unwrap(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_come_back_in_canonical_order() {
        // `shards: n` is one thread per cell, the experiments' library
        // sweeps; 0 and 1 cells are the edge cases (0 cells at
        // `shards: 0` is the serial default).
        for n in [0usize, 1, 17] {
            for shards in [1usize, 2, 3, 8, 64, n] {
                let opts = RunOpts {
                    shards,
                    ..RunOpts::default()
                };
                let out = run_cells(n, &opts, |i, _| {
                    // Stagger completion so arrival order differs.
                    std::thread::sleep(std::time::Duration::from_micros(
                        ((n - i) % 5) as u64 * 200,
                    ));
                    i * 10
                });
                assert_eq!(out.cells, (0..n).map(|i| i * 10).collect::<Vec<_>>());
                assert!(out.trace_summary.is_none());
            }
        }
    }

    #[test]
    fn detached_ctx_is_a_plain_sim() {
        let direct = {
            let sim = Sim::new(42);
            let mut rng = sim.rng("x");
            rng.bits()
        };
        let via_ctx = CellCtx::detached().with_sim(42, |sim| {
            let mut rng = sim.rng("x");
            rng.bits()
        });
        assert_eq!(direct, via_ctx);
    }

    #[test]
    fn fault_plan_reaches_every_cell_thread() {
        let opts = RunOpts {
            shards: 4,
            faults: Some(FaultPlan::crash_partition()),
            ..RunOpts::default()
        };
        let out = run_cells(8, &opts, |i, ctx| {
            assert!(ctx.fault_plan().is_some());
            ctx.with_sim(i as u64, |_sim| {
                // The injector is installed on THIS thread: a query
                // inside the crash window must see the fault.
                simfault::enabled()
            })
        });
        assert!(out.cells.iter().all(|&enabled| enabled));
        // And it is uninstalled once the cell is done.
        assert!(!simfault::enabled());
    }

    #[test]
    fn traced_cell_writes_summary_and_file() {
        let dir = std::env::temp_dir().join("simlab-shard-test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("cell.trace.json");
        let opts = RunOpts {
            shards: 2,
            trace: Some(TraceSpec {
                cell: 3,
                path: path.clone(),
            }),
            ..RunOpts::default()
        };
        let out = run_cells(6, &opts, |i, ctx| {
            ctx.with_sim(i as u64, |sim| {
                let s = sim.clone();
                sim.spawn(async move {
                    s.delay(simcore::SimDuration::from_secs(1)).await;
                });
                sim.run();
                i
            })
        });
        assert_eq!(out.cells, vec![0, 1, 2, 3, 4, 5]);
        let summary = out.trace_summary.expect("summary captured");
        assert!(summary.contains(&path.display().to_string()));
        assert!(path.exists());
        let _ = std::fs::remove_file(&path);
    }
}
