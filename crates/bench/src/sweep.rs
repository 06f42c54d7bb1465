//! The parallel sweep runner behind every figure harness.
//!
//! A sweep is a (cell × seed) grid of independent deterministic
//! simulations — embarrassingly parallel, in the portfolio/worker style.
//! The pieces:
//!
//! * [`Cell`] — one experiment configuration that can run under any seed.
//!   The simulated cells of [`testbed`](crate::testbed) and the two
//!   pure-workload cells below ([`SitePagesCell`], [`WorkloadStatsCell`])
//!   implement it, so one runner drives every experiment shape.
//! * [`CellError`] / [`SweepError`] — why a run, and so its sweep, failed.
//! * [`SweepSpec`] — the builder: cells, seeds, worker threads.
//! * [`SweepReport`] — results in **canonical (cell, seed) order**,
//!   independent of worker interleaving: workers pull tasks from a shared
//!   atomic cursor (work stealing from one global queue) and tag each
//!   outcome with its grid index, so `threads = 1` and `threads = N`
//!   produce bit-identical reports — asserted by the cross-thread
//!   determinism tests and cheap to re-check in any harness.
//!
//! Worker threads are `std::thread` scoped spawns; the runner adds no
//! dependencies and owns no global state.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use crate::report::Value;
use crate::testbed::{sites_zone, workload_zone, FLEET_MEAN_GAP, ZIPF_EXPONENT};

/// Stable identifier of one sweep cell — keys result rows and stats.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(String);

impl CellId {
    /// Wraps a label (cell ids must be unique within one sweep).
    pub(crate) fn new(label: impl Into<String>) -> CellId {
        CellId(label.into())
    }

    /// The label as a string slice.
    pub(crate) fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// What one (cell, seed) run produced: identity fields every row repeats
/// (transport, reuse, …) and named measurement fields the harness selects
/// columns and statistics from.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Identifying fields, always emitted on every report row.
    pub(crate) identity: Vec<(String, Value)>,
    /// Measured fields, selectable as report columns; numeric ones
    /// ([`Value::as_f64`]) feed the stats layer.
    pub(crate) fields: Vec<(String, Value)>,
}

impl CellOutcome {
    /// Looks up a measurement field by name.
    pub(crate) fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

/// One experiment configuration, runnable under any seed.
///
/// `Sync` because a sweep shares each cell immutably across worker
/// threads; `run` must be deterministic in `seed` (the cross-thread
/// byte-identity guarantee rests on it).
pub trait Cell: Sync {
    /// Stable unique id of this cell within its sweep.
    fn id(&self) -> CellId;

    /// Runs the experiment under `seed`.
    fn run(&self, seed: u64) -> Result<CellOutcome, CellError>;
}

/// Why one (cell, seed) run produced no outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellError {
    /// The simulation ran dry before transaction `txn` was answered.
    DidNotResolve {
        /// The transaction id of the lost resolution.
        txn: u16,
    },
    /// This many wakes of the run reached no registered endpoint.
    UnroutedWakes(u64),
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::DidNotResolve { txn } => write!(f, "transaction {txn} did not resolve"),
            CellError::UnroutedWakes(n) => write!(f, "{n} wakes reached no registered endpoint"),
        }
    }
}

impl std::error::Error for CellError {}

/// The first failed run of a sweep, in canonical (cell, seed) order — as
/// independent of the thread count as the report it replaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// The cell whose run failed.
    pub cell: CellId,
    /// The seed it ran under.
    pub seed: u64,
    /// What went wrong.
    pub source: CellError,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell {} seed {}: {}", self.cell, self.seed, self.source)
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// A pure-workload cell for Figure 1: draws `pages` pages from a seeded
/// [`SiteModel`](dohmark::workload::SiteModel) with Zipf exponent 1 and
/// reports the DNS-queries-per-page distribution —
/// no simulator, no transport; the quantity is a property of the site
/// model alone.
#[derive(Debug, Clone)]
pub struct SitePagesCell {
    /// Site-model universe (distinct sites).
    pub sites: usize,
    /// Pages sampled per run.
    pub pages: usize,
}

impl Cell for SitePagesCell {
    fn id(&self) -> CellId {
        CellId::new(format!("sites={} exponent={ZIPF_EXPONENT:.2}", self.sites))
    }

    fn run(&self, seed: u64) -> Result<CellOutcome, CellError> {
        let mut rng = dohmark::netsim::SimRng::new(seed);
        let mut model =
            dohmark::workload::SiteModel::new(&mut rng, &sites_zone(), self.sites, ZIPF_EXPONENT);
        let mut queries = Vec::with_capacity(self.pages);
        let mut resources = Vec::with_capacity(self.pages);
        let mut depths = Vec::with_capacity(self.pages);
        for _ in 0..self.pages {
            let page = model.next_page();
            queries.push(page.dns_queries() as f64);
            resources.push(page.resources.len() as f64);
            depths.push(page.depth() as f64);
        }
        let [median, p95] = crate::stats::percentiles(&queries, [50.0, 95.0]);
        Ok(CellOutcome {
            identity: vec![
                ("sites".to_string(), Value::U64(self.sites as u64)),
                ("exponent".to_string(), Value::Fixed(ZIPF_EXPONENT, 2)),
                ("pages".to_string(), Value::U64(self.pages as u64)),
            ],
            fields: vec![
                ("mean_queries_per_page".to_string(), Value::fixed2(crate::stats::mean(&queries))),
                ("median_queries_per_page".to_string(), Value::fixed2(median)),
                ("p95_queries_per_page".to_string(), Value::fixed2(p95)),
                (
                    "max_queries_per_page".to_string(),
                    Value::U64(queries.iter().copied().fold(0.0, f64::max) as u64),
                ),
                (
                    "mean_resources_per_page".to_string(),
                    Value::fixed2(crate::stats::mean(&resources)),
                ),
                ("mean_depth".to_string(), Value::fixed2(crate::stats::mean(&depths))),
                (
                    "queries_per_page".to_string(),
                    Value::Array(queries.iter().map(|&q| Value::U64(q as u64)).collect()),
                ),
            ],
        })
    }
}

/// A pure-workload cell for the workload-stats table: generates a seeded
/// [`FleetSchedule`](dohmark::workload::FleetSchedule) of the fleet
/// experiments' shape (200 ms mean gap, Zipf exponent 1, the same zone)
/// and reports its Zipf/fleet summary statistics — total and
/// distinct names, the name-reuse ratio that upper-bounds any cache hit
/// rate, and the schedule's time span.
#[derive(Debug, Clone)]
pub struct WorkloadStatsCell {
    /// Fleet size.
    pub clients: usize,
    /// Queries each client issues.
    pub queries_per_client: usize,
    /// Zipf name-universe size.
    pub universe: usize,
}

impl Cell for WorkloadStatsCell {
    fn id(&self) -> CellId {
        CellId::new(format!("clients={} universe={}", self.clients, self.universe))
    }

    fn run(&self, seed: u64) -> Result<CellOutcome, CellError> {
        use dohmark::netsim::{SimDuration, SimTime};
        let mut rng = dohmark::netsim::SimRng::new(seed);
        let schedule = dohmark::workload::FleetSchedule::generate(
            &mut rng,
            self.clients,
            FLEET_MEAN_GAP,
            self.queries_per_client,
            &workload_zone(),
            self.universe,
            ZIPF_EXPONENT,
        );
        let total = schedule.len();
        let distinct = schedule.distinct_names();
        let span =
            schedule.queries.last().map_or(SimDuration::ZERO, |(at, _, _)| *at - SimTime::ZERO);
        Ok(CellOutcome {
            identity: vec![
                ("clients".to_string(), Value::U64(self.clients as u64)),
                ("queries_per_client".to_string(), Value::U64(self.queries_per_client as u64)),
                ("universe".to_string(), Value::U64(self.universe as u64)),
                ("exponent".to_string(), Value::Fixed(ZIPF_EXPONENT, 2)),
            ],
            fields: vec![
                ("queries".to_string(), Value::U64(total as u64)),
                ("distinct_names".to_string(), Value::U64(distinct as u64)),
                (
                    "reuse_ratio".to_string(),
                    Value::Fixed(1.0 - distinct as f64 / (total as f64).max(1.0), 4),
                ),
                ("span_ms".to_string(), Value::fixed2(span.as_millis_f64())),
            ],
        })
    }
}

/// Builder for one sweep: which cells, which seeds, how many workers.
#[derive(Default)]
pub struct SweepSpec {
    cells: Vec<Box<dyn Cell>>,
    seeds: Vec<u64>,
    threads: usize,
}

impl SweepSpec {
    /// An empty spec (no cells, no seeds, one thread).
    pub fn new() -> SweepSpec {
        SweepSpec { cells: Vec::new(), seeds: Vec::new(), threads: 1 }
    }

    /// Appends one cell.
    pub fn cell(mut self, cell: impl Cell + 'static) -> SweepSpec {
        self.cells.push(Box::new(cell));
        self
    }

    /// Appends already-boxed cells (heterogeneous sweeps).
    pub fn cells(mut self, cells: impl IntoIterator<Item = Box<dyn Cell>>) -> SweepSpec {
        self.cells.extend(cells);
        self
    }

    /// Sets the seed list (replacing any previous one).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> SweepSpec {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Sets the worker-thread count (clamped to ≥ 1). The thread count
    /// affects wall-clock only, never results.
    pub fn threads(mut self, threads: usize) -> SweepSpec {
        self.threads = threads.max(1);
        self
    }

    /// Runs every (cell, seed) task and returns results in canonical
    /// cell-major, seed-minor order — or, if any run failed, the first
    /// failure in that same order (every task still runs, so the error
    /// does not depend on which worker got there first).
    ///
    /// With `threads = 1` the tasks run inline on the caller's thread;
    /// otherwise scoped workers pull task indices from a shared atomic
    /// cursor until the grid is exhausted, and the outcomes are
    /// reassembled by index. A panicking cell propagates to the caller.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one parallel region: seeds fan out to scoped threads and come back in seed order"
    )]
    pub fn run(&self) -> Result<SweepReport, SweepError> {
        let tasks: Vec<(usize, usize)> = (0..self.cells.len())
            .flat_map(|c| (0..self.seeds.len()).map(move |s| (c, s)))
            .collect();
        let run_task = |&(c, s): &(usize, usize)| self.cells[c].run(self.seeds[s]);

        let outcomes: Vec<Result<CellOutcome, CellError>> = if self.threads == 1 {
            tasks.iter().map(run_task).collect()
        } else {
            let cursor = AtomicUsize::new(0);
            let mut slots: Vec<Option<Result<CellOutcome, CellError>>> =
                tasks.iter().map(|_| None).collect();
            let worker = || {
                let mut done = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(task) = tasks.get(i) else { break };
                    done.push((i, run_task(task)));
                }
                done
            };
            thread::scope(|scope| {
                #[expect(
                    clippy::needless_borrows_for_generic_args,
                    reason = "`&worker`, not `worker`: the closure is spawned once per thread, \
                              so it must be borrowed, not moved"
                )]
                let handles: Vec<_> = (0..self.threads.min(tasks.len().max(1)))
                    .map(|_| scope.spawn(&worker))
                    .collect();
                for handle in handles {
                    match handle.join() {
                        Ok(done) => {
                            for (i, outcome) in done {
                                slots[i] = Some(outcome);
                            }
                        }
                        Err(panic) => std::panic::resume_unwind(panic),
                    }
                }
            });
            slots.into_iter().map(|slot| slot.expect("every task ran exactly once")).collect()
        };

        let entries = tasks
            .iter()
            .zip(outcomes)
            .map(|(&(c, s), outcome)| {
                let (cell, seed) = (self.cells[c].id(), self.seeds[s]);
                match outcome {
                    Ok(outcome) => Ok(SweepEntry { cell, seed, outcome }),
                    Err(source) => Err(SweepError { cell, seed, source }),
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(SweepReport { entries })
    }
}

/// One completed (cell, seed) run.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SweepEntry {
    /// The cell that ran.
    pub(crate) cell: CellId,
    /// The seed it ran under.
    pub(crate) seed: u64,
    /// What it measured.
    pub(crate) outcome: CellOutcome,
}

/// All results of one sweep, in canonical (cell, seed) order regardless
/// of how many worker threads produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Cell-major, seed-minor: all seeds of the first cell, then the
    /// second, …
    pub(crate) entries: Vec<SweepEntry>,
}

impl SweepReport {
    /// Distinct cell ids, in first-appearance order.
    pub(crate) fn cells(&self) -> Vec<CellId> {
        let mut cells: Vec<CellId> = Vec::new();
        for entry in &self.entries {
            if !cells.contains(&entry.cell) {
                cells.push(entry.cell.clone());
            }
        }
        cells
    }

    /// One cell's samples of a numeric metric, in seed order — what the
    /// stats layer summarises.
    pub(crate) fn metric(&self, cell: &CellId, field: &str) -> Vec<f64> {
        self.entries
            .iter()
            .filter(|e| &e.cell == cell)
            .filter_map(|e| e.outcome.field(field).and_then(Value::as_f64))
            .collect()
    }
}
