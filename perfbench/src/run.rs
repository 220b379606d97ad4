//! One benchmark run: set-ups and simulations of a workload's cells,
//! untraced (end-to-end metrics) or each also traced (per-layer
//! metrics), with the output checks.

use crate::probe::{Mode, Outcomes, Probe, Tally, TimedHook, TimedPolicy};
use crate::workloads::{cell_seed, epsilon_secs, pcs_controller, Workload};
use pcs::baselines::RedundancyPolicy;
use pcs::core::ClassModelSet;
use pcs::sim::{
    BasicPolicy, DispatchPolicy, NoopScheduler, RunReport, SchedulerHook, SimConfig, Simulation,
};
use pcs::techniques::TechniqueEnv;
use pcs::types::PcsError;
use std::time::{Duration, Instant};

/// Fewest set-ups a run times for the `setup_s` median.
const MIN_SETUPS: usize = 30;

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Base seed of the workload's inputs.
    pub seed: u64,
    /// Measuring time (s).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Host time of one set-up, split by layer, with the host's speed at
/// the time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// `PcsController::train_for`.
    pub train: Duration,
    /// `Simulation::new`.
    pub sim_new: Duration,
    /// The [`calibrate`] kernel's host time measured next to it (s).
    pub cal: f64,
}

impl Setup {
    /// The whole set-up.
    pub fn total(&self) -> Duration {
        self.train + self.sim_new
    }
}

/// One set-up plus simulation of one cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Which of the workload's cells ran.
    pub index: usize,
    /// Whether the wrappers traced it.
    pub traced: bool,
    /// Set-up time.
    pub setup: Setup,
    /// Host time of `Simulation::run`.
    pub wall: Duration,
    /// The run's report.
    pub report: RunReport,
    /// What the wrappers recorded.
    pub tally: Tally,
}

/// A fixed kernel outside the program, bound by memory and branches
/// like the simulator: sorts 300k pseudo-random words and returns its
/// host time (s). Run next to every set-up and simulation, it measures
/// the host's speed at that moment (see `NOTES.md`).
pub fn calibrate() -> f64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut v: Vec<u32> = (0..300_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        })
        .collect();
    let started = Instant::now();
    v.sort_unstable();
    std::hint::black_box(&v);
    started.elapsed().as_secs_f64()
}

/// Everything one benchmark run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Cells per run of the workload.
    pub cells: usize,
    /// Every cell run, in the order they ran.
    pub runs: Vec<Cell>,
    /// Extra set-ups timed for the `setup_s` median.
    pub extra_setups: Vec<Setup>,
    /// Simulations run, the registry check's included.
    pub attempted: u64,
    /// What each failed check found.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Every timed set-up.
    pub fn setups(&self) -> impl Iterator<Item = Setup> + '_ {
        self.runs
            .iter()
            .map(|c| c.setup)
            .chain(self.extra_setups.iter().copied())
    }

    /// Per cell, its runs of one kind, in the order they ran.
    pub fn by_cell(&self, traced: bool) -> Vec<Vec<&Cell>> {
        let mut out = vec![Vec::new(); self.cells];
        for c in self.runs.iter().filter(|c| c.traced == traced) {
            out[c.index].push(c);
        }
        out
    }

    /// The first run of every cell of one kind, in cell order.
    pub fn firsts(&self, traced: bool) -> Vec<&Cell> {
        self.by_cell(traced)
            .into_iter()
            .filter_map(|runs| runs.first().copied())
            .collect()
    }
}

/// A report's identity: `Debug` prints every field, floats exactly.
pub fn fingerprint(report: &RunReport) -> String {
    format!("{report:?}")
}

/// Builds the workload's simulation with the technique constructed
/// directly. `probe` wraps both layers in timing wrappers; `None` runs
/// them bare. An untraced probe leaves the policy bare unless the
/// technique has no hook, whose dispatch decisions then stand in for
/// `decision_ms`.
pub fn simulation(
    workload: Workload,
    config: SimConfig,
    models: ClassModelSet,
    probe: Option<&Probe>,
) -> Simulation {
    if workload.has_hook() {
        let hook = pcs_controller(models, workload.migration_budget());
        wrapped(config, BasicPolicy, hook, probe, false)
    } else {
        wrapped(config, RedundancyPolicy::new(3), NoopScheduler, probe, true)
    }
}

fn wrapped<P, H>(
    config: SimConfig,
    policy: P,
    hook: H,
    probe: Option<&Probe>,
    sample_dispatch: bool,
) -> Simulation
where
    P: DispatchPolicy + 'static,
    H: SchedulerHook + Outcomes + 'static,
{
    let (policy, hook): (Box<dyn DispatchPolicy>, Box<dyn SchedulerHook>) = match probe {
        None => (Box::new(policy), Box::new(hook)),
        Some(p) => {
            let hook = Box::new(TimedHook::new(hook, p.clone()));
            if p.mode == Mode::Full || sample_dispatch {
                (Box::new(TimedPolicy::new(policy, p.clone())), hook)
            } else {
                (Box::new(policy), hook)
            }
        }
    };
    Simulation::new(config, policy, hook)
}

/// The same cell through the technique registry, unwrapped.
pub fn registry_simulation(
    workload: Workload,
    config: SimConfig,
    models: &ClassModelSet,
) -> Simulation {
    let technique = workload.technique();
    let env = TechniqueEnv {
        models,
        epsilon_secs: epsilon_secs(),
    };
    Simulation::new(config, technique.make_policy(), technique.make_hook(&env))
}

/// Sets up and runs one cell, recording into a fresh probe.
fn run_cell(
    workload: Workload,
    config: &SimConfig,
    seed: u64,
    index: usize,
    mode: Mode,
    epoch: Instant,
) -> Result<Cell, PcsError> {
    let probe = Probe::new(mode, epoch);
    let started = Instant::now();
    let models = workload.train(seed, false)?;
    let train = started.elapsed();
    let started = Instant::now();
    let sim = simulation(workload, config.clone(), models, Some(&probe));
    let sim_new = started.elapsed();
    let set_up_at = probe.micros(started);

    let cal_before = calibrate();
    let started = Instant::now();
    let report = sim.run();
    let wall = started.elapsed();
    let cal = (cal_before + calibrate()) / 2.0;
    probe.finish();
    if mode == Mode::Full {
        let mut tally = probe.tally.borrow_mut();
        let train_us = train.as_secs_f64() * 1e6;
        let sim_new_us = sim_new.as_secs_f64() * 1e6;
        let setup = tally.span("setup", 0, set_up_at - train_us, train_us + sim_new_us);
        tally.span("train", setup, set_up_at - train_us, train_us);
        tally.span("sim_new", setup, set_up_at, sim_new_us);
        let run_us = wall.as_secs_f64() * 1e6;
        tally.span("run", 0, probe.micros(started), run_us);
    }
    let tally = probe.tally.take();
    Ok(Cell {
        index,
        traced: mode == Mode::Full,
        setup: Setup {
            train,
            sim_new,
            cal,
        },
        wall,
        report,
        tally,
    })
}

/// Runs the benchmark: the workload's cells in turn (each untraced, and
/// in a traced run each followed by its traced run, so host speed drift
/// hits both halves of `trace.overhead_frac` alike), cycling until every
/// cell has run and `seconds` have passed; then the output checks.
///
/// # Errors
/// Propagates a failed training campaign.
pub fn run(options: &Options) -> Result<Outcome, PcsError> {
    let workload = options.workload;
    let cells = workload.cells();
    let configs: Vec<SimConfig> = (0..cells)
        .map(|j| workload.config(cell_seed(options.seed, j), false))
        .collect();
    let kinds = if options.trace { 2 } else { 1 };
    let epoch = Instant::now();
    let mut runs: Vec<Cell> = Vec::new();
    let mut step = 0;
    // Every cell at least once per kind, and cell 0 untraced twice, for
    // the repeat check.
    while step < (cells + 1) * kinds || epoch.elapsed().as_secs_f64() < options.seconds {
        let index = (step / kinds) % cells;
        let mode = if step % kinds == 1 {
            Mode::Full
        } else {
            Mode::Light
        };
        runs.push(run_cell(
            workload,
            &configs[index],
            options.seed,
            index,
            mode,
            epoch,
        )?);
        step += 1;
    }

    let mut extra_setups = Vec::new();
    while runs.len() + extra_setups.len() < MIN_SETUPS {
        let started = Instant::now();
        let models = workload.train(options.seed, false)?;
        let train = started.elapsed();
        let started = Instant::now();
        let sim = simulation(workload, configs[0].clone(), models, None);
        let sim_new = started.elapsed();
        drop(sim);
        let cal = calibrate();
        extra_setups.push(Setup {
            train,
            sim_new,
            cal,
        });
    }

    let models = workload.train(options.seed, false)?;
    let registry = registry_simulation(workload, configs[0].clone(), &models).run();
    let outcome = Outcome {
        cells,
        attempted: runs.len() as u64 + 1,
        runs,
        extra_setups,
        failures: Vec::new(),
    };
    let failures = check(&outcome, &registry);
    Ok(Outcome {
        failures,
        ..outcome
    })
}

/// The output checks: every run of a cell, traced or not, gives the same
/// report; the registry's run of cell 0 matches the direct build; and
/// every traced run of a cell counts the same calls into each layer.
fn check(outcome: &Outcome, registry: &RunReport) -> Vec<String> {
    let mut failures = Vec::new();
    let firsts = outcome.firsts(false);
    for c in &outcome.runs {
        if fingerprint(&c.report) != fingerprint(&firsts[c.index].report) {
            let kind = if c.traced { "a traced" } else { "an untraced" };
            failures.push(format!("{kind} run of cell {} reported otherwise", c.index));
        }
    }
    if fingerprint(registry) != fingerprint(&firsts[0].report) {
        failures.push("the registry technique's report differs from the direct build".into());
    }
    let counts = |t: &Tally| {
        [
            t.hook_calls,
            t.hook_orders,
            t.samples_in,
            t.greedy_iterations,
            t.greedy_decisions,
            t.evacuations,
            t.policy_calls,
            t.observe_calls,
        ]
    };
    for runs in outcome.by_cell(true) {
        for c in runs.iter().skip(1) {
            if counts(&c.tally) != counts(&runs[0].tally) {
                failures.push(format!(
                    "traced runs of cell {} counted other layer calls",
                    c.index
                ));
            }
        }
    }
    failures
}
