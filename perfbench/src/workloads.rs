//! The benchmark's four workloads, each built from the scenario
//! constructors the `pcs` CLI itself uses, so the benchmark measures the
//! program's own cells rather than look-alikes.

use pcs::controller::PcsController;
use pcs::core::{ClassModelSet, MatrixConfig, SchedulerConfig};
use pcs::experiments::fig6::{self, Fig6Config};
use pcs::scenarios::scale;
use pcs::sim::{DeploymentConfig, FaultPlan, SimConfig};
use pcs::techniques::{self, TechniqueRef};
use pcs::types::{NodeCapacity, PcsError, SimTime};

/// Arrival rate of the fig6 cell (req/s).
const PAPER_RATE: f64 = 200.0;

/// Cluster size of the scale cell.
const SCALE_NODES: usize = 400;

/// Migrations per interval the scale cell's PCS may order. Unbudgeted
/// flat PCS can spend minutes on one interval at 400 nodes (see
/// `NOTES.md`), which no benchmark run can wait for.
const SCALE_MIGRATION_BUDGET: usize = 16;

/// Rate and cluster of the `failures-rolling` cell.
const ROLLING_RATE: f64 = 100.0;
const ROLLING_NODES: usize = 6;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's fig6 cell at 200 req/s under PCS.
    Paper200,
    /// The 400-node deep-chain diurnal scale cell under flat PCS with a
    /// migration budget.
    Scale400,
    /// The `failures-rolling` cell under PCS.
    RollingRestart,
    /// The fig6 cell at 200 req/s under RED-3 (no scheduler hook).
    Red3x200,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Paper200,
        Workload::Scale400,
        Workload::RollingRestart,
        Workload::Red3x200,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper200 => "paper-200",
            Workload::Scale400 => "scale-400",
            Workload::RollingRestart => "rolling-restart",
            Workload::Red3x200 => "red3-200",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario's own default seed.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Paper200 | Workload::Red3x200 => Fig6Config::default().seed,
            Workload::Scale400 | Workload::RollingRestart => 62020,
        }
    }

    /// The registry name of the workload's technique.
    pub fn technique_name(self) -> &'static str {
        match self {
            Workload::Red3x200 => "red-3",
            Workload::Scale400 => "pcs-b16",
            Workload::Paper200 | Workload::RollingRestart => "pcs",
        }
    }

    /// The per-interval migration budget of the workload's PCS, if any.
    pub fn migration_budget(self) -> Option<usize> {
        (self == Workload::Scale400).then_some(SCALE_MIGRATION_BUDGET)
    }

    /// The workload's technique from the registry.
    pub fn technique(self) -> TechniqueRef {
        techniques::parse(self.technique_name()).expect("registered technique")
    }

    /// Whether the technique runs a scheduler hook (RED-3 does not).
    pub fn has_hook(self) -> bool {
        self != Workload::Red3x200
    }

    /// Cells per run. A run measures this many copies of the
    /// workload's cell, each on its own seed ([`cell_seed`]), so its
    /// figures are medians over inputs as well as over host noise; the
    /// count keeps one pass over the cells to about 20 s.
    pub fn cells(self) -> usize {
        match self {
            Workload::Paper200 => 32,
            Workload::Scale400 | Workload::Red3x200 => 16,
            Workload::RollingRestart => 20,
        }
    }

    /// The workload's simulation config for a base seed. `smoke` shrinks
    /// it to test size (8 searching VMs, a fifth of the horizon, a
    /// 40-node scale cell) without changing its shape.
    pub fn config(self, seed: u64, smoke: bool) -> SimConfig {
        let fig6 = fig6_config(seed, smoke);
        let mut config = match self {
            Workload::Paper200 | Workload::Red3x200 => fig6::cell_config(&fig6, PAPER_RATE),
            Workload::Scale400 => {
                let nodes = if smoke {
                    scale::SMOKE_NODES
                } else {
                    SCALE_NODES
                };
                scale::bench_config(nodes, 0, smoke, seed)
            }
            Workload::RollingRestart => {
                // The `failures-rolling` cell: a doubled horizon and one
                // restart wave over every node, starting 5 % into the
                // measured span, one node every 15 %, each down for 10 %.
                let fig6 = Fig6Config {
                    horizon_scale: fig6.horizon_scale * 2.0,
                    ..fig6
                };
                let mut config = fig6::cell_config(&fig6, ROLLING_RATE);
                config.node_count = ROLLING_NODES;
                let measured = config.horizon - config.warmup;
                config.faults = FaultPlan::rolling_restart(
                    ROLLING_NODES,
                    SimTime::ZERO + config.warmup + measured.mul_f64(0.05),
                    measured.mul_f64(0.15),
                    measured.mul_f64(0.10),
                );
                config
            }
        };
        // As `fig6::run_cell` does: the deployment follows the technique.
        let technique = self.technique();
        config.deployment = DeploymentConfig {
            replication: technique.replication(),
        };
        if let Some(placement) = technique.placement() {
            config.placement = placement;
        }
        config
    }

    /// Trains the Eq. 1 class models the workload's scenario trains
    /// (one campaign over the shared Nutch class list).
    ///
    /// # Errors
    /// Propagates a failed training campaign.
    pub fn train(self, seed: u64, smoke: bool) -> Result<ClassModelSet, PcsError> {
        let topology = fig6::topology(fig6_config(seed, smoke).search_vm_budget);
        PcsController::train_for(&topology, NodeCapacity::XEON_E5645, seed)
    }
}

/// The seed of cell `index` of a run on base seed `seed`. Cell 0 is the
/// scenario's own cell for that seed.
pub fn cell_seed(seed: u64, index: usize) -> u64 {
    if index == 0 {
        seed
    } else {
        pcs_harness::seed::mix(seed, index as u64)
    }
}

/// The fig6 sweep config the scenarios derive their cells from.
fn fig6_config(seed: u64, smoke: bool) -> Fig6Config {
    let mut config = Fig6Config {
        seed,
        ..Fig6Config::default()
    };
    if smoke {
        config.search_vm_budget = 8;
        config.horizon_scale = 0.2;
    }
    config
}

/// The PCS migration threshold every workload runs with (fig6's).
pub fn epsilon_secs() -> f64 {
    Fig6Config::default().epsilon_secs
}

/// A PCS controller built directly, with the settings the registry's
/// `pcs` (no budget) or `pcs-b<n>` technique uses.
pub fn pcs_controller(models: ClassModelSet, max_migrations: Option<usize>) -> PcsController {
    PcsController::new(
        models,
        SchedulerConfig {
            epsilon_secs: epsilon_secs(),
            max_migrations,
            full_rebuild: false,
        },
        MatrixConfig::default(),
    )
}
