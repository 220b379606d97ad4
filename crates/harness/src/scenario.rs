//! The scenario abstraction: name + parameter grid + cell → report.
//!
//! A scenario describes *what* to run — the cells of one evaluation grid
//! and how to reduce their results — while [`crate::runner`] owns *how*
//! they execute. Registering a scenario (see the facade crate's registry)
//! makes it reachable through the single `pcs` CLI with parallel
//! execution, plain-text tables and a JSON report for free; a new
//! experiment is a ~50-line registration instead of a new binary.

use crate::json::Json;

/// Sweep-level knobs every scenario receives from the CLI (or a test).
///
/// Scenarios interpret only the fields that make sense for them and
/// ignore the rest; `None` means "use the scenario's default grid".
#[derive(Debug, Clone, PartialEq)]
pub struct SweepParams {
    /// Base seed; per-cell seeds are derived via [`crate::seed::mix`].
    pub seed: u64,
    /// Worker threads for the sweep (cells are independent runs).
    pub threads: usize,
    /// Tiny-budget mode for CI smoke runs: scenarios shrink horizons,
    /// sampling budgets and grids so a full run finishes in seconds.
    pub smoke: bool,
    /// Override of the scenario's arrival-rate grid, where applicable.
    pub rates: Option<Vec<f64>>,
    /// Override of the repeat count, where applicable (e.g. fig7 timing).
    pub repeats: Option<usize>,
    /// Override of the scenario's technique set, where applicable:
    /// technique names the facade's registry can parse (the CLI validates
    /// them before the plan is built). `None` keeps the scenario's
    /// default grid.
    pub techniques: Option<Vec<String>>,
    /// Override of the hierarchical scheduler's per-group component cap,
    /// where applicable (the `scale` scenario). The CLI rejects 0.
    pub group_cap: Option<usize>,
    /// Override of a scenario's cluster-size grid, where applicable (the
    /// `scale` scenario's node counts). The CLI rejects empty lists and
    /// degenerate sizes.
    pub sizes: Option<Vec<usize>>,
    /// Override of the autoscaler's target utilisation, where applicable
    /// (the `elastic` scenario's aggressiveness presets). The CLI rejects
    /// values outside `(0, 1]`.
    pub target_util: Option<f64>,
    /// Override of the autoscaler's cooldown between scale actions, in
    /// seconds, where applicable (the `elastic` scenario). The CLI
    /// rejects zero, negative and non-finite values.
    pub cooldown_secs: Option<f64>,
    /// Observability layer: when set, every simulated cell runs with the
    /// simulator's `observe` config enabled, retaining this many slowest
    /// request timelines and adding an `observe` section to the cell
    /// metrics. The CLI rejects 0 and scenarios whose metrics are
    /// wall-clock timings ([`Scenario::observe_supported`]).
    pub observe: Option<usize>,
    /// Override of the failure detector's detection latency, in seconds,
    /// where applicable (the `imperfect` scenario's level presets). The
    /// CLI rejects negative and non-finite values.
    pub detector_latency_secs: Option<f64>,
    /// Override of the failure detector's false-positive rate, where
    /// applicable (the `imperfect` scenario). The CLI rejects values
    /// outside `[0, 1]`.
    pub fp_rate: Option<f64>,
    /// Override of the failure detector's false-negative rate, where
    /// applicable (the `imperfect` scenario). The CLI rejects values
    /// outside `[0, 1]`.
    pub fn_rate: Option<f64>,
    /// Override of the prediction-noise sigma applied to the PCS cells,
    /// where applicable (the `imperfect` scenario). The CLI rejects
    /// negative and non-finite values.
    pub noise: Option<f64>,
}

impl Default for SweepParams {
    fn default() -> Self {
        SweepParams {
            seed: 0,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            smoke: false,
            rates: None,
            repeats: None,
            techniques: None,
            group_cap: None,
            sizes: None,
            target_util: None,
            cooldown_secs: None,
            observe: None,
            detector_latency_secs: None,
            fp_rate: None,
            fn_rate: None,
            noise: None,
        }
    }
}

/// The measured output of one cell: ordered metric name/value pairs.
///
/// Every cell of a sweep must report the same metric names in the same
/// order (the table renderer and the JSON report both rely on it).
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Ordered metrics (name → value).
    pub metrics: Vec<(String, Json)>,
}

/// One plannable cell: a label, its grid coordinates, and the closure
/// that runs it.
pub struct CellPlan {
    /// Human-readable cell label (e.g. `PCS @ 200 req/s`).
    pub label: String,
    /// Ordered grid coordinates (name → value), machine-readable.
    pub params: Vec<(String, Json)>,
    /// Runs the cell with the runner-derived seed
    /// (`seed::mix(base_seed, cell_index)`). Scenarios that must replay
    /// one trace across a comparison group derive their own shared seed
    /// from a group key instead and document why.
    #[allow(clippy::type_complexity)]
    pub run: Box<dyn Fn(u64) -> CellResult + Send + Sync>,
}

/// A planned sweep: cells plus an optional cross-cell reduction.
pub struct SweepPlan {
    /// The cells, in deterministic grid order.
    pub cells: Vec<CellPlan>,
    /// Reduces all finished cells into summary metrics (e.g. the paper's
    /// headline reductions). Runs after every cell has finished.
    #[allow(clippy::type_complexity)]
    pub summarize: Option<Box<dyn Fn(&[CellOutcome]) -> Vec<(String, Json)> + Send + Sync>>,
    /// Free-text notes printed after the table (paper reference values).
    pub notes: Vec<String>,
}

/// One finished cell: its plan coordinates plus the measured metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// The plan's label.
    pub label: String,
    /// The plan's grid coordinates.
    pub params: Vec<(String, Json)>,
    /// The measured metrics.
    pub metrics: Vec<(String, Json)>,
}

impl CellOutcome {
    /// Looks up a grid coordinate or metric by name (params first).
    pub fn value(&self, name: &str) -> Option<&Json> {
        self.params
            .iter()
            .chain(self.metrics.iter())
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Numeric lookup convenience.
    pub fn value_f64(&self, name: &str) -> Option<f64> {
        self.value(name).and_then(Json::as_f64)
    }
}

/// An experiment reachable through the `pcs` CLI.
pub trait Scenario: Sync {
    /// Registry name (`pcs run --scenario <name>`).
    fn name(&self) -> &'static str;

    /// One-line description for `pcs list`.
    fn description(&self) -> &'static str;

    /// The base seed used when the CLI is not given `--seed`.
    fn default_seed(&self) -> u64;

    /// Whether this scenario's plan consumes
    /// [`SweepParams::techniques`]. The CLI rejects `--techniques` for
    /// scenarios that would silently ignore it (a report claiming a
    /// technique override that had no effect would poison provenance).
    fn techniques_selectable(&self) -> bool {
        false
    }

    /// Whether this scenario's cells can run with the observability
    /// layer ([`SweepParams::observe`]). Scenarios whose metrics are
    /// wall-clock timings (fig7, the rebuild ablation) override to
    /// `false`: the layer is zero-cost in simulated time but not in real
    /// time, so observe-on runs would perturb exactly what those
    /// scenarios measure. The CLI rejects the combination outright.
    fn observe_supported(&self) -> bool {
        true
    }

    /// Builds the sweep plan for the given parameters. Expensive shared
    /// setup (e.g. training the PCS models) happens here, once, and is
    /// captured by the cell closures.
    fn plan(&self, params: &SweepParams) -> SweepPlan;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_lookup_prefers_params() {
        let cell = CellOutcome {
            label: "x".into(),
            params: vec![("rate".into(), Json::Num(50.0))],
            metrics: vec![("p99 ms".into(), Json::Num(1.25))],
        };
        assert_eq!(cell.value_f64("rate"), Some(50.0));
        assert_eq!(cell.value_f64("p99 ms"), Some(1.25));
        assert_eq!(cell.value_f64("missing"), None);
    }
}
