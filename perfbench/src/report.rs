//! Turning a run's [`Outcome`] into the metrics line, the per-layer
//! table and the Chrome trace.

use crate::run::{Cell, Outcome};
use crate::workloads::Workload;
use pcs_harness::Json;
use std::time::Duration;

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The median of `values` (mean of the middle two on an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `(0, 1]`) of `values`.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Host time of the [`crate::run::calibrate`] kernel on the reference
/// host speed end-to-end times are scaled to (s).
pub const CAL_REF_S: f64 = 0.006;

/// Host seconds `secs`, measured while the calibration kernel took
/// `cal` seconds, scaled to the reference host speed.
pub fn scaled(secs: f64, cal: f64) -> f64 {
    secs * CAL_REF_S / cal
}

/// Per cell, the median of `f` over its runs of one kind.
fn per_cell(outcome: &Outcome, traced: bool, f: impl Fn(&Cell) -> f64) -> Vec<f64> {
    outcome
        .by_cell(traced)
        .iter()
        .filter(|runs| !runs.is_empty())
        .map(|runs| median(&runs.iter().map(|c| f(c)).collect::<Vec<_>>()))
        .collect()
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The decision samples of every cell's first untraced run, scaled to
/// the reference host speed.
pub fn decisions(outcome: &Outcome) -> Vec<f64> {
    outcome
        .firsts(false)
        .into_iter()
        .flat_map(|c| {
            c.tally
                .decision_ms
                .iter()
                .map(|&ms| scaled(ms, c.setup.cal))
        })
        .collect()
}

/// The process's peak resident set (MB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run. Times are scaled to the
/// reference host speed. Set-up is the median over every set-up, wall
/// time the median over cells of each cell's median over its runs, and
/// the decision percentiles pool every cell's decisions. The simulated
/// metrics (identical in every run of a cell) are medians over cells.
pub fn end_to_end(outcome: &Outcome) -> Vec<Metric> {
    let setups: Vec<f64> = outcome
        .setups()
        .map(|s| scaled(secs(s.total()), s.cal))
        .collect();
    let walls = per_cell(outcome, false, |c| scaled(secs(c.wall), c.setup.cal));
    let decisions = decisions(outcome);
    let firsts = outcome.firsts(false);
    let sim = |f: &dyn Fn(&Cell) -> f64| median(&firsts.iter().map(|c| f(c)).collect::<Vec<_>>());
    vec![
        metric("setup_s", median(&setups), "s"),
        metric("wall_s", median(&walls), "s"),
        metric("decision_ms_p50", percentile(&decisions, 0.50), "ms"),
        metric("decision_ms_p90", percentile(&decisions, 0.90), "ms"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("sim_p99_ms", sim(&|c| c.report.component_p99_ms()), "ms"),
        metric("sim_mean_ms", sim(&|c| c.report.overall_mean_ms()), "ms"),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run, per cell: counts are means
/// over cells of each cell's first traced run (the checks hold every
/// traced run of a cell to the same counts); times are host seconds,
/// unscaled, the mean over cells of each cell's median over its traced
/// runs.
pub fn per_layer(outcome: &Outcome) -> Vec<Metric> {
    let head = outcome.firsts(true);
    assert!(!head.is_empty(), "a traced run holds traced cells");
    let count =
        |f: &dyn Fn(&Cell) -> u64| mean(&head.iter().map(|c| f(c) as f64).collect::<Vec<_>>());
    let time = |f: &dyn Fn(&Cell) -> Duration| mean(&per_cell(outcome, true, |c| secs(f(c))));
    let frac =
        |num: &dyn Fn(&Cell) -> u64, den: &dyn Fn(&Cell) -> u64| ratio(count(num), count(den));

    let wall = time(&|c| c.wall);
    let untraced_wall = mean(&per_cell(outcome, false, |c| secs(c.wall)));
    let host_wall = |traced: bool| per_cell(outcome, traced, |c| scaled(secs(c.wall), c.setup.cal));
    let overhead: Vec<f64> = host_wall(true)
        .iter()
        .zip(host_wall(false))
        .map(|(t, u)| t / u - 1.0)
        .collect();
    let cals: Vec<f64> = outcome.setups().map(|s| s.cal).collect();
    let hook_busy = time(&|c| c.tally.hook_busy);
    let policy_busy = time(&|c| c.tally.policy_busy);
    let matrix = time(&|c| c.tally.matrix_build);
    let greedy = time(&|c| c.tally.greedy_search);
    let inputs = mean(&per_cell(outcome, true, |c| {
        secs(c.tally.hook_busy) - secs(c.tally.matrix_build) - secs(c.tally.greedy_search)
    }));
    let train: Vec<f64> = outcome.setups().map(|s| secs(s.train)).collect();
    let sim_new: Vec<f64> = outcome.setups().map(|s| secs(s.sim_new)).collect();
    let events = count(&|c| c.report.events_processed);
    let cost = |c: &Cell| c.report.scheduler_cost.unwrap_or_default();
    let requests = |c: &Cell| {
        let s = &c.report.stats;
        s.requests_completed + s.requests_censored + c.report.faults.stats.requests_lost
    };
    let evacuation_ms = mean(
        &head
            .iter()
            .map(|c| c.report.faults.evacuation_ms().unwrap_or(0.0))
            .collect::<Vec<_>>(),
    );
    vec![
        metric("engine.events", events, "count"),
        metric("engine.events_per_s", ratio(events, untraced_wall), "1/s"),
        metric("world.self_s", wall - hook_busy - policy_busy, "s"),
        metric("world.requests", count(&requests), "count"),
        metric(
            "world.executions",
            count(&|c| c.report.stats.executions),
            "count",
        ),
        metric(
            "world.wasted_frac",
            frac(&|c| c.report.stats.wasted_executions, &|c| {
                c.report.stats.executions
            }),
            "frac",
        ),
        metric(
            "world.cancelled",
            count(&|c| c.report.stats.cancelled_duplicates),
            "count",
        ),
        metric(
            "world.reissues",
            count(&|c| c.report.stats.reissues),
            "count",
        ),
        metric(
            "world.migrations",
            count(&|c| c.report.stats.migrations),
            "count",
        ),
        metric(
            "world.batch_jobs",
            count(&|c| c.report.stats.batch_jobs_started),
            "count",
        ),
        metric("policy.calls", count(&|c| c.tally.policy_calls), "count"),
        metric("policy.busy_s", policy_busy, "s"),
        metric(
            "policy.observe_calls",
            count(&|c| c.tally.observe_calls),
            "count",
        ),
        metric("controller.calls", count(&|c| c.tally.hook_calls), "count"),
        metric(
            "controller.analysed",
            count(&|c| cost(c).intervals),
            "count",
        ),
        metric("controller.busy_s", hook_busy, "s"),
        metric(
            "controller.orders",
            count(&|c| c.tally.hook_orders),
            "count",
        ),
        metric(
            "controller.samples_in",
            count(&|c| c.tally.samples_in),
            "count",
        ),
        metric("controller.inputs_s", inputs, "s"),
        metric(
            "controller.evacuations",
            count(&|c| c.tally.evacuations),
            "count",
        ),
        metric("matrix.build_s", matrix, "s"),
        metric("matrix.builds", count(&|c| cost(c).matrix_builds), "count"),
        metric(
            "matrix.refreshes",
            count(&|c| cost(c).matrix_refreshes),
            "count",
        ),
        metric(
            "matrix.entries",
            count(&|c| cost(c).entries_recomputed),
            "count",
        ),
        metric(
            "matrix.recompute_frac",
            frac(&|c| cost(c).entries_recomputed, &|c| cost(c).entries_total),
            "frac",
        ),
        metric("greedy.search_s", greedy, "s"),
        metric(
            "greedy.iterations",
            count(&|c| c.tally.greedy_iterations),
            "count",
        ),
        metric(
            "greedy.decisions",
            count(&|c| c.tally.greedy_decisions),
            "count",
        ),
        metric(
            "greedy.accept_frac",
            frac(&|c| c.tally.greedy_decisions, &|c| {
                c.tally.greedy_iterations
            }),
            "frac",
        ),
        metric(
            "faults.kills",
            count(&|c| c.report.faults.stats.kills),
            "count",
        ),
        metric(
            "faults.orphaned",
            count(&|c| c.report.faults.stats.orphaned),
            "count",
        ),
        metric(
            "faults.evacuated",
            count(&|c| c.report.faults.stats.evacuated),
            "count",
        ),
        metric(
            "faults.failed_over",
            count(&|c| c.report.faults.stats.failed_over),
            "count",
        ),
        metric(
            "faults.requests_lost",
            count(&|c| c.report.faults.stats.requests_lost),
            "count",
        ),
        metric(
            "faults.lost_frac",
            frac(&|c| c.report.faults.stats.requests_lost, &requests),
            "frac",
        ),
        metric("faults.evacuation_ms", evacuation_ms, "ms"),
        metric("setup.train_s", median(&train), "s"),
        metric("setup.sim_new_s", median(&sim_new), "s"),
        metric("trace.wall_s", wall, "s"),
        metric("host.cal_ms", median(&cals) * 1e3, "ms"),
        metric("trace.overhead_frac", median(&overhead), "frac"),
    ]
}

/// The metrics line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::object(vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::from(m.unit)),
                ]),
            )
        })
        .collect();
    Json::object(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::from(attempted)),
        ("failed".to_string(), Json::from(failed)),
        ("metrics".to_string(), Json::Object(metrics)),
    ])
    .render()
}

/// The per-layer table of a traced run, with the share of the traced
/// wall time each layer took and the check of the layer the workload
/// was chosen to stress.
pub fn layer_table(workload: Workload, metrics: &[Metric]) -> String {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let wall = get("trace.wall_s");
    let share = |s: f64| 100.0 * ratio(s, wall);
    let mut out = format!("layer table: {} (traced)\n", workload.name());
    for (layer, busy) in [
        ("world (self)", get("world.self_s")),
        ("policy", get("policy.busy_s")),
        ("controller", get("controller.busy_s")),
        ("  inputs", get("controller.inputs_s")),
        ("  matrix", get("matrix.build_s")),
        ("  greedy", get("greedy.search_s")),
    ] {
        out += &format!("  {layer:<14} {busy:>10.4} s {:>6.1} %\n", share(busy));
    }
    out += &format!(
        "  {:<14} {:>10.4} s  events {:.0}, trace.overhead_frac {:.4}\n",
        "wall",
        wall,
        get("engine.events"),
        get("trace.overhead_frac")
    );
    let (claim, holds) = match workload {
        Workload::Paper200 => (
            "world.self_s >= 60 % of wall",
            get("world.self_s") >= 0.6 * wall,
        ),
        Workload::Scale400 => (
            "controller.busy_s >= 60 % of wall, matrix.build_s > greedy.search_s",
            get("controller.busy_s") >= 0.6 * wall
                && get("matrix.build_s") > get("greedy.search_s"),
        ),
        Workload::RollingRestart => (
            "greedy.search_s > matrix.build_s",
            get("greedy.search_s") > get("matrix.build_s"),
        ),
        Workload::Red3x200 => ("controller.calls = 0", get("controller.calls") == 0.0),
    };
    out += &format!(
        "  chosen layer: {claim}: {}\n",
        if holds { "holds" } else { "MISSED" }
    );
    out
}

/// Every cell's first traced run as a Chrome trace-event document (load it in
/// Perfetto or `chrome://tracing`): one complete (`X`) event per span —
/// set-up, the run, each hook call with its matrix-build and
/// greedy-search children — and the policy layer as counter (`C`)
/// events.
pub fn chrome_trace(workload: Workload, outcome: &Outcome) -> Json {
    let kv = |k: &str, v: Json| (k.to_string(), v);
    let mut events = vec![Json::object(vec![
        kv("name", Json::from("process_name")),
        kv("ph", Json::from("M")),
        kv("pid", Json::from(0u64)),
        kv("tid", Json::from(0u64)),
        kv(
            "args",
            Json::object(vec![kv("name", Json::from(workload.name()))]),
        ),
    ])];
    let traced = outcome.firsts(true);
    for (cell, span) in traced
        .iter()
        .flat_map(|c| c.tally.spans.iter().map(move |s| (c.index, s)))
    {
        events.push(Json::object(vec![
            kv("name", Json::from(span.name)),
            kv("cat", Json::from("perfbench")),
            kv("ph", Json::from("X")),
            kv("ts", Json::Num(span.start_us)),
            kv("dur", Json::Num(span.dur_us)),
            kv("pid", Json::from(0u64)),
            kv("tid", Json::from(0u64)),
            kv(
                "args",
                Json::object(vec![
                    kv("cell", Json::from(cell)),
                    kv("id", Json::from(span.id)),
                    kv("parent", Json::from(span.parent)),
                ]),
            ),
        ]));
    }
    for c in traced.iter().flat_map(|c| &c.tally.counters) {
        events.push(Json::object(vec![
            kv("name", Json::from("policy")),
            kv("ph", Json::from("C")),
            kv("ts", Json::Num(c.at_us)),
            kv("pid", Json::from(0u64)),
            kv(
                "args",
                Json::object(vec![
                    kv("calls", Json::from(c.calls)),
                    kv("busy_ms", Json::Num(c.busy_ms)),
                ]),
            ),
        ]));
    }
    Json::object(vec![kv("traceEvents", Json::Array(events))])
}
