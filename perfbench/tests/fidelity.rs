//! The timing wrappers must be invisible to the simulation: they forward
//! every trait method, the defaulted ones included (a wrapper that fell
//! back to `reissues() == true` or `wants_context() == true` would change
//! the event count being timed), and a wrapped run reports exactly what
//! the bare run reports.

use pcs::baselines::{RedundancyPolicy, ReissuePolicy};
use pcs::core::ClassModelSet;
use pcs::sim::{
    BasicPolicy, DispatchPolicy, NoopScheduler, ObserveConfig, SchedulerHook, SimConfig, Simulation,
};
use pcs_perfbench::probe::{Mode, Outcomes, Probe, TimedHook, TimedPolicy};
use pcs_perfbench::run::{fingerprint, registry_simulation, simulation};
use pcs_perfbench::workloads::{pcs_controller, Workload};
use std::time::Instant;

const SEED: u64 = 11;

fn models() -> ClassModelSet {
    Workload::Paper200
        .train(SEED, true)
        .expect("smoke training succeeds")
}

fn probes() -> [Probe; 2] {
    [
        Probe::new(Mode::Light, Instant::now()),
        Probe::new(Mode::Full, Instant::now()),
    ]
}

fn assert_policy_forwards<P: DispatchPolicy>(make: impl Fn() -> P) {
    for probe in probes() {
        let bare = make();
        let wrapped = TimedPolicy::new(make(), probe);
        assert_eq!(wrapped.name(), bare.name());
        assert_eq!(wrapped.replication(), bare.replication());
        assert_eq!(wrapped.reissues(), bare.reissues(), "{}", bare.name());
        assert_eq!(wrapped.cancel_on_start(), bare.cancel_on_start());
    }
}

fn assert_hook_forwards<H: SchedulerHook + Outcomes>(make: impl Fn() -> H) {
    for probe in probes() {
        let bare = make();
        let mut wrapped = TimedHook::new(make(), probe);
        assert_eq!(wrapped.wants_context(), bare.wants_context());
        assert_eq!(wrapped.cost(), bare.cost());
        wrapped.enable_audit();
        assert!(wrapped.take_interval_audit().is_none());
    }
}

#[test]
fn wrappers_forward_every_defaulted_method() {
    assert_policy_forwards(|| BasicPolicy);
    assert_policy_forwards(|| RedundancyPolicy::new(3));
    assert_policy_forwards(|| ReissuePolicy::new(0.99));
    assert!(!TimedPolicy::new(BasicPolicy, probes()[1].clone()).reissues());
    assert!(TimedPolicy::new(ReissuePolicy::new(0.99), probes()[1].clone()).reissues());

    assert_hook_forwards(|| NoopScheduler);
    let models = models();
    assert_hook_forwards(|| pcs_controller(models.clone(), None));
    assert!(!TimedHook::new(NoopScheduler, probes()[0].clone()).wants_context());
}

/// Runs `config` bare and under both wrapper modes; every report must
/// be identical.
fn assert_invisible<P, H>(config: &SimConfig, policy: impl Fn() -> P, hook: impl Fn() -> H)
where
    P: DispatchPolicy + 'static,
    H: SchedulerHook + Outcomes + 'static,
{
    let bare = Simulation::new(config.clone(), Box::new(policy()), Box::new(hook())).run();
    assert!(bare.stats.requests_completed > 0);
    for probe in probes() {
        let wrapped = Simulation::new(
            config.clone(),
            Box::new(TimedPolicy::new(policy(), probe.clone())),
            Box::new(TimedHook::new(hook(), probe.clone())),
        )
        .run();
        assert_eq!(
            fingerprint(&wrapped),
            fingerprint(&bare),
            "{:?} wrappers changed the run",
            probe.mode
        );
        let tally = probe.tally.borrow();
        if probe.mode == Mode::Full {
            assert!(tally.policy_calls > 0, "the policy wrapper saw no calls");
        }
    }
}

#[test]
fn wrapped_basic_run_matches_bare() {
    let config = Workload::Paper200.config(SEED, true);
    assert_invisible(&config, || BasicPolicy, || NoopScheduler);
}

#[test]
fn wrapped_red3_run_matches_bare() {
    let config = Workload::Red3x200.config(SEED, true);
    assert_invisible(&config, || RedundancyPolicy::new(3), || NoopScheduler);
}

#[test]
fn wrapped_pcs_run_matches_bare() {
    let models = models();
    let mut config = Workload::Paper200.config(SEED, true);
    assert_invisible(
        &config,
        || BasicPolicy,
        || pcs_controller(models.clone(), None),
    );
    // With observation on, the simulator asks the hook for an audit
    // every interval: the wrapper must forward both audit methods.
    config.observe = Some(ObserveConfig { top_k: 4 });
    assert_invisible(
        &config,
        || BasicPolicy,
        || pcs_controller(models.clone(), None),
    );
}

#[test]
fn wrapped_rolling_restart_run_matches_bare() {
    let models = models();
    let config = Workload::RollingRestart.config(SEED, true);
    assert!(!config.faults.events().is_empty());
    assert_invisible(
        &config,
        || BasicPolicy,
        || pcs_controller(models.clone(), None),
    );
}

#[test]
fn direct_build_matches_the_registry_on_every_workload() {
    let models = models();
    for workload in Workload::ALL {
        let config = workload.config(SEED, true);
        let direct = simulation(workload, config.clone(), models.clone(), None).run();
        let registry = registry_simulation(workload, config, &models).run();
        assert_eq!(
            fingerprint(&direct),
            fingerprint(&registry),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn traced_probe_counts_the_controller_layer() {
    let models = models();
    let probe = Probe::new(Mode::Full, Instant::now());
    let config = Workload::Paper200.config(SEED, true);
    let report = simulation(Workload::Paper200, config, models, Some(&probe)).run();
    let tally = probe.tally.borrow();
    let cost = report.scheduler_cost.expect("PCS tracks its cost");
    assert!(tally.hook_calls >= cost.intervals);
    assert_eq!(tally.greedy_iterations, cost.greedy_iterations);
    assert_eq!(tally.decision_ms.len() as u64, tally.hook_calls);
    let hooks = tally.spans.iter().filter(|s| s.name == "hook").count() as u64;
    assert_eq!(hooks, tally.hook_calls);
    assert!(tally.samples_in > 0);
}
