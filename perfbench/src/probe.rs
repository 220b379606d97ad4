//! Timing wrappers around the two traits a simulation calls out through:
//! [`SchedulerHook`] (the PCS controller layer) and [`DispatchPolicy`]
//! (the dispatch / baseline layer). They forward every method, defaulted
//! ones included, so a wrapped run takes exactly the unwrapped trajectory;
//! what they add is a [`Tally`] of counts, busy time and, when tracing,
//! spans.

use pcs::controller::PcsController;
use pcs::core::ScheduleOutcome;
use pcs::sim::{
    DispatchPolicy, IntervalAudit, MigrationRequest, NoopScheduler, SchedulerContext,
    SchedulerCost, SchedulerHook,
};
use pcs::types::{ComponentId, SimDuration};
use rand::rngs::SmallRng;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The wrappers time one policy call in this many (a prime, so the
/// sample does not lock onto the fixed call pattern of a sub-request):
/// timing every call of a layer called millions of times would mostly
/// measure the clock.
const SAMPLE_EVERY: u64 = 17;

/// Timed dispatch decisions averaged into one `decision_ms` sample.
const DISPATCH_SAMPLE_BLOCK: u64 = 64;

/// Traced runs record a policy counter sample every this many timed
/// policy calls.
const COUNTER_EVERY: u64 = 1 << 16;

/// How much a wrapper records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end run: only what `decision_ms` needs (each hook call, or
    /// one dispatch decision in [`SAMPLE_EVERY`]).
    Light,
    /// Traced run: every call into either layer is counted, hook calls
    /// are timed, policy calls are sampled, and spans are kept for the
    /// Chrome trace.
    Full,
}

/// A complete span for the Chrome trace, in µs since the probe's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name (`hook`, `matrix`, `greedy`, …).
    pub name: &'static str,
    /// Identifier, unique within one probe.
    pub id: u64,
    /// The enclosing span's identifier (0 = none).
    pub parent: u64,
    /// Start (µs since the epoch).
    pub start_us: f64,
    /// Duration (µs).
    pub dur_us: f64,
}

/// A cumulative policy-layer counter sample for the Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterSample {
    /// Sample time (µs since the epoch).
    pub at_us: f64,
    /// Policy calls so far.
    pub calls: u64,
    /// Policy busy time so far (ms).
    pub busy_ms: f64,
}

/// Everything the wrappers recorded during one simulation run.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// `SchedulerHook::on_interval` calls.
    pub hook_calls: u64,
    /// Host time inside `on_interval`.
    pub hook_busy: Duration,
    /// Migration orders the hook returned.
    pub hook_orders: u64,
    /// Monitor samples delivered to the hook in `sampled_windows`.
    pub samples_in: u64,
    /// Matrix construction time reported by the controller's outcomes.
    pub matrix_build: Duration,
    /// Greedy search time reported by the controller's outcomes.
    pub greedy_search: Duration,
    /// Greedy iterations reported by the controller's outcomes.
    pub greedy_iterations: u64,
    /// Migrations the greedy accepted.
    pub greedy_decisions: u64,
    /// Migrations the controller's evacuation pass ordered (moves off a
    /// node the hook saw down).
    pub evacuations: u64,
    /// Host ms of each scheduling decision: one per hook call, or (for a
    /// technique without a hook) the mean of a block of sampled dispatch
    /// decisions.
    pub decision_ms: Vec<f64>,
    /// Calls into the dispatch policy (traced runs only).
    pub policy_calls: u64,
    /// Host time inside the dispatch policy, estimated from one call in
    /// [`SAMPLE_EVERY`] (traced runs only).
    pub policy_busy: Duration,
    /// `DispatchPolicy::observe_latency` calls (traced runs only).
    pub observe_calls: u64,
    /// Spans (traced runs only).
    pub spans: Vec<Span>,
    /// Policy counter samples (traced runs only).
    pub counters: Vec<CounterSample>,
    dispatch_seen: u64,
    dispatch_timed: u64,
    dispatch_block: Duration,
    next_span: u64,
}

impl Tally {
    /// Records a completed span and returns its id.
    pub fn span(&mut self, name: &'static str, parent: u64, start_us: f64, dur_us: f64) -> u64 {
        self.next_span += 1;
        self.spans.push(Span {
            name,
            id: self.next_span,
            parent,
            start_us,
            dur_us,
        });
        self.next_span
    }

    fn counter(&mut self, at_us: f64) {
        self.counters.push(CounterSample {
            at_us,
            calls: self.policy_calls,
            busy_ms: self.policy_busy.as_secs_f64() * 1e3,
        });
    }
}

/// The shared state of one run's wrappers.
#[derive(Debug, Clone)]
pub struct Probe {
    /// What the wrappers record.
    pub mode: Mode,
    /// Time zero of spans and counters.
    pub epoch: Instant,
    /// The record, shared by the wrappers and the benchmark.
    pub tally: Rc<RefCell<Tally>>,
    /// What timing an empty region reads: a policy call takes a few
    /// nanoseconds, about what reading the clock twice takes, so
    /// sampled policy times are counted net of it.
    clock: Duration,
}

impl Probe {
    /// A probe with an empty tally.
    pub fn new(mode: Mode, epoch: Instant) -> Probe {
        Probe {
            mode,
            epoch,
            tally: Rc::new(RefCell::new(Tally::default())),
            clock: clock_overhead(),
        }
    }

    /// µs from the epoch to `at`.
    pub fn micros(&self, at: Instant) -> f64 {
        at.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Appends a final policy counter sample (traced runs).
    pub fn finish(&self) {
        if self.mode == Mode::Full {
            let now = self.micros(Instant::now());
            self.tally.borrow_mut().counter(now);
        }
    }
}

/// The median host time of timing an empty region.
fn clock_overhead() -> Duration {
    let mut reads: Vec<Duration> = (0..1001).map(|_| Instant::now().elapsed()).collect();
    reads.sort_unstable();
    reads[reads.len() / 2]
}

/// A hook whose per-interval [`ScheduleOutcome`]s the wrapper can read.
pub trait Outcomes {
    /// Outcomes of every analysed interval so far, newest last.
    fn outcomes(&self) -> &[ScheduleOutcome] {
        &[]
    }
}

impl Outcomes for PcsController {
    fn outcomes(&self) -> &[ScheduleOutcome] {
        self.history()
    }
}

impl Outcomes for NoopScheduler {}

/// Times [`SchedulerHook::on_interval`] and forwards everything else.
#[derive(Debug)]
pub struct TimedHook<H> {
    inner: H,
    probe: Probe,
}

impl<H> TimedHook<H> {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: H, probe: Probe) -> Self {
        TimedHook { inner, probe }
    }
}

impl<H: SchedulerHook + Outcomes> SchedulerHook for TimedHook<H> {
    fn on_interval(&mut self, ctx: &SchedulerContext<'_>) -> Vec<MigrationRequest> {
        let analysed_before = self.inner.outcomes().len();
        let started = Instant::now();
        let orders = self.inner.on_interval(ctx);
        let busy = started.elapsed();

        let mut tally = self.probe.tally.borrow_mut();
        tally.hook_calls += 1;
        tally.hook_busy += busy;
        tally.hook_orders += orders.len() as u64;
        tally.samples_in += ctx.sampled_windows.iter().map(Vec::len).sum::<usize>() as u64;
        tally.decision_ms.push(busy.as_secs_f64() * 1e3);
        let outcome = self.inner.outcomes()[analysed_before..].last();
        if let Some(o) = outcome {
            tally.matrix_build += o.analysis_time;
            tally.greedy_search += o.search_time;
            tally.greedy_iterations += o.iterations as u64;
            let evacuations = o
                .decisions
                .iter()
                .filter(|d| !ctx.node_status[d.from.index()].is_up())
                .count();
            tally.evacuations += evacuations as u64;
            tally.greedy_decisions += (o.decisions.len() - evacuations) as u64;
        }
        if self.probe.mode == Mode::Full {
            let start_us = self.probe.micros(started);
            let dur_us = busy.as_secs_f64() * 1e6;
            let hook = tally.span("hook", 0, start_us, dur_us);
            // The controller reports how long its matrix build and greedy
            // search took, not when they ran; they come last in the call,
            // in that order, after the inputs are assembled.
            if let Some(o) = outcome {
                let matrix_us = o.analysis_time.as_secs_f64() * 1e6;
                let greedy_us = o.search_time.as_secs_f64() * 1e6;
                let matrix_start = (start_us + dur_us - matrix_us - greedy_us).max(start_us);
                tally.span("matrix", hook, matrix_start, matrix_us);
                tally.span("greedy", hook, matrix_start + matrix_us, greedy_us);
            }
            tally.counter(start_us);
        }
        orders
    }

    fn wants_context(&self) -> bool {
        self.inner.wants_context()
    }

    fn cost(&self) -> Option<SchedulerCost> {
        self.inner.cost()
    }

    fn enable_audit(&mut self) {
        self.inner.enable_audit();
    }

    fn take_interval_audit(&mut self) -> Option<IntervalAudit> {
        self.inner.take_interval_audit()
    }
}

/// Times calls into a [`DispatchPolicy`] and forwards every method.
#[derive(Debug)]
pub struct TimedPolicy<P> {
    inner: P,
    probe: Probe,
}

impl<P> TimedPolicy<P> {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: P, probe: Probe) -> Self {
        TimedPolicy { inner, probe }
    }
}

/// Runs one policy call: when tracing, counted, and timed if it falls
/// in the sample; untouched otherwise.
fn timed<R>(probe: &Probe, observe: bool, f: impl FnOnce() -> R) -> R {
    if probe.mode == Mode::Light {
        return f();
    }
    let calls = {
        let mut tally = probe.tally.borrow_mut();
        tally.policy_calls += 1;
        tally.observe_calls += u64::from(observe);
        tally.policy_calls
    };
    if calls % SAMPLE_EVERY != 0 {
        return f();
    }
    let started = Instant::now();
    let out = f();
    let busy = started.elapsed().saturating_sub(probe.clock);
    let mut tally = probe.tally.borrow_mut();
    tally.policy_busy += busy * SAMPLE_EVERY as u32;
    if calls % (SAMPLE_EVERY * COUNTER_EVERY) == 0 {
        let at = probe.micros(started);
        tally.counter(at);
    }
    out
}

impl<P: DispatchPolicy> DispatchPolicy for TimedPolicy<P> {
    fn name(&self) -> &'static str {
        timed(&self.probe, false, || self.inner.name())
    }

    fn replication(&self) -> usize {
        timed(&self.probe, false, || self.inner.replication())
    }

    fn initial_targets(
        &mut self,
        replicas: &[ComponentId],
        rng: &mut SmallRng,
        out: &mut Vec<ComponentId>,
    ) {
        let inner = &mut self.inner;
        if self.probe.mode == Mode::Full {
            return timed(&self.probe, false, || {
                inner.initial_targets(replicas, rng, out)
            });
        }
        // Untraced: time one decision in SAMPLE_EVERY, and turn
        // each block of timed decisions into one mean `decision_ms`
        // sample.
        let seen = {
            let mut tally = self.probe.tally.borrow_mut();
            tally.dispatch_seen += 1;
            tally.dispatch_seen
        };
        if seen % SAMPLE_EVERY != 0 {
            return inner.initial_targets(replicas, rng, out);
        }
        let started = Instant::now();
        inner.initial_targets(replicas, rng, out);
        let busy = started.elapsed();
        let mut tally = self.probe.tally.borrow_mut();
        tally.dispatch_block += busy;
        tally.dispatch_timed += 1;
        if tally.dispatch_timed == DISPATCH_SAMPLE_BLOCK {
            let mean_ms = tally.dispatch_block.as_secs_f64() * 1e3 / DISPATCH_SAMPLE_BLOCK as f64;
            tally.decision_ms.push(mean_ms);
            tally.dispatch_timed = 0;
            tally.dispatch_block = Duration::ZERO;
        }
    }

    fn reissue_delay(&mut self, class: usize) -> Option<SimDuration> {
        let inner = &mut self.inner;
        timed(&self.probe, false, || inner.reissue_delay(class))
    }

    fn reissues(&self) -> bool {
        timed(&self.probe, false, || self.inner.reissues())
    }

    fn observe_latency(&mut self, class: usize, latency: SimDuration) {
        let inner = &mut self.inner;
        timed(&self.probe, true, || inner.observe_latency(class, latency));
    }

    fn cancel_on_start(&self) -> bool {
        timed(&self.probe, false, || self.inner.cancel_on_start())
    }
}
