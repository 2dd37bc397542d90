//! Systematic model checking: DPOR schedule exploration, liveness
//! analysis, and delta-debugged failure traces.
//!
//! [`Checker`] is the crate's one interleaving search: it walks the
//! schedule tree *systematically*. Every guided run records its
//! decisions ([`crate::sched::DecisionLog`]); after a clean run the
//! checker mines the recording for *races* — pairs of dependent events
//! from different ranks whose vector clocks (recomputed with the sanitizer's [`sanitizer::VectorClock`], the
//! same happens-before engine the race detector uses) are concurrent —
//! and queues a branch that reorders each race at the run decision
//! that scheduled it. `ANY_SOURCE` match decisions branch on every
//! candidate source, since those are the genuinely nondeterministic
//! deliveries. Equivalent interleavings are pruned twice over:
//! independent (never-racing) alternatives are simply not queued, and
//! *sleep sets* inherited along the tree suppress re-exploring a
//! sibling's schedule until a dependent action wakes it.
//!
//! Queued branches are taken first in, first out: breadth-first over
//! branch points, siblings in the order their sleep sets were built.
//! A depth-first walk spends a bounded budget on late races (barrier
//! orderings) and never returns to the early `ANY_SOURCE` alternatives
//! where most ordering bugs live; the queue costs more memory instead
//! (thousands of queued prefixes at a few hundred schedules).
//!
//! Each run executes under [`SchedPolicy::Guided`]: a forced decision
//! prefix replays the branch point, then a deterministic fair
//! round-robin default takes over — fair, so a liveness finding is the
//! program's bug, not scheduler-induced starvation. A
//! [`crate::sched::LivenessSpec`] bounds every run (decision budget,
//! spin limits, starvation window), turning livelocks and starvation
//! into deterministic, replayable aborts instead of hangs.
//!
//! A failing schedule is passed through a delta-debugging (ddmin)
//! shrinker that minimizes the forced-choice prefix while preserving
//! the failure signature, then the shrunk run's delivery trace is
//! re-executed under [`SchedPolicy::Replay`] to prove it reproduces
//! the failure with a bitwise-identical event stream.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use sanitizer::VectorClock;

use crate::sched::{
    panic_text, DecisionKind, DecisionRecord, Event, Guide, LivenessSpec, SchedPolicy, Trace,
    TraceCell,
};

/// Exploration statistics for one [`Checker::run`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Schedules actually executed.
    pub schedules_explored: u64,
    /// Branch alternatives suppressed by a sleep set.
    pub pruned_by_sleep_set: u64,
    /// Co-enabled alternatives never queued because no race with the
    /// chosen action was observed (the DPOR reduction itself).
    pub pruned_independent: u64,
    /// Deepest forced-choice prefix queued for exploration.
    pub max_backtrack_depth: u64,
    /// Runs whose forced prefix turned out infeasible (a forced choice
    /// was not enabled when its turn came).
    pub divergent_runs: u64,
    /// Extra runs spent minimizing and re-verifying a failure.
    pub shrink_runs: u64,
    /// The schedule budget ran out before the tree was done.
    pub budget_exhausted: bool,
}

impl CheckStats {
    /// Fraction of considered branch alternatives that were pruned
    /// (sleep set + independence) instead of executed, in [0, 1].
    pub fn pruning_ratio(&self) -> f64 {
        let pruned = self.pruned_by_sleep_set + self.pruned_independent;
        let considered = pruned + self.schedules_explored.saturating_sub(1);
        if considered == 0 {
            0.0
        } else {
            pruned as f64 / considered as f64
        }
    }
}

/// One failing schedule, minimized and replay-verified.
#[derive(Clone, Debug)]
pub struct CheckFailure {
    /// The failure text: a panic message (assert, deadlock report,
    /// liveness violation) or the sanitizer findings of the run.
    pub message: String,
    /// Minimized forced-choice prefix that reproduces the failure
    /// under [`SchedPolicy::Guided`].
    pub prefix: Vec<usize>,
    /// The minimized run's full delivery trace; replay it with
    /// [`SchedPolicy::Replay`] (same world configuration and
    /// [`LivenessSpec`]) to reproduce the failure bitwise.
    pub trace: Trace,
    /// Forced choices before minimization.
    pub original_choices: usize,
    /// The shrunk trace was re-executed under [`SchedPolicy::Replay`]
    /// and reproduced the failure with an identical event stream.
    pub replayed_bitwise: bool,
}

/// The result of one systematic exploration.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Exploration statistics (also exported as probe gauges when a
    /// probe is attached).
    pub stats: CheckStats,
    /// The first failure found, minimized — `None` when every explored
    /// schedule passed.
    pub failure: Option<CheckFailure>,
}

/// Systematic DPOR model checker over the deterministic scheduler's
/// decision points. See the module docs for the algorithm.
pub struct Checker {
    max_schedules: usize,
    liveness: LivenessSpec,
    sanitize: bool,
    exhaustive: bool,
    probe: probe::Probe,
}

/// Extra runs the ddmin shrinker may spend minimizing one failure.
const MAX_SHRINK_RUNS: usize = 256;

impl Default for Checker {
    fn default() -> Self {
        Checker::new()
    }
}

/// Everything one guided (or replayed) run produced.
struct RunOutcome {
    records: Vec<DecisionRecord>,
    divergences: usize,
    trace: Trace,
    failure: Option<String>,
}

/// A queued branch of the schedule tree: force these choices, then let
/// the default policy finish the run.
struct Branch {
    prefix: Vec<usize>,
    sleep: BTreeSet<usize>,
}

/// What a rank does next, for the dependence relation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Action {
    /// A delivery into `to`'s queue under `tag`.
    Send { to: usize, tag: u64 },
    /// A local visible event (a `Match` resolution).
    Local,
}

impl Checker {
    /// A checker with the default budgets: 256 schedules, 256 shrink
    /// runs, the default [`LivenessSpec`], DPOR reduction on. A verdict
    /// depends only on the schedule count, never on wall time.
    pub fn new() -> Self {
        Checker {
            max_schedules: 256,
            liveness: LivenessSpec::default(),
            sanitize: false,
            exhaustive: false,
            probe: probe::Probe::default(),
        }
    }

    /// Cap the number of schedules executed (deterministic budget).
    pub fn max_schedules(mut self, n: usize) -> Self {
        self.max_schedules = n;
        self
    }

    /// Replace the liveness thresholds applied to every run.
    pub fn liveness(mut self, spec: LivenessSpec) -> Self {
        self.liveness = spec;
        self
    }

    /// Install a fresh `sanitizer::Mode::Collect` session on every run
    /// and promote its findings (races, leaks, unclosed obligations)
    /// to failures: a schedule that passes every program assert but
    /// trips the sanitizer is minimized and replayed like a panic.
    pub fn sanitize(mut self) -> Self {
        self.sanitize = true;
        self
    }

    /// Disable the DPOR reduction: branch on *every* enabled
    /// alternative at every decision, no sleep sets. The exhaustive
    /// baseline the reduction is measured against.
    pub fn exhaustive(mut self) -> Self {
        self.exhaustive = true;
        self
    }

    /// Export exploration stats as gauges on `probe` (keys
    /// `modelcheck/schedules`, `modelcheck/pruned_sleep`,
    /// `modelcheck/pruned_independent`, `modelcheck/backtrack_depth_max`,
    /// `modelcheck/pruned_permille`).
    pub fn probe(mut self, probe: probe::Probe) -> Self {
        self.probe = probe;
        self
    }

    /// Systematically explore schedules of `f` on a world of `size`
    /// ranks. Stops at the first failing schedule (minimized and
    /// replay-verified) or when the tree / budget is done.
    pub fn run<F>(&self, size: usize, f: F) -> CheckReport
    where
        F: Fn(&crate::Comm) + Send + Sync + 'static,
    {
        self.run_with(size, |b| b, f)
    }

    /// Like [`Checker::run`], with a hook to configure each world
    /// (fault handles, watchdog tweaks, …). The hook runs once per
    /// explored schedule.
    pub fn run_with<C, F>(&self, size: usize, configure: C, f: F) -> CheckReport
    where
        C: Fn(crate::WorldBuilder) -> crate::WorldBuilder,
        F: Fn(&crate::Comm) + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let mut stats = CheckStats::default();
        let mut queue = VecDeque::from([Branch {
            prefix: Vec::new(),
            sleep: BTreeSet::new(),
        }]);
        let mut failure = None;
        while let Some(branch) = queue.pop_front() {
            if stats.schedules_explored >= self.max_schedules as u64 {
                stats.budget_exhausted = true;
                break;
            }
            let run = self.run_guided(size, &configure, &f, &branch.prefix);
            stats.schedules_explored += 1;
            if let Some(message) = run.failure.clone() {
                failure =
                    Some(self.shrink_and_verify(size, &configure, &f, run, message, &mut stats));
                break;
            }
            if run.divergences > 0 {
                stats.divergent_runs += 1;
                continue;
            }
            self.expand(size, &branch, &run, &mut queue, &mut stats);
        }
        self.export_stats(&stats);
        CheckReport { stats, failure }
    }

    /// Execute one run under a forced-choice prefix.
    fn run_guided<C, F>(
        &self,
        size: usize,
        configure: &C,
        f: &Arc<F>,
        prefix: &[usize],
    ) -> RunOutcome
    where
        C: Fn(crate::WorldBuilder) -> crate::WorldBuilder,
        F: Fn(&crate::Comm) + Send + Sync + 'static,
    {
        let guide = Guide::new(prefix.to_vec());
        let log = guide.log();
        let outcome = self.launch(size, configure, f, SchedPolicy::Guided(guide));
        let (records, divergences) = log.take();
        RunOutcome {
            records,
            divergences,
            trace: outcome.trace,
            failure: outcome.failure,
        }
    }

    /// Execute one run under a policy, capturing trace + failure text.
    fn launch<C, F>(
        &self,
        size: usize,
        configure: &C,
        f: &Arc<F>,
        policy: SchedPolicy,
    ) -> RunOutcome
    where
        C: Fn(crate::WorldBuilder) -> crate::WorldBuilder,
        F: Fn(&crate::Comm) + Send + Sync + 'static,
    {
        let cell = TraceCell::new();
        // Collect mode: findings must not abort the run mid-way; they
        // are promoted to a failure after a clean exit.
        let session = self
            .sanitize
            .then(|| sanitizer::Session::new(size, sanitizer::Mode::Collect));
        let mut builder = configure(crate::WorldBuilder::new(size))
            .sched(policy)
            .trace_cell(&cell)
            .liveness(self.liveness);
        if let Some(session) = &session {
            builder = builder.sanitizer(Arc::clone(session));
        }
        let g = Arc::clone(f);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            builder.run(move |comm| g(comm));
        }));
        let failure = match outcome {
            Err(payload) => Some(panic_text(&*payload)),
            Ok(_) => session.as_ref().and_then(|s| {
                let findings = s.findings();
                (!findings.is_empty()).then(|| {
                    findings
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join("\n")
                })
            }),
        };
        RunOutcome {
            records: Vec::new(),
            divergences: 0,
            trace: cell.take().unwrap_or_default(),
            failure,
        }
    }

    /// Mine a clean run for branches: race-derived backtrack points at
    /// run decisions, every candidate source at match decisions.
    fn expand(
        &self,
        size: usize,
        branch: &Branch,
        run: &RunOutcome,
        queue: &mut VecDeque<Branch>,
        stats: &mut CheckStats,
    ) {
        let records = &run.records;
        let events = &run.trace.events;
        let choices: Vec<usize> = records.iter().map(|r| r.chosen).collect();
        let owned_from = branch.prefix.len();

        // Per-event actor + action summary (None for Run events), and
        // the actor's vector clock right after the event — recomputed
        // from the trace with the sanitizer's clock type. Delivery is
        // eager in this runtime (the queue push happens inside send),
        // so the destination merges the sender's clock at the Send.
        let mut clocks: Vec<VectorClock> = (0..size).map(|_| VectorClock::new(size)).collect();
        let mut summaries: Vec<Option<(usize, Action, VectorClock)>> =
            Vec::with_capacity(events.len());
        for event in events {
            let summary = match event {
                Event::Run { .. } => None,
                Event::Send { from, to, tag } => {
                    clocks[*from].tick(*from);
                    let snapshot = clocks[*from].clone();
                    clocks[*to].merge(&snapshot);
                    Some((*from, Action::Send { to: *to, tag: *tag }, snapshot))
                }
                Event::Match { slot, .. } => {
                    clocks[*slot].tick(*slot);
                    Some((*slot, Action::Local, clocks[*slot].clone()))
                }
            };
            summaries.push(summary);
        }

        // Backtrack sets: for each race — dependent events from two
        // ranks with concurrent clocks — request the later actor as an
        // alternative at the run decision that scheduled the earlier
        // event. Exhaustive mode instead requests everything enabled.
        let mut alternatives: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); records.len()];
        if self.exhaustive {
            for (j, rec) in records.iter().enumerate() {
                if matches!(rec.kind, DecisionKind::Run) {
                    alternatives[j].extend(rec.enabled.iter().filter(|&&b| b != rec.chosen));
                }
            }
        } else {
            for p in 0..events.len() {
                let Some((actor_p, action_p, clock_p)) = &summaries[p] else {
                    continue;
                };
                for summary_q in summaries.iter().skip(p + 1) {
                    let Some((actor_q, action_q, clock_q)) = summary_q else {
                        continue;
                    };
                    if actor_p == actor_q
                        || !dependent(*actor_p, *action_p, *actor_q, *action_q)
                        || !clock_p.concurrent_with(clock_q)
                    {
                        continue;
                    }
                    // The run decision that scheduled event p: the
                    // latest run decision at or before p choosing
                    // actor_p. Try actor_q there instead.
                    if let Some(j) = scheduling_decision(records, p, *actor_p) {
                        if records[j].enabled.contains(actor_q) {
                            alternatives[j].insert(*actor_q);
                        } else {
                            // Classic DPOR fallback: the racing actor
                            // was not enabled there — try everything
                            // that was.
                            alternatives[j].extend(
                                records[j]
                                    .enabled
                                    .iter()
                                    .filter(|&&b| b != records[j].chosen),
                            );
                        }
                    }
                }
            }
        }

        // Walk the owned suffix with the inherited sleep set: queue
        // the requested alternatives, waking sleepers when a dependent
        // action executes.
        let mut sleep = branch.sleep.clone();
        for j in owned_from..records.len() {
            // Wake-ups from events since the previous decision.
            let lo = records[j.saturating_sub(1)]
                .trace_pos
                .min(records[j].trace_pos);
            let hi = records[j].trace_pos;
            let from = if j == owned_from { 0 } else { lo };
            for summary in summaries[from..hi].iter().flatten() {
                let (actor, action, _) = summary;
                sleep.retain(|b| {
                    b != actor
                        && match next_action(&summaries, hi, *b) {
                            Some(nb) => !dependent(*actor, *action, *b, nb),
                            None => false,
                        }
                });
            }
            let rec = &records[j];
            match rec.kind {
                DecisionKind::Run => {
                    let mut explored_here: Vec<usize> = Vec::new();
                    for &alt in &alternatives[j] {
                        if sleep.contains(&alt) {
                            stats.pruned_by_sleep_set += 1;
                            continue;
                        }
                        let mut prefix = choices[..j].to_vec();
                        prefix.push(alt);
                        stats.max_backtrack_depth =
                            stats.max_backtrack_depth.max(prefix.len() as u64);
                        // Sleep-set inheritance: the sibling explored
                        // from this node keeps the already-taken
                        // choices asleep until something dependent
                        // wakes them.
                        let mut child_sleep = sleep.clone();
                        child_sleep.insert(rec.chosen);
                        child_sleep.extend(explored_here.iter().copied());
                        queue.push_back(Branch {
                            prefix,
                            sleep: child_sleep,
                        });
                        explored_here.push(alt);
                    }
                }
                DecisionKind::Match { .. } => {
                    for &src in rec.enabled.iter().filter(|&&s| s != rec.chosen) {
                        let mut prefix = choices[..j].to_vec();
                        prefix.push(src);
                        stats.max_backtrack_depth =
                            stats.max_backtrack_depth.max(prefix.len() as u64);
                        queue.push_back(Branch {
                            prefix,
                            sleep: sleep.clone(),
                        });
                    }
                }
            }
        }
        // Account the reduction: co-enabled run alternatives that were
        // never queued because no race demanded them.
        if !self.exhaustive {
            for (j, rec) in records.iter().enumerate().skip(owned_from) {
                if matches!(rec.kind, DecisionKind::Run) {
                    let co_enabled = rec.enabled.len().saturating_sub(1) as u64;
                    stats.pruned_independent +=
                        co_enabled.saturating_sub(alternatives[j].len() as u64);
                }
            }
        }
    }

    /// ddmin the failing run's forced choices down to a minimal prefix
    /// with the same failure signature, then replay the shrunk trace
    /// bitwise under [`SchedPolicy::Replay`].
    fn shrink_and_verify<C, F>(
        &self,
        size: usize,
        configure: &C,
        f: &Arc<F>,
        failing: RunOutcome,
        message: String,
        stats: &mut CheckStats,
    ) -> CheckFailure
    where
        C: Fn(crate::WorldBuilder) -> crate::WorldBuilder,
        F: Fn(&crate::Comm) + Send + Sync + 'static,
    {
        let signature = failure_signature(&message);
        let full: Vec<usize> = failing.records.iter().map(|r| r.chosen).collect();
        let original_choices = full.len();
        let mut best = failing;
        let mut best_message = message;
        let mut current = full;
        let mut budget = MAX_SHRINK_RUNS;

        let attempt = |prefix: &[usize],
                       budget: &mut usize,
                       stats: &mut CheckStats|
         -> Option<(RunOutcome, String)> {
            if *budget == 0 {
                return None;
            }
            *budget -= 1;
            stats.shrink_runs += 1;
            let out = self.run_guided(size, configure, f, prefix);
            match &out.failure {
                Some(m) if failure_signature(m) == signature => {
                    let m = m.clone();
                    Some((out, m))
                }
                _ => None,
            }
        };

        // Fast path: most protocol bugs reproduce under the default
        // policy with no forcing at all.
        if let Some((out, m)) = attempt(&[], &mut budget, stats) {
            best = out;
            best_message = m;
            current = Vec::new();
        } else {
            // ddmin proper: remove chunks at increasing granularity.
            let mut n = 2usize;
            while current.len() >= 2 && budget > 0 {
                let chunk = current.len().div_ceil(n);
                let mut reduced = false;
                let mut start = 0usize;
                while start < current.len() {
                    let end = (start + chunk).min(current.len());
                    let mut candidate = current[..start].to_vec();
                    candidate.extend_from_slice(&current[end..]);
                    if let Some((out, m)) = attempt(&candidate, &mut budget, stats) {
                        best = out;
                        best_message = m;
                        current = candidate;
                        n = n.saturating_sub(1).max(2);
                        reduced = true;
                        break;
                    }
                    start = end;
                }
                if !reduced {
                    if chunk <= 1 {
                        break;
                    }
                    n = (n * 2).min(current.len().max(2));
                }
            }
            // Final polish: drop single choices left to right.
            let mut i = 0usize;
            while i < current.len() && budget > 0 {
                let mut candidate = current.clone();
                candidate.remove(i);
                if let Some((out, m)) = attempt(&candidate, &mut budget, stats) {
                    best = out;
                    best_message = m;
                    current = candidate;
                } else {
                    i += 1;
                }
            }
        }

        // Bitwise replay verification of the shrunk trace.
        let min_trace = best.trace.clone();
        let replay = self.launch(size, configure, f, SchedPolicy::Replay(min_trace.clone()));
        stats.shrink_runs += 1;
        let replayed_bitwise = match &replay.failure {
            Some(m) => failure_signature(m) == signature && replay.trace.events == min_trace.events,
            None => false,
        };
        CheckFailure {
            message: best_message,
            prefix: current,
            trace: min_trace,
            original_choices,
            replayed_bitwise,
        }
    }

    fn export_stats(&self, stats: &CheckStats) {
        let p = &self.probe;
        p.gauge_max("modelcheck/schedules", stats.schedules_explored);
        p.gauge_max("modelcheck/pruned_sleep", stats.pruned_by_sleep_set);
        p.gauge_max("modelcheck/pruned_independent", stats.pruned_independent);
        p.gauge_max("modelcheck/backtrack_depth_max", stats.max_backtrack_depth);
        p.gauge_max(
            "modelcheck/pruned_permille",
            (stats.pruning_ratio() * 1000.0) as u64,
        );
    }
}

/// Are two actions by different ranks dependent (their order can
/// change the outcome)? Sends into the same queue under the same tag
/// conflict; a send targeting the other actor conflicts with whatever
/// that actor does next; everything else commutes.
fn dependent(actor_a: usize, a: Action, actor_b: usize, b: Action) -> bool {
    match (a, b) {
        (Action::Send { to: x, tag: t }, Action::Send { to: y, tag: u }) => {
            (x == y && t == u) || x == actor_b || y == actor_a
        }
        (Action::Send { to: x, .. }, Action::Local) => x == actor_b,
        (Action::Local, Action::Send { to: y, .. }) => y == actor_a,
        (Action::Local, Action::Local) => false,
    }
}

/// The next action rank `slot` takes at or after trace position `pos`.
fn next_action(
    summaries: &[Option<(usize, Action, VectorClock)>],
    pos: usize,
    slot: usize,
) -> Option<Action> {
    summaries[pos.min(summaries.len())..]
        .iter()
        .flatten()
        .find(|(actor, _, _)| *actor == slot)
        .map(|(_, action, _)| *action)
}

/// The latest run decision at or before trace position `p` that chose
/// `actor` (the decision that scheduled the segment containing `p`).
fn scheduling_decision(records: &[DecisionRecord], p: usize, actor: usize) -> Option<usize> {
    records
        .iter()
        .enumerate()
        .rev()
        .find(|(_, r)| matches!(r.kind, DecisionKind::Run) && r.trace_pos <= p && r.chosen == actor)
        .map(|(j, _)| j)
}

/// Normalize a failure message into a stable signature so the shrinker
/// and replay verifier can match failures without comparing volatile
/// detail (counts, per-rank dumps).
pub(crate) fn failure_signature(message: &str) -> String {
    const MARKERS: &[&str] = &[
        "deterministic deadlock detected",
        "liveness violation",
        "replay diverged",
        "sanitizer[",
    ];
    for marker in MARKERS {
        if message.contains(marker) {
            // Keep the headline class plus the first line's shape.
            let first = message.lines().next().unwrap_or(message);
            let kind = first
                .split(|c: char| c.is_ascii_digit())
                .next()
                .unwrap_or(first);
            return format!("{marker}:{kind}");
        }
    }
    message.lines().next().unwrap_or(message).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dependence_relation() {
        let send_0_to_2 = Action::Send { to: 2, tag: 7 };
        let send_1_to_2 = Action::Send { to: 2, tag: 7 };
        let send_1_to_2_other_tag = Action::Send { to: 2, tag: 8 };
        // Same queue, same tag: conflict.
        assert!(dependent(0, send_0_to_2, 1, send_1_to_2));
        // Same queue, different tag: commute.
        assert!(!dependent(0, send_0_to_2, 1, send_1_to_2_other_tag));
        // Send targeting the other actor: conflict.
        assert!(dependent(
            0,
            Action::Send { to: 1, tag: 3 },
            1,
            Action::Local
        ));
        // Locals commute.
        assert!(!dependent(0, Action::Local, 1, Action::Local));
    }

    #[test]
    fn signatures_collapse_volatile_detail() {
        let a = failure_signature(
            "minimpi sched: liveness violation — starvation: world rank(s) [1] made no \
             progress for 200 scheduling points while other ranks kept running (budget 600 \
             decisions)\n  world rank 0: runnable",
        );
        let b = failure_signature(
            "minimpi sched: liveness violation — starvation: world rank(s) [1] made no \
             progress for 200 scheduling points while other ranks kept running (budget 600 \
             decisions)\n  world rank 0: blocked",
        );
        assert_eq!(a, b);
        let c = failure_signature("assertion failed: results arrived in rank order");
        assert_ne!(a, c);
    }
}
