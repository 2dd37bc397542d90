//! Launching SPMD worlds: one thread per rank.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crossbeam::channel::unbounded;

use crate::comm::Comm;
use crate::envelope::Envelope;
use crate::fault::FaultHandle;
use crate::monitor::{run_watchdog, FinishGuard, Monitor};
use crate::sched::{LivenessSpec, Sched, SchedFinishGuard, SchedPolicy, TraceCell};

/// Default watchdog grace period: how long every live rank must sit
/// blocked with zero matched messages before the world is declared
/// deadlocked. Generous enough that heavyweight compute phases between
/// receives never trip it (they leave at least one rank unblocked).
const DEFAULT_WATCHDOG_GRACE: Duration = Duration::from_secs(10);

/// Entry point for running an SPMD program across `P` thread-backed ranks.
///
/// `World::run(p, f)` is the analogue of `mpiexec -n p`: it spawns `p`
/// threads, hands each a [`Comm`] of size `p`, runs `f` on every rank, and
/// returns the per-rank results indexed by rank.
pub struct World;

impl World {
    /// Run `f` on `size` ranks and collect each rank's return value.
    ///
    /// # Panics
    /// Propagates the first rank panic after all ranks have been joined
    /// (ranks that did not panic run to completion).
    pub fn run<T, F>(size: usize, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(&Comm) -> T + Send + Sync + 'static,
    {
        WorldBuilder::new(size).run(f)
    }
}

/// Per-rank thread stack size: above the OS default because science
/// proxies place sizable scratch buffers on the stack in debug builds.
const STACK_SIZE: usize = 8 << 20;

/// Configurable world launcher. Rank threads are named `rank-{rank}`.
///
/// A deadlock watchdog is armed by default (see [`WorldBuilder::watchdog`]).
pub struct WorldBuilder {
    size: usize,
    watchdog: Duration,
    faults: Option<FaultHandle>,
    sched_policy: SchedPolicy,
    trace_cell: Option<TraceCell>,
    sanitizer: Option<Arc<sanitizer::Session>>,
    liveness: Option<LivenessSpec>,
}

impl WorldBuilder {
    /// A builder for a world of `size` ranks.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "world size must be at least 1");
        WorldBuilder {
            size,
            watchdog: DEFAULT_WATCHDOG_GRACE,
            faults: None,
            sched_policy: SchedPolicy::Os,
            trace_cell: None,
            sanitizer: None,
            liveness: None,
        }
    }

    /// Set the watchdog grace period. When every rank that has not yet
    /// returned sits blocked in a receive and no message is matched for
    /// `grace`, the watchdog dumps each rank's wait state and pending
    /// queue and aborts the world (each blocked rank panics with the
    /// report). Sends are eager, so this condition is a true deadlock.
    pub fn watchdog(mut self, grace: Duration) -> Self {
        self.watchdog = grace;
        self
    }

    /// Install a fault-injection handle; see [`FaultHandle`]. Test-only
    /// machinery: without a handle the transport path is unchanged.
    pub fn fault_handle(mut self, faults: FaultHandle) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Choose the scheduling policy; see [`SchedPolicy`]. Non-`Os`
    /// policies serialize rank execution under the deterministic
    /// scheduler: rank threads run on virtual time, the wall-clock
    /// watchdog is replaced by *exact* deadlock detection (an empty
    /// ready set with live ranks), and every run records a delivery
    /// [`crate::Trace`]. On a rank panic the trace is printed to stderr
    /// so the interleaving can be replayed with [`SchedPolicy::Replay`].
    pub fn sched(mut self, policy: SchedPolicy) -> Self {
        self.sched_policy = policy;
        self
    }

    /// Deposit the run's delivery trace — also when a rank panics —
    /// into `cell` for programmatic retrieval (the [`crate::Checker`]
    /// uses this). Only meaningful with a non-`Os` [`Self::sched`]
    /// policy.
    pub fn trace_cell(mut self, cell: &TraceCell) -> Self {
        self.trace_cell = Some(cell.clone());
        self
    }

    /// Arm bounded-fairness liveness analysis; see [`LivenessSpec`].
    /// Only meaningful with a non-`Os` [`Self::sched`] policy: the
    /// scheduler aborts the world (every rank panics with a per-rank
    /// progress dump) when the decision budget, a spin limit, or the
    /// starvation window is breached. The thresholds count scheduling
    /// decisions, not wall time, so a recorded trace replayed under the
    /// same spec reproduces the violation bitwise.
    pub fn liveness(mut self, spec: LivenessSpec) -> Self {
        self.liveness = Some(spec);
        self
    }

    /// Install a happens-before sanitizer session for this world; see
    /// the `sanitizer` crate. Every rank thread gets a per-rank
    /// context (vector clock + shadow-state hooks); world teardown
    /// runs the message/view leak check. Without this call the world
    /// still auto-installs a `Mode::Panic` session when the
    /// `SENSEI_SANITIZER` env var is set (checked per run).
    pub fn sanitizer(mut self, session: Arc<sanitizer::Session>) -> Self {
        self.sanitizer = Some(session);
        self
    }

    /// Launch the world; see [`World::run`].
    pub fn run<T, F>(self, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(&Comm) -> T + Send + Sync + 'static,
    {
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..self.size).map(|_| unbounded::<Envelope>()).unzip();
        let senders = Arc::new(senders);
        let f = Arc::new(f);
        let monitor = Monitor::new(self.size);
        let peer_slots: Arc<Vec<usize>> = Arc::new((0..self.size).collect());
        let sched = match &self.sched_policy {
            SchedPolicy::Os => None,
            policy => Some(Sched::new(self.size, policy, self.liveness)),
        };
        // Sanitizer session: explicit via the builder, else env-gated
        // (read every run so one process can toggle on/off runs).
        let session = self.sanitizer.clone().or_else(|| {
            sanitizer::env_enabled()
                .then(|| sanitizer::Session::new(self.size, sanitizer::Mode::Panic))
        });
        if let Some(session) = &session {
            // Stamp findings with the replay seed of this schedule.
            session.set_seed(match &self.sched_policy {
                SchedPolicy::Seeded(seed) => Some(*seed),
                SchedPolicy::Replay(trace) => trace.seed,
                SchedPolicy::Os | SchedPolicy::Guided(_) => None,
            });
        }

        // Under the deterministic scheduler deadlocks are detected
        // exactly (empty ready set), so the wall-clock watchdog — which
        // would misread serialized execution as stalling — stays off.
        if sched.is_none() {
            let (monitor, grace) = (Arc::clone(&monitor), self.watchdog);
            // Detached: exits on its own shortly after the last rank
            // finishes (or after triggering an abort).
            thread::Builder::new()
                .name("rank-watchdog".to_string())
                .spawn(move || run_watchdog(monitor, grace))
                .unwrap_or_else(|e| panic!("failed to spawn watchdog thread: {e}"));
        }

        let handles: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| {
                let senders = Arc::clone(&senders);
                let f = Arc::clone(&f);
                let monitor = Arc::clone(&monitor);
                let peer_slots = Arc::clone(&peer_slots);
                let faults = self.faults.clone();
                let sched = sched.clone();
                let session = session.clone();
                thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(STACK_SIZE)
                    .spawn(move || {
                        // Scheduled ranks run on the deterministic
                        // virtual clock so recorded timings are
                        // byte-identical across same-seed runs.
                        let _vt = sched.as_ref().map(|_| probe::time::install_virtual());
                        // Per-rank sanitizer context: this thread's
                        // vector clock plus the hooks the transport
                        // and data model call into.
                        let _san = session
                            .as_ref()
                            .map(|s| sanitizer::install(Arc::clone(s), rank));
                        // Marks the rank finished even on unwind, so the
                        // watchdog never waits on a dead rank.
                        let _finish = FinishGuard {
                            monitor: Arc::clone(&monitor),
                            slot: rank,
                        };
                        // Thread-local scheduler handle so spin loops
                        // deep in library code (broker backpressure)
                        // can reach crate::sched::yield_point().
                        let _sched_tls = sched
                            .as_ref()
                            .map(|s| crate::sched::install_thread(s, rank));
                        // Waits for the first turn grant; releases this
                        // rank's scheduler slot even on unwind so the
                        // remaining ranks keep scheduling.
                        let _sched_finish = sched.as_ref().map(|s| {
                            s.acquire(rank);
                            SchedFinishGuard {
                                sched: Arc::clone(s),
                                slot: rank,
                            }
                        });
                        let comm = Comm::new(rank, senders, rx).with_runtime(
                            rank,
                            peer_slots,
                            if sched.is_some() { None } else { Some(monitor) },
                            faults,
                            sched,
                        );
                        f(&comm)
                    })
                    .unwrap_or_else(|e| panic!("failed to spawn rank thread: {e}"))
            })
            .collect();

        let mut results = Vec::with_capacity(self.size);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for handle in handles {
            match handle.join() {
                Ok(v) => results.push(v),
                Err(e) => {
                    if panic.is_none() {
                        panic = Some(e);
                    }
                }
            }
        }
        // Sanitizer leak check: only when every rank returned cleanly
        // (after a rank panic, unconsumed messages are expected
        // fallout, not leaks). A Panic-mode finding here unwinds like
        // a rank panic so the trace-printing path below still runs.
        if panic.is_none() {
            if let Some(session) = &session {
                let check = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    session.finish_world();
                }));
                if let Err(e) = check {
                    panic = Some(e);
                }
            }
        }
        if let Some(sched) = &sched {
            let trace = sched.trace();
            if panic.is_some() {
                let seed = trace
                    .seed
                    .map_or_else(|| "<replay>".to_string(), |s| s.to_string());
                eprintln!(
                    "minimpi sched: world failed under seed {seed}; replay this exact \
                     interleaving with WorldBuilder::sched(SchedPolicy::Replay(trace)) \
                     where trace is parsed from:\n{}",
                    trace.to_json()
                );
            }
            if let Some(cell) = &self.trace_cell {
                cell.set(trace);
            }
        }
        if let Some(e) = panic {
            std::panic::resume_unwind(e);
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_indexed_by_rank() {
        let out = World::run(8, |comm| comm.rank() * comm.rank());
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn single_rank_world() {
        let out = World::run(1, |comm| {
            assert_eq!(comm.size(), 1);
            comm.barrier();
            comm.allreduce_scalar(5u32, |a, b| a + b)
        });
        assert_eq!(out, vec![5]);
    }

    #[test]
    #[should_panic(expected = "world size must be at least 1")]
    fn zero_size_rejected() {
        let _ = World::run(0, |_| ());
    }

    #[test]
    fn builder_names_threads() {
        let names = WorldBuilder::new(2).run(|_| thread::current().name().map(str::to_string));
        assert_eq!(
            names,
            vec![Some("rank-0".to_string()), Some("rank-1".to_string())]
        );
    }

    #[test]
    fn watchdog_does_not_fire_on_healthy_runs() {
        // A short grace with constant traffic: progress resets the timer.
        let out = WorldBuilder::new(4)
            .watchdog(Duration::from_millis(100))
            .run(|comm| {
                let mut acc = 0u64;
                for _ in 0..20 {
                    acc = comm.allreduce_scalar(acc + comm.rank() as u64, |a, b| a + b);
                }
                acc
            });
        assert_eq!(out.len(), 4);
    }
}
