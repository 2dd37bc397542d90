//! Launching SPMD worlds: one thread per rank.

use std::sync::Arc;
use std::thread;

use crate::comm::Comm;
use crate::fault::FaultHandle;
use crate::sched::{LivenessSpec, Sched, SchedFinishGuard, SchedPolicy, TraceCell};

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
/// Under every policy the world aborts as soon as no live rank can run:
/// every blocked rank then panics with each rank's wait state.
pub struct WorldBuilder {
    size: usize,
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
            faults: None,
            sched_policy: SchedPolicy::Os,
            trace_cell: None,
            sanitizer: None,
            liveness: None,
        }
    }

    /// Install a fault-injection handle; see [`FaultHandle`]. Test-only
    /// machinery: without a handle the transport path is unchanged.
    pub fn fault_handle(mut self, faults: FaultHandle) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Choose the scheduling policy; see [`SchedPolicy`]. Non-`Os`
    /// policies serialize rank execution under the deterministic
    /// scheduler: rank threads run on virtual time, and every run
    /// records a delivery
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
        let f = Arc::new(f);
        // A world rank's slot is its rank and the id of its mailbox.
        let peer_slots: Arc<Vec<usize>> = Arc::new((0..self.size).collect());
        let sched = Sched::new(self.size, &self.sched_policy, self.liveness);
        let serial = sched.serial();
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

        let handles: Vec<_> = (0..self.size)
            .map(|rank| {
                let f = Arc::clone(&f);
                let peer_slots = Arc::clone(&peer_slots);
                let faults = self.faults.clone();
                let sched = Arc::clone(&sched);
                let session = session.clone();
                thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(STACK_SIZE)
                    .spawn(move || {
                        // Scheduled ranks run on the deterministic
                        // virtual clock so recorded timings are
                        // byte-identical across same-seed runs.
                        let _vt = serial.then(probe::time::install_virtual);
                        // Per-rank sanitizer context: this thread's
                        // vector clock plus the hooks the transport
                        // and data model call into.
                        let _san = session
                            .as_ref()
                            .map(|s| sanitizer::install(Arc::clone(s), rank));
                        // Thread-local scheduler handle so spin loops
                        // deep in library code (GLEAN's drain hand-off)
                        // can reach crate::sched::yield_point().
                        let _sched_tls = serial.then(|| crate::sched::install_thread(&sched, rank));
                        // Waits for the first turn grant, when ranks take
                        // turns; marks the rank finished even on unwind,
                        // so the remaining ranks keep scheduling and a
                        // peer waiting on this one is released.
                        let _finish = {
                            if serial {
                                sched.acquire(rank);
                            }
                            SchedFinishGuard {
                                sched: Arc::clone(&sched),
                                slot: rank,
                            }
                        };
                        let mailboxes = Arc::clone(&peer_slots);
                        let comm = Comm::new(rank, rank, peer_slots, mailboxes, faults, sched);
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
        if serial {
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
    use std::time::Duration;

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
    fn a_rank_computing_while_its_peer_waits_is_no_deadlock() {
        // Rank 1 waits in a receive without a deadline while rank 0
        // computes: rank 0 is runnable throughout.
        const COMPUTE: Duration = Duration::from_millis(100);
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                thread::sleep(COMPUTE);
                comm.send(1, 1, 7u32);
                0
            } else {
                comm.recv::<u32>(0, 1)
            }
        });
        assert_eq!(out, vec![0, 7]);
    }

    #[test]
    fn mail_on_another_channel_is_no_deadlock() {
        // Each round a rank sends to its right on the world and on a
        // sub-communicator, then waits for its left on the
        // sub-communicator first: the world's mail, already there, wakes
        // the rank, which finds no match and takes its `Blocked` mark
        // back. One rank sleeps now and then while the others wait.
        let out = World::run(8, |comm| {
            let sub = comm.split((comm.rank() % 2) as u32, comm.rank() as u32);
            let (p, q) = (comm.size(), sub.size());
            let (right, left) = ((comm.rank() + 1) % p, (comm.rank() + p - 1) % p);
            let (sub_right, sub_left) = ((sub.rank() + 1) % q, (sub.rank() + q - 1) % q);
            let mut acc = 0u64;
            for round in 0..2_000u64 {
                if comm.rank() == 3 && round % 250 == 0 {
                    thread::sleep(std::time::Duration::from_millis(2));
                }
                comm.send(right, 1, round);
                sub.send(sub_right, 2, round);
                acc += sub.recv::<u64>(sub_left, 2);
                acc += comm.recv::<u64>(left, 1);
            }
            acc
        });
        assert_eq!(out, vec![2 * (0..2_000u64).sum::<u64>(); 8]);
    }

    #[test]
    fn mail_found_by_the_emptiness_check_is_matched() {
        // Rank 0 is blocked in `recv(1, 1)` when tag 2 arrives: it wakes,
        // leaves that one in its mailbox and matches again under the
        // table's lock. Every other round rank 1 sends tag 1 at once, so
        // that match can find it and must take it; else rank 0 waits
        // out a sleep.
        let world = thread::spawn(move || {
            World::run(2, |comm| {
                let mut got = Vec::new();
                for round in 0..1_000u64 {
                    if comm.rank() == 0 {
                        let first = comm.recv::<u64>(1, 1);
                        got.push((first, comm.recv::<u64>(1, 2)));
                        comm.send(1, 3, round);
                    } else {
                        thread::sleep(Duration::from_micros(200));
                        comm.send(0, 2, 2 * round);
                        if round % 2 == 1 {
                            thread::sleep(Duration::from_millis(2));
                        }
                        comm.send(0, 1, 2 * round + 1);
                        comm.recv::<u64>(0, 3);
                    }
                }
                got
            })
        });
        let start = probe::time::Wall::now();
        while !world.is_finished() {
            assert!(start.elapsed() < Duration::from_secs(10), "the world hangs");
            thread::sleep(Duration::from_millis(10));
        }
        let out = world.join().expect("the world does not abort");
        let want: Vec<(u64, u64)> = (0..1_000).map(|r| (2 * r + 1, 2 * r)).collect();
        assert_eq!(out[0], want);
    }
}
