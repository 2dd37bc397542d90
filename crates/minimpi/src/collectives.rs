//! Collective operations built on point-to-point messaging.
//!
//! Algorithms follow the classic MPICH implementations where practical:
//! dissemination barrier, binomial-tree broadcast and reduce, ring
//! allgather, and a linear-chain scan. Because the
//! transport is eager (sends never block), the exchanges cannot deadlock.
//!
//! Every rank of a communicator must call each collective, in the same
//! order — the standard MPI contract. Violations deadlock, as they would
//! under MPI.

use crate::comm::Comm;
use crate::envelope::{CollectiveKind, Tag};
use crate::Wire;

impl Comm {
    /// Block until every rank in the communicator has entered the barrier.
    /// Dissemination algorithm: ⌈log₂ p⌉ rounds of pairwise signals.
    pub fn barrier(&self) {
        let p = self.size();
        let tag = self.collective_tag(CollectiveKind::Barrier);
        if p == 1 {
            return;
        }
        let mut dist = 1;
        while dist < p {
            let to = (self.rank() + dist) % p;
            let from = (self.rank() + p - dist) % p;
            self.send_tagged(to, tag, dist);
            let d: usize = self.recv_tagged(from, tag).1;
            debug_assert_eq!(d, dist);
            dist <<= 1;
        }
    }

    /// Binomial-tree broadcast from `root`.
    ///
    /// The root passes `Some(value)`; every other rank passes `None` and
    /// receives the root's value. All ranks return the broadcast value.
    ///
    /// Each hop of the tree moves a clone of the value, so an [`Arc`]
    /// moves by pointer (one atomic increment), never the payload:
    /// broadcasting a multi-megabyte deck to `p` ranks as an `Arc` costs
    /// one allocation in total instead of `p` deep copies, and every
    /// rank's result shares the root's buffer.
    ///
    /// [`Arc`]: std::sync::Arc
    pub fn bcast<T: Clone + Wire + Send + 'static>(&self, root: usize, value: Option<T>) -> T {
        let p = self.size();
        assert!(root < p, "bcast: root {root} out of range for size {p}");
        if self.rank() == root {
            assert!(value.is_some(), "bcast: root must supply Some(value)");
        } else {
            assert!(value.is_none(), "bcast: non-root rank passed Some(value)");
        }
        let tag = self.collective_tag(CollectiveKind::Bcast);
        let relative = (self.rank() + p - root) % p;

        // Receive from the parent (all ranks except the root).
        let mut value = value;
        let mut mask = 1usize;
        while mask < p {
            if relative & mask != 0 {
                let parent = ((relative - mask) + root) % p;
                value = Some(self.recv_tagged::<T>(parent, tag).1);
                break;
            }
            mask <<= 1;
        }
        let Some(value) = value else {
            panic!("bcast: internal tree error")
        };

        // Forward to children, highest-order bit first.
        let mut mask = mask >> 1;
        while mask > 0 {
            if relative + mask < p {
                let child = (relative + mask + root) % p;
                self.send_tagged(child, tag, value.clone());
            }
            mask >>= 1;
        }
        value
    }

    /// Binomial-tree reduction to `root` with a combining operator.
    ///
    /// Returns `Some(total)` on the root, `None` elsewhere. `op` must be
    /// associative and commutative (the MPI built-in-op contract).
    pub fn reduce<T, F>(&self, root: usize, value: T, op: F) -> Option<T>
    where
        T: Wire + Send + 'static,
        F: Fn(T, T) -> T,
    {
        let p = self.size();
        assert!(root < p, "reduce: root {root} out of range for size {p}");
        let tag = self.collective_tag(CollectiveKind::Reduce);
        let relative = (self.rank() + p - root) % p;
        let mut acc = value;
        let mut mask = 1usize;
        while mask < p {
            if relative & mask == 0 {
                let child_rel = relative | mask;
                if child_rel < p {
                    let child = (child_rel + root) % p;
                    let theirs: T = self.recv_tagged(child, tag).1;
                    acc = op(acc, theirs);
                }
            } else {
                let parent = ((relative - mask) + root) % p;
                self.send_tagged(parent, tag, acc);
                return None;
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// All-reduce: reduction whose result is returned on every rank.
    /// Implemented as a binomial reduce to rank 0 followed by a broadcast,
    /// the pattern the paper's BSP analyses exhibit.
    pub fn allreduce<T, F>(&self, value: T, op: F) -> T
    where
        T: Clone + Wire + Send + 'static,
        F: Fn(T, T) -> T,
    {
        let reduced = self.reduce(0, value, op);
        self.bcast(0, reduced)
    }

    /// Convenience alias of [`Comm::allreduce`] reading better at call
    /// sites that reduce a single scalar.
    pub fn allreduce_scalar<T, F>(&self, value: T, op: F) -> T
    where
        T: Clone + Wire + Send + 'static,
        F: Fn(T, T) -> T,
    {
        self.allreduce(value, op)
    }

    /// Element-wise all-reduce over equal-length vectors.
    ///
    /// # Panics
    /// Panics if ranks contribute vectors of different lengths.
    pub fn allreduce_vec<T, F>(&self, value: Vec<T>, op: F) -> Vec<T>
    where
        T: Clone + Wire + Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        self.allreduce(value, |a, b| {
            assert_eq!(a.len(), b.len(), "allreduce_vec: length mismatch");
            a.iter().zip(b.iter()).map(|(x, y)| op(x, y)).collect()
        })
    }

    /// Gather one value from every rank to `root`, ordered by rank.
    /// Returns `Some(values)` on the root, `None` elsewhere.
    pub fn gather<T: Wire + Send + 'static>(&self, root: usize, value: T) -> Option<Vec<T>> {
        let p = self.size();
        assert!(root < p, "gather: root {root} out of range for size {p}");
        let tag = self.collective_tag(CollectiveKind::Gather);
        if self.rank() == root {
            let mut slots: Vec<Option<T>> = (0..p).map(|_| None).collect();
            slots[root] = Some(value);
            for _ in 0..p - 1 {
                let (src, v) = self.recv_tagged::<T>(crate::ANY_SOURCE, tag);
                slots[src] = Some(v);
            }
            Some(
                slots
                    .into_iter()
                    .map(|s| s.unwrap_or_else(|| panic!("gather: hole")))
                    .collect(),
            )
        } else {
            self.send_tagged(root, tag, value);
            None
        }
    }

    /// Ring allgather: every rank contributes one value and receives the
    /// full rank-ordered vector. `p - 1` neighbor exchanges.
    pub fn allgather<T: Clone + Wire + Send + 'static>(&self, value: T) -> Vec<T> {
        let tag = self.collective_tag(CollectiveKind::Allgather);
        allgather_tagged(self, tag, value)
    }

    /// Inclusive prefix scan: rank `r` returns
    /// `op(v₀, op(v₁, … op(v_{r-1}, v_r)))`, combined in rank order along a
    /// linear chain.
    pub fn scan<T, F>(&self, value: T, op: F) -> T
    where
        T: Clone + Wire + Send + 'static,
        F: Fn(T, T) -> T,
    {
        let p = self.size();
        let tag = self.collective_tag(CollectiveKind::Scan);
        let mine = if self.rank() == 0 {
            value
        } else {
            let prefix: T = self.recv_tagged(self.rank() - 1, tag).1;
            op(prefix, value)
        };
        if self.rank() + 1 < p {
            self.send_tagged(self.rank() + 1, tag, mine.clone());
        }
        mine
    }
}

/// Ring allgather with an explicit tag; shared with `Comm::split`, which
/// must allgather before the new communicator exists.
pub(crate) fn allgather_tagged<T: Clone + Wire + Send + 'static>(
    comm: &Comm,
    tag: Tag,
    value: T,
) -> Vec<T> {
    let p = comm.size();
    let me = comm.rank();
    let mut slots: Vec<Option<T>> = (0..p).map(|_| None).collect();
    slots[me] = Some(value);
    if p == 1 {
        return slots.into_iter().map(Option::unwrap).collect();
    }
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    // Step k forwards the block that originated k ranks to the left.
    let mut forward: T = slots[me]
        .clone()
        .unwrap_or_else(|| panic!("allgather: own slot missing"));
    for step in 0..p - 1 {
        comm.send_tagged(right, tag, forward);
        let incoming: T = comm.recv_tagged(left, tag).1;
        let origin = (me + p - 1 - step) % p;
        slots[origin] = Some(incoming.clone());
        forward = incoming;
    }
    slots
        .into_iter()
        .map(|s| s.unwrap_or_else(|| panic!("allgather: hole")))
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::World;

    fn sizes() -> Vec<usize> {
        vec![1, 2, 3, 4, 5, 8, 13]
    }

    #[test]
    fn bcast_from_every_root() {
        for p in sizes() {
            for root in 0..p {
                World::run(p, move |comm| {
                    let v = if comm.rank() == root {
                        Some(vec![root as u64, 99])
                    } else {
                        None
                    };
                    let got = comm.bcast(root, v);
                    assert_eq!(got, vec![root as u64, 99]);
                });
            }
        }
    }

    #[test]
    fn reduce_sum_to_every_root() {
        for p in sizes() {
            for root in 0..p {
                World::run(p, move |comm| {
                    let got = comm.reduce(root, comm.rank() as u64, |a, b| a + b);
                    if comm.rank() == root {
                        let expect = (p as u64 * (p as u64 - 1)) / 2;
                        assert_eq!(got, Some(expect));
                    } else {
                        assert_eq!(got, None);
                    }
                });
            }
        }
    }

    #[test]
    fn allreduce_min_max() {
        for p in sizes() {
            World::run(p, move |comm| {
                let lo = comm.allreduce_scalar(comm.rank() as i64, i64::min);
                let hi = comm.allreduce_scalar(comm.rank() as i64, i64::max);
                assert_eq!(lo, 0);
                assert_eq!(hi, p as i64 - 1);
            });
        }
    }

    #[test]
    fn allreduce_vec_elementwise() {
        World::run(4, |comm| {
            let v = vec![comm.rank() as f64, 1.0];
            let out = comm.allreduce_vec(v, |a, b| a + b);
            assert_eq!(out, vec![6.0, 4.0]);
        });
    }

    #[test]
    fn bcast_of_an_arc_shares_one_allocation() {
        use std::sync::Arc;
        World::run(6, |comm| {
            let v = if comm.rank() == 0 {
                Some(Arc::new(vec![1u64, 2, 3]))
            } else {
                None
            };
            let got = comm.bcast(0, v);
            assert_eq!(got.as_ref(), &vec![1u64, 2, 3]);
            // All ranks alias the root's buffer (in-process transport).
            let expect = comm.allreduce_scalar(Arc::as_ptr(&got) as usize, |a, b| {
                assert_eq!(a, b, "ranks hold different allocations");
                a
            });
            assert_eq!(expect, Arc::as_ptr(&got) as usize);
        });
    }

    #[test]
    fn gather_ordered_by_rank() {
        for p in sizes() {
            World::run(p, move |comm| {
                let got = comm.gather(0, format!("r{}", comm.rank()));
                if comm.rank() == 0 {
                    let got = got.unwrap();
                    for (i, s) in got.iter().enumerate() {
                        assert_eq!(s, &format!("r{i}"));
                    }
                } else {
                    assert!(got.is_none());
                }
            });
        }
    }

    #[test]
    fn allgather_ordered() {
        for p in sizes() {
            World::run(p, move |comm| {
                let got = comm.allgather(comm.rank() * 3);
                let expect: Vec<usize> = (0..p).map(|r| r * 3).collect();
                assert_eq!(got, expect);
            });
        }
    }

    #[test]
    fn inclusive_scan_prefix_sums() {
        for p in sizes() {
            World::run(p, move |comm| {
                let got = comm.scan(comm.rank() as u64 + 1, |a, b| a + b);
                let r = comm.rank() as u64 + 1;
                assert_eq!(got, r * (r + 1) / 2);
            });
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10))]

        /// The vector all-reduce agrees element-wise with a serial
        /// rank-order fold for arbitrary lengths and exact ops, across
        /// 1/4/8 ranks (the deck sizes the conformance suite pins).
        /// Exact ops make "agree" mean bitwise.
        #[test]
        fn prop_allreduce_vec_matches_serial_fold(n in 0usize..257, seed in proptest::prelude::any::<u32>(), which_op in 0usize..3) {
            let op = move |a: &u64, b: &u64| match which_op {
                0 => a.wrapping_add(*b),
                1 => *a.min(b),
                _ => *a.max(b),
            };
            // Deterministic per-rank values from the case seed.
            let contribution = move |rank: usize| -> Vec<u64> {
                (0..n as u64)
                    .map(|i| {
                        (seed as u64)
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(i * 31 + rank as u64 * 7919)
                    })
                    .collect()
            };
            for p in [1usize, 4, 8] {
                let expect = (1..p).fold(contribution(0), |acc, r| {
                    acc.iter().zip(&contribution(r)).map(|(a, b)| op(a, b)).collect()
                });
                World::run(p, move |comm| {
                    let got = comm.allreduce_vec(contribution(comm.rank()), op);
                    assert_eq!(got, expect, "p={p} n={n} op={which_op}");
                });
            }
        }
    }

    #[test]
    fn barrier_orders_side_effects() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        World::run(8, move |comm| {
            c2.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier every rank must observe all 8 arrivals.
            assert_eq!(c2.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn back_to_back_collectives_do_not_cross() {
        World::run(7, |comm| {
            for round in 0..20u64 {
                let s = comm.allreduce_scalar(round, |a, b| a.max(b));
                assert_eq!(s, round);
                let b = comm.bcast(
                    (round % 7) as usize,
                    if comm.rank() as u64 == round % 7 {
                        Some(round)
                    } else {
                        None
                    },
                );
                assert_eq!(b, round);
            }
        });
    }
}
