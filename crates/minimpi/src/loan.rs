//! Loans: a buffer lent to a peer, at most `k` out to one `(peer, tag)`
//! at a time, and given back with a [`Verdict`]; and the pool of spare
//! buffers a rank keeps between loans. A loan is a plain send on the
//! lender's tag, which the borrower takes with [`Comm::recv`], and its
//! return a send on the tag's return twin: the scheduler, the checker,
//! the sanitizer and the fault handle see ordinary messages, and a
//! return that never comes is a receive that never matches.

use std::any::Any;
use std::cell::RefMut;

use crate::envelope::Tag;
use crate::{Comm, Wire};

/// What a borrower says as it gives a loan back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Used; the lender may lend on.
    Taken,
    /// Not used, nor will a later loan on the tag be: stop lending.
    Refused,
}

/// The loans out to `dest` on `tag`, and the bound `k` they were lent
/// under: as many returns are kept for the next lends.
pub(crate) struct Loans {
    dest: usize,
    tag: u32,
    out: usize,
    k: usize,
}

/// A rank's spare buffers: one `Vec<T>` for each type kept.
pub(crate) type Pool = Vec<Box<dyn Any + Send>>;

impl Comm {
    /// Lend `dest` a `T` on `tag`, filled by `fill`, with at most `k` of
    /// this rank's loans to `dest` on `tag` out at once: past that, the
    /// oldest is waited for and lent again; else the buffer is a spare
    /// ([`Comm::spare`]) or a new `T`. A lender that needs a verdict
    /// takes it with [`Comm::reclaim`] first.
    ///
    /// # Panics
    /// As [`Comm::send`] does.
    pub fn lend<T: Default + Wire + Send + 'static>(
        &self,
        dest: usize,
        tag: u32,
        k: usize,
        fill: impl FnOnce(&mut T),
    ) {
        let full = self.loans_to(dest, tag).is_some_and(|l| l.out >= k);
        let mut value = match full.then(|| self.take_back::<T>(dest, tag)).flatten() {
            Some((oldest, _)) => oldest,
            None => self.spare().unwrap_or_default(),
        };
        fill(&mut value);
        self.send(dest, tag, value);
        match self.loans_to(dest, tag) {
            Some(mut l) => (l.out, l.k) = (l.out + 1, k),
            None => (self.loans.borrow_mut()).push(Loans {
                dest,
                tag,
                out: 1,
                k,
            }),
        }
    }

    /// Wait for the oldest loan out to `dest` on `tag` to come back, keep
    /// it as a spare and return its verdict; `None`, at once, if none is
    /// out.
    pub fn reclaim<T: Send + 'static>(&self, dest: usize, tag: u32) -> Option<Verdict> {
        let (value, verdict) = self.take_back::<T>(dest, tag)?;
        self.keep(value, self.loans_to(dest, tag).map_or(0, |l| l.k));
        Some(verdict)
    }

    /// Give `value`, lent by `src` on `tag`, back with `verdict`;
    /// best-effort: `false` if the lender has exited. The buffer comes
    /// back but its contents do not travel, so a probe counts the return
    /// at its `size_of`.
    pub fn give_back<T: Send + 'static>(
        &self,
        src: usize,
        tag: u32,
        value: T,
        verdict: Verdict,
    ) -> bool {
        let shallow = |_: &(T, Verdict)| size_of::<(T, Verdict)>();
        self.try_send(src, Tag::returned(tag), (value, verdict), shallow)
    }

    /// One of this rank's spare `T`s, if it keeps any.
    pub fn spare<T: Send + 'static>(&self) -> Option<T> {
        let mut pool = self.pool.borrow_mut();
        pool.iter_mut()
            .find_map(|kept| kept.downcast_mut::<Vec<T>>())?
            .pop()
    }

    /// Keep `value` for a later [`Comm::spare`], unless `cap` `T`s are
    /// kept already: then it is dropped.
    pub fn keep<T: Send + 'static>(&self, value: T, cap: usize) {
        let mut pool = self.pool.borrow_mut();
        if !pool.iter().any(|kept| kept.is::<Vec<T>>()) {
            pool.push(Box::new(Vec::<T>::new()));
        }
        let kept = pool
            .iter_mut()
            .find_map(|kept| kept.downcast_mut::<Vec<T>>());
        if let Some(kept) = kept.filter(|kept| kept.len() < cap) {
            kept.push(value);
        }
    }

    fn loans_to(&self, dest: usize, tag: u32) -> Option<RefMut<'_, Loans>> {
        let loans = self.loans.borrow_mut();
        RefMut::filter_map(loans, |l| {
            l.iter_mut().find(|l| (l.dest, l.tag) == (dest, tag))
        })
        .ok()
    }

    /// The oldest loan out to `dest` on `tag`, back, with its verdict.
    fn take_back<T: Send + 'static>(&self, dest: usize, tag: u32) -> Option<(T, Verdict)> {
        self.loans_to(dest, tag).filter(|l| l.out > 0)?.out -= 1;
        Some(self.recv_tagged(dest, Tag::returned(tag)).1)
    }
}

#[cfg(test)]
mod tests {
    use super::Verdict;
    use crate::World;

    const TAG: u32 = 5;

    #[test]
    fn at_most_k_out_and_the_oldest_comes_back_first() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                let mut ats = Vec::new();
                for i in 0..5u8 {
                    comm.lend(1, TAG, 2, |buf: &mut Vec<u8>| {
                        buf.clear();
                        buf.push(i);
                        ats.push(buf.as_ptr());
                    });
                }
                while comm.reclaim::<Vec<u8>>(1, TAG) == Some(Verdict::Taken) {}
                assert_eq!(comm.reclaim::<Vec<u8>>(1, TAG), None, "none out");
                // The third loan went out in the first one's buffer, the
                // fourth in the second's, the fifth in the first's again.
                assert_eq!((ats[2], ats[3], ats[4]), (ats[0], ats[1], ats[0]));
                // Both buffers are spares again; a third is not kept.
                let kept = [comm.spare::<Vec<u8>>(), comm.spare::<Vec<u8>>()];
                assert!(kept.iter().all(Option::is_some));
                assert_eq!(comm.spare::<Vec<u8>>(), None);
            } else {
                for i in 0..5u8 {
                    let buf: Vec<u8> = comm.recv(0, TAG);
                    assert_eq!(buf, [i]);
                    assert!(comm.give_back(0, TAG, buf, Verdict::Taken));
                }
            }
        });
    }

    #[test]
    fn a_refusal_reaches_the_lender() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.lend(1, TAG, 1, |step: &mut u64| *step = 7);
                assert_eq!(comm.reclaim::<u64>(1, TAG), Some(Verdict::Refused));
                assert_eq!(comm.spare::<u64>(), Some(7), "the buffer came back");
            } else {
                let step: u64 = comm.recv(0, TAG);
                comm.give_back(0, TAG, step, Verdict::Refused);
            }
        });
    }

    #[test]
    fn the_pool_keeps_each_type_up_to_its_cap() {
        World::run(1, |comm| {
            comm.keep(1u32, 2);
            comm.keep(2u32, 2);
            comm.keep(3u32, 2);
            comm.keep(String::from("s"), 1);
            assert_eq!(comm.spare::<String>().as_deref(), Some("s"));
            assert_eq!(comm.spare::<u32>(), Some(2));
            assert_eq!(comm.spare::<u32>(), Some(1));
            assert_eq!(comm.spare::<u32>(), None);
            assert_eq!(comm.spare::<u64>(), None, "never kept");
        });
    }

    #[test]
    fn a_loan_and_its_return_count_as_two_messages() {
        World::run(2, |comm| {
            comm.attach_probe(probe::enabled());
            if comm.rank() == 0 {
                comm.lend(1, TAG, 1, |v: &mut Vec<u64>| v.push(1));
                comm.reclaim::<Vec<u64>>(1, TAG);
            } else {
                let v: Vec<u64> = comm.recv(0, TAG);
                comm.give_back(0, TAG, v, Verdict::Taken);
            }
            let snap = comm.probe().snapshot();
            let p2p = snap.counters.iter().find(|c| c.name == "minimpi/p2p");
            assert_eq!(p2p.map(|c| c.messages), Some(1), "rank {}", comm.rank());
        });
    }
}
