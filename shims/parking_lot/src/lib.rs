//! Offline stand-in for the `parking_lot` crate.
//!
//! Wraps `std::sync` primitives with `parking_lot`'s ergonomics: `lock()`
//! returns the guard directly and poisoning is transparently ignored (a
//! panicked critical section does not wedge later lockers).

// The one place the std locks clippy.toml disallows are named.
#![allow(clippy::disallowed_types)]

use std::sync::{self, TryLockError};

/// Guard types are the std guards; only acquisition differs.
pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;
pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

/// A mutex whose `lock` never returns a poison error.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Wrap `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking; poison is ignored.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Try to acquire without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// A condition variable paired with [`Mutex`]: `wait` reacquires
/// through the same poison-transparent path as `lock`.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// A fresh condition variable.
    pub fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Atomically release the guard's lock and block until notified;
    /// the lock is reacquired (poison ignored) before returning.
    /// parking_lot-style in-place signature: the guard stays borrowed
    /// by the caller across the wait.
    ///
    /// A condvar must always wait with the same mutex (std
    /// restriction; `std::sync::Condvar::wait` may panic when one
    /// condvar meets a second mutex). Several condvars may share one
    /// mutex.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        // SAFETY: the guard is moved out, consumed by `wait`, and the
        // guard it returns is written back before anyone can observe
        // the hole. `std::sync::Condvar::wait` does not unwind for a
        // condvar that always waits with one mutex (documented above as
        // a usage requirement), so no path drops the moved-out guard
        // twice.
        unsafe {
            let owned = std::ptr::read(guard);
            let reacquired = self.inner.wait(owned).unwrap_or_else(|e| e.into_inner());
            std::ptr::write(guard, reacquired);
        }
    }

    /// Like [`Condvar::wait`], but gives up after `timeout`. Returns
    /// `true` if the wait timed out (parking_lot's `WaitTimeoutResult`
    /// collapsed to its `timed_out()` bool — the only bit callers use).
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: std::time::Duration) -> bool {
        // SAFETY: identical move-out/write-back discipline as `wait`:
        // the hole in `guard` is filled before this returns, and
        // `wait_timeout` does not unwind under the one-mutex-per-
        // condvar rule documented on `wait`.
        unsafe {
            let owned = std::ptr::read(guard);
            let (reacquired, result) = self
                .inner
                .wait_timeout(owned, timeout)
                .unwrap_or_else(|e| e.into_inner());
            std::ptr::write(guard, reacquired);
            result.timed_out()
        }
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// A reader-writer lock whose acquisitions never return poison errors.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Wrap `value`.
    pub fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquire an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_after_panicked_holder() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        *m.lock() += 1; // parking_lot semantics: no poison propagation
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (lock, cv) = &*p2;
            let mut ready = lock.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
            *ready
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn rwlock_many_readers() {
        let l = RwLock::new(5);
        let a = l.read();
        let b = l.read();
        assert_eq!((*a, *b), (5, 5));
    }
}
