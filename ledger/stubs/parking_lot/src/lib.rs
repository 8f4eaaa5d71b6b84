//! Offline stand-in for `parking_lot::Mutex` (the only item the ctup
//! workspace uses, in the storage fault injector): a `std::sync::Mutex`
//! whose `lock` ignores poisoning, as parking_lot's does.

use std::sync::{Mutex as StdMutex, MutexGuard};

/// A mutex without lock poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T>(StdMutex<T>);

impl<T> Mutex<T> {
    /// Wraps `value`.
    pub const fn new(value: T) -> Self {
        Mutex(StdMutex::new(value))
    }

    /// Acquires the lock.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.0.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Consumes the mutex, returning the value.
    pub fn into_inner(self) -> T {
        match self.0.into_inner() {
            Ok(value) => value,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}
