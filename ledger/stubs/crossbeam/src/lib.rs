//! Offline stand-in for the one corner of `crossbeam` the ctup workspace
//! uses: `channel::{bounded, Sender, Receiver, TrySendError}` with
//! `send`, `try_send`, `recv`, `try_recv`, `iter` and `try_iter`.
//!
//! `std::sync::mpsc::Receiver` is not `Sync`, which the program requires
//! (`PipelineSink` shares its event receiver between the pump and the
//! watchdog), so this is a plain bounded queue behind one mutex and two
//! condition variables. Waiter counts keep the uncontended path free of
//! wake-up syscalls. Hand-off cost is therefore a mutex acquisition, not
//! the published crate's lock-free slot claim; see the ledger README.

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};

    /// The receiver hung up; the message comes back.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Why a non-blocking send failed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is at capacity.
        Full(T),
        /// Every receiver hung up.
        Disconnected(T),
    }

    /// Every sender hung up and the queue is empty.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Why a non-blocking receive returned nothing.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Nothing queued right now.
        Empty,
        /// Every sender hung up and the queue is empty.
        Disconnected,
    }

    #[derive(Debug)]
    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        waiting_senders: usize,
        waiting_receivers: usize,
    }

    #[derive(Debug)]
    struct Shared<T> {
        state: Mutex<State<T>>,
        capacity: usize,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            match self.state.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            }
        }
    }

    /// Sending half.
    #[derive(Debug)]
    pub struct Sender<T>(Arc<Shared<T>>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.0.lock();
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Blocks while the channel is full.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut state = self.0.lock();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(msg));
                }
                if state.queue.len() < self.0.capacity {
                    break;
                }
                state.waiting_senders += 1;
                state = match self.0.not_full.wait(state) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
                state.waiting_senders -= 1;
            }
            state.queue.push_back(msg);
            let wake = state.waiting_receivers > 0;
            drop(state);
            if wake {
                self.0.not_empty.notify_one();
            }
            Ok(())
        }

        /// Never blocks.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut state = self.0.lock();
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if state.queue.len() >= self.0.capacity {
                return Err(TrySendError::Full(msg));
            }
            state.queue.push_back(msg);
            let wake = state.waiting_receivers > 0;
            drop(state);
            if wake {
                self.0.not_empty.notify_one();
            }
            Ok(())
        }
    }

    /// Receiving half.
    #[derive(Debug)]
    pub struct Receiver<T>(Arc<Shared<T>>);

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.0.lock();
            state.receivers -= 1;
            if state.receivers == 0 {
                drop(state);
                self.0.not_full.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.0.lock();
            loop {
                if let Some(msg) = state.queue.pop_front() {
                    let wake = state.waiting_senders > 0;
                    drop(state);
                    if wake {
                        self.0.not_full.notify_one();
                    }
                    return Ok(msg);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state.waiting_receivers += 1;
                state = match self.0.not_empty.wait(state) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
                state.waiting_receivers -= 1;
            }
        }

        /// Never blocks.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.0.lock();
            match state.queue.pop_front() {
                Some(msg) => {
                    let wake = state.waiting_senders > 0;
                    drop(state);
                    if wake {
                        self.0.not_full.notify_one();
                    }
                    Ok(msg)
                }
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocking iterator that ends when every sender is gone.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter(self)
        }

        /// Drains what is queued right now.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter(self)
        }
    }

    /// See [`Receiver::iter`].
    #[derive(Debug)]
    pub struct Iter<'a, T>(&'a Receiver<T>);

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.0.recv().ok()
        }
    }

    /// See [`Receiver::try_iter`].
    #[derive(Debug)]
    pub struct TryIter<'a, T>(&'a Receiver<T>);

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.0.try_recv().ok()
        }
    }

    /// A channel holding at most `capacity` messages (at least one: the
    /// program never asks for a rendezvous channel).
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(capacity.min(4096)),
                senders: 1,
                receivers: 1,
                waiting_senders: 0,
                waiting_receivers: 0,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(Arc::clone(&shared)), Receiver(shared))
    }
}
