//! Admission control: a worker-thread ledger with backpressure.
//!
//! The daemon multiplexes every stream onto the process-wide worker pool
//! ([`streamlin_runtime::pool`]). The pool itself grows on demand, so
//! oversubscription — not exhaustion — is the failure mode: admitting a
//! fourth 4-stage pipeline onto an 8-way machine just makes all of them
//! slower and the watchdogs twitchier. The ledger enforces a budget
//! *before* threads are taken: opening a stream claims its partition's
//! actual stage count (1 for single-threaded streams), and a claim that
//! would exceed the budget either waits (bounded, `wait_ms`) for a
//! neighbor to close or is refused **with a structured error** — the
//! protocol turns [`AdmitError::Saturated`] into `{"ok":false,
//! "error":"saturated", ...}`, never a hang, and the client decides
//! whether to retry, queue, or shed load.
//!
//! Releases happen on stream close and on per-stream degradation (a
//! degraded stream keeps serving single-threaded, so its surplus claim
//! returns to the budget immediately).

use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

use crate::lock;

/// Refusal detail for a claim that could not be admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The budget cannot fit the claim right now (and did not free up
    /// within the caller's wait bound).
    Saturated {
        need: usize,
        in_use: usize,
        budget: usize,
    },
    /// The claim can never fit: it exceeds the whole budget.
    TooLarge { need: usize, budget: usize },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Saturated {
                need,
                in_use,
                budget,
            } => write!(
                f,
                "pool saturated: need {need} worker(s), {in_use}/{budget} in use"
            ),
            AdmitError::TooLarge { need, budget } => {
                write!(
                    f,
                    "stream needs {need} worker(s) but the budget is {budget}"
                )
            }
        }
    }
}

/// The ledger: worker budget, current claims, and a condvar so bounded
/// waits wake up as soon as a neighbor releases.
pub struct Ledger {
    budget: usize,
    state: Mutex<usize>,
    freed: Condvar,
}

impl Ledger {
    pub fn new(budget: usize) -> Self {
        Ledger {
            budget: budget.max(1),
            state: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// Total worker budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Workers currently claimed.
    pub fn in_use(&self) -> usize {
        *lock(&self.state)
    }

    /// Claims `need` workers, waiting up to `wait` for capacity when the
    /// ledger is momentarily full. `wait = None` refuses immediately.
    ///
    /// # Errors
    ///
    /// [`AdmitError::TooLarge`] when the claim can never fit;
    /// [`AdmitError::Saturated`] when it does not fit now (structured
    /// backpressure — the caller reports it, it never blocks
    /// indefinitely).
    pub fn claim(&self, need: usize, wait: Option<Duration>) -> Result<(), AdmitError> {
        let need = need.max(1);
        if need > self.budget {
            return Err(AdmitError::TooLarge {
                need,
                budget: self.budget,
            });
        }
        let mut in_use = lock(&self.state);
        if *in_use + need > self.budget {
            if let Some(wait) = wait {
                let (guard, timeout) = self
                    .freed
                    .wait_timeout_while(in_use, wait, |u| *u + need > self.budget)
                    .unwrap_or_else(PoisonError::into_inner);
                in_use = guard;
                if timeout.timed_out() && *in_use + need > self.budget {
                    return Err(AdmitError::Saturated {
                        need,
                        in_use: *in_use,
                        budget: self.budget,
                    });
                }
            } else {
                return Err(AdmitError::Saturated {
                    need,
                    in_use: *in_use,
                    budget: self.budget,
                });
            }
        }
        *in_use += need;
        Ok(())
    }

    /// Returns `count` workers to the budget and wakes bounded waiters.
    pub fn release(&self, count: usize) {
        let mut in_use = lock(&self.state);
        *in_use = in_use.saturating_sub(count);
        drop(in_use);
        self.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn refusal_is_structured_and_immediate() {
        let l = Ledger::new(4);
        l.claim(3, None).unwrap();
        assert_eq!(
            l.claim(2, None),
            Err(AdmitError::Saturated {
                need: 2,
                in_use: 3,
                budget: 4
            })
        );
        l.claim(1, None).unwrap();
        assert_eq!(l.in_use(), 4);
    }

    #[test]
    fn oversized_claims_are_rejected_outright() {
        let l = Ledger::new(2);
        assert_eq!(
            l.claim(3, Some(Duration::from_secs(60))),
            Err(AdmitError::TooLarge { need: 3, budget: 2 })
        );
    }

    #[test]
    fn release_admits_a_bounded_waiter() {
        let l = Arc::new(Ledger::new(2));
        l.claim(2, None).unwrap();
        let l2 = Arc::clone(&l);
        let waiter = thread::spawn(move || l2.claim(1, Some(Duration::from_secs(10))));
        thread::sleep(Duration::from_millis(50));
        l.release(2);
        waiter.join().unwrap().unwrap();
        assert_eq!(l.in_use(), 1);
    }

    #[test]
    fn bounded_wait_times_out_to_a_refusal() {
        let l = Ledger::new(1);
        l.claim(1, None).unwrap();
        let err = l.claim(1, Some(Duration::from_millis(30))).unwrap_err();
        assert!(matches!(err, AdmitError::Saturated { .. }));
    }
}
