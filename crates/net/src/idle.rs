//! The one wait policy both ends of a connection share.
//!
//! [`crate::NetServer::serve`] waits out an idle poll cycle with it, and
//! [`crate::NetClient`] waits out a `WouldBlock` on its non-blocking stream
//! with it: poll again at once after progress, re-poll after a
//! `std::thread::yield_now()` for a quiet window after the last progress,
//! and only once the window has passed with nothing to do fall back to a
//! wait the kernel ends — a timed sleep on the server, one blocking read or
//! write on the client.

use std::time::Duration;

/// How long after the last progress a waiting end keeps re-polling
/// (yielding in between) before it falls back to a kernel wait.  Long
/// enough to cover a closed-loop client's turnaround — including a
/// generator that sleeps an [`IDLE_SLEEP`] after a sweep of polls that
/// completed nothing, and the timer slack on top of it — short enough
/// that an abandoned loop spins for a negligible time.
pub(crate) const QUIET_WINDOW: Duration = Duration::from_millis(2);

/// One sleep of a server that has been quiet for longer than
/// [`QUIET_WINDOW`]: the bound on how late a request into a sleeping
/// server is noticed.  It is also the interval at which a server with a
/// connection open polls its listener (`NetServer::poll_cycle`), so a new
/// connection is noticed as late, busy server or sleeping one.
pub(crate) const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// What a waiting end does before its next poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IdleAction {
    /// The last poll made progress: poll again immediately.
    Continue,
    /// Nothing moved, but something did recently: let another thread run,
    /// then poll again.
    Yield,
    /// Nothing has moved for a whole quiet window: wait in the kernel (the
    /// server sleeps this long; the client blocks in its next read or
    /// write instead).
    Sleep(Duration),
}

/// The wait policy as a clock-free state machine: fed each poll's outcome
/// and the time since the previous poll, it tracks how long the loop has
/// been quiet and answers how to wait.
#[derive(Debug, Default)]
pub(crate) struct IdlePolicy {
    /// Time accumulated since the last poll that made progress.
    quiet: Duration,
}

impl IdlePolicy {
    pub(crate) fn next(&mut self, progressed: bool, elapsed: Duration) -> IdleAction {
        if progressed {
            self.quiet = Duration::ZERO;
            return IdleAction::Continue;
        }
        self.quiet = self.quiet.saturating_add(elapsed);
        if self.quiet < QUIET_WINDOW {
            IdleAction::Yield
        } else {
            IdleAction::Sleep(IDLE_SLEEP)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: Duration = Duration::from_micros(1);

    /// Feeds `(progressed, elapsed)` pairs, returns the actions.
    fn run(policy: &mut IdlePolicy, script: &[(bool, Duration)]) -> Vec<IdleAction> {
        script
            .iter()
            .map(|&(progressed, elapsed)| policy.next(progressed, elapsed))
            .collect()
    }

    #[test]
    fn progress_polls_again_at_once_and_resets_the_quiet_window() {
        let mut policy = IdlePolicy::default();
        let almost = QUIET_WINDOW - US;
        assert_eq!(
            run(
                &mut policy,
                &[
                    (true, US),
                    // Quiet for almost a whole window: still yielding.
                    (false, almost),
                    // Progress — however late — starts the window afresh,
                    (true, 10 * QUIET_WINDOW),
                    // so the same quiet stretch yields again,
                    (false, almost),
                    // and only its completion sleeps.
                    (false, US),
                ]
            ),
            [
                IdleAction::Continue,
                IdleAction::Yield,
                IdleAction::Continue,
                IdleAction::Yield,
                IdleAction::Sleep(IDLE_SLEEP),
            ]
        );
    }

    #[test]
    fn the_yield_window_is_bounded_and_every_idle_cycle_after_it_sleeps() {
        let mut policy = IdlePolicy::default();
        let step = 50 * US;
        let actions = run(&mut policy, &[(false, step); 1_000]);
        let yields = actions
            .iter()
            .take_while(|a| **a == IdleAction::Yield)
            .count();
        // Quiet time reaches the window on cycle ⌈window / step⌉.
        assert_eq!(
            yields as u128,
            QUIET_WINDOW.as_nanos() / step.as_nanos() - 1
        );
        assert!(
            actions[yields..]
                .iter()
                .all(|a| *a == IdleAction::Sleep(IDLE_SLEEP)),
            "a server quiet past its window sleeps on every idle cycle"
        );
        // However long a sleep overshoots, the quiet time cannot wrap
        // around into a fresh window.
        assert_eq!(
            policy.next(false, Duration::MAX),
            IdleAction::Sleep(IDLE_SLEEP)
        );
        assert_eq!(policy.next(false, US), IdleAction::Sleep(IDLE_SLEEP));
    }

    #[test]
    fn one_slow_idle_cycle_goes_straight_to_sleep() {
        // The thread was descheduled for longer than the window: the
        // first idle cycle after it already sleeps.
        let mut policy = IdlePolicy::default();
        assert_eq!(
            policy.next(false, QUIET_WINDOW),
            IdleAction::Sleep(IDLE_SLEEP)
        );
    }
}
