//! Per-tenant circuit breaker.
//!
//! A tenant whose requests keep panicking is cut off *at admission*
//! instead of being allowed to burn pool time crashing: after
//! [`BreakerConfig::trip_after`] consecutive panics the breaker opens
//! and submissions fail fast with
//! [`Rejected::CircuitOpen`](crate::Rejected::CircuitOpen). After a
//! cool-down the breaker half-opens — exactly one probe request is
//! admitted; its outcome decides whether the breaker closes again or
//! re-opens with a doubled (capped) cool-down.
//!
//! Budget trips ([`Exceeded`](bds_pool::Exceeded)) are *not* failures
//! here: a tenant with tight deadlines is behaving, not crashing.

use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Tuning for a tenant's circuit breaker.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive panics that trip the breaker. Use a large value
    /// (e.g. `u32::MAX`) to effectively disable it.
    pub trip_after: u32,
    /// Initial cool-down once tripped; each failed probe doubles it.
    pub cool_down: Duration,
    /// Upper bound on the doubled cool-down.
    pub max_cool_down: Duration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            trip_after: 3,
            cool_down: Duration::from_millis(100),
            max_cool_down: Duration::from_secs(5),
        }
    }
}

#[derive(Debug)]
enum State {
    /// Admitting normally; `strikes` consecutive panics so far.
    Closed { strikes: u32 },
    /// Rejecting until `until`; will half-open then.
    Open { until: Instant, cool_down: Duration },
    /// One probe is out; everyone else is rejected until it resolves.
    HalfOpen { cool_down: Duration },
}

/// One tenant's breaker; see the module docs for the state machine.
pub(crate) struct Breaker {
    cfg: BreakerConfig,
    state: Mutex<State>,
}

impl Breaker {
    pub(crate) fn new(cfg: BreakerConfig) -> Breaker {
        assert!(cfg.trip_after > 0, "trip_after must be at least 1");
        Breaker {
            cfg,
            state: Mutex::new(State::Closed { strikes: 0 }),
        }
    }

    /// Admission check. `Ok(())` admits (in half-open state, the caller
    /// *is* the single probe); `Err(retry_after)` rejects with the time
    /// until the next half-open transition.
    pub(crate) fn check(&self, now: Instant) -> Result<(), Duration> {
        let mut state = self.state.lock();
        match *state {
            State::Closed { .. } => Ok(()),
            State::Open { until, cool_down } => {
                if now >= until {
                    // Cool-down over: this caller becomes the probe.
                    *state = State::HalfOpen { cool_down };
                    Ok(())
                } else {
                    Err(until - now)
                }
            }
            State::HalfOpen { cool_down } => Err(cool_down),
        }
    }

    /// A request finished without panicking (success or budget trip).
    pub(crate) fn on_success(&self) {
        let mut state = self.state.lock();
        // Whatever state we were in, a clean completion resets the
        // breaker: in half-open this is the probe succeeding; in closed
        // it clears the strike count; in open (a request admitted
        // before the trip, finishing late) it ends the outage early.
        *state = State::Closed { strikes: 0 };
    }

    /// A request's closure panicked.
    pub(crate) fn on_panic(&self, now: Instant) {
        let mut state = self.state.lock();
        *state = match *state {
            State::Closed { strikes } => {
                let strikes = strikes + 1;
                if strikes >= self.cfg.trip_after {
                    State::Open {
                        until: now + self.cfg.cool_down,
                        cool_down: self.cfg.cool_down,
                    }
                } else {
                    State::Closed { strikes }
                }
            }
            // The probe failed: re-open, twice as patient.
            State::HalfOpen { cool_down } | State::Open { cool_down, .. } => {
                let cool_down = (cool_down * 2).min(self.cfg.max_cool_down);
                State::Open {
                    until: now + cool_down,
                    cool_down,
                }
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            trip_after: 2,
            cool_down: Duration::from_millis(50),
            max_cool_down: Duration::from_millis(200),
        }
    }

    #[test]
    fn trips_after_consecutive_panics() {
        let b = Breaker::new(cfg());
        let t0 = Instant::now();
        assert!(b.check(t0).is_ok());
        b.on_panic(t0);
        assert!(b.check(t0).is_ok(), "one strike is below the threshold");
        b.on_panic(t0);
        let retry = b.check(t0).unwrap_err();
        assert!(retry <= Duration::from_millis(50));
    }

    #[test]
    fn success_resets_the_strike_count() {
        let b = Breaker::new(cfg());
        let t0 = Instant::now();
        b.on_panic(t0);
        b.on_success();
        b.on_panic(t0);
        assert!(
            b.check(t0).is_ok(),
            "strikes must not accumulate across successes"
        );
    }

    #[test]
    fn half_opens_after_cooldown_and_closes_on_probe_success() {
        let b = Breaker::new(cfg());
        let t0 = Instant::now();
        b.on_panic(t0);
        b.on_panic(t0);
        // Cool-down not over: rejected.
        assert!(b.check(t0 + Duration::from_millis(10)).is_err());
        // Cool-down over: exactly one probe admitted, the next rejected.
        let t1 = t0 + Duration::from_millis(60);
        assert!(b.check(t1).is_ok());
        assert!(b.check(t1).is_err(), "only one probe while half-open");
        b.on_success();
        assert!(b.check(t1).is_ok(), "probe success closes the breaker");
    }

    #[test]
    fn failed_probe_doubles_the_cooldown_up_to_the_cap() {
        let b = Breaker::new(cfg());
        let mut now = Instant::now();
        b.on_panic(now);
        b.on_panic(now); // open, cool_down = 50ms
        for expected_ms in [100u64, 200, 200] {
            now += Duration::from_millis(250); // past any cool-down
            assert!(b.check(now).is_ok(), "should half-open");
            b.on_panic(now); // probe fails: doubled, capped at 200ms
            let retry = b.check(now).unwrap_err();
            let expected = Duration::from_millis(expected_ms);
            assert!(
                retry <= expected && retry > expected - Duration::from_millis(20),
                "expected ~{expected:?}, got {retry:?}"
            );
        }
    }
}
