//! Open-loop send schedule. Request `k` is due at `start + k / rate`
//! whether or not earlier requests have finished, and its latency is
//! taken from that due time: a sender that stalls cannot hide the wait
//! it imposed on the requests queued behind the stall.

use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    rate: f64,
}

impl Schedule {
    pub fn new(start: Instant, rate_per_s: f64) -> Schedule {
        assert!(rate_per_s > 0.0, "an open loop needs a positive rate");
        Schedule {
            start,
            rate: rate_per_s,
        }
    }

    /// When request `k` should be sent.
    pub fn due(&self, k: u64) -> Instant {
        self.start + Duration::from_secs_f64(k as f64 / self.rate)
    }

    /// How far behind its schedule the sender started request `k`.
    pub fn lateness(&self, k: u64, sent: Instant) -> Duration {
        sent.saturating_duration_since(self.due(k))
    }

    /// Latency of request `k`: due time to resolution, never send time
    /// to resolution.
    pub fn latency(&self, k: u64, resolved: Instant) -> Duration {
        resolved.saturating_duration_since(self.due(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn requests_fall_due_at_the_fixed_rate() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 1000.0);
        assert_eq!(s.due(0), t0);
        assert_eq!(s.due(5) - t0, 5 * MS);
    }

    #[test]
    fn a_stalled_send_is_timed_from_its_due_time() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 1000.0);
        // The sender stalls for 10 ms: request 5, due at 5 ms, is only
        // sent at 15 ms and resolves 1 ms after it was sent.
        let sent = t0 + 15 * MS;
        let resolved = sent + MS;
        assert_eq!(s.lateness(5, sent), 10 * MS);
        assert_eq!(s.latency(5, resolved), 11 * MS);
        // Request 14 was due during the stall and shares its tail.
        assert_eq!(s.latency(14, resolved), 2 * MS);
    }

    #[test]
    fn an_early_send_is_not_late() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 100.0);
        assert_eq!(s.lateness(3, t0), Duration::ZERO);
    }
}
