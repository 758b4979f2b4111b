//! Event counters — the software stand-in for hardware performance counters.

use crate::CacheParams;

/// Miss/access counts accumulated by a [`crate::MemorySystem`] run.
///
/// The paper reports L1 misses, L2 misses and TLB misses for Radix-Decluster
/// (Fig. 7a) and uses the same three series to validate the cost models
/// (Fig. 9).  `accesses` counts logical memory references (per value touched,
/// not per byte).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Logical memory references issued.
    pub accesses: u64,
    /// Misses in the innermost (L1) data cache.
    pub l1_misses: u64,
    /// Misses in the outermost (L2) data cache.
    pub l2_misses: u64,
    /// Data-TLB misses.
    pub tlb_misses: u64,
}

impl EventCounts {
    /// All-zero counts.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Adds another set of counts to this one.
    pub fn accumulate(&mut self, other: &EventCounts) {
        self.accesses += other.accesses;
        self.l1_misses += other.l1_misses;
        self.l2_misses += other.l2_misses;
        self.tlb_misses += other.tlb_misses;
    }

    /// The memory-stall cycles these events imply under `params`' latencies.
    ///
    /// This is the quantity the cost models predict; comparing it against the
    /// simulator's replay of an algorithm is how we reproduce the
    /// "modeled (lines) vs measured (points)" panels of Fig. 7 and Fig. 9.
    pub fn stall_cycles(&self, params: &CacheParams) -> f64 {
        let l1 = params
            .levels
            .first()
            .map(|l| l.miss_latency_cycles)
            .unwrap_or(0);
        let l2 = params
            .levels
            .get(1)
            .map(|l| l.miss_latency_cycles)
            .unwrap_or(0);
        self.l1_misses as f64 * l1 as f64
            + self.l2_misses as f64 * l2 as f64
            + self.tlb_misses as f64 * params.tlb.miss_latency_cycles as f64
    }

    /// Memory-stall time in milliseconds under `params`.
    pub fn stall_millis(&self, params: &CacheParams) -> f64 {
        params.cycles_to_seconds(self.stall_cycles(params)) * 1e3
    }
}

impl std::ops::Add for EventCounts {
    type Output = EventCounts;

    fn add(self, rhs: EventCounts) -> EventCounts {
        let mut out = self;
        out.accumulate(&rhs);
        out
    }
}

impl std::ops::Sub for EventCounts {
    type Output = EventCounts;

    /// The events between two readings of one [`crate::MemorySystem`].
    fn sub(self, rhs: EventCounts) -> EventCounts {
        EventCounts {
            accesses: self.accesses - rhs.accesses,
            l1_misses: self.l1_misses - rhs.l1_misses,
            l2_misses: self.l2_misses - rhs.l2_misses,
            tlb_misses: self.tlb_misses - rhs.tlb_misses,
        }
    }
}

impl std::iter::Sum for EventCounts {
    fn sum<I: Iterator<Item = EventCounts>>(iter: I) -> Self {
        iter.fold(EventCounts::zero(), |acc, x| acc + x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_all_fields() {
        let a = EventCounts {
            accesses: 10,
            l1_misses: 4,
            l2_misses: 2,
            tlb_misses: 1,
        };
        let b = EventCounts {
            accesses: 5,
            l1_misses: 1,
            l2_misses: 1,
            tlb_misses: 0,
        };
        let c = a + b;
        assert_eq!(c.accesses, 15);
        assert_eq!(c.l1_misses, 5);
        assert_eq!(c.l2_misses, 3);
        assert_eq!(c.tlb_misses, 1);
    }

    #[test]
    fn stall_cycles_weights_by_latency() {
        let params = CacheParams::paper_pentium4();
        let e = EventCounts {
            accesses: 100,
            l1_misses: 10,
            l2_misses: 2,
            tlb_misses: 3,
        };
        let expected = 10.0 * 28.0 + 2.0 * 350.0 + 3.0 * 50.0;
        assert_eq!(e.stall_cycles(&params), expected);
        assert!(e.stall_millis(&params) > 0.0);
    }

    #[test]
    fn sum_over_iterator() {
        let parts = vec![
            EventCounts {
                accesses: 1,
                l1_misses: 1,
                l2_misses: 0,
                tlb_misses: 0,
            };
            4
        ];
        let total: EventCounts = parts.into_iter().sum();
        assert_eq!(total.accesses, 4);
        assert_eq!(total.l1_misses, 4);
    }
}
