//! Job priorities and the ownership model behind them.
//!
//! In NetBatch, business groups *own* machines they pay for; their jobs run
//! at high priority and may preempt (suspend) lower-priority jobs on those
//! machines (§2.2 of the paper). We model this with a totally ordered
//! [`Priority`]: a job may preempt another iff its priority is **strictly**
//! higher.

use std::fmt;

/// A job's scheduling priority. Larger values are more important.
///
/// The paper's environment is effectively two-class (owner/high vs
/// borrowed/low), but NetBatch supports finer levels, so this is a full
/// `u8` lattice with the two paper classes as named constants.
///
/// # Examples
///
/// ```
/// use netbatch_cluster::priority::Priority;
///
/// assert!(Priority::HIGH.can_preempt(Priority::LOW));
/// assert!(!Priority::LOW.can_preempt(Priority::HIGH));
/// assert!(!Priority::HIGH.can_preempt(Priority::HIGH)); // equal never preempts
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Priority(pub u8);

impl Priority {
    /// Low priority: jobs running on borrowed (non-owned) machines.
    pub const LOW: Priority = Priority(0);

    /// High priority: owners' jobs and latency-sensitive work.
    pub const HIGH: Priority = Priority(10);

    /// The maximum expressible priority.
    pub const MAX: Priority = Priority(u8::MAX);

    /// Creates a priority from a raw level.
    pub const fn new(level: u8) -> Self {
        Priority(level)
    }

    /// Returns the raw level.
    pub const fn level(self) -> u8 {
        self.0
    }

    /// Returns true if a job at this priority may preempt (suspend) a job at
    /// `other`. Preemption requires **strictly** greater priority; equals
    /// queue behind each other.
    pub const fn can_preempt(self, other: Priority) -> bool {
        self.0 > other.0
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Priority::LOW => write!(f, "low"),
            Priority::HIGH => write!(f, "high"),
            Priority(p) => write!(f, "prio{p}"),
        }
    }
}

impl From<u8> for Priority {
    fn from(level: u8) -> Self {
        Priority(level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn preemption_is_strict() {
        assert!(Priority::HIGH.can_preempt(Priority::LOW));
        assert!(!Priority::LOW.can_preempt(Priority::HIGH));
        assert!(!Priority::new(5).can_preempt(Priority::new(5)));
    }

    #[test]
    fn display_names_paper_classes() {
        assert_eq!(Priority::LOW.to_string(), "low");
        assert_eq!(Priority::HIGH.to_string(), "high");
        assert_eq!(Priority::new(3).to_string(), "prio3");
    }

    proptest! {
        /// can_preempt is a strict order: irreflexive and asymmetric.
        #[test]
        fn prop_preempt_strict_order(a in any::<u8>(), b in any::<u8>()) {
            let (pa, pb) = (Priority(a), Priority(b));
            prop_assert!(!pa.can_preempt(pa));
            if pa.can_preempt(pb) {
                prop_assert!(!pb.can_preempt(pa));
            }
        }

        /// can_preempt agrees with Ord.
        #[test]
        fn prop_preempt_matches_ord(a in any::<u8>(), b in any::<u8>()) {
            prop_assert_eq!(Priority(a).can_preempt(Priority(b)), a > b);
        }
    }
}
