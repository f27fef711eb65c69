//! Virtual time for the simulation kernel.
//!
//! The paper reports every time-based metric in **minutes** (job runtimes,
//! suspension times, completion times, the 500,000-minute trace horizon), so
//! the kernel's clock is an integer minute counter. Using integers keeps the
//! event queue total-ordered and the simulation bit-for-bit deterministic.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An absolute instant in simulated time, measured in whole minutes since
/// the start of the simulation.
///
/// # Examples
///
/// ```
/// use netbatch_sim_engine::time::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_hours(2);
/// assert_eq!(t.as_minutes(), 120);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `minutes` minutes after the start of the simulation.
    pub const fn from_minutes(minutes: u64) -> Self {
        SimTime(minutes)
    }

    /// Returns the number of whole minutes since the start of the simulation.
    pub const fn as_minutes(self) -> u64 {
        self.0
    }

    /// Returns the duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`; saturates to
    /// zero in release builds.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(
            earlier.0 <= self.0,
            "SimTime::since called with a later instant: {earlier} > {self}"
        );
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}m", self.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl From<u64> for SimTime {
    fn from(minutes: u64) -> Self {
        SimTime(minutes)
    }
}

/// A span of simulated time, measured in whole minutes.
///
/// # Examples
///
/// ```
/// use netbatch_sim_engine::time::SimDuration;
///
/// let d = SimDuration::from_days(1) + SimDuration::from_hours(1);
/// assert_eq!(d.as_minutes(), 25 * 60);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// One minute, the kernel's clock resolution (ASCA samples per minute).
    pub const MINUTE: SimDuration = SimDuration(1);

    /// One hour.
    pub const HOUR: SimDuration = SimDuration(60);

    /// One day.
    pub const DAY: SimDuration = SimDuration(24 * 60);

    /// One week — the length of the paper's busy evaluation window.
    pub const WEEK: SimDuration = SimDuration(7 * 24 * 60);

    /// Creates a duration of `minutes` minutes.
    pub const fn from_minutes(minutes: u64) -> Self {
        SimDuration(minutes)
    }

    /// Creates a duration of `hours` hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 60)
    }

    /// Creates a duration of `days` days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * 24 * 60)
    }

    /// Returns the number of whole minutes in this duration.
    pub const fn as_minutes(self) -> u64 {
        self.0
    }

    /// Returns this duration as a floating-point number of minutes, for
    /// metric arithmetic.
    pub const fn as_minutes_f64(self) -> f64 {
        self.0 as f64
    }

    /// Returns true if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the duration by an integer scale factor.
    pub const fn scaled(self, factor: u64) -> SimDuration {
        SimDuration(self.0 * factor)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}m", self.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl From<u64> for SimDuration {
    fn from(minutes: u64) -> Self {
        SimDuration(minutes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_minutes(100);
        let d = SimDuration::from_minutes(40);
        assert_eq!((t + d).since(t), d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn duration_constants_are_consistent() {
        assert_eq!(SimDuration::HOUR, SimDuration::MINUTE.scaled(60));
        assert_eq!(SimDuration::DAY, SimDuration::HOUR.scaled(24));
        assert_eq!(SimDuration::WEEK, SimDuration::DAY.scaled(7));
        assert_eq!(SimDuration::WEEK.as_minutes(), 10_080);
    }

    #[test]
    fn since_saturates_in_release() {
        let a = SimTime::from_minutes(10);
        let b = SimTime::from_minutes(20);
        assert_eq!(b.since(a).as_minutes(), 10);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(SimTime::MAX.saturating_add(SimDuration::DAY), SimTime::MAX);
        assert_eq!(
            SimDuration::from_minutes(5).saturating_sub(SimDuration::from_minutes(9)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn durations_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_minutes).sum();
        assert_eq!(total.as_minutes(), 10);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_minutes(7).to_string(), "t+7m");
        assert_eq!(SimDuration::from_hours(1).to_string(), "60m");
    }

    #[test]
    fn ordering_follows_minutes() {
        assert!(SimTime::from_minutes(1) < SimTime::from_minutes(2));
        assert!(SimDuration::from_minutes(59) < SimDuration::HOUR);
    }
}
