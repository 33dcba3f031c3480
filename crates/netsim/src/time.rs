//! Simulated time.
//!
//! Time is a monotonically increasing nanosecond counter. Durations are plain
//! nanosecond spans. Both are thin wrappers over `u64` with the arithmetic
//! the simulator needs; they intentionally do not interoperate with
//! `std::time` so wall-clock time can never leak into an experiment.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in simulated time, measured in nanoseconds since the start of the
/// simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The zero point of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Raw nanosecond value.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a floating point value (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    pub(crate) const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Raw nanosecond value.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds, truncated.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a floating point value.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating multiplication by an integer factor (used for exponential
    /// retransmission backoff).
    pub fn saturating_mul(self, factor: u32) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor as u64))
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

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u32> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u32) -> SimDuration {
        SimDuration(self.0 * rhs as u64)
    }
}

impl Div<u32> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u32) -> SimDuration {
        SimDuration(self.0 / rhs as u64)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{}ms", self.as_millis())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime(5_000);
        let d = SimDuration::from_micros(3);
        assert_eq!((t + d).as_nanos(), 8_000);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn since_saturates() {
        let early = SimTime(10);
        let late = SimTime(100);
        assert_eq!(early.since(late), SimDuration::ZERO);
        assert_eq!(late.since(early).as_nanos(), 90);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
    }

    #[test]
    fn backoff_multiplication() {
        let pto = SimDuration::from_millis(250);
        assert_eq!(pto.saturating_mul(4), SimDuration::from_secs(1));
        assert_eq!(pto * 2, SimDuration::from_millis(500));
        assert_eq!(pto / 5, SimDuration::from_millis(50));
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(format!("{}", SimDuration::from_millis(3)), "3ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDuration::from_nanos(17)), "17ns");
    }
}
