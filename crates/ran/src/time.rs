//! Simulation time: nanosecond-resolution wall clock.
//!
//! Everything in the reproduction — slot boundaries, task runtimes, the
//! 20 µs scheduler tick — is expressed in [`Nanos`]. Using an integer
//! nanosecond clock keeps the discrete-event simulator exact (no float
//! drift over 8-hour-style runs) and makes deadline comparisons total.

use serde::{Deserialize, Serialize};

/// A point in time or a duration, in nanoseconds.
///
/// The arithmetic is saturating on subtraction (durations can't go
/// negative) and plain on addition. The clock holds ~584 years; durations
/// and deadlines read from input are refused far below that (a run's
/// `concordia_core::config::MAX_DURATION`, a DAG's
/// [`MAX_DEADLINE`](crate::cell::MAX_DEADLINE)).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Zero.
    pub const ZERO: Nanos = Nanos(0);

    /// Constructs from microseconds.
    pub const fn from_micros(us: u64) -> Nanos {
        Nanos(us * 1_000)
    }

    /// Constructs from milliseconds.
    pub const fn from_millis(ms: u64) -> Nanos {
        Nanos(ms * 1_000_000)
    }

    /// Constructs from seconds.
    pub const fn from_secs(s: u64) -> Nanos {
        Nanos(s * 1_000_000_000)
    }

    /// Constructs from a float microsecond count (rounds to nearest ns,
    /// clamping negatives to zero).
    pub fn from_micros_f64(us: f64) -> Nanos {
        Nanos((us.max(0.0) * 1_000.0).round() as u64)
    }

    /// Value in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in (floating) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Value in (floating) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction: `a.saturating_sub(b) == 0` when `b > a`.
    pub fn saturating_sub(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(other.0))
    }

    /// Checked subtraction.
    pub fn checked_sub(self, other: Nanos) -> Option<Nanos> {
        self.0.checked_sub(other.0).map(Nanos)
    }

    /// Scales by a float factor (rounds; clamps negatives to zero).
    pub fn scale(self, factor: f64) -> Nanos {
        Nanos((self.0 as f64 * factor).max(0.0).round() as u64)
    }

    /// The larger of the two.
    pub fn max(self, other: Nanos) -> Nanos {
        Nanos(self.0.max(other.0))
    }

    /// The smaller of the two.
    pub fn min(self, other: Nanos) -> Nanos {
        Nanos(self.0.min(other.0))
    }
}

impl std::ops::Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for Nanos {
    type Output = Nanos;
    /// Panics on underflow in debug builds; use
    /// [`Nanos::saturating_sub`] when the order is not guaranteed.
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl std::ops::Mul<u64> for Nanos {
    type Output = Nanos;
    /// Integer multiplication by a count.
    #[inline]
    fn mul(self, k: u64) -> Nanos {
        Nanos(self.0 * k)
    }
}

impl std::fmt::Display for Nanos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(Nanos::from_micros(20).as_nanos(), 20_000);
        assert_eq!(Nanos::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(Nanos::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(Nanos::from_micros_f64(1.5).as_nanos(), 1_500);
        assert_eq!(Nanos::from_micros_f64(-3.0), Nanos::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos::from_micros(10);
        let b = Nanos::from_micros(3);
        assert_eq!(a + b, Nanos::from_micros(13));
        assert_eq!(a - b, Nanos::from_micros(7));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a.checked_sub(b), Some(Nanos::from_micros(7)));
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(a * 3, Nanos::from_micros(30));
        assert_eq!(a.scale(1.25), Nanos::from_micros_f64(12.5));
    }

    #[test]
    fn ordering_and_minmax() {
        let a = Nanos(5);
        let b = Nanos(9);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", Nanos(500)), "500ns");
        assert_eq!(format!("{}", Nanos::from_micros(20)), "20.000us");
        assert_eq!(format!("{}", Nanos::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", Nanos::from_secs(1)), "1.000s");
    }

    #[test]
    fn conversions_round_trip() {
        let t = Nanos::from_micros(1234);
        assert!((t.as_micros_f64() - 1234.0).abs() < 1e-9);
        assert!((t.as_millis_f64() - 1.234).abs() < 1e-9);
    }
}
