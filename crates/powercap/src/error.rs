//! Typed configuration errors for powercap components.
//!
//! Constructors that take user-supplied parameters return these instead
//! of panicking, so callers building configs from files or CLI flags get
//! a diagnosable error rather than an abort. Internal-invariant checks
//! (values the library itself derives) remain `assert!`s with messages
//! naming the invariant.

use std::fmt;

/// Why a powercap component rejected its configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// A value that must be strictly positive was not.
    NonPositive {
        /// Parameter name.
        what: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A count parameter that must be at least one was zero.
    ZeroCount {
        /// Parameter name.
        what: &'static str,
    },
    /// A value fell outside its required interval.
    OutOfRange {
        /// Parameter name.
        what: &'static str,
        /// Offending value.
        value: f64,
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NonPositive { what, value } => {
                write!(f, "{what} must be positive, got {value}")
            }
            ConfigError::ZeroCount { what } => write!(f, "{what} must be at least 1"),
            ConfigError::OutOfRange {
                what,
                value,
                lo,
                hi,
            } => write!(f, "{what} = {value} is outside [{lo}, {hi}]"),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_parameter() {
        let e = ConfigError::NonPositive {
            what: "capacity_j",
            value: -1.0,
        };
        assert!(format!("{e}").contains("capacity_j"));
        let e = ConfigError::ZeroCount { what: "emergency_after" };
        assert!(format!("{e}").contains("emergency_after"));
        let e = ConfigError::OutOfRange {
            what: "charge_efficiency",
            value: 2.0,
            lo: 0.0,
            hi: 1.0,
        };
        assert!(format!("{e}").contains("charge_efficiency"));
    }
}
