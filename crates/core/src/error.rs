//! Error type shared across the workspace.

use std::fmt;

/// Errors produced by the hdidx crates.
///
/// The workspace deliberately avoids a `thiserror` dependency; the enum is
/// small and hand-rolled. It is `#[non_exhaustive]`: downstream matches
/// must carry a wildcard arm so future variants (like `IoFault`, added for
/// the fault-injection layer) do not break them.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A dimensionality of zero was supplied, or two objects with differing
    /// dimensionalities were combined.
    DimensionMismatch {
        /// Dimensionality expected by the receiver.
        expected: usize,
        /// Dimensionality actually supplied.
        actual: usize,
    },
    /// An empty dataset or empty point-index slice was supplied where at
    /// least one point is required.
    EmptyInput(&'static str),
    /// A parameter was outside its valid domain (e.g. a sampling fraction
    /// not in `(0, 1]`, or a page capacity below 2).
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the violated constraint.
        message: String,
    },
    /// A requested tree shape is infeasible (e.g. `h_upper` outside the
    /// bounds of Section 4.5, or more points than the tree can hold).
    InfeasibleTopology(String),
    /// The simulated disk was asked for an out-of-range page or record.
    IoOutOfRange {
        /// Requested index.
        index: usize,
        /// Number of valid entries.
        len: usize,
    },
    /// An injected I/O fault persisted through every retry attempt. The
    /// `kind` is the stable fault-taxonomy name (`"transient"`, `"torn"`);
    /// `page` is the absolute first page of the failed range.
    IoFault {
        /// Stable fault-kind name from the fault taxonomy.
        kind: &'static str,
        /// Absolute first page of the failed access.
        page: u64,
        /// Total attempts made (first try plus retries).
        attempts: u32,
    },
    /// A persistent page store failed: an OS-level I/O error, or on-disk
    /// state that failed validation on reopen (bad magic, a page-checksum
    /// mismatch from a torn write, a truncated superblock).
    StoreFailure {
        /// The operation or validation that failed (e.g. `"page checksum"`,
        /// `"pagefile write"`).
        op: &'static str,
        /// OS error string or validation detail.
        detail: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            Error::EmptyInput(what) => write!(f, "empty input: {what}"),
            Error::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            Error::InfeasibleTopology(msg) => write!(f, "infeasible tree topology: {msg}"),
            Error::IoOutOfRange { index, len } => {
                write!(f, "simulated I/O out of range: index {index}, length {len}")
            }
            Error::IoFault {
                kind,
                page,
                attempts,
            } => {
                write!(
                    f,
                    "I/O fault: {kind} fault at page {page} persisted after {attempts} attempts"
                )
            }
            Error::StoreFailure { op, detail } => {
                write!(f, "store failure during {op}: {detail}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used by every fallible API in the workspace.
pub type Result<T> = std::result::Result<T, Error>;

impl Error {
    /// Helper for constructing [`Error::InvalidParameter`].
    pub fn invalid(name: &'static str, message: impl Into<String>) -> Self {
        Error::InvalidParameter {
            name,
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        let e = Error::DimensionMismatch {
            expected: 3,
            actual: 5,
        };
        assert_eq!(e.to_string(), "dimension mismatch: expected 3, got 5");
        let e = Error::EmptyInput("dataset");
        assert_eq!(e.to_string(), "empty input: dataset");
        let e = Error::invalid("zeta", "must lie in (0, 1]");
        assert_eq!(
            e.to_string(),
            "invalid parameter `zeta`: must lie in (0, 1]"
        );
        let e = Error::InfeasibleTopology("h_upper too large".into());
        assert_eq!(e.to_string(), "infeasible tree topology: h_upper too large");
        let e = Error::IoOutOfRange { index: 9, len: 4 };
        assert_eq!(
            e.to_string(),
            "simulated I/O out of range: index 9, length 4"
        );
        let e = Error::IoFault {
            kind: "torn",
            page: 128,
            attempts: 4,
        };
        assert_eq!(
            e.to_string(),
            "I/O fault: torn fault at page 128 persisted after 4 attempts"
        );
        let e = Error::StoreFailure {
            op: "page checksum",
            detail: "page 7 checksum mismatch".into(),
        };
        assert_eq!(
            e.to_string(),
            "store failure during page checksum: page 7 checksum mismatch"
        );
    }

    #[test]
    fn error_is_std_error() {
        fn takes_std_error(_: &dyn std::error::Error) {}
        takes_std_error(&Error::EmptyInput("x"));
    }

    #[test]
    fn io_fault_source_is_terminal() {
        // The enum owns its context inline; `source()` is the default None
        // for every variant, pinned here so a future wrapped-error change
        // is a conscious one.
        use std::error::Error as _;
        let e = Error::IoFault {
            kind: "transient",
            page: 0,
            attempts: 1,
        };
        assert!(e.source().is_none());
        assert!(Error::EmptyInput("x").source().is_none());
    }
}
