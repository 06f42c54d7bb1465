//! Error type shared by all DNS codecs.

use std::fmt;

/// Errors raised while encoding or decoding DNS data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnsError {
    /// The input ended before a complete field could be read.
    Truncated {
        /// What was being read when the input ran out.
        context: &'static str,
    },
    /// A domain-name label exceeded 63 octets.
    LabelTooLong(usize),
    /// A domain name exceeded 255 octets on the wire.
    NameTooLong(usize),
    /// A label contained a byte that is not permitted.
    InvalidLabel(u8),
    /// A compression pointer pointed forward or formed a loop.
    BadPointer(usize),
    /// An unknown or unsupported label type (upper bits `10` or `01`).
    BadLabelType(u8),
    /// A count field promised more items than the message contains.
    CountMismatch {
        /// The section whose count was wrong.
        section: &'static str,
    },
    /// RDATA length did not match the encoded RDATA.
    RdataLength {
        /// Expected length from the RDLENGTH field.
        expected: usize,
        /// Length actually consumed.
        actual: usize,
    },
    /// Trailing bytes after the final record.
    TrailingBytes(usize),
}

impl fmt::Display for DnsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnsError::Truncated { context } => {
                write!(f, "input truncated while reading {context}")
            }
            DnsError::LabelTooLong(n) => write!(f, "label of {n} octets exceeds 63"),
            DnsError::NameTooLong(n) => write!(f, "name of {n} octets exceeds 255"),
            DnsError::InvalidLabel(b) => write!(f, "invalid byte {b:#04x} in label"),
            DnsError::BadPointer(off) => write!(f, "bad compression pointer to offset {off}"),
            DnsError::BadLabelType(b) => write!(f, "unsupported label type bits {b:#04x}"),
            DnsError::CountMismatch { section } => {
                write!(f, "{section} count exceeds records present")
            }
            DnsError::RdataLength { expected, actual } => {
                write!(f, "rdata length mismatch: rdlength {expected}, consumed {actual}")
            }
            DnsError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for DnsError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, DnsError>;
