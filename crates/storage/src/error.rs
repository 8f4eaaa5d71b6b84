//! Typed failures of the lower storage level.
//!
//! A real disk can fail transiently (a read times out) or persistently
//! (a page was torn mid-write, a bit rotted). The store surfaces both as
//! [`StorageError`] instead of panicking or silently serving damaged
//! records, so the layers above can retry, fail over, or give up with a
//! precise diagnosis.

use std::fmt;

/// Why a single record failed to decode from a page payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// The payload ended in the middle of a record.
    Truncated,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Truncated => write!(f, "payload truncated mid-record"),
        }
    }
}

/// How a page frame failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// The frame is shorter than its fixed header — a torn write that cut
    /// into the header itself.
    TruncatedFrame,
    /// The header's payload length disagrees with the bytes present — the
    /// signature of a torn (partial) page write.
    LengthMismatch,
    /// The payload bytes do not match the stored CRC32 — bit rot or an
    /// in-place overwrite.
    ChecksumMismatch,
    /// The checksum held but the payload still failed record decoding;
    /// only reachable if the frame was written corrupt.
    BadRecord(RecordError),
}

impl fmt::Display for CorruptKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptKind::TruncatedFrame => write!(f, "frame shorter than its header"),
            CorruptKind::LengthMismatch => write!(f, "payload length mismatch (torn write)"),
            CorruptKind::ChecksumMismatch => write!(f, "checksum mismatch (bit rot)"),
            CorruptKind::BadRecord(e) => write!(f, "record decode failed: {e}"),
        }
    }
}

/// A lower-level read failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageError {
    /// A transient I/O error that persisted through the whole retry
    /// budget (`attempts` reads were tried in total).
    Io {
        /// The page whose read failed last.
        page: u32,
        /// Total read attempts made before giving up.
        attempts: u32,
    },
    /// A page failed frame validation; retrying cannot help because the
    /// damage is on the medium.
    CorruptPage {
        /// The damaged page.
        page: u32,
        /// What exactly failed.
        kind: CorruptKind,
    },
}

impl StorageError {
    /// Whether retrying the read may succeed (transient faults only).
    pub fn is_transient(&self) -> bool {
        matches!(self, StorageError::Io { .. })
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { page, attempts } => {
                write!(f, "I/O error reading page {page} ({attempts} attempts)")
            }
            StorageError::CorruptPage { page, kind } => {
                write!(f, "corrupt page {page}: {kind}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_specific() {
        let e = StorageError::Io {
            page: 7,
            attempts: 4,
        };
        assert!(e.to_string().contains("page 7"));
        assert!(e.is_transient());
        let e = StorageError::CorruptPage {
            page: 3,
            kind: CorruptKind::ChecksumMismatch,
        };
        assert!(e.to_string().contains("checksum"));
        assert!(!e.is_transient());
        let e = StorageError::CorruptPage {
            page: 3,
            kind: CorruptKind::BadRecord(RecordError::Truncated),
        };
        assert!(e.to_string().contains("mid-record"));
    }
}
