//! Plain-text snapshots of place data sets.
//!
//! A deliberately tiny line-oriented format (one record per line) so that
//! examples can persist and reload generated workloads without pulling in a
//! serialization framework:
//!
//! ```text
//! #ctup-places v1
//! <id> <x> <y> <rp>
//! ```

use crate::place::{PlaceId, PlaceRecord, MAX_RP};
use ctup_spatial::Point;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Header line identifying the format version.
const HEADER: &str = "#ctup-places v1";

/// Errors raised while reading a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem with the file contents.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        message: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Parse { line, message } => {
                write!(f, "snapshot parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Writes `places` to `w` in the snapshot format.
pub fn write_places<W: Write>(mut w: W, places: &[PlaceRecord]) -> io::Result<()> {
    writeln!(w, "{HEADER}")?;
    for p in places {
        writeln!(w, "{} {} {} {}", p.id.0, p.pos.x, p.pos.y, p.rp)?;
    }
    Ok(())
}

fn parse_err(line: usize, message: impl Into<String>) -> SnapshotError {
    SnapshotError::Parse {
        line,
        message: message.into(),
    }
}

/// Reads places from `r`, validating the header and every record.
pub fn read_places<R: BufRead>(r: R) -> Result<Vec<PlaceRecord>, SnapshotError> {
    let mut places = Vec::new();
    let mut lines = r.lines();
    let header = lines.next().ok_or_else(|| parse_err(1, "empty file"))??;
    if header.trim() != HEADER {
        return Err(parse_err(
            1,
            format!("bad header {header:?}, expected {HEADER:?}"),
        ));
    }
    for (idx, line) in lines.enumerate() {
        let line_no = idx + 2;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split_ascii_whitespace().collect();
        let [id, x, y, rp] = fields.as_slice() else {
            return Err(parse_err(
                line_no,
                format!("expected 4 fields, got {}", fields.len()),
            ));
        };
        let id: u32 = id
            .parse()
            .map_err(|e| parse_err(line_no, format!("bad id: {e}")))?;
        // rp is parsed as the integer it is — going through f64 would need a
        // float-exactness check to reject fractional values.
        let rp: u32 = rp
            .parse()
            .map_err(|e| parse_err(line_no, format!("rp must be a non-negative integer: {e}")))?;
        if rp > MAX_RP {
            return Err(parse_err(
                line_no,
                format!("rp {rp} is above MAX_RP = {MAX_RP}"),
            ));
        }
        let coord = |field: &str| {
            field
                .parse::<f64>()
                .map_err(|e| parse_err(line_no, format!("bad number {field:?}: {e}")))
        };
        let pos = Point::new(coord(x)?, coord(y)?);
        places.push(PlaceRecord::point(PlaceId(id), pos, rp));
    }
    Ok(places)
}

/// Saves `places` to a file.
pub fn save_places(path: &Path, places: &[PlaceRecord]) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_places(&mut w, places)?;
    w.flush()
}

/// Loads places from a file.
pub fn load_places(path: &Path) -> Result<Vec<PlaceRecord>, SnapshotError> {
    read_places(BufReader::new(File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<PlaceRecord> {
        vec![
            PlaceRecord::point(PlaceId(0), Point::new(0.25, 0.75), 3),
            PlaceRecord::point(PlaceId(1), Point::new(0.5, 0.5), 6),
            PlaceRecord::point(PlaceId(2), Point::new(0.0, 1.0), 0),
        ]
    }

    #[test]
    fn roundtrip() {
        let places = sample();
        let mut buf = Vec::new();
        write_places(&mut buf, &places).unwrap();
        let read = read_places(buf.as_slice()).unwrap();
        assert_eq!(read, places);
    }

    #[test]
    fn blank_lines_and_comments_are_skipped() {
        let text = format!("{HEADER}\n\n# a comment\n5 0.1 0.2 4\n");
        let read = read_places(text.as_bytes()).unwrap();
        assert_eq!(
            read,
            vec![PlaceRecord::point(PlaceId(5), Point::new(0.1, 0.2), 4)]
        );
    }

    #[test]
    fn rejects_bad_header() {
        let err = read_places("#wrong\n".as_bytes()).unwrap_err();
        assert!(matches!(err, SnapshotError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn rejects_malformed_records() {
        let cases = [
            "1 0.5",                       // wrong field count
            "x 0.5 0.5 1",                 // bad id
            "1 0.5 zz 1",                  // bad number
            "1 0.5 0.5 -2",                // negative rp
            "1 0.5 0.5 1.5",               // fractional rp
            "1 0.5 0.5 65537",             // rp above MAX_RP
            "1 0.5 0.5 1 0.4 0.4 0.6 0.6", // 8 fields: a place rectangle
        ];
        for case in cases {
            let text = format!("{HEADER}\n{case}\n");
            let err = read_places(text.as_bytes()).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Parse { line: 2, .. }),
                "case {case:?} gave {err}"
            );
        }
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "touches the real filesystem; the in-memory roundtrip above covers the codec"
    )]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("ctup-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("places.txt");
        let places = sample();
        save_places(&path, &places).unwrap();
        assert_eq!(load_places(&path).unwrap(), places);
        std::fs::remove_file(&path).unwrap();
    }
}
