//! Crash-consistent on-disk persistence for the supervised pipeline.
//!
//! A worker panic in [`crate::supervisor::SupervisedPipeline`] heals from
//! the unit positions the worker holds in memory, which die with the
//! process. This module makes a restart point durable:
//!
//! * **A/B checkpoint slots** — every periodic checkpoint is written to a
//!   temp file, fsynced, renamed over the *older* of two slot files
//!   (`slot-a.ckpt` / `slot-b.ckpt`), and the directory is fsynced. Each
//!   slot carries an outer header with the format version, a monotonic slot
//!   sequence number, and a CRC32 over the checkpoint body. A crash at any
//!   byte of a slot write therefore leaves the *other* slot untouched and
//!   valid; a torn or bit-flipped slot fails its CRC and is ignored.
//! * **A journaled update tail** — every wire report the ingest gate
//!   accepts is appended (with a per-line CRC32) to the current journal
//!   segment *before* it is applied, so the updates between the newest
//!   durable checkpoint and a crash can be recovered. The supervisor
//!   journals per *commit group* ([`DurableState::append_all`]): every
//!   report that queued up while the previous group was being synced goes
//!   out in one write and one `fdatasync`.
//! * **Rotation, then the slot** — a checkpoint is two halves.
//!   [`DurableState::rotate`] durably opens `journal-<N>.wal` for the
//!   updates after checkpoint `N`; [`DurableState::write_slot`] then lands
//!   slot `N` — on the supervisor's writer thread, while the worker keeps
//!   appending to segment `N`. The supervisor rotates only at group ends,
//!   so no segment holds a report past the checkpoint that started the
//!   next one. Once slot `N` has landed the two valid slots are `N` and
//!   `N − 1`, so segments below `N − 1` are pruned by name alone.
//! * **The crash invariant** — segment `N` exists durably before slot `N`
//!   lands. A death in between recovers from slot `N − 1` over segments
//!   `N − 1` and `N`; a death after it from slot `N` (or, if that one is
//!   torn, from `N − 1` over the same segments). A restart resumes the slot
//!   sequence at the newest valid slot, so it may reopen segment `N`: the
//!   reopen first cuts the segment back to the lines recovery accepts, so
//!   a torn tail never hides the appends after it.
//! * **Recovery** — [`DurableState::load`] picks the valid slot with the
//!   highest sequence number and returns every journaled report from the
//!   surviving segments, tolerating a torn final line. Folding those
//!   reports through the gate restored from the slot into the slot's unit
//!   positions is idempotent: the gate's per-unit sequence numbers reject
//!   everything the slot already covers, so over-replay (e.g. after
//!   falling back to the older slot) converges to the exact pre-crash
//!   positions, and one initialization from them is the recovered monitor.

use crate::checkpoint::{Checkpoint, CheckpointError, FORMAT_VERSION};
use crate::ingest::StampedUpdate;
use crate::types::{LocationUpdate, UnitId};
use ctup_spatial::{convert, Point};
use ctup_storage::crc32;
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

const SLOT_FILES: [&str; 2] = ["slot-a.ckpt", "slot-b.ckpt"];
const SLOT_TMP: &str = "slot.tmp";
const SLOT_MAGIC: &str = "#ctup-slot";
const JOURNAL_PREFIX: &str = "journal-";
const JOURNAL_SUFFIX: &str = ".wal";

/// Handle to a state directory: writes checkpoints into alternating A/B
/// slots and appends accepted wire reports to the current journal segment.
#[derive(Debug)]
pub struct DurableState {
    dir: PathBuf,
    /// Sequence number the *next* checkpoint will be written under.
    next_slot_seq: u64,
    /// Open journal segment; `None` until the first checkpoint creates one.
    journal: Option<File>,
}

impl DurableState {
    /// Opens (creating if necessary) a state directory. The next checkpoint
    /// continues the slot sequence found on disk.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let newest = newest_slot(&dir).map_or(0, |slot| slot.seq);
        Ok(DurableState {
            dir,
            next_slot_seq: newest + 1,
            journal: None,
        })
    }

    /// The directory this state lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Durably writes `checkpoint` as the next slot: [`rotate`](Self::rotate)
    /// then [`write_slot`](Self::write_slot), on the calling thread.
    pub fn checkpoint(&mut self, checkpoint: &Checkpoint) -> io::Result<()> {
        let seq = self.rotate()?;
        Self::write_slot(&self.dir, seq, checkpoint)
    }

    /// Starts the journal segment of the next checkpoint and returns that
    /// checkpoint's slot sequence number `seq`: appends from now on go to
    /// `journal-<seq>.wal`, made durable here (create, fsync, fsync
    /// directory) before slot `seq` can land. Until it does, recovery reads
    /// slot `seq − 1` over segments `seq − 1` and `seq`. A segment left by
    /// an earlier process is first cut back to the lines recovery accepts.
    pub fn rotate(&mut self) -> io::Result<u64> {
        let seq = self.next_slot_seq;
        let segment = self
            .dir
            .join(format!("{JOURNAL_PREFIX}{seq}{JOURNAL_SUFFIX}"));
        let mut f = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(segment)?;
        // A torn tail would hide every append after it from `load`.
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes)?;
        let valid = read_journal(&bytes).1;
        if valid < bytes.len() {
            f.set_len(convert::count64(valid))?;
        }
        f.sync_all()?;
        sync_dir(&self.dir)?;
        self.journal = Some(f);
        self.next_slot_seq = seq + 1;
        Ok(seq)
    }

    /// Durably writes `checkpoint` as slot `seq` of `dir`: into the slot
    /// file of `seq`'s parity (write temp, fsync, rename, fsync directory),
    /// then prunes the segments below `seq − 1`. Needs no [`DurableState`],
    /// so it runs on whichever thread lands the slot.
    pub fn write_slot(dir: &Path, seq: u64, checkpoint: &Checkpoint) -> io::Result<()> {
        let mut body = Vec::new();
        checkpoint.write(&mut body)?;
        let tmp = dir.join(SLOT_TMP);
        {
            let mut f = File::create(&tmp)?;
            writeln!(
                f,
                "{SLOT_MAGIC} v{FORMAT_VERSION} {seq} {} {}",
                crc32(&body),
                body.len()
            )?;
            f.write_all(&body)?;
            f.sync_all()?;
        }
        // Alternate slots by sequence parity so consecutive checkpoints
        // never overwrite each other.
        let slot = SLOT_FILES[usize::from(seq.is_multiple_of(2))];
        fs::rename(&tmp, dir.join(slot))?;
        sync_dir(dir)?;
        prune_segments(dir, seq.saturating_sub(1));
        Ok(())
    }

    /// Appends one accepted wire report and syncs it: the one-record form
    /// of [`append_all`](Self::append_all).
    pub fn append(&mut self, report: StampedUpdate) -> io::Result<()> {
        self.append_all(&[report])
    }

    /// Appends a commit group of accepted wire reports to the current
    /// journal segment with one write and one `fdatasync` — called *before*
    /// any of them is applied, so a crash between append and apply replays
    /// them on recovery. A crash between the write and the sync may leave a
    /// torn last line, which [`load`](Self::load) drops with everything
    /// after it. An empty group writes and syncs nothing.
    pub fn append_all(&mut self, reports: &[StampedUpdate]) -> io::Result<()> {
        if reports.is_empty() {
            return Ok(());
        }
        let Some(journal) = self.journal.as_mut() else {
            // No checkpoint has been written yet; the caller writes a base
            // checkpoint at startup, so this is a protocol violation.
            return Err(io::Error::other(
                "journal append before the first checkpoint",
            ));
        };
        let mut lines = String::with_capacity(reports.len() * 64);
        for report in reports {
            let start = lines.len();
            // Formatting into a `String` cannot fail.
            let _ = write!(
                lines,
                "{} {} {} {} {}",
                report.seq,
                report.ts,
                report.update.unit.0,
                report.update.new.x,
                report.update.new.y
            );
            let crc = crc32(&lines.as_bytes()[start..]);
            let _ = writeln!(lines, " {crc}");
        }
        journal.write_all(lines.as_bytes())?;
        journal.sync_data()
    }

    /// Simulates a torn slot write (for crash testing): truncates the file
    /// of the newest valid slot to half its length, leaving the older slot
    /// as the only recovery point.
    pub fn tear_newest_slot(&self) -> io::Result<()> {
        let Some(newest) = newest_slot(&self.dir) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "no valid slot to tear",
            ));
        };
        let f = OpenOptions::new().write(true).open(&newest.path)?;
        let len = f.metadata()?.len();
        f.set_len(len / 2)?;
        f.sync_all()
    }

    /// Loads the newest valid checkpoint slot and the journaled wire
    /// reports from every surviving segment, in append order. Fails only if
    /// *no* slot is valid; torn journal tails are tolerated (the journal is
    /// truncated at the first undecodable line of each segment).
    pub fn load(
        dir: impl AsRef<Path>,
    ) -> Result<(Checkpoint, Vec<StampedUpdate>), CheckpointError> {
        let dir = dir.as_ref();
        let Some(newest) = newest_slot(dir) else {
            return Err(CheckpointError::Invalid(format!(
                "no valid checkpoint slot in {}",
                dir.display()
            )));
        };
        let mut reports = Vec::new();
        for (_, path) in journal_segments(dir) {
            if let Ok(bytes) = fs::read(&path) {
                reports.extend(read_journal(&bytes).0);
            }
        }
        Ok((newest.checkpoint, reports))
    }
}

/// Fsyncs a directory so a completed rename survives power loss. Directory
/// handles cannot be opened for syncing on every platform; failures there
/// degrade to rename-without-dir-sync, which every tier-1 platform already
/// orders correctly.
fn sync_dir(dir: &Path) -> io::Result<()> {
    match File::open(dir) {
        Ok(d) => d.sync_all().or(Ok(())),
        Err(_) => Ok(()),
    }
}

/// A slot file that passed its checks, decoded.
struct Slot {
    seq: u64,
    path: PathBuf,
    checkpoint: Checkpoint,
}

/// The newest valid slot of `dir`. Both slot files are ranked by header
/// `seq` after their version, length and CRC checks; only the winner is
/// decoded, and its sibling only if the winner fails to parse.
fn newest_slot(dir: &Path) -> Option<Slot> {
    let mut checked: Vec<(u64, PathBuf, Vec<u8>)> = SLOT_FILES
        .iter()
        .filter_map(|name| {
            let path = dir.join(name);
            let (seq, body) = check_slot(&path)?;
            Some((seq, path, body))
        })
        .collect();
    checked.sort_unstable_by_key(|(seq, _, _)| std::cmp::Reverse(*seq));
    checked.into_iter().find_map(|(seq, path, body)| {
        let checkpoint = Checkpoint::read(&body[..]).ok()?;
        Some(Slot {
            seq,
            path,
            checkpoint,
        })
    })
}

/// Reads one slot file and checks its header, version, length and CRC,
/// returning its `seq` and body undecoded. Any failure (missing file, torn
/// write, corruption) makes the slot invalid — `None` — and recovery falls
/// back to the other slot.
fn check_slot(path: &Path) -> Option<(u64, Vec<u8>)> {
    let mut bytes = fs::read(path).ok()?;
    let newline = bytes.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&bytes[..newline]).ok()?;
    let fields: Vec<&str> = header.split_ascii_whitespace().collect();
    let [magic, version, seq, crc, len] = fields.as_slice() else {
        return None;
    };
    if *magic != SLOT_MAGIC || *version != format!("v{FORMAT_VERSION}") {
        return None;
    }
    let seq: u64 = seq.parse().ok()?;
    let crc: u32 = crc.parse().ok()?;
    let len: usize = len.parse().ok()?;
    let body = bytes.split_off(newline + 1);
    if body.len() != len || crc32(&body) != crc {
        return None;
    }
    Some((seq, body))
}

/// Deletes the journal segments of `dir` below `keep_from`, by name alone.
/// Best-effort; a leftover segment is harmless (replay through the gate is
/// idempotent).
fn prune_segments(dir: &Path, keep_from: u64) {
    for (seq, path) in journal_segments(dir) {
        if seq < keep_from {
            let _ = fs::remove_file(path);
        }
    }
}

/// The journal segments of `dir`, sorted by slot sequence (append order).
fn journal_segments(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut segments: Vec<(u64, PathBuf)> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name();
            let name = name.to_str()?;
            let seq: u64 = name
                .strip_prefix(JOURNAL_PREFIX)?
                .strip_suffix(JOURNAL_SUFFIX)?
                .parse()
                .ok()?;
            Some((seq, entry.path()))
        })
        .collect();
    segments.sort_unstable_by_key(|(seq, _)| *seq);
    segments
}

/// The reports of one journal segment, in append order, and the length of
/// the prefix they span. Reading stops at the first line that is
/// unterminated, not UTF-8 or fails its CRC: the tail a death tore
/// mid-append, never synced and so never acked.
fn read_journal(bytes: &[u8]) -> (Vec<StampedUpdate>, usize) {
    let mut reports = Vec::new();
    let mut valid = 0;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        let Some(report) = line
            .strip_suffix(b"\n")
            .and_then(|l| std::str::from_utf8(l).ok())
            .and_then(parse_journal_line)
        else {
            break;
        };
        reports.push(report);
        valid += line.len();
    }
    (reports, valid)
}

/// Decodes one journal line, `None` on any structural or CRC mismatch.
fn parse_journal_line(line: &str) -> Option<StampedUpdate> {
    let (payload, crc) = line.rsplit_once(' ')?;
    let crc: u32 = crc.parse().ok()?;
    if crc32(payload.as_bytes()) != crc {
        return None;
    }
    let fields: Vec<&str> = payload.split_ascii_whitespace().collect();
    let [seq, ts, unit, x, y] = fields.as_slice() else {
        return None;
    };
    Some(StampedUpdate {
        seq: seq.parse().ok()?,
        ts: ts.parse().ok()?,
        update: LocationUpdate {
            unit: UnitId(unit.parse().ok()?),
            new: Point::new(x.parse().ok()?, y.parse().ok()?),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::previous_version_body;
    use crate::config::CtupConfig;
    use crate::ingest::{GateState, GateUnitState};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_state_dir() -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("ctup-durable-{}-{n}", std::process::id()))
    }

    fn sample_checkpoint(tag: u64) -> Checkpoint {
        Checkpoint {
            config: CtupConfig::with_k(3),
            unit_positions: vec![Point::new(0.25, 0.5)],
            gate: Some(GateState {
                now: tag,
                units: vec![GateUnitState {
                    last_seq: Some(tag),
                    last_seen: tag,
                    alive: true,
                }],
            }),
        }
    }

    fn report(seq: u64, x: f64) -> StampedUpdate {
        StampedUpdate {
            seq,
            ts: seq,
            update: LocationUpdate {
                unit: UnitId(0),
                new: Point::new(x, 0.5),
            },
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // touches the real filesystem
    fn slot_and_journal_roundtrip() {
        let dir = temp_state_dir();
        let mut state = DurableState::open(&dir).expect("open");
        state.checkpoint(&sample_checkpoint(1)).expect("checkpoint");
        state.append(report(1, 0.125)).expect("append");
        state.append(report(2, 0.375)).expect("append");

        let (cp, tail) = DurableState::load(&dir).expect("load");
        assert_eq!(cp, sample_checkpoint(1));
        assert_eq!(tail, vec![report(1, 0.125), report(2, 0.375)]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A commit group lands as one line per report, in order, readable
    /// after single-record appends on either side of it.
    #[test]
    #[cfg_attr(miri, ignore)] // touches the real filesystem
    fn append_all_roundtrip() {
        let dir = temp_state_dir();
        let mut state = DurableState::open(&dir).expect("open");
        state.checkpoint(&sample_checkpoint(1)).expect("checkpoint");
        state.append(report(1, 0.125)).expect("append");
        let group: Vec<StampedUpdate> = (2..=6).map(|s| report(s, 0.1 * s as f64)).collect();
        state.append_all(&group).expect("append group");
        state.append(report(7, 0.875)).expect("append");

        let (_, tail) = DurableState::load(&dir).expect("load");
        let mut expected = vec![report(1, 0.125)];
        expected.extend(group);
        expected.push(report(7, 0.875));
        assert_eq!(tail, expected);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A kill between a group's write and its sync can leave the group
    /// torn mid-line: recovery keeps exactly the whole lines before the
    /// tear, never the fragment and never a line after it.
    #[test]
    #[cfg_attr(miri, ignore)] // touches the real filesystem
    fn group_torn_mid_line_keeps_the_whole_lines_before_it() {
        let dir = temp_state_dir();
        let mut state = DurableState::open(&dir).expect("open");
        state.checkpoint(&sample_checkpoint(1)).expect("checkpoint");
        let group: Vec<StampedUpdate> = (1..=5).map(|s| report(s, 0.1 * s as f64)).collect();
        state.append_all(&group).expect("append group");
        let segment = dir.join(format!("{JOURNAL_PREFIX}1{JOURNAL_SUFFIX}"));
        let text = fs::read_to_string(&segment).expect("read journal");
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(text.match_indices('\n').map(|(i, _)| i + 1))
            .collect();
        assert_eq!(line_starts.len(), 6, "one line per report");
        // Cut the third line in half.
        let cut = (line_starts[2] + line_starts[3]) / 2;
        fs::write(&segment, &text[..cut]).expect("tear journal");

        let (_, tail) = DurableState::load(&dir).expect("load");
        assert_eq!(tail, group[..2].to_vec());
        let _ = fs::remove_dir_all(&dir);
    }

    /// An empty group is no append at all: no write — not even the
    /// protocol-violation error a write before the first checkpoint gets —
    /// and nothing added to an open segment.
    #[test]
    #[cfg_attr(miri, ignore)] // touches the real filesystem
    fn append_all_of_nothing_writes_nothing() {
        let dir = temp_state_dir();
        let mut state = DurableState::open(&dir).expect("open");
        state.append_all(&[]).expect("nothing to write");
        assert!(state.append(report(1, 0.5)).is_err(), "no segment yet");
        state.checkpoint(&sample_checkpoint(1)).expect("checkpoint");
        let segment = dir.join(format!("{JOURNAL_PREFIX}1{JOURNAL_SUFFIX}"));
        state.append_all(&[]).expect("nothing to write");
        assert_eq!(fs::metadata(&segment).expect("segment").len(), 0);
        let (_, tail) = DurableState::load(&dir).expect("load");
        assert!(tail.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // touches the real filesystem
    fn torn_newest_slot_falls_back_to_older() {
        let dir = temp_state_dir();
        let mut state = DurableState::open(&dir).expect("open");
        state.checkpoint(&sample_checkpoint(1)).expect("checkpoint");
        state.append(report(2, 0.25)).expect("append");
        state.checkpoint(&sample_checkpoint(2)).expect("checkpoint");
        state.append(report(3, 0.75)).expect("append");
        state.tear_newest_slot().expect("tear");

        let (cp, tail) = DurableState::load(&dir).expect("load");
        assert_eq!(cp, sample_checkpoint(1), "older slot survives the tear");
        // Both segments survive: the tail re-covers the updates the torn
        // slot had absorbed, and gate replay dedups them.
        assert_eq!(tail, vec![report(2, 0.25), report(3, 0.75)]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A death between a rotation and its slot: segment `N` is open and
    /// holds a group, slot `N` never landed. Recovery reads slot `N − 1`
    /// over segments `N − 1` and `N`; a restart resumes at `N`, cutting the
    /// torn tail off the segment it reopens so its appends stay readable.
    #[test]
    #[cfg_attr(miri, ignore)] // touches the real filesystem
    fn slot_that_never_lands_recovers_from_the_one_before() {
        let dir = temp_state_dir();
        let mut state = DurableState::open(&dir).expect("open");
        state.checkpoint(&sample_checkpoint(1)).expect("checkpoint");
        state.append(report(1, 0.125)).expect("append");
        assert_eq!(state.rotate().expect("rotate"), 2);
        let group: Vec<StampedUpdate> = (2..=4).map(|s| report(s, 0.1 * s as f64)).collect();
        state.append_all(&group).expect("append group");
        drop(state);

        let (cp, tail) = DurableState::load(&dir).expect("load");
        assert_eq!(cp, sample_checkpoint(1));
        let mut expected = vec![report(1, 0.125)];
        expected.extend(group);
        assert_eq!(tail, expected);

        let segment = dir.join(format!("{JOURNAL_PREFIX}2{JOURNAL_SUFFIX}"));
        let text = fs::read_to_string(&segment).expect("read journal");
        fs::write(&segment, &text[..text.len() - 7]).expect("tear journal");
        let mut reopened = DurableState::open(&dir).expect("reopen");
        assert_eq!(reopened.rotate().expect("rotate"), 2, "resumes at N");
        reopened.append(report(5, 0.5)).expect("append");
        let (_, tail) = DurableState::load(&dir).expect("load");
        expected.truncate(3);
        expected.push(report(5, 0.5));
        assert_eq!(tail, expected);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // touches the real filesystem
    fn torn_journal_tail_is_truncated_not_fatal() {
        let dir = temp_state_dir();
        let mut state = DurableState::open(&dir).expect("open");
        state.checkpoint(&sample_checkpoint(1)).expect("checkpoint");
        state.append(report(1, 0.125)).expect("append");
        state.append(report(2, 0.375)).expect("append");
        // Tear the last line mid-append.
        let segment = dir.join(format!("{JOURNAL_PREFIX}1{JOURNAL_SUFFIX}"));
        let text = fs::read_to_string(&segment).expect("read journal");
        fs::write(&segment, &text[..text.len() - 7]).expect("tear journal");

        let (_, tail) = DurableState::load(&dir).expect("load");
        assert_eq!(tail, vec![report(1, 0.125)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // touches the real filesystem
    fn bit_flip_in_slot_is_detected() {
        let dir = temp_state_dir();
        let mut state = DurableState::open(&dir).expect("open");
        state.checkpoint(&sample_checkpoint(1)).expect("checkpoint");
        let slot = dir.join(SLOT_FILES[0]);
        let mut bytes = fs::read(&slot).expect("read slot");
        let last = bytes.len() - 2;
        bytes[last] ^= 0x40;
        fs::write(&slot, bytes).expect("corrupt slot");

        assert!(
            DurableState::load(&dir).is_err(),
            "a flipped body byte must invalidate the only slot"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Slots written by v4 and v5 builds — well-formed, CRC-correct,
    /// carrying the derived sections v6 dropped (and, for v4, the `layout`
    /// line) — are refused at their version rather than read as a
    /// checkpoint.
    #[test]
    #[cfg_attr(miri, ignore)] // touches the real filesystem
    fn previous_version_slot_is_refused() {
        for version in [4, 5] {
            let dir = temp_state_dir();
            fs::create_dir_all(&dir).expect("create dir");
            let mut body = Vec::new();
            sample_checkpoint(1).write(&mut body).expect("encode");
            let body =
                previous_version_body(&String::from_utf8(body).expect("text codec"), version);
            let slot = format!(
                "{SLOT_MAGIC} v{version} 1 {} {}\n{body}",
                crc32(body.as_bytes()),
                body.len()
            );
            fs::write(dir.join(SLOT_FILES[0]), slot).expect("write slot");

            match DurableState::load(&dir) {
                Err(CheckpointError::Invalid(_)) => {}
                other => panic!("a v{version} slot must be refused, got {other:?}"),
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // touches the real filesystem
    fn reopen_continues_slot_sequence_and_prunes() {
        let dir = temp_state_dir();
        let mut state = DurableState::open(&dir).expect("open");
        for tag in 1..=3u64 {
            state
                .checkpoint(&sample_checkpoint(tag))
                .expect("checkpoint");
        }
        // Slots now hold seq 2 and 3; segment 1 is pruned.
        assert!(!dir
            .join(format!("{JOURNAL_PREFIX}1{JOURNAL_SUFFIX}"))
            .exists());
        let (cp, _) = DurableState::load(&dir).expect("load");
        assert_eq!(cp, sample_checkpoint(3));

        // A restarted process continues the sequence instead of recycling
        // numbers the old slots still carry.
        let mut reopened = DurableState::open(&dir).expect("reopen");
        reopened
            .checkpoint(&sample_checkpoint(4))
            .expect("checkpoint");
        let (cp, _) = DurableState::load(&dir).expect("load");
        assert_eq!(cp, sample_checkpoint(4));
        let _ = fs::remove_dir_all(&dir);
    }
}
