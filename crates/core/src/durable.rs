//! Crash-consistent on-disk persistence for the supervised pipeline.
//!
//! A worker panic in [`crate::supervisor::SupervisedPipeline`] heals from
//! the unit positions the worker holds in memory, which die with the
//! process. This module makes a restart point durable in four fixed files
//! — `slot-a.ckpt`, `slot-b.ckpt`, `journal-a.wal` and `journal-b.wal` —
//! which [`DurableState::open`] creates and preallocates once. After that
//! they are only overwritten in place, never created, renamed, truncated
//! or unlinked, so a steady-state write changes no file-system metadata
//! and one `fdatasync` makes it durable.
//!
//! * **A/B checkpoint slots** — checkpoint `N` overwrites, from offset 0,
//!   the slot file of `N`'s parity, then syncs it; the other file holds
//!   slot `N − 1` and is not touched. A slot starts with a header line
//!   carrying the format version, the slot sequence number `N`, and the
//!   CRC32 and length of the body; the bytes past the body are ignored. A
//!   crash at any byte of a slot write leaves a slot that fails its CRC,
//!   and recovery uses its sibling.
//! * **Journal epochs** — every wire report the ingest gate accepts is
//!   journaled before it is applied. Epoch `N` holds the reports accepted
//!   after checkpoint `N`: it writes from offset 0 of the journal file of
//!   `N`'s parity, over the bytes epoch `N − 2` left there. The supervisor
//!   journals per *commit group* ([`DurableState::append_all`]): one write
//!   and one `fdatasync` for every report that queued up while the
//!   previous group was being synced. A record is 40 bytes and ends in a
//!   CRC32 that also covers the previous record's CRC — the first record's
//!   covers its epoch number — so bytes past the write offset, whether an
//!   older epoch or a dead process left them, never read as part of the
//!   epoch. A journal file is preallocated with 64 KiB and grows only for
//!   an epoch longer than that (`checkpoint_every` 0, or an oversized
//!   group): by a zeroed 64 KiB chunk at a time, with a full `fsync`.
//! * **The crash invariant** — slot `N` has landed before epoch `N` writes
//!   a byte, and epoch `N` reuses the file of epoch `N − 2`, which no
//!   recovery reads once slot `N − 1` has landed. A death while slot `N`
//!   is written recovers from slot `N − 1` over epochs `N − 1` and `N`; a
//!   death after it from slot `N`, or, if that one is torn later, from
//!   `N − 1` over the same epochs. A reopened directory numbers its first
//!   slot after the newest *valid* one, so after a fallback past a torn
//!   slot it reuses that number; its epoch then goes on after the records
//!   the dead process journaled under it, which the slot before still
//!   needs if the new one is torn in turn.
//! * **Recovery** — [`DurableState::load`] picks the valid slot `S` with
//!   the highest sequence number and returns the journaled reports of
//!   epochs `S` and `S + 1`, in append order, tolerating a torn last
//!   record. Folding those reports through the gate restored from the slot
//!   into the slot's unit positions is idempotent: the gate's per-unit
//!   sequence numbers reject everything the slot already covers, so
//!   over-replay (e.g. after falling back to the older slot) converges to
//!   the exact pre-crash positions, and one initialization from them is
//!   the recovered monitor. `load` may run while a live primary writes the
//!   directory: it re-reads the newest slot after the journals and starts
//!   over if it moved.

use crate::checkpoint::{Checkpoint, CheckpointError, FORMAT_VERSION};
use crate::ingest::StampedUpdate;
use crate::types::{LocationUpdate, UnitId};
use ctup_spatial::{convert, Point};
use ctup_storage::crc32;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

const SLOT_FILES: [&str; 2] = ["slot-a.ckpt", "slot-b.ckpt"];
const JOURNAL_FILES: [&str; 2] = ["journal-a.wal", "journal-b.wal"];
const SLOT_MAGIC: &str = "#ctup-slot";
/// Bytes of one journal record: unit sequence number, tick, unit, x, y
/// (little-endian) and the chained CRC32.
const RECORD_LEN: usize = 40;
/// Bytes of a record the CRC covers besides the link: all but the CRC.
const PAYLOAD_LEN: usize = RECORD_LEN - 4;
/// What a journal file is preallocated with, and grows by: 1 638 records,
/// six epochs' worth at the default `checkpoint_every` of 256.
const JOURNAL_CHUNK: u64 = 64 * 1024;
/// Slot files are sized in multiples of this, at twice the slot that
/// first needs the room.
const SLOT_BLOCK: u64 = 4096;

/// Handle to a state directory: writes checkpoints into alternating A/B
/// slots and appends accepted wire reports to the current journal epoch.
#[derive(Debug)]
pub struct DurableState {
    dir: PathBuf,
    /// Sequence number the *next* checkpoint will be written under.
    next_slot_seq: u64,
    /// The two journal files, by parity, held open.
    journals: [File; 2],
    /// Their lengths: preallocated, and grown only past an epoch's end.
    journal_lens: [u64; 2],
    /// The length of the shorter slot file, which every slot must fit.
    slot_len: u64,
    /// The epoch appends go to; `None` until the first checkpoint.
    epoch: Option<Epoch>,
}

/// Where the current journal epoch writes next.
#[derive(Debug, Clone, Copy)]
struct Epoch {
    /// The epoch number: the slot it follows.
    seq: u64,
    /// Write offset into the epoch's file.
    offset: u64,
    /// What the next record's CRC covers first: the previous record's CRC,
    /// or the epoch number before the first record.
    link: u64,
}

/// The file of sequence number `seq`'s parity, for slots and journals
/// alike: odd numbers use the A file, even ones the B file.
fn parity(seq: u64) -> usize {
    usize::from(seq.is_multiple_of(2))
}

impl DurableState {
    /// Opens a state directory, creating it and its four files if
    /// necessary and preallocating the journal files. The preallocation is
    /// not synced here: the first `fdatasync` of each file makes it durable
    /// with that file's first write, and every later one flushes data
    /// alone. The next checkpoint continues the slot sequence found on
    /// disk.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let open = |name: &str| {
            OpenOptions::new()
                .create(true)
                .truncate(false)
                .read(true)
                .write(true)
                .open(dir.join(name))
        };
        let mut journals = [open(JOURNAL_FILES[0])?, open(JOURNAL_FILES[1])?];
        let mut journal_lens = [0; 2];
        for (file, len) in journals.iter_mut().zip(&mut journal_lens) {
            *len = file.metadata()?.len();
            if *len < JOURNAL_CHUNK {
                zero_fill(file, *len, JOURNAL_CHUNK)?;
                *len = JOURNAL_CHUNK;
            }
        }
        let mut slot_len = u64::MAX;
        for name in SLOT_FILES {
            slot_len = slot_len.min(open(name)?.metadata()?.len());
        }
        sync_dir(&dir)?;
        let newest = newest_slot(&dir).map_or(0, |slot| slot.seq);
        Ok(DurableState {
            dir,
            next_slot_seq: newest + 1,
            journals,
            journal_lens,
            slot_len,
            epoch: None,
        })
    }

    /// Durably writes `checkpoint` as the next slot — in place over the
    /// slot file of its parity, then one `fdatasync` — and starts its
    /// journal epoch: appends from now on go to that epoch (at the first
    /// checkpoint of a reopened directory, after whatever a dead process
    /// journaled under the same number). Both slot files are first grown
    /// and zeroed when the slot does not fit them, which happens at the
    /// first checkpoint of a directory; each file's next `fdatasync` makes
    /// its new length durable.
    pub fn checkpoint(&mut self, checkpoint: &Checkpoint) -> io::Result<()> {
        let seq = self.next_slot_seq;
        let mut body = Vec::new();
        checkpoint.write(&mut body)?;
        let mut slot = format!(
            "{SLOT_MAGIC} v{FORMAT_VERSION} {seq} {} {}\n",
            crc32(&body),
            body.len()
        )
        .into_bytes();
        slot.extend_from_slice(&body);
        let needed = convert::count64(slot.len());
        if needed > self.slot_len {
            let len = (2 * needed).next_multiple_of(SLOT_BLOCK);
            for name in SLOT_FILES {
                let mut f = OpenOptions::new().write(true).open(self.dir.join(name))?;
                let from = f.metadata()?.len();
                zero_fill(&mut f, from, len)?;
            }
            self.slot_len = len;
        }
        let mut f = OpenOptions::new()
            .write(true)
            .open(self.dir.join(SLOT_FILES[parity(seq)]))?;
        f.write_all(&slot)?;
        f.sync_data()?;
        self.next_slot_seq = seq + 1;
        let mut epoch = Epoch {
            seq,
            offset: 0,
            link: seq,
        };
        if self.epoch.is_none() && seq > 1 {
            // The first slot after `open` takes the number of a torn slot
            // when recovery fell back past one, and a dead process may have
            // journaled under that number: those records are the only copy
            // of what slot `seq − 1` does not cover, so the epoch goes on
            // after them instead of overwriting them. (A directory without
            // a valid slot has nothing to recover from.)
            let records = chain(&self.dir, seq);
            epoch.offset = convert::count64(records.len() * RECORD_LEN);
            epoch.link = records.last().map_or(seq, |&(_, crc)| u64::from(crc));
        }
        self.epoch = Some(epoch);
        Ok(())
    }

    /// Appends one accepted wire report and syncs it: the one-record form
    /// of [`append_all`](Self::append_all).
    pub fn append(&mut self, report: StampedUpdate) -> io::Result<()> {
        self.append_all(&[report])
    }

    /// Appends a commit group of accepted wire reports to the current
    /// journal epoch with one write and one `fdatasync` — called *before*
    /// any of them is applied, so a crash between append and apply replays
    /// them on recovery. A crash between the write and the sync may leave a
    /// torn record, which [`load`](Self::load) drops with everything after
    /// it. An empty group writes and syncs nothing.
    pub fn append_all(&mut self, reports: &[StampedUpdate]) -> io::Result<()> {
        if reports.is_empty() {
            return Ok(());
        }
        let Some(mut epoch) = self.epoch else {
            // No checkpoint has been written yet; the caller writes a base
            // checkpoint at startup, so this is a protocol violation.
            return Err(io::Error::other(
                "journal append before the first checkpoint",
            ));
        };
        let mut bytes = Vec::with_capacity(reports.len() * RECORD_LEN);
        for report in reports {
            epoch.link = u64::from(encode_record(report, epoch.link, &mut bytes));
        }
        let p = parity(epoch.seq);
        let file = &mut self.journals[p];
        let end = epoch.offset + convert::count64(bytes.len());
        file.seek(SeekFrom::Start(epoch.offset))?;
        file.write_all(&bytes)?;
        if end > self.journal_lens[p] {
            // Past the preallocation: zero the rest of a whole chunk, so
            // the epochs after this one overwrite allocated bytes again,
            // and sync the new length with the data.
            let len = end.next_multiple_of(JOURNAL_CHUNK);
            zero_fill(file, end, len)?;
            file.sync_all()?;
            self.journal_lens[p] = len;
        } else {
            file.sync_data()?;
        }
        epoch.offset = end;
        self.epoch = Some(epoch);
        Ok(())
    }

    /// Simulates a torn slot write (for crash testing): zeroes the second
    /// half of the newest valid slot in place, leaving the older slot as
    /// the only recovery point.
    pub fn tear_newest_slot(dir: &Path) -> io::Result<()> {
        let Some(newest) = newest_slot(dir) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "no valid slot to tear",
            ));
        };
        let mut f = OpenOptions::new()
            .write(true)
            .open(dir.join(SLOT_FILES[parity(newest.seq)]))?;
        let half = newest.len / 2;
        f.seek(SeekFrom::Start(convert::count64(half)))?;
        f.write_all(&vec![0; newest.len - half])?;
        f.sync_data()
    }

    /// Whether `dir` holds a slot file: the state of an earlier process,
    /// which a fresh start over `dir` would overwrite.
    pub fn holds_slot(dir: &Path) -> bool {
        SLOT_FILES.iter().any(|name| dir.join(name).exists())
    }

    /// Loads the newest valid checkpoint slot `S` and the journaled wire
    /// reports of epochs `S` and `S + 1`, in append order. Fails only if
    /// *no* slot is valid; a torn journal tail is tolerated (an epoch ends
    /// at its first record that fails its checks). Safe while another
    /// process writes the directory: if the newest slot moved while the
    /// journals were read, it reads again.
    pub fn load(
        dir: impl AsRef<Path>,
    ) -> Result<(Checkpoint, Vec<StampedUpdate>), CheckpointError> {
        let dir = dir.as_ref();
        loop {
            let Some(newest) = newest_slot(dir) else {
                return Err(CheckpointError::Invalid(format!(
                    "no valid checkpoint slot in {}",
                    dir.display()
                )));
            };
            let mut reports = read_epoch(dir, newest.seq);
            reports.extend(read_epoch(dir, newest.seq + 1));
            // Epoch `S` is overwritten only after slot `S + 2` has
            // replaced slot `S`: an unchanged newest slot means both
            // epochs were read whole.
            if newest_slot(dir).is_some_and(|again| again.seq == newest.seq) {
                return Ok((newest.checkpoint, reports));
            }
        }
    }
}

/// Writes zeros over `[from, to)` of `file`, allocating the bytes so later
/// overwrites change no file-system metadata (a hole, as `set_len` leaves
/// one, would be allocated by the first `fdatasync` over it).
fn zero_fill(file: &mut File, from: u64, to: u64) -> io::Result<()> {
    const ZEROS: [u8; 8192] = [0; 8192];
    file.seek(SeekFrom::Start(from))?;
    let mut left = to.saturating_sub(from);
    while left > 0 {
        let n = usize::try_from(left).map_or(ZEROS.len(), |l| l.min(ZEROS.len()));
        file.write_all(&ZEROS[..n])?;
        left -= convert::count64(n);
    }
    Ok(())
}

/// Fsyncs a directory so newly created files survive power loss. Directory
/// handles cannot be opened for syncing on every platform; failures there
/// degrade to no directory sync.
fn sync_dir(dir: &Path) -> io::Result<()> {
    match File::open(dir) {
        Ok(d) => d.sync_all().or(Ok(())),
        Err(_) => Ok(()),
    }
}

/// A slot file that passed its checks, decoded.
struct Slot {
    seq: u64,
    /// Bytes of header and body: where the slot ends in its file.
    len: usize,
    checkpoint: Checkpoint,
}

/// The newest valid slot of `dir`. Both slot files are ranked by header
/// `seq` after their version, length and CRC checks; only the winner is
/// decoded, and its sibling only if the winner fails to parse.
fn newest_slot(dir: &Path) -> Option<Slot> {
    let mut checked: Vec<(u64, usize, Vec<u8>)> = SLOT_FILES
        .iter()
        .filter_map(|name| check_slot(&dir.join(name)))
        .collect();
    checked.sort_unstable_by_key(|(seq, _, _)| std::cmp::Reverse(*seq));
    checked.into_iter().find_map(|(seq, len, body)| {
        let checkpoint = Checkpoint::read(&body[..]).ok()?;
        Some(Slot {
            seq,
            len,
            checkpoint,
        })
    })
}

/// Reads one slot file and checks its header, version, length and CRC,
/// returning its `seq`, its length and its body undecoded. Any failure
/// (missing file, torn write, corruption, another format version) makes
/// the slot invalid — `None` — and recovery falls back to the other slot.
fn check_slot(path: &Path) -> Option<(u64, usize, Vec<u8>)> {
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
    let mut body = bytes.split_off(newline + 1);
    if body.len() < len {
        return None;
    }
    body.truncate(len);
    if crc32(&body) != crc {
        return None;
    }
    Some((seq, newline + 1 + len, body))
}

/// Appends `report`'s record, chained to `link`, to `out`; returns its CRC,
/// the next record's link.
fn encode_record(report: &StampedUpdate, link: u64, out: &mut Vec<u8>) -> u32 {
    let start = out.len();
    out.extend_from_slice(&report.seq.to_le_bytes());
    out.extend_from_slice(&report.ts.to_le_bytes());
    out.extend_from_slice(&report.update.unit.0.to_le_bytes());
    out.extend_from_slice(&report.update.new.x.to_le_bytes());
    out.extend_from_slice(&report.update.new.y.to_le_bytes());
    let crc = record_crc(link, &out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    crc
}

/// The CRC32 of a record: over its link, then its payload.
fn record_crc(link: u64, payload: &[u8]) -> u32 {
    let mut covered = [0u8; 8 + PAYLOAD_LEN];
    covered[..8].copy_from_slice(&link.to_le_bytes());
    covered[8..].copy_from_slice(payload);
    crc32(&covered)
}

/// The reports of journal epoch `epoch`, in append order: read from offset
/// 0 of its file up to the first record whose CRC does not chain — the end
/// of the epoch, a record torn mid-append (never synced, so never acked),
/// or the stale bytes of an older epoch.
pub(crate) fn read_epoch(dir: &Path, epoch: u64) -> Vec<StampedUpdate> {
    chain(dir, epoch)
        .into_iter()
        .map(|(report, _)| report)
        .collect()
}

/// The records of journal epoch `epoch` with their CRCs, in append order.
fn chain(dir: &Path, epoch: u64) -> Vec<(StampedUpdate, u32)> {
    let bytes = fs::read(dir.join(JOURNAL_FILES[parity(epoch)])).unwrap_or_default();
    let mut link = epoch;
    bytes
        .chunks_exact(RECORD_LEN)
        .map_while(|record| {
            let (report, crc) = decode_record(record, link)?;
            link = u64::from(crc);
            Some((report, crc))
        })
        .collect()
}

/// Decodes one record chained to `link`; `None` if its CRC disagrees.
fn decode_record(record: &[u8], link: u64) -> Option<(StampedUpdate, u32)> {
    let (payload, crc) = record.split_at(PAYLOAD_LEN);
    let crc = u32::from_le_bytes(crc.try_into().ok()?);
    if record_crc(link, payload) != crc {
        return None;
    }
    let u64_at = |at: usize| -> Option<u64> {
        Some(u64::from_le_bytes(
            payload.get(at..at + 8)?.try_into().ok()?,
        ))
    };
    let unit = u32::from_le_bytes(payload.get(16..20)?.try_into().ok()?);
    let report = StampedUpdate {
        seq: u64_at(0)?,
        ts: u64_at(8)?,
        update: LocationUpdate {
            unit: UnitId(unit),
            new: Point::new(f64::from_bits(u64_at(20)?), f64::from_bits(u64_at(28)?)),
        },
    };
    Some((report, crc))
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
                units: vec![GateUnitState {
                    last_seq: Some(tag),
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

    fn reports(seqs: std::ops::RangeInclusive<u64>) -> Vec<StampedUpdate> {
        seqs.map(|s| report(s, 0.01 * s as f64)).collect()
    }

    /// Every file of the directory with its length, by name.
    fn lengths(dir: &Path) -> Vec<(String, u64)> {
        let mut files: Vec<(String, u64)> = fs::read_dir(dir)
            .expect("state dir")
            .flatten()
            .map(|e| {
                let len = e.metadata().expect("metadata").len();
                (e.file_name().to_string_lossy().into_owned(), len)
            })
            .collect();
        files.sort();
        files
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

    /// A commit group lands as one record per report, in order, readable
    /// after single-record appends on either side of it.
    #[test]
    #[cfg_attr(miri, ignore)] // touches the real filesystem
    fn append_all_roundtrip() {
        let dir = temp_state_dir();
        let mut state = DurableState::open(&dir).expect("open");
        state.checkpoint(&sample_checkpoint(1)).expect("checkpoint");
        state.append(report(1, 0.125)).expect("append");
        let group = reports(2..=6);
        state.append_all(&group).expect("append group");
        state.append(report(7, 0.875)).expect("append");

        let (_, tail) = DurableState::load(&dir).expect("load");
        let mut expected = vec![report(1, 0.125)];
        expected.extend(group);
        expected.push(report(7, 0.875));
        assert_eq!(tail, expected);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The state directory is four fixed files. Their lengths are set by
    /// `open` and the first checkpoint, and checkpoints and appends after
    /// that only overwrite them.
    #[test]
    #[cfg_attr(miri, ignore)] // touches the real filesystem
    fn four_fixed_files_keep_their_lengths() {
        let dir = temp_state_dir();
        let mut state = DurableState::open(&dir).expect("open");
        state.checkpoint(&sample_checkpoint(1)).expect("checkpoint");
        let sized = lengths(&dir);
        let names: Vec<&str> = sized.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "journal-a.wal",
                "journal-b.wal",
                "slot-a.ckpt",
                "slot-b.ckpt"
            ]
        );
        assert!(sized.iter().all(|&(_, len)| len > 0), "{sized:?}");
        for tag in 2..=12 {
            state.append_all(&reports(1..=20)).expect("append");
            state
                .checkpoint(&sample_checkpoint(tag))
                .expect("checkpoint");
        }
        assert_eq!(lengths(&dir), sized);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A kill between a group's write and its sync can leave the group
    /// torn mid-record: recovery keeps exactly the whole records before
    /// the tear, never the fragment and never a record after it.
    #[test]
    #[cfg_attr(miri, ignore)] // touches the real filesystem
    fn group_torn_mid_record_keeps_the_whole_records_before_it() {
        let dir = temp_state_dir();
        let mut state = DurableState::open(&dir).expect("open");
        state.checkpoint(&sample_checkpoint(1)).expect("checkpoint");
        let group = reports(1..=5);
        state.append_all(&group).expect("append group");
        // Only half of the third record reached the disk: the rest of it,
        // and the records after it, still hold the preallocated zeros.
        let journal = dir.join(JOURNAL_FILES[0]);
        let mut bytes = fs::read(&journal).expect("read journal");
        let torn = 2 * RECORD_LEN + RECORD_LEN / 2;
        bytes[torn..5 * RECORD_LEN].fill(0);
        fs::write(&journal, bytes).expect("tear journal");

        let (_, tail) = DurableState::load(&dir).expect("load");
        assert_eq!(tail, group[..2].to_vec());
        let _ = fs::remove_dir_all(&dir);
    }

    /// An empty group is no append at all: no write — not even the
    /// protocol-violation error a write before the first checkpoint gets —
    /// and no byte of the journal changes.
    #[test]
    #[cfg_attr(miri, ignore)] // touches the real filesystem
    fn append_all_of_nothing_writes_nothing() {
        let dir = temp_state_dir();
        let mut state = DurableState::open(&dir).expect("open");
        state.append_all(&[]).expect("nothing to write");
        assert!(state.append(report(1, 0.5)).is_err(), "no epoch yet");
        state.checkpoint(&sample_checkpoint(1)).expect("checkpoint");
        let journal = dir.join(JOURNAL_FILES[0]);
        let before = fs::read(&journal).expect("journal");
        state.append_all(&[]).expect("nothing to write");
        assert_eq!(fs::read(&journal).expect("journal"), before);
        let (_, tail) = DurableState::load(&dir).expect("load");
        assert!(tail.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A slot torn in place falls back to its sibling, and recovery reads
    /// both journal epochs: the one after the sibling and the one after
    /// the torn slot.
    #[test]
    #[cfg_attr(miri, ignore)] // touches the real filesystem
    fn torn_slot_falls_back_to_its_sibling_over_both_epochs() {
        let dir = temp_state_dir();
        let mut state = DurableState::open(&dir).expect("open");
        state.checkpoint(&sample_checkpoint(1)).expect("checkpoint");
        state.append(report(2, 0.25)).expect("append");
        state.checkpoint(&sample_checkpoint(2)).expect("checkpoint");
        state.append(report(3, 0.75)).expect("append");
        let sized = lengths(&dir);
        DurableState::tear_newest_slot(&dir).expect("tear");
        assert_eq!(lengths(&dir), sized, "the tear is in place");

        let (cp, tail) = DurableState::load(&dir).expect("load");
        assert_eq!(cp, sample_checkpoint(1), "older slot survives the tear");
        // The tail re-covers the updates the torn slot had absorbed, and
        // gate replay dedups them.
        assert_eq!(tail, vec![report(2, 0.25), report(3, 0.75)]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A death between the switch to epoch `N` and a whole slot `N`: slot 3
    /// is torn, and the journal file it shares with epoch 1 still holds
    /// that epoch's longer content past epoch 3's records. Recovery reads
    /// slot 2 over epochs 2 and 3 and nothing of epoch 1.
    #[test]
    #[cfg_attr(miri, ignore)] // touches the real filesystem
    fn a_death_before_slot_n_is_whole_recovers_from_n_minus_1() {
        let dir = temp_state_dir();
        let mut state = DurableState::open(&dir).expect("open");
        state.checkpoint(&sample_checkpoint(1)).expect("checkpoint");
        state.append_all(&reports(1..=6)).expect("epoch 1");
        state.checkpoint(&sample_checkpoint(6)).expect("checkpoint");
        state.append_all(&reports(7..=8)).expect("epoch 2");
        state.checkpoint(&sample_checkpoint(8)).expect("checkpoint");
        state.append_all(&reports(9..=10)).expect("epoch 3");
        DurableState::tear_newest_slot(&dir).expect("tear slot 3");
        drop(state);

        let (cp, tail) = DurableState::load(&dir).expect("load");
        assert_eq!(cp, sample_checkpoint(6));
        assert_eq!(tail, reports(7..=10));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Bytes past an epoch's write offset are never replayed: an older
    /// epoch's longer content in the same file is not read as part of the
    /// epoch.
    #[test]
    #[cfg_attr(miri, ignore)] // touches the real filesystem
    fn stale_records_past_the_write_offset_are_never_replayed() {
        let dir = temp_state_dir();
        let mut state = DurableState::open(&dir).expect("open");
        state.checkpoint(&sample_checkpoint(1)).expect("checkpoint");
        state.append_all(&reports(1..=8)).expect("epoch 1");
        state.checkpoint(&sample_checkpoint(8)).expect("checkpoint");
        state.checkpoint(&sample_checkpoint(8)).expect("checkpoint");
        state.append_all(&reports(9..=10)).expect("epoch 3");
        let (cp, tail) = DurableState::load(&dir).expect("load");
        assert_eq!(cp, sample_checkpoint(8));
        assert_eq!(tail, reports(9..=10), "epoch 1 is gone");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A process dies with slot 4 torn after epoch 4 took records, and
    /// recovery falls back to slot 3. The reopened directory writes its
    /// first slot as 4 again, and epoch 4 goes on after the dead process's
    /// records instead of overwriting them: when the new slot 4 is torn
    /// too, slot 3 still finds every record after it.
    #[test]
    #[cfg_attr(miri, ignore)] // touches the real filesystem
    fn a_reopened_epoch_keeps_the_dead_process_records() {
        let dir = temp_state_dir();
        let mut state = DurableState::open(&dir).expect("open");
        state.checkpoint(&sample_checkpoint(1)).expect("checkpoint");
        state.checkpoint(&sample_checkpoint(1)).expect("checkpoint");
        state.append_all(&reports(1..=8)).expect("epoch 2");
        state.checkpoint(&sample_checkpoint(8)).expect("checkpoint");
        state.append_all(&reports(9..=10)).expect("epoch 3");
        state
            .checkpoint(&sample_checkpoint(10))
            .expect("checkpoint");
        state.append_all(&reports(11..=16)).expect("epoch 4");
        drop(state);
        DurableState::tear_newest_slot(&dir).expect("tear slot 4");
        let (cp, tail) = DurableState::load(&dir).expect("load");
        assert_eq!(cp, sample_checkpoint(8));
        assert_eq!(tail, reports(9..=16));

        let mut reopened = DurableState::open(&dir).expect("reopen");
        reopened
            .checkpoint(&sample_checkpoint(16))
            .expect("checkpoint");
        reopened.append(report(17, 0.5)).expect("append");
        let (cp, tail) = DurableState::load(&dir).expect("load");
        assert_eq!(cp, sample_checkpoint(16));
        // The dead records come back too; the gate restored from the slot
        // drops them as already covered.
        let mut after_slot_4 = reports(11..=16);
        after_slot_4.push(report(17, 0.5));
        assert_eq!(tail, after_slot_4);

        DurableState::tear_newest_slot(&dir).expect("tear the new slot 4");
        let (cp, tail) = DurableState::load(&dir).expect("load");
        assert_eq!(cp, sample_checkpoint(8));
        let mut after_slot_3 = reports(9..=16);
        after_slot_3.push(report(17, 0.5));
        assert_eq!(tail, after_slot_3, "no acked report is lost");
        let _ = fs::remove_dir_all(&dir);
    }

    /// With no checkpoint after the first (`checkpoint_every` 0) one epoch
    /// outgrows the preallocation: the file grows by whole chunks, and
    /// every record stays readable across the groups.
    #[test]
    #[cfg_attr(miri, ignore)] // touches the real filesystem
    fn the_journal_stays_readable_past_its_preallocation() {
        let dir = temp_state_dir();
        let mut state = DurableState::open(&dir).expect("open");
        state.checkpoint(&sample_checkpoint(1)).expect("checkpoint");
        let per_chunk = JOURNAL_CHUNK / convert::count64(RECORD_LEN);
        let total = per_chunk * 2 + 100;
        let all = reports(1..=total);
        for group in all.chunks(700) {
            state.append_all(group).expect("append group");
        }
        let len = fs::metadata(dir.join(JOURNAL_FILES[0]))
            .expect("journal")
            .len();
        assert_eq!(len, 3 * JOURNAL_CHUNK);
        let (_, tail) = DurableState::load(&dir).expect("load");
        assert_eq!(tail, all);
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
        let end = check_slot(&slot).expect("a valid slot").1;
        bytes[end - 2] ^= 0x40;
        fs::write(&slot, bytes).expect("corrupt slot");

        assert!(
            DurableState::load(&dir).is_err(),
            "a flipped body byte must invalidate the only slot"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Directories written by earlier builds are refused at their version,
    /// never half-read. v4 and v5 slots carry the derived sections v6
    /// dropped (and, for v4, the `layout` line). A v6 directory is the
    /// layout before the four fixed files: slots replaced by rename beside
    /// `journal-<N>.wal` text segments. A v7 directory has the current
    /// files, and its body may be in the threshold mode v8 dropped. A v8
    /// directory has the current files too, and its gate section carries
    /// the feed clock and liveness fields v9 dropped.
    #[test]
    #[cfg_attr(miri, ignore)] // touches the real filesystem
    fn previous_version_directories_are_refused() {
        for version in [4, 5, 6, 7, 8] {
            let dir = temp_state_dir();
            fs::create_dir_all(&dir).expect("create dir");
            let mut body = Vec::new();
            sample_checkpoint(1).write(&mut body).expect("encode");
            let mut body =
                previous_version_body(&String::from_utf8(body).expect("text codec"), version);
            if version == 7 {
                body = body.replacen("mode topk ", "mode threshold -", 1);
                assert!(body.contains("\nmode threshold -"), "{body}");
            }
            let slot = format!(
                "{SLOT_MAGIC} v{version} 1 {} {}\n{body}",
                crc32(body.as_bytes()),
                body.len()
            );
            fs::write(dir.join(SLOT_FILES[0]), slot).expect("write slot");
            if version < 7 {
                let line = "1 1 0 0.125 0.5";
                fs::write(
                    dir.join("journal-1.wal"),
                    format!("{line} {}\n", crc32(line.as_bytes())),
                )
                .expect("write segment");
            }

            match DurableState::load(&dir) {
                Err(CheckpointError::Invalid(_)) => {}
                other => panic!("a v{version} directory must be refused, got {other:?}"),
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // touches the real filesystem
    fn reopen_continues_the_slot_sequence() {
        let dir = temp_state_dir();
        let mut state = DurableState::open(&dir).expect("open");
        for tag in 1..=3u64 {
            state
                .checkpoint(&sample_checkpoint(tag))
                .expect("checkpoint");
        }
        let (cp, _) = DurableState::load(&dir).expect("load");
        assert_eq!(cp, sample_checkpoint(3));

        // A restarted process continues the sequence instead of recycling
        // numbers the old slots still carry: slot 4 replaces slot 2, and
        // slot 3 stays the fallback.
        let mut reopened = DurableState::open(&dir).expect("reopen");
        reopened
            .checkpoint(&sample_checkpoint(4))
            .expect("checkpoint");
        let (cp, _) = DurableState::load(&dir).expect("load");
        assert_eq!(cp, sample_checkpoint(4));
        DurableState::tear_newest_slot(&dir).expect("tear");
        let (cp, _) = DurableState::load(&dir).expect("load");
        assert_eq!(cp, sample_checkpoint(3));
        let _ = fs::remove_dir_all(&dir);
    }
}
