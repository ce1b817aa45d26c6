//! The one on-disk format: an append-only journal of checksummed records.
//!
//! A JSON-lines file: one header line naming the schema (and whatever
//! else the caller pins, such as the tune checkpoint's kernel and
//! machine), then one line per record:
//!
//! ```text
//! {"sum":"<16 hex digits>","record":{"tag":"...", ...}}
//! ```
//!
//! where `sum` hashes the record's exact bytes. Every append is written
//! and fsynced, so after a crash the file holds every completed record
//! plus at most one unterminated last line. Loading streams the file and
//! drops, and counts, every line that is torn (unterminated), not UTF-8,
//! fails its checksum, or does not decode into a record with a tag; the
//! first record per tag wins. A load that dropped a line rewrites the
//! file from the surviving records, so nothing is ever appended after a
//! torn tail. A torn tail is what a crash leaves and is dropped without
//! trace; any other dropped line is damage, and the file as found is
//! first copied to `quarantine/` beside it for post-mortem, never read
//! back.
//!
//! Two callers share it: the tuner's checkpoint (records are the
//! sweep's `Json` decisions, so a resumed run replays exact `f64`
//! measurements) and `augem-serve`'s kernel store (records are whole
//! stored kernels).

use crate::fsio::{quarantine, write_atomic};
use augem_obs::hash::{mix_str, splitmix64};
use augem_obs::Json;
use std::collections::HashMap;
use std::io::{BufRead, Write as _};
use std::path::{Path, PathBuf};

/// Schema identifier in the tune checkpoint's header line.
pub const JOURNAL_SCHEMA: &str = "augem.tune-journal/v2";

/// Seed of the record checksum.
const SUM_SEED: u64 = 0x5709 ^ 0xC5;

/// Journal failure (I/O or an incompatible existing file).
#[derive(Debug)]
pub enum JournalError {
    Io(std::io::Error),
    /// The file at the journal path exists but its header is not the
    /// caller's: another schema version, or a checkpoint of a different
    /// kernel or machine.
    BadHeader(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O: {e}"),
            JournalError::BadHeader(m) => write!(f, "incompatible journal: {m}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Builds the tune checkpoint's header.
pub fn header(kernel: &str, machine: &str) -> Json {
    Json::obj(vec![
        ("schema", Json::str(JOURNAL_SCHEMA)),
        ("kernel", Json::str(kernel)),
        ("machine", Json::str(machine)),
    ])
}

/// Checks that the journal at `path` starts with `header`, reading
/// nothing past it: the file [`Journal::load`] would reject as
/// [`JournalError::BadHeader`], found before anything runs.
pub fn check_header(path: impl AsRef<Path>, header: &Json) -> Result<(), JournalError> {
    let path = path.as_ref();
    let mut reader = std::io::BufReader::new(std::fs::File::open(path)?);
    read_header(&mut reader, path, &header.render())
}

/// What a journal holds: a tagged value written as one JSON object.
pub trait Record: Sized {
    /// The record's identity; a journal keeps the first record per tag.
    fn tag(&self) -> Option<&str>;
    fn to_json(&self) -> Json;
    /// `None` when `json` is not a record of this type.
    fn from_json(json: Json) -> Option<Self>;
}

/// Untyped records: any object with a string `tag`.
impl Record for Json {
    fn tag(&self) -> Option<&str> {
        self.get("tag").and_then(Json::as_str)
    }

    fn to_json(&self) -> Json {
        self.clone()
    }

    fn from_json(json: Json) -> Option<Self> {
        json.tag().is_some().then_some(json)
    }
}

/// An append-only journal of checksummed records. See the module docs.
#[derive(Debug)]
pub struct Journal<R = Json> {
    path: Option<PathBuf>,
    records: Vec<R>,
    index: HashMap<String, usize>,
    dropped: usize,
    quarantined: bool,
}

impl<R: Record> Journal<R> {
    /// A journal with no backing file: the same bookkeeping, nothing
    /// persisted.
    pub fn in_memory() -> Self {
        Journal {
            path: None,
            records: Vec::new(),
            index: HashMap::new(),
            dropped: 0,
            quarantined: false,
        }
    }

    /// Creates (replacing) a journal file holding only the header.
    pub fn create(path: impl AsRef<Path>, header: Json) -> std::io::Result<Self> {
        write_atomic(path.as_ref(), format!("{}\n", header.render()))?;
        Ok(Journal {
            path: Some(path.as_ref().to_path_buf()),
            ..Self::in_memory()
        })
    }

    /// Loads the journal at `path`, whose header must equal `header`.
    /// Streams the file, drops and counts bad lines, and compacts the
    /// file if it dropped any (see the module docs).
    pub fn load(path: impl AsRef<Path>, header: Json) -> Result<Self, JournalError> {
        let path = path.as_ref();
        let mut reader = std::io::BufReader::with_capacity(1 << 16, std::fs::File::open(path)?);
        let want = header.render();
        read_header(&mut reader, path, &want)?;
        let mut line = Vec::new();
        let mut j = Self::in_memory();
        j.path = Some(path.to_path_buf());
        let mut damaged = false;
        loop {
            line.clear();
            if reader.read_until(b'\n', &mut line)? == 0 {
                break;
            }
            match line.strip_suffix(b"\n").and_then(decode) {
                Some(record) => j.index(record),
                None => {
                    j.dropped += 1;
                    damaged |= line.ends_with(b"\n");
                }
            }
        }
        if damaged {
            quarantine(path)?;
            j.quarantined = true;
        }
        if j.dropped > 0 {
            let mut text = format!("{want}\n");
            for record in &j.records {
                text.push_str(&render_line(record));
            }
            write_atomic(path, text)?;
        }
        Ok(j)
    }

    /// Resumes from `path` when `resume` is set and a file exists there,
    /// otherwise starts a fresh journal. A file whose header differs is
    /// an error, not silently overwritten: mixing runs would corrupt
    /// both.
    pub fn load_or_create(
        path: impl AsRef<Path>,
        header: Json,
        resume: bool,
    ) -> Result<Self, JournalError> {
        let path = path.as_ref();
        if resume && path.exists() {
            return Self::load(path, header);
        }
        Ok(Self::create(path, header)?)
    }

    fn index(&mut self, record: R) {
        let Some(tag) = record.tag() else { return };
        // First write wins: a healthy writer appends each tag once;
        // duplicates only appear after injected faults.
        if !self.index.contains_key(tag) {
            self.index.insert(tag.to_string(), self.records.len());
            self.records.push(record);
        }
    }

    /// Appends one record (it must carry a tag), written and fsynced to
    /// the backing file, if any, before it is indexed.
    pub fn append(&mut self, record: R) -> std::io::Result<()> {
        assert!(record.tag().is_some(), "journal records must carry a tag");
        if self.path.is_some() {
            self.write(render_line(&record).as_bytes())?;
        }
        self.index(record);
        Ok(())
    }

    /// Writes `garbage` as a whole line without indexing it: the fault
    /// injector's corruption sites. Only a later load sees, and drops,
    /// the damage.
    pub fn append_corrupt(&mut self, garbage: &str) -> std::io::Result<()> {
        self.write(format!("{garbage}\n").as_bytes())
    }

    /// Writes the first half of `record`'s line, unterminated, without
    /// indexing it: what a crash in the middle of an append leaves.
    pub fn append_torn(&mut self, record: &R) -> std::io::Result<()> {
        let line = render_line(record);
        self.write(&line.as_bytes()[..line.len() / 2])
    }

    fn write(&self, bytes: &[u8]) -> std::io::Result<()> {
        if let Some(path) = &self.path {
            let mut f = std::fs::OpenOptions::new().append(true).open(path)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        Ok(())
    }

    /// The record for `tag`, if journaled.
    pub fn get(&self, tag: &str) -> Option<&R> {
        self.index.get(tag).map(|&i| &self.records[i])
    }

    /// All records, in append order, without their checksums.
    pub fn entries(&self) -> &[R] {
        &self.records
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Lines [`load`](Self::load) dropped: a torn tail and damage alike.
    pub fn corrupt_dropped(&self) -> usize {
        self.dropped
    }

    /// Whether [`load`](Self::load) found damage beyond a torn tail and
    /// kept the file as found in `quarantine/`.
    pub fn quarantined(&self) -> bool {
        self.quarantined
    }

    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }
}

/// Reads the first line of the journal at `path` and checks that it is
/// the header `want`; the error names both.
fn read_header(reader: &mut impl BufRead, path: &Path, want: &str) -> Result<(), JournalError> {
    let mut line = Vec::new();
    reader.read_until(b'\n', &mut line)?;
    if line.strip_suffix(b"\n") == Some(want.as_bytes()) {
        return Ok(());
    }
    let found = String::from_utf8_lossy(&line);
    Err(JournalError::BadHeader(format!(
        "{} starts with {}, expected {want}",
        path.display(),
        match found.trim_end_matches('\n') {
            "" => "no header line",
            found => found,
        }
    )))
}

fn checksum(record: &str) -> String {
    format!("{:016x}", mix_str(splitmix64(SUM_SEED), record))
}

/// `record`'s journal line, newline included.
fn render_line(record: &impl Record) -> String {
    let record = record.to_json().render();
    format!(
        "{{\"sum\":\"{}\",\"record\":{record}}}\n",
        checksum(&record)
    )
}

/// The record on one line (newline stripped), if the line is intact.
fn decode<R: Record>(line: &[u8]) -> Option<R> {
    let line = std::str::from_utf8(line).ok()?;
    let rest = line.strip_prefix("{\"sum\":\"")?;
    let (sum, rest) = (rest.get(..16)?, rest.get(16..)?);
    let record = rest.strip_prefix("\",\"record\":")?.strip_suffix('}')?;
    if sum != checksum(record) {
        return None;
    }
    R::from_json(Json::parse(record).ok()?).filter(|r| r.tag().is_some())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh directory per test: damaged loads write `quarantine/`
    /// beside the journal.
    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("augem-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d.join("journal.jsonl")
    }

    fn cleanup(p: &Path) {
        std::fs::remove_dir_all(p.parent().unwrap()).unwrap();
    }

    fn entry(tag: &str, mflops: f64) -> Json {
        Json::obj(vec![
            ("tag", Json::str(tag)),
            ("outcome", Json::str("ok")),
            ("mflops", Json::Num(mflops)),
        ])
    }

    fn dgemm() -> Json {
        header("dgemm", "sandybridge")
    }

    #[test]
    fn create_append_load_round_trip() {
        let p = tmp("roundtrip");
        let mut j = Journal::create(&p, dgemm()).unwrap();
        j.append(entry("8x4", 10_000.5)).unwrap();
        j.append(entry("4x4", 8_000.25)).unwrap();
        let written = std::fs::read(&p).unwrap();
        let back: Journal = Journal::load(&p, dgemm()).unwrap();
        assert_eq!(
            back.entries(),
            [entry("8x4", 10_000.5), entry("4x4", 8_000.25)]
        );
        assert_eq!(back.corrupt_dropped(), 0);
        assert_eq!(
            std::fs::read(&p).unwrap(),
            written,
            "a clean load writes nothing"
        );
        cleanup(&p);
    }

    #[test]
    fn torn_tail_is_dropped_and_compacted_away_without_quarantine() {
        let p = tmp("torn");
        let mut j = Journal::create(&p, header("daxpy", "piledriver")).unwrap();
        j.append(entry("u8", 1.0)).unwrap();
        let clean = std::fs::read(&p).unwrap();
        j.append_torn(&entry("u16", 2.0)).unwrap();
        let back: Journal = Journal::load(&p, header("daxpy", "piledriver")).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.corrupt_dropped(), 1);
        assert!(back.get("u16").is_none(), "torn record must be absent");
        assert!(!back.quarantined(), "a torn tail is a crash, not damage");
        assert_eq!(
            std::fs::read(&p).unwrap(),
            clean,
            "compacted to the clean prefix"
        );
        assert!(!p.with_file_name("quarantine").exists());
        cleanup(&p);
    }

    #[test]
    fn damaged_line_is_dropped_counted_and_kept_aside() {
        let p = tmp("middle");
        let mut j = Journal::create(&p, header("ddot", "sandybridge")).unwrap();
        j.append(entry("a", 1.0)).unwrap();
        j.append_corrupt("not json at all").unwrap();
        j.append(entry("b", 2.0)).unwrap();
        let found = std::fs::read(&p).unwrap();
        let back: Journal = Journal::load(&p, header("ddot", "sandybridge")).unwrap();
        assert_eq!(back.entries(), [entry("a", 1.0), entry("b", 2.0)]);
        assert_eq!(back.corrupt_dropped(), 1);
        assert!(back.quarantined());
        let kept = p.with_file_name("quarantine").join("journal.jsonl");
        assert_eq!(std::fs::read(kept).unwrap(), found, "kept as found");
        let again: Journal = Journal::load(&p, header("ddot", "sandybridge")).unwrap();
        assert_eq!((again.len(), again.corrupt_dropped()), (2, 0));
        cleanup(&p);
    }

    #[test]
    fn header_must_match_the_callers() {
        let p = tmp("mismatch");
        Journal::<Json>::create(&p, dgemm()).unwrap();
        for other in [
            header("daxpy", "sandybridge"),
            header("dgemm", "piledriver"),
            Json::obj(vec![("schema", Json::str("augem.tune-journal/v1"))]),
        ] {
            let err = Journal::<Json>::load_or_create(&p, other, true)
                .expect_err("a different header must be rejected");
            assert!(matches!(err, JournalError::BadHeader(_)), "{err}");
        }
        cleanup(&p);
    }

    #[test]
    fn no_resume_truncates_existing() {
        let p = tmp("fresh");
        let mut j = Journal::create(&p, dgemm()).unwrap();
        j.append(entry("old", 1.0)).unwrap();
        let j2: Journal = Journal::load_or_create(&p, dgemm(), false).unwrap();
        assert!(j2.is_empty());
        let back: Journal = Journal::load(&p, dgemm()).unwrap();
        assert!(back.get("old").is_none());
        cleanup(&p);
    }

    #[test]
    fn in_memory_journal_needs_no_file() {
        let mut j = Journal::in_memory();
        j.append(entry("x", 3.0)).unwrap();
        assert_eq!(j.len(), 1);
        assert!(j.path().is_none());
    }

    #[test]
    fn duplicate_tags_keep_first_record() {
        let mut j = Journal::in_memory();
        j.append(entry("x", 3.0)).unwrap();
        j.append(entry("x", 9.0)).unwrap();
        assert_eq!(j.entries(), [entry("x", 3.0)]);
    }
}
