//! The persistent, crash-safe kernel store.
//!
//! Content-addressed like `tune::EvalCache` — the key mixes the kernel
//! name, the full [`MachineSpec::fingerprint`], and the simulator step
//! budget — but durable: a warm daemon restart answers repeat requests
//! without re-tuning anything.
//!
//! # On-disk layout and commit protocol
//!
//! ```text
//! <dir>/journal.jsonl        append-only commit journal (source of truth)
//! <dir>/entries/<key>.json   one entry per kernel: payload line + checksum footer
//! <dir>/quarantine/          damaged files moved aside for post-mortem
//! ```
//!
//! A commit appends `{"tag": key, "checksum": c}` to the journal
//! (flushed and fsynced), *then* writes the entry file with
//! [`write_atomic`]. The ordering means every entry file on disk is
//! announced by the journal; a crash in the window between the two
//! leaves a journal line with no file — a *dangling commit* — which
//! recovery simply drops, returning the store to its exact pre-commit
//! state. The reverse order would leave unannounced entry files whose
//! provenance nothing records.
//!
//! # Recovery invariants
//!
//! [`KernelStore::open`] never panics on damaged state. Unparseable
//! journal lines are dropped and counted; journaled entries whose file
//! is missing are dropped (the crash window above); entry files that
//! are torn, checksum-mismatched, or carry a different schema version
//! are quarantined; files the journal does not announce are quarantined
//! as orphans. If anything was dropped or quarantined the journal is
//! compacted (rewritten atomically from the surviving lines), so the
//! post-recovery `journal.jsonl` + `entries/` are bit-identical to a
//! replay of the surviving prefix — the property the crash-restart
//! tests assert with byte comparison.

use crate::counter;
use augem_machine::MachineSpec;
use augem_obs::hash::{mix_str, splitmix64};
use augem_obs::{Json, Tracer};
use augem_resil::{write_atomic, Fault, Injector, Site};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Schema identifier inside every entry file.
pub const STORE_SCHEMA: &str = "augem.kernel-store/v1";
/// Schema identifier in the store journal's header line.
pub const STORE_JOURNAL_SCHEMA: &str = "augem.store-journal/v1";

/// Seed for the store's checksums and keys (distinct from the machine
/// fingerprint seed so a key can never collide with its own content
/// hash).
const STORE_SEED: u64 = 0x5709;

/// The content-addressed store key for a request: kernel name × machine
/// fingerprint × step budget, rendered as 16 hex digits.
pub fn store_key(kernel: &str, machine: &MachineSpec, step_limit: Option<u64>) -> String {
    let mut h = splitmix64(STORE_SEED);
    h = mix_str(h, kernel);
    h = splitmix64(h ^ machine.fingerprint());
    h = splitmix64(h ^ step_limit.map_or(u64::MAX, |s| s.wrapping_add(1)));
    format!("{h:016x}")
}

/// Checksum of an entry's payload line (also recorded in the journal,
/// so a journal line vouches for specific *bytes*, not just a name).
fn checksum(payload: &str) -> String {
    format!("{:016x}", mix_str(splitmix64(STORE_SEED ^ 0xC5), payload))
}

/// One tuned kernel as the store persists it. Deliberately free of
/// timestamps and latencies: the bytes are a pure function of the
/// tuning outcome, which is what makes "bit-identical after recovery"
/// a meaningful test.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredKernel {
    /// The content-addressed key ([`store_key`]).
    pub key: String,
    /// Kernel name (`dgemm`, `daxpy`, ...).
    pub kernel: String,
    /// `MachineSpec::fingerprint_tag` of the target.
    pub machine: String,
    /// Winning configuration tag.
    pub config_tag: String,
    /// Measured useful Mflops of the tuning micro-problem.
    pub mflops: f64,
    /// The AT&T assembly text.
    pub asm: String,
}

impl StoredKernel {
    /// The entry file's payload line (without the checksum footer).
    fn payload(&self) -> String {
        Json::obj(vec![
            ("schema", Json::str(STORE_SCHEMA)),
            ("key", Json::str(self.key.clone())),
            ("kernel", Json::str(self.kernel.clone())),
            ("machine", Json::str(self.machine.clone())),
            ("config", Json::str(self.config_tag.clone())),
            ("mflops", Json::Num(self.mflops)),
            ("asm", Json::str(self.asm.clone())),
        ])
        .render()
    }

    /// Parses a payload line; `None` on any shape or version mismatch.
    fn from_payload(line: &str) -> Option<StoredKernel> {
        let doc = Json::parse(line).ok()?;
        if doc.get("schema").and_then(Json::as_str) != Some(STORE_SCHEMA) {
            return None;
        }
        Some(StoredKernel {
            key: doc.get("key").and_then(Json::as_str)?.to_string(),
            kernel: doc.get("kernel").and_then(Json::as_str)?.to_string(),
            machine: doc.get("machine").and_then(Json::as_str)?.to_string(),
            config_tag: doc.get("config").and_then(Json::as_str)?.to_string(),
            mflops: doc.get("mflops").and_then(Json::as_f64)?,
            asm: doc.get("asm").and_then(Json::as_str)?.to_string(),
        })
    }
}

/// Store failure.
#[derive(Debug)]
pub enum StoreError {
    Io(std::io::Error),
    /// An injected [`Fault::Crash`] fired in the commit window (after
    /// the journal append, before the entry write). The caller decides
    /// whether that means "die now" (the daemon binary) or "simulate
    /// the death" (tests and the benchmark).
    Interrupted,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O: {e}"),
            StoreError::Interrupted => write!(f, "store commit interrupted (injected crash)"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// What [`KernelStore::open`] found (and did) while loading.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Intact entries now serving from memory.
    pub entries_loaded: usize,
    /// Journal lines that did not parse (torn tail, injected garbage).
    pub journal_lines_dropped: usize,
    /// Journaled commits whose entry file was missing (crash window).
    pub dangling_dropped: usize,
    /// Entry files quarantined (bad checksum, torn, version skew).
    pub entries_quarantined: usize,
    /// Un-journaled entry files quarantined.
    pub orphans_quarantined: usize,
    /// Whether recovery rewrote (compacted) the journal.
    pub compacted: bool,
}

impl LoadStats {
    /// Did load encounter any damage at all?
    pub fn damaged(&self) -> bool {
        self.journal_lines_dropped
            + self.dangling_dropped
            + self.entries_quarantined
            + self.orphans_quarantined
            > 0
    }
}

/// The persistent kernel store. See the module docs for the layout,
/// commit protocol, and recovery invariants. `dir: None` is a purely
/// in-memory store with the same API (tests, `--cache-dir`-less runs).
#[derive(Debug)]
pub struct KernelStore {
    dir: Option<PathBuf>,
    entries: HashMap<String, StoredKernel>,
    /// Keys in journal (commit) order — compaction preserves it.
    order: Vec<String>,
    stats: LoadStats,
}

impl KernelStore {
    /// An in-memory store: warm within the process, nothing persisted.
    pub fn in_memory() -> Self {
        KernelStore {
            dir: None,
            entries: HashMap::new(),
            order: Vec::new(),
            stats: LoadStats::default(),
        }
    }

    /// Opens (creating if needed) the store at `dir`, running crash
    /// recovery. Never panics on damaged state: damage is dropped or
    /// quarantined, counted in [`LoadStats`], reported as counters on
    /// `tracer`, and the journal is compacted back to the surviving
    /// prefix.
    pub fn open(dir: impl AsRef<Path>, tracer: &dyn Tracer) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(dir.join("entries"))?;
        let mut store = KernelStore {
            dir: Some(dir),
            entries: HashMap::new(),
            order: Vec::new(),
            stats: LoadStats::default(),
        };
        store.recover(tracer)?;
        Ok(store)
    }

    fn journal_path(&self) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join("journal.jsonl"))
    }

    /// The entry file for `key` (meaningless for in-memory stores).
    pub fn entry_path(&self, key: &str) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join("entries").join(format!("{key}.json")))
    }

    /// Journal-replay load. See the module docs for the invariants.
    fn recover(&mut self, tracer: &dyn Tracer) -> Result<(), StoreError> {
        let Some(journal_path) = self.journal_path() else {
            return Ok(());
        };
        let header = Json::obj(vec![("schema", Json::str(STORE_JOURNAL_SCHEMA))]).render();
        if !journal_path.exists() {
            write_atomic(&journal_path, format!("{header}\n"))?;
            return Ok(());
        }
        let text = std::fs::read_to_string(&journal_path)?;
        let mut lines = text.lines();
        let header_ok = lines
            .next()
            .and_then(|l| Json::parse(l).ok())
            .map(|h| h.get("schema").and_then(Json::as_str) == Some(STORE_JOURNAL_SCHEMA))
            .unwrap_or(false);
        if !header_ok {
            // A foreign or mangled journal: quarantine it whole and
            // start fresh — its entries are unvouched-for orphans.
            quarantine_file(self.dir.as_deref(), &journal_path);
            self.stats.journal_lines_dropped += text.lines().count();
        } else {
            for line in lines {
                if line.trim().is_empty() {
                    continue;
                }
                let parsed = Json::parse(line).ok().and_then(|doc| {
                    Some((
                        doc.get("tag").and_then(Json::as_str)?.to_string(),
                        doc.get("checksum").and_then(Json::as_str)?.to_string(),
                    ))
                });
                let Some((key, journaled_sum)) = parsed else {
                    self.stats.journal_lines_dropped += 1;
                    continue;
                };
                if self.entries.contains_key(&key) {
                    // First write wins, as in the tune journal;
                    // duplicates only appear after injected faults.
                    continue;
                }
                match self.read_entry_file(&key, &journaled_sum) {
                    EntryOnDisk::Intact(entry) => {
                        self.order.push(key.clone());
                        self.entries.insert(key, entry);
                    }
                    EntryOnDisk::Missing => self.stats.dangling_dropped += 1,
                    EntryOnDisk::Damaged(path) => {
                        quarantine_file(self.dir.as_deref(), &path);
                        self.stats.entries_quarantined += 1;
                    }
                }
            }
        }
        // Anything in entries/ the surviving journal does not announce
        // is an orphan: quarantine it rather than trust it.
        if let Some(dir) = &self.dir {
            let known: std::collections::HashSet<_> =
                self.order.iter().map(|k| format!("{k}.json")).collect();
            let listing: Vec<PathBuf> = std::fs::read_dir(dir.join("entries"))?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .map(|n| !known.contains(&n.to_string_lossy().to_string()))
                        .unwrap_or(true)
                })
                .collect();
            for orphan in listing {
                quarantine_file(Some(dir), &orphan);
                self.stats.orphans_quarantined += 1;
            }
        }
        self.stats.entries_loaded = self.entries.len();
        if self.stats.damaged() {
            self.compact()?;
            self.stats.compacted = true;
        }
        tracer.add(
            augem_resil::counter::JOURNAL_CORRUPT,
            self.stats.journal_lines_dropped as u64,
        );
        tracer.add(counter::STORE_DANGLING, self.stats.dangling_dropped as u64);
        tracer.add(
            counter::STORE_QUARANTINED,
            self.stats.entries_quarantined as u64,
        );
        tracer.add(counter::STORE_ORPHAN, self.stats.orphans_quarantined as u64);
        Ok(())
    }

    /// Rewrites the journal from the surviving entries, atomically.
    fn compact(&self) -> Result<(), StoreError> {
        let Some(journal_path) = self.journal_path() else {
            return Ok(());
        };
        let mut text = Json::obj(vec![("schema", Json::str(STORE_JOURNAL_SCHEMA))]).render();
        text.push('\n');
        for key in &self.order {
            if let Some(entry) = self.entries.get(key) {
                text.push_str(&journal_line(key, &checksum(&entry.payload())));
                text.push('\n');
            }
        }
        write_atomic(&journal_path, text)?;
        Ok(())
    }

    fn read_entry_file(&self, key: &str, journaled_sum: &str) -> EntryOnDisk {
        let Some(path) = self.entry_path(key) else {
            return EntryOnDisk::Missing;
        };
        if !path.exists() {
            return EntryOnDisk::Missing;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            return EntryOnDisk::Damaged(path);
        };
        let mut lines = text.lines();
        let (Some(payload), Some(footer)) = (lines.next(), lines.next()) else {
            return EntryOnDisk::Damaged(path);
        };
        let footer_sum = Json::parse(footer)
            .ok()
            .and_then(|f| f.get("checksum").and_then(Json::as_str).map(String::from));
        if footer_sum.as_deref() != Some(journaled_sum) || checksum(payload) != journaled_sum {
            return EntryOnDisk::Damaged(path);
        }
        match StoredKernel::from_payload(payload) {
            Some(entry) if entry.key == key => EntryOnDisk::Intact(entry),
            _ => EntryOnDisk::Damaged(path),
        }
    }

    /// The stored kernel for `key`, if any (in-memory after load).
    pub fn get(&self, key: &str) -> Option<&StoredKernel> {
        self.entries.get(key)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// What recovery found when this store was opened.
    pub fn stats(&self) -> &LoadStats {
        &self.stats
    }

    /// Keys in commit order.
    pub fn keys(&self) -> &[String] {
        &self.order
    }

    /// Commits one tuned kernel: journal append first (flushed +
    /// fsynced), then the checksummed entry file via [`write_atomic`].
    /// Idempotent per key. The `injector` is probed at
    /// [`Site::StoreJournal`] (corrupt the append) and
    /// [`Site::StoreCommit`] (die in the window); see [`StoreError`].
    pub fn commit(
        &mut self,
        entry: StoredKernel,
        injector: &Injector,
        tracer: &dyn Tracer,
    ) -> Result<(), StoreError> {
        if self.entries.contains_key(&entry.key) {
            return Ok(());
        }
        let payload = entry.payload();
        let sum = checksum(&payload);
        if let Some(journal_path) = self.journal_path() {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&journal_path)?;
            if let Some(Fault::CorruptEntry) = injector.fault(Site::StoreJournal, &entry.key, 0) {
                writeln!(f, "{{\"torn\": tru")?;
            }
            writeln!(f, "{}", journal_line(&entry.key, &sum))?;
            f.sync_all()?;
            if let Some(Fault::Crash) = injector.fault(Site::StoreCommit, &entry.key, 0) {
                return Err(StoreError::Interrupted);
            }
            if let Some(entry_path) = self.entry_path(&entry.key) {
                write_atomic(&entry_path, format!("{payload}\n{}\n", footer_line(&sum)))?;
            }
        }
        tracer.add(counter::STORE_COMMIT, 1);
        self.order.push(entry.key.clone());
        self.entries.insert(entry.key.clone(), entry);
        Ok(())
    }
}

fn journal_line(key: &str, sum: &str) -> String {
    Json::obj(vec![("tag", Json::str(key)), ("checksum", Json::str(sum))]).render()
}

fn footer_line(sum: &str) -> String {
    Json::obj(vec![("checksum", Json::str(sum))]).render()
}

/// Moves a damaged file into `<dir>/quarantine/`. Best-effort: if even
/// the rename fails the damaged file stays put, but it is never served
/// either way.
fn quarantine_file(dir: Option<&Path>, file: &Path) {
    if let Some(dir) = dir {
        let qdir = dir.join("quarantine");
        if std::fs::create_dir_all(&qdir).is_ok() {
            if let Some(name) = file.file_name() {
                let _ = std::fs::rename(file, qdir.join(name));
            }
        }
    }
}

enum EntryOnDisk {
    Intact(StoredKernel),
    Missing,
    Damaged(PathBuf),
}

#[cfg(test)]
mod tests {
    use super::*;
    use augem_obs::Collector;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("augem-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn entry(key: &str) -> StoredKernel {
        StoredKernel {
            key: key.to_string(),
            kernel: "daxpy".into(),
            machine: "snb-0123".into(),
            config_tag: "daxpy u8 pf=0 sched=Interleaved".into(),
            mflops: 4321.75,
            asm: ".text\nvmovapd (%rdi), %ymm0\n".into(),
        }
    }

    #[test]
    fn commit_then_reopen_round_trips() {
        let d = tmpdir("roundtrip");
        let c = Collector::new();
        let mut s = KernelStore::open(&d, &c).unwrap();
        s.commit(entry("aa11"), &Injector::disabled(), &c).unwrap();
        s.commit(entry("bb22"), &Injector::disabled(), &c).unwrap();
        drop(s);
        let s2 = KernelStore::open(&d, &c).unwrap();
        assert_eq!(s2.len(), 2);
        assert_eq!(s2.get("aa11"), Some(&entry("aa11")));
        assert!(!s2.stats().damaged());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn commit_is_idempotent_per_key() {
        let c = Collector::new();
        let mut s = KernelStore::in_memory();
        s.commit(entry("k"), &Injector::disabled(), &c).unwrap();
        s.commit(entry("k"), &Injector::disabled(), &c).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.keys(), ["k".to_string()]);
    }

    #[test]
    fn dangling_journal_line_is_dropped_and_compacted_away() {
        let d = tmpdir("dangling");
        let c = Collector::new();
        let mut s = KernelStore::open(&d, &c).unwrap();
        s.commit(entry("solid"), &Injector::disabled(), &c).unwrap();
        let clean_journal = std::fs::read(d.join("journal.jsonl")).unwrap();
        // Injected crash in the commit window: journal line lands, the
        // entry file does not.
        let crash = Injector::new(augem_resil::InjectionPlan::new(0).with(
            Site::StoreCommit,
            Fault::Crash,
            augem_resil::Trigger::Nth(1),
        ));
        let err = s.commit(entry("torn"), &crash, &c).unwrap_err();
        assert!(matches!(err, StoreError::Interrupted));
        drop(s);
        let s2 = KernelStore::open(&d, &c).unwrap();
        assert_eq!(s2.len(), 1, "only the intact entry survives");
        assert_eq!(s2.stats().dangling_dropped, 1);
        assert!(s2.stats().compacted);
        assert_eq!(
            std::fs::read(d.join("journal.jsonl")).unwrap(),
            clean_journal,
            "recovery must be bit-identical to the pre-crash journal"
        );
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn corrupt_entry_file_is_quarantined_not_fatal() {
        let d = tmpdir("corrupt");
        let c = Collector::new();
        let mut s = KernelStore::open(&d, &c).unwrap();
        s.commit(entry("good"), &Injector::disabled(), &c).unwrap();
        s.commit(entry("bad0"), &Injector::disabled(), &c).unwrap();
        let victim = s.entry_path("bad0").unwrap();
        drop(s);
        // Flip one byte in the payload.
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[10] ^= 0x40;
        std::fs::write(&victim, bytes).unwrap();
        let s2 = KernelStore::open(&d, &c).unwrap();
        assert_eq!(s2.len(), 1);
        assert!(s2.get("good").is_some());
        assert_eq!(s2.stats().entries_quarantined, 1);
        assert!(d.join("quarantine").join("bad0.json").exists());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn version_skewed_entry_is_quarantined() {
        let d = tmpdir("skew");
        let c = Collector::new();
        let mut s = KernelStore::open(&d, &c).unwrap();
        s.commit(entry("old0"), &Injector::disabled(), &c).unwrap();
        let victim = s.entry_path("old0").unwrap();
        drop(s);
        // Rewrite the entry under a future schema with a *valid*
        // checksum chain: version skew alone must quarantine it.
        let text = std::fs::read_to_string(&victim).unwrap();
        let payload = text
            .lines()
            .next()
            .unwrap()
            .replace("augem.kernel-store/v1", "augem.kernel-store/v9");
        let sum = checksum(&payload);
        std::fs::write(&victim, format!("{payload}\n{}\n", footer_line(&sum))).unwrap();
        // Patch the journal to vouch for the new bytes, isolating the
        // schema check from the checksum check.
        let j = d.join("journal.jsonl");
        let jt = std::fs::read_to_string(&j).unwrap();
        let patched: Vec<String> = jt
            .lines()
            .map(|l| {
                if l.contains("old0") {
                    journal_line("old0", &sum)
                } else {
                    l.to_string()
                }
            })
            .collect();
        std::fs::write(&j, patched.join("\n") + "\n").unwrap();
        let s2 = KernelStore::open(&d, &c).unwrap();
        assert_eq!(s2.len(), 0);
        assert_eq!(s2.stats().entries_quarantined, 1);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn orphan_entry_file_is_quarantined() {
        let d = tmpdir("orphan");
        let c = Collector::new();
        let s = KernelStore::open(&d, &c).unwrap();
        drop(s);
        std::fs::write(
            d.join("entries").join("feed.json"),
            "{\"schema\":\"augem.kernel-store/v1\"}\n",
        )
        .unwrap();
        let s2 = KernelStore::open(&d, &c).unwrap();
        assert_eq!(s2.len(), 0);
        assert_eq!(s2.stats().orphans_quarantined, 1);
        assert!(d.join("quarantine").join("feed.json").exists());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn injected_journal_corruption_is_tolerated_on_reload() {
        let d = tmpdir("garble");
        let c = Collector::new();
        let mut s = KernelStore::open(&d, &c).unwrap();
        let garble = Injector::new(augem_resil::InjectionPlan::new(0).with(
            Site::StoreJournal,
            Fault::CorruptEntry,
            augem_resil::Trigger::Nth(1),
        ));
        s.commit(entry("ok01"), &garble, &c).unwrap();
        drop(s);
        let c2 = Collector::new();
        let s2 = KernelStore::open(&d, &c2).unwrap();
        assert_eq!(s2.len(), 1, "the real commit survives the garbage line");
        assert_eq!(s2.stats().journal_lines_dropped, 1);
        let snap = c2.snapshot();
        assert_eq!(
            snap.counters.get(augem_resil::counter::JOURNAL_CORRUPT),
            Some(&1),
            "drops must be reported on the resil counter"
        );
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn foreign_journal_is_quarantined_whole() {
        let d = tmpdir("foreign");
        std::fs::create_dir_all(d.join("entries")).unwrap();
        std::fs::write(d.join("journal.jsonl"), "{\"schema\":\"other/v1\"}\n").unwrap();
        let c = Collector::new();
        let s = KernelStore::open(&d, &c).unwrap();
        assert_eq!(s.len(), 0);
        assert!(s.stats().damaged());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn store_keys_separate_kernel_machine_and_budget() {
        let snb = MachineSpec::sandy_bridge();
        let pd = MachineSpec::piledriver();
        let base = store_key("dgemm", &snb, None);
        assert_eq!(base, store_key("dgemm", &snb, None), "deterministic");
        assert_ne!(base, store_key("daxpy", &snb, None));
        assert_ne!(base, store_key("dgemm", &pd, None));
        assert_ne!(base, store_key("dgemm", &snb, Some(100_000)));
        assert_ne!(
            store_key("dgemm", &snb, Some(0)),
            store_key("dgemm", &snb, None),
            "budget 0 and no budget are distinct keys"
        );
    }

    #[test]
    fn store_keys_are_pinned_so_existing_stores_keep_hitting() {
        let snb = MachineSpec::sandy_bridge();
        let pd = MachineSpec::piledriver();
        let budget = Some(1 << 26);
        let pinned = [
            ("dgemm", &snb, "4c3f5c521bf0e554"),
            ("daxpy", &snb, "ac731b082b555e30"),
            ("dgemm", &pd, "1d4f2e63063b06a7"),
            ("daxpy", &pd, "a5d89899fd07b8f2"),
        ];
        for _ in 0..2 {
            for (kernel, machine, want) in pinned {
                assert_eq!(store_key(kernel, machine, budget), want, "{kernel}");
            }
        }
    }
}
