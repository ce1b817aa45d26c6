//! The persistent, crash-safe kernel store.
//!
//! Content-addressed like `tune::EvalCache` — the key mixes the kernel
//! name, the full [`MachineSpec::fingerprint`], and the simulator step
//! budget — but durable: a warm daemon restart answers repeat requests
//! without re-tuning anything.
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/journal.jsonl   one resil::Journal: a header, then one
//!                       checksummed record per stored kernel
//! <dir>/entries/        empty; kept because the benchmark's store copy lists it
//! <dir>/quarantine/     journals found damaged or foreign, for post-mortem
//! ```
//!
//! A commit is one fsynced append of a whole [`StoredKernel`] record,
//! so a crash in the commit window leaves at most a torn, unterminated
//! last line.
//!
//! # Recovery
//!
//! [`KernelStore::open`] never fails on damaged state. The journal's
//! load drops and counts a torn tail and every damaged line (not UTF-8,
//! a failed checksum, not a stored kernel), never serves them, keeps a
//! damaged journal as found in `quarantine/`, and compacts the file to
//! the surviving records in commit order. A crash-restart therefore
//! leaves bytes identical to a never-crashed store over the surviving
//! commits — the property the crash-restart tests assert. A journal
//! with another header (another schema version included) is
//! quarantined whole, and the store starts empty.

use crate::counter;
use augem_machine::MachineSpec;
use augem_obs::hash::{mix_str, splitmix64};
use augem_obs::{Json, Tracer};
use augem_resil::{quarantine, Fault, Injector, Journal, JournalError, Record, Site};
use std::path::Path;

/// Schema identifier in the store journal's header line.
pub const STORE_JOURNAL_SCHEMA: &str = "augem.store-journal/v2";

/// Seed for the store keys.
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

/// A journal record, tagged by its key.
impl Record for StoredKernel {
    fn tag(&self) -> Option<&str> {
        Some(&self.key)
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("tag", Json::str(self.key.clone())),
            ("kernel", Json::str(self.kernel.clone())),
            ("machine", Json::str(self.machine.clone())),
            ("config", Json::str(self.config_tag.clone())),
            ("mflops", Json::Num(self.mflops)),
            ("asm", Json::str(self.asm.clone())),
        ])
    }

    fn from_json(doc: Json) -> Option<Self> {
        let text = |k| doc.get(k).and_then(Json::as_str).map(String::from);
        Some(StoredKernel {
            key: text("tag")?,
            kernel: text("kernel")?,
            machine: text("machine")?,
            config_tag: text("config")?,
            mflops: doc.get("mflops").and_then(Json::as_f64)?,
            asm: text("asm")?,
        })
    }
}

/// Store failure.
#[derive(Debug)]
pub enum StoreError {
    Io(std::io::Error),
    /// An injected [`Fault::Crash`] fired in the commit window, the
    /// append itself, leaving a torn record. The caller decides whether
    /// that means "die now" (the daemon binary) or "simulate the death"
    /// (tests and the benchmark).
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
    /// Kernels now serving from memory.
    pub entries_loaded: usize,
    /// Journal lines dropped: a torn tail (a crash mid-commit) or damage.
    pub journal_lines_dropped: usize,
    /// The journal as found was kept in `quarantine/`: it held damage
    /// beyond a torn tail, or had another header.
    pub quarantined: bool,
}

impl LoadStats {
    /// Did load encounter any damage at all?
    pub fn damaged(&self) -> bool {
        self.journal_lines_dropped > 0 || self.quarantined
    }
}

/// The persistent kernel store. See the module docs for the layout and
/// recovery. [`KernelStore::in_memory`] is a store with the same API
/// that persists nothing (tests, `--cache-dir`-less runs).
#[derive(Debug)]
pub struct KernelStore {
    journal: Journal<StoredKernel>,
    /// Keys in commit order.
    order: Vec<String>,
    stats: LoadStats,
}

fn header() -> Json {
    Json::obj(vec![("schema", Json::str(STORE_JOURNAL_SCHEMA))])
}

impl KernelStore {
    /// An in-memory store: warm within the process, nothing persisted.
    pub fn in_memory() -> Self {
        Self::serving(Journal::in_memory(), LoadStats::default())
    }

    /// Opens (creating if needed) the store at `dir`, running crash
    /// recovery. Damage is dropped and counted in [`LoadStats`] and as
    /// counters on `tracer`; only I/O failures are errors.
    pub fn open(dir: impl AsRef<Path>, tracer: &dyn Tracer) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        // Kept, empty, for the benchmark: its store copy lists `entries/`.
        std::fs::create_dir_all(dir.join("entries"))?;
        let path = dir.join("journal.jsonl");
        let mut foreign = false;
        let journal = match Journal::load(&path, header()) {
            Ok(journal) => journal,
            Err(JournalError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                Journal::create(&path, header())?
            }
            Err(JournalError::Io(e)) => return Err(e.into()),
            Err(JournalError::BadHeader(_)) => {
                quarantine(&path)?;
                foreign = true;
                Journal::create(&path, header())?
            }
        };
        let stats = LoadStats {
            entries_loaded: journal.len(),
            journal_lines_dropped: journal.corrupt_dropped(),
            quarantined: foreign || journal.quarantined(),
        };
        tracer.add(
            augem_resil::counter::JOURNAL_CORRUPT,
            stats.journal_lines_dropped as u64,
        );
        tracer.add(counter::STORE_QUARANTINED, u64::from(stats.quarantined));
        Ok(Self::serving(journal, stats))
    }

    fn serving(journal: Journal<StoredKernel>, stats: LoadStats) -> Self {
        let order = journal.entries().iter().map(|k| k.key.clone()).collect();
        KernelStore {
            journal,
            order,
            stats,
        }
    }

    /// The stored kernel for `key`, if any (in-memory after load).
    pub fn get(&self, key: &str) -> Option<&StoredKernel> {
        self.journal.get(key)
    }

    pub fn len(&self) -> usize {
        self.journal.len()
    }

    pub fn is_empty(&self) -> bool {
        self.journal.is_empty()
    }

    /// What recovery found when this store was opened.
    pub fn stats(&self) -> &LoadStats {
        &self.stats
    }

    /// Keys in commit order.
    pub fn keys(&self) -> &[String] {
        &self.order
    }

    /// Commits one tuned kernel: one fsynced journal append. Idempotent
    /// per key. On a persistent store the `injector` is probed at
    /// [`Site::StoreJournal`] (write a garbage line first) and
    /// [`Site::StoreCommit`] (die mid-append); see [`StoreError`].
    pub fn commit(
        &mut self,
        entry: StoredKernel,
        injector: &Injector,
        tracer: &dyn Tracer,
    ) -> Result<(), StoreError> {
        if self.journal.get(&entry.key).is_some() {
            return Ok(());
        }
        if self.journal.path().is_some() {
            if let Some(Fault::CorruptEntry) = injector.fault(Site::StoreJournal, &entry.key, 0) {
                self.journal.append_corrupt("{\"torn\": tru")?;
            }
            if let Some(Fault::Crash) = injector.fault(Site::StoreCommit, &entry.key, 0) {
                self.journal.append_torn(&entry)?;
                return Err(StoreError::Interrupted);
            }
        }
        let key = entry.key.clone();
        self.journal.append(entry)?;
        self.order.push(key);
        tracer.add(counter::STORE_COMMIT, 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augem_obs::Collector;
    use augem_resil::{InjectionPlan, Trigger};
    use std::path::PathBuf;

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

    fn injector(site: Site, fault: Fault) -> Injector {
        Injector::new(InjectionPlan::new(0).with(site, fault, Trigger::Nth(1)))
    }

    /// A store at `d` holding `keys`, and its journal's bytes.
    fn store_with(d: &Path, keys: &[&str]) -> (KernelStore, Vec<u8>) {
        let c = Collector::new();
        let mut s = KernelStore::open(d, &c).unwrap();
        for k in keys {
            s.commit(entry(k), &Injector::disabled(), &c).unwrap();
        }
        (s, std::fs::read(d.join("journal.jsonl")).unwrap())
    }

    #[test]
    fn commit_then_reopen_round_trips_and_a_clean_open_writes_nothing() {
        let d = tmpdir("roundtrip");
        let (s, bytes) = store_with(&d, &["aa11", "bb22"]);
        drop(s);
        let s2 = KernelStore::open(&d, &Collector::new()).unwrap();
        assert_eq!(s2.len(), 2);
        assert_eq!(s2.get("aa11"), Some(&entry("aa11")));
        assert_eq!(s2.keys(), ["aa11".to_string(), "bb22".to_string()]);
        assert!(!s2.stats().damaged());
        assert_eq!(std::fs::read(d.join("journal.jsonl")).unwrap(), bytes);
        assert!(d.join("entries").is_dir(), "kept for the benchmark");
        assert_eq!(std::fs::read_dir(d.join("entries")).unwrap().count(), 0);
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
    fn a_crash_mid_commit_leaves_a_torn_record_that_recovery_drops() {
        let d = tmpdir("torn");
        let (mut s, clean) = store_with(&d, &["solid"]);
        let crash = injector(Site::StoreCommit, Fault::Crash);
        let err = s
            .commit(entry("torn"), &crash, &Collector::new())
            .unwrap_err();
        assert!(matches!(err, StoreError::Interrupted));
        assert!(s.get("torn").is_none());
        drop(s);
        let torn = std::fs::read(d.join("journal.jsonl")).unwrap();
        assert!(torn.len() > clean.len() && !torn.ends_with(b"\n"));
        let c = Collector::new();
        let s2 = KernelStore::open(&d, &c).unwrap();
        assert_eq!(s2.len(), 1, "only the intact record survives");
        assert_eq!(s2.stats().journal_lines_dropped, 1);
        assert!(
            !s2.stats().quarantined,
            "a torn tail is a crash, not damage"
        );
        assert_eq!(
            c.snapshot().counters[augem_resil::counter::JOURNAL_CORRUPT],
            1
        );
        assert_eq!(
            std::fs::read(d.join("journal.jsonl")).unwrap(),
            clean,
            "recovery must be bit-identical to the pre-crash journal"
        );
        assert!(!d.join("quarantine").exists());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn a_damaged_record_is_dropped_and_the_journal_kept_aside() {
        let d = tmpdir("corrupt");
        let (s, mut bytes) = store_with(&d, &["good", "bad0"]);
        drop(s);
        let at = bytes.len() - 10;
        bytes[at] ^= 0x80;
        std::fs::write(d.join("journal.jsonl"), &bytes).unwrap();
        let c = Collector::new();
        let s2 = KernelStore::open(&d, &c).unwrap();
        assert_eq!(s2.len(), 1);
        assert!(s2.get("good").is_some() && s2.get("bad0").is_none());
        assert!(s2.stats().quarantined);
        assert_eq!(c.snapshot().counters[counter::STORE_QUARANTINED], 1);
        let kept = std::fs::read(d.join("quarantine").join("journal.jsonl")).unwrap();
        assert_eq!(kept, bytes, "the damaged journal is kept as found");
        drop(s2);
        let again = KernelStore::open(&d, &Collector::new()).unwrap();
        assert!(!again.stats().damaged(), "recovery converges");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn a_checksummed_record_that_is_not_a_stored_kernel_is_dropped() {
        let d = tmpdir("shape");
        let (s, _) = store_with(&d, &["old0"]);
        drop(s);
        // A record with a valid checksum but a field renamed, as another
        // writer version would leave it.
        let mut j: Journal = Journal::load(d.join("journal.jsonl"), header()).unwrap();
        let skewed = entry("new0")
            .to_json()
            .render()
            .replace("\"asm\"", "\"code\"");
        j.append(Json::parse(&skewed).unwrap()).unwrap();
        let s2 = KernelStore::open(&d, &Collector::new()).unwrap();
        assert_eq!(s2.keys(), ["old0".to_string()]);
        assert!(s2.stats().quarantined);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn injected_journal_corruption_is_tolerated_on_reload() {
        let d = tmpdir("garble");
        let c = Collector::new();
        let mut s = KernelStore::open(&d, &c).unwrap();
        let garble = injector(Site::StoreJournal, Fault::CorruptEntry);
        s.commit(entry("ok01"), &garble, &c).unwrap();
        drop(s);
        let c2 = Collector::new();
        let s2 = KernelStore::open(&d, &c2).unwrap();
        assert_eq!(s2.len(), 1, "the real commit survives the garbage line");
        assert_eq!(s2.stats().journal_lines_dropped, 1);
        assert_eq!(
            c2.snapshot().counters[augem_resil::counter::JOURNAL_CORRUPT],
            1,
            "drops must be reported on the resil counter"
        );
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn a_v1_journal_is_quarantined_whole_and_the_store_starts_empty() {
        let d = tmpdir("v1");
        std::fs::create_dir_all(d.join("entries")).unwrap();
        let v1 = "{\"schema\":\"augem.store-journal/v1\"}\n\
                  {\"tag\":\"4c3f5c521bf0e554\",\"checksum\":\"0123456789abcdef\"}\n";
        std::fs::write(d.join("journal.jsonl"), v1).unwrap();
        let s = KernelStore::open(&d, &Collector::new()).unwrap();
        assert_eq!(s.len(), 0);
        assert!(s.stats().quarantined);
        assert_eq!(
            std::fs::read_to_string(d.join("quarantine").join("journal.jsonl")).unwrap(),
            v1
        );
        assert_eq!(
            std::fs::read_to_string(d.join("journal.jsonl")).unwrap(),
            format!("{}\n", header().render())
        );
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
