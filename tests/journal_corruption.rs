//! Damage tests for the one on-disk format, `resil::Journal`, through
//! both of its callers: the tuner's checkpoint and the serving daemon's
//! kernel store (`serve::KernelStore`).
//!
//! For random contents and a random byte-level injury — truncation at an
//! arbitrary offset (a torn write) or any single flipped bit (media
//! corruption) — loading never panics, fails only when the injury lies
//! in the header line, loads only records byte-identical to ones that
//! were appended, counts every drop, and converges: a second load after
//! recovery finds no damage. Three regression tests pin the faults the
//! unchecksummed journals had: an altered measurement that still parsed,
//! a torn tail that swallowed the next append, and one high bit that
//! failed the whole load.

use augem_machine::MachineSpec;
use augem_obs::{Collector, Json};
use augem_resil::{journal_header, Injector, Journal};
use augem_serve::{KernelStore, StoredKernel};
use augem_tune::{sweep, vector_candidates, EvalCache, ResilOptions, VectorKernel};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// A fresh directory per case: a damaged load keeps a copy in
/// `quarantine/` beside the journal.
fn tmpdir(name: &str, case: u64) -> PathBuf {
    let d = std::env::temp_dir().join(format!("augem-jcorr-{}-{name}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn header() -> Json {
    journal_header("daxpy", "sandybridge")
}

fn record(tag: &str, mflops: f64) -> Json {
    Json::obj(vec![("tag", Json::str(tag)), ("mflops", Json::Num(mflops))])
}

/// A checkpoint at `path` holding `n` records; returns them.
fn tune_journal_with(path: &Path, n: usize) -> Vec<Json> {
    let mut j = Journal::create(path, header()).unwrap();
    let records: Vec<Json> = (0..n)
        .map(|i| record(&format!("cfg-{i}"), 100.5 + i as f64))
        .collect();
    for r in &records {
        j.append(r.clone()).unwrap();
    }
    records
}

/// Bytes of the header line, its newline included.
fn header_len(bytes: &[u8]) -> usize {
    bytes.iter().position(|&b| b == b'\n').unwrap() + 1
}

/// Splitmix-style byte position derivation so each case injures a
/// different spot without depending on file length in the strategy.
fn pos(seed: u64, len: usize) -> usize {
    (augem_obs::hash::splitmix64(seed) % len.max(1) as u64) as usize
}

/// `got` is `want` with some records missing, in order.
fn is_subsequence(got: &[Json], want: &[Json]) -> bool {
    let mut want = want.iter();
    got.iter().all(|g| want.any(|w| w.render() == g.render()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncation: the surviving records are exactly a prefix of the
    /// originals; at most the one torn line is dropped, and it is a
    /// crash, not damage, so nothing is quarantined.
    #[test]
    fn tune_journal_truncation_drops_only_the_torn_suffix(
        n in 1usize..6,
        seed in 0u64..10_000,
    ) {
        let dir = tmpdir("tj-trunc", seed);
        let path = dir.join("daxpy.jsonl");
        let records = tune_journal_with(&path, n);
        let bytes = std::fs::read(&path).unwrap();
        let cut = pos(seed, bytes.len() + 1);
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let loaded = Journal::<Json>::load(&path, header());
        prop_assert_eq!(loaded.is_err(), cut < header_len(&bytes), "Err iff the header is torn");
        if let Ok(j) = loaded {
            prop_assert!(j.corrupt_dropped() <= 1, "only the torn line drops");
            prop_assert!(!j.quarantined(), "a torn tail is not damage");
            prop_assert!(j.entries().len() <= records.len());
            for (got, want) in j.entries().iter().zip(&records) {
                prop_assert_eq!(got.render(), want.render(), "prefix must be intact");
            }
            let again = Journal::<Json>::load(&path, header()).unwrap();
            prop_assert_eq!(again.corrupt_dropped(), 0, "recovery converges");
            prop_assert_eq!(again.entries(), j.entries());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Any single flipped bit fails the load only inside the header
    /// line. Elsewhere it is always detected and costs at most two
    /// records (a flip that destroys a newline merges two lines); every
    /// record that loads is byte-identical to one that was appended.
    #[test]
    fn tune_journal_bit_flip_is_contained_and_counted(
        n in 1usize..6,
        seed in 0u64..10_000,
        bit in 0u8..8,
    ) {
        let dir = tmpdir("tj-flip", seed);
        let path = dir.join("daxpy.jsonl");
        let records = tune_journal_with(&path, n);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = pos(seed.wrapping_add(1), bytes.len());
        let in_header = at < header_len(&bytes);
        bytes[at] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        let loaded = Journal::<Json>::load(&path, header());
        prop_assert_eq!(loaded.is_err(), in_header, "Err iff the flip is in the header");
        if let Ok(j) = loaded {
            prop_assert!(
                (1..=2).contains(&j.corrupt_dropped()),
                "the flipped line is dropped: {} dropped", j.corrupt_dropped()
            );
            prop_assert!(is_subsequence(j.entries(), &records), "only appended records load");
            prop_assert!(j.len() + 2 >= records.len(), "at most two records lost");
            let again = Journal::<Json>::load(&path, header()).unwrap();
            prop_assert_eq!(again.corrupt_dropped(), 0, "recovery converges");
            prop_assert_eq!(again.entries(), j.entries());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn store_with(dir: &Path, n: usize) -> Vec<StoredKernel> {
    let c = Collector::new();
    let mut s = KernelStore::open(dir, &c).unwrap();
    let mut committed = Vec::new();
    for i in 0..n {
        let e = StoredKernel {
            key: format!("{i:016x}"),
            kernel: "daxpy".into(),
            machine: "sandybridge-0123".into(),
            config_tag: format!("daxpy u{} pf=off", 2 << i),
            mflops: 1000.5 + i as f64,
            asm: format!(".text\n# kernel {i}\nvmovapd (%rdi), %ymm0\n"),
        };
        s.commit(e.clone(), &Injector::disabled(), &c).unwrap();
        committed.push(e);
    }
    committed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Injuring the store journal (truncation, or any flipped bit)
    /// never fails the open: an injured header quarantines the journal
    /// whole and the store starts empty; elsewhere every served kernel
    /// is byte-identical to a committed one, every drop is counted, and
    /// recovery converges: a second open reports zero damage.
    #[test]
    fn store_journal_damage_is_recovered_counted_and_convergent(
        n in 1usize..5,
        seed in 0u64..10_000,
        bit in 0u8..8,
        flip_not_truncate in any::<bool>(),
    ) {
        let dir = tmpdir("store", seed.wrapping_add(if flip_not_truncate { 1 << 32 } else { 0 }));
        let committed = store_with(&dir, n);
        let journal = dir.join("journal.jsonl");
        let mut bytes = std::fs::read(&journal).unwrap();
        let header_len = header_len(&bytes);
        let in_header = if flip_not_truncate {
            let at = pos(seed, bytes.len());
            bytes[at] ^= 1 << bit;
            at < header_len
        } else {
            let cut = pos(seed, bytes.len() + 1);
            bytes.truncate(cut);
            cut < header_len
        };
        std::fs::write(&journal, &bytes).unwrap();

        let c = Collector::new();
        let reopened = KernelStore::open(&dir, &c).unwrap();
        let stats = *reopened.stats();
        prop_assert_eq!(stats.entries_loaded, reopened.len());
        if in_header {
            prop_assert!(reopened.is_empty() && stats.quarantined, "{:?}", stats);
        }
        // Every served kernel is one that was committed, in commit order.
        let mut want = committed.iter();
        for key in reopened.keys() {
            let got = reopened.get(key).unwrap();
            prop_assert!(want.any(|w| w == got), "served kernels must be intact: {}", key);
        }
        if flip_not_truncate && !in_header {
            prop_assert!(stats.journal_lines_dropped >= 1, "the flip is detected");
            prop_assert!(reopened.len() + 2 >= n, "at most two records lost");
        }
        // Drops are visible on the resil counter, not silent.
        let snap = c.snapshot();
        let counted = snap
            .counters
            .get(augem_resil::counter::JOURNAL_CORRUPT)
            .copied()
            .unwrap_or(0);
        prop_assert_eq!(counted, stats.journal_lines_dropped as u64);

        // Convergence: recovery leaves a store that reopens clean.
        drop(reopened);
        let again = KernelStore::open(&dir, &Collector::new()).unwrap();
        prop_assert!(!again.stats().damaged(), "second open must be clean: {:?}", again.stats());
        prop_assert_eq!(again.len(), stats.entries_loaded);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A checkpoint whose measurement was altered into another well-formed
/// number resumes by re-evaluating that candidate, never by replaying
/// the altered number: the resumed winner and ranking equal the
/// uninterrupted sweep's, bit for bit.
#[test]
fn a_flipped_digit_in_a_checkpoint_is_re_evaluated_not_replayed() {
    let m = MachineSpec::sandy_bridge();
    let candidates = || vector_candidates(VectorKernel::Axpy, &m);
    let header = || journal_header("daxpy", m.arch.short_name());
    // A fresh cache per run: the resumed run must re-simulate the
    // candidate whose record was dropped.
    let run = |journal: &mut Journal| {
        let c = Collector::new();
        let r = sweep(
            candidates(),
            &m,
            &ResilOptions::plain(),
            Some(journal),
            &Injector::disabled(),
            &c,
            &EvalCache::new(),
        )
        .unwrap();
        let ranking: Vec<(String, u64)> = r
            .ranking
            .iter()
            .map(|(c, mflops)| (c.tag(), mflops.to_bits()))
            .collect();
        (ranking, c.snapshot().counters)
    };
    let dir = tmpdir("digit", 0);
    let path = dir.join("daxpy.jsonl");
    let (reference, _) = run(&mut Journal::create(&path, header()).unwrap());

    // Alter the winner's measurement into another well-formed number:
    // change its leading digit.
    let text = std::fs::read_to_string(&path).unwrap();
    let winner = &reference[0].0;
    let line = text
        .lines()
        .find(|l| l.contains(&format!("\"tag\":\"{winner}\"")))
        .unwrap();
    let digit = line.find("\"mflops\":").unwrap() + "\"mflops\":".len();
    let mut altered = line.to_string();
    let d = altered.as_bytes()[digit];
    altered.replace_range(
        digit..=digit,
        &char::from(b'1' + (d - b'0') % 8).to_string(),
    );
    std::fs::write(&path, text.replacen(line, &altered, 1)).unwrap();

    let mut resumed = Journal::load(&path, header()).unwrap();
    assert_eq!(
        resumed.corrupt_dropped(),
        1,
        "the altered record is dropped"
    );
    assert!(resumed.get(winner).is_none(), "and never loads");
    let (ranking, counters) = run(&mut resumed);
    assert_eq!(ranking, reference, "re-evaluated, bit for bit");
    assert_eq!(
        counters["resil.journal.resumed"],
        candidates().len() as u64 - 1,
        "every other candidate is replayed"
    );
    assert_eq!(counters["resil.journal.corrupt"], 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint that ends in a torn record, resumed and appended to,
/// keeps every record appended after the resume: the load compacts the
/// torn tail away before anything is appended behind it.
#[test]
fn a_torn_tail_then_a_resume_keeps_every_later_record() {
    let dir = tmpdir("torn-resume", 0);
    let path = dir.join("daxpy.jsonl");
    let mut j = Journal::create(&path, header()).unwrap();
    j.append(record("u4", 1.5)).unwrap();
    j.append_torn(&record("u2", 0.5)).unwrap();
    drop(j);
    let mut resumed: Journal = Journal::load_or_create(&path, header(), true).unwrap();
    assert_eq!(resumed.corrupt_dropped(), 1);
    resumed.append(record("u8", 2.5)).unwrap();
    resumed.append(record("u16", 3.5)).unwrap();
    let back: Journal = Journal::load(&path, header()).unwrap();
    assert_eq!(back.corrupt_dropped(), 0);
    assert_eq!(
        back.entries(),
        [record("u4", 1.5), record("u8", 2.5), record("u16", 3.5)]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One byte with its high bit flipped (not UTF-8) in a middle record
/// costs that record, not the load, in both callers.
#[test]
fn a_high_bit_flip_drops_one_record_not_the_load() {
    let dir = tmpdir("highbit", 0);
    let path = dir.join("daxpy.jsonl");
    let records = tune_journal_with(&path, 3);
    let committed = store_with(&dir.join("store"), 3);
    for journal in [path.clone(), dir.join("store").join("journal.jsonl")] {
        let mut bytes = std::fs::read(&journal).unwrap();
        let lines: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'\n').collect();
        // The 5th byte of the second record's line.
        bytes[lines[1] + 5] ^= 0x80;
        std::fs::write(&journal, bytes).unwrap();
    }
    let j = Journal::<Json>::load(&path, header()).unwrap();
    assert_eq!(j.entries(), [records[0].clone(), records[2].clone()]);
    assert_eq!(j.corrupt_dropped(), 1);
    let store = KernelStore::open(dir.join("store"), &Collector::new()).unwrap();
    let keys = [committed[0].key.clone(), committed[2].key.clone()];
    assert_eq!(store.keys(), keys);
    assert_eq!(store.stats().journal_lines_dropped, 1);
    assert!(store.stats().quarantined);
    std::fs::remove_dir_all(&dir).unwrap();
}
