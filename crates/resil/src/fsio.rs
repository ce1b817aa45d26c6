//! Crash-safe file writes for report, benchmark, and journal sinks.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// How many parent-directory fsyncs [`write_atomic`] has performed in
/// this process. Tests assert the durability path is actually exercised
/// (a rename without a directory fsync is atomic but not durable — the
/// new directory entry can still be lost on power failure).
static DIR_FSYNCS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of parent-directory fsyncs performed by
/// [`write_atomic`]. Monotonic; only ever incremented.
pub fn dir_fsyncs() -> u64 {
    DIR_FSYNCS.load(Ordering::Relaxed)
}

/// Writes `contents` to `path` atomically *and durably*: the bytes go to
/// a temporary sibling file first (same directory, so the rename cannot
/// cross a filesystem), the temp file is fsynced **before** the rename
/// (so the data is on disk before the name points at it), and the parent
/// directory is fsynced **after** the rename (so the directory entry
/// itself survives a power cut). A crash at any point leaves either the
/// old file or the new one — never a truncated hybrid — so
/// `BENCH_*.json`, run reports, and kernel-store entries stay parseable
/// across interrupted runs. The stray `.tmp` file from a crash is
/// overwritten by the next successful write of the same path.
///
/// Non-regular-file targets (`/dev/null`, pipes, character devices) are
/// exempt from the whole protocol and written directly: renaming a temp
/// file over `/dev/null` would replace the device node with a regular
/// file, and directory-entry durability is meaningless for a node that
/// was never created by us.
pub fn write_atomic(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Ok(meta) = std::fs::metadata(path) {
        if !meta.is_file() {
            return std::fs::write(path, contents);
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_ref())?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        fsync_parent_dir(path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Copies `path` into `quarantine/` beside it, for post-mortem: state
/// found damaged or foreign, kept aside and never read back. A later
/// copy under the same name replaces an earlier one.
pub fn quarantine(path: &Path) -> std::io::Result<()> {
    let (Some(dir), Some(name)) = (path.parent(), path.file_name()) else {
        return Ok(());
    };
    let kept = dir.join("quarantine");
    std::fs::create_dir_all(&kept)?;
    std::fs::copy(path, kept.join(name))?;
    Ok(())
}

/// Fsyncs the directory containing `path`, making the rename that just
/// created/replaced `path`'s directory entry durable.
fn fsync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()?;
    DIR_FSYNCS.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests in this module: the `dir_fsyncs` assertions
    /// would race if another test's `write_atomic` ran concurrently.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("augem-resil-fsio-{}-{name}", std::process::id()))
    }

    #[test]
    fn writes_and_replaces() {
        let _g = locked();
        let p = tmp_path("replace.json");
        write_atomic(&p, "{\"v\":1}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "{\"v\":1}\n");
        write_atomic(&p, "{\"v\":2}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "{\"v\":2}\n");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn leaves_no_temp_file_behind() {
        let _g = locked();
        let p = tmp_path("clean.json");
        write_atomic(&p, "x").unwrap();
        let dir = p.parent().unwrap();
        let stem = p.file_name().unwrap().to_string_lossy().to_string();
        let strays: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                let n = e.file_name().to_string_lossy().to_string();
                n.starts_with(&stem) && n != stem
            })
            .collect();
        assert!(strays.is_empty(), "stray temp files: {strays:?}");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn regular_write_fsyncs_the_parent_directory() {
        let _g = locked();
        let before = dir_fsyncs();
        let p = tmp_path("durable.json");
        write_atomic(&p, "d").unwrap();
        assert!(
            dir_fsyncs() > before,
            "a regular-file write_atomic must fsync the parent directory"
        );
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn dev_null_stays_a_device_and_skips_dir_fsync() {
        let _g = locked();
        let before = dir_fsyncs();
        write_atomic("/dev/null", "discard me").unwrap();
        let meta = std::fs::metadata("/dev/null").unwrap();
        assert!(!meta.is_file(), "/dev/null must remain a device node");
        assert_eq!(
            dir_fsyncs(),
            before,
            "device-node passthrough must not fsync /dev"
        );
    }

    #[test]
    fn failed_write_to_missing_dir_errors_cleanly() {
        let p = std::env::temp_dir()
            .join(format!("augem-resil-noexist-{}", std::process::id()))
            .join("f.json");
        assert!(write_atomic(&p, "x").is_err());
    }
}
