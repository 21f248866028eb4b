//! Durable atomic file replacement with a one-deep backup, shared by
//! [`Checkpoint`](crate::Checkpoint) and the job server's journal.
//!
//! [`write`] puts the contents in a temporary sibling (`<file>.tmp`),
//! fsyncs it, hard-links the previous file to `<file>.bak` and renames
//! the temporary over the target, so the rename never publishes bytes
//! that still sit in the page cache, and even external corruption of the
//! primary leaves a fallback. [`read`] takes that fallback when the
//! primary is missing, torn or corrupt.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// `path` with `suffix` appended to its final component.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_owned();
    s.push(suffix);
    PathBuf::from(s)
}

/// The `.bak` sibling where [`write`] keeps the previous version of
/// `path`.
pub(crate) fn backup_path(path: &Path) -> PathBuf {
    sibling(path, ".bak")
}

/// Durably and atomically replaces `path` with `contents`, keeping the
/// previous file as its `.bak` sibling. Returns how long the fsync took.
///
/// # Errors
///
/// Fails if creating, writing, syncing or renaming the temporary fails.
/// A failure to keep the `.bak` link is not an error: the backup is
/// best-effort (some filesystems lack hard links).
pub fn write(path: &Path, contents: &[u8]) -> std::io::Result<Duration> {
    let tmp = sibling(path, ".tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(contents)?;
    let fsync_started = Instant::now();
    file.sync_all()?;
    let fsync = fsync_started.elapsed();
    drop(file);
    if path.exists() {
        let bak = backup_path(path);
        std::fs::remove_file(&bak).ok();
        std::fs::hard_link(path, &bak).ok();
    }
    std::fs::rename(&tmp, path)?;
    Ok(fsync)
}

/// Loads `path` with `load`, falling back to the `.bak` sibling kept by
/// [`write`] when the primary fails to load. Returns the value and, when
/// it came from the backup, the primary's error.
///
/// # Errors
///
/// Returns the primary's error when the backup fails to load too.
pub fn read<T, E>(path: &Path, load: impl Fn(&Path) -> Result<T, E>) -> Result<(T, Option<E>), E> {
    match load(path) {
        Ok(value) => Ok((value, None)),
        Err(primary) => match load(&backup_path(path)) {
            Ok(value) => Ok((value, Some(primary))),
            Err(_) => Err(primary),
        },
    }
}
