//! The workspace's artifact boundary: crash-safe writes and the one JSON
//! codec.
//!
//! Every durable artifact this repository produces — search-state
//! checkpoints, `BENCH_approx.json`, `results/lint_findings.json`, JSON
//! reports written by the CLI — must survive the writing process dying at
//! any instruction. A plain `File::create` + `write` can be interrupted
//! half-way and leave a truncated file that *looks* like a finished
//! artifact; a resume or a CI diff would then silently consume garbage.
//!
//! [`atomic_write`] provides the classic fix: write the full content to a
//! temporary file in the same directory, `fsync` it, then `rename` it over
//! the destination (and `fsync` the directory so the rename itself is
//! durable). POSIX `rename(2)` is atomic within a filesystem, so readers
//! observe either the complete old file or the complete new file — never a
//! prefix.
//!
//! The workspace's `clippy.toml` files ban the direct file-creation APIs
//! (`File::create`, `fs::write`, `OpenOptions`) through clippy's
//! `disallowed-methods` / `disallowed-types`; [`atomic_write`] is the one
//! sanctioned site, so a durability audit has exactly one write path to
//! review.
//!
//! [`json`] is the other half of that boundary: the one JSON string
//! escape, compact writer and parser behind the reports, the
//! `ocdd-snapshot/1` dumps, the `ocdd-lint` documents, and the benchmark
//! environment block.

#![deny(missing_docs)]

pub mod json;

use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// The temporary-name suffix used while the content is being staged.
/// Exposed so cleanup logic (and tests) can recognise stragglers left by a
/// crash *between* `write` and `rename` — the only window in which a
/// temporary file can outlive this function.
pub const TMP_SUFFIX: &str = ".atomic-tmp";

/// Build the staging path for `path`: same directory, file name extended
/// with the process id and [`TMP_SUFFIX`] so concurrent writers of the
/// same artifact never collide on the staging file.
fn staging_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(format!(".{}{}", std::process::id(), TMP_SUFFIX));
    path.with_file_name(name)
}

/// Atomically replace `path` with `bytes`: stage into a same-directory
/// temporary file, flush it to disk, rename it over `path`, and flush the
/// directory entry. On any error the destination is left untouched (a
/// stale staging file may remain and is ignored by readers).
///
/// Parent directories are created if missing, so callers can write
/// `results/foo.json` without a separate `mkdir -p` step.
// The one sanctioned direct file creation of the workspace: the staging
// file is private until the rename publishes it whole.
#[allow(clippy::disallowed_methods)]
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let tmp = staging_path(path);
    let result = (|| {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        // Durability point 1: the staged content is on disk before the
        // rename can possibly expose it under the destination name.
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        // Durability point 2: the rename itself. Directories cannot be
        // fsync'd on every platform; treat failure to open/sync the
        // directory as best-effort (the rename already happened).
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Ok(dir) = File::open(parent) {
                    let _ = dir.sync_all();
                }
            }
        }
        Ok(())
    })();
    if result.is_err() {
        // Never leave the staging file behind on a failed write.
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// [`atomic_write`] for string content.
pub fn atomic_write_str(path: &Path, content: &str) -> io::Result<()> {
    atomic_write(path, content.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ocdd-iosafe-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_fresh_file_and_leaves_no_staging() {
        let dir = tmp_dir("fresh");
        let path = dir.join("artifact.json");
        atomic_write_str(&path, "{\"ok\":true}").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"ok\":true}");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(TMP_SUFFIX))
            .collect();
        assert!(leftovers.is_empty(), "staging file must not survive");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replaces_existing_content_atomically() {
        let dir = tmp_dir("replace");
        let path = dir.join("artifact.json");
        atomic_write_str(&path, "old").unwrap();
        atomic_write_str(&path, "new content, longer than before").unwrap();
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "new content, longer than before"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn creates_missing_parent_directories() {
        let dir = tmp_dir("parents");
        let path = dir.join("a/b/c.txt");
        atomic_write(&path, b"deep").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"deep");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn staging_path_is_sibling_of_target() {
        let p = Path::new("/some/dir/file.json");
        let s = staging_path(p);
        assert_eq!(s.parent(), p.parent());
        assert!(s
            .file_name()
            .unwrap()
            .to_string_lossy()
            .ends_with(TMP_SUFFIX));
        assert!(s
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("file.json."));
    }
}
