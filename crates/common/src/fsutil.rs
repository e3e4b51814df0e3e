//! Small filesystem helpers shared by the CLI and the harness.

use crate::error::SimError;
use std::io::Write;
use std::path::Path;

/// Creates every missing parent directory of `path`, so a subsequent
/// `File::create(path)` cannot fail with "No such file or directory"
/// just because the caller pointed `--out` into a fresh directory.
///
/// A bare filename (no parent component) is a no-op.
///
/// # Errors
///
/// Returns [`SimError::Io`] when directory creation fails.
///
/// # Examples
///
/// ```
/// use ziv_common::fsutil::create_parent_dirs;
/// // Bare filenames have no parent to create.
/// create_parent_dirs("report.json").unwrap();
/// ```
pub fn create_parent_dirs(path: impl AsRef<Path>) -> Result<(), SimError> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() && !parent.exists() {
            std::fs::create_dir_all(parent)
                .map_err(|e| SimError::io("create parent directory", parent, e))?;
        }
    }
    Ok(())
}

/// Writes the file `path` in one buffered pass: creates its missing
/// parent directories, hands `write` a buffered writer over the new
/// file, and flushes it. `what` names the file in errors, so a failure
/// reads "create grid CSV", "write grid CSV" or "flush grid CSV" next
/// to the path.
///
/// # Errors
///
/// Returns [`SimError::Io`] naming `path` and the failing step.
///
/// # Examples
///
/// ```
/// use std::io::Write;
/// use ziv_common::fsutil::write_file;
/// let path = std::env::temp_dir().join("ziv-fsutil-doc").join("hello.txt");
/// write_file(&path, "greeting", |w| writeln!(w, "hello")).unwrap();
/// assert_eq!(std::fs::read_to_string(&path).unwrap(), "hello\n");
/// ```
pub fn write_file(
    path: impl AsRef<Path>,
    what: &str,
    write: impl FnOnce(&mut dyn Write) -> std::io::Result<()>,
) -> Result<(), SimError> {
    let path = path.as_ref();
    create_parent_dirs(path)?;
    let file =
        std::fs::File::create(path).map_err(|e| SimError::io(format!("create {what}"), path, e))?;
    let mut w = std::io::BufWriter::new(file);
    write(&mut w).map_err(|e| SimError::io(format!("write {what}"), path, e))?;
    w.flush()
        .map_err(|e| SimError::io(format!("flush {what}"), path, e))
}

/// Writes `contents` to `path` atomically: the bytes go to a sibling
/// temporary file, are fsynced, and the temp file is renamed over the
/// target. Readers either see the old file or the complete new one —
/// never a torn prefix — so a kill -9 mid-write cannot corrupt the
/// target. The containing directory is fsynced best-effort afterwards
/// so the rename itself is durable.
///
/// # Errors
///
/// Returns [`SimError::Io`] when any step (create, write, sync, rename)
/// fails; a failed rename leaves the old target untouched.
pub fn atomic_write(path: impl AsRef<Path>, contents: &[u8]) -> Result<(), SimError> {
    let path = path.as_ref();
    create_parent_dirs(path)?;
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)
            .map_err(|e| SimError::io("create temporary file", &tmp, e))?;
        f.write_all(contents)
            .map_err(|e| SimError::io("write temporary file", &tmp, e))?;
        f.sync_all()
            .map_err(|e| SimError::io("sync temporary file", &tmp, e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| SimError::io("rename into place", path, e))?;
    // Durability of the rename needs a directory fsync; failure here is
    // not fatal (the data is already safely in place on all sane
    // filesystems), so it is best-effort.
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_nested_parents() {
        let dir = std::env::temp_dir().join(format!("ziv_fsutil_{}", std::process::id()));
        let target = dir.join("a/b/c/out.csv");
        // Clean slate.
        let _ = std::fs::remove_dir_all(&dir);
        assert!(!target.parent().unwrap().exists());
        create_parent_dirs(&target).unwrap();
        assert!(target.parent().unwrap().exists());
        // Idempotent on an existing parent.
        create_parent_dirs(&target).unwrap();
        std::fs::write(&target, "x").unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bare_filename_is_noop() {
        create_parent_dirs("just_a_name.json").unwrap();
    }

    #[test]
    fn write_file_creates_parents_and_names_the_failing_step() {
        let dir = std::env::temp_dir().join(format!("ziv_fsutil_wf_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let target = dir.join("a/b/grid.csv");
        write_file(&target, "grid CSV", |w| w.write_all(b"x,y\n")).unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"x,y\n");
        let err = write_file(&target, "grid CSV", |_| Err(std::io::Error::other("boom")));
        let msg = err.unwrap_err().to_string();
        assert!(msg.contains("write grid CSV"), "{msg}");
        assert!(msg.contains("grid.csv"), "{msg}");
        // A file where a parent directory should be fails at the
        // directory step.
        let blocked = target.join("under-a-file.csv");
        assert!(write_file(&blocked, "grid CSV", |_| Ok(())).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("ziv_fsutil_aw_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let target = dir.join("ledger.jsonl");
        atomic_write(&target, b"first\n").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"first\n");
        atomic_write(&target, b"second\n").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"second\n");
        assert!(
            !target.with_extension("tmp").exists(),
            "temp file must not survive a successful write"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
