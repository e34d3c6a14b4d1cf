//! Checkpoint helpers shared by the integration tests.

use std::path::{Path, PathBuf};

/// A fresh path under the system temp directory, unique per process and
/// call.
pub fn temp_path(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("swifi-{tag}-{}-{n}.jsonl", std::process::id()))
}

/// Keep the checkpoint header plus the first `keep` records, then append a
/// torn partial line — the on-disk state a `kill -9` mid-append leaves.
pub fn truncate_checkpoint(path: &Path, keep: usize) {
    let text = std::fs::read_to_string(path).unwrap();
    let mut kept: Vec<&str> = text.lines().take(keep + 1).collect();
    kept.push("{\"phase\":\"assign\",\"ind");
    std::fs::write(path, kept.join("\n")).unwrap();
}
