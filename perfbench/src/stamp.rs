//! The machine-and-config stamp every result carries, so a number can
//! be read against the cores, threads and source it came from.

use std::path::Path;
use std::process::{Command, Stdio};

use govscan_crypto::{hex, Digest, Sha256};
use govscan_serve::json::Json;

/// Every thread-count variable the govscan layers resolve through
/// `govscan_exec::resolve_threads`, shared fallback first.
pub const THREAD_VARS: [&str; 7] = [
    "GOVSCAN_THREADS",
    "GOVSCAN_WORLDGEN_THREADS",
    "GOVSCAN_SCAN_THREADS",
    "GOVSCAN_ANALYSIS_THREADS",
    "GOVSCAN_STORE_THREADS",
    "GOVSCAN_PIPELINE_THREADS",
    "GOVSCAN_MONITOR_THREADS",
];

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The thread count each layer resolves in this process, keyed by its
/// variable.
pub fn resolved_threads() -> Json {
    Json::Object(
        THREAD_VARS
            .iter()
            .map(|var| {
                let n = govscan_exec::resolve_threads(var);
                (var.to_string(), Json::from(n))
            })
            .collect(),
    )
}

/// `(steal, total)` CPU jiffies so far, from the first line of
/// `/proc/stat`. Steal is time the hypervisor ran someone else while
/// this machine had work: on a shared virtual machine it is the main
/// source of run-to-run noise, so every result carries its share.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of CPU time stolen between two [`cpu_jiffies`] readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// `git rev-parse HEAD` in `root`, when `root` is a git checkout.
pub fn git_rev(root: &Path) -> Option<String> {
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_owned();
    (out.status.success() && !rev.is_empty()).then_some(rev)
}

/// SHA-256 over the path and bytes of every source file of the
/// workspace and the benchmark, in path order. It names the code under
/// test where no git metadata exists (an exported source tree).
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut h = Sha256::new();
    for path in files {
        if let Ok(bytes) = std::fs::read(&path) {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            h.update(rel.to_string_lossy().as_bytes());
            h.update(&(bytes.len() as u64).to_le_bytes());
            h.update(&bytes);
        }
    }
    hex::encode(&h.finalize())
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(meta) = std::fs::symlink_metadata(path) else {
        return;
    };
    if meta.is_file() {
        let keep = path
            .extension()
            .and_then(|e| e.to_str())
            .is_some_and(|e| matches!(e, "rs" | "toml" | "lock"));
        if keep {
            out.push(path.to_path_buf());
        }
    } else if meta.is_dir() && path.file_name().is_some_and(|n| n != "target") {
        if let Ok(entries) = std::fs::read_dir(path) {
            for e in entries.flatten() {
                collect(&e.path(), out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_digest_is_stable_and_content_sensitive() {
        let dir = std::env::temp_dir().join(format!("perfbench-stamp-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("crates/a/src")).unwrap();
        std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
        std::fs::write(dir.join("crates/a/src/lib.rs"), "fn a() {}\n").unwrap();
        std::fs::create_dir_all(dir.join("crates/a/target")).unwrap();
        std::fs::write(dir.join("crates/a/target/junk.rs"), "ignored").unwrap();
        let first = source_digest(&dir);
        assert_eq!(first, source_digest(&dir));
        std::fs::write(dir.join("crates/a/target/junk.rs"), "still ignored").unwrap();
        assert_eq!(first, source_digest(&dir), "build output is not source");
        std::fs::write(dir.join("crates/a/src/lib.rs"), "fn b() {}\n").unwrap();
        assert_ne!(first, source_digest(&dir));
        std::fs::remove_dir_all(&dir).ok();
    }
}
