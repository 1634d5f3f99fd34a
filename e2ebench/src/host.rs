//! Provenance: what ran, on which host. Every result carries it, and
//! results from different hosts are never compared.

use std::path::Path;

/// The host and source a result was measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// `git` commit of the checkout, or `none` outside a repository.
    pub commit: String,
    /// FNV-1a digest of the sources the benchmark builds from.
    pub source_digest: String,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Logical CPUs available to the process.
    pub nproc: usize,
}

impl Provenance {
    /// Collects provenance for the checkout rooted at `root`.
    pub fn collect(root: &Path) -> Provenance {
        Provenance {
            commit: commit(root),
            source_digest: format!("{:016x}", source_digest(root)),
            cpu_model: cpu_model(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Reads the commit from `.git` without running `git`; a checkout that is
/// not a repository reports `none` (the source digest still identifies it).
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head.to_string(),
    }
}

/// FNV-1a over the relative path and bytes of every source file the
/// benchmark binary is built from, in sorted order.
pub fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "e2ebench/src"] {
        collect_sources(&root.join(dir), &mut files);
    }
    for f in ["Cargo.toml", "Cargo.lock", "e2ebench/Cargo.toml"] {
        files.push(root.join(f));
    }
    files.sort();
    let mut d = crate::Digest::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            let rel = f.strip_prefix(root).unwrap_or(&f);
            d.eat_bytes(rel.to_string_lossy().as_bytes());
            d.eat_bytes(&bytes);
        }
    }
    d.value()
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                collect_sources(&p, out);
            }
        } else if p
            .extension()
            .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
        {
            out.push(p);
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
