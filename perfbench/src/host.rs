//! Host facts for the run record: cores, kernel ISA, git revision and
//! the process's peak resident memory.

use gc_microkernel::arch;
use std::path::Path;

/// What every run records about the machine and the code it measured.
#[derive(Debug, Clone)]
pub struct HostInfo {
    pub cores: usize,
    pub detected_isa: &'static str,
    pub active_isa: &'static str,
    pub vnni: bool,
    pub git_rev: String,
}

impl HostInfo {
    pub fn current() -> HostInfo {
        let active = arch::active_isa();
        HostInfo {
            cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            detected_isa: arch::detected_isa().name(),
            active_isa: active.name(),
            vnni: arch::vnni_active(active),
            git_rev: git_revision(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// The commit `HEAD` names, read from the git directory without running
/// git (the benchmark may run in an exported tree with no `.git`).
fn git_revision(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(rev.trim().to_string());
    }
    // Packed refs: "<sha> <refname>" lines.
    std::fs::read_to_string(git_dir.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| {
            let (sha, name) = l.split_once(' ')?;
            (name == reference).then(|| sha.to_string())
        })
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_git_dir_has_no_revision() {
        assert_eq!(git_revision(Path::new("no/such/git/dir")), None);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        }
    }
}
