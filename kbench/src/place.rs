//! Which core each of the benchmark's busy threads runs on.
//!
//! On a small host the writer, the reader and the server's connection
//! thread are three busy threads on few cores. Left to the scheduler,
//! the writer's repair shares its core with the reader in some runs and
//! not in others, and the reader and the connection thread meet on one
//! core or on two; each run then measures a different placement. So a
//! serving phase places them itself: the writer alone on the first
//! allowed core, the reader and the server's threads together on the
//! second. Everything else (set-up, the sharded service's workers, the
//! decomposition) may run on every allowed core.
//!
//! Like `dkcore_runtime::pin_to_core`, this stays in safe code: it reads
//! the thread's id from `/proc/thread-self/stat` and applies the mask
//! with `taskset -pc`. It does not call `pin_to_core`, which takes one
//! core: the writer (the main thread) must get the whole allowed list
//! back after each phase. With fewer than two allowed cores, or
//! without `/proc` and `taskset`, nothing is placed.

use std::process::{Command, Stdio};
use std::sync::OnceLock;

/// Where a thread may run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The writer: the first allowed core.
    Writer,
    /// The reader and the wire server: the second allowed core.
    Reader,
    /// Every core the process was allowed at start.
    Any,
}

/// The process's allowed cores at start, as a `taskset` list, and its
/// first two cores; `None` with fewer than two.
fn cores() -> Option<&'static (String, usize, usize)> {
    static CORES: OnceLock<Option<(String, usize, usize)>> = OnceLock::new();
    CORES
        .get_or_init(|| {
            let status = std::fs::read_to_string("/proc/self/status").ok()?;
            let list = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
                .trim()
                .to_string();
            let mut ids = parse_list(&list)?.into_iter();
            let (first, second) = (ids.next()?, ids.next()?);
            Some((list, first, second))
        })
        .as_ref()
}

/// Parses a CPU list such as `0-3,6`, in order.
fn parse_list(list: &str) -> Option<Vec<usize>> {
    let mut ids = Vec::new();
    for part in list.split(',') {
        match part.split_once('-') {
            Some((a, b)) => ids.extend(a.trim().parse::<usize>().ok()?..=b.trim().parse().ok()?),
            None => ids.push(part.trim().parse().ok()?),
        }
    }
    Some(ids)
}

/// Restricts the calling thread (and the threads it spawns from now on)
/// to `role`'s cores. Best effort: returns whether the mask took effect.
pub fn pin(role: Role) -> bool {
    let Some((all, first, second)) = cores() else {
        return false;
    };
    let list = match role {
        Role::Writer => first.to_string(),
        Role::Reader => second.to_string(),
        Role::Any => all.clone(),
    };
    let Ok(stat) = std::fs::read_to_string("/proc/thread-self/stat") else {
        return false;
    };
    let Some(tid) = stat.split_whitespace().next() else {
        return false;
    };
    Command::new("taskset")
        .args(["-pc", &list, tid])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse_in_order() {
        assert_eq!(parse_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_list("3,0-1"), Some(vec![3, 0, 1]));
        assert_eq!(parse_list("2"), Some(vec![2]));
        assert_eq!(parse_list("x"), None);
    }
}
