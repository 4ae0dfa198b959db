//! In-memory spans for the traced run.
//!
//! A span is recorded by the benchmark around a call into one layer:
//! name, start, end, parent span and the id of the batch, request or
//! repetition it belongs to. Spans stay in memory during the run; the
//! per-layer self times are computed from them at the end, and they are
//! written out as CSV when the run ends.
//!
//! A reader issues up to a few million requests per run, so per-request
//! spans are recorded as *leaves* ([`Trace::record_leaf`]): the first
//! [`LEAF_KEEP`] of each name are kept whole, and every one counts in
//! the self times.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Leaf spans kept whole per name; later ones only count in the self
/// times.
pub const LEAF_KEEP: usize = 50_000;

/// One recorded span. Times are nanoseconds since the run's base
/// instant; `parent` indexes the same [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `"apply_batch"`.
    pub name: &'static str,
    /// Batch index, request index or repetition the span belongs to.
    pub key: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the base instant.
    pub start_ns: u64,
    /// End, in ns since the base instant.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of all spans of one name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SelfTime {
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of their durations minus the parts their children cover.
    pub self_ns: u64,
}

impl SelfTime {
    /// Mean self time per span, in microseconds (0 with no spans).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// A list of spans sharing one base instant.
#[derive(Debug)]
pub struct Trace {
    base: Instant,
    spans: Vec<Span>,
    /// Leaf spans recorded per name, kept or not.
    leaves: BTreeMap<&'static str, usize>,
    /// Self time of the leaf spans that were not kept.
    unkept: BTreeMap<&'static str, SelfTime>,
}

impl Trace {
    /// An empty trace timed from `base`.
    pub fn new(base: Instant) -> Self {
        Trace {
            base,
            spans: Vec::new(),
            leaves: BTreeMap::new(),
            unkept: BTreeMap::new(),
        }
    }

    /// The instant span times count from.
    pub fn base(&self) -> Instant {
        self.base
    }

    /// Nanoseconds from the base instant to `t` (0 if `t` is earlier).
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Records a span between two instants; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        key: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.record_ns(name, key, parent, start_ns, end_ns)
    }

    /// Records a span from times already in ns since the base instant.
    pub fn record_ns(
        &mut self,
        name: &'static str,
        key: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            key,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// Records a span that has no children: kept whole for the first
    /// [`LEAF_KEEP`] of its name, afterwards only added to the self
    /// times.
    pub fn record_leaf(&mut self, name: &'static str, key: u64, start: Instant, end: Instant) {
        let n = self.leaves.entry(name).or_default();
        *n += 1;
        if *n <= LEAF_KEEP {
            self.record(name, key, None, start, end);
        } else {
            let u = self.unkept.entry(name).or_default();
            u.count += 1;
            u.self_ns += end.saturating_duration_since(start).as_nanos() as u64;
        }
    }

    /// Moves every span of `other` (same base instant) into this trace,
    /// keeping parent links.
    pub fn absorb(&mut self, other: Trace) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        for (name, n) in other.leaves {
            *self.leaves.entry(name).or_default() += n;
        }
        for (name, u) in other.unkept {
            let e = self.unkept.entry(name).or_default();
            e.count += u.count;
            e.self_ns += u.self_ns;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the part of
    /// its interval that its children cover (children of one parent may
    /// overlap each other; covered time is counted once).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = self.unkept.clone();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.self_ns += s.dur_ns() - covered.min(s.dur_ns());
        }
        out
    }

    /// Writes the kept spans as CSV (`id,name,key,parent,start_ns,end_ns`);
    /// a header comment states how many leaf spans were not kept.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let unkept: u64 = self.unkept.values().map(|u| u.count).sum();
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "# {} spans; {unkept} more leaf spans (beyond the first {LEAF_KEEP} of a name) count only in self times",
            self.spans.len()
        )?;
        writeln!(w, "id,name,key,parent,start_ns,end_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                w,
                "{id},{},{},{parent},{},{}",
                s.name, s.key, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let mut t = Trace::new(Instant::now());
        let root = t.record_ns("batch", 0, None, 0, 100);
        let apply = t.record_ns("apply_batch", 0, Some(root), 10, 60);
        t.record_ns("repair", 0, Some(apply), 10, 40);
        t.record_ns("publish", 0, Some(apply), 45, 60);
        // Overlapping children of one parent are not double counted, and
        // a child running past its parent only covers the parent's part.
        let other = t.record_ns("batch", 1, None, 0, 50);
        t.record_ns("apply_batch", 1, Some(other), 0, 30);
        t.record_ns("apply_batch", 1, Some(other), 20, 80);
        let st = t.self_times();
        assert_eq!(
            st["batch"],
            SelfTime {
                count: 2,
                self_ns: 50
            }
        );
        assert_eq!(st["apply_batch"].count, 3);
        assert_eq!(st["apply_batch"].self_ns, 5 + 30 + 60);
        assert_eq!(st["repair"].self_ns, 30);
        assert_eq!(st["publish"].mean_us(), 0.015);
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let base = Instant::now();
        let mut a = Trace::new(base);
        a.record_ns("x", 0, None, 0, 1);
        let mut b = Trace::new(base);
        let p = b.record_ns("y", 0, None, 0, 10);
        b.record_ns("z", 0, Some(p), 2, 3);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.self_times()["y"].self_ns, 9);
    }

    #[test]
    fn leaves_beyond_the_cap_still_count() {
        let base = Instant::now();
        let mut t = Trace::new(base);
        let d = std::time::Duration::from_nanos(1_000);
        for i in 0..LEAF_KEEP as u64 + 5 {
            t.record_leaf("read", i, base, base + d);
        }
        assert_eq!(t.spans().len(), LEAF_KEEP);
        let st = t.self_times()["read"];
        assert_eq!(st.count, LEAF_KEEP as u64 + 5);
        assert_eq!(st.self_ns, 1_000 * (LEAF_KEEP as u64 + 5));
    }
}
