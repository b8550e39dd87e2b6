//! In-memory span recording for the traced run.
//!
//! A span marks one call into a layer: its name, start and end (host
//! nanoseconds since the recorder's epoch), the span that caused it and
//! the cell it belongs to. Spans are recorded by the benchmark around its
//! own calls into the program, kept in memory, and written out once at
//! the end of the run.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u64 = u64::MAX;

/// Cell id of a span that belongs to no single cell.
pub const NO_CELL: u32 = u32::MAX;

/// One recorded layer call.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub cell: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span buffer. Ids are unique across buffers that share
/// an epoch because each buffer draws from its own id range
/// (`lane << 32`).
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, lane: u32) -> Self {
        Recorder {
            epoch,
            next_id: u64::from(lane) << 32,
            spans: Vec::new(),
        }
    }

    /// Host nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserves an id for a span that will be closed with [`Self::close`].
    pub fn open(&mut self) -> (u64, u64) {
        let id = self.next_id;
        self.next_id += 1;
        (id, self.now())
    }

    /// Records a span opened with [`Self::open`], ending now.
    pub fn close(&mut self, opened: (u64, u64), parent: u64, cell: u32, name: &'static str) {
        let end_ns = self.now();
        self.spans.push(Span {
            id: opened.0,
            parent,
            cell,
            name,
            start_ns: opened.1,
            end_ns,
        });
    }

    /// Times `f` as one span.
    pub fn span<T>(
        &mut self,
        parent: u64,
        cell: u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let opened = self.open();
        let out = f();
        self.close(opened, parent, cell, name);
        out
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its children cover (children may run in parallel, so
/// the covered part is the union of their intervals).
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| union_within(kids, s.start_ns, s.end_ns));
        *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            cell: NO_CELL,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, ROOT, "sweep", 0, 100),
            // Two parallel workers overlapping on [20, 30].
            span(1, 0, "kernel", 10, 30),
            span(2, 0, "kernel", 20, 50),
            span(3, 0, "sweep.emit", 90, 100),
        ];
        let st = self_time_by_name(&spans);
        assert_eq!(st["sweep"], 100 - 40 - 10);
        assert_eq!(st["kernel"], 20 + 30);
        assert_eq!(st["sweep.emit"], 10);
    }
}
