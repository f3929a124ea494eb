//! Spans recorded from the benchmark's own code around calls into each
//! layer: name, start, end, parent and request id, plus how many
//! operations the span covers (tiny calls are timed in batches so the
//! clock reads do not swamp them). Spans stay in memory and are written
//! out once, at the end of the run.

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
    pub count: u64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Records a finished span and returns its index (a parent handle).
    pub fn span(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        count: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            request,
            parent,
            start,
            end,
            count,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; [`close`](Self::close) ends it.
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.span(name, request, parent, now, now, 1)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end = Instant::now();
    }

    /// Times `f` as one span covering `count` operations.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.span(name, request, parent, start, Instant::now(), count);
        out
    }

    /// Self time of every span in ns: its duration minus the part of
    /// its interval its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut covered: Vec<(Instant, Instant)> = children[i]
                    .iter()
                    .map(|&c| {
                        let c = &self.spans[c];
                        (c.start.max(s.start), c.end.min(s.end))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                covered.sort();
                let mut union_ns = 0u128;
                let mut cursor: Option<(Instant, Instant)> = None;
                for (a, b) in covered {
                    cursor = match cursor {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            union_ns += (cb - ca).as_nanos();
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cursor {
                    union_ns += (cb - ca).as_nanos();
                }
                ((s.end - s.start).as_nanos().saturating_sub(union_ns)) as u64
            })
            .collect()
    }

    /// Per span name, the self time per operation of every span with
    /// that name, in ns.
    pub fn per_op_self_ns(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            by_name
                .entry(s.name)
                .or_default()
                .push(own as f64 / s.count.max(1) as f64);
        }
        by_name
    }

    /// Writes every span as one JSON line (times in ns since the
    /// tracer was made).
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let own = self.self_ns();
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"count\": {}, \"self_ns\": {own}}}",
                s.name,
                s.request,
                s.start.saturating_duration_since(self.epoch).as_nanos(),
                s.end.saturating_duration_since(self.epoch).as_nanos(),
                s.count,
            )?;
        }
        out.flush()
    }
}
