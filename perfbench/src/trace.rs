//! In-memory spans around the benchmark's own calls into each layer, and
//! the self-time tables built from them.
//!
//! A span is `(name, parent, start, end)`; spans of one request share the
//! request's root span. A layer's self time is its span's duration minus
//! the time its child spans cover. Spans stay in memory while the workload
//! runs and are written to a TSV file when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// No parent: a root span.
const ROOT: u32 = u32::MAX;

/// Records nested spans. Not thread-safe by design: every traced replay
/// runs on the benchmark's one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[idx as usize].end_ns = end_ns;
        out
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: `(count, total ns, self ns)`.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != ROOT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            let total = (span.end_ns - span.start_ns) as f64;
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total - child as f64;
        }
        out
    }

    /// Writes every span as `index parent name start_ns end_ns`.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A self-time decomposition of one end-to-end number.
pub struct Table {
    title: String,
    unit: &'static str,
    end_to_end: f64,
    rows: Vec<(String, f64, &'static str)>,
}

/// The share of the end-to-end number the layers may leave unexplained
/// (or a self time may dip below zero by) before the decomposition counts
/// as not closing. The layers are timed in-process while the end-to-end
/// number is served, so caches and scheduling differ between the two.
pub const TABLE_TOLERANCE: f64 = 0.25;

const UNATTRIBUTED: &str = "unattributed";

impl Table {
    pub fn new(title: impl Into<String>, unit: &'static str, end_to_end: f64) -> Self {
        Table {
            title: title.into(),
            unit,
            end_to_end,
            rows: Vec::new(),
        }
    }

    /// Adds one layer's self time; `how` says whether it was measured by
    /// a span, modeled from a separately measured cost, or is the
    /// residual.
    pub fn row(&mut self, layer: impl Into<String>, self_time: f64, how: &'static str) {
        self.rows.push((layer.into(), self_time, how));
    }

    /// Adds `end_to_end − Σ rows` as time no layer accounts for.
    pub fn unattributed(&mut self) {
        let sum: f64 = self.rows.iter().map(|r| r.1).sum();
        self.rows
            .push((UNATTRIBUTED.to_string(), self.end_to_end - sum, "residual"));
    }

    /// Whether the layers sum to the end-to-end number within
    /// [`TABLE_TOLERANCE`] — the unattributed row is at most that share —
    /// and no self time is negative beyond it.
    pub fn closes(&self) -> bool {
        let tol = TABLE_TOLERANCE * self.end_to_end.abs();
        self.rows
            .iter()
            .all(|r| r.1 >= -tol && (r.0 != UNATTRIBUTED || r.1.abs() <= tol))
    }

    /// The layer with the largest self time.
    pub fn largest(&self) -> &str {
        self.rows
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or("-", |r| r.0.as_str())
    }

    /// Prints the table, its sum check, and its largest layer.
    pub fn print(&self) {
        println!(
            "table: {} = {:.3} {}",
            self.title, self.end_to_end, self.unit
        );
        for (layer, value, how) in &self.rows {
            let share = if self.end_to_end == 0.0 {
                0.0
            } else {
                100.0 * value / self.end_to_end
            };
            println!(
                "  {layer:<28} {value:>12.3} {:<3} {share:>6.1}%  ({how})",
                self.unit
            );
        }
        let sum: f64 = self.rows.iter().map(|r| r.1).sum();
        println!(
            "  sum {sum:.3} {} vs end-to-end {:.3}; closes within {:.0}%: {}; largest layer: {}",
            self.unit,
            self.end_to_end,
            100.0 * TABLE_TOLERANCE,
            if self.closes() { "yes" } else { "NO" },
            self.largest()
        );
    }
}
