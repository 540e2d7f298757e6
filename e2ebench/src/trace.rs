//! The `--trace 1` instruments: an in-memory span recorder, a counting
//! filesystem for the store layer, and the per-layer metrics derived
//! from both.
//!
//! Spans are recorded in the benchmark's own code, around its calls into
//! the layer crates. Layer costs inside an op come from *replays*: after
//! a traced op, the benchmark repeats layer calls the op made, with the
//! same inputs, and times them. A replay's busy time is reported as a
//! share of the op's wall time. A replay's own copy of the data competes
//! with the op's for the caches, and the op may fan work out over the
//! pool that the replay runs serially, so a share can exceed 1.

use crate::stats::median;
use hdidx_store::{OsFs, Vfs, VfsFile};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Name of the span around an op's real call(s); every share divides by it.
pub const OP: &str = "op";

/// One recorded span. `op` is `None` for set-up work.
#[derive(Debug)]
struct Span {
    name: &'static str,
    op: Option<u64>,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
}

#[derive(Debug, Default)]
struct Log {
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Vec<(&'static str, Option<u64>, f64)>,
}

/// Spans and counts of one run, kept in memory until the run ends.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    log: RefCell<Log>,
}

impl Recorder {
    /// A recorder; a disabled one records nothing.
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            log: RefCell::new(Log::default()),
        }
    }

    /// Whether this run is traced.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Instruments for set-up work.
    pub fn setup(&self) -> Scope<'_> {
        Scope {
            rec: self.on.then_some(self),
            op: None,
        }
    }

    /// Instruments for op `id`; inert unless the run is traced and
    /// `traced` is set.
    pub fn op(&self, id: u64, traced: bool) -> Scope<'_> {
        Scope {
            rec: (self.on && traced).then_some(self),
            op: Some(id),
        }
    }

    /// Writes every span as one JSON line, tagged with `workload`.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing `path`.
    pub fn write_spans(&self, path: &Path, workload: &str) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.log.borrow().spans.iter().enumerate() {
            let op = s.op.map_or("null".to_string(), |o| o.to_string());
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{i},\"name\":\"{}\",\"op\":{op},\
                 \"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name,
                s.start_s * 1e6,
                s.end_s * 1e6
            )?;
        }
        out.flush()
    }
}

/// Where a span or count is recorded: set-up or one op, on or off.
#[derive(Debug, Clone, Copy)]
pub struct Scope<'a> {
    rec: Option<&'a Recorder>,
    op: Option<u64>,
}

impl Scope<'_> {
    /// Whether anything is recorded here (replays run only when it is).
    pub fn on(&self) -> bool {
        self.rec.is_some()
    }

    /// Runs `f`, recording it as a span named `name` when on.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(rec) = self.rec else {
            return f();
        };
        let idx = {
            let mut log = rec.log.borrow_mut();
            let parent = log.open.last().copied();
            log.spans.push(Span {
                name,
                op: self.op,
                start_s: rec.epoch.elapsed().as_secs_f64(),
                end_s: f64::NAN,
                parent,
            });
            let idx = log.spans.len() - 1;
            log.open.push(idx);
            idx
        };
        let out = f();
        let mut log = rec.log.borrow_mut();
        log.open.pop();
        log.spans[idx].end_s = rec.epoch.elapsed().as_secs_f64();
        out
    }

    /// Records `value` under `name` when on.
    pub fn count(&self, name: &'static str, value: f64) {
        if let Some(rec) = self.rec {
            rec.log.borrow_mut().counts.push((name, self.op, value));
        }
    }
}

/// How a per-layer metric is derived from the trace.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Median duration (ms) of a set-up span.
    SetupMs(&'static str),
    /// Per traced op: a span's total duration over the op span's.
    Share(&'static str),
    /// Median of a count's recorded values.
    Value(&'static str),
    /// Per traced op: one count's total over another's.
    Ratio(&'static str, &'static str),
    /// Per traced op: a count's total over a span's total seconds.
    Rate(&'static str, &'static str),
    /// Per op: fastest traced wall over fastest untraced wall, minus one
    /// (median over ops).
    Overhead,
}

/// Every per-layer metric: name, unit, derivation. The names and units
/// are the `per_layer` list of `BENCHMARK.json`.
#[rustfmt::skip]
const PER_LAYER: &[(&str, &str, Kind)] = &[
    ("datagen.generate_ms", "ms", Kind::SetupMs("datagen.generate")),
    ("datagen.workload_ms", "ms", Kind::SetupMs("datagen.workload")),
    ("diskio.build_ms", "ms", Kind::SetupMs("diskio.build")),
    ("diskio.build_seeks", "count", Kind::Value("diskio.build_seeks")),
    ("diskio.build_transfers", "count", Kind::Value("diskio.build_transfers")),
    ("diskio.charged_io_s", "sim_s", Kind::Value("diskio.charged_io_s")),
    ("model.upper_share", "ratio", Kind::Share("model.upper")),
    ("vamsplit.bulk_load_upper_share", "ratio", Kind::Share("vamsplit.bulk_load_upper")),
    ("model.pages", "count", Kind::Value("model.pages")),
    ("model.seeks", "count", Kind::Value("model.seeks")),
    ("model.transfers", "count", Kind::Value("model.transfers")),
    ("model.rel_err", "ratio", Kind::Value("model.rel_err")),
    ("core.soup_flatten_share", "ratio", Kind::Share("core.soup_flatten")),
    ("core.soup_count_share", "ratio", Kind::Share("core.soup_count")),
    ("core.soup_tests", "count", Kind::Value("core.soup_tests")),
    ("core.soup_hit_ratio", "ratio", Kind::Ratio("core.soup_hits", "core.soup_tests")),
    ("core.soup_bytes_per_s", "B/s", Kind::Rate("core.soup_bytes", "core.soup_count")),
    ("core.knn_scan_share", "ratio", Kind::Share("core.knn_scan")),
    ("core.knn_scans", "count", Kind::Value("core.knn_scans")),
    ("core.knn_bytes_per_s", "B/s", Kind::Rate("core.knn_bytes", "core.knn_scan")),
    ("serve.loadgen_share", "ratio", Kind::Share("serve.loadgen")),
    ("serve.batches", "count", Kind::Value("serve.batches")),
    ("serve.executed", "count", Kind::Value("serve.executed")),
    ("serve.shed", "count", Kind::Value("serve.shed")),
    ("serve.failed", "count", Kind::Value("serve.failed")),
    ("serve.io_seeks", "count", Kind::Value("serve.io_seeks")),
    ("serve.sim_p99_s", "sim_s", Kind::Value("serve.sim_p99_s")),
    ("diskio.build_share", "ratio", Kind::Share("diskio.build")),
    ("store.publish_share", "ratio", Kind::Share("store.publish")),
    ("store.scrub_share", "ratio", Kind::Share("store.scrub")),
    ("store.load_share", "ratio", Kind::Share("store.load")),
    ("store.fsyncs", "count", Kind::Value("store.fsyncs")),
    ("store.bytes_written", "B", Kind::Value("store.bytes_written")),
    ("store.bytes_read", "B", Kind::Value("store.bytes_read")),
    ("store.write_amp", "ratio", Kind::Ratio("store.bytes_written", "store.payload_bytes")),
    ("trace.overhead_frac", "ratio", Kind::Overhead),
];

/// A derived metric: name, unit, value and how many samples it summarizes.
pub type Metric = (&'static str, &'static str, f64, usize);

/// Derives every per-layer metric from the recorder. `untraced_s` and
/// `traced_s` hold, per op id, the fastest untraced and traced wall time.
pub fn per_layer(rec: &Recorder, untraced_s: &[f64], traced_s: &[f64]) -> Vec<Metric> {
    let log = rec.log.borrow();
    let mut span_s: HashMap<(&str, Option<u64>), f64> = HashMap::new();
    let mut setup_ms: HashMap<&str, Vec<f64>> = HashMap::new();
    for s in &log.spans {
        *span_s.entry((s.name, s.op)).or_default() += s.end_s - s.start_s;
        if s.op.is_none() {
            setup_ms
                .entry(s.name)
                .or_default()
                .push((s.end_s - s.start_s) * 1e3);
        }
    }
    let mut values: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut count: HashMap<(&str, Option<u64>), f64> = HashMap::new();
    for &(name, op, v) in &log.counts {
        values.entry(name).or_default().push(v);
        *count.entry((name, op)).or_default() += v;
    }
    let median_of = |all: &HashMap<&str, Vec<f64>>, name| {
        let v = all.get(name).map_or(&[][..], Vec::as_slice);
        (median(v).unwrap_or(0.0), v.len())
    };
    let ops: BTreeSet<u64> = log
        .spans
        .iter()
        .filter(|s| s.name == OP)
        .filter_map(|s| s.op)
        .collect();
    let span = |name, op| span_s.get(&(name, Some(op))).copied().unwrap_or(0.0);
    let cnt = |name, op| count.get(&(name, Some(op))).copied().unwrap_or(0.0);
    let per_op = |f: &dyn Fn(u64) -> f64| {
        let vals: Vec<f64> = ops.iter().map(|&op| f(op)).collect();
        (median(&vals).unwrap_or(0.0), vals.len())
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let overhead: Vec<f64> = untraced_s
        .iter()
        .zip(traced_s)
        .filter(|(u, t)| u.is_finite() && t.is_finite() && **u > 0.0)
        .map(|(u, t)| t / u - 1.0)
        .collect();
    PER_LAYER
        .iter()
        .map(|&(name, unit, kind)| {
            let (value, n) = match kind {
                Kind::SetupMs(s) => median_of(&setup_ms, s),
                Kind::Share(s) => per_op(&|op| ratio(span(s, op), span(OP, op))),
                Kind::Value(c) => median_of(&values, c),
                Kind::Ratio(a, b) => per_op(&|op| ratio(cnt(a, op), cnt(b, op))),
                Kind::Rate(c, s) => per_op(&|op| ratio(cnt(c, op), span(s, op))),
                Kind::Overhead => (median(&overhead).unwrap_or(0.0), overhead.len()),
            };
            (name, unit, value, n)
        })
        .collect()
}

/// Tallies of the raw file operations the store issued.
#[derive(Debug, Default)]
struct Tally {
    fsyncs: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
}

/// [`OsFs`] with tallies, minus the device flushes: every other call
/// passes straight through, the bytes read and written are counted, and
/// file and directory fsyncs are counted and return without flushing.
/// How long a flush waits is the device's share, not the store's; on a
/// shared host it follows the other guests' disk traffic (see README.md).
#[derive(Debug, Clone, Default)]
pub struct CountingFs {
    tally: Arc<Tally>,
}

impl CountingFs {
    /// File plus directory fsyncs so far.
    pub fn fsyncs(&self) -> u64 {
        self.tally.fsyncs.load(Ordering::Relaxed)
    }

    /// Bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.tally.bytes_written.load(Ordering::Relaxed)
    }

    /// Bytes read so far.
    pub fn bytes_read(&self) -> u64 {
        self.tally.bytes_read.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct CountingFile {
    file: Box<dyn VfsFile>,
    tally: Arc<Tally>,
}

impl VfsFile for CountingFile {
    fn len(&self) -> io::Result<u64> {
        self.file.len()
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.file.read_exact_at(buf, offset)?;
        self.tally
            .bytes_read
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn write_all_at(&mut self, data: &[u8], offset: u64) -> io::Result<()> {
        self.file.write_all_at(data, offset)?;
        self.tally
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.tally.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl Vfs for CountingFs {
    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(CountingFile {
            file: OsFs.open(path)?,
            tally: Arc::clone(&self.tally),
        }))
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        // Opened as `OsFs` would, so a missing directory still fails.
        std::fs::File::open(path)?;
        self.tally.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        OsFs.create_dir_all(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        OsFs.remove_dir_all(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        OsFs.remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        OsFs.exists(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        OsFs.list_dir(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_core::HyperRect;
    use hdidx_diskio::DiskOptions;
    use hdidx_store::{Durability, SnapshotSet};
    use hdidx_vamsplit::tree::{Node, NodeKind, RTree};

    fn files_under(root: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut out = Vec::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    let rel = path.strip_prefix(root).unwrap().to_path_buf();
                    out.push((rel, std::fs::read(&path).unwrap()));
                }
            }
        }
        out.sort();
        out
    }

    #[test]
    fn counting_fs_writes_byte_identical_generations() {
        let leaf = |lo: f32, hi: f32, entries: std::ops::Range<u32>| Node {
            level: 1,
            rect: HyperRect::new(vec![lo, lo], vec![hi, hi]).unwrap(),
            kind: NodeKind::Leaf { entries },
        };
        let root = Node {
            level: 2,
            rect: HyperRect::new(vec![0.0, 0.0], vec![4.0, 4.0]).unwrap(),
            kind: NodeKind::Inner {
                children: vec![1, 2],
            },
        };
        let nodes = vec![root, leaf(0.0, 1.0, 0..3), leaf(3.0, 4.0, 3..5)];
        let tree = RTree::from_arenas(2, 2, 1, nodes, (0..5).rev().collect()).unwrap();

        let base = std::env::temp_dir().join(format!("hdidx_e2e_vfs_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let plain = SnapshotSet::open(&base.join("plain"), Durability::PerBatch).unwrap();
        let counting = CountingFs::default();
        let counted = SnapshotSet::open_in(
            Arc::new(counting.clone()),
            &base.join("counted"),
            Durability::PerBatch,
        )
        .unwrap();
        for set in [&plain, &counted] {
            set.publish(&tree, &DiskOptions::new()).unwrap();
            set.publish(&tree, &DiskOptions::new()).unwrap();
        }
        let a = files_under(&base.join("plain"));
        let b = files_under(&base.join("counted"));
        std::fs::remove_dir_all(&base).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "the counting layer must not change a byte");
        assert!(counting.fsyncs() > 0 && counting.bytes_written() > 0);
    }

    #[test]
    fn spans_nest_and_disabled_scopes_record_nothing() {
        let rec = Recorder::new(true);
        let sc = rec.op(3, true);
        sc.span(OP, || sc.span("store.load", || ()));
        sc.count("store.fsyncs", 2.0);
        rec.op(4, false).span(OP, || ());
        let log = rec.log.borrow();
        assert_eq!(log.spans.len(), 2);
        assert_eq!(log.spans[1].parent, Some(0));
        assert_eq!(log.spans[0].op, Some(3));
        assert_eq!(log.counts, vec![("store.fsyncs", Some(3), 2.0)]);
        let off = Recorder::new(false);
        off.setup().span("datagen.generate", || ());
        assert!(off.log.borrow().spans.is_empty());
    }
}
