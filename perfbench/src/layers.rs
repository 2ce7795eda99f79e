//! Per-layer attribution measured from outside the program.
//!
//! The benchmark does not instrument the engines. It wraps the three public
//! seams every job already crosses and times the calls that cross them:
//!
//! * [`TracedJob`] forwards a `JobDef` and wraps only the boxes that
//!   `create_mapper` / `create_reducer` / `create_combiner` return, so the
//!   time spent inside user code is known. Time the user code spends in
//!   `collect` (engine serialize/route) or pulling reduce values (engine
//!   deserialize/merge) is subtracted: the `user.*` numbers are self time.
//!   Comparators, partitioner, formats and every other hook are forwarded
//!   as the inner job returns them. Wrapping `KeyComparator::natural()`
//!   would move the engines off their raw/radix/hash-group ingest paths, so
//!   the traced run would measure a different program.
//! * [`TracedFs`] forwards a `FileSystem` (the engine's
//!   `Arc<dyn FileSystem>`) and times reads, writes and metadata calls.
//!   `exists`, `block_locations` and `content_version` are forwarded
//!   explicitly: the trait defaults would change task placement and memo
//!   fingerprints.
//! * [`Probe`] forwards an `Engine`, records every `run_job` span and the
//!   `JobResult`s, and installs [`TracedJob`] when tracing is on.
//!
//! Wall-clock accumulators are thread-seconds: work on concurrent threads
//! adds up, and a thread preempted inside a call keeps counting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use hmr_api::collect::OutputCollector;
use hmr_api::comparator::KeyComparator;
use hmr_api::conf::JobConf;
use hmr_api::counters::TaskContext;
use hmr_api::error::Result;
use hmr_api::fs::{FileStatus, FileSystem, FsReader, FsWriter, HPath};
use hmr_api::io::{InputFormat, OutputFormat};
use hmr_api::job::{ComputeIdentity, Engine, JobDef, JobResult, MapOnlyConvert};
use hmr_api::partition::Partitioner;
use hmr_api::task::{TaskMapper, TaskReducer};

/// Counters shared by every wrapper of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    pub map_ns: AtomicU64,
    pub reduce_ns: AtomicU64,
    pub combine_ns: AtomicU64,
    pub map_records: AtomicU64,
    pub reduce_groups: AtomicU64,
    pub dfs_read_ns: AtomicU64,
    pub dfs_write_ns: AtomicU64,
    pub dfs_meta_ns: AtomicU64,
    pub dfs_read_bytes: AtomicU64,
    pub dfs_write_bytes: AtomicU64,
    pub dfs_opens: AtomicU64,
    pub dfs_creates: AtomicU64,
}

/// A point-in-time copy of [`Layers`], in seconds and counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    pub map_s: f64,
    pub reduce_s: f64,
    pub combine_s: f64,
    pub map_records: u64,
    pub reduce_groups: u64,
    pub dfs_read_s: f64,
    pub dfs_write_s: f64,
    pub dfs_meta_s: f64,
    pub dfs_read_bytes: u64,
    pub dfs_write_bytes: u64,
    pub dfs_opens: u64,
    pub dfs_creates: u64,
}

impl LayerTotals {
    /// Counter-wise `self - earlier`.
    pub fn since(&self, e: &LayerTotals) -> LayerTotals {
        LayerTotals {
            map_s: self.map_s - e.map_s,
            reduce_s: self.reduce_s - e.reduce_s,
            combine_s: self.combine_s - e.combine_s,
            map_records: self.map_records - e.map_records,
            reduce_groups: self.reduce_groups - e.reduce_groups,
            dfs_read_s: self.dfs_read_s - e.dfs_read_s,
            dfs_write_s: self.dfs_write_s - e.dfs_write_s,
            dfs_meta_s: self.dfs_meta_s - e.dfs_meta_s,
            dfs_read_bytes: self.dfs_read_bytes - e.dfs_read_bytes,
            dfs_write_bytes: self.dfs_write_bytes - e.dfs_write_bytes,
            dfs_opens: self.dfs_opens - e.dfs_opens,
            dfs_creates: self.dfs_creates - e.dfs_creates,
        }
    }

    pub fn user_s(&self) -> f64 {
        self.map_s + self.reduce_s + self.combine_s
    }

    pub fn dfs_s(&self) -> f64 {
        self.dfs_read_s + self.dfs_write_s + self.dfs_meta_s
    }
}

impl Layers {
    pub fn totals(&self) -> LayerTotals {
        let s = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64 * 1e-9;
        let n = |c: &AtomicU64| c.load(Ordering::Relaxed);
        LayerTotals {
            map_s: s(&self.map_ns),
            reduce_s: s(&self.reduce_ns),
            combine_s: s(&self.combine_ns),
            map_records: n(&self.map_records),
            reduce_groups: n(&self.reduce_groups),
            dfs_read_s: s(&self.dfs_read_ns),
            dfs_write_s: s(&self.dfs_write_ns),
            dfs_meta_s: s(&self.dfs_meta_ns),
            dfs_read_bytes: n(&self.dfs_read_bytes),
            dfs_write_bytes: n(&self.dfs_write_bytes),
            dfs_opens: n(&self.dfs_opens),
            dfs_creates: n(&self.dfs_creates),
        }
    }
}

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Run `f`, adding its wall time to `cell`.
fn timed<R>(cell: &AtomicU64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    cell.fetch_add(ns_since(start), Ordering::Relaxed);
    r
}

// ---------------------------------------------------------------------------
// User code: mapper, reducer, combiner
// ---------------------------------------------------------------------------

/// Forwards `collect` to the engine, timing it so the caller can subtract
/// engine work from the user call that triggered it.
struct TimedCollector<'a, K, V> {
    inner: &'a mut dyn OutputCollector<K, V>,
    ns: u64,
}

impl<K, V> OutputCollector<K, V> for TimedCollector<'_, K, V> {
    fn collect(&mut self, key: Arc<K>, value: Arc<V>) -> Result<()> {
        let start = Instant::now();
        let r = self.inner.collect(key, value);
        self.ns += ns_since(start);
        r
    }

    fn collect_named(&mut self, name: &str, key: Arc<K>, value: Arc<V>) -> Result<()> {
        let start = Instant::now();
        let r = self.inner.collect_named(name, key, value);
        self.ns += ns_since(start);
        r
    }
}

/// Forwards the engine's reduce-value iterator, timing each pull.
struct TimedValues<'a, T> {
    inner: &'a mut dyn Iterator<Item = T>,
    ns: u64,
}

impl<T> Iterator for TimedValues<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let start = Instant::now();
        let r = self.inner.next();
        self.ns += ns_since(start);
        r
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// Self time of one user-code call: its span minus the engine calls
/// nested in it.
fn self_ns(start: Instant, nested_ns: u64) -> u64 {
    ns_since(start).saturating_sub(nested_ns)
}

/// Per-task accumulators, flushed to the shared [`Layers`] on drop so the
/// per-record path touches no shared cache line.
struct TaskTally {
    layers: Arc<Layers>,
    kind: UserKind,
    ns: u64,
    calls: u64,
}

#[derive(Clone, Copy)]
enum UserKind {
    Map,
    Reduce,
    Combine,
}

impl Drop for TaskTally {
    fn drop(&mut self) {
        let l = &self.layers;
        let (ns, calls) = match self.kind {
            UserKind::Map => (&l.map_ns, Some(&l.map_records)),
            UserKind::Reduce => (&l.reduce_ns, Some(&l.reduce_groups)),
            UserKind::Combine => (&l.combine_ns, None),
        };
        ns.fetch_add(self.ns, Ordering::Relaxed);
        if let Some(c) = calls {
            c.fetch_add(self.calls, Ordering::Relaxed);
        }
    }
}

struct TimedMapper<K1, V1, K2, V2> {
    inner: Box<dyn TaskMapper<K1, V1, K2, V2>>,
    tally: TaskTally,
}

impl<K1, V1, K2, V2> TaskMapper<K1, V1, K2, V2> for TimedMapper<K1, V1, K2, V2> {
    fn setup(&mut self, ctx: &mut TaskContext) -> Result<()> {
        let start = Instant::now();
        let r = self.inner.setup(ctx);
        self.tally.ns += ns_since(start);
        r
    }

    fn map(
        &mut self,
        key: Arc<K1>,
        value: Arc<V1>,
        out: &mut dyn OutputCollector<K2, V2>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        let start = Instant::now();
        let mut out = TimedCollector { inner: out, ns: 0 };
        let r = self.inner.map(key, value, &mut out, ctx);
        self.tally.ns += self_ns(start, out.ns);
        self.tally.calls += 1;
        r
    }

    fn cleanup(
        &mut self,
        out: &mut dyn OutputCollector<K2, V2>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        let start = Instant::now();
        let mut out = TimedCollector { inner: out, ns: 0 };
        let r = self.inner.cleanup(&mut out, ctx);
        self.tally.ns += self_ns(start, out.ns);
        r
    }
}

struct TimedReducer<K2, V2, K3, V3> {
    inner: Box<dyn TaskReducer<K2, V2, K3, V3>>,
    tally: TaskTally,
}

impl<K2, V2, K3, V3> TaskReducer<K2, V2, K3, V3> for TimedReducer<K2, V2, K3, V3> {
    fn setup(&mut self, ctx: &mut TaskContext) -> Result<()> {
        let start = Instant::now();
        let r = self.inner.setup(ctx);
        self.tally.ns += ns_since(start);
        r
    }

    fn reduce(
        &mut self,
        key: Arc<K2>,
        values: &mut dyn Iterator<Item = Arc<V2>>,
        out: &mut dyn OutputCollector<K3, V3>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        let start = Instant::now();
        let mut values = TimedValues {
            inner: values,
            ns: 0,
        };
        let mut out = TimedCollector { inner: out, ns: 0 };
        let r = self.inner.reduce(key, &mut values, &mut out, ctx);
        self.tally.ns += self_ns(start, values.ns + out.ns);
        self.tally.calls += 1;
        r
    }

    fn cleanup(
        &mut self,
        out: &mut dyn OutputCollector<K3, V3>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        let start = Instant::now();
        let mut out = TimedCollector { inner: out, ns: 0 };
        let r = self.inner.cleanup(&mut out, ctx);
        self.tally.ns += self_ns(start, out.ns);
        r
    }
}

/// A `JobDef` that forwards everything to `inner` and times its user code.
pub struct TracedJob<J> {
    inner: Arc<J>,
    layers: Arc<Layers>,
}

impl<J> TracedJob<J> {
    pub fn new(inner: Arc<J>, layers: Arc<Layers>) -> Self {
        TracedJob { inner, layers }
    }

    fn tally(&self, kind: UserKind) -> TaskTally {
        TaskTally {
            layers: Arc::clone(&self.layers),
            kind,
            ns: 0,
            calls: 0,
        }
    }
}

impl<J: JobDef> JobDef for TracedJob<J> {
    type K1 = J::K1;
    type V1 = J::V1;
    type K2 = J::K2;
    type V2 = J::V2;
    type K3 = J::K3;
    type V3 = J::V3;

    fn create_mapper(&self, conf: &JobConf) -> Box<dyn TaskMapper<J::K1, J::V1, J::K2, J::V2>> {
        Box::new(TimedMapper {
            inner: self.inner.create_mapper(conf),
            tally: self.tally(UserKind::Map),
        })
    }

    fn create_reducer(&self, conf: &JobConf) -> Box<dyn TaskReducer<J::K2, J::V2, J::K3, J::V3>> {
        Box::new(TimedReducer {
            inner: self.inner.create_reducer(conf),
            tally: self.tally(UserKind::Reduce),
        })
    }

    fn create_combiner(
        &self,
        conf: &JobConf,
    ) -> Option<Box<dyn TaskReducer<J::K2, J::V2, J::K2, J::V2>>> {
        let inner = self.inner.create_combiner(conf)?;
        Some(Box::new(TimedReducer {
            inner,
            tally: self.tally(UserKind::Combine),
        }))
    }

    fn partitioner(&self, conf: &JobConf) -> Box<dyn Partitioner<J::K2, J::V2>> {
        self.inner.partitioner(conf)
    }

    fn input_format(&self, conf: &JobConf) -> Box<dyn InputFormat<J::K1, J::V1>> {
        self.inner.input_format(conf)
    }

    fn output_format(&self, conf: &JobConf) -> Box<dyn OutputFormat<J::K3, J::V3>> {
        self.inner.output_format(conf)
    }

    fn immutable_output(&self) -> bool {
        self.inner.immutable_output()
    }

    fn sort_comparator(&self) -> KeyComparator<J::K2> {
        self.inner.sort_comparator()
    }

    fn grouping_comparator(&self) -> KeyComparator<J::K2> {
        self.inner.grouping_comparator()
    }

    fn map_only_convert(&self) -> Option<MapOnlyConvert<J::K2, J::V2, J::K3, J::V3>> {
        self.inner.map_only_convert()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn memo_identity(&self) -> Option<ComputeIdentity> {
        self.inner.memo_identity()
    }
}

// ---------------------------------------------------------------------------
// Filesystem
// ---------------------------------------------------------------------------

/// A `FileSystem` that forwards to `inner` and times every call.
pub struct TracedFs {
    inner: Arc<dyn FileSystem>,
    layers: Arc<Layers>,
}

impl TracedFs {
    pub fn new(inner: Arc<dyn FileSystem>, layers: Arc<Layers>) -> Self {
        TracedFs { inner, layers }
    }

    fn meta<R>(&self, f: impl FnOnce(&dyn FileSystem) -> R) -> R {
        timed(&self.layers.dfs_meta_ns, || f(&*self.inner))
    }
}

struct TimedWriter {
    inner: Box<dyn FsWriter>,
    layers: Arc<Layers>,
}

impl FsWriter for TimedWriter {
    fn write_all(&mut self, bytes: &[u8]) -> Result<()> {
        self.layers
            .dfs_write_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        timed(&self.layers.dfs_write_ns, || self.inner.write_all(bytes))
    }

    fn close(self: Box<Self>) -> Result<u64> {
        let TimedWriter { inner, layers } = *self;
        timed(&layers.dfs_write_ns, || inner.close())
    }
}

struct TimedReader {
    inner: Box<dyn FsReader>,
    layers: Arc<Layers>,
}

impl TimedReader {
    fn counted(&self, r: Result<Bytes>) -> Result<Bytes> {
        if let Ok(b) = &r {
            self.layers
                .dfs_read_bytes
                .fetch_add(b.len() as u64, Ordering::Relaxed);
        }
        r
    }
}

impl FsReader for TimedReader {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn read_range(&mut self, offset: u64, len: u64) -> Result<Bytes> {
        let r = timed(&self.layers.dfs_read_ns, || {
            self.inner.read_range(offset, len)
        });
        self.counted(r)
    }

    fn read_all(&mut self) -> Result<Bytes> {
        let r = timed(&self.layers.dfs_read_ns, || self.inner.read_all());
        self.counted(r)
    }
}

impl FileSystem for TracedFs {
    fn create(&self, path: &HPath) -> Result<Box<dyn FsWriter>> {
        self.layers.dfs_creates.fetch_add(1, Ordering::Relaxed);
        let inner = timed(&self.layers.dfs_write_ns, || self.inner.create(path))?;
        Ok(Box::new(TimedWriter {
            inner,
            layers: Arc::clone(&self.layers),
        }))
    }

    fn open(&self, path: &HPath) -> Result<Box<dyn FsReader>> {
        self.layers.dfs_opens.fetch_add(1, Ordering::Relaxed);
        let inner = timed(&self.layers.dfs_read_ns, || self.inner.open(path))?;
        Ok(Box::new(TimedReader {
            inner,
            layers: Arc::clone(&self.layers),
        }))
    }

    fn delete(&self, path: &HPath, recursive: bool) -> Result<bool> {
        self.meta(|fs| fs.delete(path, recursive))
    }

    fn rename(&self, src: &HPath, dst: &HPath) -> Result<()> {
        self.meta(|fs| fs.rename(src, dst))
    }

    fn mkdirs(&self, path: &HPath) -> Result<()> {
        self.meta(|fs| fs.mkdirs(path))
    }

    fn get_file_status(&self, path: &HPath) -> Result<FileStatus> {
        self.meta(|fs| fs.get_file_status(path))
    }

    fn list_status(&self, path: &HPath) -> Result<Vec<FileStatus>> {
        self.meta(|fs| fs.list_status(path))
    }

    fn exists(&self, path: &HPath) -> bool {
        self.meta(|fs| fs.exists(path))
    }

    fn block_locations(&self, path: &HPath, offset: u64, len: u64) -> Result<Vec<Vec<usize>>> {
        self.meta(|fs| fs.block_locations(path, offset, len))
    }

    fn content_version(&self, path: &HPath) -> Option<u64> {
        self.meta(|fs| fs.content_version(path))
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// An `Engine` that forwards to `engine`, keeping every job's wall span and
/// result. With `layers` set it submits each job wrapped in [`TracedJob`].
pub struct Probe<E> {
    pub engine: E,
    layers: Option<Arc<Layers>>,
    /// Wall seconds of each `run_job` call, in submission order.
    pub job_walls: Vec<f64>,
    /// Results of the jobs that completed, in submission order.
    pub results: Vec<JobResult>,
}

impl<E: Engine> Probe<E> {
    pub fn new(engine: E, layers: Option<Arc<Layers>>) -> Self {
        Probe {
            engine,
            layers,
            job_walls: Vec::new(),
            results: Vec::new(),
        }
    }
}

impl<E: Engine> Engine for Probe<E> {
    fn engine_name(&self) -> &'static str {
        self.engine.engine_name()
    }

    fn run_job<J: JobDef>(&mut self, job: Arc<J>, conf: &JobConf) -> Result<JobResult> {
        let start = Instant::now();
        let r = match &self.layers {
            Some(l) => self
                .engine
                .run_job(Arc::new(TracedJob::new(job, Arc::clone(l))), conf),
            None => self.engine.run_job(job, conf),
        };
        self.job_walls.push(start.elapsed().as_secs_f64());
        if let Ok(res) = &r {
            self.results.push(res.clone());
        }
        r
    }
}
