//! One measurement: set up a workload, run its timed job chain on one
//! engine a few times, probe resources, and check every output against an
//! independent oracle whose running time is the workload's naive floor.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use hadoop_engine::HadoopEngine;
use hmr_api::comparator::fnv1a;
use hmr_api::error::{HmrError, Result};
use hmr_api::fs::{read_file, FileSystem, HPath};
use hmr_api::io::part_file_name;
use hmr_api::io::seqfile::{append_record, read_seq_file};
use hmr_api::job::{Engine, JobResult};
use hmr_api::writable::{BytesWritable, IntWritable, LongWritable, Text};
use m3r::M3REngine;
use simdfs::SimDfs;
use simgrid::metrics::MetricsSnapshot;
use simgrid::trace::Phase;
use simgrid::{Cluster, CostModel};
use workloads::matvec::{
    generate_matvec_input, read_vector, reference_multiply, row_partitioner, run_matvec_iterations,
};
use workloads::microbench::{generate_microbench_input, run_microbench};
use workloads::textgen::generate_text;
use workloads::wordcount::{run_wordcount, WcStyle};

use crate::layers::{LayerTotals, Layers, Probe, TracedFs};
use crate::probe;

/// Places in the simulated cluster.
pub const PLACES: usize = 4;
/// DFS block size and replication: scaled-down HDFS defaults.
const BLOCK_BYTES: u64 = 8 << 20;
const REPLICATION: usize = 2;
/// Relative tolerance of the matvec oracle: the engines sum block products
/// in a different order than the dense reference.
const MATVEC_TOLERANCE: f64 = 1e-9;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WordCount,
    MatVec,
    Shuffle,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    M3r,
    Hadoop,
}

/// Workload sizes. `Size::of(w, false)` is what the benchmark measures;
/// the tiny sizes serve the wrapper self-test.
#[derive(Clone, Copy, Debug)]
pub enum Size {
    WordCount {
        bytes: usize,
        files: usize,
        reducers: usize,
    },
    MatVec {
        n: usize,
        block: usize,
        sparsity: f64,
        parts: usize,
        iters: usize,
    },
    Shuffle {
        pairs: usize,
        value_bytes: usize,
        parts: usize,
        remote: f64,
        iters: usize,
    },
}

impl Size {
    pub fn of(w: Workload, tiny: bool) -> Size {
        match (w, tiny) {
            (Workload::WordCount, false) => Size::WordCount {
                bytes: 16 << 20,
                files: 4,
                reducers: 8,
            },
            (Workload::WordCount, true) => Size::WordCount {
                bytes: 64 << 10,
                files: 4,
                reducers: 3,
            },
            (Workload::MatVec, false) => Size::MatVec {
                n: 32_000,
                block: 100,
                sparsity: 0.001,
                parts: 8,
                iters: 3,
            },
            (Workload::MatVec, true) => Size::MatVec {
                n: 1_000,
                block: 100,
                sparsity: 0.01,
                parts: 4,
                iters: 2,
            },
            (Workload::Shuffle, false) => Size::Shuffle {
                pairs: 120_000,
                value_bytes: 1024,
                parts: 16,
                remote: 0.5,
                iters: 3,
            },
            (Workload::Shuffle, true) => Size::Shuffle {
                pairs: 2_000,
                value_bytes: 64,
                parts: 8,
                remote: 0.5,
                iters: 3,
            },
        }
    }

    /// The measured size for `seed`. Simulated seconds are priced on byte
    /// counts, and the matvec and shuffle generators vary only content with
    /// their seed, so the seed also grows their size by under 1% (shuffle
    /// pairs in whole rows of `parts`, so every partition grows): each seed
    /// is then a distinct input whose simulated seconds differ.
    pub fn for_seed(mut self, seed: u64) -> Size {
        match &mut self {
            Size::MatVec { n, .. } => *n += (seed % 97) as usize,
            Size::Shuffle { pairs, parts, .. } => *pairs += *parts * (seed % 61) as usize,
            Size::WordCount { .. } => {}
        }
        self
    }

    /// Jobs in the timed chain.
    pub fn jobs(&self) -> usize {
        match *self {
            Size::WordCount { .. } => 1,
            Size::MatVec { iters, .. } => 2 * iters,
            Size::Shuffle { iters, .. } => iters,
        }
    }

    /// The sizes as `(name, value)` pairs for the run manifest.
    pub fn describe(&self) -> Vec<(&'static str, f64)> {
        match *self {
            Size::WordCount {
                bytes,
                files,
                reducers,
            } => vec![
                ("bytes", bytes as f64),
                ("files", files as f64),
                ("reducers", reducers as f64),
            ],
            Size::MatVec {
                n,
                block,
                sparsity,
                parts,
                iters,
            } => vec![
                ("n", n as f64),
                ("block", block as f64),
                ("sparsity", sparsity),
                ("partitions", parts as f64),
                ("iterations", iters as f64),
            ],
            Size::Shuffle {
                pairs,
                value_bytes,
                parts,
                remote,
                iters,
            } => vec![
                ("pairs", pairs as f64),
                ("value_bytes", value_bytes as f64),
                ("partitions", parts as f64),
                ("remote_fraction", remote),
                ("iterations", iters as f64),
            ],
        }
    }

    /// The directory holding the chain's final output.
    fn output_dir(&self) -> HPath {
        match *self {
            Size::WordCount { .. } => HPath::new("/out"),
            Size::MatVec { iters, .. } => HPath::new(format!("/work/v{iters}")),
            Size::Shuffle { iters, .. } => HPath::new(format!("/work/iter{}", iters - 1)),
        }
    }

    /// The directory holding everything the chain writes.
    fn work_dir(&self) -> HPath {
        match *self {
            Size::WordCount { .. } => HPath::new("/out"),
            Size::MatVec { .. } | Size::Shuffle { .. } => HPath::new("/work"),
        }
    }
}

/// Everything one measurement reports.
#[derive(Debug)]
pub struct Outcome {
    /// From process start to the first job submission.
    pub setup_s: f64,
    /// Wall seconds of the untimed warm-up repetition.
    pub warmup_s: f64,
    /// Per timed repetition: from the first job submission to the last
    /// `JobResult`.
    pub walls: Vec<f64>,
    /// Per timed repetition: process CPU seconds over the same interval.
    pub cpus: Vec<f64>,
    /// `VmHWM` right after the warm-up repetition.
    pub peak_rss_mb: f64,
    pub attempted: usize,
    pub failed: usize,
    /// `None` when every repetition's output matched its oracle.
    pub error: Option<String>,
    /// Running time of the oracle's naive single-thread computation.
    pub floor_s: f64,
    /// Results of the timed jobs, in submission order. This and every field
    /// below describe the last repetition; the simulated results of all
    /// repetitions must be equal (see [`run`]).
    pub results: Vec<JobResult>,
    /// Wall seconds of each timed `run_job` call.
    pub job_walls: Vec<f64>,
    /// Cluster metrics over the timed section.
    pub snapshot: MetricsSnapshot,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub mem_high_watermark_bytes: u64,
    /// Traced runs only: layer totals over set-up and over the timed section.
    pub layers: Option<(LayerTotals, LayerTotals)>,
    /// Traced runs only: exclusive simulated seconds per phase.
    pub phases: Option<Vec<(Phase, f64)>>,
    /// Final output part files (path, bytes) of the warm-up repetition,
    /// when asked for.
    pub output: Vec<(String, Bytes)>,
}

impl Outcome {
    /// Summed simulated seconds of the timed jobs, summed in job order so
    /// the bits are reproducible.
    pub fn sim_s(&self) -> f64 {
        self.results.iter().map(|r| r.sim_time).sum()
    }

    /// What must be equal between repetitions and between processes.
    fn sim_key(&self) -> (Vec<u64>, MetricsSnapshot) {
        let bits = self.results.iter().map(|r| r.sim_time.to_bits()).collect();
        (bits, self.snapshot)
    }
}

/// How a run is performed.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub engine: EngineKind,
    pub size: Size,
    pub seed: u64,
    /// Wrap the job, the filesystem and enable the simulated-time trace.
    pub traced: bool,
    /// Timed repetitions of the chain after the set-up and the warm-up.
    pub reps: usize,
    /// Keep the final output's bytes in [`Outcome::output`].
    pub keep_output: bool,
}

/// Perform one measurement: set up once, run the chain once to warm the
/// process up (its first run pays for faulting in the heap and starting
/// threads, which varies most from run to run), then time it `spec.reps`
/// times. `start` is when the process began.
///
/// Each repetition, the warm-up too, starts from a reset cluster and,
/// except for M3R on matvec, a fresh engine, so every repetition reads its
/// inputs cold and does the same simulated work; its output is checked
/// against the oracle and deleted before the next one. M3R on matvec keeps
/// the engine its set-up warmed (§6.2: the timed section starts with G and
/// V resident). A repetition whose simulated seconds or metrics differ from
/// the warm-up's fails the measurement.
pub fn run(spec: &Spec, start: Instant) -> Outcome {
    let cluster = Cluster::new(
        PLACES,
        CostModel {
            compute_scale: 0.0,
            ..CostModel::default()
        },
    );
    let raw = SimDfs::with_config(cluster.clone(), BLOCK_BYTES, REPLICATION);
    let layers = spec.traced.then(|| Arc::new(Layers::default()));
    let fs: Arc<dyn FileSystem> = match &layers {
        Some(l) => Arc::new(TracedFs::new(Arc::new(raw.clone()), Arc::clone(l))),
        None => Arc::new(raw.clone()),
    };
    generate(&spec.size, &*fs, spec.seed).expect("generate workload input");
    let layers = layers.as_ref();

    let mut warm = None;
    if let (EngineKind::M3r, Size::MatVec { parts, .. }) = (spec.engine, spec.size) {
        // §6.2's methodology: lay G and V out with the row partitioner,
        // which also warms the cache.
        let mut engine = M3REngine::new(cluster.clone(), Arc::clone(&fs));
        for (from, to) in [("/g", "/gs"), ("/v", "/vs")] {
            m3r::repartition(
                &mut engine,
                &HPath::new(from),
                &HPath::new(to),
                parts,
                row_partitioner,
            )
            .expect("repartition matvec input");
        }
        warm = Some(engine);
    }

    let reps = spec.reps + 1;
    let mut walls = Vec::with_capacity(reps);
    let mut cpus = Vec::with_capacity(reps);
    let mut warmup: Option<Outcome> = None;
    let mut reference = None;
    let mut output = Vec::new();
    let mut last = loop {
        cluster.reset();
        let (mut rep, engine_fs) = match spec.engine {
            EngineKind::M3r => {
                let engine = warm
                    .take()
                    .unwrap_or_else(|| M3REngine::new(cluster.clone(), Arc::clone(&fs)));
                let m3r_fs: Arc<dyn FileSystem> = engine.caching_fs().clone();
                let (rep, engine) = measure(engine, spec, start, &cluster, layers, Some(&*m3r_fs));
                if matches!(spec.size, Size::MatVec { .. }) {
                    warm = Some(engine);
                }
                (rep, m3r_fs)
            }
            EngineKind::Hadoop => {
                let engine = HadoopEngine::new(cluster.clone(), Arc::clone(&fs));
                let (rep, _) = measure(engine, spec, start, &cluster, layers, None);
                (rep, Arc::clone(&fs))
            }
        };
        walls.append(&mut rep.walls);
        cpus.append(&mut rep.cpus);
        if rep.error.is_none() {
            let verdict =
                match reference.get_or_insert_with(|| Reference::compute(&spec.size, &raw)) {
                    Ok(r) => r.check(&spec.size, &raw),
                    Err(e) => Err(e.clone()),
                };
            if let Err(e) = verdict {
                rep.error = Some(format!("oracle mismatch: {e}"));
            }
        }
        if let Some(f) = &warmup {
            if rep.error.is_none() && rep.sim_key() != f.sim_key() {
                rep.error = Some(format!(
                    "timed repetition {} diverged: simulated seconds or metrics differ from the warm-up's",
                    walls.len() - 1
                ));
            }
        } else if spec.keep_output {
            output = part_files(&raw, &spec.size.output_dir());
        }
        if rep.error.is_some() || walls.len() == reps {
            break rep;
        }
        engine_fs
            .delete(&spec.size.work_dir(), true)
            .expect("delete the repetition's output");
        if warmup.is_none() {
            warmup = Some(rep);
        }
    };

    last.warmup_s = walls.first().copied().unwrap_or(f64::NAN);
    if !walls.is_empty() {
        walls.remove(0);
        cpus.remove(0);
    }
    if let Some(f) = &warmup {
        last.setup_s = f.setup_s;
        // The peak of set-up plus one run of the chain: later repetitions
        // only add allocator fragmentation, which varies from run to run.
        last.peak_rss_mb = f.peak_rss_mb;
        // Set-up ends where the warm-up starts: later baselines include the
        // repetitions before them.
        if let (Some((setup, _)), Some((_, timed))) = (f.layers, last.layers) {
            last.layers = Some((setup, timed));
        }
    }
    last.attempted = spec.size.jobs() * reps;
    last.walls = walls;
    last.cpus = cpus;
    last.output = output;
    if let Some(Ok(r)) = &reference {
        last.floor_s = r.floor_s;
    }
    if last.error.is_some() {
        // The chain's output is one artifact: if it is wrong, no job in
        // the chain can be counted as having produced a correct result.
        last.failed = last.attempted;
    }
    last
}

/// One timed repetition: submit the chain through a [`Probe`] and read the
/// probes around it; hands the engine back. `m3r_fs` is M3R's caching
/// filesystem; it selects M3R's side of each workload's protocol (see
/// [`chain`]).
fn measure<E: Engine>(
    engine: E,
    spec: &Spec,
    start: Instant,
    cluster: &Cluster,
    layers: Option<&Arc<Layers>>,
    m3r_fs: Option<&dyn FileSystem>,
) -> (Outcome, E) {
    let mut probe = Probe::new(engine, layers.cloned());
    if layers.is_some() {
        cluster.trace().enable();
    }
    let m = cluster.metrics();
    let (metrics0, pool0) = (m.snapshot(), (m.pool_hits(), m.pool_misses()));
    let layers0 = layers.map(|l| l.totals()).unwrap_or_default();
    let cpu0 = probe::cpu_seconds();
    let at = Instant::now();

    let chain = chain(&mut probe, &spec.size, m3r_fs);

    let wall_s = at.elapsed().as_secs_f64();
    let cpu_s = probe::cpu_seconds() - cpu0;
    let peak_rss_mb = probe::peak_rss_mb();
    let jobs = spec.size.jobs();
    // A job that errored ends the chain: it and every job after it failed.
    let failed = jobs - probe.results.len().min(jobs);
    let phases = layers.is_some().then(|| {
        let rollup = cluster.trace().rollup();
        let jobs = rollup.jobs();
        Phase::ALL
            .iter()
            .map(|&ph| {
                (
                    ph,
                    jobs.iter()
                        .map(|&j| rollup.phase_totals(j, ph).busy_seconds)
                        .sum(),
                )
            })
            .collect()
    });
    let outcome = Outcome {
        setup_s: at.duration_since(start).as_secs_f64(),
        warmup_s: 0.0,
        walls: vec![wall_s],
        cpus: vec![cpu_s],
        peak_rss_mb,
        attempted: jobs,
        failed,
        error: chain.err().map(|e| format!("job failed: {e}")),
        floor_s: 0.0,
        results: probe.results,
        job_walls: probe.job_walls,
        snapshot: m.snapshot().since(&metrics0),
        pool_hits: m.pool_hits() - pool0.0,
        pool_misses: m.pool_misses() - pool0.1,
        mem_high_watermark_bytes: m.mem_high_watermark_bytes(),
        layers: layers.map(|l| (layers0, l.totals().since(&layers0))),
        phases,
        output: Vec::new(),
    };
    (outcome, probe.engine)
}

/// Write the workload's input through `fs` (the filesystem the engine
/// sees). Every input is a function of `seed`.
fn generate(size: &Size, fs: &dyn FileSystem, seed: u64) -> Result<()> {
    match *size {
        Size::WordCount { bytes, files, .. } => {
            for f in 0..files {
                let path = HPath::new(format!("/in/part-{f:03}.txt"));
                generate_text(fs, &path, bytes / files, seed.wrapping_mul(1000) + f as u64)?;
            }
            Ok(())
        }
        Size::MatVec {
            n,
            block,
            sparsity,
            parts,
            ..
        } => generate_matvec_input(
            fs,
            &HPath::new("/g"),
            &HPath::new("/v"),
            n,
            block,
            sparsity,
            parts,
            seed,
        ),
        Size::Shuffle {
            pairs,
            value_bytes,
            parts,
            ..
        } => generate_microbench_input(fs, &HPath::new("/in"), pairs, value_bytes, parts, seed),
    }
}

/// The timed job chain: one closed-loop client submitting one job at a time.
/// With `m3r_fs` (M3R's caching filesystem) matvec reads the repartitioned
/// layout and shuffle marks intermediates temporary and deletes them.
fn chain<E: Engine>(engine: &mut E, size: &Size, m3r_fs: Option<&dyn FileSystem>) -> Result<()> {
    match *size {
        Size::WordCount { reducers, .. } => {
            run_wordcount(
                engine,
                WcStyle::FreshText,
                &HPath::new("/in"),
                &HPath::new("/out"),
                reducers,
            )?;
        }
        Size::MatVec {
            n,
            block,
            parts,
            iters,
            ..
        } => {
            let (g, v) = if m3r_fs.is_some() {
                ("/gs", "/vs")
            } else {
                ("/g", "/v")
            };
            run_matvec_iterations(
                engine,
                &HPath::new(g),
                &HPath::new(v),
                &HPath::new("/work"),
                iters,
                parts,
                n.div_ceil(block),
            )?;
        }
        Size::Shuffle {
            parts,
            remote,
            iters,
            ..
        } => {
            run_microbench(
                engine,
                &HPath::new("/in"),
                &HPath::new("/work"),
                remote,
                iters,
                parts,
                m3r_fs.is_some(),
                m3r_fs,
            )?;
        }
    }
    Ok(())
}

/// An oracle's result, or why the output is wrong.
type Verdict<T> = std::result::Result<T, String>;

fn read_err(e: HmrError) -> String {
    format!("reading data for the oracle: {e}")
}

/// A workload's expected output, computed once per measurement by an
/// independent single-thread computation whose running time is the
/// workload's naive floor.
struct Reference {
    floor_s: f64,
    want: Want,
}

enum Want {
    /// Count per word.
    WordCount(HashMap<String, i64>),
    /// The vector after the last iteration.
    MatVec(Vec<f64>),
    /// `fnv1a` of every input value, sorted.
    Shuffle(Vec<u64>),
}

impl Reference {
    fn compute(size: &Size, fs: &SimDfs) -> Verdict<Reference> {
        match *size {
            Size::WordCount { files, .. } => wordcount_reference(fs, files),
            Size::MatVec {
                n,
                block,
                parts,
                iters,
                ..
            } => matvec_reference(fs, n, block, parts, iters),
            Size::Shuffle { parts, iters, .. } => shuffle_reference(fs, parts, iters),
        }
    }

    /// Check the chain's final output (as it is in `fs` now) against this.
    fn check(&self, size: &Size, fs: &SimDfs) -> Verdict<()> {
        match (*size, &self.want) {
            (Size::WordCount { reducers, .. }, Want::WordCount(want)) => {
                wordcount_check(fs, reducers, want)
            }
            (
                Size::MatVec {
                    n,
                    block,
                    parts,
                    iters,
                    ..
                },
                Want::MatVec(want),
            ) => matvec_check(fs, n, block, parts, iters, want),
            (Size::Shuffle { parts, iters, .. }, Want::Shuffle(want)) => {
                shuffle_check(fs, parts, iters, want)
            }
            _ => unreachable!("a reference is checked against the size it was computed for"),
        }
    }
}

/// Single-thread `split_whitespace` + `HashMap` count.
fn wordcount_reference(fs: &SimDfs, files: usize) -> Verdict<Reference> {
    let texts: Vec<Bytes> = (0..files)
        .map(|f| read_file(fs, &HPath::new(format!("/in/part-{f:03}.txt"))))
        .collect::<Result<_>>()
        .map_err(read_err)?;
    let start = Instant::now();
    let mut want: HashMap<&str, i64> = HashMap::new();
    for t in &texts {
        let s = std::str::from_utf8(t).map_err(|e| e.to_string())?;
        for w in s.split_whitespace() {
            *want.entry(w).or_insert(0) += 1;
        }
    }
    let floor_s = start.elapsed().as_secs_f64();
    let want = want.into_iter().map(|(w, n)| (w.to_owned(), n)).collect();
    Ok(Reference {
        floor_s,
        want: Want::WordCount(want),
    })
}

fn wordcount_check(fs: &SimDfs, reducers: usize, want: &HashMap<String, i64>) -> Verdict<()> {
    let mut seen = 0usize;
    for p in 0..reducers {
        let path = HPath::new("/out").join(&part_file_name(p));
        for (k, v) in read_seq_file::<Text, LongWritable>(fs, &path).map_err(read_err)? {
            seen += 1;
            if want.get(k.as_str()) != Some(&v.0) {
                return Err(format!("word {:?} counted {}", k.as_str(), v.0));
            }
        }
    }
    if seen != want.len() {
        return Err(format!("{seen} output words, expected {}", want.len()));
    }
    Ok(())
}

/// `reference_multiply` iterated.
fn matvec_reference(
    fs: &SimDfs,
    n: usize,
    block: usize,
    parts: usize,
    iters: usize,
) -> Verdict<Reference> {
    let g = HPath::new("/g");
    let mut want = read_vector(fs, &HPath::new("/v"), parts, n, block).map_err(read_err)?;
    let start = Instant::now();
    for _ in 0..iters {
        want = reference_multiply(fs, &g, &want, n, block, parts).map_err(read_err)?;
    }
    Ok(Reference {
        floor_s: start.elapsed().as_secs_f64(),
        want: Want::MatVec(want),
    })
}

/// Equal to the reference within [`MATVEC_TOLERANCE`].
fn matvec_check(
    fs: &SimDfs,
    n: usize,
    block: usize,
    parts: usize,
    iters: usize,
    want: &[f64],
) -> Verdict<()> {
    let got = read_vector(fs, &HPath::new(format!("/work/v{iters}")), parts, n, block)
        .map_err(read_err)?;
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if (g - w).abs() > MATVEC_TOLERANCE * w.abs().max(1.0) {
            return Err(format!("v[{i}] = {g}, reference {w}"));
        }
    }
    Ok(())
}

/// The floor is a naive single-thread run of the same chain: decode, route
/// into partition buckets by key, sort each bucket, and encode the result.
fn shuffle_reference(fs: &SimDfs, parts: usize, iters: usize) -> Verdict<Reference> {
    let start = Instant::now();
    let mut records: Vec<(IntWritable, BytesWritable)> = Vec::new();
    for p in 0..parts {
        let path = HPath::new("/in").join(&part_file_name(p));
        records.extend(read_seq_file::<IntWritable, BytesWritable>(fs, &path).map_err(read_err)?);
    }
    for _ in 0..iters {
        let mut buckets: Vec<Vec<(IntWritable, BytesWritable)>> = vec![Vec::new(); parts];
        for (k, v) in &records {
            buckets[k.0.rem_euclid(parts as i32) as usize].push((*k, v.clone()));
        }
        for b in &mut buckets {
            b.sort_by_key(|(k, _)| k.0);
        }
        records = buckets.into_iter().flatten().collect();
    }
    let mut encoded = Vec::new();
    for (k, v) in &records {
        append_record(&mut encoded, k, v);
    }
    std::hint::black_box(&encoded);
    let floor_s = start.elapsed().as_secs_f64();

    let mut want: Vec<u64> = records.iter().map(|(_, v)| fnv1a(&v.0)).collect();
    want.sort_unstable();
    Ok(Reference {
        floor_s,
        want: Want::Shuffle(want),
    })
}

/// Record counts and value multisets of input and output are equal, and
/// every output record sits in the partition its key maps to.
fn shuffle_check(fs: &SimDfs, parts: usize, iters: usize, want: &[u64]) -> Verdict<()> {
    let out_dir = HPath::new(format!("/work/iter{}", iters - 1));
    let mut got = Vec::with_capacity(want.len());
    for p in 0..parts {
        for (k, v) in
            read_seq_file::<IntWritable, BytesWritable>(fs, &out_dir.join(&part_file_name(p)))
                .map_err(read_err)?
        {
            if k.0.rem_euclid(parts as i32) as usize != p {
                return Err(format!("key {} in partition {p}", k.0));
            }
            got.push(fnv1a(&v.0));
        }
    }
    if got.len() != want.len() {
        return Err(format!(
            "{} output records, {} input",
            got.len(),
            want.len()
        ));
    }
    got.sort_unstable();
    if got != want {
        return Err("output values differ from input values".into());
    }
    Ok(())
}

/// Every file under `dir`, sorted by path.
fn part_files(fs: &SimDfs, dir: &HPath) -> Vec<(String, Bytes)> {
    let mut out: Vec<(String, Bytes)> = fs
        .list_status(dir)
        .expect("list output directory")
        .into_iter()
        .filter(|s| !s.is_dir)
        .map(|s| {
            let bytes = read_file(fs, &s.path).expect("read output part file");
            (s.path.to_string(), bytes)
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}
