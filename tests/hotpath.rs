//! Hot-path optimization determinism (ISSUE 8): every kernel behind the
//! latency tiers — hash-grouped reduce ingest, the sub-threshold radix
//! prefix sort, the raw-key sort path, and arena-per-wave allocation — is
//! a wall-clock-only optimization. Toggling any of them, on either engine,
//! serial or parallel, must leave every simulated observable untouched:
//! simulated seconds (compared through `f64::to_bits`, i.e. bit-for-bit),
//! counters, the metrics snapshot, and the raw output part-file bytes.
//!
//! The workload is WordCount over generated text: `Text` keys with heavy
//! duplication (the shape hash grouping exists for), natural sort and
//! grouping comparators (the precondition for the hash path), and enough
//! records per reducer that conf-forced thresholds put each run squarely
//! in the regime being toggled. Its combiner makes hash grouping also move
//! M3R's map side to grouping at emit time; the `reuse-*` rows run the
//! mutate-and-reuse mapper, whose pairs M3R must clone, against their own
//! all-off baseline.

use std::sync::Arc;

use hadoop_engine::{EngineOptions, HadoopEngine};
use hmr_api::conf::JobConf;
use hmr_api::job::{Engine, JobResult};
use hmr_api::{FileSystem, HPath};
use m3r::{M3REngine, M3ROptions};
use simdfs::SimDfs;
use simgrid::{Cluster, CostModel};
use workloads::textgen::generate_text;
use workloads::wordcount::{WcStyle, WordCountJob};

const PLACES: usize = 3;
const REDUCERS: usize = 4;
const WORDS: usize = 12_000;

/// One cell of the toggle matrix: which optimizations the run enables.
#[derive(Clone, Copy, Debug)]
struct Toggles {
    name: &'static str,
    /// The WordCount mapper variant; each variant is compared against the
    /// all-off run of the same variant.
    style: WcStyle,
    /// Engine-level hash-grouped-ingest gate (`M3ROptions` /
    /// `EngineOptions::hash_group_ingest`).
    hash_opt: bool,
    /// Per-job `m3r.reduce.hash.group` conf knob.
    hash_conf: bool,
    /// `m3r.sort.raw.min.pairs`: 0 forces the raw-key sort path on,
    /// `usize::MAX` forces the decoded-comparator path.
    raw_min: usize,
    /// `m3r.sort.radix.min.pairs`: 0 forces LSD radix for the prefix
    /// ordering pass, `usize::MAX` keeps `sort_unstable`.
    radix_min: usize,
    /// Arena-per-wave scratch allocation.
    arena: bool,
}

/// Everything off: decoded stable sort + span scan, plain allocation.
const BASELINE: Toggles = Toggles {
    name: "baseline",
    style: WcStyle::FreshText,
    hash_opt: false,
    hash_conf: false,
    raw_min: usize::MAX,
    radix_min: usize::MAX,
    arena: false,
};

/// Each optimization alone, the full stack, and the two mixed gate states
/// (conf knob and engine option disagreeing — the conjunction must win).
const MATRIX: &[Toggles] = &[
    Toggles { name: "hash", hash_opt: true, hash_conf: true, ..BASELINE },
    Toggles { name: "raw", raw_min: 0, ..BASELINE },
    Toggles { name: "radix", raw_min: 0, radix_min: 0, ..BASELINE },
    Toggles { name: "arena", arena: true, ..BASELINE },
    Toggles {
        name: "all",
        style: WcStyle::FreshText,
        hash_opt: true,
        hash_conf: true,
        raw_min: 0,
        radix_min: 0,
        arena: true,
    },
    Toggles { name: "hash-conf-only", hash_conf: true, ..BASELINE },
    Toggles { name: "hash-opt-only", hash_opt: true, ..BASELINE },
    Toggles {
        name: "reuse-hash",
        style: WcStyle::ReuseText,
        hash_opt: true,
        hash_conf: true,
        ..BASELINE
    },
    Toggles {
        name: "reuse-all",
        style: WcStyle::ReuseText,
        hash_opt: true,
        hash_conf: true,
        raw_min: 0,
        radix_min: 0,
        arena: true,
    },
];

/// The all-off run `t` is compared against.
fn baseline_for(t: &Toggles) -> Toggles {
    Toggles { style: t.style, ..BASELINE }
}

fn conf_for(t: &Toggles, output: &str) -> JobConf {
    let mut c = JobConf::new();
    c.add_input_path(&HPath::new("/in"));
    c.set_output_path(&HPath::new(output));
    c.set_num_reduce_tasks(REDUCERS);
    c.set_hash_group_ingest(t.hash_conf);
    c.set_raw_sort_min_pairs(t.raw_min);
    c.set_radix_sort_min_pairs(t.radix_min);
    c
}

fn job(t: &Toggles) -> Arc<WordCountJob> {
    Arc::new(WordCountJob::new(t.style))
}

/// A job's result and its part files.
type Run = (JobResult, Vec<(String, bytes::Bytes)>);

/// Raw bytes of every part file under `dir`, in partition order — the
/// strongest form of "identical outputs".
fn part_bytes(fs: &SimDfs, dir: &str) -> Vec<(String, bytes::Bytes)> {
    (0..REDUCERS)
        .filter_map(|p| {
            let name = format!("{dir}/part-{p:05}");
            let path = HPath::new(name.as_str());
            fs.exists(&path)
                .then(|| (name, hmr_api::fs::read_file(fs, &path).unwrap()))
        })
        .collect()
}

fn run_m3r(t: &Toggles, parallel: bool) -> Run {
    let cluster = Cluster::new(PLACES, CostModel::default());
    let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 2);
    generate_text(&fs, &HPath::new("/in/corpus.txt"), WORDS, 17).unwrap();
    let mut engine = M3REngine::with_options(
        cluster,
        Arc::new(fs.clone()),
        M3ROptions {
            hash_group_ingest: t.hash_opt,
            arena: t.arena,
            real_parallelism: parallel,
            ..M3ROptions::default()
        },
    );
    let r = engine.run_job(job(t), &conf_for(t, "/out")).unwrap();
    (r, part_bytes(&fs, "/out"))
}

fn run_hadoop(t: &Toggles, parallel: bool) -> Run {
    let cluster = Cluster::new(PLACES, CostModel::default());
    let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 2);
    generate_text(&fs, &HPath::new("/in/corpus.txt"), WORDS, 17).unwrap();
    let mut engine = HadoopEngine::with_options(
        cluster,
        Arc::new(fs.clone()),
        EngineOptions {
            hash_group_ingest: t.hash_opt,
            arena: t.arena,
            real_parallelism: parallel,
            ..EngineOptions::default()
        },
    );
    let r = engine.run_job(job(t), &conf_for(t, "/out")).unwrap();
    (r, part_bytes(&fs, "/out"))
}

fn assert_same(
    reference: &Run,
    got: &Run,
    what: &str,
) {
    assert_eq!(
        reference.0.sim_time.to_bits(),
        got.0.sim_time.to_bits(),
        "{what}: simulated seconds must be bit-identical ({} vs {})",
        reference.0.sim_time,
        got.0.sim_time,
    );
    assert_eq!(reference.0.counters, got.0.counters, "{what}: counters");
    assert_eq!(reference.0.metrics, got.0.metrics, "{what}: metrics");
    assert_eq!(
        reference.0.output_records, got.0.output_records,
        "{what}: output record counts"
    );
    assert!(!got.1.is_empty(), "{what}: no output produced");
    assert_eq!(reference.1, got.1, "{what}: output part-file bytes");
}

/// Run every matrix row serial and parallel on one engine, each against
/// the serial all-off run of its mapper variant.
fn assert_matrix_is_wallclock_only(
    engine: &str,
    run: impl Fn(&Toggles, bool) -> Run,
) {
    let mut references: Vec<(WcStyle, Run)> = Vec::new();
    for t in MATRIX {
        if !references.iter().any(|(s, _)| *s == t.style) {
            references.push((t.style, run(&baseline_for(t), false)));
        }
        let (_, reference) = references.iter().find(|(s, _)| *s == t.style).unwrap();
        for parallel in [false, true] {
            let got = run(t, parallel);
            let mode = if parallel { "parallel" } else { "serial" };
            assert_same(reference, &got, &format!("{engine}/{}/{mode}", t.name));
        }
    }
}

#[test]
fn m3r_hotpath_toggles_are_wallclock_only() {
    assert_matrix_is_wallclock_only("m3r", run_m3r);
}

#[test]
fn hadoop_hotpath_toggles_are_wallclock_only() {
    assert_matrix_is_wallclock_only("hadoop", run_hadoop);
}

#[test]
fn engines_agree_on_wordcount_output_under_full_optimization() {
    // Cross-engine: the full optimization stack on both engines produces
    // the same result set (engines differ in sim-time by design, so this
    // compares outputs, not clocks).
    let all = MATRIX.iter().find(|t| t.name == "all").unwrap();
    let (_, m) = run_m3r(all, true);
    let (_, h) = run_hadoop(all, true);
    assert!(!m.is_empty(), "m3r produced no output");
    assert_eq!(m, h, "byte-identical wordcount output across engines");
}
