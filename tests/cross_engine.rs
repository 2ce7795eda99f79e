//! Cross-crate integration: the same jobs — exercising the broader API
//! surface (new-style `mapreduce` interface, secondary sort, named side
//! outputs, the distributed cache) — run on both engines and agree.

use std::sync::Arc;

use hmr_api::collect::OutputCollector;
use hmr_api::comparator::KeyComparator;
use hmr_api::conf::JobConf;
use hmr_api::counters::{task_counter, TaskContext};
use hmr_api::error::Result;
use hmr_api::fs::{read_file, write_file, FileSystem, HPath};
use hmr_api::io::seqfile::{read_seq_file, write_seq_file};
use hmr_api::io::{
    InputFormat, OutputFormat, SequenceFileInputFormat, SequenceFileOutputFormat, TextInputFormat,
};
use hmr_api::job::{Engine, JobDef};
use hmr_api::mapreduce;
use hmr_api::task::{
    IdentityMapper, LongSumReducer, MapreduceReducerAdapter, TaskMapper, TaskReducer,
};
use hmr_api::writable::{IntWritable, LongWritable, PairWritable, Text};
use simdfs::SimDfs;
use simgrid::{Cluster, CostModel};

fn setup(nodes: usize) -> (Cluster, SimDfs) {
    let cluster = Cluster::new(nodes, CostModel::default());
    let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 2);
    (cluster, fs)
}

fn conf(input: &str, output: &str, reducers: usize) -> JobConf {
    let mut c = JobConf::new();
    c.add_input_path(&HPath::new(input));
    c.set_output_path(&HPath::new(output));
    c.set_num_reduce_tasks(reducers);
    c
}

// ---------------------------------------------------------------------------
// Secondary sort via sort + grouping comparators, written in the NEW
// (mapreduce) API style — §5.3's "any combination of old and new style".
// ---------------------------------------------------------------------------

type SsKey = PairWritable<IntWritable, IntWritable>;

struct NewStyleFirstPerGroup;

impl mapreduce::Reducer<SsKey, Text, SsKey, Text> for NewStyleFirstPerGroup {
    fn reduce(
        &mut self,
        key: Arc<SsKey>,
        values: &mut dyn Iterator<Item = Arc<Text>>,
        ctx: &mut mapreduce::Context<'_, SsKey, Text>,
    ) -> Result<()> {
        // Values arrive ordered by the secondary key; keep the first.
        if let Some(first) = values.next() {
            ctx.write(key, first)?;
            ctx.incr_counter("app", "groups", 1);
        }
        Ok(())
    }
}

struct SecondarySortJob;

impl JobDef for SecondarySortJob {
    type K1 = SsKey;
    type V1 = Text;
    type K2 = SsKey;
    type V2 = Text;
    type K3 = SsKey;
    type V3 = Text;

    fn create_mapper(&self, _c: &JobConf) -> Box<dyn TaskMapper<SsKey, Text, SsKey, Text>> {
        Box::new(IdentityMapper)
    }
    fn create_reducer(&self, _c: &JobConf) -> Box<dyn TaskReducer<SsKey, Text, SsKey, Text>> {
        Box::new(MapreduceReducerAdapter(NewStyleFirstPerGroup))
    }
    fn partitioner(
        &self,
        _c: &JobConf,
    ) -> Box<dyn hmr_api::Partitioner<SsKey, Text>> {
        // Partition by the primary key only, so grouping is meaningful.
        Box::new(hmr_api::partition::FnPartitioner::new(
            |k: &SsKey, _: &Text, n| k.0 .0 as usize % n,
        ))
    }
    fn input_format(&self, _c: &JobConf) -> Box<dyn InputFormat<SsKey, Text>> {
        Box::new(SequenceFileInputFormat::new())
    }
    fn output_format(&self, _c: &JobConf) -> Box<dyn OutputFormat<SsKey, Text>> {
        Box::new(SequenceFileOutputFormat::new())
    }
    fn sort_comparator(&self) -> KeyComparator<SsKey> {
        KeyComparator::natural() // (primary, secondary)
    }
    fn grouping_comparator(&self) -> KeyComparator<SsKey> {
        KeyComparator::new(|a: &SsKey, b: &SsKey| a.0.cmp(&b.0)) // primary only
    }
    fn immutable_output(&self) -> bool {
        true
    }
    fn name(&self) -> &str {
        "secondary-sort"
    }
}

#[test]
fn secondary_sort_picks_minimum_per_group_on_both_engines() {
    let (cluster, fs) = setup(3);
    let mut records: Vec<(SsKey, Text)> = Vec::new();
    for primary in 0..10 {
        for secondary in [5, 1, 9, 3] {
            records.push((
                PairWritable(IntWritable(primary), IntWritable(secondary)),
                Text::from(format!("{primary}/{secondary}")),
            ));
        }
    }
    write_seq_file(&fs, &HPath::new("/in/part-00000"), &records).unwrap();

    let mut hadoop = hadoop_engine::HadoopEngine::new(cluster.clone(), Arc::new(fs.clone()));
    let rh = hadoop
        .run_job(Arc::new(SecondarySortJob), &conf("/in", "/h", 3))
        .unwrap();
    let mut m3r = m3r::M3REngine::new(cluster, Arc::new(fs.clone()));
    let rm = m3r
        .run_job(Arc::new(SecondarySortJob), &conf("/in", "/m", 3))
        .unwrap();

    for dir in ["/h", "/m"] {
        let mut got = Vec::new();
        for p in 0..3 {
            got.extend(
                read_seq_file::<SsKey, Text>(&fs, &HPath::new(format!("{dir}/part-{p:05}")))
                    .unwrap(),
            );
        }
        got.sort();
        assert_eq!(got.len(), 10, "{dir}: one record per primary key");
        for (k, v) in &got {
            assert_eq!(k.1 .0, 1, "{dir}: secondary-sorted minimum survives");
            assert_eq!(v.as_str(), format!("{}/1", k.0 .0));
        }
    }
    // User counters propagate on both engines.
    assert_eq!(rh.counters.get("app", "groups"), 10);
    assert_eq!(rm.counters.get("app", "groups"), 10);
}

// ---------------------------------------------------------------------------
// MultipleOutputs: named side files via collect_named (§4.2.2).
// ---------------------------------------------------------------------------

struct SplitEvenOdd;

impl TaskReducer<IntWritable, Text, IntWritable, Text> for SplitEvenOdd {
    fn reduce(
        &mut self,
        key: Arc<IntWritable>,
        values: &mut dyn Iterator<Item = Arc<Text>>,
        out: &mut dyn OutputCollector<IntWritable, Text>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        for v in values {
            if key.0 % 2 == 0 {
                out.collect_named("even", Arc::clone(&key), v)?;
            } else {
                out.collect(Arc::clone(&key), v)?;
            }
        }
        Ok(())
    }
}

struct EvenOddJob;

impl JobDef for EvenOddJob {
    type K1 = IntWritable;
    type V1 = Text;
    type K2 = IntWritable;
    type V2 = Text;
    type K3 = IntWritable;
    type V3 = Text;
    fn create_mapper(
        &self,
        _c: &JobConf,
    ) -> Box<dyn TaskMapper<IntWritable, Text, IntWritable, Text>> {
        Box::new(IdentityMapper)
    }
    fn create_reducer(
        &self,
        _c: &JobConf,
    ) -> Box<dyn TaskReducer<IntWritable, Text, IntWritable, Text>> {
        Box::new(SplitEvenOdd)
    }
    fn input_format(&self, _c: &JobConf) -> Box<dyn InputFormat<IntWritable, Text>> {
        Box::new(SequenceFileInputFormat::new())
    }
    fn output_format(&self, _c: &JobConf) -> Box<dyn OutputFormat<IntWritable, Text>> {
        Box::new(SequenceFileOutputFormat::new())
    }
    fn immutable_output(&self) -> bool {
        true
    }
    fn name(&self) -> &str {
        "even-odd"
    }
}

#[test]
fn named_outputs_work_on_both_engines() {
    let (cluster, fs) = setup(2);
    let records: Vec<(IntWritable, Text)> = (0..20)
        .map(|i| (IntWritable(i), Text::from(format!("v{i}"))))
        .collect();
    write_seq_file(&fs, &HPath::new("/in/part-00000"), &records).unwrap();

    let mut hadoop = hadoop_engine::HadoopEngine::new(cluster.clone(), Arc::new(fs.clone()));
    hadoop
        .run_job(Arc::new(EvenOddJob), &conf("/in", "/h", 2))
        .unwrap();
    let mut m3r = m3r::M3REngine::new(cluster, Arc::new(fs.clone()));
    m3r.run_job(Arc::new(EvenOddJob), &conf("/in", "/m", 2))
        .unwrap();

    for dir in ["/h", "/m"] {
        let mut main_recs = Vec::new();
        let mut even_recs = Vec::new();
        for p in 0..2 {
            let main_p = HPath::new(format!("{dir}/part-{p:05}"));
            main_recs.extend(read_seq_file::<IntWritable, Text>(&fs, &main_p).unwrap());
            let even_p = HPath::new(format!("{dir}/even-part-{p:05}"));
            if fs.exists(&even_p) {
                even_recs.extend(read_seq_file::<IntWritable, Text>(&fs, &even_p).unwrap());
            }
        }
        assert_eq!(main_recs.len(), 10, "{dir}: odd keys on the main output");
        assert!(main_recs.iter().all(|(k, _)| k.0 % 2 == 1));
        assert_eq!(even_recs.len(), 10, "{dir}: even keys on the side output");
        assert!(even_recs.iter().all(|(k, _)| k.0 % 2 == 0));
    }
}

// ---------------------------------------------------------------------------
// Distributed cache: a lookup table shipped to every mapper (§5.3).
// ---------------------------------------------------------------------------

struct DictMapper;

impl TaskMapper<IntWritable, Text, IntWritable, Text> for DictMapper {
    fn map(
        &mut self,
        key: Arc<IntWritable>,
        _value: Arc<Text>,
        out: &mut dyn OutputCollector<IntWritable, Text>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        let dict = ctx
            .cache_file("/dict/names")
            .expect("distributed cache file present");
        let names: Vec<&str> = std::str::from_utf8(&dict).unwrap().lines().collect();
        let name = names[(key.0 as usize) % names.len()];
        out.collect(key, Arc::new(Text::from(name)))
    }
}

struct DictJob;

impl JobDef for DictJob {
    type K1 = IntWritable;
    type V1 = Text;
    type K2 = IntWritable;
    type V2 = Text;
    type K3 = IntWritable;
    type V3 = Text;
    fn create_mapper(
        &self,
        _c: &JobConf,
    ) -> Box<dyn TaskMapper<IntWritable, Text, IntWritable, Text>> {
        Box::new(DictMapper)
    }
    fn create_reducer(
        &self,
        _c: &JobConf,
    ) -> Box<dyn TaskReducer<IntWritable, Text, IntWritable, Text>> {
        Box::new(hmr_api::task::IdentityReducer)
    }
    fn input_format(&self, _c: &JobConf) -> Box<dyn InputFormat<IntWritable, Text>> {
        Box::new(SequenceFileInputFormat::new())
    }
    fn output_format(&self, _c: &JobConf) -> Box<dyn OutputFormat<IntWritable, Text>> {
        Box::new(SequenceFileOutputFormat::new())
    }
    fn immutable_output(&self) -> bool {
        true
    }
    fn name(&self) -> &str {
        "dict-join"
    }
}

#[test]
fn distributed_cache_reaches_mappers_on_both_engines() {
    let (cluster, fs) = setup(2);
    write_file(&fs, &HPath::new("/dict/names"), b"alpha\nbeta\ngamma").unwrap();
    let records: Vec<(IntWritable, Text)> =
        (0..9).map(|i| (IntWritable(i), Text::from(""))).collect();
    write_seq_file(&fs, &HPath::new("/in/part-00000"), &records).unwrap();

    let mut c = conf("/in", "/h", 1);
    c.add_cache_file(&HPath::new("/dict/names"));

    let mut hadoop = hadoop_engine::HadoopEngine::new(cluster.clone(), Arc::new(fs.clone()));
    hadoop.run_job(Arc::new(DictJob), &c).unwrap();
    c.set_output_path(&HPath::new("/m"));
    let mut m3r = m3r::M3REngine::new(cluster, Arc::new(fs.clone()));
    m3r.run_job(Arc::new(DictJob), &c).unwrap();

    let h = read_seq_file::<IntWritable, Text>(&fs, &HPath::new("/h/part-00000")).unwrap();
    let m = read_seq_file::<IntWritable, Text>(&fs, &HPath::new("/m/part-00000")).unwrap();
    assert_eq!(h, m);
    assert_eq!(h[0].1.as_str(), "alpha");
    assert_eq!(h[4].1.as_str(), "beta");
}

// ---------------------------------------------------------------------------
// The M3R distributed cache persists across jobs (long-lived places).
// ---------------------------------------------------------------------------

#[test]
fn m3r_memoizes_distributed_cache_files_across_jobs() {
    let (cluster, fs) = setup(2);
    write_file(&fs, &HPath::new("/dict/names"), b"alpha\nbeta").unwrap();
    let records: Vec<(IntWritable, Text)> =
        (0..4).map(|i| (IntWritable(i), Text::from(""))).collect();
    write_seq_file(&fs, &HPath::new("/in/part-00000"), &records).unwrap();
    let mut m3r = m3r::M3REngine::new(cluster, Arc::new(fs.clone()));

    let mut c = conf("/in", "/o1", 1);
    c.add_cache_file(&HPath::new("/dict/names"));
    let r1 = m3r.run_job(Arc::new(DictJob), &c).unwrap();
    c.set_output_path(&HPath::new("/o2"));
    let r2 = m3r.run_job(Arc::new(DictJob), &c).unwrap();
    // Job 1 read the dictionary and the input; job 2 read neither.
    assert!(r1.metrics.disk_bytes_read > 0);
    assert_eq!(r2.metrics.disk_bytes_read, 0, "dict memoized + input cached");
}

// ---------------------------------------------------------------------------
// Map-only job with a combiner: Hadoop writes map output straight to the
// job output (§5.3) and never combines it, and neither may M3R.
// ---------------------------------------------------------------------------

struct Tokenize;

impl TaskMapper<LongWritable, Text, Text, LongWritable> for Tokenize {
    fn map(
        &mut self,
        _key: Arc<LongWritable>,
        value: Arc<Text>,
        out: &mut dyn OutputCollector<Text, LongWritable>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        for tok in value.as_str().split_whitespace() {
            out.collect(Arc::new(Text::from(tok)), Arc::new(LongWritable(1)))?;
        }
        Ok(())
    }
}

struct MapOnlyTokenizeJob;

impl JobDef for MapOnlyTokenizeJob {
    type K1 = LongWritable;
    type V1 = Text;
    type K2 = Text;
    type V2 = LongWritable;
    type K3 = Text;
    type V3 = LongWritable;
    fn create_mapper(
        &self,
        _c: &JobConf,
    ) -> Box<dyn TaskMapper<LongWritable, Text, Text, LongWritable>> {
        Box::new(Tokenize)
    }
    fn create_reducer(
        &self,
        _c: &JobConf,
    ) -> Box<dyn TaskReducer<Text, LongWritable, Text, LongWritable>> {
        Box::new(LongSumReducer)
    }
    fn create_combiner(
        &self,
        _c: &JobConf,
    ) -> Option<Box<dyn TaskReducer<Text, LongWritable, Text, LongWritable>>> {
        Some(Box::new(LongSumReducer))
    }
    fn input_format(&self, _c: &JobConf) -> Box<dyn InputFormat<LongWritable, Text>> {
        Box::new(TextInputFormat)
    }
    fn output_format(&self, _c: &JobConf) -> Box<dyn OutputFormat<Text, LongWritable>> {
        Box::new(SequenceFileOutputFormat::new())
    }
    fn map_only_convert(
        &self,
    ) -> Option<hmr_api::job::MapOnlyConvert<Text, LongWritable, Text, LongWritable>> {
        Some(Arc::new(|k, v| (k, v)))
    }
    fn immutable_output(&self) -> bool {
        true
    }
    fn name(&self) -> &str {
        "map-only-tokenize"
    }
}

#[test]
fn map_only_job_with_combiner_is_not_combined_on_either_engine() {
    let (cluster, fs) = setup(2);
    let files = ["b a b\na b b\n", "c c a\n", "a\nd d d d\n"];
    for (i, text) in files.iter().enumerate() {
        write_file(&fs, &HPath::new(format!("/in/f{i}")), text.as_bytes()).unwrap();
    }
    let tokens = files.iter().map(|t| t.split_whitespace().count()).sum::<usize>();

    let mut hadoop = hadoop_engine::HadoopEngine::new(cluster.clone(), Arc::new(fs.clone()));
    let h = hadoop
        .run_job(Arc::new(MapOnlyTokenizeJob), &conf("/in", "/h", 0))
        .unwrap();
    let mut m3r = m3r::M3REngine::new(cluster, Arc::new(fs.clone()));
    let m = m3r
        .run_job(Arc::new(MapOnlyTokenizeJob), &conf("/in", "/m", 0))
        .unwrap();

    for r in [&h, &m] {
        assert_eq!(r.output_records, tokens as u64, "one output record per token");
        assert_eq!(r.counters.task(task_counter::MAP_OUTPUT_RECORDS), tokens as i64);
        assert_eq!(r.counters.task(task_counter::COMBINE_INPUT_RECORDS), 0);
    }
    // Engine-private groups (Hadoop's shuffle bytes, M3R's cache hits)
    // aside, the framework's task counters agree exactly.
    let task_counters = |r: &hmr_api::job::JobResult| -> Vec<(String, i64)> {
        r.counters
            .iter()
            .filter(|(g, _, _)| *g == hmr_api::counters::TASK_COUNTER_GROUP)
            .map(|(_, n, v)| (n.to_string(), v))
            .collect()
    };
    assert_eq!(task_counters(&h), task_counters(&m), "task counters on both engines");
    for (i, text) in files.iter().enumerate() {
        let name = format!("part-{i:05}");
        let hb = read_file(&fs, &HPath::new(format!("/h/{name}"))).unwrap();
        let mb = read_file(&fs, &HPath::new(format!("/m/{name}"))).unwrap();
        assert_eq!(hb, mb, "{name}: byte-identical map-only output");
        let recs = read_seq_file::<Text, LongWritable>(&fs, &HPath::new(format!("/m/{name}")))
            .unwrap();
        let expect: Vec<(Text, LongWritable)> = text
            .split_whitespace()
            .map(|t| (Text::from(t), LongWritable(1)))
            .collect();
        assert_eq!(recs, expect, "{name}: the mapper's pairs in emission order");
    }
}
