//! Wrapper-fidelity self-test: a traced run must be the same program as an
//! untraced one. At tiny sizes, on both engines and all three workloads,
//! the wrapped `JobDef` + `FileSystem` must give the same simulated-seconds
//! bits, counters, `MetricsSnapshot`s and output part-file bytes as the
//! unwrapped run. It also pins the hooks that must be forwarded as the
//! inner job and filesystem return them (see `layers` for why). Each run
//! times one repetition after its warm-up, so the repetition path (cluster
//! reset, output deletion, divergence check) is exercised as well.

use std::sync::Arc;
use std::time::Instant;

use hmr_api::conf::JobConf;
use hmr_api::fs::{write_file, FileSystem, HPath};
use hmr_api::job::JobDef;
use hmr_api::writable::{
    BytesWritable, DoubleArrayWritable, IntWritable, LongWritable, PairWritable, Text,
};
use simdfs::SimDfs;
use simgrid::{Cluster, CostModel};
use workloads::matvec::{MatVecJob2, MatVecValue};
use workloads::microbench::MicrobenchJob;
use workloads::wordcount::{WcStyle, WordCountJob};

use crate::layers::{Layers, TracedFs, TracedJob};
use crate::runs::{run, EngineKind, Size, Spec, Workload, PLACES};

type Check = Result<(), String>;

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Check {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Run every check; returns one line per passed comparison.
pub fn selftest() -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    pin_job_hooks()?;
    lines.push("job hooks forwarded unwrapped: comparators, partitioner, formats".into());
    pin_fs_hooks()?;
    lines.push("filesystem hooks forwarded: exists, block_locations, content_version".into());
    for w in [Workload::WordCount, Workload::MatVec, Workload::Shuffle] {
        for e in [EngineKind::M3r, EngineKind::Hadoop] {
            lines.push(compare_runs(w, e)?);
        }
    }
    Ok(lines)
}

fn compare_runs(w: Workload, e: EngineKind) -> Result<String, String> {
    let spec = |traced| Spec {
        engine: e,
        size: Size::of(w, true),
        seed: 7,
        traced,
        reps: 1,
        keep_output: true,
    };
    let plain = run(&spec(false), Instant::now());
    let traced = run(&spec(true), Instant::now());
    let tag = format!("{w:?}/{e:?}");
    for (o, kind) in [(&plain, "untraced"), (&traced, "traced")] {
        if let Some(err) = &o.error {
            return Err(format!("{tag} {kind}: {err}"));
        }
    }
    ensure(plain.results.len() == traced.results.len(), || {
        format!("{tag}: job counts differ")
    })?;
    for (i, (a, b)) in plain.results.iter().zip(&traced.results).enumerate() {
        ensure(a.sim_time.to_bits() == b.sim_time.to_bits(), || {
            format!(
                "{tag} job {i}: sim seconds {} vs {}",
                a.sim_time, b.sim_time
            )
        })?;
        ensure(a.metrics == b.metrics, || {
            format!("{tag} job {i}: MetricsSnapshot differs")
        })?;
        ensure(a.counters == b.counters, || {
            format!("{tag} job {i}: counters differ")
        })?;
        ensure(a.output_records == b.output_records, || {
            format!("{tag} job {i}: output records differ")
        })?;
    }
    ensure(plain.snapshot == traced.snapshot, || {
        format!("{tag}: cluster MetricsSnapshot differs")
    })?;
    ensure(!plain.output.is_empty(), || {
        format!("{tag}: no output part files")
    })?;
    ensure(plain.output == traced.output, || {
        format!("{tag}: output part-file bytes differ")
    })?;
    // The wrappers must actually have been on the path they claim to time.
    let (setup, section) = traced
        .layers
        .ok_or_else(|| format!("{tag}: no layer totals"))?;
    ensure(section.map_records > 0 && section.reduce_groups > 0, || {
        format!("{tag}: user-code wrappers saw no calls")
    })?;
    ensure(setup.dfs_creates + section.dfs_opens > 0, || {
        format!("{tag}: filesystem wrapper saw no calls")
    })?;
    Ok(format!(
        "{tag}: {} jobs, {} part files, sim bits, counters and snapshots identical traced vs untraced",
        plain.results.len(),
        plain.output.len()
    ))
}

/// The traced job must hand the engine the inner job's own comparators
/// (a wrapped `natural()` comparator would lose its natural-order fast
/// paths), partitioner and flags.
fn pin_job_hooks() -> Check {
    let conf = JobConf::new();
    pin_job(
        WordCountJob::new(WcStyle::FreshText),
        &conf,
        &["the", "map", "cache17", "zzz"].map(|w| (Text::from(w), LongWritable(1))),
    )?;
    pin_job(
        MicrobenchJob {
            remote_fraction: 0.5,
            seed: 1,
        },
        &conf,
        &[0, 1, 7, -3, 1000].map(|k| (IntWritable(k), BytesWritable(vec![1, 2]))),
    )?;
    pin_job(
        MatVecJob2,
        &conf,
        &[(0, 0), (3, 0), (17, 0)].map(|(i, j)| {
            (
                PairWritable(IntWritable(i), IntWritable(j)),
                MatVecValue::V(DoubleArrayWritable(vec![1.0])),
            )
        }),
    )
}

fn pin_job<J: JobDef>(job: J, conf: &JobConf, samples: &[(J::K2, J::V2)]) -> Check {
    let name = job.name().to_string();
    let inner = Arc::new(job);
    let traced = TracedJob::new(Arc::clone(&inner), Arc::new(Layers::default()));
    ensure(inner.sort_comparator().is_natural(), || {
        format!("{name}: expected a natural sort order")
    })?;
    ensure(traced.sort_comparator().is_natural(), || {
        format!("{name}: sort comparator was wrapped")
    })?;
    ensure(
        traced.grouping_comparator().is_natural() == inner.grouping_comparator().is_natural(),
        || format!("{name}: grouping comparator was wrapped"),
    )?;
    let (pi, pt) = (inner.partitioner(conf), traced.partitioner(conf));
    for (k, v) in samples {
        for parts in [1, 3, 8] {
            ensure(
                pi.partition(k, v, parts) == pt.partition(k, v, parts),
                || format!("{name}: partitioner not forwarded"),
            )?;
        }
    }
    ensure(
        traced.immutable_output() == inner.immutable_output(),
        || format!("{name}: immutable_output"),
    )?;
    ensure(traced.name() == inner.name(), || format!("{name}: name"))?;
    ensure(traced.memo_identity() == inner.memo_identity(), || {
        format!("{name}: memo_identity")
    })?;
    ensure(
        traced.create_combiner(conf).is_some() == inner.create_combiner(conf).is_some(),
        || format!("{name}: combiner presence"),
    )
}

/// The trait defaults of `block_locations` and `content_version` return
/// "no locations" and "unversioned": a wrapper relying on them would change
/// task placement and memo fingerprints.
fn pin_fs_hooks() -> Check {
    let cluster = Cluster::new(PLACES, CostModel::default());
    let raw = SimDfs::with_config(cluster, 1 << 10, 2);
    let file = HPath::new("/pin/f");
    write_file(&raw, &file, &[7u8; 5000]).map_err(|e| e.to_string())?;
    let traced = TracedFs::new(Arc::new(raw.clone()), Arc::new(Layers::default()));
    let want = raw
        .block_locations(&file, 0, 5000)
        .map_err(|e| e.to_string())?;
    ensure(want.len() > 1, || "expected a multi-block file".into())?;
    ensure(
        traced.block_locations(&file, 0, 5000).ok() == Some(want),
        || "block_locations not forwarded".into(),
    )?;
    for p in [&file, &HPath::new("/pin")] {
        let v = raw.content_version(p);
        ensure(v.is_some() && traced.content_version(p) == v, || {
            format!("content_version of {p} not forwarded")
        })?;
    }
    ensure(
        traced.exists(&file) && !traced.exists(&HPath::new("/nope")),
        || "exists not forwarded".into(),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn wrappers_are_faithful_on_both_engines() {
        if let Err(e) = super::selftest() {
            panic!("{e}");
        }
    }
}
