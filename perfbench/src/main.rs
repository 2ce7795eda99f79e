//! The measuring half of the end-to-end benchmark; `perfbench/run.py` is
//! the entry point and documents the workloads and metrics.
//!
//! Modes:
//!
//! * `perfbench child <wordcount|matvec|shuffle> <m3r|hadoop> <seed> <0|1> <reps>`
//!   performs one measurement in this fresh process (`1` turns tracing on):
//!   one set-up, one untimed warm-up run of the job chain, then `reps` timed
//!   repetitions of it (at least 1). It prints the measurement as one JSON
//!   object on stdout. A fresh process per measurement keeps allocator and
//!   cache state from leaking between engines and runs, and gives each
//!   measurement its own `VmHWM`.
//! * `perfbench selftest` checks that tracing wraps without changing the
//!   program (see `selftest`).
//!
//! Exit code 1 means a failed job, an oracle mismatch or a failed self-test.

mod layers;
mod probe;
mod runs;
mod selftest;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use runs::{run, EngineKind, Outcome, Size, Spec, Workload};

fn main() -> ExitCode {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["child", workload, engine, seed, traced, reps] => {
            child(workload, engine, seed, traced, reps, start)
        }
        ["selftest"] => match selftest::selftest() {
            Ok(lines) => {
                for l in lines {
                    println!("selftest ok: {l}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("selftest FAILED: {e}");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!(
                "usage: perfbench child <wordcount|matvec|shuffle> <m3r|hadoop> <seed> <0|1> <reps>\n       perfbench selftest"
            );
            ExitCode::from(2)
        }
    }
}

fn child(
    workload: &str,
    engine: &str,
    seed: &str,
    traced: &str,
    reps: &str,
    start: Instant,
) -> ExitCode {
    let workload = match workload {
        "wordcount" => Workload::WordCount,
        "matvec" => Workload::MatVec,
        "shuffle" => Workload::Shuffle,
        other => return bad_arg("workload", other),
    };
    let engine = match engine {
        "m3r" => EngineKind::M3r,
        "hadoop" => EngineKind::Hadoop,
        other => return bad_arg("engine", other),
    };
    let Ok(seed) = seed.parse::<u64>() else {
        return bad_arg("seed", seed);
    };
    let traced = match traced {
        "0" => false,
        "1" => true,
        other => return bad_arg("trace flag", other),
    };
    let reps = match reps.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => return bad_arg("repetition count", reps),
    };
    let spec = Spec {
        engine,
        size: Size::of(workload, false).for_seed(seed),
        seed,
        traced,
        reps,
        keep_output: false,
    };
    let outcome = run(&spec, start);
    println!("{}", to_json(&spec, &outcome));
    if outcome.error.is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn bad_arg(what: &str, got: &str) -> ExitCode {
    eprintln!("unknown {what} {got:?}");
    ExitCode::from(2)
}

fn nums(v: &[f64]) -> String {
    let v: Vec<String> = v.iter().map(|x| num(*x)).collect();
    format!("[{}]", v.join(","))
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// One measurement as a JSON object. `walls` and `cpus` hold every timed
/// repetition's value; `layer` holds the per-layer metrics of the last
/// repetition under their benchmark names, without the engine prefix.
fn to_json(spec: &Spec, o: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let s = &o.snapshot;
    let cpu_s = o.cpus.last().copied().unwrap_or(f64::NAN);
    let job_s: f64 = o.job_walls.iter().sum();
    let mut layer: Vec<(String, f64)> = vec![
        ("engine.job_s".into(), job_s),
        (
            "engine.job_max_s".into(),
            o.job_walls.iter().copied().fold(0.0, f64::max),
        ),
        ("engine.cpu_s".into(), cpu_s),
        ("engine.cpu_util".into(), cpu_s / (job_s * nproc as f64)),
        ("sim.net_bytes".into(), s.net_bytes as f64),
        ("sim.ser_bytes".into(), s.ser_bytes as f64),
        ("sim.deser_bytes".into(), s.deser_bytes as f64),
        ("sim.disk_read_bytes".into(), s.disk_bytes_read as f64),
        ("sim.disk_write_bytes".into(), s.disk_bytes_written as f64),
        ("sim.records_sorted".into(), s.records_sorted as f64),
        ("sim.allocs".into(), s.allocs as f64),
        ("sim.clone_bytes".into(), s.clone_bytes as f64),
        ("sim.task_startups".into(), s.task_startups as f64),
        ("bufpool.hits".into(), o.pool_hits as f64),
        ("bufpool.misses".into(), o.pool_misses as f64),
        (
            "mem.high_watermark_bytes".into(),
            o.mem_high_watermark_bytes as f64,
        ),
    ];
    if let Some((setup, t)) = &o.layers {
        layer.extend([
            ("user.map_s".into(), t.map_s),
            ("user.reduce_s".into(), t.reduce_s),
            ("user.combine_s".into(), t.combine_s),
            ("user.map_records".into(), t.map_records as f64),
            ("user.reduce_groups".into(), t.reduce_groups as f64),
            ("dfs.read_s".into(), t.dfs_read_s),
            ("dfs.write_s".into(), t.dfs_write_s),
            ("dfs.meta_s".into(), t.dfs_meta_s),
            ("dfs.read_bytes".into(), t.dfs_read_bytes as f64),
            ("dfs.write_bytes".into(), t.dfs_write_bytes as f64),
            ("dfs.opens".into(), t.dfs_opens as f64),
            ("dfs.creates".into(), t.dfs_creates as f64),
            ("dfs.setup_s".into(), setup.dfs_s()),
            ("engine.other_cpu_s".into(), cpu_s - t.user_s() - t.dfs_s()),
        ]);
    }
    for (phase, secs) in o.phases.iter().flatten() {
        layer.push((format!("phase.{}_sim_s", phase.as_str()), *secs));
    }

    let mut out = String::from("{");
    let mut field = |k: &str, v: String| {
        if out.len() > 1 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":{v}");
    };
    field(
        "engine",
        format!(
            "\"{}\"",
            if spec.engine == EngineKind::M3r {
                "m3r"
            } else {
                "hadoop"
            }
        ),
    );
    field("seed", spec.seed.to_string());
    field("traced", spec.traced.to_string());
    field("nproc", nproc.to_string());
    field("correct", o.error.is_none().to_string());
    field(
        "error",
        o.error.as_deref().map_or("null".into(), |e| {
            format!("\"{}\"", simgrid::trace::json_escape(e))
        }),
    );
    field("attempted", o.attempted.to_string());
    field("failed", o.failed.to_string());
    field("setup_s", num(o.setup_s));
    field("reps", spec.reps.to_string());
    field("warmup_s", num(o.warmup_s));
    field("walls", nums(&o.walls));
    field("cpus", nums(&o.cpus));
    field("peak_rss_mb", num(o.peak_rss_mb));
    field("floor_s", num(o.floor_s));
    field("sim_s", num(o.sim_s()));
    field("sim_bits", format!("\"{:016x}\"", o.sim_s().to_bits()));
    let job_bits: Vec<String> = o
        .results
        .iter()
        .map(|r| format!("\"{:016x}\"", r.sim_time.to_bits()))
        .collect();
    field("job_sim_bits", format!("[{}]", job_bits.join(",")));
    field("snapshot", format!("\"{s:?}\""));
    let sizes: Vec<String> = spec
        .size
        .describe()
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
        .collect();
    field("sizes", format!("{{{}}}", sizes.join(",")));
    field("job_walls", nums(&o.job_walls));
    let layer: Vec<String> = layer
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
        .collect();
    field("layer", format!("{{{}}}", layer.join(",")));
    out.push('}');
    out
}
