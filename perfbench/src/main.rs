//! The repository benchmark: one command that runs a named workload from
//! a seed, checks every output, and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <subgraph|serve|serve_sharded|decode> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root: the metric names, units and order
//! come from `BENCHMARK.json` there. The last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; with
//! `--trace 0` it carries the end-to-end metrics, with `--trace 1` the
//! per-layer ones (a layer the workload does not exercise reads 0). The
//! line before it is the run record: host cores, kernel ISA, git
//! revision, seed, operation counts and every metric measured, under
//! the workload's own names as well. The record and, in traced runs,
//! the spans are also written under `perfbench/target/runs/`.
//!
//! End-to-end metrics, per workload:
//!
//! | metric             | subgraph                                       | serve, serve_sharded     | decode                   |
//! |--------------------|------------------------------------------------|--------------------------|--------------------------|
//! | `latency_p75_ms`   | geomean over graphs of p75 compiled execute    | request p75              | step p75                 |
//! | `latency_tail_ms`  | geomean over graphs of p90 compiled execute    | request p90              | step p90                 |
//! | `throughput_per_s` | compiled executes per second, p75 round        | rows per second          | tokens per second        |
//! | `setup_s`          | compile + build + init                         | load + warm every bucket | load + warm pass         |
//! | `peak_rss_mb`      | peak resident memory of the process            | same                     | same                     |
//!
//! `setup_s` is the median of [`SETUP_REPS`] cold set-ups. Serve and
//! decode latencies and rates are medians over one-second windows of the
//! timed region ([`stats::windowed`]), so CPU steal on a shared host that
//! hits a few windows does not move them.
//!
//! The typical latency is the 75th percentile, not the median. On a
//! shared host an execute either runs at full speed or is slowed by the
//! neighbours, and how often it runs at full speed changes from minute
//! to minute. The median sits between the two modes and follows that
//! share: on the subgraph graphs, on a shared two-vCPU x86 VM, it spread
//! about twice as far from run to run as the 75th or 90th percentile,
//! which sit in the slower mode.
//! The medians are in the run record (`latency_p50_ms`, named
//! `serve_p50_ms` / `decode_step_p50_ms`). For the same reason the
//! subgraph rate is that of the 75th-percentile round over the graphs.
//!
//! The tail is p90: a subgraph run executes each graph a hundred times
//! or more, and p90 is the highest percentile with ten samples beyond it
//! there and in every serve or decode window. Whole-run p99s are in the
//! run record (`latency_p99_ms`, named `serve_p99_ms` /
//! `decode_step_p99_ms`).

mod decode;
mod host;
mod json;
mod rng;
mod serve;
mod stats;
mod subgraph;
mod tiles;
mod trace;

use gc_core::CompileOptions;
use gc_machine::MachineDescriptor;
use gc_microkernel::arch;
use stats::Metrics;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};
use trace::Trace;

/// Width of every engine pool, and the most load threads a workload
/// uses: the two-core budget the benchmark is defined on.
pub const POOL_THREADS: usize = 2;
/// Compiler options of every workload: full optimization for the
/// paper's Xeon model at the benchmark's pool width, and no tuning
/// database, so lowering picks analytic parameters.
pub fn compile_options() -> CompileOptions {
    let mut opts = CompileOptions::new(MachineDescriptor::xeon_8358());
    opts.threads = Some(POOL_THREADS);
    opts
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Window length of the windowed medians (see [`stats::windowed`]).
pub const WINDOW_S: f64 = 1.0;

/// What a span's `key` means, per span name (run-record entry of traced
/// runs).
const TRACE_KEYS: &str = r#"{"compile, baseline.build, init.*, *.execute, graph.*, lowering.lower, tir.compile_module": "subgraph graph index, in the order mlp1_b32_fp32, mlp1_b128_fp32, mlp2_b32_fp32, mha1_b1_fp32, then the same in int8", "run_plan_call": "graph index * 100 + main-call index", "kernel": "tile index in kernel_sweep", "warm.infer": "request rows", "decode_step, step_wait": "live-session slot"}"#;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Subgraph,
    Serve,
    ServeSharded,
    Decode,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "subgraph" => Workload::Subgraph,
            "serve" => Workload::Serve,
            "serve_sharded" => Workload::ServeSharded,
            "decode" => Workload::Decode,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Subgraph => "subgraph",
            Workload::Serve => "serve",
            Workload::ServeSharded => "serve_sharded",
            Workload::Decode => "decode",
        }
    }

    /// The workload's own names for the generic end-to-end metrics.
    fn aliases(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Workload::Subgraph => &[
                ("exec_ms_fp32", "subgraph.exec_ms_fp32"),
                ("exec_ms_int8", "subgraph.exec_ms_int8"),
                ("speedup_fp32", "subgraph.speedup_fp32"),
                ("speedup_int8", "subgraph.speedup_int8"),
            ],
            Workload::Serve | Workload::ServeSharded => &[
                ("serve_rows_s", "throughput_per_s"),
                ("serve_p50_ms", "latency_p50_ms"),
                ("serve_p75_ms", "latency_p75_ms"),
                ("serve_p90_ms", "latency_tail_ms"),
                ("serve_p99_ms", "latency_p99_ms"),
            ],
            Workload::Decode => &[
                ("decode_tok_s", "throughput_per_s"),
                ("decode_step_p50_ms", "latency_p50_ms"),
                ("decode_step_p75_ms", "latency_p75_ms"),
                ("decode_step_p90_ms", "latency_tail_ms"),
                ("decode_step_p99_ms", "latency_p99_ms"),
            ],
        }
    }
}

/// State of one benchmark run, filled in by the workload.
pub struct Run {
    pub seed: u64,
    seconds: u64,
    pub trace: Trace,
    pub metrics: Metrics,
    /// Operations attempted in the timed region.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Output checks made after the timed region.
    pub checks: u64,
    /// Output checks that failed.
    pub check_failures: u64,
    /// Extra run-record members: key and raw JSON value.
    notes: Vec<(String, String)>,
}

impl Run {
    /// Length of the timed region.
    pub fn duration(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    /// Add `raw_json` to the run record under `key`.
    pub fn note(&mut self, key: &str, raw_json: String) {
        self.notes.push((key.to_string(), raw_json));
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace,
    })
}

/// Metric names and units `BENCHMARK.json` declares, per mode.
struct Contract {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn load_contract(path: &Path) -> Result<Contract, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<Vec<(String, String)>, String> {
        doc.get(key)
            .and_then(json::Json::as_array)
            .ok_or_else(|| format!("{}: no {key} list", path.display()))?
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(json::Json::as_str).map(str::to_string);
                field("name")
                    .zip(field("unit"))
                    .ok_or_else(|| format!("{key} entry without name/unit"))
            })
            .collect()
    };
    Ok(Contract {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <subgraph|serve|serve_sharded|decode> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let contract = match load_contract(Path::new("BENCHMARK.json")) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e} (run from the repository root)");
            std::process::exit(1);
        }
    };
    let host = host::HostInfo::current();
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: Trace::new(args.trace),
        metrics: Metrics::default(),
        attempted: 0,
        failed: 0,
        checks: 0,
        check_failures: 0,
        notes: Vec::new(),
    };

    let started = Instant::now();
    let dispatch_before = arch::dispatch_report();
    match args.workload {
        Workload::Subgraph => subgraph::run(&mut run),
        Workload::Serve => serve::run(&mut run, false),
        Workload::ServeSharded => serve::run(&mut run, true),
        Workload::Decode => decode::run(&mut run),
    }
    record_dispatch(&mut run, &dispatch_before);
    run.metrics
        .set_opt("peak_rss_mb", host::peak_rss_mb(), "MB");
    if run.trace.enabled() {
        run.note("trace_keys", TRACE_KEYS.to_string());
        // The same end-to-end numbers, measured with tracing on: their
        // difference from an untraced run is the tracing overhead.
        for (name, _) in &contract.end_to_end {
            if let Some(m) = run.metrics.get(name) {
                run.metrics.set(format!("traced.{name}"), m.value, m.unit);
            }
        }
    }

    let record = run_record(&run, &args, &host, started.elapsed());
    println!("{record}");
    if let Err(e) = write_outputs(&run, &args, &record) {
        eprintln!("perfbench: writing run outputs: {e}");
    }
    let wanted = if args.trace {
        &contract.per_layer
    } else {
        &contract.end_to_end
    };
    match result_line(&run, wanted, !args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Kernel calls per family and backend during the workload, from the
/// process-wide dispatch counters.
fn record_dispatch(run: &mut Run, before: &arch::DispatchReport) {
    let after = arch::dispatch_report();
    for c in &after.counts {
        let prior = before
            .counts
            .iter()
            .find(|b| b.family == c.family && b.isa == c.isa)
            .map_or(0, |b| b.calls);
        run.metrics.set(
            format!("microkernel.calls.{}.{}", c.family.name(), c.isa.name()),
            (c.calls - prior) as f64,
            "count",
        );
    }
}

fn error_rate(run: &Run) -> f64 {
    (run.failed + run.check_failures) as f64 / run.attempted.max(1) as f64
}

fn run_record(run: &Run, args: &Args, host: &host::HostInfo, wall: Duration) -> String {
    let mut r = String::from("{\"run_record\":{");
    let _ = write!(
        r,
        "\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"wall_s\":{},",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        json::num(wall.as_secs_f64()),
    );
    let _ = write!(
        r,
        "\"host\":{{\"cores\":{},\"detected_isa\":\"{}\",\"active_isa\":\"{}\",\"vnni\":{},\"git_rev\":{},\"pool_threads\":{}}},",
        host.cores,
        host.detected_isa,
        host.active_isa,
        host.vnni,
        json::quote(&host.git_rev),
        POOL_THREADS,
    );
    let _ = write!(
        r,
        "\"attempted\":{},\"failed\":{},\"checks\":{},\"check_failures\":{},\"error_rate\":{},",
        run.attempted,
        run.failed,
        run.checks,
        run.check_failures,
        json::num(error_rate(run)),
    );
    r.push_str("\"named\":{");
    let mut named: Vec<(&str, f64, &str)> = args
        .workload
        .aliases()
        .iter()
        .filter_map(|&(alias, src)| run.metrics.get(src).map(|m| (alias, m.value, m.unit)))
        .collect();
    for common in ["setup_s", "peak_rss_mb"] {
        if let Some(m) = run.metrics.get(common) {
            named.push((common, m.value, m.unit));
        }
    }
    named.push(("error_rate", error_rate(run), "ratio"));
    for (i, (name, value, unit)) in named.iter().enumerate() {
        let _ = write!(
            r,
            "{}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            if i == 0 { "" } else { "," },
            json::num(*value),
        );
    }
    r.push_str("},\"metrics\":{");
    for (i, (name, m)) in run.metrics.iter().enumerate() {
        let _ = write!(
            r,
            "{}{}:{{\"value\":{},\"unit\":\"{}\"}}",
            if i == 0 { "" } else { "," },
            json::quote(name),
            json::num(m.value),
            m.unit,
        );
    }
    r.push('}');
    for (key, raw) in &run.notes {
        let _ = write!(r, ",{}:{raw}", json::quote(key));
    }
    r.push_str("}}");
    r
}

/// Save the run record, and the spans of a traced run, under
/// `perfbench/target/runs/`.
fn write_outputs(run: &Run, args: &Args, record: &str) -> std::io::Result<()> {
    let dir = Path::new("perfbench/target/runs");
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(dir.join(format!("{stem}.json")), format!("{record}\n"))?;
    if run.trace.enabled() {
        let n = run.trace.write(&dir.join(format!("{stem}.spans.jsonl")))?;
        eprintln!("perfbench: {n} spans written to {}", dir.display());
    }
    Ok(())
}

/// The final stdout line: the `wanted` metrics in contract order. An
/// end-to-end metric the run did not measure is an error; a per-layer
/// metric of a layer the workload did not exercise reads 0.
fn result_line(run: &Run, wanted: &[(String, String)], end_to_end: bool) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = match run.metrics.get(name) {
            Some(m) if m.unit != unit => {
                return Err(format!(
                    "{name}: measured in {} but BENCHMARK.json says {unit}",
                    m.unit
                ))
            }
            Some(m) if m.value.is_finite() => m.value,
            Some(_) if !end_to_end => 0.0,
            None if !end_to_end => 0.0,
            _ => return Err(format!("end-to-end metric {name} was not measured")),
        };
        let _ = write!(
            metrics,
            "{}{}:{{\"value\":{},\"unit\":{}}}",
            if i == 0 { "" } else { ", " },
            json::quote(name),
            json::num(value),
            json::quote(unit),
        );
    }
    let failed = run.failed + run.check_failures;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        failed == 0,
        run.attempted.max(1),
        failed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_run() -> Run {
        Run {
            seed: 0,
            seconds: 1,
            trace: Trace::new(false),
            metrics: Metrics::default(),
            attempted: 10,
            failed: 0,
            checks: 0,
            check_failures: 0,
            notes: Vec::new(),
        }
    }

    #[test]
    fn contract_lists_every_metric_once_with_a_unit() {
        let c = load_contract(Path::new("../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert!(c.end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
        assert!(c.per_layer.len() <= 128);
        let mut names: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|(n, _)| n.as_str())
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names must be unique");
    }

    #[test]
    fn result_line_zero_fills_unexercised_layers_only() {
        let mut run = empty_run();
        run.metrics.set("a", 1.5, "ms");
        let wanted = vec![
            ("a".to_string(), "ms".to_string()),
            ("b".into(), "ms".into()),
        ];
        let line = result_line(&run, &wanted, false).expect("per-layer line");
        assert!(line.contains("\"b\":{\"value\":0,"), "{line}");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(result_line(&run, &wanted, true).is_err());
        let wrong_unit = vec![("a".to_string(), "s".to_string())];
        assert!(result_line(&run, &wrong_unit, true).is_err());
    }

    #[test]
    fn failed_checks_make_the_run_incorrect() {
        let mut run = empty_run();
        run.check_failures = 2;
        run.metrics.set("a", 1.0, "ms");
        let line = result_line(&run, &[("a".into(), "ms".into())], true).expect("line");
        assert!(line.contains("\"correct\": false") && line.contains("\"failed\": 2"));
        assert!((error_rate(&run) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in [
            Workload::Subgraph,
            Workload::Serve,
            Workload::ServeSharded,
            Workload::Decode,
        ] {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("other"), None);
    }
}
