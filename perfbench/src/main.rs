//! One benchmark for the Env2Vec testing loop.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <retrain|screen|serve_low|serve_high> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a host block and every metric by name and unit, checks the
//! workload's outputs, and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced;
//! with `--trace 1` they are the per-layer ones from a traced run. The
//! process exits 1 when a correctness check fails and 2 on bad usage.
//! See `perfbench/README.md` for why each workload exists and how to
//! read the traced run.

mod host;
mod retrain;
mod screen;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use serde::Value;
use trace::Tracer;

/// The benchmark's definition. Its `end_to_end` and `per_layer` lists
/// name every metric a run prints, with its unit.
const DEFINITION: &str = include_str!("../../BENCHMARK.json");

/// The metric list a run reports, as `(name, unit)` in file order:
/// `per_layer` for the traced run, `end_to_end` for the untraced one.
fn catalog(traced: bool) -> &'static [(String, String)] {
    static LISTS: OnceLock<[Vec<(String, String)>; 2]> = OnceLock::new();
    let lists = LISTS.get_or_init(|| {
        let doc = serde_json::parse_value(DEFINITION).expect("BENCHMARK.json is valid JSON");
        ["end_to_end", "per_layer"].map(|key| match doc.field(key) {
            Ok(Value::Array(list)) => list
                .iter()
                .map(|m| {
                    let text = |k: &str| match m.field(k) {
                        Ok(Value::Str(s)) => s.clone(),
                        other => panic!("BENCHMARK.json {key}: {k} is {other:?}"),
                    };
                    (text("name"), text("unit"))
                })
                .collect(),
            other => panic!("BENCHMARK.json: {key} is {other:?}"),
        })
    });
    &lists[usize::from(traced)]
}

fn listed(traced: bool, name: &str) -> bool {
    catalog(traced).iter().any(|(n, _)| n == name)
}

/// Worker threads and connections: the par pool is pinned to the same
/// count, and no workload drives more load than this.
pub fn workers() -> usize {
    host::nproc().min(2)
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Retrain,
    Screen,
    ServeLow,
    ServeHigh,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Retrain,
        Workload::Screen,
        Workload::ServeLow,
        Workload::ServeHigh,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Retrain => "retrain",
            Workload::Screen => "screen",
            Workload::ServeLow => "serve_low",
            Workload::ServeHigh => "serve_high",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Command-line arguments.
pub struct Args {
    workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

const USAGE: &str = "usage: perfbench --workload <retrain|screen|serve_low|serve_high> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = Workload::parse(get("workload")?)
        .ok_or_else(|| format!("unknown workload {:?}", map["workload"]))?;
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number".to_string())?;
    let seconds = get("seconds")?
        .parse::<u64>()
        .ok()
        .filter(|&s| s >= 1)
        .ok_or("--seconds must be a whole number >= 1")?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    if map.len() != 4 {
        return Err("unknown flag".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
    tracers: Vec<Tracer>,
}

impl Outcome {
    /// Adds operations attempted and failed, with the failures' causes.
    pub fn absorb(&mut self, attempted: u64, failed: u64, errors: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        self.errors.extend(errors);
    }

    /// Records a correctness failure that is not tied to one operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.check(listed(false, name), || {
            format!("{name} is not in BENCHMARK.json")
        });
        self.metrics.insert(name, value);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.check(listed(true, name), || {
            format!("{name} is not in BENCHMARK.json")
        });
        self.metrics.insert(name, value);
    }

    /// Adds a human-readable result line.
    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    /// Hands over the traced run's spans for export.
    pub fn spans(&mut self, tracers: Vec<Tracer>) {
        self.tracers.extend(tracers);
    }
}

/// Runs `build` [`SETUPS`] times (once when tracing) and returns the last
/// result with the median set-up time in seconds.
fn timed_setup<T>(
    args: &Args,
    build: impl Fn(u64) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let reps = if args.trace { 1 } else { SETUPS };
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        // Drop the previous set-up first so each one starts alike.
        drop(last.take());
        let t = Instant::now();
        last = Some(build(args.seed)?);
        times.push(t.elapsed().as_secs_f64());
    }
    let setup = last.ok_or("no set-up ran")?;
    Ok((setup, stats::median(&times).unwrap_or(0.0)))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let par_jobs = || env2vec_obs::metrics().counter("par_jobs_total").get();
    let (setup_s, datagen, jobs) = match args.workload {
        Workload::Retrain => {
            let (s, setup_s) = timed_setup(args, retrain::setup)?;
            let jobs = par_jobs();
            retrain::run(args, &s, &mut out);
            (setup_s, s.datagen, par_jobs() - jobs)
        }
        Workload::Screen => {
            let (s, setup_s) = timed_setup(args, screen::setup)?;
            let jobs = par_jobs();
            screen::run(args, &s, &mut out);
            (setup_s, s.datagen, par_jobs() - jobs)
        }
        Workload::ServeLow | Workload::ServeHigh => {
            let (level, rate) = if args.workload == Workload::ServeLow {
                ("low", serve::LOW_RATE)
            } else {
                ("high", serve::HIGH_RATE)
            };
            let (s, setup_s) = timed_setup(args, serve::setup)?;
            let jobs = par_jobs();
            serve::run(args, &s, level, rate, &mut out);
            (setup_s, s.datagen, par_jobs() - jobs)
        }
    };
    if args.trace {
        out.layer("datagen.generate_ms", datagen.as_secs_f64() * 1e3);
        out.layer("par.jobs_per_op", jobs as f64 / out.attempted.max(1) as f64);
    } else {
        out.e2e("setup_s", setup_s);
        out.line(format!(
            "setup_s {setup_s:.4} s  (median of {SETUPS} set-ups)"
        ));
    }
    Ok(out)
}

/// Formats a metric value; non-finite values (a failed operation in a
/// percentile) become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    env2vec_par::set_threads(workers());
    println!(
        "host: nproc={} threads_used={} cpu_model={:?}",
        host::nproc(),
        workers(),
        host::cpu_model()
    );
    println!(
        "run: workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            std::process::exit(1);
        }
    };
    for line in &out.lines {
        println!("{line}");
    }
    let list = catalog(args.trace);
    let mut metrics = String::new();
    for (i, (name, unit)) in list.iter().enumerate() {
        let value = out.metrics.get(name.as_str()).copied().unwrap_or(0.0);
        println!("metric {name} = {} {unit}", json_number(value));
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    if !out.tracers.is_empty() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "{}-seed{}.trace.json",
            args.workload.name(),
            args.seed
        ));
        match std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::write(&path, trace::chrome_json(&out.tracers)))
        {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    for e in out.errors.iter().take(20) {
        println!("check failed: {e}");
    }
    if out.errors.len() > 20 {
        println!("check failed: … {} more", out.errors.len() - 20);
    }
    let correct = out.errors.is_empty() && out.failed == 0 && out.attempted > 0;
    println!(
        "attempted={} succeeded={} failed={} correct={correct}",
        out.attempted,
        out.attempted - out.failed,
        out.failed
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok =
            parse_args(&argv("--workload screen --seed 7 --seconds 3 --trace 1")).expect("valid");
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::Screen, 7, 3, true)
        );
        for bad in [
            "--workload nope --seed 7 --seconds 3 --trace 0",
            "--workload screen --seed x --seconds 3 --trace 0",
            "--workload screen --seed 7 --seconds 0 --trace 0",
            "--workload screen --seed 7 --seconds 3 --trace 2",
            "--workload screen --seed 7 --seconds 3",
            "--workload screen --seed 7 --seconds 3 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
