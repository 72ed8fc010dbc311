//! `screen`: the paper's Fig. 2 loop for new builds.
//!
//! Two workers, each a CI job waiting for its verdict, run closed-loop
//! over one shared TSDB and one shared `AlarmStore`. Per build a worker
//! collects the new execution into the TSDB, reads every execution of
//! the chain back with `read_dataframe`, predicts on ~160-row batches,
//! fits the chain's error distribution, detects, and pushes alarms.
//! Writes and range reads go through `telemetry`, `predict` runs at
//! large batch, and `serve` does no work.
//!
//! The TSDB answers a range query by scanning every series, so its size
//! must not drift during a run. Builds are therefore screened in rounds:
//! each round starts from a fresh TSDB and alarm store holding the
//! chains' history (not timed), then screens every chain's current
//! build once.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use env2vec::anomaly::AnomalyDetector;
use env2vec::config::Env2VecConfig;
use env2vec::dataframe::Dataframe;
use env2vec::pipeline::{
    collect_execution, em_record_id, execution_labels, read_dataframe, screen_new_build,
};
use env2vec::train::train_env2vec;
use env2vec::vocab::EmVocabulary;
use env2vec::Env2VecModel;
use env2vec_datagen::telecom::{BuildChain, Execution, TelecomConfig, TelecomDataset};
use env2vec_nn::profile;
use env2vec_telemetry::alarms::{Alarm, AlarmStore, NewAlarm};
use env2vec_telemetry::discovery::ServiceDiscovery;
use env2vec_telemetry::labels::LabelSet;
use env2vec_telemetry::tsdb::TimeSeriesDb;

use crate::retrain::pooled_split;
use crate::stats::{
    median, percentile, relative_spread, samples_beyond, sliced_percentile, window_percentiles,
};
use crate::trace::{self, Tracer};
use crate::{workers, Args, Outcome};

/// Build chains screened per round.
const CHAINS: usize = 64;
/// Chains generated to pick the screened ones from (see [`setup`]).
const GENERATED: usize = 96;
/// Executions per chain: three history builds and the new one.
const BUILDS: usize = 4;
/// Detector threshold in standard deviations (the paper tries 1–3).
const GAMMA: f64 = 2.0;
/// Percentile printed as the screening tail, over all builds of the run
/// (~8k at this sizing, so ~80 beyond it).
pub const TAIL_PCT: f64 = 99.0;
/// Window length, in screening seconds, of the sliced median.
const SLICE_S: f64 = 2.0;

/// Inputs of one run, built from the seed.
pub struct Setup {
    chains: Vec<BuildChain>,
    /// Generated chains skipped because an EM record id repeated.
    set_aside: usize,
    model: Env2VecModel,
    /// Time spent in the generator (the `datagen` layer).
    pub datagen: Duration,
}

/// Generates the chains and trains the screening model for one epoch on
/// their pooled history.
///
/// The pipeline keys an execution's series by its EM record id
/// (testbed, SUT, test case, build), but the generator can give two
/// chains the same testbed, SUT and test case with overlapping build
/// labels. Two such executions would share TSDB series, so the first
/// [`CHAINS`] chains whose record ids are all unseen are screened, and
/// the number set aside is reported.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let t = Instant::now();
    let dataset = TelecomDataset::generate(TelecomConfig {
        num_chains: GENERATED,
        builds_per_chain: BUILDS,
        seed,
        ..TelecomConfig::medium()
    });
    let datagen = t.elapsed();
    let mut seen = std::collections::BTreeSet::new();
    let mut chains = Vec::with_capacity(CHAINS);
    let mut set_aside = 0;
    for chain in dataset.chains {
        if chains.len() == CHAINS {
            break;
        }
        let ids: Vec<String> = chain.executions.iter().map(em_record_id).collect();
        if ids.iter().any(|id| seen.contains(id)) {
            set_aside += 1;
            continue;
        }
        seen.extend(ids);
        chains.push(chain);
    }
    if chains.len() < CHAINS {
        return Err(format!(
            "only {} chains with distinct EM record ids",
            chains.len()
        ));
    }
    let config = Env2VecConfig {
        max_epochs: 1,
        seed,
        ..Env2VecConfig::default()
    };
    let mut vocab = EmVocabulary::telecom();
    let histories = chains.iter().flat_map(|c| c.history());
    let (train, val) = pooled_split(histories, config.history_window, &mut vocab)?;
    let (model, _) =
        train_env2vec(config, vocab, &train, &val).map_err(|e| format!("train: {e:?}"))?;
    Ok(Setup {
        chains,
        set_aside,
        model,
        datagen,
    })
}

/// The fields of an alarm that identify what was found (the id depends
/// on push order across workers, the message is free text).
type AlarmKey = (LabelSet, String, i64, i64, u64, u64, u64);

fn key(a: &Alarm) -> AlarmKey {
    (
        a.env.clone(),
        a.metric.clone(),
        a.start,
        a.end,
        a.gamma.to_bits(),
        a.predicted.to_bits(),
        a.observed.to_bits(),
    )
}

/// Alarms grouped by the `env` label (one EM record per build).
fn by_env(alarms: &[Alarm]) -> BTreeMap<String, Vec<AlarmKey>> {
    let mut out: BTreeMap<String, Vec<AlarmKey>> = BTreeMap::new();
    for a in alarms {
        out.entry(a.env.get("env").unwrap_or_default().to_string())
            .or_default()
            .push(key(a));
    }
    for v in out.values_mut() {
        v.sort();
    }
    out
}

/// The reference: `pipeline::screen_new_build` on every chain, straight
/// from the generated series.
fn expected(s: &Setup) -> Result<BTreeMap<String, Vec<AlarmKey>>, String> {
    let store = AlarmStore::new();
    let detector = AnomalyDetector::new(GAMMA);
    for chain in &s.chains {
        screen_new_build(&s.model, chain, &detector, &store)
            .map_err(|e| format!("screen_new_build: {e:?}"))?;
    }
    Ok(by_env(&store.all()))
}

/// One build through the Fig. 2 loop, reading everything back from the
/// TSDB. Returns the number of alarms pushed.
fn screen_build(
    s: &Setup,
    chain: &BuildChain,
    tsdb: &TimeSeriesDb,
    alarms: &AlarmStore,
    discovery: &mut ServiceDiscovery,
    tracer: &mut Tracer,
) -> Result<usize, String> {
    let model = &s.model;
    let window = model.config.history_window;
    let current = chain.current();
    tracer.time("telemetry/ingest", || {
        collect_execution(tsdb, discovery, current)
    });
    let mut read = |ex: &Execution| {
        tracer
            .time("telemetry/read", || {
                read_dataframe(tsdb, ex, window, model.vocab())
            })
            .map_err(|e| format!("read_dataframe: {e:?}"))
    };
    let history: Vec<Dataframe> = chain
        .history()
        .iter()
        .map(&mut read)
        .collect::<Result<_, _>>()?;
    let now = read(current)?;
    let mut predicted_hist = Vec::new();
    let mut observed_hist = Vec::new();
    for df in &history {
        predicted_hist.extend(
            tracer
                .time("core/predict", || model.predict(df))
                .map_err(|e| format!("predict: {e:?}"))?,
        );
        observed_hist.extend_from_slice(&df.target);
    }
    let predicted = tracer
        .time("core/predict", || model.predict(&now))
        .map_err(|e| format!("predict: {e:?}"))?;
    let detector = AnomalyDetector::new(GAMMA);
    let intervals = tracer
        .time("core/detect", || {
            let dist = AnomalyDetector::fit_error_distribution(&predicted_hist, &observed_hist)?;
            detector.detect(&dist, &predicted, &now.target)
        })
        .map_err(|e| format!("detect: {e:?}"))?;
    let labels = execution_labels(current);
    tracer.time("telemetry/alarm_push", || {
        for iv in &intervals {
            alarms.push(NewAlarm {
                env: labels.clone(),
                metric: "cpu_usage".into(),
                start: (iv.start + window) as i64,
                end: (iv.end - 1 + window) as i64,
                gamma: detector.gamma,
                predicted: iv.predicted_at_peak,
                observed: iv.observed_at_peak,
                message: format!(
                    "cpu_usage deviates from chain baseline on {}",
                    chain.testbed
                ),
            });
        }
    });
    Ok(intervals.len())
}

/// One screened build: chain index, start, latency in ms, and the
/// number of alarms or the error.
type Screened = (usize, Instant, f64, Result<usize, String>);

/// What the measured rounds produced.
#[derive(Default)]
struct Measured {
    /// Build latency in ms; a failed build is infinite.
    latencies: Vec<f64>,
    /// `(screening-time offset s, latency ms)` per build.
    samples: Vec<(f64, f64)>,
    /// Builds per second of each round.
    round_rates: Vec<f64>,
    /// Summed wall time of the screening phases.
    busy: Duration,
    failed: u64,
    alarms: u64,
    rounds: u64,
    errors: Vec<String>,
}

/// Screens rounds until `window` of screening time has passed.
fn measure(
    s: &Setup,
    expected: &BTreeMap<String, Vec<AlarmKey>>,
    window: Duration,
    traced: bool,
) -> (Measured, Vec<Tracer>) {
    let mut m = Measured::default();
    let epoch = Instant::now();
    let mut tracers: Vec<Tracer> = (0..workers()).map(|_| Tracer::new(traced, epoch)).collect();
    while m.busy < window {
        let tsdb = TimeSeriesDb::new();
        let alarms = AlarmStore::new();
        let mut discovery = ServiceDiscovery::new();
        for ex in s.chains.iter().flat_map(|c| c.history()) {
            collect_execution(&tsdb, &mut discovery, ex);
        }
        let next = AtomicUsize::new(0);
        let started = Instant::now();
        let results: Vec<Vec<Screened>> = std::thread::scope(|scope| {
            let handles: Vec<_> = tracers
                .iter_mut()
                .map(|tracer| {
                    let (tsdb, alarms, next) = (&tsdb, &alarms, &next);
                    scope.spawn(move || {
                        let mut discovery = ServiceDiscovery::new();
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(chain) = s.chains.get(i) else { break };
                            let t = Instant::now();
                            tracer.begin("bench/build");
                            let r = screen_build(s, chain, tsdb, alarms, &mut discovery, tracer);
                            tracer.end();
                            done.push((i, t, t.elapsed().as_secs_f64() * 1e3, r));
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_default())
                .collect()
        });
        let round = started.elapsed();
        let offset = m.busy.as_secs_f64();
        m.busy += round;
        m.rounds += 1;
        m.round_rates
            .push(s.chains.len() as f64 / round.as_secs_f64());
        let actual = by_env(&alarms.all());
        let mut screened = 0;
        for (i, t, ms, r) in results.into_iter().flatten() {
            screened += 1;
            let at = offset + t.duration_since(started).as_secs_f64();
            let env = em_record_id(s.chains[i].current());
            let matches = actual.get(&env) == expected.get(&env);
            match r {
                Ok(n) if matches => {
                    m.alarms += n as u64;
                    m.latencies.push(ms);
                    m.samples.push((at, ms));
                }
                Ok(_) => {
                    m.failed += 1;
                    m.latencies.push(f64::INFINITY);
                    m.samples.push((at, f64::INFINITY));
                    m.errors
                        .push(format!("alarms for {env} differ from screen_new_build"));
                }
                Err(e) => {
                    m.failed += 1;
                    m.latencies.push(f64::INFINITY);
                    m.samples.push((at, f64::INFINITY));
                    m.errors.push(e);
                }
            }
        }
        if screened != s.chains.len() {
            m.failed += (s.chains.len() - screened) as u64;
            m.errors.push("a screening worker panicked".to_string());
        }
    }
    m.latencies.sort_by(f64::total_cmp);
    (m, tracers)
}

/// Runs the workload and reports end-to-end or per-layer metrics.
pub fn run(args: &Args, s: &Setup, out: &mut Outcome) {
    let expected = match expected(s) {
        Ok(e) => e,
        Err(e) => {
            out.absorb(1, 1, vec![e]);
            return;
        }
    };
    let reference_alarms: usize = expected.values().map(Vec::len).sum();
    if !args.trace {
        let (m, _) = measure(s, &expected, args.window(), false);
        let builds = m.latencies.len() as u64;
        out.absorb(builds, m.failed, m.errors);
        let per_s = median(&m.round_rates).unwrap_or(0.0);
        let p50 = sliced_percentile(&m.samples, SLICE_S, 50.0).unwrap_or(f64::INFINITY);
        let tail = percentile(&m.latencies, TAIL_PCT).unwrap_or(f64::INFINITY);
        out.e2e("throughput_per_s", per_s);
        out.e2e("p50_ms", p50);
        out.line(format!(
            "screen.builds_per_s {per_s:.2} builds/s  (median over {} rounds of {CHAINS} builds, {} workers; spread across rounds {:.3})",
            m.rounds,
            workers(),
            relative_spread(&m.round_rates).unwrap_or(0.0)
        ));
        let windows = window_percentiles(&m.samples, SLICE_S, 50.0);
        out.line(format!(
            "screen.build_p50_ms {p50:.3} ms  (median of {} windows of {SLICE_S} s, spread across windows {:.3})",
            windows.len(),
            relative_spread(&windows).unwrap_or(0.0)
        ));
        out.line(format!(
            "screen.build_p{TAIL_PCT}_ms {tail:.3} ms  (all {builds} builds, {} beyond it)",
            samples_beyond(m.latencies.len(), TAIL_PCT)
        ));
        out.line(format!(
            "screen.inputs {CHAINS} chains with distinct EM record ids; {} generated chains set aside for a repeated id",
            s.set_aside
        ));
        out.line(format!(
            "screen.check alarms {} per round, equal to screen_new_build's {reference_alarms} in every round",
            m.alarms / m.rounds.max(1)
        ));
        return;
    }

    let half = args.window() / 2;
    let (base, _) = measure(s, &expected, half, false);
    out.absorb(base.latencies.len() as u64, base.failed, base.errors);
    profile::reset();
    profile::enable();
    let (m, tracers) = measure(s, &expected, half, true);
    profile::disable();
    out.absorb(m.latencies.len() as u64, m.failed, m.errors);
    let matmul_ns: u64 = profile::snapshot()
        .iter()
        .filter(|o| o.op == "MatMul")
        .map(|o| o.wall_ns)
        .sum();
    profile::reset();

    let builds = m.latencies.len().max(1) as f64;
    let totals = trace::totals(&tracers);
    let total_ms = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e6 / builds)
    };
    let layers = trace::layer_self_ns(&totals);
    let self_ms = |layer: &str| {
        layers
            .get(layer)
            .map_or(0.0, |&ns| ns as f64 / 1e6 / builds)
    };
    let build_ms = total_ms("bench/build");
    let base_ms = base.latencies.iter().sum::<f64>() / base.latencies.len().max(1) as f64;
    let predict_ms = total_ms("core/predict");
    out.layer("screen.telemetry.ingest_ms", total_ms("telemetry/ingest"));
    out.layer("screen.telemetry.read_ms", total_ms("telemetry/read"));
    out.layer(
        "screen.telemetry.alarm_push_ms",
        total_ms("telemetry/alarm_push"),
    );
    out.layer("screen.core.predict_ms", predict_ms);
    out.layer("screen.core.detect_ms", total_ms("core/detect"));
    out.layer(
        "screen.linalg.matmul_share",
        matmul_ns as f64 / 1e6 / builds / predict_ms.max(f64::MIN_POSITIVE),
    );
    out.layer("screen.self.telemetry_ms", self_ms("telemetry"));
    out.layer("screen.self.core_ms", self_ms("core"));
    out.layer("screen.self.bench_ms", self_ms("bench"));
    out.layer(
        "screen.unaccounted_share",
        self_ms("bench") / build_ms.max(f64::MIN_POSITIVE),
    );
    out.layer(
        "screen.trace_overhead_share",
        build_ms / base_ms.max(f64::MIN_POSITIVE) - 1.0,
    );
    // Reads 0 once generated chains no longer repeat EM record ids.
    out.layer("screen.datagen.chains_set_aside", s.set_aside as f64);
    out.spans(tracers);
}
