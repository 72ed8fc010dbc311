//! `serve_low` and `serve_high`: online inference through an in-process
//! `env2vec-serve`.
//!
//! The server holds a telecom-shaped model (default `Env2VecConfig`)
//! published for one environment per testbed of the generator's
//! universe. Requests carry 1–4 rows cut from generated executions, for
//! an environment drawn Zipf-skewed, over two keep-alive connections. A
//! new model version is published every [`PUBLISH_EVERY`] throughout the
//! run, so model-cache reloads (the write) happen beside the reads. Each
//! run has two phases:
//!
//! - a closed-loop phase on both connections, which gives capacity;
//! - an open-loop phase at a fixed rate, `LOW_RATE` (~10% of capacity)
//!   for `serve_low` and `HIGH_RATE` (~45%) for `serve_high`. Each
//!   request is timed from its scheduled send time, and how late the
//!   generator sent it is reported apart.
//!
//! `predict` runs at small batch here, and every lone request waits out
//! the batcher's leader window. The TSDB and training do no work.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use env2vec::config::Env2VecConfig;
use env2vec::dataframe::Dataframe;
use env2vec::serialize::{load_model, save_model};
use env2vec::vocab::EmVocabulary;
use env2vec::Env2VecModel;
use env2vec_datagen::telecom::{TelecomConfig, TelecomDataset};
use env2vec_linalg::Matrix;
use env2vec_serve::http::{HttpConn, HttpError};
use env2vec_serve::loadgen::http_get;
use env2vec_serve::model_cache::ModelCache;
use env2vec_serve::server::{Server, ServerOptions};
use env2vec_serve::{PredictRequest, PredictResponse, PredictRow};
use env2vec_telemetry::registry::RegistryHub;

use crate::stats::{
    highest_supported, median, percentile, relative_spread, samples_beyond, sliced_percentile,
    sliced_rate, window_percentiles, MIN_BEYOND,
};
use crate::trace::{self, Tracer};
use crate::{workers, Args, Outcome};

/// Zipf exponent of the environment choice. An assumption: nothing in
/// the paper or the repository gives the query mix across environments.
const ZIPF_S: f64 = 1.1;
/// Distinct pre-serialised requests, cycled through in order.
const POOL: usize = 4096;
/// Distinct model weights; version `v` serves variant `v % VARIANTS`.
const VARIANTS: usize = 4;
/// Publish cadence: one new version, for the next environment in turn.
/// Each publish stands for one retrain finishing, with the retrainer
/// running back to back and refreshing one environment's model per
/// retrain. It is the median length of one retrain in the `retrain`
/// workload on the 2-vCPU host the benchmark was sized on (see
/// `perfbench/README.md`).
const PUBLISH_EVERY: Duration = Duration::from_millis(2400);
/// Share of the window spent in the closed-loop capacity phase.
const CAPACITY_SHARE: f64 = 0.4;
/// Open-loop rate of `serve_low`, requests/s: ~10% of the closed-loop
/// capacity measured on the sizing host (see `perfbench/README.md`).
pub const LOW_RATE: f64 = 450.0;
/// Open-loop rate of `serve_high`, requests/s: ~45% of that capacity.
pub const HIGH_RATE: f64 = 1800.0;
/// Percentile printed as the serving tail, by window like the median.
pub const TAIL_PCT: f64 = 90.0;
/// Window length for sliced statistics; a window at `LOW_RATE` still
/// holds 45 requests beyond its p90.
const SLICE_S: f64 = 1.0;
/// Window length for the capacity rate.
const CAPACITY_SLICE_S: f64 = 0.5;
/// Requests decomposed one at a time in the traced run.
const PROBES: usize = 400;

/// Small deterministic generator for the request stream (SplitMix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One pre-built request.
struct Req {
    env: usize,
    request: PredictRequest,
    body: String,
}

/// The running server and everything the client sends it.
pub struct Setup {
    server: Server,
    hub: Arc<RegistryHub>,
    blobs: Vec<Vec<u8>>,
    models: Vec<Env2VecModel>,
    envs: Vec<String>,
    reqs: Vec<Req>,
    /// Time spent in the generator (the `datagen` layer).
    pub datagen: Duration,
}

impl Drop for Setup {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

fn env_name(i: usize) -> String {
    format!("env-{i:02}")
}

/// Generates the inputs, builds the model variants, publishes version 1
/// everywhere, starts the server and loads every environment's model
/// into its cache.
pub fn setup(seed: u64) -> Result<Setup, String> {
    // One environment per testbed; environment k is fed from chain k.
    let env_count = TelecomConfig::medium().num_testbeds;
    let t = Instant::now();
    let dataset = TelecomDataset::generate(TelecomConfig {
        num_chains: env_count,
        builds_per_chain: 2,
        seed,
        ..TelecomConfig::medium()
    });
    let datagen = t.elapsed();
    let config = Env2VecConfig::default();
    let window = config.history_window;
    let mut vocab = EmVocabulary::telecom();
    let frames = dataset
        .executions()
        .map(|ex| Dataframe::from_series(&ex.cf, &ex.cpu, &ex.labels.values(), window, &mut vocab))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("dataframe: {e:?}"))?;
    let train = Dataframe::concat(&frames).map_err(|e| format!("concat: {e:?}"))?;
    let mut blobs = Vec::with_capacity(VARIANTS);
    let mut models = Vec::with_capacity(VARIANTS);
    for k in 0..VARIANTS {
        let cfg = Env2VecConfig {
            seed: seed.wrapping_mul(VARIANTS as u64).wrapping_add(k as u64),
            ..config
        };
        let model =
            Env2VecModel::new(cfg, vocab.clone(), &train).map_err(|e| format!("model: {e:?}"))?;
        let blob = save_model(&model);
        // Check solo predictions against the model the server will load.
        models.push(load_model(&blob).map_err(|e| format!("load_model: {e:?}"))?);
        blobs.push(blob.into_bytes());
    }

    let mut rng = Rng(seed ^ 0x5e57e);
    let weights: Vec<f64> = (0..env_count)
        .map(|k| (k as f64 + 1.0).powf(-ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(env_count);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let envs: Vec<String> = (0..env_count).map(env_name).collect();
    let mut reqs = Vec::with_capacity(POOL);
    for _ in 0..POOL {
        let u = rng.unit();
        let env = cdf.partition_point(|&c| c < u).min(env_count - 1);
        let chain = &dataset.chains[env];
        let ex = &chain.executions[rng.below(chain.executions.len())];
        let rows = (0..1 + rng.below(4))
            .map(|_| {
                let t = window + rng.below(ex.len() - window);
                PredictRow {
                    cf: (0..ex.cf.cols()).map(|j| ex.cf.get(t, j)).collect(),
                    history: ex.cpu[t - window..t].to_vec(),
                }
            })
            .collect();
        let request = PredictRequest {
            env: envs[env].clone(),
            em: ex.labels.values().iter().map(|s| s.to_string()).collect(),
            rows,
        };
        let body = serde_json::to_string(&request).map_err(|e| format!("encode: {e:?}"))?;
        reqs.push(Req { env, request, body });
    }

    let hub = Arc::new(RegistryHub::new());
    for name in &envs {
        hub.registry(name)
            .publish("v1", blobs[1 % VARIANTS].clone());
    }
    let server = Server::start(Arc::clone(&hub), ServerOptions::default())
        .map_err(|e| format!("server: {e}"))?;
    let s = Setup {
        server,
        hub,
        blobs,
        models,
        envs,
        reqs,
        datagen,
    };
    let mut client = Client::connect(s.server.addr()).map_err(|e| format!("connect: {e:?}"))?;
    for name in &s.envs {
        let warm = PredictRequest {
            env: name.clone(),
            ..s.reqs[0].request.clone()
        };
        let body = serde_json::to_string(&warm).map_err(|e| format!("encode: {e:?}"))?;
        client.post(&body).map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(s)
}

/// A keep-alive client connection.
struct Client {
    conn: HttpConn<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, HttpError> {
        let stream = TcpStream::connect(addr).map_err(HttpError::Io)?;
        stream.set_nodelay(true).map_err(HttpError::Io)?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(HttpError::Io)?;
        Ok(Client {
            conn: HttpConn::new(stream),
        })
    }

    /// `POST /predict`; returns the served version and predictions.
    fn post(&mut self, body: &str) -> Result<(u64, Vec<f64>), String> {
        let head = format!(
            "POST /predict HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let stream = self.conn.get_mut();
        stream
            .write_all(head.as_bytes())
            .and_then(|_| stream.write_all(body.as_bytes()))
            .map_err(|e| format!("send: {e}"))?;
        let response = self
            .conn
            .read_response()
            .map_err(|e| format!("receive: {e:?}"))?;
        if response.status != 200 {
            return Err(format!("status {}", response.status));
        }
        let parsed: PredictResponse = std::str::from_utf8(&response.body)
            .ok()
            .and_then(|text| serde_json::from_str(text).ok())
            .ok_or("unparseable response")?;
        Ok((parsed.model_version, parsed.predictions))
    }
}

/// One request as the client saw it.
struct Record {
    req: usize,
    /// When it was due (the send time in the closed loop).
    due: Instant,
    sent: Instant,
    done: Instant,
    result: Result<(u64, Vec<f64>), String>,
}

impl Record {
    /// A request that never got a response.
    fn failed(why: String) -> Record {
        let now = Instant::now();
        Record {
            req: 0,
            due: now,
            sent: now,
            done: now,
            result: Err(why),
        }
    }
}

/// A version published during the run, usable from `at` on.
struct Publish {
    env: usize,
    version: u64,
    at: Instant,
}

/// How a phase paces its requests.
#[derive(Clone, Copy)]
enum Pacing {
    Closed,
    Open(f64),
}

/// Drives `workers()` connections for `window` while publishing new
/// versions on the fixed cadence. `first` offsets the request stream so
/// phases do not replay each other.
fn drive(
    s: &Setup,
    pacing: Pacing,
    window: Duration,
    first: usize,
    publishes: &mut Vec<Publish>,
    tracers: &mut [Tracer],
) -> Phase {
    let (stop, stopped) = mpsc::channel::<()>();
    let conns = tracers.len();
    let start = Instant::now();
    let next_env = publishes.len();
    let (records, published) = std::thread::scope(|scope| {
        let publisher = scope.spawn(move || {
            let mut out = Vec::new();
            let mut due = start + PUBLISH_EVERY;
            // Sleeps until the next publish is due; the load ending
            // drops the sender and wakes it at once.
            while let Err(RecvTimeoutError::Timeout) =
                stopped.recv_timeout(due.saturating_duration_since(Instant::now()))
            {
                let env = (next_env + out.len()) % s.envs.len();
                let registry = s.hub.registry(&s.envs[env]);
                let version = registry.latest_version() + 1;
                let v = registry.publish(
                    format!("v{version}"),
                    s.blobs[version as usize % VARIANTS].clone(),
                );
                out.push(Publish {
                    env,
                    version: v,
                    at: Instant::now(),
                });
                due += PUBLISH_EVERY;
            }
            out
        });
        let handles: Vec<_> = tracers
            .iter_mut()
            .enumerate()
            .map(|(c, tracer)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut client = match Client::connect(s.server.addr()) {
                        Ok(client) => client,
                        Err(e) => return vec![Record::failed(format!("connect: {e:?}"))],
                    };
                    for k in 0.. {
                        let g = c + k * conns;
                        let due = match pacing {
                            Pacing::Closed => Instant::now(),
                            Pacing::Open(rate) => start + Duration::from_secs_f64(g as f64 / rate),
                        };
                        if due.duration_since(start) >= window {
                            break;
                        }
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let req = (first + g) % POOL;
                        let sent = Instant::now();
                        tracer.begin("serve/http");
                        let result = client.post(&s.reqs[req].body);
                        tracer.end();
                        let failed = result.is_err();
                        out.push(Record {
                            req,
                            due,
                            sent,
                            done: Instant::now(),
                            result,
                        });
                        if failed {
                            // The connection may be unusable; reconnect.
                            match Client::connect(s.server.addr()) {
                                Ok(fresh) => client = fresh,
                                Err(_) => break,
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        let records: Vec<Record> = handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|_| vec![Record::failed("client thread panicked".to_string())])
            })
            .collect();
        drop(stop);
        (records, publisher.join().unwrap_or_default())
    });
    publishes.extend(published);
    Phase { start, records }
}

/// One load phase: its start and every request it sent.
struct Phase {
    start: Instant,
    records: Vec<Record>,
}

impl Phase {
    /// `(due offset s, latency ms)` per request, latency from the due
    /// time; a failed request is infinite.
    fn samples(&self) -> Vec<(f64, f64)> {
        self.records
            .iter()
            .map(|r| {
                let ms = match r.result {
                    Ok(_) => r.done.duration_since(r.due).as_secs_f64() * 1e3,
                    Err(_) => f64::INFINITY,
                };
                (r.due.duration_since(self.start).as_secs_f64(), ms)
            })
            .collect()
    }

    /// Latencies in ms, sorted.
    fn latencies(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.samples().into_iter().map(|(_, ms)| ms).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Sliced-median latency percentile.
    fn sliced(&self, pct: f64) -> f64 {
        sliced_percentile(&self.samples(), SLICE_S, pct).unwrap_or(f64::INFINITY)
    }
}

fn solo_frame(model: &Env2VecModel, request: &PredictRequest) -> Result<Dataframe, String> {
    let em: Vec<&str> = request.em.iter().map(String::as_str).collect();
    let encoded = model.vocab().encode(&em);
    let cf: Vec<Vec<f64>> = request.rows.iter().map(|r| r.cf.clone()).collect();
    let history: Vec<Vec<f64>> = request.rows.iter().map(|r| r.history.clone()).collect();
    Ok(Dataframe {
        cf: Matrix::from_rows(&cf).map_err(|e| format!("{e:?}"))?,
        history: Matrix::from_rows(&history).map_err(|e| format!("{e:?}"))?,
        em: vec![encoded; request.rows.len()],
        target: vec![0.0; request.rows.len()],
    })
}

/// Checks every response: it succeeded, it was served by a version at
/// least as new as the last one published before the request was sent,
/// and its predictions equal a solo `predict` by that version bit for
/// bit. Returns (failed, errors).
fn check(s: &Setup, records: &[Record], publishes: &[Publish]) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut errors = Vec::new();
    let mut fail = |e: String| {
        failed += 1;
        if errors.len() < 10 {
            errors.push(e);
        }
    };
    for r in records {
        let (version, predictions) = match &r.result {
            Ok(ok) => ok,
            Err(e) => {
                fail(format!("request {} failed: {e}", r.req));
                continue;
            }
        };
        let req = &s.reqs[r.req];
        let floor = publishes
            .iter()
            .filter(|p| p.env == req.env && p.at < r.sent)
            .map(|p| p.version)
            .max()
            .unwrap_or(1);
        if *version < floor {
            fail(format!(
                "{} served version {version} after version {floor} was published",
                s.envs[req.env]
            ));
            continue;
        }
        let model = &s.models[*version as usize % VARIANTS];
        let solo = solo_frame(model, &req.request)
            .and_then(|f| model.predict(&f).map_err(|e| format!("{e:?}")));
        match solo {
            Ok(solo)
                if solo.len() == predictions.len()
                    && solo
                        .iter()
                        .zip(predictions)
                        .all(|(a, b)| a.to_bits() == b.to_bits()) => {}
            Ok(_) => fail(format!("request {} differs from a solo predict", r.req)),
            Err(e) => fail(format!("solo predict: {e}")),
        }
    }
    (failed, errors)
}

/// A counter's value in the server's `/metrics` text.
fn scrape(addr: SocketAddr) -> impl Fn(&str) -> f64 {
    let text = http_get(addr, "/metrics")
        .ok()
        .map(|r| String::from_utf8_lossy(&r.body).into_owned())
        .unwrap_or_default();
    move |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name).and_then(|v| v.strip_prefix(' ')))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0)
    }
}

/// Runs the workload at `rate` (the `level` load, "low" or "high") and
/// reports end-to-end or per-layer metrics.
pub fn run(args: &Args, s: &Setup, level: &str, rate: f64, out: &mut Outcome) {
    let mut publishes = Vec::new();
    let conns = workers();
    let window = args.window();
    let window = if args.trace { window / 2 } else { window };
    let cap_window = window.mul_f64(CAPACITY_SHARE);
    let open_window = window - cap_window;
    let mut off: Vec<Tracer> = (0..conns)
        .map(|_| Tracer::new(false, Instant::now()))
        .collect();

    let closed = drive(s, Pacing::Closed, cap_window, 0, &mut publishes, &mut off);
    let mut done: Vec<f64> = closed
        .records
        .iter()
        .map(|r| r.done.duration_since(closed.start).as_secs_f64())
        .collect();
    done.sort_by(f64::total_cmp);
    let capacity = sliced_rate(&done, CAPACITY_SLICE_S, cap_window.as_secs_f64()).unwrap_or(0.0);
    let open = drive(
        s,
        Pacing::Open(rate),
        open_window,
        closed.records.len(),
        &mut publishes,
        &mut off,
    );
    let p50 = open.sliced(50.0);
    let tail = open.sliced(TAIL_PCT);
    let mut late: Vec<f64> = open
        .records
        .iter()
        .map(|r| r.sent.duration_since(r.due).as_secs_f64() * 1e3)
        .collect();
    late.sort_by(f64::total_cmp);
    let late_p99 = percentile(&late, 99.0).unwrap_or(0.0);
    let sent_per_s = open.records.len() as f64 / open_window.as_secs_f64();

    for phase in [&closed, &open] {
        let (failed, errors) = check(s, &phase.records, &publishes);
        out.absorb(phase.records.len() as u64, failed, errors);
    }

    if !args.trace {
        let lat = open.latencies();
        let pooled = |p: f64| percentile(&lat, p).unwrap_or(f64::INFINITY);
        out.e2e("throughput_per_s", capacity);
        out.e2e("p50_ms", p50);
        out.line(format!(
            "serve.capacity_rps {capacity:.1} req/s  (closed loop, {conns} connections, {} requests, median of {CAPACITY_SLICE_S} s windows)",
            closed.records.len()
        ));
        out.line(format!(
            "serve.{level} open loop: {rate} req/s due, {sent_per_s:.1}/s sent, {} requests, latency from the due time",
            open.records.len()
        ));
        for (pct, v) in [(50.0, p50), (TAIL_PCT, tail)] {
            let windows = window_percentiles(&open.samples(), SLICE_S, pct);
            out.line(format!(
                "serve.{level}.p{pct}_ms {v:.3} ms  (median of {} windows of {SLICE_S} s, spread across windows {:.3})",
                windows.len(),
                relative_spread(&windows).unwrap_or(0.0)
            ));
        }
        out.line(format!(
            "serve.{level}.p99_ms {:.3} ms  (all {} requests, {} beyond it)",
            pooled(99.0),
            lat.len(),
            samples_beyond(lat.len(), 99.0)
        ));
        if let Some(top) = highest_supported(lat.len(), &[99.9, 99.99]) {
            out.line(format!(
                "serve.{level}.p{top}_ms {:.3} ms  (the highest percentile with {MIN_BEYOND} requests beyond it)",
                pooled(top)
            ));
        }
        out.line(format!("serve.client.lateness_p99_ms {late_p99:.3} ms"));
        out.line(format!(
            "serve.check {} versions published during the run; every response bit-identical to a solo predict by the version that served it, none older than the last publish before its send",
            publishes.len()
        ));
        return;
    }

    // Traced half: the same open loop with a client span per request,
    // bracketed by /metrics scrapes for the server's batch and cache
    // counters.
    let epoch = Instant::now();
    let mut tracers: Vec<Tracer> = (0..conns).map(|_| Tracer::new(true, epoch)).collect();
    let before = scrape(s.server.addr());
    let first = closed.records.len() + open.records.len();
    let traced = drive(
        s,
        Pacing::Open(rate),
        open_window,
        first,
        &mut publishes,
        &mut tracers,
    );
    let after = scrape(s.server.addr());
    let (failed, errors) = check(s, &traced.records, &publishes);
    out.absorb(traced.records.len() as u64, failed, errors);
    let delta = |name: &str| after(name) - before(name);
    let traced_p50 = traced.sliced(50.0);

    // Probes: the same requests decomposed one at a time on the idle
    // server — HTTP round trip, in-process `Batcher::predict`, a cache
    // lookup, and a solo `predict` by the cached model.
    let mut probe = Tracer::new(true, epoch);
    let cache = ModelCache::new(Arc::clone(&s.hub));
    for env in &s.envs {
        out.check(cache.get(env).is_ok(), || {
            format!("probe cache could not load {env}")
        });
    }
    let mut client = Client::connect(s.server.addr()).ok();
    let (mut probed, mut disagree) = (0, 0);
    for req in s.reqs.iter().take(PROBES) {
        let Some(c) = client.as_mut() else { break };
        probed += 1;
        let r = probe.time("serve/http", || c.post(&req.body));
        let b = probe.time("serve/batch", || {
            s.server.batcher().predict(req.request.clone())
        });
        let cached = probe.time("serve/model_cache", || cache.get(&req.request.env));
        let solo = cached.map_err(|e| format!("{e:?}")).and_then(|c| {
            let frame = solo_frame(&c.model, &req.request)?;
            probe
                .time("core/predict", || c.model.predict(&frame))
                .map_err(|e| format!("{e:?}"))
        });
        let agree = match (r, b, solo) {
            (Ok((_, a)), Ok((_, b)), Ok(c)) => a
                .iter()
                .zip(&b)
                .zip(&c)
                .all(|((x, y), z)| x.to_bits() == y.to_bits() && y.to_bits() == z.to_bits()),
            _ => false,
        };
        disagree += u64::from(!agree);
    }
    drop(client);
    out.absorb(probed, disagree, Vec::new());
    out.check(probed == PROBES as u64 && disagree == 0, || {
        format!("{probed} probes ran, {disagree} had HTTP, batcher and solo predict disagree")
    });
    // Reloads: publish to a probe environment and time the cold lookup.
    let registry = s.hub.registry("probe");
    for k in 0..8 {
        registry.publish("probe", s.blobs[k % VARIANTS].clone());
        let ok = probe
            .time("serve/model_reload", || cache.get("probe"))
            .is_ok();
        out.check(ok, || "probe reload failed".to_string());
    }

    // Median span duration per probed call, in microseconds.
    let us = |name: &str| {
        let d: Vec<f64> = probe
            .spans()
            .iter()
            .filter(|sp| sp.name == name)
            .map(|sp| (sp.end_ns - sp.start_ns) as f64 / 1e3)
            .collect();
        median(&d).unwrap_or(0.0)
    };
    let (http_us, batch_us) = (us("serve/http"), us("serve/batch"));
    let (get_us, predict_us) = (us("serve/model_cache"), us("core/predict"));
    let hits = delta("serve_model_cache_hits_total");
    let reloads = delta("serve_model_cache_reloads_total");
    out.layer("serve.http.self_us", http_us - batch_us);
    out.layer("serve.batch.wait_us", batch_us - get_us - predict_us);
    out.layer("serve.model_cache.get_us", get_us);
    out.layer("serve.core.predict_us", predict_us);
    out.layer(
        "serve.batch.rows_per_batch",
        delta("serve_batched_rows_total") / delta("serve_batches_total").max(1.0),
    );
    out.layer(
        "serve.model_cache.reload_ms",
        us("serve/model_reload") / 1e3,
    );
    out.layer(
        "serve.model_cache.hit_ratio",
        hits / (hits + reloads).max(1.0),
    );
    out.layer("serve.client.lateness_p99_ms", late_p99);
    out.layer("serve.client.sent_per_s", sent_per_s);
    out.layer(
        "serve.unaccounted_share",
        1.0 - http_us / 1e3 / p50.max(f64::MIN_POSITIVE),
    );
    out.layer(
        "serve.trace_overhead_share",
        traced_p50 / p50.max(f64::MIN_POSITIVE) - 1.0,
    );
    out.line(format!(
        "serve.{level}.p50_ms untraced {p50:.3} ms, traced {traced_p50:.3} ms  (median of {SLICE_S} s windows)"
    ));
    let totals = trace::totals(std::slice::from_ref(&probe));
    for (name, t) in &totals {
        out.line(format!(
            "span {name}: n={} mean {:.1} us",
            t.count,
            t.total_ns as f64 / 1e3 / t.count.max(1) as f64
        ));
    }
    tracers.push(probe);
    out.spans(tracers);
}
