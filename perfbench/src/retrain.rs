//! `retrain`: the periodic retrain of the paper's §6.
//!
//! Pooled `train_env2vec` over every chain history of the telecom
//! generator's medium dataset (~52k training rows), with the default
//! `Env2VecConfig`, a fixed epoch count and early stopping disabled, run
//! back to back for the measured window. `nn` and `linalg` do nearly all
//! of the work; `telemetry` and `serve` do none.

use std::time::{Duration, Instant};

use env2vec::config::Env2VecConfig;
use env2vec::dataframe::Dataframe;
use env2vec::train::train_env2vec_observed;
use env2vec::vocab::EmVocabulary;
use env2vec::Env2VecModel;
use env2vec_datagen::telecom::{Execution, TelecomConfig, TelecomDataset};
use env2vec_nn::profile;
use env2vec_nn::trainer::TrainObserver;

use crate::stats::{median, percentile, relative_spread};
use crate::trace::{self, Tracer};
use crate::{Args, Outcome};

/// Epochs per retrain; early stopping never fires (patience is larger).
pub const EPOCHS: usize = 3;
/// Validation share of every execution's rows.
const VAL_FRACTION: f64 = 0.12;

/// Inputs of one run, built from the seed.
pub struct Setup {
    train: Dataframe,
    val: Dataframe,
    vocab: EmVocabulary,
    config: Env2VecConfig,
    /// Time spent in the generator (the `datagen` layer).
    pub datagen: Duration,
}

/// Generates the dataset and the pooled train/validation frames.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let t = Instant::now();
    let dataset = TelecomDataset::generate(TelecomConfig {
        seed,
        ..TelecomConfig::medium()
    });
    let datagen = t.elapsed();
    let config = Env2VecConfig {
        max_epochs: EPOCHS,
        patience: EPOCHS + 1,
        seed,
        ..Env2VecConfig::default()
    };
    let mut vocab = EmVocabulary::telecom();
    let histories = dataset.chains.iter().flat_map(|c| c.history());
    let (train, val) = pooled_split(histories, config.history_window, &mut vocab)?;
    Ok(Setup {
        train,
        val,
        vocab,
        config,
        datagen,
    })
}

/// Splits every execution's frame into train and validation tails and
/// pools them, so each environment appears in both sets.
pub fn pooled_split<'a>(
    executions: impl Iterator<Item = &'a Execution>,
    window: usize,
    vocab: &mut EmVocabulary,
) -> Result<(Dataframe, Dataframe), String> {
    let mut trains = Vec::new();
    let mut vals = Vec::new();
    for ex in executions {
        let frame = Dataframe::from_series(&ex.cf, &ex.cpu, &ex.labels.values(), window, vocab)
            .map_err(|e| format!("dataframe: {e:?}"))?;
        let (t, v) = frame
            .split_validation(VAL_FRACTION)
            .map_err(|e| format!("split: {e:?}"))?;
        trains.push(t);
        vals.push(v);
    }
    let train = Dataframe::concat(&trains).map_err(|e| format!("concat: {e:?}"))?;
    let val = Dataframe::concat(&vals).map_err(|e| format!("concat: {e:?}"))?;
    Ok((train, val))
}

/// Tape profile totals at one instant; zero while the profiler is off.
#[derive(Debug, Default, Clone, Copy)]
struct Tape {
    fwd_ns: u64,
    bwd_ns: u64,
    matmul_ns: u64,
    matmul_flops: u64,
    calls: u64,
    allocs: u64,
}

impl Tape {
    fn now() -> Tape {
        let mut t = Tape::default();
        if !profile::is_enabled() {
            return t;
        }
        for op in profile::snapshot() {
            match op.phase {
                profile::Phase::Forward => t.fwd_ns += op.wall_ns,
                profile::Phase::Backward => t.bwd_ns += op.wall_ns,
            }
            t.calls += op.calls;
            t.allocs += op.allocs;
            if op.op == "MatMul" {
                t.matmul_ns += op.wall_ns;
                t.matmul_flops += op.flops;
            }
        }
        t
    }

    /// What was added between `earlier` and `self`, accumulated into `sum`.
    fn add_since(self, earlier: Tape, sum: &mut Tape) {
        sum.fwd_ns += self.fwd_ns.saturating_sub(earlier.fwd_ns);
        sum.bwd_ns += self.bwd_ns.saturating_sub(earlier.bwd_ns);
        sum.matmul_ns += self.matmul_ns.saturating_sub(earlier.matmul_ns);
        sum.matmul_flops += self.matmul_flops.saturating_sub(earlier.matmul_flops);
        sum.calls += self.calls.saturating_sub(earlier.calls);
        sum.allocs += self.allocs.saturating_sub(earlier.allocs);
    }
}

/// Bench-owned observer: stamps the end of every epoch, with the tape
/// profile totals at that point.
struct EpochClock {
    marks: Vec<(Instant, Tape)>,
}

impl TrainObserver for EpochClock {
    fn on_epoch(&mut self, _epoch: usize, _val_loss: f64, _grad_norm: f64) {
        self.marks.push((Instant::now(), Tape::now()));
    }
}

/// One completed retrain.
struct Retrain {
    /// The whole `train_env2vec` call.
    total: Duration,
    /// Epochs 2..N. Epoch 1 also holds the model's set-up, so it is left
    /// out of every per-epoch figure.
    epochs: Vec<Duration>,
    /// Tape profile of epochs 2..N.
    tape: Tape,
    /// Tape time of epoch 1, in nanoseconds.
    first_tape_ns: u64,
    final_val_loss: u64,
    checksum: u64,
}

/// FNV-1a over the bits of every trained weight, in parameter order.
fn weight_checksum(model: &Env2VecModel) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (_, name, m) in model.params().iter() {
        for b in name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                for b in m.get(r, c).to_bits().to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    h
}

fn retrain_once(s: &Setup, tracer: &mut Tracer) -> Result<Retrain, String> {
    let start = Instant::now();
    let mut clock = EpochClock {
        marks: Vec::with_capacity(EPOCHS),
    };
    let start_tape = Tape::now();
    tracer.begin("core/train_env2vec");
    let trained = train_env2vec_observed(s.config, s.vocab.clone(), &s.train, &s.val, &mut clock);
    let total = start.elapsed();
    let mut epochs = Vec::with_capacity(EPOCHS);
    let mut tape = Tape::default();
    let mut first_tape = Tape::default();
    if let Some(&(first, at)) = clock.marks.first() {
        tracer.record("core/init+epoch1", start, first);
        at.add_since(start_tape, &mut first_tape);
    }
    for pair in clock.marks.windows(2) {
        let ((prev, before), (mark, at)) = (pair[0], pair[1]);
        tracer.record("core/epoch", prev, mark);
        epochs.push(mark - prev);
        at.add_since(before, &mut tape);
    }
    tracer.end();
    let (model, report) = trained.map_err(|e| format!("train_env2vec: {e:?}"))?;
    let last = *report.val_losses.last().ok_or("no epoch completed")?;
    if report.val_losses.len() != EPOCHS || report.stopped_early {
        return Err(format!(
            "ran {} epochs, expected {EPOCHS}",
            report.val_losses.len()
        ));
    }
    if !last.is_finite() {
        return Err(format!("validation loss is {last}"));
    }
    Ok(Retrain {
        total,
        epochs,
        tape,
        first_tape_ns: first_tape.fwd_ns + first_tape.bwd_ns,
        final_val_loss: last.to_bits(),
        checksum: weight_checksum(&model),
    })
}

/// Retrains until `window` has passed; every retrain of one seed must
/// end bit-identical to the first.
fn measure(s: &Setup, window: Duration, tracer: &mut Tracer) -> (Vec<Retrain>, u64, Vec<String>) {
    let mut done: Vec<Retrain> = Vec::new();
    let mut failed = 0;
    let mut errors = Vec::new();
    let start = Instant::now();
    while start.elapsed() < window {
        match retrain_once(s, tracer) {
            Ok(r) => {
                if let Some(first) = done.first() {
                    if (first.final_val_loss, first.checksum) != (r.final_val_loss, r.checksum) {
                        failed += 1;
                        errors.push(format!(
                            "retrain not bit-identical: val loss {:016x}/{:016x}, weights {:016x}/{:016x}",
                            first.final_val_loss, r.final_val_loss, first.checksum, r.checksum
                        ));
                        continue;
                    }
                }
                done.push(r);
            }
            Err(e) => {
                failed += 1;
                errors.push(e);
            }
        }
    }
    (done, failed, errors)
}

fn epoch_ms(runs: &[Retrain]) -> Vec<f64> {
    let mut v: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.epochs.iter().map(|d| d.as_secs_f64() * 1e3))
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Runs the workload and reports end-to-end or per-layer metrics.
pub fn run(args: &Args, s: &Setup, out: &mut Outcome) {
    let window = args.window();
    if !args.trace {
        let mut off = Tracer::new(false, Instant::now());
        let (runs, failed, errors) = measure(s, window, &mut off);
        out.absorb(runs.len() as u64 + failed, failed, errors);
        let epochs = epoch_ms(&runs);
        let p50 = percentile(&epochs, 50.0).unwrap_or(f64::INFINITY);
        // Rows trained per second in the median epoch (its validation
        // pass included): the median resists a few slow seconds.
        let rows = s.train.len() as f64 / (p50 / 1e3);
        out.e2e("throughput_per_s", rows);
        out.e2e("p50_ms", p50);
        out.line(format!(
            "retrain.rows_per_s {rows:.1} rows/s  ({} rows per epoch; {} retrains x {EPOCHS} epochs, epoch 1 left out: it holds the model set-up)",
            s.train.len(),
            runs.len(),
        ));
        let totals: Vec<f64> = runs.iter().map(|r| r.total.as_secs_f64()).collect();
        out.line(format!(
            "retrain.retrain_s {:.3} s  (median of {} whole train_env2vec calls)",
            median(&totals).unwrap_or(0.0),
            runs.len()
        ));
        out.line(format!(
            "retrain.epoch_p50_ms {p50:.1} ms  (n={} epochs, spread across epochs {:.3})",
            epochs.len(),
            relative_spread(&epochs).unwrap_or(0.0)
        ));
        if let Some(r) = runs.first() {
            out.line(format!(
                "retrain.check final_val_loss_bits {:016x} weight_checksum {:016x} (identical across {} retrains)",
                r.final_val_loss,
                r.checksum,
                runs.len()
            ));
        }
        return;
    }

    // Traced run: half the window untraced for the overhead baseline,
    // half with bench spans and the tape profiler on.
    let half = window / 2;
    let mut off = Tracer::new(false, Instant::now());
    let (base, base_failed, errors) = measure(s, half, &mut off);
    out.absorb(base.len() as u64 + base_failed, base_failed, errors);
    profile::reset();
    profile::enable();
    let mut tracer = Tracer::new(true, Instant::now());
    let (traced, failed, errors) = measure(s, half, &mut tracer);
    profile::disable();
    out.absorb(traced.len() as u64 + failed, failed, errors);
    profile::reset();

    // Per-epoch figures cover epochs 2..N of every traced retrain.
    let mut tape = Tape::default();
    for r in &traced {
        r.tape.add_since(Tape::default(), &mut tape);
    }
    let epochs_run = (traced.len() * (EPOCHS - 1)).max(1) as f64;
    let steps_per_epoch = s.train.len().div_ceil(s.config.batch_size) as f64;
    let steps = epochs_run * steps_per_epoch;
    let (fwd_ns, bwd_ns, mm_ns) = (tape.fwd_ns, tape.bwd_ns, tape.matmul_ns);
    let tape_ns = fwd_ns + bwd_ns;
    let totals = trace::totals(std::slice::from_ref(&tracer));
    let train_ns = totals.get("core/train_env2vec").map_or(0, |t| t.total_ns);
    let first_ns = totals.get("core/init+epoch1").map_or(0, |t| t.total_ns);
    let epoch_ns = totals.get("core/epoch").map_or(0, |t| t.total_ns);
    let per_epoch = |ns: u64| ns as f64 / 1e6 / epochs_run;
    let base_epoch = median(&epoch_ms(&base)).unwrap_or(0.0);
    let traced_epoch = median(&epoch_ms(&traced)).unwrap_or(0.0);

    out.layer("retrain.epoch_ms", traced_epoch);
    out.layer("retrain.nn.fwd_ms", per_epoch(fwd_ns));
    out.layer("retrain.nn.bwd_ms", per_epoch(bwd_ns));
    out.layer("retrain.nn.ops_per_step", tape.calls as f64 / steps);
    out.layer("retrain.nn.allocs_per_step", tape.allocs as f64 / steps);
    out.layer(
        "retrain.linalg.matmul_share",
        mm_ns as f64 / tape_ns.max(1) as f64,
    );
    out.layer(
        "retrain.linalg.matmul_gflops",
        tape.matmul_flops as f64 / mm_ns.max(1) as f64,
    );
    // Self time along the blocking path, per epoch: the tape profiler
    // covers nn ops, MatMul is linalg, the rest of an epoch is core.
    out.layer(
        "retrain.self.core_ms",
        per_epoch(epoch_ns.saturating_sub(tape_ns)),
    );
    out.layer("retrain.self.nn_ms", per_epoch(tape_ns - mm_ns));
    out.layer("retrain.self.linalg_ms", per_epoch(mm_ns));
    // Epoch 1 is counted as its measured tape time plus the mean time a
    // later epoch spends outside the tape. The rest of the first span is
    // the model's set-up, which no layer span covers.
    let first_tape_ns: u64 = traced.iter().map(|r| r.first_tape_ns).sum();
    let off_tape_ns = epoch_ns.saturating_sub(tape_ns) as f64 / epochs_run;
    let epoch1_ns = first_tape_ns as f64 + traced.len() as f64 * off_tape_ns;
    out.layer(
        "retrain.unaccounted_share",
        1.0 - (epoch_ns as f64 + epoch1_ns) / train_ns.max(1) as f64,
    );
    out.line(format!(
        "retrain.init_ms {:.1} ms  (per retrain: the first span minus epoch 1's estimate)",
        (first_ns as f64 - epoch1_ns) / traced.len().max(1) as f64 / 1e6
    ));
    out.layer(
        "retrain.trace_overhead_share",
        traced_epoch / base_epoch.max(f64::MIN_POSITIVE) - 1.0,
    );
    out.spans(vec![tracer]);
}
