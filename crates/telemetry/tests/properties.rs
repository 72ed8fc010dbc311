//! Property-based tests for the telemetry substrate.

use env2vec_telemetry::alarms::{AlarmStore, NewAlarm};
use env2vec_telemetry::codec;
use env2vec_telemetry::discovery::{ScrapeTarget, ServiceDiscovery};
use env2vec_telemetry::labels::{LabelMatcher, LabelSet};
use env2vec_telemetry::tsdb::{Sample, TimeSeriesDb, TsdbConfig};
use proptest::prelude::*;

proptest! {
    /// The Gorilla codec round-trips arbitrary samples bit-for-bit:
    /// any timestamps (unsorted, duplicated, extreme) and any value bit
    /// patterns (including NaNs with payloads, infinities, subnormals).
    #[test]
    fn codec_round_trip_is_bit_exact(
        raw in proptest::collection::vec(
            (i64::MIN..=i64::MAX, u64::MIN..=u64::MAX),
            0..120,
        ),
    ) {
        let samples: Vec<Sample> = raw
            .iter()
            .map(|&(timestamp, bits)| Sample { timestamp, value: f64::from_bits(bits) })
            .collect();
        let encoded = codec::encode(&samples);
        let decoded = codec::decode(&encoded).expect("well-formed stream must decode");
        prop_assert_eq!(decoded.len(), samples.len());
        for (a, b) in samples.iter().zip(&decoded) {
            prop_assert_eq!(a.timestamp, b.timestamp);
            prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }

    /// Sealing/compression never changes what queries return: the same
    /// writes into a compressed and an uncompressed database yield
    /// bit-identical range results, whatever the shard count.
    #[test]
    fn compressed_db_matches_uncompressed(
        raw in proptest::collection::vec((0i64..2000, u64::MIN..=u64::MAX), 1..400),
        num_shards in 1usize..8,
    ) {
        let compressed = TimeSeriesDb::with_config(TsdbConfig {
            num_shards,
            seal_after: 32,
            compress: true,
        });
        let flat = TimeSeriesDb::with_config(TsdbConfig {
            num_shards: 1,
            compress: false,
            ..TsdbConfig::default()
        });
        let labels = LabelSet::new().with("env", "E");
        for &(timestamp, bits) in &raw {
            let s = Sample { timestamp, value: f64::from_bits(bits) };
            compressed.append("m", &labels, s);
            flat.append("m", &labels, s);
        }
        let a = compressed.query_range("m", &[], i64::MIN, i64::MAX);
        let b = flat.query_range("m", &[], i64::MIN, i64::MAX);
        prop_assert_eq!(a.len(), 1);
        prop_assert_eq!(a[0].samples.len(), b[0].samples.len());
        for (x, y) in a[0].samples.iter().zip(&b[0].samples) {
            prop_assert_eq!(x.timestamp, y.timestamp);
            prop_assert_eq!(x.value.to_bits(), y.value.to_bits());
        }
    }

    /// Whatever order samples arrive in, range queries return them sorted
    /// and complete.
    #[test]
    fn tsdb_returns_sorted_complete_series(
        mut timestamps in proptest::collection::vec(0i64..1000, 1..50),
    ) {
        let db = TimeSeriesDb::new();
        let labels = LabelSet::new().with("env", "E");
        for &t in &timestamps {
            db.append("m", &labels, Sample { timestamp: t, value: t as f64 });
        }
        let series = db.query_range("m", &[], i64::MIN, i64::MAX);
        prop_assert_eq!(series.len(), 1);
        let got: Vec<i64> = series[0].samples.iter().map(|s| s.timestamp).collect();
        timestamps.sort_unstable();
        prop_assert_eq!(got, timestamps);
    }

    /// An instant query returns the latest sample at or before the probe,
    /// for any probe point.
    #[test]
    fn tsdb_instant_is_latest_at_or_before(
        timestamps in proptest::collection::btree_set(0i64..500, 1..30),
        probe in -10i64..510,
    ) {
        let db = TimeSeriesDb::new();
        let labels = LabelSet::new().with("env", "E");
        for &t in &timestamps {
            db.append("m", &labels, Sample { timestamp: t, value: t as f64 });
        }
        let res = db.query_instant("m", &[], probe);
        let expected = timestamps.iter().copied().filter(|&t| t <= probe).max();
        match expected {
            None => prop_assert!(res.is_empty()),
            Some(t) => {
                prop_assert_eq!(res.len(), 1);
                prop_assert_eq!(res[0].1.timestamp, t);
            }
        }
    }

    /// Range queries partition cleanly: [a, m] ∪ (m, b] = [a, b].
    #[test]
    fn tsdb_range_partition(
        timestamps in proptest::collection::btree_set(0i64..200, 1..40),
        mid in 0i64..200,
    ) {
        let db = TimeSeriesDb::new();
        let labels = LabelSet::new().with("env", "E");
        for &t in &timestamps {
            db.append("m", &labels, Sample { timestamp: t, value: 1.0 });
        }
        let count = |lo: i64, hi: i64| -> usize {
            db.query_range("m", &[], lo, hi)
                .first()
                .map(|s| s.samples.len())
                .unwrap_or(0)
        };
        prop_assert_eq!(count(0, 199), count(0, mid) + count(mid + 1, 199));
    }

    /// Matchers are consistent: Eq and NotEq partition any series set.
    #[test]
    fn matchers_partition_series(n_series in 1usize..10, probe in 0usize..10) {
        let db = TimeSeriesDb::new();
        for s in 0..n_series {
            let labels = LabelSet::new().with("env", format!("E{s}"));
            db.append("m", &labels, Sample { timestamp: 0, value: 0.0 });
        }
        let key = format!("E{probe}");
        let eq = db.query_range("m", &[LabelMatcher::eq("env", key.clone())], 0, 0).len();
        let ne = db
            .query_range("m", &[LabelMatcher::NotEq("env".into(), key)], 0, 0)
            .len();
        prop_assert_eq!(eq + ne, n_series);
    }

    /// Alarm ids are dense and queries never invent alarms.
    #[test]
    fn alarm_store_id_density(count in 0usize..30) {
        let store = AlarmStore::new();
        for i in 0..count {
            let id = store.push(NewAlarm {
                env: LabelSet::new().with("env", format!("E{}", i % 3)),
                metric: "cpu".into(),
                start: i as i64,
                end: i as i64 + 1,
                gamma: 1.0,
                predicted: 0.0,
                observed: 10.0,
                message: String::new(),
            });
            prop_assert_eq!(id, i as u64);
        }
        prop_assert_eq!(store.len(), count);
        let by_env: usize = (0..3).map(|e| store.by_env_label("env", &format!("E{e}")).len()).sum();
        prop_assert_eq!(by_env, count);
    }

    /// Service-discovery JSON round-trips for arbitrary registrations.
    #[test]
    fn discovery_json_round_trip(envs in proptest::collection::vec("[A-Za-z0-9_]{1,12}", 0..10)) {
        let mut sd = ServiceDiscovery::new();
        for (i, env) in envs.iter().enumerate() {
            sd.register(ScrapeTarget::for_env(format!("10.0.0.{i}:9100"), env.clone()));
        }
        let back = ServiceDiscovery::from_json(&sd.to_json()).unwrap();
        prop_assert_eq!(back, sd);
    }
}

/// Reference for the label index: every series in one flat list, with
/// the write semantics the engine documents and queries answered by a
/// linear scan over all of it.
#[derive(Default)]
struct NaiveDb {
    series: Vec<(String, LabelSet, Vec<Sample>)>,
}

/// Samples as comparable `(timestamp, value bits)` pairs.
type Bits = Vec<(i64, u64)>;

fn bits(samples: &[Sample]) -> Bits {
    samples
        .iter()
        .map(|s| (s.timestamp, s.value.to_bits()))
        .collect()
}

impl NaiveDb {
    fn samples_mut(&mut self, metric: &str, labels: &LabelSet) -> &mut Vec<Sample> {
        let at = match self
            .series
            .iter()
            .position(|(m, l, _)| m == metric && l == labels)
        {
            Some(at) => at,
            None => {
                self.series
                    .push((metric.to_string(), labels.clone(), Vec::new()));
                self.series.len() - 1
            }
        };
        &mut self.series[at].2
    }

    /// Sorted insert; a duplicate timestamp lands after its equals.
    fn append(&mut self, metric: &str, labels: &LabelSet, s: Sample) {
        let samples = self.samples_mut(metric, labels);
        let at = samples.partition_point(|x| x.timestamp <= s.timestamp);
        samples.insert(at, s);
    }

    /// Replaces the first sample at the same timestamp, else inserts.
    fn upsert(&mut self, metric: &str, labels: &LabelSet, s: Sample) {
        let samples = self.samples_mut(metric, labels);
        match samples.iter().position(|x| x.timestamp == s.timestamp) {
            Some(i) => samples[i].value = s.value,
            None => {
                let at = samples.partition_point(|x| x.timestamp < s.timestamp);
                samples.insert(at, s);
            }
        }
    }

    fn retain_from(&mut self, cutoff: i64) -> usize {
        let before: usize = self.series.iter().map(|(_, _, s)| s.len()).sum();
        for (_, _, samples) in &mut self.series {
            samples.retain(|x| x.timestamp >= cutoff);
        }
        self.series.retain(|(_, _, samples)| !samples.is_empty());
        before - self.series.iter().map(|(_, _, s)| s.len()).sum::<usize>()
    }

    /// The series of `metric` matching every matcher, by label set.
    fn select(&self, metric: &str, matchers: &[LabelMatcher]) -> Vec<(&LabelSet, &[Sample])> {
        let mut out: Vec<(&LabelSet, &[Sample])> = self
            .series
            .iter()
            .filter(|(m, l, _)| m == metric && l.matches(matchers))
            .map(|(_, l, s)| (l, s.as_slice()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    fn range(
        &self,
        metric: &str,
        matchers: &[LabelMatcher],
        lo: i64,
        hi: i64,
    ) -> Vec<(LabelSet, Bits)> {
        self.select(metric, matchers)
            .into_iter()
            .map(|(l, s)| {
                let window: Vec<Sample> = s
                    .iter()
                    .copied()
                    .filter(|x| lo <= x.timestamp && x.timestamp <= hi)
                    .collect();
                (l.clone(), bits(&window))
            })
            .filter(|(_, b)| !b.is_empty())
            .collect()
    }

    fn instant(&self, metric: &str, matchers: &[LabelMatcher], at: i64) -> Vec<(LabelSet, Bits)> {
        self.select(metric, matchers)
            .into_iter()
            .filter_map(|(l, s)| {
                let last = s.iter().rev().find(|x| x.timestamp <= at)?;
                Some((l.clone(), bits(&[*last])))
            })
            .collect()
    }

    fn step(
        &self,
        metric: &str,
        matchers: &[LabelMatcher],
        lo: i64,
        hi: i64,
        step: i64,
    ) -> Vec<(LabelSet, Bits)> {
        self.select(metric, matchers)
            .into_iter()
            .map(|(l, s)| {
                let mut points = Vec::new();
                let mut t = lo;
                while t <= hi {
                    if let Some(last) = s.iter().rev().find(|x| x.timestamp <= t) {
                        points.push((t, last.value.to_bits()));
                    }
                    t += step;
                }
                (l.clone(), points)
            })
            .filter(|(_, b)| !b.is_empty())
            .collect()
    }
}

/// Label sets for the index property: missing keys, an empty set, an
/// empty value, values that are prefixes of each other, and a key/value
/// split (`envE=1` vs `env=E1`) that a naive concatenation would confuse.
fn index_label_sets() -> Vec<LabelSet> {
    let env = |v: &str| LabelSet::new().with("env", v);
    vec![
        LabelSet::new(),
        env("E"),
        env("E1"),
        env("E12"),
        env(""),
        env("E").with("testbed", "T"),
        env("E1").with("testbed", "T1"),
        env("E12").with("testbed", "T").with("sut", "S"),
        LabelSet::new().with("testbed", "T"),
        LabelSet::new().with("envE", "1"),
    ]
}

/// Matcher lists covering Eq, NotEq, In, none, absent keys and values,
/// two Eq matchers (intersecting and disjoint), and prefix values.
fn index_matchers() -> Vec<Vec<LabelMatcher>> {
    let eq = LabelMatcher::eq;
    let ne = |k: &str, v: &str| LabelMatcher::NotEq(k.into(), v.into());
    let any = |k: &str, vs: &[&str]| {
        LabelMatcher::In(k.into(), vs.iter().map(|v| v.to_string()).collect())
    };
    vec![
        vec![],
        vec![eq("env", "E")],
        vec![eq("env", "E1")],
        vec![eq("env", "")],
        vec![eq("envE", "1")],
        vec![eq("testbed", "T")],
        vec![eq("absent", "x")],
        vec![ne("env", "E")],
        vec![ne("absent", "x")],
        vec![any("env", &["E", "E12"])],
        vec![any("env", &[])],
        vec![eq("env", "E1"), eq("testbed", "T1")],
        vec![eq("env", "E"), eq("testbed", "T1")],
        vec![eq("testbed", "T"), eq("env", "E12"), ne("sut", "x")],
        vec![eq("env", "E12"), ne("sut", "S")],
    ]
}

const INDEX_METRICS: [&str; 3] = ["m", "m_2", "cpu"];

fn engine_range(
    db: &TimeSeriesDb,
    metric: &str,
    m: &[LabelMatcher],
    lo: i64,
    hi: i64,
) -> Vec<(LabelSet, Bits)> {
    db.query_range(metric, m, lo, hi)
        .into_iter()
        .map(|s| {
            assert_eq!(s.metric, metric);
            (s.labels, bits(&s.samples))
        })
        .collect()
}

proptest! {
    /// The label-indexed queries (range, instant, step, `series_for`,
    /// `metric_names`) equal a linear filter over a flat reference, bit
    /// for bit, after interleaved `append`/`upsert`/`append_series`/
    /// `retain_from`, at shard counts 1, 5 and 16 with compression on
    /// and off.
    #[test]
    fn indexed_queries_match_linear_filter(
        ops in proptest::collection::vec(
            (
                (0u32..10, 0usize..3, 0usize..10),
                (0i64..100, u64::MIN..=u64::MAX, 1usize..6),
            ),
            1..80,
        ),
    ) {
        let label_sets = index_label_sets();
        let dbs: Vec<TimeSeriesDb> = [1usize, 5, 16]
            .iter()
            .flat_map(|&num_shards| {
                [true, false].map(|compress| {
                    TimeSeriesDb::with_config(TsdbConfig { num_shards, seal_after: 4, compress })
                })
            })
            .collect();
        let mut naive = NaiveDb::default();
        for &((kind, metric, labels), (t, value_bits, len)) in &ops {
            let (metric, labels) = (INDEX_METRICS[metric], &label_sets[labels]);
            let s = Sample { timestamp: t, value: f64::from_bits(value_bits) };
            match kind {
                0..=3 => {
                    naive.append(metric, labels, s);
                    dbs.iter().for_each(|db| db.append(metric, labels, s));
                }
                4..=6 => {
                    naive.upsert(metric, labels, s);
                    dbs.iter().for_each(|db| db.upsert(metric, labels, s));
                }
                7 | 8 => {
                    let run: Vec<Sample> = (0..len as i64)
                        .map(|i| Sample { timestamp: t + i, value: f64::from_bits(value_bits ^ i as u64) })
                        .collect();
                    run.iter().for_each(|&s| naive.append(metric, labels, s));
                    dbs.iter().for_each(|db| db.append_series(metric, labels, &run));
                }
                _ => {
                    let cutoff = t / 3;
                    let dropped = naive.retain_from(cutoff);
                    for db in &dbs {
                        prop_assert_eq!(db.retain_from(cutoff), dropped);
                    }
                }
            }
        }
        let mut names: Vec<String> = naive.series.iter().map(|(m, _, _)| m.clone()).collect();
        names.sort();
        names.dedup();
        for db in &dbs {
            prop_assert_eq!(db.metric_names(), names.clone());
            prop_assert_eq!(db.num_series(), naive.series.len());
            prop_assert_eq!(db.stats().num_series, naive.series.len());
            prop_assert_eq!(
                db.num_samples(),
                naive.series.iter().map(|(_, _, s)| s.len()).sum::<usize>()
            );
            for metric in INDEX_METRICS.iter().chain(&["absent_metric"]) {
                let listed: Vec<LabelSet> =
                    naive.select(metric, &[]).into_iter().map(|(l, _)| l.clone()).collect();
                prop_assert_eq!(db.series_for(metric), listed);
                for m in &index_matchers() {
                    for (lo, hi) in [(i64::MIN, i64::MAX), (10, 40)] {
                        prop_assert_eq!(engine_range(db, metric, m, lo, hi), naive.range(metric, m, lo, hi));
                    }
                    for at in [25, 1000] {
                        let got: Vec<(LabelSet, Bits)> = db
                            .query_instant(metric, m, at)
                            .into_iter()
                            .map(|(l, s)| (l, bits(&[s])))
                            .collect();
                        prop_assert_eq!(got, naive.instant(metric, m, at));
                    }
                    let got: Vec<(LabelSet, Bits)> = db
                        .query_range_step(metric, m, 0, 90, 7)
                        .into_iter()
                        .map(|s| (s.labels, bits(&s.samples)))
                        .collect();
                    prop_assert_eq!(got, naive.step(metric, m, 0, 90, 7));
                }
            }
        }
    }
}
