//! Sharded, compressed, label-indexed in-memory time-series database.
//!
//! The Prometheus stand-in: series are keyed by metric name plus label
//! set, samples are `(timestamp, value)` pairs kept in time order, and
//! queries select by matchers with instant (latest-at-or-before) or range
//! semantics. Interior locking makes one database shareable between the
//! metric collector and the prediction pipeline, mirroring the paper's
//! workflow where both sides talk to the same Prometheus.
//!
//! At fleet scale ("millions of samples, 100k testbeds") a single locked
//! map stops being a database and starts being a queue, so storage is
//! organised for sustained concurrent ingest:
//!
//! - **Sharding.** Series are distributed over [`TsdbConfig::num_shards`]
//!   independently-locked shards by an FNV-1a hash of `(metric, labels)`
//!   — a fixed hash function, so shard assignment is deterministic across
//!   processes (no per-process `RandomState`). Cross-shard query results
//!   are merged and sorted by label set, so every public result is in
//!   `(metric, labels)` order regardless of shard count (envlint
//!   `hash-iter`-clean).
//! - **Label index.** Inside a shard, series are grouped by metric. Each
//!   metric holds a slot table of `(labels, store)` and two ordered sets
//!   of `(hash, slot)` pairs: the series' identity hash for the write
//!   path, and the hash of every `key=value` label pair — the postings,
//!   the inverted index Prometheus's TSDB keeps, with the slots of one
//!   pair forming one contiguous range. Every query goes through one
//!   selection path: with an `Eq` matcher it walks the shortest of those
//!   matchers' posting lists and tests every matcher on each candidate;
//!   with none it scans only that metric's slots. A query therefore
//!   costs in proportion to the series it selects, not the size of the
//!   database; [`TsdbStats::series_examined`] counts the series it
//!   tested. Keying both sets by hash keeps label-set and string
//!   comparisons out of the tree walks, so a write to an existing series
//!   allocates nothing and a new series pays only for its slot and one
//!   integer entry per label. A hash collision only adds candidates,
//!   which the label comparison or matcher check then rejects.
//!   Retention compacts a metric's slots and rebuilds its index when it
//!   drops a series.
//! - **Compression.** Each series is a [`crate::chunk::SeriesStore`]: an
//!   open head plus Gorilla-compressed sealed chunks
//!   ([`crate::codec`]). Decode is exact to the bit, so turning
//!   compression off ([`TsdbConfig::compress`]) changes memory use, never
//!   results.
//! - **Self-observation.** Sample/series counts are maintained by
//!   per-shard atomics on the write path (`stats()` never walks samples),
//!   out-of-order writes that force a sealed-chunk rewrite are counted,
//!   and append/instant/range latencies land in internal log-bucket
//!   histograms exported through [`TsdbStats`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::chunk::SeriesStore;
use crate::labels::{LabelMatcher, LabelSet};
use crate::locks::TrackedRwLock;

/// One observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Unix-style timestamp (the generators use timestep indices).
    pub timestamp: i64,
    /// Observed value.
    pub value: f64,
}

/// A queryable series (metric, labels, samples).
#[derive(Debug, Clone)]
pub struct Series {
    /// Metric name.
    pub metric: String,
    /// Label set identifying the series.
    pub labels: LabelSet,
    /// Samples in ascending time order.
    pub samples: Vec<Sample>,
}

/// Storage policy for one database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsdbConfig {
    /// Number of independently-locked shards (clamped to at least 1).
    pub num_shards: usize,
    /// Head size (samples) at which a series' open chunk is sealed and
    /// compressed.
    pub seal_after: usize,
    /// Whether to seal at all. `false` keeps every series as a flat
    /// vector — the uncompressed reference configuration used by the
    /// golden tests.
    pub compress: bool,
}

impl Default for TsdbConfig {
    fn default() -> Self {
        TsdbConfig {
            num_shards: 16,
            seal_after: 256,
            compress: true,
        }
    }
}

/// Latency histogram boundaries: half-decade log-scale buckets from 1 µs
/// to 1000 s, in seconds (same shape the obs crate uses for durations).
pub const LATENCY_BUCKETS: [f64; 19] = [
    1e-6, 3.162e-6, 1e-5, 3.162e-5, 1e-4, 3.162e-4, 1e-3, 3.162e-3, 1e-2, 3.162e-2, 1e-1, 3.162e-1,
    1e0, 3.162e0, 1e1, 3.162e1, 1e2, 3.162e2, 1e3,
];

/// Internal atomic latency histogram over [`LATENCY_BUCKETS`].
///
/// The TSDB cannot use `obs::Histogram` (obs depends on this crate), so
/// it keeps its own counters and exports read-only snapshots that obs
/// re-publishes as regular metrics.
#[derive(Debug, Default)]
struct OpLatency {
    /// One slot per bound plus the trailing `+Inf` bucket.
    counts: [AtomicU64; LATENCY_BUCKETS.len() + 1],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

/// Starts a latency measurement.
fn start_timer() -> std::time::Instant {
    // envlint: allow(wall-clock) — self-instrumentation only: the reading feeds latency metrics and never influences stored samples or query results.
    std::time::Instant::now()
}

impl OpLatency {
    fn observe(&self, started: std::time::Instant) {
        let secs = started.elapsed().as_secs_f64();
        let idx = LATENCY_BUCKETS.partition_point(|&b| b < secs);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos
            .fetch_add((secs * 1e9) as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> LatencySnapshot {
        let mut cumulative = Vec::with_capacity(self.counts.len());
        let mut total = 0;
        for c in &self.counts {
            total += c.load(Ordering::Relaxed);
            cumulative.push(total);
        }
        LatencySnapshot {
            cumulative,
            count: self.count.load(Ordering::Relaxed),
            sum_seconds: self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }
}

/// Point-in-time reading of one operation's latency distribution.
///
/// `cumulative` has Prometheus `le` semantics over [`LATENCY_BUCKETS`]:
/// entry `i` counts observations `<= LATENCY_BUCKETS[i]`, with a final
/// `+Inf` entry counting everything.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySnapshot {
    /// Cumulative bucket counts (`LATENCY_BUCKETS.len() + 1` entries).
    pub cumulative: Vec<u64>,
    /// Number of observations.
    pub count: u64,
    /// Sum of observed latencies, in seconds.
    pub sum_seconds: f64,
}

/// Occupancy of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Distinct series in the shard.
    pub series: usize,
    /// Samples in the shard.
    pub samples: u64,
}

/// Point-in-time operation counts, sizes, and self-instrumentation for
/// one database (see [`TimeSeriesDb::stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TsdbStats {
    /// Samples inserted since creation.
    pub inserts: u64,
    /// Queries served since creation (instant, range, and step).
    pub queries: u64,
    /// Series whose labels queries (and [`TimeSeriesDb::series_for`])
    /// tested against their matchers, since creation. A query with an
    /// `Eq` matcher tests only the shortest such matcher's posting list,
    /// so a query selecting by one `Eq` matcher examines exactly the
    /// series it matches.
    pub series_examined: u64,
    /// Writes that landed inside sealed (compressed) territory and
    /// forced a decode/splice/re-seal cycle — misordered scraper traffic
    /// made visible.
    pub out_of_order_inserts: u64,
    /// Current number of distinct series.
    pub num_series: usize,
    /// Current total number of samples (maintained by write-path
    /// counters, O(shards) to read).
    pub num_samples: usize,
    /// Shard count of the database.
    pub num_shards: usize,
    /// Sealed (compressed) chunks across all series.
    pub sealed_chunks: usize,
    /// Bytes the sealed chunks occupy compressed.
    pub sealed_bytes: usize,
    /// Bytes the same sealed samples would occupy uncompressed.
    pub sealed_uncompressed_bytes: usize,
    /// Per-shard occupancy, indexed by shard id.
    pub shards: Vec<ShardStats>,
    /// Append-path latency distribution.
    pub append_latency: LatencySnapshot,
    /// Instant-query latency distribution.
    pub instant_latency: LatencySnapshot,
    /// Range-query latency distribution (range and step queries).
    pub range_latency: LatencySnapshot,
}

impl TsdbStats {
    /// Sealed-chunk compression ratio (uncompressed / compressed bytes);
    /// 1.0 when nothing is sealed yet.
    pub fn compression_ratio(&self) -> f64 {
        if self.sealed_bytes == 0 {
            1.0
        } else {
            self.sealed_uncompressed_bytes as f64 / self.sealed_bytes as f64
        }
    }
}

/// One series in a metric's slot table.
#[derive(Debug)]
struct Slot {
    /// The series' identity hash ([`series_hash`]), the write-path key.
    hash: u64,
    labels: LabelSet,
    store: SeriesStore,
}

/// One metric's series within a shard, with the label index that
/// selects among them.
#[derive(Debug, Default)]
struct MetricSeries {
    /// Slot table; a slot id is an index into it.
    slots: Vec<Slot>,
    /// `(identity hash, slot)` for the write path. A lookup compares
    /// integers, then the labels of the slots sharing that hash (one,
    /// short of a collision), instead of comparing label sets at every
    /// tree level.
    by_hash: BTreeSet<(u64, u32)>,
    /// The postings: `(label-pair hash, slot)` for every label of every
    /// slot ([`pair_hash`]). The slots carrying one pair are one
    /// contiguous, ascending range. A hash collision can only add
    /// candidates, which the query's matcher check then rejects.
    postings: BTreeSet<(u64, u32)>,
}

impl MetricSeries {
    /// The store of the series `labels` (identity hash `hash`), created
    /// on first write.
    fn store_mut(&mut self, hash: u64, labels: &LabelSet) -> &mut SeriesStore {
        let found = slots_under(&self.by_hash, hash)
            .find(|&slot| self.slots[slot as usize].labels == *labels);
        let slot = match found {
            Some(slot) => slot,
            None => self.add(hash, labels.clone(), SeriesStore::default()),
        };
        &mut self.slots[slot as usize].store
    }

    /// Puts a series in the next slot and indexes it.
    fn add(&mut self, hash: u64, labels: LabelSet, store: SeriesStore) -> u32 {
        let slot = self.slots.len() as u32;
        for (key, value) in labels.iter() {
            self.postings.insert((pair_hash(key, value), slot));
        }
        self.by_hash.insert((hash, slot));
        self.slots.push(Slot {
            hash,
            labels,
            store,
        });
        slot
    }

    /// The slots a query must test: the shortest posting list among the
    /// `Eq` matchers, or `None` when there is no `Eq` matcher and every
    /// slot is a candidate.
    fn candidates(&self, matchers: &[LabelMatcher]) -> Option<impl Iterator<Item = u32> + '_> {
        matchers
            .iter()
            .filter_map(|m| match m {
                LabelMatcher::Eq(key, value) => {
                    Some(slots_under(&self.postings, pair_hash(key, value)))
                }
                LabelMatcher::NotEq(..) | LabelMatcher::In(..) => None,
            })
            .min_by_key(|slots| slots.clone().count())
    }

    /// Drops samples before `cutoff`. When that empties a series, the
    /// survivors are re-slotted and the index rebuilt. Returns the number
    /// of samples dropped.
    fn retain_from(&mut self, cutoff: i64) -> usize {
        let mut dropped = 0;
        for slot in &mut self.slots {
            dropped += slot.store.retain_from(cutoff);
        }
        if self.slots.iter().any(|slot| slot.store.is_empty()) {
            let slots = std::mem::take(&mut self.slots);
            *self = MetricSeries::default();
            for slot in slots {
                if !slot.store.is_empty() {
                    self.add(slot.hash, slot.labels, slot.store);
                }
            }
        }
        dropped
    }
}

/// The slots filed under `hash` in a `(hash, slot)` set, ascending.
fn slots_under(set: &BTreeSet<(u64, u32)>, hash: u64) -> impl Iterator<Item = u32> + Clone + '_ {
    set.range((hash, 0)..=(hash, u32::MAX))
        .map(|&(_, slot)| slot)
}

/// One shard's series, keyed by metric.
type ShardMap = BTreeMap<String, MetricSeries>;

/// Series held in one shard.
fn series_in(map: &ShardMap) -> usize {
    map.values().map(|m| m.slots.len()).sum()
}

/// One lock domain: a slice of the keyspace plus its write-path counter.
#[derive(Debug)]
struct Shard {
    series: TrackedRwLock<ShardMap>,
    /// Samples currently stored in this shard, maintained on the write
    /// path so `num_samples` never walks the data.
    samples: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            // All shards share one sanitizer name; cycle detection runs
            // on per-instance ids, so cross-shard nesting is still
            // caught — the name only labels the report.
            series: TrackedRwLock::new("telemetry.tsdb.shard.series", BTreeMap::new()),
            samples: AtomicU64::new(0),
        }
    }

    /// Runs `write` on the store of `(metric, labels)` (identity hash
    /// `hash`) under the shard's write lock, creating the series on first
    /// write. Lookups take borrowed keys, so writing to an existing
    /// series allocates nothing.
    fn write<R>(
        &self,
        hash: u64,
        metric: &str,
        labels: &LabelSet,
        write: impl FnOnce(&mut SeriesStore) -> R,
    ) -> R {
        let mut map = self.series.write();
        let series = match map.get_mut(metric) {
            Some(series) => series,
            None => map.entry(metric.to_owned()).or_default(),
        };
        write(series.store_mut(hash, labels))
    }
}

/// An in-memory TSDB safe for concurrent writers and readers.
///
/// See the module docs for the storage layout. All query results are
/// ordered by `(metric, labels)` independent of shard count, and decode
/// of compressed chunks is bit-exact, so results are identical across
/// any `TsdbConfig`.
#[derive(Debug)]
pub struct TimeSeriesDb {
    config: TsdbConfig,
    shards: Vec<Shard>,
    /// Operation tallies kept as plain atomics so reading them never
    /// contends with the data locks.
    inserts: AtomicU64,
    queries: AtomicU64,
    series_examined: AtomicU64,
    out_of_order: AtomicU64,
    append_latency: OpLatency,
    instant_latency: OpLatency,
    range_latency: OpLatency,
}

impl Default for TimeSeriesDb {
    fn default() -> Self {
        Self::with_config(TsdbConfig::default())
    }
}

/// FNV-1a 64-bit step over a byte string.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Hash of one label pair, the postings key.
fn pair_hash(key: &str, value: &str) -> u64 {
    fnv1a(
        fnv1a(fnv1a(FNV_OFFSET, key.as_bytes()), &[0xfe]),
        value.as_bytes(),
    )
}

/// Identity hash of the series `(metric, labels)`: FNV-1a over the
/// metric and each label pair. It picks the shard and keys the shard's
/// write-path lookup.
fn series_hash(metric: &str, labels: &LabelSet) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, metric.as_bytes());
    for (k, v) in labels.iter() {
        h = fnv1a(h, &[0xff]);
        h = fnv1a(h, k.as_bytes());
        h = fnv1a(h, &[0xfe]);
        h = fnv1a(h, v.as_bytes());
    }
    h
}

impl TimeSeriesDb {
    /// Creates an empty database with the default config (16 shards,
    /// compression on, seal at 256 samples).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty database with an explicit storage policy.
    pub fn with_config(config: TsdbConfig) -> Self {
        let config = TsdbConfig {
            num_shards: config.num_shards.max(1),
            ..config
        };
        TimeSeriesDb {
            shards: (0..config.num_shards).map(|_| Shard::new()).collect(),
            config,
            inserts: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            series_examined: AtomicU64::new(0),
            out_of_order: AtomicU64::new(0),
            append_latency: OpLatency::default(),
            instant_latency: OpLatency::default(),
            range_latency: OpLatency::default(),
        }
    }

    /// The database's storage policy.
    pub fn config(&self) -> &TsdbConfig {
        &self.config
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Deterministic shard index for a series identity. Batch ingest
    /// uses this to group writes so each worker touches exactly one
    /// shard lock.
    pub fn shard_of(&self, metric: &str, labels: &LabelSet) -> usize {
        self.shard_index(series_hash(metric, labels))
    }

    fn shard_index(&self, hash: u64) -> usize {
        (hash % self.shards.len() as u64) as usize
    }

    /// Seal policy handed to the chunk layer on each write.
    fn seal_limit(&self) -> Option<usize> {
        if self.config.compress {
            Some(self.config.seal_after.max(1))
        } else {
            None
        }
    }

    /// Appends a sample to the series `(metric, labels)`, creating it on
    /// first write. Samples may arrive slightly out of order; the series
    /// is kept sorted by timestamp (a duplicate timestamp lands after
    /// its equals).
    pub fn append(&self, metric: &str, labels: &LabelSet, sample: Sample) {
        let timer = start_timer();
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let hash = series_hash(metric, labels);
        let shard = &self.shards[self.shard_index(hash)];
        let outcome = shard.write(hash, metric, labels, |store| {
            store.append(sample, self.seal_limit())
        });
        shard.samples.fetch_add(1, Ordering::Relaxed);
        if outcome.rewrote_sealed {
            self.out_of_order.fetch_add(1, Ordering::Relaxed);
        }
        self.append_latency.observe(timer);
    }

    /// Like [`TimeSeriesDb::append`], but if the series already holds a
    /// sample at exactly `sample.timestamp`, that sample's value is
    /// replaced instead of a duplicate point being inserted. This is the
    /// write primitive for idempotent scrapes: re-scraping the same
    /// registry at the same timestamp converges instead of growing.
    pub fn upsert(&self, metric: &str, labels: &LabelSet, sample: Sample) {
        let timer = start_timer();
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let hash = series_hash(metric, labels);
        let shard = &self.shards[self.shard_index(hash)];
        let outcome = shard.write(hash, metric, labels, |store| {
            store.upsert(sample, self.seal_limit())
        });
        if outcome.inserted {
            shard.samples.fetch_add(1, Ordering::Relaxed);
        }
        if outcome.rewrote_sealed {
            self.out_of_order.fetch_add(1, Ordering::Relaxed);
        }
        self.append_latency.observe(timer);
    }

    /// Appends a whole vector of samples (already time-ordered) at once,
    /// taking the shard lock once for the batch.
    pub fn append_series(&self, metric: &str, labels: &LabelSet, samples: &[Sample]) {
        if samples.is_empty() {
            return;
        }
        let timer = start_timer();
        self.inserts
            .fetch_add(samples.len() as u64, Ordering::Relaxed);
        let hash = series_hash(metric, labels);
        let shard = &self.shards[self.shard_index(hash)];
        let rewrote = shard.write(hash, metric, labels, |store| {
            let mut rewrote = 0u64;
            for &s in samples {
                if store.append(s, self.seal_limit()).rewrote_sealed {
                    rewrote += 1;
                }
            }
            rewrote
        });
        shard
            .samples
            .fetch_add(samples.len() as u64, Ordering::Relaxed);
        if rewrote > 0 {
            self.out_of_order.fetch_add(rewrote, Ordering::Relaxed);
        }
        self.append_latency.observe(timer);
    }

    /// Number of distinct series.
    pub fn num_series(&self) -> usize {
        self.shards
            .iter()
            .map(|s| series_in(&s.series.read()))
            .sum()
    }

    /// Total number of samples across all series. O(shards): read from
    /// the write-path counters, never by walking the data.
    pub fn num_samples(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.samples.load(Ordering::Relaxed) as usize)
            .sum()
    }

    /// The one selection path behind every query: `pick` runs on each
    /// series of `metric` whose labels satisfy every matcher, and its
    /// `Some` results come back sorted by label set, so the output does
    /// not depend on shard count.
    fn select<T>(
        &self,
        metric: &str,
        matchers: &[LabelMatcher],
        mut pick: impl FnMut(&SeriesStore) -> Option<T>,
    ) -> Vec<(LabelSet, T)> {
        let mut out = Vec::new();
        let mut examined = 0u64;
        for shard in &self.shards {
            let map = shard.series.read();
            let Some(series) = map.get(metric) else {
                continue;
            };
            let mut test = |slot: &Slot| {
                examined += 1;
                if slot.labels.matches(matchers) {
                    if let Some(picked) = pick(&slot.store) {
                        out.push((slot.labels.clone(), picked));
                    }
                }
            };
            let candidates = series.candidates(matchers);
            match candidates {
                Some(slots) => slots.for_each(|slot| test(&series.slots[slot as usize])),
                None => series.slots.iter().for_each(test),
            }
        }
        self.series_examined.fetch_add(examined, Ordering::Relaxed);
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Instant query: for every matching series, the latest sample at or
    /// before `at`, in label order.
    pub fn query_instant(
        &self,
        metric: &str,
        matchers: &[LabelMatcher],
        at: i64,
    ) -> Vec<(LabelSet, Sample)> {
        let timer = start_timer();
        self.queries.fetch_add(1, Ordering::Relaxed);
        let out = self.select(metric, matchers, |store| store.latest_at_or_before(at));
        self.instant_latency.observe(timer);
        out
    }

    /// Range query: for every matching series, the samples with
    /// `start <= timestamp <= end`, in `(metric, labels)` order.
    pub fn query_range(
        &self,
        metric: &str,
        matchers: &[LabelMatcher],
        start: i64,
        end: i64,
    ) -> Vec<Series> {
        let timer = start_timer();
        self.queries.fetch_add(1, Ordering::Relaxed);
        let out = self.select(metric, matchers, |store| {
            let samples = store.samples_between(start, end);
            (!samples.is_empty()).then_some(samples)
        });
        self.range_latency.observe(timer);
        into_series(metric, out)
    }

    /// Step-aligned range query (Prometheus-style): for every matching
    /// series, one sample per aligned timestamp `start, start+step, …, ≤
    /// end`, each carrying the latest raw value at or before that instant.
    /// Aligned points before a series' first sample are omitted.
    ///
    /// Downsampling queries like this are how dashboards read a
    /// 15-minute-cadence metric at, say, 1-hour resolution.
    ///
    /// # Panics
    ///
    /// Panics when `step` is zero.
    pub fn query_range_step(
        &self,
        metric: &str,
        matchers: &[LabelMatcher],
        start: i64,
        end: i64,
        step: i64,
    ) -> Vec<Series> {
        assert!(step > 0, "step must be positive");
        let timer = start_timer();
        self.queries.fetch_add(1, Ordering::Relaxed);
        let out = self.select(metric, matchers, |store| {
            let samples = store.all_samples();
            let mut points = Vec::new();
            let mut t = start;
            while t <= end {
                let idx = samples.partition_point(|s| s.timestamp <= t);
                if idx > 0 {
                    points.push(Sample {
                        timestamp: t,
                        value: samples[idx - 1].value,
                    });
                }
                t += step;
            }
            (!points.is_empty()).then_some(points)
        });
        self.range_latency.observe(timer);
        into_series(metric, out)
    }

    /// Applies a retention policy: drops every sample with
    /// `timestamp < cutoff` and removes series left empty. Sealed chunks
    /// wholly below the cutoff are discarded without decoding. Returns
    /// the number of samples dropped.
    pub fn retain_from(&self, cutoff: i64) -> usize {
        let mut total = 0usize;
        for shard in &self.shards {
            let mut map = shard.series.write();
            let mut dropped = 0usize;
            map.retain(|_, series| {
                dropped += series.retain_from(cutoff);
                !series.slots.is_empty()
            });
            shard.samples.fetch_sub(dropped as u64, Ordering::Relaxed);
            total += dropped;
        }
        total
    }

    /// Operation counts, sizes, compression accounting, and latency
    /// distributions, for the observability layer's `tsdb_*` metrics.
    ///
    /// Counter reads are O(shards); the sealed-chunk accounting walks
    /// series headers (never samples), O(num_series).
    pub fn stats(&self) -> TsdbStats {
        let mut shards = Vec::with_capacity(self.shards.len());
        let mut sealed_chunks = 0;
        let mut sealed_bytes = 0;
        let mut sealed_uncompressed_bytes = 0;
        for shard in &self.shards {
            let map = shard.series.read();
            for slot in map.values().flat_map(|m| &m.slots) {
                sealed_chunks += slot.store.sealed_chunks();
                sealed_bytes += slot.store.compressed_bytes();
                sealed_uncompressed_bytes += slot.store.sealed_uncompressed_bytes();
            }
            shards.push(ShardStats {
                series: series_in(&map),
                samples: shard.samples.load(Ordering::Relaxed),
            });
        }
        TsdbStats {
            inserts: self.inserts.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            series_examined: self.series_examined.load(Ordering::Relaxed),
            out_of_order_inserts: self.out_of_order.load(Ordering::Relaxed),
            num_series: shards.iter().map(|s| s.series).sum(),
            num_samples: shards.iter().map(|s| s.samples as usize).sum(),
            num_shards: self.shards.len(),
            sealed_chunks,
            sealed_bytes,
            sealed_uncompressed_bytes,
            shards,
            append_latency: self.append_latency.snapshot(),
            instant_latency: self.instant_latency.snapshot(),
            range_latency: self.range_latency.snapshot(),
        }
    }

    /// All metric names currently stored, sorted and deduplicated.
    pub fn metric_names(&self) -> Vec<String> {
        let mut names = BTreeSet::new();
        for shard in &self.shards {
            let map = shard.series.read();
            for metric in map.keys() {
                if !names.contains(metric) {
                    names.insert(metric.clone());
                }
            }
        }
        names.into_iter().collect()
    }

    /// All label sets for a metric, sorted.
    pub fn series_for(&self, metric: &str) -> Vec<LabelSet> {
        self.select(metric, &[], |_| Some(()))
            .into_iter()
            .map(|(labels, ())| labels)
            .collect()
    }
}

/// Labelled sample runs of one metric as [`Series`].
fn into_series(metric: &str, picked: Vec<(LabelSet, Vec<Sample>)>) -> Vec<Series> {
    picked
        .into_iter()
        .map(|(labels, samples)| Series {
            metric: metric.to_string(),
            labels,
            samples,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(id: &str) -> LabelSet {
        LabelSet::new().with("env", id)
    }

    fn filled_db() -> TimeSeriesDb {
        let db = TimeSeriesDb::new();
        for t in 0..10 {
            db.append(
                "cpu_usage",
                &env("EM_1"),
                Sample {
                    timestamp: t,
                    value: t as f64 * 10.0,
                },
            );
            db.append(
                "cpu_usage",
                &env("EM_2"),
                Sample {
                    timestamp: t,
                    value: 1.0,
                },
            );
        }
        db.append(
            "mem_usage",
            &env("EM_1"),
            Sample {
                timestamp: 5,
                value: 64.0,
            },
        );
        db
    }

    #[test]
    fn series_and_sample_counts() {
        let db = filled_db();
        assert_eq!(db.num_series(), 3);
        assert_eq!(db.num_samples(), 21);
        assert_eq!(db.metric_names(), vec!["cpu_usage", "mem_usage"]);
        assert_eq!(db.series_for("cpu_usage").len(), 2);
    }

    #[test]
    fn upsert_replaces_at_equal_timestamp_and_inserts_otherwise() {
        let db = TimeSeriesDb::new();
        let s = |t: i64, v: f64| Sample {
            timestamp: t,
            value: v,
        };
        db.upsert("cpu_usage", &env("EM_1"), s(5, 1.0));
        db.upsert("cpu_usage", &env("EM_1"), s(5, 2.0));
        assert_eq!(db.num_samples(), 1, "same timestamp must not duplicate");
        assert_eq!(
            db.query_instant("cpu_usage", &[], 5)[0].1.value,
            2.0,
            "latest upsert wins"
        );
        // Different timestamps insert in sorted position.
        db.upsert("cpu_usage", &env("EM_1"), s(3, 0.5));
        db.upsert("cpu_usage", &env("EM_1"), s(7, 3.0));
        assert_eq!(db.num_samples(), 3);
        let range = db.query_range("cpu_usage", &[], 0, 10);
        let ts: Vec<i64> = range[0].samples.iter().map(|x| x.timestamp).collect();
        assert_eq!(ts, vec![3, 5, 7]);
    }

    #[test]
    fn stats_count_operations_and_sizes() {
        let db = filled_db();
        let s = db.stats();
        assert_eq!(s.inserts, 21);
        assert_eq!(s.queries, 0);
        assert_eq!(s.num_series, 3);
        assert_eq!(s.num_samples, 21);
        assert_eq!(s.out_of_order_inserts, 0);
        assert_eq!(s.num_shards, 16);
        assert_eq!(s.shards.len(), 16);
        assert_eq!(s.shards.iter().map(|sh| sh.series).sum::<usize>(), 3);
        assert_eq!(s.shards.iter().map(|sh| sh.samples).sum::<u64>(), 21);
        assert_eq!(s.append_latency.count, 21, "every append is timed");
        db.query_instant("cpu_usage", &[], 5);
        db.query_range("cpu_usage", &[], 0, 9);
        db.query_range_step("cpu_usage", &[], 0, 9, 2);
        let s = db.stats();
        assert_eq!(s.queries, 3);
        assert_eq!(s.instant_latency.count, 1);
        assert_eq!(s.range_latency.count, 2, "range + step queries");
    }

    #[test]
    fn instant_query_latest_at_or_before() {
        let db = filled_db();
        let res = db.query_instant("cpu_usage", &[LabelMatcher::eq("env", "EM_1")], 7);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].1.value, 70.0);
        // Before the first sample: nothing.
        let res = db.query_instant("cpu_usage", &[LabelMatcher::eq("env", "EM_1")], -1);
        assert!(res.is_empty());
        // Exactly at a timestamp is inclusive.
        let res = db.query_instant("cpu_usage", &[LabelMatcher::eq("env", "EM_1")], 0);
        assert_eq!(res[0].1.value, 0.0);
    }

    #[test]
    fn range_query_bounds_inclusive() {
        let db = filled_db();
        let res = db.query_range("cpu_usage", &[LabelMatcher::eq("env", "EM_1")], 3, 6);
        assert_eq!(res.len(), 1);
        let ts: Vec<i64> = res[0].samples.iter().map(|s| s.timestamp).collect();
        assert_eq!(ts, vec![3, 4, 5, 6]);
        // Empty window yields no series rather than an empty series.
        let res = db.query_range("cpu_usage", &[LabelMatcher::eq("env", "EM_1")], 100, 200);
        assert!(res.is_empty());
    }

    #[test]
    fn matchers_select_series() {
        let db = filled_db();
        let all = db.query_range("cpu_usage", &[], 0, 100);
        assert_eq!(all.len(), 2);
        let not1 = db.query_range(
            "cpu_usage",
            &[LabelMatcher::NotEq("env".into(), "EM_1".into())],
            0,
            100,
        );
        assert_eq!(not1.len(), 1);
        assert_eq!(not1[0].labels.get("env"), Some("EM_2"));
    }

    #[test]
    fn step_query_downsamples_and_carries_last_value() {
        let db = filled_db();
        // cpu_usage for EM_1 has samples at t = 0..9, value = 10 t.
        let res = db.query_range_step("cpu_usage", &[LabelMatcher::eq("env", "EM_1")], 0, 9, 3);
        assert_eq!(res.len(), 1);
        let pts: Vec<(i64, f64)> = res[0]
            .samples
            .iter()
            .map(|s| (s.timestamp, s.value))
            .collect();
        assert_eq!(pts, vec![(0, 0.0), (3, 30.0), (6, 60.0), (9, 90.0)]);
        // Aligned instants past the data carry the last value forward…
        let res = db.query_range_step("cpu_usage", &[LabelMatcher::eq("env", "EM_1")], 8, 20, 5);
        let pts: Vec<(i64, f64)> = res[0]
            .samples
            .iter()
            .map(|s| (s.timestamp, s.value))
            .collect();
        assert_eq!(pts, vec![(8, 80.0), (13, 90.0), (18, 90.0)]);
        // …and instants before the first sample are omitted (here the
        // aligned instants are -5 and 0; only t = 0 has data).
        let res = db.query_range_step("cpu_usage", &[LabelMatcher::eq("env", "EM_1")], -5, 4, 5);
        let pts: Vec<(i64, f64)> = res[0]
            .samples
            .iter()
            .map(|s| (s.timestamp, s.value))
            .collect();
        assert_eq!(pts, vec![(0, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn step_query_rejects_zero_step() {
        let db = filled_db();
        db.query_range_step("cpu_usage", &[], 0, 10, 0);
    }

    #[test]
    fn retention_drops_old_samples_and_empty_series() {
        let db = filled_db();
        assert_eq!(db.num_samples(), 21);
        // mem_usage only has a sample at t = 5; cutting at 6 removes it.
        let dropped = db.retain_from(6);
        assert_eq!(dropped, 2 * 6 + 1);
        assert_eq!(db.num_samples(), 8);
        assert_eq!(db.metric_names(), vec!["cpu_usage"]);
        // Remaining samples all survive the cutoff.
        for s in db.query_range("cpu_usage", &[], i64::MIN, i64::MAX) {
            assert!(s.samples.iter().all(|x| x.timestamp >= 6));
        }
        // Idempotent at the same cutoff.
        assert_eq!(db.retain_from(6), 0);
    }

    #[test]
    fn series_dropped_by_retention_and_rewritten_is_returned_once() {
        let db = TimeSeriesDb::with_config(TsdbConfig {
            num_shards: 1,
            ..TsdbConfig::default()
        });
        let s = |t: i64| Sample {
            timestamp: t,
            value: t as f64,
        };
        // Slots 0..3 in one metric; retention drops the old EM_0 and EM_2,
        // so EM_1 and EM_3 move to new slots.
        for (i, t) in [(0, 1), (1, 10), (2, 2), (3, 10)] {
            db.append("cpu_usage", &env(&format!("EM_{i}")), s(t));
        }
        assert_eq!(db.retain_from(5), 2);
        db.append("cpu_usage", &env("EM_0"), s(20));
        db.append("cpu_usage", &env("EM_3"), s(21));
        for (id, expected) in [
            ("EM_0", vec![20]),
            ("EM_1", vec![10]),
            ("EM_3", vec![10, 21]),
        ] {
            let got = db.query_range("cpu_usage", &[LabelMatcher::eq("env", id)], 0, 100);
            assert_eq!(got.len(), 1, "{id} must be returned exactly once");
            let ts: Vec<i64> = got[0].samples.iter().map(|x| x.timestamp).collect();
            assert_eq!(ts, expected, "{id}");
        }
        assert!(db
            .query_range("cpu_usage", &[LabelMatcher::eq("env", "EM_2")], 0, 100)
            .is_empty());
        assert_eq!(db.query_range("cpu_usage", &[], 0, 100).len(), 3);
        assert_eq!(db.series_for("cpu_usage").len(), 3);
        let stats = db.stats();
        assert_eq!(db.num_series(), 3);
        assert_eq!(stats.num_series, 3);
        assert_eq!(stats.shards[0].series, 3);
        assert_eq!(db.num_samples(), 4);
        assert_eq!(stats.num_samples, 4);
    }

    #[test]
    fn range_query_examines_only_the_series_it_returns() {
        // 16 metrics x 256 environments = 4096 series over 16 shards.
        let db = TimeSeriesDb::new();
        for m in 0..16 {
            for e in 0..256 {
                let labels =
                    env(&format!("EM_{e:03}")).with("testbed", format!("Testbed_{}", e % 8));
                db.append_series(
                    &format!("cf_{m}"),
                    &labels,
                    &[
                        Sample {
                            timestamp: 0,
                            value: e as f64,
                        },
                        Sample {
                            timestamp: 1,
                            value: m as f64,
                        },
                    ],
                );
            }
        }
        assert_eq!(db.num_series(), 4096);
        let examined = |query: &dyn Fn() -> usize| {
            let before = db.stats().series_examined;
            let returned = query();
            (returned, db.stats().series_examined - before)
        };
        // One `env` matcher: one series tested, one returned.
        let one_env = [LabelMatcher::eq("env", "EM_042")];
        assert_eq!(
            examined(&|| db.query_range("cf_7", &one_env, 0, 1).len()),
            (1, 1)
        );
        // Two `Eq` matchers walk the shorter posting list.
        let both = [
            LabelMatcher::eq("testbed", "Testbed_2"),
            LabelMatcher::eq("env", "EM_042"),
        ];
        assert_eq!(
            examined(&|| db.query_range("cf_7", &both, 0, 1).len()),
            (1, 1)
        );
        let testbed = [LabelMatcher::eq("testbed", "Testbed_2")];
        assert_eq!(
            examined(&|| db.query_instant("cf_7", &testbed, 1).len()),
            (32, 32)
        );
        // An unindexed pair, or an unknown metric, tests nothing.
        let absent = [LabelMatcher::eq("env", "EM_999")];
        assert_eq!(
            examined(&|| db.query_range("cf_7", &absent, 0, 1).len()),
            (0, 0)
        );
        assert_eq!(
            examined(&|| db.query_range("mem_usage", &one_env, 0, 1).len()),
            (0, 0)
        );
        // With no `Eq` matcher only the metric's own series are scanned.
        let not_one = [LabelMatcher::NotEq("env".into(), "EM_042".into())];
        assert_eq!(
            examined(&|| db.query_range_step("cf_7", &not_one, 0, 1, 1).len()),
            (255, 256)
        );
    }

    #[test]
    fn out_of_order_appends_are_sorted() {
        let db = TimeSeriesDb::new();
        for &t in &[5i64, 1, 3, 2, 4] {
            db.append(
                "m",
                &env("E"),
                Sample {
                    timestamp: t,
                    value: t as f64,
                },
            );
        }
        let res = db.query_range("m", &[], 0, 10);
        let ts: Vec<i64> = res[0].samples.iter().map(|s| s.timestamp).collect();
        assert_eq!(ts, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn append_series_bulk() {
        let db = TimeSeriesDb::new();
        let samples: Vec<Sample> = (0..100)
            .map(|t| Sample {
                timestamp: t,
                value: t as f64,
            })
            .collect();
        db.append_series("bulk", &env("E"), &samples);
        assert_eq!(db.num_samples(), 100);
        assert_eq!(db.stats().inserts, 100);
    }

    #[test]
    fn concurrent_writers_do_not_lose_samples() {
        use std::sync::Arc;
        let db = Arc::new(TimeSeriesDb::new());
        let mut handles = Vec::new();
        for w in 0..4 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for t in 0..250 {
                    db.append(
                        "concurrent",
                        &env(&format!("E{w}")),
                        Sample {
                            timestamp: t,
                            value: w as f64,
                        },
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.num_samples(), 1000);
        assert_eq!(db.num_series(), 4);
    }

    /// Fills a database with a deterministic mixed workload.
    fn mixed_workload(db: &TimeSeriesDb) {
        for series in 0..40 {
            let labels = LabelSet::new()
                .with("env", format!("EM_{series}"))
                .with("testbed", format!("Testbed_{}", series % 7));
            for t in 0..600i64 {
                db.append(
                    "cpu_usage",
                    &labels,
                    Sample {
                        timestamp: t * 15,
                        value: ((series * 31 + t as usize * 7) % 100) as f64,
                    },
                );
            }
        }
        // Late, misordered traffic into sealed territory.
        for series in 0..10 {
            let labels = LabelSet::new()
                .with("env", format!("EM_{series}"))
                .with("testbed", format!("Testbed_{}", series % 7));
            db.append(
                "cpu_usage",
                &labels,
                Sample {
                    timestamp: 37,
                    value: 999.0,
                },
            );
        }
    }

    #[test]
    fn results_identical_across_shard_counts_and_compression() {
        let configs = [
            TsdbConfig::default(),
            TsdbConfig {
                num_shards: 1,
                seal_after: 64,
                compress: true,
            },
            TsdbConfig {
                num_shards: 5,
                seal_after: 256,
                compress: false,
            },
        ];
        let dbs: Vec<TimeSeriesDb> = configs
            .iter()
            .map(|&c| {
                let db = TimeSeriesDb::with_config(c);
                mixed_workload(&db);
                db
            })
            .collect();
        let reference = &dbs[0];
        for db in &dbs[1..] {
            for (a, b) in reference
                .query_range("cpu_usage", &[], i64::MIN, i64::MAX)
                .iter()
                .zip(&db.query_range("cpu_usage", &[], i64::MIN, i64::MAX))
            {
                assert_eq!(a.labels, b.labels, "series order must match");
                assert_eq!(a.samples.len(), b.samples.len());
                for (x, y) in a.samples.iter().zip(&b.samples) {
                    assert_eq!(x.timestamp, y.timestamp);
                    assert_eq!(x.value.to_bits(), y.value.to_bits());
                }
            }
            assert_eq!(
                reference.query_instant("cpu_usage", &[], 5000).len(),
                db.query_instant("cpu_usage", &[], 5000).len()
            );
        }
    }

    #[test]
    fn compression_accounting_and_out_of_order_counter() {
        let db = TimeSeriesDb::with_config(TsdbConfig {
            num_shards: 4,
            seal_after: 100,
            compress: true,
        });
        mixed_workload(&db);
        let stats = db.stats();
        assert!(stats.sealed_chunks > 0, "600-sample series must seal");
        assert!(
            stats.compression_ratio() >= 5.0,
            "quantized telemetry must compress at least 5x, got {:.2}",
            stats.compression_ratio()
        );
        assert_eq!(
            stats.out_of_order_inserts, 10,
            "late writes into sealed chunks are counted"
        );
        assert_eq!(stats.num_samples, 40 * 600 + 10);
        // The uncompressed config never seals and never counts.
        let flat = TimeSeriesDb::with_config(TsdbConfig {
            num_shards: 4,
            seal_after: 100,
            compress: false,
        });
        mixed_workload(&flat);
        let fstats = flat.stats();
        assert_eq!(fstats.sealed_chunks, 0);
        assert_eq!(fstats.sealed_bytes, 0);
        assert_eq!(fstats.out_of_order_inserts, 0);
        assert_eq!(fstats.compression_ratio(), 1.0);
    }

    #[test]
    fn shard_assignment_is_deterministic_and_spread() {
        let db = TimeSeriesDb::new();
        let mut used = BTreeSet::new();
        for i in 0..64 {
            let labels = env(&format!("EM_{i}"));
            let a = db.shard_of("cpu_usage", &labels);
            let b = db.shard_of("cpu_usage", &labels);
            assert_eq!(a, b);
            assert!(a < db.num_shards());
            used.insert(a);
        }
        assert!(
            used.len() > db.num_shards() / 2,
            "64 series should touch most of 16 shards, got {}",
            used.len()
        );
    }
}
