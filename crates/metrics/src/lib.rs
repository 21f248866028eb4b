//! # momsynth-metrics — low-overhead service instruments
//!
//! A small instrument registry in the spirit of Prometheus client
//! libraries, built for the `momsynth serve` daemon and the synthesis
//! inner loop:
//!
//! - **Counters** — monotonically increasing `u64` totals (admissions,
//!   sheds, evaluations).
//! - **Gauges** — instantaneous `i64` levels (queue depth, busy workers).
//! - **Histograms** — fixed-bucket latency/size distributions with
//!   p50/p95/p99 summaries derived from cumulative bucket counts.
//!
//! All hot-path operations are single atomic instructions (the histogram
//! sum is a compare-and-swap loop over the `f64` bit pattern, so the
//! crate stays `unsafe`-free). Handles are cheap clones and can be used
//! from any thread.
//!
//! ## Zero cost when disabled
//!
//! Mirroring the telemetry `Sink` contract, a [`Registry`] constructed
//! with [`Registry::disabled`] hands out *no-op* handles: every
//! instrument carries an `Option<Arc<..>>` that is `None`, so a
//! disabled counter increment is one branch and no memory traffic —
//! exactly zero added work beyond the test.
//!
//! ## Exposure
//!
//! [`Registry::snapshot`] produces a serialisable [`MetricsSnapshot`];
//! [`MetricsSnapshot::to_prometheus`] renders the standard
//! `text/plain; version=0.0.4` exposition format. The serve crate wires
//! the snapshot into its line-JSON protocol (`metrics` request), an HTTP
//! exposition endpoint (`--metrics-listen`) and periodic journal files.
//!
//! [`RunMetrics`] registers the synthesis core-loop families once per
//! registry, and a per-run [`MetricsSink`] re-emits telemetry events
//! (generation counters, phase timings, run summaries) on them, so the
//! synthesis core needs no direct dependency on this crate. Every
//! family goes through one registration routine.

mod sink;

pub use sink::{MetricsSink, RunMetrics};

use std::collections::BTreeMap;

use momsynth_sync::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use momsynth_sync::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

/// Default histogram bucket upper bounds for latencies in seconds:
/// roughly logarithmic from 1 µs to 60 s. A final `+Inf` bucket is
/// implicit in every histogram.
pub const DEFAULT_LATENCY_BOUNDS_S: [f64; 20] = [
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
    5e-2, 0.1, 0.25, 0.5, 1.0, 2.5,
];

/// Longer-tailed bucket bounds for whole-job durations in seconds.
pub const DEFAULT_DURATION_BOUNDS_S: [f64; 14] =
    [0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0, 900.0];

/// Atomically adds `v` onto an `f64` stored as its bit pattern.
fn add_f64(bits: &AtomicU64, v: f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(now) => cur = now,
        }
    }
}

/// Shared state of one histogram series.
#[derive(Debug)]
struct HistCore {
    /// Finite upper bounds, ascending; the `+Inf` bucket is implicit.
    bounds: Vec<f64>,
    /// Per-bucket observation counts; `len() == bounds.len() + 1`.
    counts: Vec<AtomicU64>,
    /// Sum of all observed values, stored as `f64` bits.
    sum_bits: AtomicU64,
    /// Total number of observations.
    count: AtomicU64,
}

impl HistCore {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Self {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: f64) {
        let idx = self.bounds.partition_point(|b| v > *b);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        add_f64(&self.sum_bits, v);
    }
}

/// One registered series' value cell; its variant is the instrument
/// kind, shared by every series of a family.
#[derive(Debug, Clone)]
enum SeriesCell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistCore>),
}

/// One instrument family: a help string and its labelled series.
#[derive(Debug)]
struct Family {
    help: String,
    /// Keyed by the rendered label set (`key="value",...`), which keeps
    /// snapshot and exposition order deterministic.
    series: BTreeMap<String, (Vec<(String, String)>, SeriesCell)>,
}

/// Interior of an enabled [`Registry`].
#[derive(Debug, Default)]
struct Inner {
    families: Mutex<BTreeMap<String, Family>>,
}

/// Renders a label set in its given order: `state="verified"`.
fn label_key(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        // Prometheus label escaping: backslash, double-quote, newline.
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

/// An instrument registry. Cheap to clone; all clones share the same
/// instruments. A registry constructed disabled hands out no-op handles
/// and produces empty snapshots.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl Registry {
    /// An enabled registry.
    pub fn new() -> Self {
        Self { inner: Some(Arc::new(Inner::default())) }
    }

    /// A registry whose handles do nothing. This is the `Default`.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether instruments actually record.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or retrieves) a counter series. Repeated registration
    /// with the same name and labels returns a handle onto the same cell.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let fresh = || SeriesCell::Counter(Arc::new(AtomicU64::new(0)));
        Counter {
            cell: self.register(name, help, labels, fresh).map(|cell| match cell {
                SeriesCell::Counter(c) => c,
                _ => unreachable!("register checks the kind"),
            }),
        }
    }

    /// Registers (or retrieves) a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let fresh = || SeriesCell::Gauge(Arc::new(AtomicI64::new(0)));
        Gauge {
            cell: self.register(name, help, labels, fresh).map(|cell| match cell {
                SeriesCell::Gauge(g) => g,
                _ => unreachable!("register checks the kind"),
            }),
        }
    }

    /// Registers (or retrieves) a histogram series over the given finite
    /// bucket bounds (ascending; `+Inf` is implicit).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        let fresh = || SeriesCell::Histogram(Arc::new(HistCore::new(bounds)));
        Histogram {
            cell: self.register(name, help, labels, fresh).map(|cell| match cell {
                SeriesCell::Histogram(h) => h,
                _ => unreachable!("register checks the kind"),
            }),
        }
    }

    /// The one registration routine: finds or creates family `name` and
    /// its series for `labels`, keeping the cell `fresh` makes when the
    /// series is new. `None`, without calling `fresh`, when the registry
    /// is disabled.
    ///
    /// # Panics
    ///
    /// If `name` is already registered with another kind.
    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        fresh: impl FnOnce() -> SeriesCell,
    ) -> Option<SeriesCell> {
        let inner = self.inner.as_ref()?;
        let fresh = fresh();
        let mut families = inner.families.lock().expect("metrics registry poisoned");
        let family = families
            .entry(name.to_string())
            .or_insert_with(|| Family { help: help.to_string(), series: BTreeMap::new() });
        let kind = std::mem::discriminant(&fresh);
        assert!(
            family.series.values().all(|(_, cell)| std::mem::discriminant(cell) == kind),
            "{name} already registered with another kind"
        );
        let owned = labels.iter().map(|(k, v)| ((*k).to_string(), (*v).to_string())).collect();
        let (_, cell) = family.series.entry(label_key(labels)).or_insert((owned, fresh));
        Some(cell.clone())
    }

    /// A point-in-time copy of every instrument, ready to serialise or
    /// render. Empty when the registry is disabled.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let Some(inner) = &self.inner else { return snap };
        let families = inner.families.lock().expect("metrics registry poisoned");
        for (name, family) in families.iter() {
            for (_, (labels, cell)) in family.series.iter() {
                let labels = labels.clone();
                match cell {
                    SeriesCell::Counter(c) => snap.counters.push(CounterSample {
                        name: name.clone(),
                        help: family.help.clone(),
                        labels,
                        value: c.load(Ordering::Relaxed),
                    }),
                    SeriesCell::Gauge(g) => snap.gauges.push(GaugeSample {
                        name: name.clone(),
                        help: family.help.clone(),
                        labels,
                        value: g.load(Ordering::Relaxed),
                    }),
                    SeriesCell::Histogram(h) => {
                        let counts: Vec<u64> =
                            h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
                        let mut sample = HistogramSample {
                            name: name.clone(),
                            help: family.help.clone(),
                            labels,
                            bounds: h.bounds.clone(),
                            counts,
                            sum: f64::from_bits(h.sum_bits.load(Ordering::Relaxed)),
                            count: h.count.load(Ordering::Relaxed),
                            p50: 0.0,
                            p95: 0.0,
                            p99: 0.0,
                        };
                        sample.p50 = sample.quantile(0.50);
                        sample.p95 = sample.quantile(0.95);
                        sample.p99 = sample.quantile(0.99);
                        snap.histograms.push(sample);
                    }
                }
            }
        }
        snap
    }
}

/// A monotonically increasing counter handle. No-op when its registry
/// was disabled.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            // Seeded bug for the loom mutation check (DESIGN.md §17):
            // a non-atomic read-modify-write loses concurrent
            // increments. `tests/loom.rs` asserts loom catches it.
            #[cfg(loom_mutation)]
            {
                let v = cell.load(Ordering::Relaxed);
                cell.store(v + n, Ordering::Relaxed);
            }
            #[cfg(not(loom_mutation))]
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current total (0 when disabled).
    pub fn value(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// An instantaneous level handle. No-op when its registry was disabled.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicI64>>,
}

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.cell {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Current level (0 when disabled).
    pub fn value(&self) -> i64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram handle. No-op when its registry was
/// disabled.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<HistCore>>,
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: f64) {
        if let Some(cell) = &self.cell {
            cell.observe(v);
        }
    }

    /// Total number of observations (0 when disabled).
    pub fn count(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.count.load(Ordering::Relaxed))
    }
}

/// One counter series in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Family name, e.g. `momsynth_jobs_submitted_total`.
    pub name: String,
    /// Family help string.
    pub help: String,
    /// Label pairs in registration order.
    pub labels: Vec<(String, String)>,
    /// Current total.
    pub value: u64,
}

/// One gauge series in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Family name, e.g. `momsynth_queue_depth`.
    pub name: String,
    /// Family help string.
    pub help: String,
    /// Label pairs in registration order.
    pub labels: Vec<(String, String)>,
    /// Current level.
    pub value: i64,
}

/// One histogram series in a [`MetricsSnapshot`], with derived
/// percentile summaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Family name, e.g. `momsynth_journal_fsync_seconds`.
    pub name: String,
    /// Family help string.
    pub help: String,
    /// Label pairs in registration order.
    pub labels: Vec<(String, String)>,
    /// Finite bucket upper bounds, ascending (`+Inf` implicit).
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `len() == bounds.len() + 1` (last is `+Inf`).
    pub counts: Vec<u64>,
    /// Sum of observed values.
    pub sum: f64,
    /// Total observations.
    pub count: u64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

impl HistogramSample {
    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by linear
    /// interpolation inside the bucket containing the target rank —
    /// the same estimator as Prometheus' `histogram_quantile`.
    /// Observations in the overflow bucket clamp to the largest finite
    /// bound. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let prev = cumulative;
            cumulative += c;
            if (cumulative as f64) < target || c == 0 {
                continue;
            }
            let Some(&upper) = self.bounds.get(i) else {
                // Overflow bucket: clamp to the largest finite bound.
                return self.bounds.last().copied().unwrap_or(0.0);
            };
            let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
            let into = (target - prev as f64) / c as f64;
            return lower + (upper - lower) * into.clamp(0.0, 1.0);
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }
}

/// A point-in-time copy of every instrument in a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counter series, name-sorted.
    pub counters: Vec<CounterSample>,
    /// All gauge series, name-sorted.
    pub gauges: Vec<GaugeSample>,
    /// All histogram series, name-sorted.
    pub histograms: Vec<HistogramSample>,
}

/// Writes a Prometheus float: integral values without an exponent,
/// everything else via `{:?}` round-trip formatting.
fn fmt_float(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else {
        format!("{v:?}")
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (`text/plain; version=0.0.4`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut seen_help = String::new();
        let mut header = |out: &mut String, name: &str, help: &str, kind: &str| {
            if seen_help == name {
                return;
            }
            seen_help = name.to_string();
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        };
        for c in &self.counters {
            header(&mut out, &c.name, &c.help, "counter");
            let labels = rendered_labels(&c.labels);
            out.push_str(&format!("{}{} {}\n", c.name, labels, c.value));
        }
        // The closure borrows `seen_help` mutably across loops by
        // design: names never repeat across kinds (the registry enforces
        // one kind per family).
        for g in &self.gauges {
            header(&mut out, &g.name, &g.help, "gauge");
            let labels = rendered_labels(&g.labels);
            out.push_str(&format!("{}{} {}\n", g.name, labels, g.value));
        }
        for h in &self.histograms {
            header(&mut out, &h.name, &h.help, "histogram");
            let mut cumulative = 0u64;
            for (i, &count) in h.counts.iter().enumerate() {
                cumulative += count;
                let le = h.bounds.get(i).copied().unwrap_or(f64::INFINITY);
                let mut labels = h.labels.clone();
                labels.push(("le".to_string(), fmt_float(le)));
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    h.name,
                    rendered_labels(&labels),
                    cumulative
                ));
            }
            let labels = rendered_labels(&h.labels);
            out.push_str(&format!("{}_sum{} {}\n", h.name, labels, fmt_float(h.sum)));
            out.push_str(&format!("{}_count{} {}\n", h.name, labels, h.count));
        }
        out
    }

    /// Looks up a counter sample by family name and label set.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let want: Vec<(String, String)> =
            labels.iter().map(|(k, v)| ((*k).to_string(), (*v).to_string())).collect();
        self.counters.iter().find(|c| c.name == name && c.labels == want).map(|c| c.value)
    }

    /// Looks up a gauge sample by family name and label set.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        let want: Vec<(String, String)> =
            labels.iter().map(|(k, v)| ((*k).to_string(), (*v).to_string())).collect();
        self.gauges.iter().find(|g| g.name == name && g.labels == want).map(|g| g.value)
    }

    /// Looks up a histogram sample by family name and label set.
    pub fn histogram_sample(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<&HistogramSample> {
        let want: Vec<(String, String)> =
            labels.iter().map(|(k, v)| ((*k).to_string(), (*v).to_string())).collect();
        self.histograms.iter().find(|h| h.name == name && h.labels == want)
    }
}

fn rendered_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let pairs: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    format!("{{{}}}", label_key(&pairs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_hands_out_noop_handles() {
        let registry = Registry::disabled();
        assert!(!registry.is_enabled());
        let c = registry.counter("momsynth_x_total", "x", &[]);
        let g = registry.gauge("momsynth_y", "y", &[]);
        let h = registry.histogram("momsynth_z_seconds", "z", &DEFAULT_LATENCY_BOUNDS_S, &[]);
        c.inc();
        g.set(5);
        h.observe(0.1);
        assert_eq!(c.value(), 0);
        assert_eq!(g.value(), 0);
        assert_eq!(h.count(), 0);
        let snap = registry.snapshot();
        assert_eq!(snap, MetricsSnapshot::default());
        assert!(snap.to_prometheus().is_empty());
    }

    #[test]
    fn counters_and_gauges_accumulate_and_share_cells() {
        let registry = Registry::new();
        let c1 = registry.counter("momsynth_jobs_total", "jobs", &[("state", "done")]);
        let c2 = registry.counter("momsynth_jobs_total", "jobs", &[("state", "done")]);
        c1.add(2);
        c2.inc();
        assert_eq!(c1.value(), 3);
        let g = registry.gauge("momsynth_queue_depth", "depth", &[]);
        g.add(4);
        g.sub(1);
        assert_eq!(g.value(), 3);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("momsynth_jobs_total", &[("state", "done")]), Some(3));
        assert_eq!(snap.gauge_value("momsynth_queue_depth", &[]), Some(3));
    }

    #[test]
    fn histogram_buckets_sum_and_percentiles() {
        let registry = Registry::new();
        let h = registry.histogram("momsynth_lat_seconds", "lat", &[0.1, 1.0, 10.0], &[]);
        for v in [0.05, 0.5, 0.5, 2.0, 20.0] {
            h.observe(v);
        }
        let snap = registry.snapshot();
        let s = snap.histogram_sample("momsynth_lat_seconds", &[]).unwrap();
        assert_eq!(s.count, 5);
        assert!((s.sum - 23.05).abs() < 1e-9);
        assert_eq!(s.counts, vec![1, 2, 1, 1]);
        // Median rank 2.5 of 5 lands in the (0.1, 1.0] bucket.
        assert!(s.p50 > 0.1 && s.p50 <= 1.0, "{}", s.p50);
        // p99 lands in the overflow bucket and clamps to the last bound.
        assert_eq!(s.p99, 10.0);
    }

    #[test]
    fn prometheus_rendering_has_cumulative_buckets_and_headers() {
        let registry = Registry::new();
        registry.counter("momsynth_total", "a counter", &[]).add(7);
        let h = registry.histogram("momsynth_d_seconds", "a histogram", &[1.0], &[("k", "v")]);
        h.observe(0.5);
        h.observe(2.0);
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("# HELP momsynth_total a counter\n"), "{text}");
        assert!(text.contains("# TYPE momsynth_total counter\n"), "{text}");
        assert!(text.contains("momsynth_total 7\n"), "{text}");
        assert!(text.contains("momsynth_d_seconds_bucket{k=\"v\",le=\"1.0\"} 1\n"), "{text}");
        assert!(text.contains("momsynth_d_seconds_bucket{k=\"v\",le=\"+Inf\"} 2\n"), "{text}");
        assert!(text.contains("momsynth_d_seconds_sum{k=\"v\"} 2.5\n"), "{text}");
        assert!(text.contains("momsynth_d_seconds_count{k=\"v\"} 2\n"), "{text}");
    }

    #[test]
    fn snapshot_serialises_and_round_trips() {
        let registry = Registry::new();
        registry.counter("momsynth_total", "c", &[]).inc();
        registry.histogram("momsynth_h_seconds", "h", &[0.5, 5.0], &[]).observe(1.0);
        let snap = registry.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn label_values_are_escaped() {
        let key = label_key(&[("path", "a\"b\\c\nd")]);
        assert_eq!(key, "path=\"a\\\"b\\\\c\\nd\"");
    }
}
