//! Named counters, gauges, and fixed-bucket histograms with
//! Prometheus-style text exposition.
//!
//! The cluster simulators publish into a [`MetricsRegistry`] through
//! cheap integer handles ([`CounterId`], [`GaugeId`], [`HistogramId`])
//! obtained once per run, so the hot event loop never re-hashes metric
//! names. Rendering happens after the run:
//! [`MetricsRegistry::render_prometheus`] produces the classic
//! `/metrics` text format, and [`MetricsRegistry::flatten`] yields
//! `(sample name, value)` pairs for CSV export.
//!
//! Metric names follow Prometheus conventions: a base name matching
//! `[a-zA-Z_:][a-zA-Z0-9_:]*`, optionally followed by a `{...}` label
//! block that is carried through to the exposition verbatim (e.g.
//! `micro_channel_joules{channel="sbc-0"}`).

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// Handle to a counter registered in a [`MetricsRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a gauge registered in a [`MetricsRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a histogram registered in a [`MetricsRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A fixed-bucket histogram: one count per upper bound (`value <=
/// bound`, Prometheus `le` semantics) plus an overflow bucket.
#[derive(Debug, Clone, PartialEq)]
struct Histogram {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` entries; the last is the overflow (`+Inf`).
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        for pair in bounds.windows(2) {
            assert!(
                pair[0] < pair[1],
                "histogram bounds must be strictly increasing, got {} then {}",
                pair[0],
                pair[1]
            );
        }
        for &bound in bounds {
            assert!(bound.is_finite(), "histogram bound {bound} is not finite");
        }
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, value: f64) {
        assert!(value.is_finite(), "observed value {value} is not finite");
        let slot = self
            .bounds
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.sum += value;
        self.count += 1;
    }
}

/// A registry of named metrics, published into by the simulators and
/// rendered to Prometheus text or CSV rows afterwards.
///
/// # Examples
///
/// ```
/// use microfaas_sim::metrics::MetricsRegistry;
///
/// let mut metrics = MetricsRegistry::new();
/// let jobs = metrics.counter("jobs_completed");
/// let latency = metrics.histogram("latency_seconds", &[0.1, 1.0]);
/// metrics.inc(jobs);
/// metrics.observe(latency, 0.25);
///
/// let text = metrics.render_prometheus();
/// assert!(text.contains("jobs_completed 1"));
/// assert!(text.contains("latency_seconds_bucket{le=\"1\"} 1"));
/// assert!(text.contains("latency_seconds_count 1"));
/// ```
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, Histogram)>,
    /// Each kind's name → position in its registration-ordered vector,
    /// so find-or-register is one lookup however many metrics exist.
    counter_index: HashMap<String, usize>,
    gauge_index: HashMap<String, usize>,
    histogram_index: HashMap<String, usize>,
}

/// Returns the position of `name` in `entries`, appending it with
/// `init()` first if it is not registered yet.
fn find_or_push<V>(
    entries: &mut Vec<(String, V)>,
    index: &mut HashMap<String, usize>,
    name: &str,
    init: impl FnOnce() -> V,
) -> usize {
    if let Some(&i) = index.get(name) {
        return i;
    }
    entries.push((name.to_string(), init()));
    index.insert(name.to_string(), entries.len() - 1);
    entries.len() - 1
}

/// Splits `name` into `(base, labels)` and panics unless the base is a
/// valid Prometheus metric name and the optional label block is
/// `{...}`-delimited.
fn split_name(name: &str) -> (&str, &str) {
    let (base, labels) = match name.find('{') {
        None => (name, ""),
        Some(brace) => {
            let labels = &name[brace..];
            assert!(
                labels.ends_with('}') && labels.len() > 2,
                "label block in metric name '{name}' must be non-empty and end with '}}'"
            );
            (&name[..brace], labels)
        }
    };
    let mut chars = base.chars();
    let head_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
    assert!(
        head_ok && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "invalid metric name '{name}': base must match [a-zA-Z_:][a-zA-Z0-9_:]*"
    );
    (base, labels)
}

/// Inserts `extra` into an existing label block (or creates one).
fn with_label(base: &str, labels: &str, suffix: &str, extra: &str) -> String {
    if labels.is_empty() {
        format!("{base}{suffix}{{{extra}}}")
    } else {
        let inner = &labels[1..labels.len() - 1];
        format!("{base}{suffix}{{{inner},{extra}}}")
    }
}

/// Deterministic `# HELP` text for a metric family: the snake_case
/// name spelled out, prefixed by what the family kind measures.
fn help_text(base: &str, kind: &str) -> String {
    let spaced = base.replace('_', " ");
    match kind {
        "counter" => format!("Monotonic count of {spaced}."),
        "gauge" => format!("Current value of {spaced}."),
        _ => format!("Fixed-bucket distribution of {spaced}."),
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or finds) the counter `name` and returns its handle.
    pub fn counter(&mut self, name: &str) -> CounterId {
        split_name(name);
        CounterId(find_or_push(
            &mut self.counters,
            &mut self.counter_index,
            name,
            || 0,
        ))
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Increments a counter by `delta`.
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0].1 += delta;
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// Registers (or finds) the gauge `name` and returns its handle.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        split_name(name);
        GaugeId(find_or_push(
            &mut self.gauges,
            &mut self.gauge_index,
            name,
            || 0.0,
        ))
    }

    /// Sets a gauge to `value`.
    pub fn set_gauge(&mut self, id: GaugeId, value: f64) {
        assert!(value.is_finite(), "gauge value {value} is not finite");
        self.gauges[id.0].1 = value;
    }

    /// Current value of a gauge.
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        self.gauges[id.0].1
    }

    /// Registers (or finds) the histogram `name` with the given upper
    /// bucket bounds (strictly increasing, finite; an overflow bucket
    /// is always appended). Re-registering an existing name requires
    /// identical bounds.
    pub fn histogram(&mut self, name: &str, bounds: &[f64]) -> HistogramId {
        split_name(name);
        let i = find_or_push(
            &mut self.histograms,
            &mut self.histogram_index,
            name,
            || Histogram::new(bounds),
        );
        assert_eq!(
            self.histograms[i].1.bounds, bounds,
            "histogram '{name}' re-registered with different bounds"
        );
        HistogramId(i)
    }

    /// Records one observation into a histogram.
    pub fn observe(&mut self, id: HistogramId, value: f64) {
        self.histograms[id.0].1.observe(value);
    }

    /// Total number of observations recorded in a histogram.
    pub fn histogram_count(&self, id: HistogramId) -> u64 {
        self.histograms[id.0].1.count
    }

    /// Sum of all observations recorded in a histogram.
    pub fn histogram_sum(&self, id: HistogramId) -> f64 {
        self.histograms[id.0].1.sum
    }

    /// Per-bucket (non-cumulative) counts; the last entry is the
    /// overflow bucket.
    pub fn bucket_counts(&self, id: HistogramId) -> &[u64] {
        &self.histograms[id.0].1.counts
    }

    /// The upper bounds the histogram was registered with.
    pub fn bucket_bounds(&self, id: HistogramId) -> &[f64] {
        &self.histograms[id.0].1.bounds
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) of a histogram from its
    /// fixed buckets, Prometheus `histogram_quantile` style: the target
    /// rank is located in the cumulative distribution and linearly
    /// interpolated inside its bucket. Observations in the overflow
    /// bucket report the largest finite bound. Returns `None` if the
    /// histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn histogram_quantile(&self, id: HistogramId, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let h = &self.histograms[id.0].1;
        if h.count == 0 {
            return None;
        }
        let target = q * h.count as f64;
        let mut cumulative = 0u64;
        for (i, &bucket) in h.counts.iter().enumerate() {
            let before = cumulative as f64;
            cumulative += bucket;
            if (cumulative as f64) >= target && bucket > 0 {
                if i >= h.bounds.len() {
                    // Overflow bucket: no upper bound to interpolate to.
                    return Some(*h.bounds.last()?);
                }
                let lower = if i == 0 { 0.0 } else { h.bounds[i - 1] };
                let upper = h.bounds[i];
                let fraction = ((target - before) / bucket as f64).clamp(0.0, 1.0);
                return Some(lower + (upper - lower) * fraction);
            }
        }
        h.bounds.last().copied()
    }

    /// Folds every metric from `other` into this registry.
    ///
    /// Counters and histogram buckets are summed; gauges take `other`'s
    /// value (last-write-wins, matching sequential `set_gauge` order).
    /// Metrics not yet present are registered in `other`'s order, so
    /// merging per-run registries in canonical submission order
    /// reproduces the exposition a single sequential registry would
    /// have produced — this is what lets the parallel experiment
    /// engine meter runs into private registries and still render
    /// byte-identical `/metrics` text (see `docs/PERFORMANCE.md`).
    ///
    /// # Panics
    ///
    /// Panics if a histogram exists in both registries with different
    /// bucket bounds.
    ///
    /// # Examples
    ///
    /// ```
    /// use microfaas_sim::metrics::MetricsRegistry;
    ///
    /// let mut a = MetricsRegistry::new();
    /// let jobs = a.counter("jobs");
    /// a.add(jobs, 2);
    ///
    /// let mut b = MetricsRegistry::new();
    /// let jobs_b = b.counter("jobs");
    /// b.add(jobs_b, 3);
    ///
    /// a.merge(&b);
    /// assert_eq!(a.counter_value(jobs), 5);
    /// ```
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, value) in &other.counters {
            let id = self.counter(name);
            self.add(id, *value);
        }
        for (name, value) in &other.gauges {
            let id = self.gauge(name);
            self.set_gauge(id, *value);
        }
        for (name, histogram) in &other.histograms {
            let id = self.histogram(name, &histogram.bounds);
            let ours = &mut self.histograms[id.0].1;
            for (slot, count) in ours.counts.iter_mut().zip(&histogram.counts) {
                *slot += count;
            }
            ours.sum += histogram.sum;
            ours.count += histogram.count;
        }
    }

    /// True if nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders every metric in the Prometheus text exposition format
    /// (`# HELP` + `# TYPE` comments per family, cumulative
    /// `_bucket{le=...}` samples, `_sum`/`_count` for histograms), in
    /// registration order. Help text is derived deterministically from
    /// the family name, so the exposition stays a pure function of the
    /// registry contents.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        // Families already given their `# HELP`/`# TYPE` lines.
        let mut typed: HashSet<&str> = HashSet::new();
        let mut type_line = |out: &mut String, base, kind| {
            if typed.insert(base) {
                let _ = writeln!(out, "# HELP {base} {}", help_text(base, kind));
                let _ = writeln!(out, "# TYPE {base} {kind}");
            }
        };
        for (name, value) in &self.counters {
            let (base, _) = split_name(name);
            type_line(&mut out, base, "counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            let (base, _) = split_name(name);
            type_line(&mut out, base, "gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, histogram) in &self.histograms {
            let (base, labels) = split_name(name);
            type_line(&mut out, base, "histogram");
            let mut cumulative = 0;
            for (i, &bucket) in histogram.counts.iter().enumerate() {
                cumulative += bucket;
                let le = if i < histogram.bounds.len() {
                    histogram.bounds[i].to_string()
                } else {
                    "+Inf".to_string()
                };
                let sample = with_label(base, labels, "_bucket", &format!("le=\"{le}\""));
                let _ = writeln!(out, "{sample} {cumulative}");
            }
            let _ = writeln!(out, "{base}_sum{labels} {}", histogram.sum);
            let _ = writeln!(out, "{base}_count{labels} {}", histogram.count);
        }
        out
    }

    /// Flattens every metric into `(sample name, value)` rows suitable
    /// for CSV export. Histograms expand into their cumulative buckets
    /// plus `_sum` and `_count`, mirroring [`Self::render_prometheus`].
    pub fn flatten(&self) -> Vec<(String, f64)> {
        let mut rows = Vec::new();
        for (name, value) in &self.counters {
            rows.push((name.clone(), *value as f64));
        }
        for (name, value) in &self.gauges {
            rows.push((name.clone(), *value));
        }
        for (name, histogram) in &self.histograms {
            let (base, labels) = split_name(name);
            let mut cumulative = 0;
            for (i, &bucket) in histogram.counts.iter().enumerate() {
                cumulative += bucket;
                let le = if i < histogram.bounds.len() {
                    histogram.bounds[i].to_string()
                } else {
                    "+Inf".to_string()
                };
                rows.push((
                    with_label(base, labels, "_bucket", &format!("le=\"{le}\"")),
                    cumulative as f64,
                ));
            }
            rows.push((format!("{base}_sum{labels}"), histogram.sum));
            rows.push((format!("{base}_count{labels}"), histogram.count as f64));
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_get_or_create_and_accumulate() {
        let mut m = MetricsRegistry::new();
        let a = m.counter("jobs_total");
        let b = m.counter("jobs_total");
        assert_eq!(a, b);
        m.inc(a);
        m.add(b, 4);
        assert_eq!(m.counter_value(a), 5);
    }

    #[test]
    fn gauges_hold_the_last_value() {
        let mut m = MetricsRegistry::new();
        let g = m.gauge("power_watts");
        m.set_gauge(g, 1.5);
        m.set_gauge(g, 0.128);
        assert_eq!(m.gauge_value(g), 0.128);
    }

    #[test]
    fn histogram_boundary_values_land_in_the_le_bucket() {
        let mut m = MetricsRegistry::new();
        let h = m.histogram("latency", &[1.0, 2.0]);
        // Exactly on a bound -> that bucket (le semantics); above the
        // last bound -> overflow.
        m.observe(h, 1.0);
        m.observe(h, 1.5);
        m.observe(h, 2.0);
        m.observe(h, 2.000001);
        assert_eq!(m.bucket_counts(h), &[1, 2, 1]);
        assert_eq!(m.histogram_count(h), 4);
        assert!((m.histogram_sum(h) - 6.500001).abs() < 1e-9);
    }

    #[test]
    fn prometheus_rendering_is_cumulative() {
        let mut m = MetricsRegistry::new();
        let h = m.histogram("lat_seconds", &[0.5, 1.0]);
        m.observe(h, 0.2);
        m.observe(h, 0.7);
        m.observe(h, 9.0);
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE lat_seconds histogram"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.5\"} 1"));
        assert!(text.contains("lat_seconds_bucket{le=\"1\"} 2"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_seconds_count 3"));
    }

    #[test]
    fn labelled_names_share_one_type_line() {
        let mut m = MetricsRegistry::new();
        let a = m.gauge("joules{channel=\"sbc-0\"}");
        let b = m.gauge("joules{channel=\"sbc-1\"}");
        m.set_gauge(a, 1.0);
        m.set_gauge(b, 2.0);
        let text = m.render_prometheus();
        assert_eq!(text.matches("# TYPE joules gauge").count(), 1);
        assert_eq!(text.matches("# HELP joules ").count(), 1);
        assert!(text.contains("joules{channel=\"sbc-0\"} 1"));
        assert!(text.contains("joules{channel=\"sbc-1\"} 2"));
    }

    #[test]
    fn help_lines_precede_type_lines_per_family() {
        let mut m = MetricsRegistry::new();
        let c = m.counter("jobs_completed_total");
        m.inc(c);
        let g = m.gauge("power_watts");
        m.set_gauge(g, 2.0);
        let h = m.histogram("exec_seconds", &[1.0]);
        m.observe(h, 0.5);
        let text = m.render_prometheus();
        assert!(
            text.contains(
                "# HELP jobs_completed_total Monotonic count of jobs completed total.\n\
                 # TYPE jobs_completed_total counter\n"
            ),
            "{text}"
        );
        assert!(
            text.contains("# HELP power_watts Current value of power watts.\n"),
            "{text}"
        );
        assert!(
            text.contains("# HELP exec_seconds Fixed-bucket distribution of exec seconds.\n"),
            "{text}"
        );
    }

    #[test]
    fn histogram_quantile_interpolates_within_buckets() {
        let mut m = MetricsRegistry::new();
        let h = m.histogram("lat", &[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.5, 3.0] {
            m.observe(h, v);
        }
        // Cumulative: 1, 3, 4. Median target rank 2 lands mid-bucket
        // (1, 2]: lower + (2-1)/2 * width = 1.5.
        assert_eq!(m.histogram_quantile(h, 0.5), Some(1.5));
        assert_eq!(m.histogram_quantile(h, 0.0), Some(0.0));
        assert_eq!(m.histogram_quantile(h, 1.0), Some(4.0));
        // Overflow observations clamp to the largest finite bound.
        m.observe(h, 100.0);
        assert_eq!(m.histogram_quantile(h, 1.0), Some(4.0));
        // Empty histogram has no quantiles.
        let empty = m.histogram("none", &[1.0]);
        assert_eq!(m.histogram_quantile(empty, 0.5), None);
    }

    #[test]
    fn labelled_histogram_buckets_merge_labels() {
        let mut m = MetricsRegistry::new();
        let h = m.histogram("exec{cluster=\"micro\"}", &[1.0]);
        m.observe(h, 0.5);
        let text = m.render_prometheus();
        assert!(text.contains("exec_bucket{cluster=\"micro\",le=\"1\"} 1"));
        assert!(text.contains("exec_sum{cluster=\"micro\"} 0.5"));
    }

    #[test]
    fn flatten_mirrors_the_exposition() {
        let mut m = MetricsRegistry::new();
        let c = m.counter("n");
        m.add(c, 7);
        let h = m.histogram("d", &[1.0]);
        m.observe(h, 3.0);
        let rows = m.flatten();
        assert!(rows.contains(&("n".to_string(), 7.0)));
        assert!(rows.contains(&("d_bucket{le=\"+Inf\"}".to_string(), 1.0)));
        assert!(rows.contains(&("d_sum".to_string(), 3.0)));
        assert!(rows.contains(&("d_count".to_string(), 1.0)));
    }

    #[test]
    fn merge_reproduces_sequential_registration() {
        // Publishing into one shared registry...
        let mut sequential = MetricsRegistry::new();
        let c = sequential.counter("micro_jobs");
        sequential.add(c, 4);
        let g = sequential.gauge("micro_watts");
        sequential.set_gauge(g, 2.5);
        let h = sequential.histogram("micro_exec", &[1.0, 5.0]);
        sequential.observe(h, 0.5);
        sequential.observe(h, 3.0);
        let c2 = sequential.counter("conv_jobs");
        sequential.add(c2, 9);

        // ...must render the same bytes as merging two private
        // registries in the same canonical order.
        let mut micro = MetricsRegistry::new();
        let c = micro.counter("micro_jobs");
        micro.add(c, 4);
        let g = micro.gauge("micro_watts");
        micro.set_gauge(g, 2.5);
        let h = micro.histogram("micro_exec", &[1.0, 5.0]);
        micro.observe(h, 0.5);
        micro.observe(h, 3.0);
        let mut conv = MetricsRegistry::new();
        let c2 = conv.counter("conv_jobs");
        conv.add(c2, 9);

        let mut merged = MetricsRegistry::new();
        merged.merge(&micro);
        merged.merge(&conv);
        assert_eq!(merged, sequential);
        assert_eq!(merged.render_prometheus(), sequential.render_prometheus());
    }

    #[test]
    fn merge_sums_overlapping_metrics() {
        let mut a = MetricsRegistry::new();
        let h = a.histogram("lat", &[1.0]);
        a.observe(h, 0.5);
        let mut b = MetricsRegistry::new();
        let hb = b.histogram("lat", &[1.0]);
        b.observe(hb, 2.0);
        a.merge(&b);
        assert_eq!(a.bucket_counts(h), &[1, 1]);
        assert_eq!(a.histogram_count(h), 2);
        assert!((a.histogram_sum(h) - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn merge_rejects_mismatched_histograms() {
        let mut a = MetricsRegistry::new();
        a.histogram("lat", &[1.0]);
        let mut b = MetricsRegistry::new();
        b.histogram("lat", &[2.0]);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_are_rejected() {
        MetricsRegistry::new().histogram("h", &[2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_are_rejected() {
        MetricsRegistry::new().counter("9starts_with_digit");
    }
}
