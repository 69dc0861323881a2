//! Named wall-clock spans for instrumented hot loops.
//!
//! [`SpanSet`] is the analysis-layer sibling of the kernel's
//! [`ahbpower_sim::KernelProfile`]: a flat table of [`SpanStat`]
//! accumulators addressed by [`SpanId`] handles, so timing a span on the
//! hot path costs two `Instant::now()` calls and a few additions.

use std::time::{Duration, Instant};

use ahbpower_sim::SpanStat;

/// One call in this many of a sampled span is timed. Prime, so the timed
/// calls walk every residue of the fixed-length windows the session
/// closes (power-trace window 20, anomaly/observatory window 1000)
/// instead of always landing on the same cycle of each; a stride of 64
/// would never time a window-closing cycle of either.
pub const SAMPLE_STRIDE: u32 = 61;

/// Handle to a registered span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// A set of named span accumulators.
///
/// # Examples
///
/// ```
/// use ahbpower::telemetry::SpanSet;
///
/// let mut spans = SpanSet::new();
/// let work = spans.register("observe");
/// let t = spans.start();
/// // ... hot work ...
/// spans.stop(work, t);
/// assert_eq!(spans.stat(work).count, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpanSet {
    names: Vec<String>,
    stats: Vec<SpanStat>,
    /// Per span: untimed calls left before the next sampled one.
    skip: Vec<u32>,
}

impl SpanSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        SpanSet::default()
    }

    /// Registers (or finds) a span by name.
    pub fn register(&mut self, name: &str) -> SpanId {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return SpanId(i);
        }
        self.names.push(name.to_string());
        self.stats.push(SpanStat::default());
        self.skip.push(0);
        SpanId(self.names.len() - 1)
    }

    /// Captures the current instant; pair with [`SpanSet::stop`].
    #[inline]
    pub fn start(&self) -> Instant {
        Instant::now()
    }

    /// Closes a span opened by [`SpanSet::start`].
    #[inline]
    pub fn stop(&mut self, id: SpanId, started: Instant) {
        self.stats[id.0].record(started.elapsed());
    }

    /// Folds an externally measured duration into a span.
    #[inline]
    pub fn record(&mut self, id: SpanId, elapsed: Duration) {
        self.stats[id.0].record(elapsed);
    }

    /// Counts one call of a sampled span. Returns the start instant on
    /// the calls that are timed (the first, then every
    /// [`SAMPLE_STRIDE`]-th) and `None` on the others; pass it on to
    /// [`SpanSet::sample_stop`].
    #[inline]
    pub fn sample_start(&mut self, id: SpanId) -> Option<Instant> {
        self.stats[id.0].count += 1;
        let skip = &mut self.skip[id.0];
        if *skip > 0 {
            *skip -= 1;
            return None;
        }
        *skip = SAMPLE_STRIDE - 1;
        Some(Instant::now())
    }

    /// Closes a call opened by [`SpanSet::sample_start`]. A timed call
    /// adds its elapsed time times [`SAMPLE_STRIDE`] to the span's total
    /// and updates its max; an untimed one does nothing.
    #[inline]
    pub fn sample_stop(&mut self, id: SpanId, started: Option<Instant>) {
        if let Some(t) = started {
            let elapsed = t.elapsed();
            let stat = &mut self.stats[id.0];
            stat.total += elapsed * SAMPLE_STRIDE;
            stat.max = stat.max.max(elapsed);
        }
    }

    /// The accumulator for one span.
    pub fn stat(&self, id: SpanId) -> &SpanStat {
        &self.stats[id.0]
    }

    /// `(name, stat)` rows in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &SpanStat)> {
        self.names.iter().map(String::as_str).zip(self.stats.iter())
    }

    /// Number of registered spans.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no spans are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_register_idempotently_and_accumulate() {
        let mut s = SpanSet::new();
        let a = s.register("observe");
        assert_eq!(s.register("observe"), a);
        let b = s.register("export");
        assert_ne!(a, b);
        s.record(a, Duration::from_micros(3));
        s.record(a, Duration::from_micros(1));
        assert_eq!(s.stat(a).count, 2);
        assert_eq!(s.stat(a).total, Duration::from_micros(4));
        assert_eq!(s.stat(b).count, 0);
        let names: Vec<&str> = s.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["observe", "export"]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn start_stop_measures_something() {
        let mut s = SpanSet::new();
        let id = s.register("tick");
        let t = s.start();
        s.stop(id, t);
        assert_eq!(s.stat(id).count, 1);
    }

    /// Runs `calls` sampled calls; returns the indices that were timed.
    fn sample(s: &mut SpanSet, id: SpanId, calls: u64) -> Vec<u64> {
        (0..calls)
            .filter(|_| {
                let t = s.sample_start(id);
                let timed = t.is_some();
                s.sample_stop(id, t);
                timed
            })
            .collect()
    }

    #[test]
    fn sampled_count_is_exact_off_the_stride() {
        for calls in [40, 1_007] {
            let mut s = SpanSet::new();
            let id = s.register("observe");
            let timed = sample(&mut s, id, calls);
            assert_eq!(s.stat(id).count, calls, "every call is counted");
            assert_eq!(timed.len() as u64, calls.div_ceil(u64::from(SAMPLE_STRIDE)));
        }
    }

    #[test]
    fn sampled_total_is_positive_after_one_sample() {
        let mut s = SpanSet::new();
        let id = s.register("observe");
        let t = s.sample_start(id);
        assert!(t.is_some(), "the first call is timed");
        std::thread::sleep(Duration::from_micros(50));
        s.sample_stop(id, t);
        let stat = s.stat(id);
        assert!(stat.total > Duration::ZERO);
        assert!(stat.total >= stat.max * SAMPLE_STRIDE);
        assert!(stat.max >= Duration::from_micros(50));
    }

    #[test]
    fn sampled_calls_cover_every_window_residue() {
        // Window lengths the session closes on fixed cycle residues.
        for window in [20u64, 1_000] {
            let stride = u64::from(SAMPLE_STRIDE);
            let lcm = window * stride; // the stride is prime and divides neither
            let mut s = SpanSet::new();
            let id = s.register("observe");
            let mut seen = vec![false; window as usize];
            for i in sample(&mut s, id, lcm) {
                seen[(i % window) as usize] = true;
            }
            assert!(
                seen.iter().all(|&hit| hit),
                "a 1-in-{stride} sample must time every residue mod {window}"
            );
        }
    }
}
