//! Load forecasting: a per-rank weight-history ring with EWMA smoothing and
//! a linear trend fit (DESIGN.md §14).
//!
//! Anticipatory balancing (Boulmier et al., PAPERS.md) needs to act *before*
//! imbalance materializes. The mechanism half lives here: the scheduler
//! records its local queued weight each evaluation tick into a
//! [`WeightHistory`] and hands the resulting [`Forecast`] to the policy via
//! `LbPolicy::note_forecast`. Like the policies themselves this module is
//! pure — no clocks, no I/O — so the same code serves the threaded runtime
//! (ticks are poll counts) and the discrete-event harness (ticks are
//! simulated nanoseconds).

/// A point-in-time load forecast derived from recent weight samples.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Forecast {
    /// Exponentially weighted moving average of the sampled weight.
    pub ewma: f64,
    /// Least-squares linear trend: weight change per tick. Zero until at
    /// least two distinct-tick samples exist.
    pub slope: f64,
    /// Extrapolated weight `horizon` ticks past the newest sample. May be
    /// negative (a queue draining toward empty); callers clamp as needed.
    pub predicted: f64,
    /// Ticks past the newest sample the prediction targets.
    pub horizon: u64,
    /// Samples the fit was computed over.
    pub samples: usize,
}

impl Forecast {
    /// Whether the fitted trend is meaningfully rising (more than `eps`
    /// weight per tick).
    pub fn rising(&self, eps: f64) -> bool {
        self.slope > eps
    }
}

/// A bounded ring of `(tick, weight)` samples with an incrementally
/// maintained EWMA. Recording at the same tick twice overwrites the previous
/// sample, so the fit never sees a zero-width time step (the scheduler
/// itself evaluates once per poll tick).
#[derive(Clone, Debug)]
pub struct WeightHistory {
    samples: Vec<(u64, f64)>,
    cap: usize,
    /// Index of the oldest sample once the ring has wrapped.
    head: usize,
    alpha: f64,
    ewma: f64,
    primed: bool,
}

impl WeightHistory {
    /// A history holding up to `cap` samples, smoothing with EWMA factor
    /// `alpha` in `(0, 1]` (higher = reacts faster).
    pub fn new(cap: usize, alpha: f64) -> Self {
        assert!(cap >= 2, "a trend fit needs at least two samples");
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA factor must lie in (0, 1]"
        );
        WeightHistory {
            samples: Vec::with_capacity(cap),
            cap,
            head: 0,
            alpha,
            ewma: 0.0,
            primed: false,
        }
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Record the local weight observed at `tick`. Ticks must be
    /// non-decreasing; a repeat of the newest tick replaces that sample.
    pub fn record(&mut self, tick: u64, weight: f64) {
        if !self.primed {
            self.ewma = weight;
            self.primed = true;
        } else {
            self.ewma += self.alpha * (weight - self.ewma);
        }
        let newest = if self.samples.is_empty() {
            None
        } else {
            let idx = (self.head + self.samples.len() - 1) % self.samples.len();
            Some(idx)
        };
        if let Some(idx) = newest {
            if self.samples[idx].0 == tick {
                self.samples[idx].1 = weight;
                return;
            }
        }
        if self.samples.len() < self.cap {
            self.samples.push((tick, weight));
        } else {
            self.samples[self.head] = (tick, weight);
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Fit a linear trend over the held samples and extrapolate `horizon`
    /// ticks past the newest one. With fewer than two samples the slope is
    /// zero and the prediction is the last (or zero) weight.
    pub fn forecast(&self, horizon: u64) -> Forecast {
        let n = self.samples.len();
        if n == 0 {
            return Forecast {
                horizon,
                ..Forecast::default()
            };
        }
        let newest = self.samples[(self.head + n - 1) % n];
        if n == 1 {
            return Forecast {
                ewma: self.ewma,
                slope: 0.0,
                predicted: newest.1,
                horizon,
                samples: 1,
            };
        }
        // Least squares over (tick - t0, weight); t0 rebases ticks so the
        // products stay well-conditioned for large tick values.
        let t0 = self.samples[self.head].0;
        let nf = n as f64;
        let (mut sx, mut sy) = (0.0f64, 0.0f64);
        for &(t, w) in &self.samples {
            sx += (t - t0) as f64;
            sy += w;
        }
        let (mx, my) = (sx / nf, sy / nf);
        let (mut cov, mut var) = (0.0f64, 0.0f64);
        for &(t, w) in &self.samples {
            let dx = (t - t0) as f64 - mx;
            cov += dx * (w - my);
            var += dx * dx;
        }
        let slope = if var > 0.0 { cov / var } else { 0.0 };
        let x_pred = (newest.0 - t0) as f64 + horizon as f64;
        let predicted = my + slope * (x_pred - mx);
        Forecast {
            ewma: self.ewma,
            slope,
            predicted,
            horizon,
            samples: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_history_predicts_nothing() {
        let h = WeightHistory::new(8, 0.5);
        let f = h.forecast(10);
        assert_eq!(f.samples, 0);
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.predicted, 0.0);
    }

    #[test]
    fn flat_load_has_zero_slope_and_predicts_itself() {
        let mut h = WeightHistory::new(8, 0.5);
        for t in 0..8u64 {
            h.record(t, 5.0);
        }
        let f = h.forecast(100);
        assert!(f.slope.abs() < 1e-12);
        assert!((f.predicted - 5.0).abs() < 1e-9);
        assert!((f.ewma - 5.0).abs() < 1e-9);
        assert!(!f.rising(1e-9));
    }

    #[test]
    fn linear_ramp_is_fit_exactly() {
        let mut h = WeightHistory::new(16, 0.5);
        for t in 0..10u64 {
            h.record(t, 2.0 * t as f64);
        }
        let f = h.forecast(5);
        assert!((f.slope - 2.0).abs() < 1e-9, "slope {}", f.slope);
        // Newest sample is (9, 18); five ticks later the ramp reaches 28.
        assert!((f.predicted - 28.0).abs() < 1e-9, "pred {}", f.predicted);
        assert!(f.rising(0.1));
    }

    #[test]
    fn draining_queue_predicts_negative() {
        let mut h = WeightHistory::new(8, 0.5);
        for t in 0..5u64 {
            h.record(t, 10.0 - 2.0 * t as f64);
        }
        let f = h.forecast(10);
        assert!(f.slope < 0.0);
        assert!(f.predicted < 0.0, "pred {}", f.predicted);
    }

    #[test]
    fn ring_wraps_and_fits_recent_window_only() {
        let mut h = WeightHistory::new(4, 0.5);
        // Old flat prefix, then a ramp; only the ramp fits in the window.
        for t in 0..20u64 {
            h.record(t, 0.0);
        }
        for t in 20..24u64 {
            h.record(t, (t - 19) as f64);
        }
        assert_eq!(h.len(), 4);
        let f = h.forecast(1);
        assert!((f.slope - 1.0).abs() < 1e-9, "slope {}", f.slope);
        // Newest windowed sample is (23, 4.0); one tick later the ramp is 5.
        assert!((f.predicted - 5.0).abs() < 1e-9, "pred {}", f.predicted);
    }

    #[test]
    fn same_tick_overwrites_instead_of_stacking() {
        let mut h = WeightHistory::new(8, 0.5);
        h.record(3, 1.0);
        h.record(3, 9.0);
        h.record(4, 9.0);
        assert_eq!(h.len(), 2);
        let f = h.forecast(0);
        assert!((f.predicted - 9.0).abs() < 1e-9);
    }
}
