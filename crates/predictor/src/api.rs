//! The predictor interface and the per-task model bank.
//!
//! §3: "the predictor maintains a separate quantile decision tree for each
//! vRAN task"; every predictor variant in this crate implements
//! [`WcetPredictor`], and [`ModelBank`] holds one model per [`TaskKind`].

use concordia_ran::features::FeatureVec;
use concordia_ran::task::TaskKind;
use concordia_ran::time::Nanos;

/// One offline training observation: features plus measured runtime (µs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingSample {
    /// Task input features at execution time.
    pub x: FeatureVec,
    /// Observed runtime in microseconds.
    pub runtime_us: f64,
}

/// A worst-case-execution-time predictor for a single task kind.
///
/// `predict_us` is the hot path (runs every TTI, §5); `observe` feeds the
/// online adaptation of §4.2 (Algorithm 2's training step).
pub trait WcetPredictor: Send {
    /// Predicted WCET in microseconds for a task with features `x`.
    fn predict_us(&self, x: &FeatureVec) -> f64;

    /// Records an observed runtime for online adaptation.
    fn observe(&mut self, x: &FeatureVec, runtime_us: f64);

    /// An interval `(lo, hi)` that contains `predict_us(x)`, for callers
    /// that only compare a runtime against the prediction. Models whose
    /// exact prediction is costly answer from cheaper state; the default
    /// is the exact prediction at both ends.
    fn predict_bounds(&self, x: &FeatureVec) -> (f64, f64) {
        let p = self.predict_us(x);
        (p, p)
    }

    /// Predicted WCET as a duration.
    fn predict(&self, x: &FeatureVec) -> Nanos {
        Nanos::from_micros_f64(self.predict_us(x))
    }

    /// Which internal partition (leaf) `x` routes to, for models that have
    /// one. The predictor control plane uses this to maintain per-leaf
    /// drift statistics; structureless models return `None`.
    fn route(&self, _x: &FeatureVec) -> Option<usize> {
        None
    }

    /// Re-fits the model's *statistics* from recent samples, keeping its
    /// structure frozen (for a quantile tree: leaf buffers are rebuilt,
    /// the CART splits are not). Returns `false` for models that cannot
    /// be re-fitted in place; such models stay quarantined on fallback.
    fn refit(&mut self, _samples: &[TrainingSample]) -> bool {
        false
    }

    /// Per-leaf reference quantiles of the current leaf contents (empty
    /// for models without leaves). The control plane snapshots these at
    /// training time and tests online samples against them.
    fn reference_quantiles(&self, _q: f64) -> Vec<f64> {
        Vec::new()
    }
}

/// One predictor per task kind, as the paper prescribes.
pub struct ModelBank {
    models: Vec<Option<Box<dyn WcetPredictor>>>,
}

impl ModelBank {
    /// An empty bank (all kinds unmodeled).
    pub fn new() -> Self {
        ModelBank {
            models: (0..TaskKind::ALL.len()).map(|_| None).collect(),
        }
    }

    /// Installs a model for `kind`, replacing any previous one.
    pub fn insert(&mut self, kind: TaskKind, model: Box<dyn WcetPredictor>) {
        self.models[kind.index()] = Some(model);
    }

    /// The model for `kind`, if installed.
    pub fn get(&self, kind: TaskKind) -> Option<&dyn WcetPredictor> {
        self.models[kind.index()].as_deref()
    }

    /// Mutable access for online observation.
    pub fn get_mut(&mut self, kind: TaskKind) -> Option<&mut (dyn WcetPredictor + '_)> {
        match &mut self.models[kind.index()] {
            Some(b) => Some(b.as_mut()),
            None => None,
        }
    }

    /// Predicts the WCET for a task, or `None` if the kind is unmodeled.
    pub fn predict(&self, kind: TaskKind, x: &FeatureVec) -> Option<Nanos> {
        self.get(kind).map(|m| m.predict(x))
    }

    /// Feeds an observation to the kind's model (no-op when unmodeled).
    pub fn observe(&mut self, kind: TaskKind, x: &FeatureVec, runtime_us: f64) {
        if let Some(m) = &mut self.models[kind.index()] {
            m.observe(x, runtime_us);
        }
    }

    /// Number of installed models.
    pub fn len(&self) -> usize {
        self.models.iter().filter(|m| m.is_some()).count()
    }

    /// True when no model is installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for ModelBank {
    fn default() -> Self {
        Self::new()
    }
}

/// A constant predictor: always returns the same WCET. The degenerate
/// single-value scheme conventional real-time systems use (§8: "the WCET
/// prediction does not adjust dynamically at runtime based on the input").
#[derive(Debug, Clone, Copy)]
pub struct FixedPredictor {
    /// The constant prediction (µs).
    pub wcet_us: f64,
}

impl WcetPredictor for FixedPredictor {
    fn predict_us(&self, _x: &FeatureVec) -> f64 {
        self.wcet_us
    }
    fn observe(&mut self, _x: &FeatureVec, _runtime_us: f64) {}
}

/// Predicts the maximum runtime observed so far (grows monotonically) —
/// a simple adaptive single-value baseline used in tests and ablations.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxObservedPredictor {
    max_us: f64,
}

impl WcetPredictor for MaxObservedPredictor {
    fn predict_us(&self, _x: &FeatureVec) -> f64 {
        self.max_us
    }
    fn observe(&mut self, _x: &FeatureVec, runtime_us: f64) {
        if runtime_us > self.max_us {
            self.max_us = runtime_us;
        }
    }
}

/// Wraps any predictor and inflates its predictions by a constant factor —
/// the control plane's conservative fallback: a quarantined quantile tree
/// is replaced by an inflated linear model so reliability degrades
/// gracefully (more pessimism, fewer reclaimed cores) instead of silently.
pub struct InflatedPredictor {
    inner: Box<dyn WcetPredictor>,
    factor: f64,
}

impl InflatedPredictor {
    /// Wraps `inner`, multiplying every prediction by `factor` (≥ 1.0).
    pub fn new(inner: Box<dyn WcetPredictor>, factor: f64) -> Self {
        InflatedPredictor {
            inner,
            factor: factor.max(1.0),
        }
    }
}

impl WcetPredictor for InflatedPredictor {
    fn predict_us(&self, x: &FeatureVec) -> f64 {
        self.inner.predict_us(x) * self.factor
    }
    fn predict_bounds(&self, x: &FeatureVec) -> (f64, f64) {
        // `factor` ≥ 1 and rounded multiplication is monotone.
        let (lo, hi) = self.inner.predict_bounds(x);
        (lo * self.factor, hi * self.factor)
    }
    fn observe(&mut self, x: &FeatureVec, runtime_us: f64) {
        self.inner.observe(x, runtime_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concordia_ran::features::NUM_FEATURES;

    const X: FeatureVec = [0.0; NUM_FEATURES];

    #[test]
    fn fixed_predictor_is_constant() {
        let mut p = FixedPredictor { wcet_us: 42.0 };
        assert_eq!(p.predict_us(&X), 42.0);
        p.observe(&X, 1000.0);
        assert_eq!(p.predict_us(&X), 42.0);
        assert_eq!(p.predict(&X), Nanos::from_micros(42));
    }

    #[test]
    fn max_observed_tracks_maximum() {
        let mut p = MaxObservedPredictor::default();
        assert_eq!(p.predict_us(&X), 0.0);
        p.observe(&X, 10.0);
        p.observe(&X, 5.0);
        assert_eq!(p.predict_us(&X), 10.0);
        p.observe(&X, 20.0);
        assert_eq!(p.predict_us(&X), 20.0);
    }

    #[test]
    fn bank_routes_by_kind() {
        let mut bank = ModelBank::new();
        assert!(bank.is_empty());
        bank.insert(
            TaskKind::LdpcDecode,
            Box::new(FixedPredictor { wcet_us: 100.0 }),
        );
        bank.insert(TaskKind::Fft, Box::new(FixedPredictor { wcet_us: 7.0 }));
        assert_eq!(bank.len(), 2);
        assert_eq!(
            bank.predict(TaskKind::LdpcDecode, &X),
            Some(Nanos::from_micros(100))
        );
        assert_eq!(bank.predict(TaskKind::Fft, &X), Some(Nanos::from_micros(7)));
        assert_eq!(bank.predict(TaskKind::Ifft, &X), None);
    }

    #[test]
    fn default_lifecycle_hooks_are_inert() {
        // Structureless models: no routing, no refit, no references.
        let mut p = FixedPredictor { wcet_us: 10.0 };
        assert_eq!(p.route(&X), None);
        assert!(!p.refit(&[TrainingSample {
            x: X,
            runtime_us: 5.0
        }]));
        assert!(p.reference_quantiles(0.95).is_empty());
    }

    #[test]
    fn inflated_predictor_scales_and_forwards() {
        let mut p = InflatedPredictor::new(Box::new(MaxObservedPredictor::default()), 1.5);
        assert_eq!(p.predict_us(&X), 0.0);
        p.observe(&X, 100.0);
        assert_eq!(p.predict_us(&X), 150.0);
        // Factors below 1.0 are clamped: the fallback never under-covers
        // its inner model.
        let q = InflatedPredictor::new(Box::new(FixedPredictor { wcet_us: 10.0 }), 0.5);
        assert_eq!(q.predict_us(&X), 10.0);
    }

    #[test]
    fn bank_observe_reaches_the_model() {
        let mut bank = ModelBank::new();
        bank.insert(
            TaskKind::LdpcDecode,
            Box::new(MaxObservedPredictor::default()),
        );
        bank.observe(TaskKind::LdpcDecode, &X, 33.0);
        bank.observe(TaskKind::Ifft, &X, 99.0); // unmodeled: ignored
        assert_eq!(
            bank.predict(TaskKind::LdpcDecode, &X),
            Some(Nanos::from_micros(33))
        );
    }
}
