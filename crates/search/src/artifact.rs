//! Replayable repro artifacts.
//!
//! A [`ReproArtifact`] is everything needed to re-run a counterexample
//! *exactly*: the full base configuration, the minimal scenario, the
//! oracle (with thresholds) that judged it, and a fingerprint of the
//! failing arm reports' canonical bytes. `concordia --replay ce.json`
//! re-evaluates the scenario and compares fingerprints — a matching
//! fingerprint proves the replay reproduced the recorded run byte for
//! byte, not merely a similar failure.
//!
//! Artifacts are user-editable JSON (tweaking a severity by hand is a
//! normal debugging move), so [`ReproArtifact::from_json`] validates the
//! payload semantically — version, then [`Scenario::validate`] against the
//! base configuration — and rejects nonsense with a typed
//! [`ArtifactError`] instead of feeding it to the simulator.

use crate::oracle::{evaluate_scenarios, Oracle, Verdict};
use crate::scenario::{InvalidScenario, Scenario};
use concordia_core::config::SimConfig;
use concordia_core::runner::BatchEval;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Artifact format version; bump on breaking layout changes.
pub const ARTIFACT_VERSION: u32 = 1;

/// A self-contained, replayable counterexample.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReproArtifact {
    /// Format version ([`ARTIFACT_VERSION`]).
    pub format_version: u32,
    /// The oracle (with thresholds) that judged the scenario failing.
    pub oracle: Oracle,
    /// The full base experiment configuration the scenario applies to.
    pub base: SimConfig,
    /// The (minimal) failing scenario.
    pub scenario: Scenario,
    /// The oracle's evidence at record time.
    pub detail: String,
    /// FNV-1a fingerprint of the failing arm reports' canonical bytes.
    pub fingerprint: String,
}

impl ReproArtifact {
    /// Packages a counterexample.
    pub fn new(
        oracle: Oracle,
        base: SimConfig,
        scenario: Scenario,
        detail: String,
        fingerprint: String,
    ) -> Self {
        ReproArtifact {
            format_version: ARTIFACT_VERSION,
            oracle,
            base,
            scenario,
            detail,
            fingerprint,
        }
    }

    /// The canonical serialized form: pretty JSON with a trailing newline.
    pub fn to_canonical_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("artifact serializes");
        s.push('\n');
        s
    }

    /// Parses and validates an externally-supplied artifact.
    pub fn from_json(json: &str) -> Result<ReproArtifact, ArtifactError> {
        let artifact: ReproArtifact =
            serde_json::from_str(json).map_err(|e| ArtifactError::Parse(e.to_string()))?;
        artifact.validate()?;
        Ok(artifact)
    }

    /// Semantic validation: version, then the scenario against the base
    /// configuration it replays on.
    pub fn validate(&self) -> Result<(), ArtifactError> {
        if self.format_version != ARTIFACT_VERSION {
            return Err(ArtifactError::Version {
                found: self.format_version,
                expected: ARTIFACT_VERSION,
            });
        }
        self.scenario
            .validate(self.base.scenario.as_ref())
            .map_err(ArtifactError::Scenario)
    }
}

/// Why an externally-supplied artifact was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactError {
    /// Not parseable as artifact JSON.
    Parse(String),
    /// Format version mismatch.
    Version {
        /// Version in the file.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The scenario is invalid.
    Scenario(InvalidScenario),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Parse(e) => write!(f, "artifact does not parse: {e}"),
            ArtifactError::Version { found, expected } => write!(
                f,
                "artifact format version {found} (this build reads {expected})"
            ),
            ArtifactError::Scenario(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// The outcome of replaying an artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayOutcome {
    /// The oracle's verdict on the replayed scenario.
    pub verdict: Verdict,
    /// Fingerprint of the replayed arm reports.
    pub fingerprint: String,
    /// `true` when the replay produced byte-identical arm reports to the
    /// recorded run (fingerprints match).
    pub reproduced: bool,
}

/// Re-runs an artifact's scenario under its recorded oracle and base
/// configuration, and checks the outcome against the recorded
/// fingerprint.
pub fn replay(artifact: &ReproArtifact, eval: &mut dyn BatchEval) -> ReplayOutcome {
    let outcomes = evaluate_scenarios(
        &artifact.base,
        &artifact.oracle,
        std::slice::from_ref(&artifact.scenario),
        eval,
    );
    let outcome = outcomes
        .into_iter()
        .next()
        .expect("one scenario in, one out");
    ReplayOutcome {
        reproduced: outcome.fingerprint == artifact.fingerprint,
        verdict: outcome.verdict,
        fingerprint: outcome.fingerprint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SearchSpace;
    use crate::testutil::ThresholdEval;
    use concordia_core::reconfig::{ReconfigPlan, ReconfigStep};
    use concordia_core::runner::ParallelEval;
    use concordia_platform::faults::FaultPlan;

    fn artifact() -> ReproArtifact {
        let base = SimConfig::paper_20mhz();
        let scenario = SearchSpace::around(&base).extreme();
        ReproArtifact::new(
            Oracle::Sla {
                min_reliability: 0.99999,
            },
            base,
            scenario,
            "reliability 0.99 vs floor 0.99999".into(),
            "0123456789abcdef".into(),
        )
    }

    #[test]
    fn canonical_json_round_trips() {
        let a = artifact();
        let json = a.to_canonical_json();
        assert!(json.ends_with('\n'));
        let back = ReproArtifact::from_json(&json).expect("valid artifact");
        assert_eq!(json, back.to_canonical_json());
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut a = artifact();
        a.format_version = 99;
        let err = ReproArtifact::from_json(&a.to_canonical_json()).expect_err("bad version");
        assert!(matches!(err, ArtifactError::Version { found: 99, .. }));
        assert!(err.to_string().contains("99"), "{err}");
    }

    #[test]
    fn nonsense_dimensions_are_rejected() {
        for (patch, needle) in [
            (
                Box::new(|a: &mut ReproArtifact| a.scenario.n_cells = 0)
                    as Box<dyn Fn(&mut ReproArtifact)>,
                "n_cells",
            ),
            (
                Box::new(|a: &mut ReproArtifact| a.scenario.cores = 0),
                "cores",
            ),
            (
                Box::new(|a: &mut ReproArtifact| {
                    a.scenario.duration = concordia_ran::time::Nanos(0)
                }),
                "duration",
            ),
            (
                Box::new(|a: &mut ReproArtifact| a.scenario.load = -0.5),
                "load",
            ),
        ] {
            let mut a = artifact();
            patch(&mut a);
            let err = ReproArtifact::from_json(&a.to_canonical_json()).expect_err(needle);
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn invalid_fault_specs_and_plans_are_rejected_with_typed_errors() {
        // A hand-edited severity outside the kind's hard bounds.
        let mut a = artifact();
        a.scenario.faults.specs[0].max_severity = 1e9;
        let err = ReproArtifact::from_json(&a.to_canonical_json()).expect_err("severity");
        assert!(
            matches!(err, ArtifactError::Scenario(InvalidScenario::Faults(_))),
            "{err}"
        );

        // A zero-core pool resize.
        let mut a = artifact();
        a.scenario.reconfig = Some(ReconfigPlan::new(vec![ReconfigStep::GrowPool { cores: 0 }]));
        let err = ReproArtifact::from_json(&a.to_canonical_json()).expect_err("plan");
        assert!(
            matches!(err, ArtifactError::Scenario(InvalidScenario::Plan(_))),
            "{err}"
        );

        // A scenario without a workload of its own replays the base's:
        // an out-of-range base workload is rejected too.
        let mut a = artifact();
        a.scenario.workload = None;
        let mut mmtc = concordia_core::ScenarioSpec::named("mmtc_background").unwrap();
        if let concordia_core::ScenarioKind::MmtcBackground(m) = &mut mmtc.kind {
            m.period_slots = 0;
        }
        a.base.scenario = Some(mmtc);
        let err = ReproArtifact::from_json(&a.to_canonical_json()).expect_err("base workload");
        assert!(
            matches!(err, ArtifactError::Scenario(InvalidScenario::Workload(_))),
            "{err}"
        );
    }

    #[test]
    fn garbage_does_not_parse() {
        assert!(matches!(
            ReproArtifact::from_json("{ not json").expect_err("garbage"),
            ArtifactError::Parse(_)
        ));
    }

    #[test]
    fn artifacts_with_retired_config_keys_still_replay() {
        // Three scheduler and eight supervisor settings became constants;
        // artifacts written before that carry them as keys of the base
        // configuration, at the values the constants now hold.
        let mut base = SimConfig::paper_20mhz();
        base.profiling_slots = 100;
        base.supervisor = Some(Default::default());
        let scenario = Scenario {
            load: 0.5,
            n_cells: 1,
            cores: 4,
            duration: concordia_ran::time::Nanos::from_millis(100),
            faults: FaultPlan::none(),
            reconfig: None,
            workload: None,
        };
        let oracle = Oracle::Sla {
            min_reliability: 0.99999,
        };
        let recorded = evaluate_scenarios(
            &base,
            &oracle,
            std::slice::from_ref(&scenario),
            &mut ParallelEval::new(1),
        )
        .remove(0);
        let current = ReproArtifact::new(
            oracle,
            base,
            scenario,
            recorded.verdict.detail,
            recorded.fingerprint,
        )
        .to_canonical_json();
        let old = current
            .replacen(
                "\"Concordia\": {",
                "\"Concordia\": {\"wake_margin\": 60000, \"critical_factor\": 2.0, \
                 \"shrink_hysteresis\": 1100000,",
                1,
            )
            .replacen(
                "\"supervisor\": {",
                "\"supervisor\": {\"miss_rate_trip\": 0.25, \"shift_quantile\": 0.95, \
                 \"shift_exceed_trip\": 0.5, \"replay_capacity\": 8192, \
                 \"shadow_miss_rate\": 0.02, \"shed_reliability\": 0.99, \
                 \"reject_reliability\": 0.9, \"overload_windows\": 3,",
                1,
            );
        for key in ["wake_margin", "shift_quantile", "overload_windows"] {
            assert!(old.contains(key) && !current.contains(key), "{key}");
        }

        let loaded = ReproArtifact::from_json(&old).expect("an old artifact loads");
        assert_eq!(loaded.to_canonical_json(), current);
        let outcome = replay(&loaded, &mut ParallelEval::new(1));
        assert!(outcome.reproduced, "{}", outcome.fingerprint);
    }

    #[test]
    fn replay_reports_reproduction_via_the_fingerprint() {
        let base = SimConfig::paper_20mhz();
        let scenario = SearchSpace::around(&base).extreme();
        let oracle = Oracle::Sla {
            min_reliability: 0.99999,
        };
        // Record with the stub, then replay with an identical stub: the
        // fingerprints must match and the verdict must still fail.
        let mut eval = ThresholdEval::storms_above(1.0);
        let recorded =
            evaluate_scenarios(&base, &oracle, std::slice::from_ref(&scenario), &mut eval)
                .remove(0);
        assert!(recorded.verdict.failed);
        let a = ReproArtifact::new(
            oracle,
            base,
            scenario,
            recorded.verdict.detail.clone(),
            recorded.fingerprint.clone(),
        );
        let mut replay_eval = ThresholdEval::storms_above(1.0);
        let outcome = replay(&a, &mut replay_eval);
        assert!(outcome.reproduced);
        assert!(outcome.verdict.failed);
        // A behavioural change (different threshold) breaks reproduction.
        let mut drifted_eval = ThresholdEval::storms_above(1e9);
        let outcome = replay(&a, &mut drifted_eval);
        assert!(!outcome.verdict.failed);
        assert!(!outcome.reproduced);
    }
}
