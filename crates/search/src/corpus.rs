//! Persistent counterexample corpus.
//!
//! `--search --corpus PATH` turns the adversarial search into a
//! regression loop: scenarios that survived shrinking in one run are
//! written to the corpus file, and the next run plants them as its first
//! probes (see [`SearchSettings::corpus`](crate::SearchSettings)) — a
//! still-failing counterexample is rediscovered for the cost of one
//! simulator run instead of a whole search phase.
//!
//! Like repro artifacts, corpus files are user-editable JSON, so
//! [`parse_corpus`] validates every scenario semantically
//! ([`Scenario::validate`]) and rejects nonsense with a typed
//! [`CorpusError`] instead of feeding it to the simulator.

use crate::scenario::{InvalidScenario, Scenario};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Corpus format version; bump on breaking layout changes.
pub const CORPUS_VERSION: u32 = 1;

#[derive(Serialize, Deserialize)]
struct CorpusFile {
    format_version: u32,
    scenarios: Vec<Scenario>,
}

/// The canonical serialized corpus: pretty JSON with a trailing newline.
pub fn corpus_json(scenarios: &[Scenario]) -> String {
    let file = CorpusFile {
        format_version: CORPUS_VERSION,
        scenarios: scenarios.to_vec(),
    };
    let mut s = serde_json::to_string_pretty(&file).expect("corpus serializes");
    s.push('\n');
    s
}

/// Parses and validates an externally-supplied corpus file.
pub fn parse_corpus(json: &str) -> Result<Vec<Scenario>, CorpusError> {
    let file: CorpusFile =
        serde_json::from_str(json).map_err(|e| CorpusError::Parse(e.to_string()))?;
    if file.format_version != CORPUS_VERSION {
        return Err(CorpusError::Version {
            found: file.format_version,
            expected: CORPUS_VERSION,
        });
    }
    // The search's base configuration, whose workload a scenario without
    // one runs, was validated where it was loaded.
    for (index, sc) in file.scenarios.iter().enumerate() {
        sc.validate(None)
            .map_err(|err| CorpusError::Scenario { index, err })?;
    }
    Ok(file.scenarios)
}

/// Why an externally-supplied corpus file was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum CorpusError {
    /// Not parseable as corpus JSON.
    Parse(String),
    /// Format version mismatch.
    Version {
        /// Version in the file.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// A scenario is invalid.
    Scenario {
        /// Index of the offending scenario in the file.
        index: usize,
        /// Why it is invalid.
        err: InvalidScenario,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Parse(e) => write!(f, "corpus does not parse: {e}"),
            CorpusError::Version { found, expected } => write!(
                f,
                "corpus format version {found} (this build reads {expected})"
            ),
            CorpusError::Scenario { index, err } => write!(f, "corpus scenario #{index}: {err}"),
        }
    }
}

impl std::error::Error for CorpusError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SearchSpace;
    use concordia_core::config::SimConfig;

    fn scenarios() -> Vec<Scenario> {
        let space = SearchSpace::around(&SimConfig::paper_20mhz());
        vec![space.extreme(), space.baseline()]
    }

    #[test]
    fn corpus_round_trips_byte_for_byte() {
        let scs = scenarios();
        let json = corpus_json(&scs);
        assert!(json.ends_with('\n'));
        let back = parse_corpus(&json).expect("valid corpus");
        assert_eq!(back, scs);
        assert_eq!(corpus_json(&back), json, "re-serialization is stable");
    }

    #[test]
    fn empty_corpus_is_valid() {
        assert_eq!(parse_corpus(&corpus_json(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let json = corpus_json(&scenarios()).replace(
            &format!("\"format_version\": {CORPUS_VERSION}"),
            "\"format_version\": 99",
        );
        let err = parse_corpus(&json).expect_err("bad version");
        assert!(matches!(err, CorpusError::Version { found: 99, .. }));
    }

    #[test]
    fn out_of_range_scenarios_are_rejected_with_their_index() {
        // A load above 1 panicked in the traffic generator.
        for load in [-1.0, 1.5] {
            let mut scs = scenarios();
            scs[1].load = load;
            let err = parse_corpus(&corpus_json(&scs)).expect_err("bad load");
            assert!(
                matches!(
                    err,
                    CorpusError::Scenario {
                        index: 1,
                        err: InvalidScenario::Dimension(_)
                    }
                ),
                "{err}"
            );
            assert!(err.to_string().contains("#1"), "{err}");
        }
    }

    #[test]
    fn parse_errors_name_the_scenario_and_field() {
        let json = corpus_json(&scenarios());
        // Drop the second scenario's `n_cells` line.
        let at = json.rfind("\"n_cells\"").unwrap();
        let end = at + json[at..].find('\n').unwrap() + 1;
        let cut = format!("{}{}", &json[..at], &json[end..]);
        let err = parse_corpus(&cut).expect_err("missing field");
        assert_eq!(
            err.to_string(),
            "corpus does not parse: scenarios[1].n_cells: expected unsigned integer, got Null"
        );
    }

    #[test]
    fn oversized_scenarios_are_rejected_with_their_index() {
        let mut scs = scenarios();
        scs[0].cores = u32::MAX;
        let err = parse_corpus(&corpus_json(&scs)).expect_err("oversized pool");
        assert!(
            matches!(
                err,
                CorpusError::Scenario {
                    index: 0,
                    err: InvalidScenario::Dimension(_)
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn garbage_does_not_parse() {
        assert!(matches!(
            parse_corpus("{ not json").expect_err("garbage"),
            CorpusError::Parse(_)
        ));
    }
}
