//! # concordia-search
//!
//! Adversarial scenario search: find the traffic/fault/reconfiguration
//! schedule that breaks the SLA, then shrink it to a *minimal*, replayable
//! counterexample.
//!
//! The chaos soaks (PR 1) can only say "this particular schedule passed".
//! This crate turns that into the qualitatively stronger "no counterexample
//! found in an N-scenario search" — and, when a counterexample *does*
//! exist, into the most useful possible bug report: the smallest scenario
//! that still fails, packaged as a self-contained JSON artifact the CLI
//! re-runs byte-identically (`concordia --replay ce.json`).
//!
//! The pieces:
//!
//! * [`scenario`] — a [`Scenario`] is one fully-resolved point in the
//!   search space (load, cells, cores, duration, a fixed fault schedule,
//!   an optional reconfiguration plan); a [`SearchSpace`] bounds the axes.
//! * [`oracle`] — typed failure predicates over experiment reports:
//!   deadline-miss rate beyond the SLA, task loss, guard-inflation bound,
//!   "Concordia misses while FlexRAN-static survives" differentials, and
//!   reconfiguration-plan infeasibility.
//! * [`strategy`] — seeded random sampling, coordinate bisection on the
//!   numeric knobs, and a greedy beam over fault × traffic × reconfig
//!   combinations. All of them drive the simulator exclusively through
//!   [`concordia_core::runner::BatchEval`], so every run is claimed from
//!   one budget and the whole search is a pure function of
//!   `(base config, space, oracle, strategy, settings)` — `--jobs` never
//!   changes a byte of the [`SearchReport`].
//! * [`shrink`](mod@shrink) — delta-debugging minimization: drop fault windows, drop
//!   plan steps, shorten the experiment, reduce cells/load, narrow window
//!   durations and severities; a candidate is accepted only when it is
//!   strictly smaller *and* still fails the oracle.
//! * [`artifact`] — the replayable [`ReproArtifact`], validated on load
//!   (artifacts are user-editable JSON) and checked byte-for-byte against
//!   the recorded failing-report fingerprint on replay.
//! * [`report`] — the deterministic [`SearchReport`].

pub mod artifact;
pub mod corpus;
pub mod oracle;
pub mod report;
pub mod scenario;
pub mod shrink;
pub mod strategy;

#[cfg(test)]
pub(crate) mod testutil;

pub use artifact::{replay, ArtifactError, ReplayOutcome, ReproArtifact, ARTIFACT_VERSION};
pub use corpus::{corpus_json, parse_corpus, CorpusError, CORPUS_VERSION};
pub use oracle::{Oracle, Verdict};
pub use report::{CounterExample, SearchReport};
pub use scenario::{Scenario, ScenarioSize, SearchSpace};
pub use shrink::{shrink, ShrinkOutcome, ShrinkStep};
pub use strategy::{run_search, SearchSettings, Strategy};
