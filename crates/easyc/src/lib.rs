#![warn(missing_docs)]

//! `easyc` — the paper's primary contribution: a carbon-footprint model for
//! computing systems that needs only **seven key data metrics** instead of
//! the GHG Protocol's hundreds.
//!
//! The tool produces two outputs per system:
//!
//! - **Operational carbon** (1 year, MT CO2e): facility energy × average
//!   carbon intensity of the local grid. Facility energy is derived from the
//!   best available *power path* — measured annual energy, measured LINPACK
//!   power, device-level TDP roll-up, or an Rmax/efficiency prior — times
//!   PUE and utilisation priors from [`hwdb`].
//! - **Embodied carbon** (MT CO2e): an ACT-style component roll-up — CPU and
//!   accelerator dies (area × fab intensity / yield), HBM and DRAM, SSD,
//!   chassis and interconnect — with statistical priors filling anything
//!   the seven metrics do not pin down.
//!
//! # The `Assessment` session
//!
//! Every fleet-scale workload — plain assessment, scenario matrices,
//! Monte-Carlo uncertainty — goes through one planned, parallel
//! session:
//!
//! ```
//! use easyc::{Assessment, DataScenario, MetricBit, MetricMask, ScenarioMatrix};
//! use top500::synthetic::{generate_full, SyntheticConfig};
//!
//! let list = generate_full(&SyntheticConfig { n: 40, ..Default::default() });
//! let matrix = ScenarioMatrix::new()
//!     .with(DataScenario::full("full"))
//!     .with(DataScenario::masked(
//!         "no-power",
//!         MetricMask::ALL
//!             .without(MetricBit::PowerKw)
//!             .without(MetricBit::AnnualEnergy),
//!     ));
//!
//! let output = Assessment::of(&list)   // borrows the fleet, clones nothing
//!     .scenarios(&matrix)              // (scenario × chunk) items, one pass
//!     .workers(4)
//!     .run();
//!
//! let full = output.slice("full").expect("scenario present"); // O(1) lookup
//! assert_eq!(full.footprints.len(), 40);
//! assert!(full.coverage.operational >= output.slice("no-power").unwrap().coverage.operational);
//! ```
//!
//! Adding `.uncertainty(1000)` attaches fleet-total operational and
//! embodied [`uncertainty::Interval`]s per scenario, computed in the same
//! run from the same footprints under one [`uncertainty::DrawPlan`]. The
//! plan's RNG streams are keyed by (system, draw index) — never by
//! scenario — so every scenario replays identical per-system perturbations
//! (common random numbers) and
//! [`AssessmentOutput::compare`](session::AssessmentOutput::compare) can
//! pair them into [`uncertainty::ScenarioDelta`] difference intervals far
//! tighter than differencing two independent bands. Masks are applied
//! through the zero-copy [`FleetView`]/[`SystemView`] lens layer — a
//! masked sweep performs zero per-record clones (pinned by tests).
//!
//! The same builder runs over three sources, and every run returns one
//! [`AssessmentOutput`] of per-scenario [`ScenarioSlice`]s (coverage,
//! fleet totals, both intervals, and the footprints where kept):
//!
//! - [`Assessment::of`] — a borrowed list; keeps footprints.
//! - [`Assessment::stream`] — any chunked [`top500::stream::FleetChunks`]
//!   source, for fleets too large to hold in memory; folds each chunk into
//!   totals, coverage and intervals that are bit-identical to the
//!   in-memory run, and hands per-chunk rows to an optional sink — see
//!   [`stream`].
//! - [`FleetState::query`] — a resident fleet whose metrics, columns and
//!   default-scenario footprints stay warm between queries — see [`state`].
//!
//! The module structure mirrors the paper, plus the execution layers:
//!
//! - [`metrics`] — the seven metrics and their extraction.
//! - [`operational`] / [`embodied`] — the two estimators; overrides are
//!   applied inside the computation ([`operational::estimate_view`]).
//! - [`columns`] — the struct-of-arrays fast path
//!   ([`columns::FleetColumns`] + `estimate_columns` kernels), bit-identical
//!   to the row-at-a-time reference.
//! - [`mod@coverage`] — who can be estimated under which data scenario.
//! - [`scenario`] — composable data scenarios: per-metric availability
//!   masks ([`scenario::MetricMask`]), prior overrides
//!   ([`scenario::OverrideSet`]) and scenario matrices
//!   ([`scenario::ScenarioMatrix`]).
//! - [`view`] — the borrowed, field-level scenario lenses
//!   ([`view::FleetView`], [`view::SystemView`]).
//! - [`session`] — the one [`session::Assessment`] builder, the per-block
//!   engine behind every source, and the one [`session::AssessmentOutput`].
//! - [`stream`] — the chunked (larger-than-memory) source and its row sink.
//! - [`partial`] — the running fold the engine accumulates through
//!   ([`partial::PartialAssessment`]): absorb adjacent footprint blocks in
//!   rank order, so every chunking and worker count adds the same terms
//!   as one serial left fold.
//! - [`state`] — the resident-service layer: a long-lived
//!   [`state::FleetState`] (parsed list, Phase-1 metrics, columnar layout
//!   and a content-hash-keyed footprint cache) answering cheap borrowed
//!   queries, bit-identical to a cold session.
//! - [`batch`] — the per-record assessment entry points and the columnar
//!   `scenario, rank, …` result layout ([`batch::footprints_frame`]).
//! - [`estimator`] — the per-system facade, routed through the same code
//!   path as the session.
//! - [`uncertainty`] — Monte-Carlo bands under one [`uncertainty::DrawPlan`]
//!   (common random numbers across scenarios, paired
//!   [`uncertainty::ScenarioDelta`] comparisons); fleet-scale intervals
//!   are served by the session.

pub mod batch;
pub mod columns;
pub mod coverage;
pub mod embodied;
pub mod error;
pub mod estimator;
mod fold;
pub mod metrics;
pub mod operational;
pub mod partial;
pub mod scenario;
pub mod session;
pub mod state;
pub mod stream;
pub mod uncertainty;
pub mod view;

pub use columns::FleetColumns;
pub use coverage::{coverage, CoverageReport, Scenario};
pub use embodied::{EmbodiedBreakdown, EmbodiedEstimate};
pub use error::{EasyCError, Result};
pub use estimator::{EasyC, EasyCConfig, SystemFootprint};
pub use metrics::SevenMetrics;
pub use operational::{AciSource, OperationalEstimate, PowerPath};
pub use partial::{FleetTotals, PartialAssessment};
pub use scenario::{DataScenario, MetricBit, MetricMask, OverrideSet, ScenarioMatrix};
pub use session::{Assessment, AssessmentOutput, ScenarioSlice};
pub use state::{content_hash, FleetState, InvalidateOutcome, UpdateError};
pub use stream::{ChunkRows, RowSink, StreamOutput};
pub use uncertainty::{
    DrawPlan, Interval, PlanError, PlanField, PlanSpec, PriorUncertainty, ScenarioDelta,
    COMPARE_DRAWS, MAX_DRAWS,
};
pub use view::{FleetView, SystemView};
