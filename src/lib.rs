//! Umbrella crate for the Top 500 / EasyC carbon-footprint reproduction.
//!
//! This crate re-exports the workspace members so the examples and
//! integration tests in the repository root can use a single import path.
//! The actual implementation lives in `crates/*`:
//!
//! - [`easyc`] — the paper's primary contribution: the seven-metric carbon
//!   footprint model (operational + embodied), including the composable
//!   data-scenario layer (`easyc::scenario`: availability masks, prior
//!   overrides, scenario matrices) and the one `easyc::Assessment` plan:
//!   a borrowed list, a chunked stream or a resident `easyc::FleetState`
//!   run through one parallel engine, bit-identical to serial.
//! - [`top500`] — the Top 500 dataset substrate (embedded appendix Table II,
//!   synthetic list generator, public-info enrichment).
//! - [`hwdb`] — hardware and carbon-factor databases.
//! - [`ghg`] — the GHG-protocol style exhaustive accounting baseline.
//! - [`analysis`] — study pipelines regenerating every paper table and
//!   figure, scenario-sweep summaries (`analysis::fleet::summarize`) and
//!   scenario-pair sensitivity (`analysis::sensitivity::between`).
//! - [`frame`] — columnar mini-dataframe and statistics substrate
//!   (assessment results are exposed columnar via
//!   `easyc::AssessmentOutput::to_frame`).
//! - [`parallel`] — std-only deterministic parallel execution substrate.
//! - [`serve`] — the resident-assessment service: a std-only JSONL-over-TCP
//!   front end over a warm `easyc::FleetState` (CLI `serve` / `query`).

pub use analysis;
pub use easyc;
pub use frame;
pub use ghg;
pub use hwdb;
pub use parallel;
pub use serve;
pub use top500;
