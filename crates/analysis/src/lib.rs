#![warn(missing_docs)]

//! `analysis` — the study pipelines that regenerate every table and figure
//! of the paper.
//!
//! Two data sources feed the figures:
//!
//! 1. **Reference**: the embedded appendix Table II ([`top500::appendix`]) —
//!    the paper's own per-system results, from which the aggregate figures
//!    (3, 7, 8, 9) and headline numbers are recomputed *exactly*.
//! 2. **Pipeline**: the synthetic Top 500 run end-to-end through EasyC
//!    ([`pipeline`]), which regenerates the coverage figures (2, 4, 5, 6,
//!    Table I) and validates that the model produces the paper's shapes
//!    from raw data.
//!
//! Module map (see DESIGN.md §4 for the experiment index):
//! [`interpolate`] (nearest-10-peer fill), [`aggregate`] (totals +
//! equivalences), [`sensitivity`] (Figure 9), [`projection`] (Figures 10,
//! 11), [`figures`] (one generator per figure/table, rendered as text
//! tables and CSV), [`report`] (run everything, write artifacts).

pub mod aggregate;
pub mod figures;
pub mod fleet;
pub mod interpolate;
pub mod pipeline;
pub mod projection;
mod render;
pub mod report;
pub mod sensitivity;
pub mod turnover;
#[cfg(test)]
mod validate;

pub use aggregate::{Aggregate, Equivalences};
pub use interpolate::nearest_peer_interpolation;
pub use pipeline::{PipelineOutput, StudyPipeline};
pub use projection::{Projection, ProjectionSeries};
pub use sensitivity::SensitivityReport;
