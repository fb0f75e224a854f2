#![warn(missing_docs)]

//! `frame` — a small, typed, columnar data library.
//!
//! The EasyC study is fundamentally a dataframe/statistics workload: a list of
//! 500 systems with many optional attributes, grouped, aggregated and
//! interpolated. Rust has no pandas, so this crate supplies the minimal
//! substrate the study needs:
//!
//! - [`Column`]: a nullable, typed column (`f64` / `i64` / `String` / `bool`).
//! - [`DataFrame`]: an ordered collection of equal-length named columns with
//!   cell and numeric-column access and group-by.
//! - [`csv`]: dependency-free CSV reader/writer with quoting and null handling.
//! - [`stats`]: descriptive statistics (sums, means, quantiles) and the
//!   Kolmogorov–Smirnov and Gini shape measures, with explicit empty-input
//!   semantics.
//! - [`bitset`]: fixed-length `u64`-word bitsets, the presence-mask substrate
//!   of the columnar assessment kernels.
//!
//! Everything is deterministic and allocates predictably; hot paths take
//! slices, not owned vectors (see the workspace performance guide).

pub mod agg;
pub mod bitset;
pub mod column;
pub mod csv;
pub mod error;
pub mod frame;
pub mod stats;

pub use bitset::Bitset;
pub use column::{Column, Value};
pub use error::{FrameError, Result};
pub use frame::DataFrame;
