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
//!   numeric-column access.
//! - [`csv`]: dependency-free CSV reading and writing. Readers are typed by
//!   their schema: each pulls records from one byte-level tokenizer, maps
//!   the header onto the columns it knows and reads text verbatim and
//!   numbers by one rule ([`csv::number`]); nothing infers a column's
//!   type. The writer renders a [`DataFrame`] with one escape rule and
//!   writes numbers by one rule ([`csv::push_f64`], `Display`'s bytes),
//!   which the fleet export and serve's JSON share.
//! - [`stats`]: descriptive statistics (sums, means, quantiles) and the
//!   Kolmogorov–Smirnov and Gini shape measures, with explicit empty-input
//!   semantics.
//! - [`bitset`]: fixed-length `u64`-word bitsets, the presence-mask substrate
//!   of the columnar assessment kernels.
//!
//! Everything is deterministic and allocates predictably; hot paths take
//! slices, not owned vectors (see the workspace performance guide).

pub mod bitset;
pub mod column;
pub mod csv;
pub mod error;
pub mod frame;
pub mod stats;

pub use bitset::Bitset;
pub use column::Column;
pub use error::{FrameError, Result};
pub use frame::DataFrame;
