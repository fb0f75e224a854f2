#![warn(missing_docs)]

//! `ghg` — a GHG Protocol style exhaustive carbon accounting engine.
//!
//! This crate is the paper's *comparison baseline*, not its contribution.
//! The GHG Protocol requires comprehensive, per-source data collection
//! across three scopes; for a computer system that translates into a long
//! checklist of metrics (metered energy, per-component bills of material,
//! supplier emission factors, refrigerant inventories, ...). The relevant
//! behaviour for the study is that the method **fails closed**: with any
//! required input missing, no estimate is produced. Applied to the Top 500
//! (Figure 4), that yields almost no operational coverage and zero embodied
//! coverage — which is what motivates EasyC.

pub mod account;
pub mod checklist;
pub mod coverage;
pub mod scopes;

pub use account::GhgInputs;
pub use checklist::{RequiredMetric, EMBODIED_CHECKLIST, OPERATIONAL_CHECKLIST};
pub use scopes::Scope;
