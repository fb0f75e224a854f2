#![warn(missing_docs)]

//! `serve` — the std-only resident-assessment front end (ROADMAP item 1).
//!
//! A thin JSONL-over-TCP layer over [`easyc::FleetState`]: the server
//! ([`server::spawn`]) keeps one warm fleet resident and answers
//! `assess` / `sweep` / `compare` / `invalidate` requests through a
//! bounded queue feeding [`ServeConfig::workers`] compute threads, each
//! query fanning out over the deterministic session engine; the client
//! ([`client::Client`]) is a blocking line-at-a-time counterpart for the
//! CLI `query` subcommand, the CI smoke and the tests.
//!
//! Everything result-bearing is **bit-pinned**: responses have a fixed
//! field order (equal answers are equal bytes), carbon totals travel with
//! exact-bit hex fields, fleet totals fold through
//! [`easyc::PartialAssessment`], and a warm answer is byte-identical to a
//! cold one (`tests/serve.rs`). In the spirit of the `auditor` crate, the
//! JSON layer ([`json`]) is hand-rolled std-only code — no external
//! dependencies anywhere.

pub mod client;
pub mod json;
pub mod server;

pub use client::Client;
pub use server::{spawn, ServeConfig, Server};
