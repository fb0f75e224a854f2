//! Violating half of the transitive-wall-clock pair: a pub result entry
//! point whose call chain crosses a dependency edge into the clock sink.

/// Assesses one pipeline tick, stamping telemetry (the bug under test).
pub fn assess_pipeline() -> u64 {
    telem::telemetry::stamp() + 1
}
