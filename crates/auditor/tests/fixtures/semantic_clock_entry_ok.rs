//! Clean half of the transitive-wall-clock pair: the entry point computes
//! locally, so the (still lexically-excused) sink is unreachable.

/// Assesses one pipeline tick without touching telemetry.
pub fn assess_pipeline() -> u64 {
    2 + 1
}
