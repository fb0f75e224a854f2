//! GHG Protocol emission scopes.

/// The three GHG Protocol scopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scope {
    /// Direct emissions (on-site generation, refrigerant leakage).
    Scope1,
    /// Indirect emissions from purchased electricity / heat / cooling.
    Scope2,
    /// Value-chain emissions (manufacturing, transport, disposal, ...).
    Scope3,
}
