//! CTUP query configuration.

use crate::types::Safety;

/// What the monitor reports. Kept only because `ledger/src/sut.rs` names
/// it; ROADMAP item 1(b) replaces it with a plain `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    /// The paper's CTUP query: the `k` places with the smallest safeties.
    TopK(usize),
}

/// Configuration shared by all CTUP algorithms.
///
/// The partition granularity is carried by the grid of the
/// [`ctup_storage::PlaceStore`] the algorithm is constructed with, so it
/// does not appear here.
#[derive(Debug, Clone, PartialEq)]
pub struct CtupConfig {
    /// The `k` of the query; the paper's experiments use `TopK(15)`. Kept
    /// as a field only because `ledger/src/sut.rs` names it; ROADMAP item
    /// 1(b) removes it.
    pub mode: QueryMode,
    /// Protection range `R` of every unit (Table III default: 0.1).
    pub protection_radius: f64,
    /// OptCTUP's anti-flashing slack `Δ` (Table III default: 6). After a
    /// cell access, every place with `safety < SK + Δ` stays maintained, so
    /// the cell's lower bound can absorb `Δ` decrements before the cell is
    /// touched again. Ignored by BasicCTUP and the naïve schemes.
    pub delta: Safety,
    /// Whether OptCTUP applies the Decrease-Once Optimization (Table II);
    /// disabling it falls back to Table I deltas, reproducing the "without
    /// DOO" series of Fig. 8.
    pub doo_enabled: bool,
    /// Whether accessing a cell purges its DecHash entries. This is the
    /// soundness fix described in DESIGN.md §3.3; it must stay enabled for
    /// correct results and is exposed only so the ablation bench can
    /// measure what the paper's literal Table II would do.
    pub purge_dechash_on_access: bool,
}

impl CtupConfig {
    /// The paper's Table III defaults: `k = 15`, `R = 0.1`, `Δ = 6`.
    pub fn paper_default() -> Self {
        CtupConfig {
            mode: QueryMode::TopK(15),
            protection_radius: 0.1,
            delta: 6,
            doo_enabled: true,
            purge_dechash_on_access: true,
        }
    }

    /// Same defaults with a different `k`.
    pub fn with_k(k: usize) -> Self {
        CtupConfig {
            mode: QueryMode::TopK(k),
            ..Self::paper_default()
        }
    }

    /// The `k` of the top-k query.
    pub fn k(&self) -> usize {
        let QueryMode::TopK(k) = self.mode;
        k
    }

    /// Checks parameter ranges, returning a description of the first
    /// violation. Used by restore paths that must not panic on corrupted
    /// input.
    pub fn check(&self) -> Result<(), &'static str> {
        if !(self.protection_radius > 0.0 && self.protection_radius.is_finite()) {
            return Err("protection radius must be positive and finite");
        }
        if self.delta < 0 {
            return Err("delta must be non-negative");
        }
        if self.k() == 0 {
            return Err("k must be at least 1");
        }
        Ok(())
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    /// Panics on non-positive radius, `TopK(0)`, or negative `Δ`.
    pub fn validate(&self) {
        #[expect(
            clippy::panic,
            reason = "documented `# Panics` wrapper over the fallible check() — construction-time misconfiguration is a programming error"
        )]
        if let Err(message) = self.check() {
            panic!("{message}");
        }
    }
}

impl Default for CtupConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table_iii() {
        let c = CtupConfig::paper_default();
        assert_eq!(c.mode, QueryMode::TopK(15));
        assert_eq!(c.protection_radius, 0.1);
        assert_eq!(c.delta, 6);
        assert!(c.doo_enabled);
        c.validate();
    }

    #[test]
    fn with_k_overrides_only_k() {
        let c = CtupConfig::with_k(5);
        assert_eq!(c.k(), 5);
        assert_eq!(c.delta, 6);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_rejected() {
        CtupConfig::with_k(0).validate();
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn zero_radius_rejected() {
        CtupConfig {
            protection_radius: 0.0,
            ..CtupConfig::paper_default()
        }
        .validate();
    }
}
