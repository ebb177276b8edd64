//! Session prefix-reuse and affinity-routing configuration.
//!
//! Multi-turn traffic (see `workload::sessions`) re-submits a growing prefix
//! each turn. When this subsystem is enabled, an instance *parks* a finished
//! turn's KV blocks instead of freeing them (`engine::instance::Instance`
//! with `retain_sessions`), and the world tracks each session's *home* — the
//! instance holding its parked KV. Three forces then interact:
//!
//! - **Affinity** — policies ask
//!   [`World::session_affinity_target`](crate::World::session_affinity_target)
//!   before their normal placement scan, so a turn lands where its prefix
//!   KV already sits and its prefill computes only the uncached tail.
//! - **Elasticity** — the home declines when it is gone (keep-alive unload,
//!   drain, node failure), on an unschedulable node, or already loaded past
//!   the stickiness-scaled in-flight cap; the turn then falls back to the
//!   normal placement path.
//! - **Migration** — an off-home turn can still skip recompute by shipping
//!   the parked KV over the node fabric (always on with sessions),
//!   paying `tokens · C / KV_TRANSFER_GBPS` of transfer delay instead of
//!   the prefill tail (`RunMetrics::kv_migration_bytes` accounts it).
//!
//! [`SessionConfig::off`] — the default — disables everything and replays
//! sessionless runs byte-for-byte: no entry is ever parked, no RNG draw is
//! added or removed, and the prefill length the performance model sees is
//! unchanged.

use serde::{Deserialize, Serialize};

/// Session prefix-reuse knobs. See the module docs for the model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Master switch: park finished session turns' KV and route follow-up
    /// turns by affinity. Off replays sessionless behavior bit-for-bit.
    pub enabled: bool,
    /// Affinity strength in `[0, 1]`: a follow-up turn sticks to its home
    /// instance only while the home's in-flight request count is below
    /// `stickiness ·` [`AFFINITY_MAX_INFLIGHT`] (at least 1 when positive).
    /// `0.0` never sticks — every turn takes the normal placement path;
    /// `1.0` sticks up to the full cap. Deterministic by construction (a
    /// load threshold, not a coin flip).
    pub stickiness: f64,
}

/// The in-flight cap a home instance keeps at stickiness 1.0
/// ([`SessionConfig::stickiness`] scales it).
pub const AFFINITY_MAX_INFLIGHT: u32 = 16;

impl SessionConfig {
    /// Sessions disabled (the default): byte-identical to pre-session runs.
    pub fn off() -> Self {
        SessionConfig {
            enabled: false,
            stickiness: 0.0,
        }
    }

    /// Prefix reuse with the given stickiness — the configuration the
    /// `session_reuse` experiment sweeps. An off-home turn ships the parked
    /// KV over the fabric (priced at [`crate::world::KV_TRANSFER_GBPS`])
    /// instead of recomputing the prefix.
    pub fn reuse(stickiness: f64) -> Self {
        SessionConfig {
            enabled: true,
            stickiness,
        }
    }
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_default_and_inert() {
        assert_eq!(SessionConfig::default(), SessionConfig::off());
        assert!(!SessionConfig::off().enabled);
    }

    #[test]
    fn reuse_enables_migration() {
        let c = SessionConfig::reuse(0.5);
        assert!(c.enabled);
        assert_eq!(c.stickiness, 0.5);
    }
}
