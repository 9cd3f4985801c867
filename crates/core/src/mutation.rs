//! Seeded protocol mutations: the one list of injectable bugs every
//! checker must catch.
//!
//! A mutation testing campaign only proves something if the checker
//! actually catches injected bugs. Each [`ProtocolMutation`] variant
//! disables one load-bearing step of the shared protocol core
//! (`crate::protocol`), so the same bug is injectable into the closed
//! world `dex-check model` explores and into the real runtime
//! `dex-check explore` drives. Control-flow mutations break a PTE or
//! liveness invariant the model sees; payload mutations corrupt page
//! contents, which only the explorer's sequential-consistency oracle
//! (real frames) can observe.
//!
//! Mutations are carried per-cluster in `ClusterConfig` (no globals), so
//! mutated and healthy clusters coexist in one test process.

/// A seeded bug in the ownership/invalidation protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ProtocolMutation {
    /// The real protocol — no bug injected.
    #[default]
    None,
    /// A revoked node acknowledges the invalidation but keeps its PTE
    /// and frame, so it keeps reading a stale copy after ownership moved.
    SkipInvalidate,
    /// The node handing exclusivity away (the home on `ClearOriginPte`,
    /// a forwarding owner in sharded mode) keeps its own mapping, so its
    /// accesses bypass the protocol and read stale data.
    KeepOriginPte,
    /// An invalidation acknowledgment is never sent — the home's
    /// transaction never drains.
    DropAck,
    /// The home ignores `DowngradeOriginPte` and keeps its writable
    /// mapping while replicating readers — broken exclusivity.
    SkipDowngrade,
    /// A granted leader never wakes its coalesced followers, which hang
    /// forever.
    DropWakeup,
    /// A coalescing follower also sends its own request instead of only
    /// waiting for its leader, so answers arrive for a fault nobody is
    /// negotiating.
    FollowerBypass,
    /// An invalidated writer acks with a *zeroed* page instead of its
    /// dirty frame, so the writes it made are dropped on the floor when
    /// ownership transfers.
    LoseInvalidateData,
    /// Grants carry a zeroed page instead of the current frame contents,
    /// losing every write made so far.
    StaleGrantData,
}

/// Every injectable mutation (excludes [`ProtocolMutation::None`]).
pub const ALL_MUTATIONS: [ProtocolMutation; 8] = [
    ProtocolMutation::SkipInvalidate,
    ProtocolMutation::KeepOriginPte,
    ProtocolMutation::DropAck,
    ProtocolMutation::SkipDowngrade,
    ProtocolMutation::DropWakeup,
    ProtocolMutation::FollowerBypass,
    ProtocolMutation::LoseInvalidateData,
    ProtocolMutation::StaleGrantData,
];

impl ProtocolMutation {
    /// Stable kebab-case name (CLI flag value and report label).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolMutation::None => "none",
            ProtocolMutation::SkipInvalidate => "skip-invalidate",
            ProtocolMutation::KeepOriginPte => "keep-origin-pte",
            ProtocolMutation::DropAck => "drop-ack",
            ProtocolMutation::SkipDowngrade => "skip-downgrade",
            ProtocolMutation::DropWakeup => "drop-wakeup",
            ProtocolMutation::FollowerBypass => "follower-bypass",
            ProtocolMutation::LoseInvalidateData => "lose-invalidate-data",
            ProtocolMutation::StaleGrantData => "stale-grant-data",
        }
    }

    /// Parses a [`ProtocolMutation::name`] back to the variant.
    pub fn parse(s: &str) -> Option<Self> {
        std::iter::once(ProtocolMutation::None)
            .chain(ALL_MUTATIONS)
            .find(|m| m.name() == s)
    }

    /// Whether the bug only corrupts page *contents*: invisible to a
    /// world without real frames (the model), so only `dex-check explore`
    /// can catch it.
    pub fn corrupts_payload_only(self) -> bool {
        matches!(
            self,
            ProtocolMutation::LoseInvalidateData | ProtocolMutation::StaleGrantData
        )
    }

    /// Whether the bug lives in leader–follower coalescing: it can only
    /// fire in a world where two threads of one node fault on one page.
    pub fn needs_coalescing(self) -> bool {
        matches!(
            self,
            ProtocolMutation::DropWakeup | ProtocolMutation::FollowerBypass
        )
    }
}

impl std::fmt::Display for ProtocolMutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        assert_eq!(
            ProtocolMutation::parse("none"),
            Some(ProtocolMutation::None)
        );
        for m in ALL_MUTATIONS {
            assert_eq!(ProtocolMutation::parse(m.name()), Some(m));
            assert_ne!(m, ProtocolMutation::None);
        }
        assert_eq!(ProtocolMutation::parse("bogus"), None);
    }
}
