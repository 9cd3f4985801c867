//! The protocol's counters, each named once.
//!
//! Every count the protocol records is a [`Counter`] at a node, in its
//! process's table of the run's [`MetricsRegistry`](dex_net::MetricsRegistry).
//! `dex-check lint` rule `counter-confined` keeps names from being spelled
//! anywhere else in `crates/core/src`.

dex_net::counter_set! {
    /// One protocol fact a process counts, per node.
    pub enum Counter {
        /// Read faults entering the protocol.
        FaultsRead = "faults.read",
        /// Write faults entering the protocol.
        FaultsWrite = "faults.write",
        /// Origin faults resolved inline on the first try (demand-zero).
        FaultsMinor = "faults.minor",
        /// Followers absorbed by leader–follower coalescing.
        FaultsCoalesced = "faults.coalesced",
        FaultsRetried = "faults.retried",
        FaultsCrashesHandled = "faults.crashes_handled",
        FaultsPagesReclaimed = "faults.pages_reclaimed",
        /// Replies for a request nobody waits for any more.
        FaultsStaleReplies = "faults.stale_replies",
        MigrationsForward = "migrations.forward",
        MigrationsBackward = "migrations.backward",
        MigrationsCrashRehomed = "migrations.crash_rehomed",
        MigrationsDestCrashed = "migrations.dest_crashed",
        /// Operations delegated to original threads.
        Delegations = "delegations",
        FutexWaits = "futex.waits",
        FutexWakes = "futex.wakes",
        VmaSyncs = "vma.syncs",
        VmaBroadcasts = "vma.broadcasts",
        PrefetchPages = "prefetch.pages",
        PrefetchDenied = "prefetch.denied",
        Invalidations = "protocol.invalidations",
        InvalidateBatches = "protocol.invalidate_batches",
        Forwards = "protocol.forwards",
        ForwardsServiced = "protocol.forwards_serviced",
        /// Grants of a never-written page, sent without contents.
        ZeroPageGrants = "protocol.zero_page_grants",
        PageBytesReceived = "protocol.page_bytes_received",
        /// Protocol work run after the grant it was parked behind.
        DeferredWork = "protocol.deferred_work",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_are_unique_and_not_the_fabrics() {
        // `DexStats` sums a name over the process's and the fabric's
        // tables, so the two sets must not share a name.
        let mut names = std::collections::BTreeSet::new();
        for c in Counter::ALL {
            assert!(names.insert(c.name()), "{} named twice", c.name());
        }
        for c in dex_net::NodeCounter::ALL {
            assert!(!names.contains(c.name()), "{} is the fabric's", c.name());
        }
    }
}
