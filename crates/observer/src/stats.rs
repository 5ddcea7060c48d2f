//! Counters describing what the observer saw and why it filtered.

/// Filtering and classification counters, one per suppression reason.
///
/// These make the §4 heuristics observable: tests assert on them and the
/// ablation benches report them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ObserverStats {
    /// Raw trace events processed.
    pub events: u64,
    /// References delivered to the sink.
    pub refs_emitted: u64,
    /// Events from superuser processes skipped (§4.10).
    pub suppressed_superuser: u64,
    /// References from meaningless processes dropped (§4.1).
    pub suppressed_meaningless: u64,
    /// References swallowed inside a detected `getcwd` walk (§4.1).
    pub suppressed_getcwd: u64,
    /// References under temporary directories dropped (§4.5).
    pub suppressed_temp: u64,
    /// References to critical-prefix files dropped (§4.3).
    pub suppressed_critical: u64,
    /// References to dot-files dropped (§4.3).
    pub suppressed_dotfile: u64,
    /// References to device/non-file objects dropped (§4.6).
    pub suppressed_device: u64,
    /// References to frequently-referenced files dropped (§4.2).
    pub suppressed_frequent: u64,
    /// Failed calls ignored (nonexistent files etc., §4.4).
    pub suppressed_failed: u64,
    /// Directory references excluded from the distance stream (§4.6).
    pub suppressed_directory: u64,
    /// Stats collapsed into a following open of the same file (§4.8).
    pub stats_collapsed: u64,
    /// Hoard misses detected automatically (§4.4).
    pub hoard_misses: u64,
    /// Processes judged meaningless by the active strategy (§4.1).
    pub processes_marked_meaningless: u64,
}

impl ObserverStats {
    /// Total references suppressed for any reason.
    #[must_use]
    pub fn total_suppressed(&self) -> u64 {
        self.suppressed_superuser
            + self.suppressed_meaningless
            + self.suppressed_getcwd
            + self.suppressed_temp
            + self.suppressed_critical
            + self.suppressed_dotfile
            + self.suppressed_device
            + self.suppressed_frequent
            + self.suppressed_failed
            + self.suppressed_directory
    }
}

// Encoded as its counters, varints in declaration order.
seer_trace::codec_struct!(ObserverStats {
    events,
    refs_emitted,
    suppressed_superuser,
    suppressed_meaningless,
    suppressed_getcwd,
    suppressed_temp,
    suppressed_critical,
    suppressed_dotfile,
    suppressed_device,
    suppressed_frequent,
    suppressed_failed,
    suppressed_directory,
    stats_collapsed,
    hoard_misses,
    processes_marked_meaningless,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_suppressed_sums_all_reasons() {
        let s = ObserverStats {
            suppressed_superuser: 1,
            suppressed_meaningless: 2,
            suppressed_getcwd: 3,
            suppressed_temp: 4,
            suppressed_critical: 5,
            suppressed_dotfile: 6,
            suppressed_device: 7,
            suppressed_frequent: 8,
            suppressed_failed: 9,
            suppressed_directory: 10,
            ..ObserverStats::default()
        };
        assert_eq!(s.total_suppressed(), 55);
    }
}
