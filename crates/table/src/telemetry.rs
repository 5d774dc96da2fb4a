//! Process-wide scan telemetry: relaxed atomic counters the vectorized
//! executor flushes into once per scanned row range, and once per parallel
//! split for the blocks the zone maps rule out before any thread starts.
//!
//! The counters are deliberately *not* per-table: the scan engine is the
//! innermost hot loop of the system, so the executor accumulates into
//! locals and publishes one `fetch_add` per counter per range — cheap
//! enough to stay on unconditionally. Higher layers (the engine's metrics
//! registry, the simulator report) read [`snapshot`] and export the deltas
//! under their own instrument names.

use std::sync::atomic::{AtomicU64, Ordering};

static BATCHES_SCANNED: AtomicU64 = AtomicU64::new(0);
static BATCHES_SKIPPED: AtomicU64 = AtomicU64::new(0);
static FILTERS_ELIDED: AtomicU64 = AtomicU64::new(0);
static ROWS_MATCHED: AtomicU64 = AtomicU64::new(0);

/// Point-in-time copy of the scan counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanTelemetry {
    /// Batches whose rows were actually evaluated or aggregated.
    pub batches_scanned: u64,
    /// Batches proven empty by a zone map and skipped outright.
    pub batches_skipped: u64,
    /// Filters elided because a zone map proved every row matches.
    pub filters_elided: u64,
    /// Rows that passed every filter.
    pub rows_matched: u64,
}

impl ScanTelemetry {
    /// Counter-wise difference `self - earlier` (saturating), for
    /// exporting deltas between two snapshots.
    pub fn since(&self, earlier: &ScanTelemetry) -> ScanTelemetry {
        ScanTelemetry {
            batches_scanned: self.batches_scanned.saturating_sub(earlier.batches_scanned),
            batches_skipped: self.batches_skipped.saturating_sub(earlier.batches_skipped),
            filters_elided: self.filters_elided.saturating_sub(earlier.filters_elided),
            rows_matched: self.rows_matched.saturating_sub(earlier.rows_matched),
        }
    }

    /// Fraction of batches the zone maps eliminated, `0.0` when no
    /// batches were seen.
    pub fn skip_ratio(&self) -> f64 {
        let total = self.batches_scanned + self.batches_skipped;
        if total == 0 {
            0.0
        } else {
            self.batches_skipped as f64 / total as f64
        }
    }
}

/// Reads the current counter values.
pub fn snapshot() -> ScanTelemetry {
    ScanTelemetry {
        batches_scanned: BATCHES_SCANNED.load(Ordering::Relaxed),
        batches_skipped: BATCHES_SKIPPED.load(Ordering::Relaxed),
        filters_elided: FILTERS_ELIDED.load(Ordering::Relaxed),
        rows_matched: ROWS_MATCHED.load(Ordering::Relaxed),
    }
}

/// Publishes one scan range's locally accumulated counts.
pub(crate) fn flush(scanned: u64, skipped: u64, elided: u64, matched: u64) {
    if scanned != 0 {
        BATCHES_SCANNED.fetch_add(scanned, Ordering::Relaxed);
    }
    if skipped != 0 {
        BATCHES_SKIPPED.fetch_add(skipped, Ordering::Relaxed);
    }
    if elided != 0 {
        FILTERS_ELIDED.fetch_add(elided, Ordering::Relaxed);
    }
    if matched != 0 {
        ROWS_MATCHED.fetch_add(matched, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_accumulates_and_since_diffs() {
        let before = snapshot();
        flush(3, 2, 1, 40);
        let delta = snapshot().since(&before);
        assert_eq!(delta.batches_scanned, 3);
        assert_eq!(delta.batches_skipped, 2);
        assert_eq!(delta.filters_elided, 1);
        assert_eq!(delta.rows_matched, 40);
        assert!((delta.skip_ratio() - 0.4).abs() < 1e-12);
        assert_eq!(ScanTelemetry::default().skip_ratio(), 0.0);
    }
}
