//! Fabric counters: the lease/steal/re-queue/merge numbers the coordinator
//! prints at exit, serves over the `stats` op, and the fault tolerance
//! tests assert on. One counter set, declared with
//! [`stg_experiments::counter_set!`], renders every one of those surfaces.

use stg_des::LeapStats;
use stg_experiments::metrics::LeapCounters;
use stg_experiments::store::{StoreCounters, StoreStats};

stg_experiments::counter_set! {
    /// One point-in-time copy of the [`FabricCounters`], each counter
    /// relaxed-loaded on its own (exact cross-counter consistency is not
    /// promised while leases are in flight).
    pub struct FabricSnapshot / FabricCounters: "" {
        /// Leases handed to workers (fresh from the pending queue).
        leases_issued: Sum,
        /// Leases created by splitting a straggler's outstanding lease.
        leases_stolen: Sum,
        /// Leases re-queued after a deadline expiry or worker death.
        re_queued: Sum,
        /// Connections that dropped while holding at least one lease.
        worker_deaths: Sum,
        /// Leases whose full range reached the merged artifact.
        leases_completed: Sum,
        /// Rows folded into the output (each grid cell merges exactly once).
        rows_merged: Sum,
        /// Reported rows whose cell was already merged (steal/re-queue
        /// overlap; harmless because outcomes are deterministic).
        rows_duplicate: Sum,
        /// Request frames answered with an error frame: oversize or
        /// unparseable frames (a `rows` row failing its checksum
        /// included) and rows the merge refused.
        frames_refused: Sum,
        /// The lease auto-tuner's current lease size in cells (the fixed
        /// `--lease-cells` / pre-cut size when auto-tuning is off).
        lease_cells: Gauge,
    }
    sets {
        /// Worker-side result-store traffic, summed across lease reports.
        /// Workers report hits and misses only, so the other members stay 0.
        cell_cache: StoreStats / StoreCounters,
        /// Aggregated batched-simulator epoch-leap telemetry across every
        /// lease report.
        leap: LeapStats / LeapCounters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg_experiments::json::Json;
    use stg_experiments::metrics::CounterSet;

    #[test]
    fn stats_frame_round_trips() {
        let c = FabricCounters::default();
        c.leases_issued.add(4);
        c.leases_stolen.add(1);
        c.re_queued.add(2);
        c.worker_deaths.add(1);
        c.leases_completed.add(3);
        c.rows_merged.add(96);
        c.rows_duplicate.add(8);
        c.frames_refused.add(2);
        c.cell_cache.hits.add(40);
        c.cell_cache.misses.add(56);
        c.leap.absorb(&LeapStats {
            sims: 3,
            leaps: 7,
            leaped_cycles: 1234,
            max_period: 9,
            stepped_cycles: 500,
            process_steps: 2000,
            windows_opened: 10,
            windows_dirtied: 1,
            windows_scan_failed: 1,
            windows_rejected: 1,
        });
        c.leap.absorb(&LeapStats {
            sims: 1,
            leaps: 1,
            leaped_cycles: 6,
            max_period: 3,
            stepped_cycles: 40,
            process_steps: 90,
            windows_opened: 2,
            ..LeapStats::default()
        });
        c.lease_cells.set(96);
        c.lease_cells.set(128);
        let snap = c.snapshot();
        assert_eq!(snap.leap.max_period, 9, "max_period takes the maximum");
        assert_eq!(snap.lease_cells, 128, "gauge keeps the last value");
        let frame = crate::FabricResponse::Stats(snap).frame();
        let v = stg_experiments::json::parse(&frame).unwrap();
        let names: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(
            unique.len(),
            names.len(),
            "a member name repeats: {names:?}"
        );
        assert_eq!(v.get("cell_cache_hits").and_then(Json::as_u64), Some(40));
        assert_eq!(
            crate::FabricResponse::parse(&frame),
            Ok(crate::FabricResponse::Stats(snap))
        );
        let line = snap.text();
        assert!(line.contains("re_queued=2"), "{line}");
        assert!(line.contains("leases_stolen=1"), "{line}");
        assert!(line.contains("frames_refused=2"), "{line}");
        assert!(line.contains(" lease_cells=128 "), "{line}");
        assert!(line.contains("leap_leaped_cycles=1240"), "{line}");
        assert!(line.contains("leap_sims=4"), "{line}");
        assert!(line.contains("leap_stepped_cycles=540"), "{line}");
        assert!(line.contains("leap_process_steps=2090"), "{line}");
        assert!(line.contains("leap_windows_opened=12"), "{line}");
        assert!(line.contains("leap_windows_rejected=1"), "{line}");
    }
}
