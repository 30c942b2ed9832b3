//! Service request counters: the aggregate and per-client numbers the
//! `stats` request surfaces and the fairness/overload tests assert on.
//!
//! The service-wide totals ([`Snapshot`], live as [`Totals`]) and the
//! per-client and per-tenant families ([`ClientCounters`]) are counter
//! sets declared with [`stg_experiments::counter_set!`], which renders
//! and parses them in the `stats` frame next to the shared store's
//! `cell_cache_*` set. The gauges `queued` and `in_flight` derive from
//! the monotonic counters, so there is no separate gauge to keep in sync.

use std::collections::BTreeMap;
use std::sync::Mutex;

use stg_des::LeapStats;
use stg_experiments::metrics::LeapCounters;
use stg_experiments::StoreStats;

use stg_experiments::json::Json;

stg_experiments::counter_set! {
    /// One point-in-time copy of the service-wide [`Totals`].
    pub struct Snapshot / Totals: "" {
        /// Requests admitted past admission control.
        accepted: Sum,
        /// Requests rejected by admission control.
        rejected: Sum,
        /// Frames that failed to parse.
        malformed: Sum,
        /// Admitted requests handed to workers.
        dispatched: Sum,
        /// Requests fully processed.
        completed: Sum,
        /// Cells that failed to schedule (scheduling errors are data, but
        /// the counter makes them observable without scraping outcomes).
        sched_errors: Sum,
        /// Evaluation wall-clock of the requests that evaluated at least
        /// one cell, in microseconds: a request whose every cell was a hit
        /// or repaired adds 0.
        eval_micros: Sum,
        /// Response frames produced but never written to their client: a
        /// failed send to the connection's writer, the write that failed,
        /// and every frame queued behind it.
        frames_dropped: Sum,
        /// Failed `accept` calls on the listener (`EMFILE` when the
        /// process is out of file descriptors), and accepted connections
        /// dropped because the descriptor for their writer could not be
        /// had, each followed by [`ACCEPT_BACKOFF`](crate::ACCEPT_BACKOFF).
        accept_errors: Sum,
    }
    sets {
        /// Batched-simulator epoch-leap telemetry of every request
        /// (`max_period` is the service-lifetime maximum).
        leap: LeapStats / LeapCounters,
    }
    derived {
        /// Requests admitted but not yet picked up by a worker.
        queued = accepted - dispatched,
        /// Requests a worker is currently evaluating.
        in_flight = dispatched - completed,
    }
}

stg_experiments::counter_set! {
    /// Per-client (or per-tenant) slice of the counters.
    pub struct ClientCounters: "" {
        /// Requests admitted past admission control.
        accepted: Sum,
        /// Requests rejected by admission control (overload or draining).
        rejected: Sum,
        /// Admitted requests fully processed.
        completed: Sum,
    }
}

/// The live service counters: the service-wide [`Totals`] plus the
/// per-client and per-tenant [`ClientCounters`].
#[derive(Default)]
pub struct Counters {
    totals: Totals,
    per_client: Mutex<BTreeMap<u64, ClientCounters>>,
    per_tenant: Mutex<BTreeMap<String, ClientCounters>>,
}

impl Counters {
    fn client(&self, client: u64, f: impl FnOnce(&mut ClientCounters)) {
        let mut map = self.per_client.lock().expect("counter lock");
        f(map.entry(client).or_default());
    }

    /// Untagged requests (`tenant == ""`) stay out of the tenant map:
    /// single-tenant deployments keep an empty `tenants` array instead of
    /// a synthetic `""` row.
    fn tenant(&self, tenant: &str, f: impl FnOnce(&mut ClientCounters)) {
        if tenant.is_empty() {
            return;
        }
        let mut map = self.per_tenant.lock().expect("counter lock");
        f(map.entry(tenant.to_string()).or_default());
    }

    /// The live service-wide totals, for the counters no family splits.
    pub fn totals(&self) -> &Totals {
        &self.totals
    }

    /// Counts a request admitted past admission control.
    pub fn record_accepted(&self, client: u64, tenant: &str) {
        self.totals.accepted.add(1);
        self.client(client, |c| c.accepted += 1);
        self.tenant(tenant, |t| t.accepted += 1);
    }

    /// Counts a request rejected by admission control.
    pub fn record_rejected(&self, client: u64, tenant: &str) {
        self.totals.rejected.add(1);
        self.client(client, |c| c.rejected += 1);
        self.tenant(tenant, |t| t.rejected += 1);
    }

    /// Counts a queued request handed to a worker.
    pub fn record_dispatched(&self) {
        self.totals.dispatched.add(1);
    }

    /// Counts a finished request: the evaluation wall-clock (0 for warm
    /// requests), how many of its cells failed to schedule.
    pub fn record_completed(&self, client: u64, tenant: &str, eval_micros: u64, sched_errors: u64) {
        self.totals.eval_micros.add(eval_micros);
        self.totals.sched_errors.add(sched_errors);
        self.totals.completed.add(1);
        self.client(client, |c| c.completed += 1);
        self.tenant(tenant, |t| t.completed += 1);
    }

    /// A point-in-time copy of the service-wide totals (counters are
    /// independently relaxed-loaded; exact cross-counter consistency is
    /// not promised while requests are in flight).
    pub fn snapshot(&self) -> Snapshot {
        self.totals.snapshot()
    }

    /// Everything a `stats` frame carries, given the store's counters.
    pub fn stats(&self, cell_cache: StoreStats) -> Stats {
        fn rows<K: Clone>(family: &Mutex<BTreeMap<K, ClientCounters>>) -> Vec<(K, ClientCounters)> {
            let map = family.lock().expect("counter lock");
            map.iter().map(|(k, &c)| (k.clone(), c)).collect()
        }
        Stats {
            service: self.snapshot(),
            cell_cache,
            clients: rows(&self.per_client),
            tenants: rows(&self.per_tenant),
        }
    }
}

/// Everything one `stats` frame carries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// The service-wide totals.
    pub service: Snapshot,
    /// The shared result store's counters.
    pub cell_cache: StoreStats,
    /// Per-client counters, keyed by connection id.
    pub clients: Vec<(u64, ClientCounters)>,
    /// Per-tenant counters, keyed by the tenant tag of plan requests
    /// (untagged requests are not listed).
    pub tenants: Vec<(String, ClientCounters)>,
}

impl Stats {
    /// Renders the `"stats"` frame.
    pub fn frame(&self, id: u64) -> String {
        fn family<K>(key: &str, rows: &[(K, ClientCounters)], label: impl Fn(&K) -> Json) -> Json {
            let entry = |(k, counters): &(K, ClientCounters)| {
                let mut members = vec![(key.to_string(), label(k))];
                Json::push_counters(&mut members, counters);
                Json::Obj(members)
            };
            Json::Arr(rows.iter().map(entry).collect())
        }
        let mut members = vec![
            ("id".into(), Json::num(id)),
            ("status".into(), Json::Str("stats".into())),
        ];
        Json::push_counters(&mut members, &self.service);
        Json::push_counters(&mut members, &self.cell_cache);
        let clients = family("client", &self.clients, |c| Json::num(*c));
        let tenants = family("tenant", &self.tenants, |t| Json::Str(t.clone()));
        members.push(("clients".into(), clients));
        members.push(("tenants".into(), tenants));
        Json::Obj(members).to_string()
    }

    /// Reads a `"stats"` frame (as parsed by
    /// [`crate::protocol::parse_response`]) back. `None` if the frame is
    /// not a stats frame, lacks a member, or carries a derived gauge that
    /// disagrees with its counters (e.g. more requests queued than
    /// accepted).
    pub fn from_json(v: &Json) -> Option<Stats> {
        if v.get("status")?.as_str()? != "stats" {
            return None;
        }
        let family = |key: &str| v.get(key)?.as_array();
        Some(Stats {
            service: v.counters()?,
            cell_cache: v.counters()?,
            clients: family("clients")?
                .iter()
                .map(|c| Some((c.get("client")?.as_u64()?, c.counters()?)))
                .collect::<Option<_>>()?,
            tenants: family("tenants")?
                .iter()
                .map(|t| Some((t.get("tenant")?.as_str()?.to_string(), t.counters()?)))
                .collect::<Option<_>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_derive_from_monotonic_counters() {
        let c = Counters::default();
        c.record_accepted(1, "alice");
        c.record_accepted(1, "bob");
        c.record_accepted(2, "");
        c.record_rejected(2, "bob");
        c.record_dispatched();
        c.record_dispatched();
        c.record_completed(1, "alice", 120, 0);
        let stats = c.stats(StoreStats::default());
        let s = stats.service;
        assert_eq!((s.accepted, s.rejected, s.completed), (3, 1, 1));
        assert_eq!((s.queued(), s.in_flight()), (1, 1));
        assert_eq!(s.eval_micros, 120);
        let map: BTreeMap<_, _> = stats.clients.iter().cloned().collect();
        assert_eq!(map[&1].accepted, 2);
        assert_eq!(map[&1].completed, 1);
        assert_eq!(map[&2].rejected, 1);
        // Tenants tally independently of connections; untagged requests
        // never materialize a tenant row.
        let tenants: BTreeMap<_, _> = stats.tenants.iter().cloned().collect();
        assert_eq!(tenants.len(), 2);
        assert_eq!(
            (tenants["alice"].accepted, tenants["alice"].completed),
            (1, 1)
        );
        assert_eq!((tenants["bob"].accepted, tenants["bob"].rejected), (1, 1));
    }

    /// Asserts that no member name repeats within `v` or any object it
    /// nests: the counter sets' prefixes keep their names apart.
    fn assert_unique_members(v: &Json) {
        match v {
            Json::Obj(members) => {
                let mut names = std::collections::BTreeSet::new();
                for (name, value) in members {
                    assert!(names.insert(name), "member {name:?} repeats");
                    assert_unique_members(value);
                }
            }
            Json::Arr(items) => items.iter().for_each(assert_unique_members),
            _ => {}
        }
    }

    #[test]
    fn stats_frame_round_trips() {
        let c = Counters::default();
        c.record_accepted(7, "tenant-a");
        c.record_dispatched();
        c.record_completed(7, "tenant-a", 55, 1);
        c.totals().malformed.add(1);
        c.totals().frames_dropped.add(3);
        c.totals().accept_errors.add(5);
        c.totals().leap.absorb(&LeapStats {
            sims: 2,
            leaps: 5,
            leaped_cycles: 900,
            max_period: 12,
            stepped_cycles: 300,
            process_steps: 1200,
            windows_opened: 9,
            windows_dirtied: 2,
            windows_scan_failed: 1,
            windows_rejected: 1,
        });
        c.totals().leap.absorb(&LeapStats {
            sims: 1,
            leaps: 1,
            leaped_cycles: 100,
            max_period: 7,
            stepped_cycles: 30,
            process_steps: 100,
            windows_opened: 1,
            ..LeapStats::default()
        });
        let store = StoreStats {
            hits: 3,
            misses: 2,
            invalidations: 1,
            evicted: 4,
            repaired: 6,
        };
        let stats = c.stats(store);
        assert_eq!(
            stats.service.leap,
            LeapStats {
                sims: 3,
                leaps: 6,
                leaped_cycles: 1000,
                max_period: 12,
                stepped_cycles: 330,
                process_steps: 1300,
                windows_opened: 10,
                windows_dirtied: 2,
                windows_scan_failed: 1,
                windows_rejected: 1,
            }
        );
        assert_eq!(
            stats
                .frame(9)
                .matches("\"leap_process_steps\":1300")
                .count(),
            1
        );
        let v = stg_experiments::json::parse(&stats.frame(9)).unwrap();
        assert_unique_members(&v);
        assert_eq!(v.get("cell_cache_evicted").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("frames_dropped").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("accept_errors").and_then(Json::as_u64), Some(5));
        assert_eq!(Stats::from_json(&v), Some(stats));
    }

    #[test]
    fn forged_frame_queueing_more_than_it_accepted_is_undecodable() {
        let frame = Counters::default().stats(StoreStats::default()).frame(1);
        let forged = frame.replace("\"queued\":0", "\"queued\":1");
        assert_ne!(forged, frame);
        let v = stg_experiments::json::parse(&forged).unwrap();
        assert!(Stats::from_json(&v).is_none());
    }
}
