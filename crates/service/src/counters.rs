//! Service request counters: the aggregate and per-client numbers the
//! `stats` request surfaces and the fairness/overload tests assert on.
//!
//! All counters are monotonic atomics (or a small per-client map behind a
//! mutex); the derived gauges are computed from them, so there is no
//! separate gauge to keep in sync:
//!
//! - `queued = accepted − dispatched` — requests admitted but not yet
//!   picked up by a worker;
//! - `in_flight = dispatched − completed` — requests a worker is
//!   currently evaluating.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use stg_des::LeapStats;

use crate::json::Json;

/// Aggregate and per-client request counters.
#[derive(Default)]
pub struct Counters {
    accepted: AtomicU64,
    rejected: AtomicU64,
    malformed: AtomicU64,
    dispatched: AtomicU64,
    completed: AtomicU64,
    sched_errors: AtomicU64,
    eval_micros: AtomicU64,
    leap_leaps: AtomicU64,
    leap_cycles: AtomicU64,
    leap_max_period: AtomicU64,
    per_client: Mutex<BTreeMap<u64, ClientCounters>>,
    per_tenant: Mutex<BTreeMap<String, ClientCounters>>,
}

/// Per-client slice of the counters (keyed by connection id).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientCounters {
    /// Requests admitted past admission control.
    pub accepted: u64,
    /// Requests rejected by admission control (overload or draining).
    pub rejected: u64,
    /// Admitted requests fully processed.
    pub completed: u64,
}

impl Counters {
    /// A fresh, all-zero counter set.
    pub fn new() -> Counters {
        Counters::default()
    }

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

    /// Counts a request admitted past admission control.
    pub fn record_accepted(&self, client: u64, tenant: &str) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.client(client, |c| c.accepted += 1);
        self.tenant(tenant, |t| t.accepted += 1);
    }

    /// Counts a request rejected by admission control.
    pub fn record_rejected(&self, client: u64, tenant: &str) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        self.client(client, |c| c.rejected += 1);
        self.tenant(tenant, |t| t.rejected += 1);
    }

    /// Counts a frame that failed to parse (never admitted).
    pub fn record_malformed(&self) {
        self.malformed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a queued request handed to a worker.
    pub fn record_dispatched(&self) {
        self.dispatched.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a finished request: the evaluation wall-clock (0 for cache
    /// hits), how many of its cells failed to schedule.
    pub fn record_completed(&self, client: u64, tenant: &str, eval_micros: u64, sched_errors: u64) {
        self.eval_micros.fetch_add(eval_micros, Ordering::Relaxed);
        self.sched_errors.fetch_add(sched_errors, Ordering::Relaxed);
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.client(client, |c| c.completed += 1);
        self.tenant(tenant, |t| t.completed += 1);
    }

    /// Folds one sweep's aggregated [`LeapStats`] into the service-wide
    /// leap counters, so the batched simulator's epoch-leap behaviour is
    /// observable from the `stats` frame without a perfbench run.
    pub fn record_leap(&self, leap: LeapStats) {
        self.leap_leaps.fetch_add(leap.leaps, Ordering::Relaxed);
        self.leap_cycles
            .fetch_add(leap.leaped_cycles, Ordering::Relaxed);
        self.leap_max_period
            .fetch_max(leap.max_period, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot for the `stats` frame (counters are
    /// independently relaxed-loaded; exact cross-counter consistency is
    /// not promised while requests are in flight).
    pub fn snapshot(&self) -> Snapshot {
        let per_client = self
            .per_client
            .lock()
            .expect("counter lock")
            .iter()
            .map(|(&id, &c)| (id, c))
            .collect();
        let per_tenant = self
            .per_tenant
            .lock()
            .expect("counter lock")
            .iter()
            .map(|(name, &c)| (name.clone(), c))
            .collect();
        Snapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            dispatched: self.dispatched.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            sched_errors: self.sched_errors.load(Ordering::Relaxed),
            eval_micros: self.eval_micros.load(Ordering::Relaxed),
            leap: LeapStats {
                leaps: self.leap_leaps.load(Ordering::Relaxed),
                leaped_cycles: self.leap_cycles.load(Ordering::Relaxed),
                max_period: self.leap_max_period.load(Ordering::Relaxed),
            },
            per_client,
            per_tenant,
        }
    }
}

/// One point-in-time copy of every counter.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Requests admitted past admission control.
    pub accepted: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Frames that failed to parse.
    pub malformed: u64,
    /// Admitted requests handed to workers.
    pub dispatched: u64,
    /// Requests fully processed.
    pub completed: u64,
    /// Cells that failed to schedule (scheduling errors are data, but the
    /// counter makes them observable without scraping outcomes).
    pub sched_errors: u64,
    /// Total evaluation wall-clock spent on cache misses, in microseconds.
    pub eval_micros: u64,
    /// Aggregated batched-simulator epoch-leap telemetry across every
    /// sweep this service evaluated (counters add; `max_period` is the
    /// service-lifetime maximum).
    pub leap: LeapStats,
    /// Per-client counters, keyed by connection id.
    pub per_client: Vec<(u64, ClientCounters)>,
    /// Per-tenant counters, keyed by the tenant tag of plan requests
    /// (untagged requests are not listed).
    pub per_tenant: Vec<(String, ClientCounters)>,
}

impl Snapshot {
    /// Requests admitted but not yet picked up by a worker.
    pub fn queued(&self) -> u64 {
        self.accepted.saturating_sub(self.dispatched)
    }

    /// Requests a worker is currently evaluating.
    pub fn in_flight(&self) -> u64 {
        self.dispatched.saturating_sub(self.completed)
    }

    /// Renders the `"stats"` frame, folding in the result-store traffic
    /// (`hits`/`misses`/`invalidations`/`evicted`/`repaired` of the
    /// shared cell cache).
    pub fn frame(&self, id: u64, store: stg_experiments::StoreStats) -> String {
        let clients: Vec<Json> = self
            .per_client
            .iter()
            .map(|(client, c)| {
                Json::Obj(vec![
                    ("client".into(), Json::num(*client)),
                    ("accepted".into(), Json::num(c.accepted)),
                    ("rejected".into(), Json::num(c.rejected)),
                    ("completed".into(), Json::num(c.completed)),
                ])
            })
            .collect();
        let tenants: Vec<Json> = self
            .per_tenant
            .iter()
            .map(|(tenant, c)| {
                Json::Obj(vec![
                    ("tenant".into(), Json::Str(tenant.clone())),
                    ("accepted".into(), Json::num(c.accepted)),
                    ("rejected".into(), Json::num(c.rejected)),
                    ("completed".into(), Json::num(c.completed)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("id".into(), Json::num(id)),
            ("status".into(), Json::Str("stats".into())),
            ("accepted".into(), Json::num(self.accepted)),
            ("rejected".into(), Json::num(self.rejected)),
            ("malformed".into(), Json::num(self.malformed)),
            ("completed".into(), Json::num(self.completed)),
            ("queued".into(), Json::num(self.queued())),
            ("in_flight".into(), Json::num(self.in_flight())),
            ("sched_errors".into(), Json::num(self.sched_errors)),
            ("eval_micros".into(), Json::num(self.eval_micros)),
            ("cache_hits".into(), Json::num(store.hits)),
            ("cache_misses".into(), Json::num(store.misses)),
            ("cache_invalidations".into(), Json::num(store.invalidations)),
            ("cache_evictions".into(), Json::num(store.evicted)),
            ("cache_repaired".into(), Json::num(store.repaired)),
            ("leap_leaps".into(), Json::num(self.leap.leaps)),
            (
                "leap_leaped_cycles".into(),
                Json::num(self.leap.leaped_cycles),
            ),
            ("leap_max_period".into(), Json::num(self.leap.max_period)),
            ("clients".into(), Json::Arr(clients)),
            ("tenants".into(), Json::Arr(tenants)),
        ])
        .to_string()
    }

    /// Reads a `"stats"` frame (as parsed by
    /// [`crate::protocol::parse_response`]) back into a snapshot plus the
    /// store counters. `None` if the frame is not a stats frame, or if it
    /// reports more requests queued than accepted.
    pub fn from_json(v: &Json) -> Option<(Snapshot, stg_experiments::StoreStats)> {
        if v.get("status")?.as_str()? != "stats" {
            return None;
        }
        let n = |key: &str| v.get(key).and_then(Json::as_u64);
        let mut per_client = Vec::new();
        for c in v.get("clients")?.as_array()? {
            let m = |key: &str| c.get(key).and_then(Json::as_u64);
            per_client.push((
                m("client")?,
                ClientCounters {
                    accepted: m("accepted")?,
                    rejected: m("rejected")?,
                    completed: m("completed")?,
                },
            ));
        }
        let mut per_tenant = Vec::new();
        for t in v.get("tenants")?.as_array()? {
            let m = |key: &str| t.get(key).and_then(Json::as_u64);
            per_tenant.push((
                t.get("tenant")?.as_str()?.to_string(),
                ClientCounters {
                    accepted: m("accepted")?,
                    rejected: m("rejected")?,
                    completed: m("completed")?,
                },
            ));
        }
        Some((
            Snapshot {
                accepted: n("accepted")?,
                rejected: n("rejected")?,
                malformed: n("malformed")?,
                // queued/in_flight are derived on the wire; reconstruct
                // dispatched from them.
                dispatched: n("accepted")?.checked_sub(n("queued")?)?,
                completed: n("completed")?,
                sched_errors: n("sched_errors")?,
                eval_micros: n("eval_micros")?,
                leap: LeapStats {
                    leaps: n("leap_leaps")?,
                    leaped_cycles: n("leap_leaped_cycles")?,
                    max_period: n("leap_max_period")?,
                },
                per_client,
                per_tenant,
            },
            stg_experiments::StoreStats {
                hits: n("cache_hits")?,
                misses: n("cache_misses")?,
                invalidations: n("cache_invalidations")?,
                evicted: n("cache_evictions")?,
                repaired: n("cache_repaired")?,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_derive_from_monotonic_counters() {
        let c = Counters::new();
        c.record_accepted(1, "alice");
        c.record_accepted(1, "bob");
        c.record_accepted(2, "");
        c.record_rejected(2, "bob");
        c.record_dispatched();
        c.record_dispatched();
        c.record_completed(1, "alice", 120, 0);
        let s = c.snapshot();
        assert_eq!((s.accepted, s.rejected, s.completed), (3, 1, 1));
        assert_eq!((s.queued(), s.in_flight()), (1, 1));
        assert_eq!(s.eval_micros, 120);
        let map: std::collections::BTreeMap<_, _> = s.per_client.iter().cloned().collect();
        assert_eq!(map[&1].accepted, 2);
        assert_eq!(map[&1].completed, 1);
        assert_eq!(map[&2].rejected, 1);
        // Tenants tally independently of connections; untagged requests
        // never materialize a tenant row.
        let tenants: std::collections::BTreeMap<_, _> = s.per_tenant.iter().cloned().collect();
        assert_eq!(tenants.len(), 2);
        assert_eq!(
            (tenants["alice"].accepted, tenants["alice"].completed),
            (1, 1)
        );
        assert_eq!((tenants["bob"].accepted, tenants["bob"].rejected), (1, 1));
    }

    #[test]
    fn stats_frame_round_trips() {
        let c = Counters::new();
        c.record_accepted(7, "tenant-a");
        c.record_dispatched();
        c.record_completed(7, "tenant-a", 55, 1);
        c.record_malformed();
        c.record_leap(LeapStats {
            leaps: 5,
            leaped_cycles: 900,
            max_period: 12,
        });
        c.record_leap(LeapStats {
            leaps: 1,
            leaped_cycles: 100,
            max_period: 7,
        });
        let snap = c.snapshot();
        assert_eq!(
            snap.leap,
            LeapStats {
                leaps: 6,
                leaped_cycles: 1000,
                max_period: 12,
            }
        );
        let store = stg_experiments::StoreStats {
            hits: 3,
            misses: 2,
            invalidations: 1,
            evicted: 4,
            repaired: 6,
        };
        let frame = snap.frame(9, store);
        let v = crate::json::parse(&frame).unwrap();
        let (back, back_store) = Snapshot::from_json(&v).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back_store, store);
    }

    #[test]
    fn forged_frame_queueing_more_than_it_accepted_is_undecodable() {
        let frame = Counters::new().snapshot().frame(1, Default::default());
        let forged = frame.replace("\"queued\":0", "\"queued\":1");
        assert_ne!(forged, frame);
        let v = crate::json::parse(&forged).unwrap();
        assert!(Snapshot::from_json(&v).is_none());
    }
}
