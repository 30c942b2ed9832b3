//! Counter sets: each set of metrics is declared once, and every surface
//! that prints it renders it from that one declaration.
//!
//! [`counter_set!`](crate::counter_set) takes a name and a kind per field
//! and yields:
//!
//! - the typed snapshot, a `Copy` struct of `u64` fields;
//! - optionally its *live twin*, one relaxed atomic per field
//!   ([`Sum`], [`Max`] or [`Gauge`]), whose `snapshot` and `absorb`
//!   methods move values between the two;
//! - an impl of [`CounterSet`]: [`CounterSet::visit`] walks every
//!   `(name, value)` member, [`CounterSet::text`] renders them as
//!   `name=value` tokens, and [`CounterSet::parse`] reads them back
//!   through any name lookup. The JSON frames render and parse through
//!   the same two methods.
//!
//! A set's prefix is part of every member name, so sets can share one
//! frame or line without colliding: result-store counters are
//! `cell_cache_*`, graph-cache counters `graph_cache_*` and epoch-leap
//! telemetry `leap_*`. A set may nest other sets (their members follow
//! its own fields) and declare derived gauges (`queued = accepted −
//! dispatched`), which render after everything else and which the parser
//! checks against the fields they derive from.
//!
//! Every owner holds its own live set, so several stores, services and
//! coordinators in one process keep separate counts. Recording is one
//! relaxed atomic operation on a named field; nothing is looked up by
//! name on the recording path.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use stg_des::LeapStats;
use stg_workloads::CacheStats;

/// A set of named `u64` metrics, implemented by [`counter_set!`](crate::counter_set).
pub trait CounterSet: Copy + Default {
    /// Calls `f` with every member's name and value: the set's own
    /// fields, then its nested sets' members, then its derived gauges.
    fn visit(&self, f: &mut impl FnMut(&'static str, u64));

    /// Reads a set back from a member lookup (a JSON object, a text
    /// line). `None` if a member is missing or a derived gauge disagrees
    /// with the fields it derives from.
    fn parse(get: &impl Fn(&str) -> Option<u64>) -> Option<Self>;

    /// The members as space-separated `name=value` tokens: the form every
    /// stderr counter line prints.
    fn text(&self) -> String {
        let mut out = String::new();
        self.visit(&mut |name, value| {
            let sep = if out.is_empty() { "" } else { " " };
            write!(out, "{sep}{name}={value}").expect("write to String");
        });
        out
    }
}

/// A monotonic count: values add.
#[derive(Debug, Default)]
pub struct Sum(AtomicU64);

impl Sum {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Folds a snapshot value in (adds it).
    pub fn absorb(&self, n: u64) {
        self.add(n);
    }
}

/// A high-water mark: the largest value seen wins.
#[derive(Debug, Default)]
pub struct Max(AtomicU64);

impl Max {
    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Folds a value in (keeps the larger).
    pub fn absorb(&self, v: u64) {
        self.0.fetch_max(v, Relaxed);
    }
}

/// A last-written gauge: each write replaces the value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Replaces the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Folds a value in (replaces it).
    pub fn absorb(&self, v: u64) {
        self.set(v);
    }
}

/// Declares a counter set once; see the [module docs](crate::metrics).
///
/// ```
/// stg_experiments::counter_set! {
///     /// Requests and how long they took.
///     pub struct Requests / LiveRequests: "req_" {
///         /// Requests served.
///         served: Sum,
///         /// The slowest request, in microseconds.
///         slowest_micros: Max,
///     }
/// }
/// use stg_experiments::metrics::CounterSet;
/// let live = LiveRequests::default();
/// live.served.add(2);
/// live.slowest_micros.absorb(40);
/// let snap = live.snapshot();
/// assert_eq!(snap.text(), "req_served=2 req_slowest_micros=40");
/// ```
///
/// The full form nests sets (`sets { field: Value / Live, }`) and
/// derives gauges (`derived { name = a - b, }`, a saturating
/// difference of two fields). `impl Type / Live: "prefix" { .. }`
/// registers an existing struct of public `u64` fields instead of
/// declaring one; the live twin (`/ Live`) is optional in both forms.
#[macro_export]
macro_rules! counter_set {
    (@impl $name:ident $prefix:literal [$($field:ident)*] [$($set:ident)*] [$($der:ident)*]) => {
        impl $crate::metrics::CounterSet for $name {
            fn visit(&self, f: &mut impl FnMut(&'static str, u64)) {
                $( f(concat!($prefix, stringify!($field)), self.$field); )*
                $( $crate::metrics::CounterSet::visit(&self.$set, f); )*
                $( f(concat!($prefix, stringify!($der)), self.$der()); )*
            }

            fn parse(get: &impl Fn(&str) -> Option<u64>) -> Option<Self> {
                let set = $name {
                    $( $field: get(concat!($prefix, stringify!($field)))?, )*
                    $( $set: $crate::metrics::CounterSet::parse(get)?, )*
                };
                $( if get(concat!($prefix, stringify!($der)))? != set.$der() {
                    return None;
                } )*
                Some(set)
            }
        }
    };
    (@live [] $($rest:tt)*) => {};
    (@live [$live:ident] $vis:vis $name:ident [$($field:ident $kind:ident)*] [$($set:ident $slive:ident)*]) => {
        #[doc = concat!("The live twin of [`", stringify!($name), "`]: one relaxed atomic per field.")]
        #[derive(Debug, Default)]
        $vis struct $live {
            $(
                #[doc = concat!("Live `", stringify!($field), "`.")]
                pub $field: $crate::metrics::$kind,
            )*
            $(
                #[doc = concat!("Live `", stringify!($set), "` set.")]
                pub $set: $slive,
            )*
        }

        impl $live {
            /// A point-in-time copy, each field relaxed-loaded on its own
            /// (fields may be mutually inconsistent while writers run).
            pub fn snapshot(&self) -> $name {
                $name {
                    $( $field: self.$field.get(), )*
                    $( $set: self.$set.snapshot(), )*
                }
            }

            /// Folds a snapshot in, each field by its kind.
            pub fn absorb(&self, value: &$name) {
                $( self.$field.absorb(value.$field); )*
                $( self.$set.absorb(&value.$set); )*
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $(/ $live:ident)? : $prefix:literal {
            $( $(#[$fmeta:meta])* $field:ident: $kind:ident, )*
        }
        $( sets { $( $(#[$smeta:meta])* $set:ident: $sty:ident / $slive:ident, )* } )?
        $( derived { $( $(#[$dmeta:meta])* $der:ident = $a:ident - $b:ident, )* } )?
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $vis struct $name {
            $( $(#[$fmeta])* pub $field: u64, )*
            $($( $(#[$smeta])* pub $set: $sty, )*)?
        }
        $(impl $name {
            $( $(#[$dmeta])* pub fn $der(&self) -> u64 { self.$a.saturating_sub(self.$b) } )*
        })?
        $crate::counter_set!(@impl $name $prefix [$($field)*] [$($($set)*)?] [$($($der)*)?]);
        $crate::counter_set!(@live [$($live)?] $vis $name [$($field $kind)*] [$($($set $slive)*)?]);
    };
    (impl $name:ident $(/ $live:ident)? : $prefix:literal { $( $field:ident: $kind:ident, )* }) => {
        $crate::counter_set!(@impl $name $prefix [$($field)*] [] []);
        $crate::counter_set!(@live [$($live)?] pub $name [$($field $kind)*] []);
    };
}

counter_set! {
    impl LeapStats / LeapCounters: "leap_" {
        sims: Sum,
        leaps: Sum,
        leaped_cycles: Sum,
        max_period: Max,
        stepped_cycles: Sum,
        process_steps: Sum,
        windows_opened: Sum,
        windows_dirtied: Sum,
        windows_scan_failed: Sum,
        windows_rejected: Sum,
    }
}

counter_set! {
    impl CacheStats: "graph_cache_" {
        hits: Sum,
        misses: Sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    counter_set! {
        /// A test set with every kind, a nested set and a derived gauge.
        struct Probe / LiveProbe: "" {
            /// Sum.
            started: Sum,
            /// Sum.
            finished: Sum,
            /// Max.
            peak: Max,
            /// Gauge.
            size: Gauge,
        }
        sets {
            /// Nested.
            leap: LeapStats / LeapCounters,
        }
        derived {
            /// Derived.
            running = started - finished,
        }
    }

    fn lookup(text: &str) -> impl Fn(&str) -> Option<u64> + '_ {
        move |name| {
            text.split(' ')
                .find_map(|token| token.strip_prefix(name)?.strip_prefix('='))
                .and_then(|v| v.parse().ok())
        }
    }

    #[test]
    fn kinds_fold_and_text_round_trips() {
        let live = LiveProbe::default();
        live.started.add(5);
        live.finished.add(2);
        live.peak.absorb(9);
        live.peak.absorb(3);
        live.size.set(96);
        live.size.set(64);
        live.leap.absorb(&LeapStats {
            sims: 2,
            leaps: 2,
            leaped_cycles: 40,
            max_period: 8,
            stepped_cycles: 100,
            process_steps: 300,
            windows_opened: 5,
            windows_dirtied: 1,
            windows_scan_failed: 1,
            windows_rejected: 0,
        });
        live.leap.absorb(&LeapStats {
            sims: 1,
            leaps: 1,
            leaped_cycles: 6,
            max_period: 3,
            stepped_cycles: 20,
            process_steps: 50,
            windows_opened: 2,
            windows_dirtied: 0,
            windows_scan_failed: 0,
            windows_rejected: 1,
        });
        let snap = live.snapshot();
        let text = snap.text();
        assert_eq!(
            text,
            "started=5 finished=2 peak=9 size=64 leap_sims=3 leap_leaps=3 \
             leap_leaped_cycles=46 leap_max_period=8 leap_stepped_cycles=120 \
             leap_process_steps=350 leap_windows_opened=7 leap_windows_dirtied=1 \
             leap_windows_scan_failed=1 leap_windows_rejected=1 running=3"
        );
        assert_eq!(Probe::parse(&lookup(&text)), Some(snap));
        // Absorbing folds by kind: sums add, maxima and gauges do not.
        let twice = LiveProbe::default();
        twice.absorb(&snap);
        twice.absorb(&snap);
        let twice = twice.snapshot();
        assert_eq!((twice.started, twice.peak, twice.size), (10, 9, 64));
        assert_eq!((twice.leap.leaps, twice.leap.max_period), (6, 8));
    }

    #[test]
    fn parse_rejects_missing_members_and_inconsistent_derived_gauges() {
        let text = Probe::default().text();
        assert!(Probe::parse(&lookup(&text)).is_some());
        let forged = text.replace("running=0", "running=1");
        assert!(Probe::parse(&lookup(&forged)).is_none());
        let missing = text.replace("leap_max_period=0 ", "");
        assert!(Probe::parse(&lookup(&missing)).is_none());
    }

    #[test]
    fn registered_sets_take_their_prefixes() {
        assert_eq!(
            CacheStats { hits: 1, misses: 2 }.text(),
            "graph_cache_hits=1 graph_cache_misses=2"
        );
        assert_eq!(
            LeapStats::default().text(),
            "leap_sims=0 leap_leaps=0 leap_leaped_cycles=0 leap_max_period=0 \
             leap_stepped_cycles=0 leap_process_steps=0 leap_windows_opened=0 \
             leap_windows_dirtied=0 leap_windows_scan_failed=0 leap_windows_rejected=0"
        );
    }
}
