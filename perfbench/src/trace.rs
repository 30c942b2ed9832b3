//! The traced run's span recorder.
//!
//! Spans are kept in memory — a per-thread buffer that is moved into one
//! process-wide list when the thread's current request ends — and written
//! out once, after the measured work. A span carries its name, start and
//! end (nanoseconds since the first span of the process), the span that
//! was open around it on the same thread (its parent), the recording
//! thread and a request id. Spans of one request share the id, and within
//! a request each span gets the next sequence number when it opens, so the
//! order of a request's spans does not depend on timing.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The request this span belongs to.
    pub request: u64,
    /// Open order within the request.
    pub seq: u32,
    /// `seq` of the span open around this one, if any.
    pub parent: Option<u32>,
    /// The layer function the span wraps (`layer.function`).
    pub name: &'static str,
    /// Small per-process thread number.
    pub thread: u32,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
}

struct Local {
    thread: u32,
    /// Nesting depth of [`request`] calls on this thread.
    depth: u32,
    request: u64,
    next_seq: u32,
    open: Vec<u32>,
    done: Vec<Span>,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static COLLECTED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        depth: 0,
        request: 0,
        next_seq: 0,
        open: Vec::new(),
        done: Vec::new(),
    });
}

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `f` as request `id` on this thread. Inside an enclosing request
/// (a fabric chunk evaluating its cases inline, a service dispatch running
/// its one-cell sweep) the inner call joins the outer request, so the
/// inner spans stay children of the span that caused them.
pub fn request<R>(id: u64, f: impl FnOnce() -> R) -> R {
    let outer = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.depth += 1;
        if l.depth == 1 {
            l.request = id;
            l.next_seq = 0;
            l.open.clear();
        }
        l.depth > 1
    });
    let out = f();
    let done = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.depth -= 1;
        if outer {
            Vec::new()
        } else {
            std::mem::take(&mut l.done)
        }
    });
    if !done.is_empty() {
        COLLECTED.lock().expect("span list lock").extend(done);
    }
    out
}

/// Runs `f` inside a span named `name`, in the current request.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let (seq, parent) = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let seq = l.next_seq;
        l.next_seq += 1;
        let parent = l.open.last().copied();
        l.open.push(seq);
        (seq, parent)
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.open.pop();
        let span = Span {
            request: l.request,
            seq,
            parent,
            name,
            thread: l.thread,
            start_ns,
            end_ns,
        };
        l.done.push(span);
    });
    out
}

/// Records a span measured by the caller, as a root span of request `id`
/// (for intervals that start before the request id is known, such as the
/// parse of a request frame, or that end on another thread).
pub fn record(id: u64, name: &'static str, start_ns: u64, end_ns: u64) {
    let thread = LOCAL.with(|l| l.borrow().thread);
    let span = Span {
        request: id,
        seq: u32::MAX,
        parent: None,
        name,
        thread,
        start_ns,
        end_ns,
    };
    COLLECTED.lock().expect("span list lock").push(span);
}

/// Takes every collected span, ordered by request and open order.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *COLLECTED.lock().expect("span list lock"));
    spans.sort_by(|a, b| (a.request, a.seq, a.name).cmp(&(b.request, b.seq, b.name)));
    spans
}

/// Per-name totals of one traced round: self time (a span's duration
/// minus the part its children cover) and summed duration.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    self_ns: BTreeMap<&'static str, u64>,
    wall_ns: BTreeMap<&'static str, u64>,
    spans: u64,
}

impl Totals {
    /// Folds `spans` (one round, as returned by [`take`]) into totals.
    pub fn of(spans: &[Span]) -> Totals {
        let mut children: HashMap<(u64, u32), u64> = HashMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                *children.entry((s.request, p)).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut t = Totals {
            spans: spans.len() as u64,
            ..Totals::default()
        };
        for s in spans {
            let dur = s.end_ns - s.start_ns;
            let covered = children.get(&(s.request, s.seq)).copied().unwrap_or(0);
            *t.self_ns.entry(s.name).or_default() += dur.saturating_sub(covered);
            *t.wall_ns.entry(s.name).or_default() += dur;
        }
        t
    }

    /// Self time of `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }

    /// Summed span durations of `name` (children included), in seconds.
    pub fn wall_s(&self, name: &str) -> f64 {
        self.wall_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }

    /// Total spans recorded.
    pub fn spans(&self) -> u64 {
        self.spans
    }
}

/// Writes `spans` as a tab-separated file: one header line, then one line
/// per span in [`take`] order. Root spans recorded by [`record`] show `-`
/// for their sequence number and parent.
pub fn write_file(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "request\tseq\tparent\tname\tthread\tstart_ns\tend_ns")?;
    for s in spans {
        let seq = if s.seq == u32::MAX {
            "-".to_string()
        } else {
            s.seq.to_string()
        };
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{seq}\t{parent}\t{}\t{}\t{}\t{}",
            s.request, s.name, s.thread, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// The part of a span file that depends only on the inputs: request, open
/// order, parent and name of every span (times and threads dropped).
#[cfg(test)]
pub fn skeleton(spans: &[Span]) -> Vec<(u64, u32, Option<u32>, &'static str)> {
    spans
        .iter()
        .map(|s| (s.request, s.seq, s.parent, s.name))
        .collect()
}
