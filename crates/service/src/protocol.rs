//! The newline-delimited JSON wire protocol of the scheduler service.
//!
//! Every request and every response is one JSON object on one line.
//! Requests come in three shapes:
//!
//! - **Plan** — one scheduling cell:
//!   `{"id":1,"workload":"chain:8","seed":7,"pes":4,"scheduler":"sb-lts","sim":"off"}`
//!   (`id`, `seed` default to 0; `sim` defaults to `"off"`; `workload`,
//!   `pes`, `scheduler` are required; an optional `"tenant"` string tags
//!   the request for per-tenant accounting and admission quotas without
//!   entering the cell key). Answered by one `"ok"` frame whose
//!   `outcome` field is the engine's canonical
//!   [`stg_experiments::store::encode_outcome`] serialization — byte-equal
//!   to evaluating the same spec through the engine directly.
//! - **Sweep** — a whole grid: `{"id":2,"sweep":{"workloads":[{"workload":
//!   "chain:8","pes":[2,4]}],"graphs":2,"seed":7,"schedulers":["sb-lts"],
//!   "sim":"batched"}}`, whose `sweep` object is the
//!   [`SweepSpec::encode_spec`] encoding shard headers and fabric
//!   handshakes carry too, read by [`SweepSpec::from_json`]. Answered by
//!   one `"record"` frame per case (in deterministic case order) and a
//!   final `"done"` frame.
//! - **Control** — `{"cmd":"stats"}`, `{"cmd":"ping"}`,
//!   `{"cmd":"shutdown"}` (each with an optional `id`).
//!
//! Malformed frames never panic and never drop the connection: they are
//! answered by a structured `"error"` frame carrying an HTTP-flavoured
//! code (400 malformed, 503 overloaded/draining). Unknown fields are
//! rejected (a typoed `"sheduler"` must not silently pick a default), by
//! the codec's shared accessors ([`Json::check_fields`] and friends).
//!
//! Everything round-trips: `encode` of a parsed frame reproduces the
//! frame byte-for-byte for every registered workload, scheduler, and
//! simulator combination (`tests/proptest_protocol.rs` pins this).

use stg_core::SchedulerKind;
use stg_experiments::json::{self, Json};
pub use stg_experiments::SimMode;
use stg_experiments::{SweepSpec, WorkloadSpec};
use stg_workloads::{WorkloadFamily, WorkloadKind};

/// Protocol error code for malformed or unsupported requests.
pub const CODE_BAD_REQUEST: u16 = 400;
/// Protocol error code for admission rejection (queue full or draining) —
/// the `503`-style overload frame the admission queue emits instead of
/// buffering without bound.
pub const CODE_OVERLOADED: u16 = 503;

/// One scheduling-cell request.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanRequest {
    /// Client-chosen correlation id, echoed on the response (default 0).
    pub id: u64,
    /// The workload spec string (any registered family).
    pub workload: WorkloadKind,
    /// Graph seed (default 0).
    pub seed: u64,
    /// Machine size (PE count), at least 1.
    pub pes: usize,
    /// Scheduler preset.
    pub scheduler: SchedulerKind,
    /// Validation mode (default off).
    pub sim: SimMode,
    /// Tenant tag for multi-tenant accounting and admission quotas
    /// (default `""`: untagged). Does not enter the cell key — tenants
    /// share the cache.
    pub tenant: String,
}

impl PlanRequest {
    /// Renders the canonical request frame (parse of which reproduces
    /// `self` exactly). Untagged requests omit the `tenant` member, so
    /// pre-tenant frames stay byte-identical.
    pub fn encode(&self) -> String {
        let mut members = vec![
            ("id".into(), Json::num(self.id)),
            ("workload".into(), Json::Str(self.workload.spec())),
            ("seed".into(), Json::num(self.seed)),
            ("pes".into(), Json::num(self.pes)),
            (
                "scheduler".into(),
                Json::Str(self.scheduler.alias().to_string()),
            ),
            ("sim".into(), Json::Str(self.sim.to_string())),
        ];
        if !self.tenant.is_empty() {
            members.push(("tenant".into(), Json::Str(self.tenant.clone())));
        }
        Json::Obj(members).to_string()
    }

    /// The one-cell [`SweepSpec`] this request denotes — the exact spec a
    /// caller would hand the engine directly, which is what makes service
    /// responses byte-comparable to direct engine output (and what makes
    /// the service's cache keys line up with `sweep --cache-dir`'s).
    pub fn spec(&self) -> SweepSpec {
        SweepSpec {
            workloads: vec![WorkloadSpec {
                workload: self.workload.clone(),
                pes: vec![self.pes],
            }],
            graphs: 1,
            seed: self.seed,
            schedulers: vec![self.scheduler],
            validate: self.sim.validates(),
            sim: self.sim.choice(),
            timing: false,
            threads: Some(1),
        }
    }
}

/// A whole-grid request: a [`SweepSpec`] over the wire.
#[derive(Clone, Debug)]
pub struct SweepRequest {
    /// Client-chosen correlation id, echoed on every response frame.
    pub id: u64,
    /// The grid to evaluate. `timing` is always false (wall-clocks are
    /// not part of the protocol) and `threads` is 1, as for a plan
    /// request.
    pub spec: SweepSpec,
}

impl SweepRequest {
    /// Renders the frame `{"id":N,"sweep":<spec>}`, embedding the
    /// [`SweepSpec::encode_spec`] bytes verbatim (or its refusal).
    pub fn encode(&self) -> Result<String, String> {
        Ok(format!(
            "{{\"id\":{},\"sweep\":{}}}",
            self.id,
            self.spec.encode_spec()?
        ))
    }
}

/// One parsed request frame.
#[derive(Clone, Debug)]
pub enum Request {
    /// A single scheduling cell.
    Plan(PlanRequest),
    /// A whole sweep grid.
    Sweep(SweepRequest),
    /// Counter snapshot request (`{"cmd":"stats"}`).
    Stats {
        /// Correlation id.
        id: u64,
    },
    /// Liveness probe (`{"cmd":"ping"}`).
    Ping {
        /// Correlation id.
        id: u64,
    },
    /// Graceful drain request (`{"cmd":"shutdown"}`).
    Shutdown {
        /// Correlation id.
        id: u64,
    },
}

impl Request {
    /// The correlation id of any request shape.
    pub fn id(&self) -> u64 {
        match self {
            Request::Plan(p) => p.id,
            Request::Sweep(s) => s.id,
            Request::Stats { id } | Request::Ping { id } | Request::Shutdown { id } => *id,
        }
    }

    /// The tenant tag of any request shape (`""` for untagged requests
    /// and for shapes that carry no tenant).
    pub fn tenant(&self) -> &str {
        match self {
            Request::Plan(p) => &p.tenant,
            _ => "",
        }
    }
}

/// A structured request failure, rendered as an `"error"` frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError {
    /// Correlation id, when one could be recovered from the frame.
    pub id: u64,
    /// HTTP-flavoured code ([`CODE_BAD_REQUEST`] / [`CODE_OVERLOADED`]).
    pub code: u16,
    /// Human-readable reason.
    pub error: String,
}

impl ProtoError {
    /// A 400 malformed-request error.
    pub fn bad(id: u64, error: impl Into<String>) -> ProtoError {
        ProtoError {
            id,
            code: CODE_BAD_REQUEST,
            error: error.into(),
        }
    }

    /// A 503 admission-rejection error.
    pub fn overloaded(id: u64, error: impl Into<String>) -> ProtoError {
        ProtoError {
            id,
            code: CODE_OVERLOADED,
            error: error.into(),
        }
    }

    /// Renders the `"error"` response frame.
    pub fn frame(&self) -> String {
        Json::Obj(vec![
            ("id".into(), Json::num(self.id)),
            ("status".into(), Json::Str("error".into())),
            ("code".into(), Json::num(self.code)),
            ("error".into(), Json::Str(self.error.clone())),
        ])
        .to_string()
    }
}

/// Pulls the `"id"` member out of a frame that may not otherwise parse,
/// so even error frames correlate when the client sent a well-formed id.
fn recover_id(v: &Json) -> u64 {
    v.get("id").and_then(Json::as_u64).unwrap_or(0)
}

/// Parses one request frame. Never panics; every malformation is a
/// [`ProtoError`] carrying the recovered correlation id.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let v = json::parse(line.trim()).map_err(|e| ProtoError::bad(0, format!("bad JSON: {e}")))?;
    let id = recover_id(&v);
    if v.as_object().is_none() {
        return Err(ProtoError::bad(id, "request frame must be a JSON object"));
    }
    request_of(&v, id).map_err(|e| ProtoError::bad(id, e))
}

/// The request a parsed frame object denotes.
fn request_of(v: &Json, id: u64) -> Result<Request, String> {
    if let Some(cmd) = v.get("cmd") {
        v.check_fields(&["id", "cmd"])?;
        return match cmd.as_str().ok_or("field \"cmd\" must be a string")? {
            "stats" => Ok(Request::Stats { id }),
            "ping" => Ok(Request::Ping { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err(format!(
                "unknown cmd {other:?} (known: stats, ping, shutdown)"
            )),
        };
    }
    if let Some(sweep) = v.get("sweep") {
        v.check_fields(&["id", "sweep"])?;
        let mut spec = SweepSpec::from_json(sweep)?;
        spec.threads = Some(1);
        return Ok(Request::Sweep(SweepRequest { id, spec }));
    }
    v.check_fields(&[
        "id",
        "workload",
        "seed",
        "pes",
        "scheduler",
        "sim",
        "tenant",
    ])?;
    Ok(Request::Plan(PlanRequest {
        id,
        workload: v
            .str_field("workload")?
            .parse()
            .map_err(|e| format!("{e}"))?,
        seed: v.opt_u64("seed")?.unwrap_or(0),
        pes: v
            .required("pes")?
            .as_usize()
            .filter(|&p| p >= 1)
            .ok_or("field \"pes\" must be a positive integer")?,
        scheduler: v
            .str_field("scheduler")?
            .parse()
            .map_err(|e| format!("{e}"))?,
        sim: v.opt_str("sim")?.unwrap_or("off").parse()?,
        tenant: v.opt_str("tenant")?.unwrap_or_default().to_string(),
    }))
}

/// The `"ok"` response to a [`PlanRequest`]: the request coordinates plus
/// the engine's canonical outcome serialization. Deterministic — the same
/// request always yields the byte-identical frame, cached or not.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanResponse {
    /// Echoed correlation id.
    pub id: u64,
    /// Workload spec string.
    pub workload: String,
    /// Graph seed.
    pub seed: u64,
    /// PE count.
    pub pes: usize,
    /// Scheduler alias.
    pub scheduler: String,
    /// Validation mode string.
    pub sim: String,
    /// The [`stg_experiments::store::encode_outcome`] serialization of the
    /// cell outcome (scheduling errors are data: `err <code>`).
    pub outcome: String,
}

impl PlanResponse {
    /// Renders the `"ok"` frame.
    pub fn frame(&self) -> String {
        Json::Obj(vec![
            ("id".into(), Json::num(self.id)),
            ("status".into(), Json::Str("ok".into())),
            ("workload".into(), Json::Str(self.workload.clone())),
            ("seed".into(), Json::num(self.seed)),
            ("pes".into(), Json::num(self.pes)),
            ("scheduler".into(), Json::Str(self.scheduler.clone())),
            ("sim".into(), Json::Str(self.sim.clone())),
            ("outcome".into(), Json::Str(self.outcome.clone())),
        ])
        .to_string()
    }
}

/// One streamed case of a sweep response (`"record"` frames).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordResponse {
    /// Echoed correlation id.
    pub id: u64,
    /// Case index in the deterministic grid order.
    pub index: usize,
    /// Workload spec string.
    pub workload: String,
    /// Graph seed.
    pub seed: u64,
    /// PE count.
    pub pes: usize,
    /// Scheduler alias.
    pub scheduler: String,
    /// The canonical outcome serialization.
    pub outcome: String,
}

impl RecordResponse {
    /// Renders the `"record"` frame.
    pub fn frame(&self) -> String {
        Json::Obj(vec![
            ("id".into(), Json::num(self.id)),
            ("status".into(), Json::Str("record".into())),
            ("index".into(), Json::num(self.index)),
            ("workload".into(), Json::Str(self.workload.clone())),
            ("seed".into(), Json::num(self.seed)),
            ("pes".into(), Json::num(self.pes)),
            ("scheduler".into(), Json::Str(self.scheduler.clone())),
            ("outcome".into(), Json::Str(self.outcome.clone())),
        ])
        .to_string()
    }
}

/// The terminal frame of a sweep response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DoneResponse {
    /// Echoed correlation id.
    pub id: u64,
    /// Number of `"record"` frames that preceded this one.
    pub cases: usize,
    /// How many of them failed to schedule.
    pub errors: usize,
}

impl DoneResponse {
    /// Renders the `"done"` frame.
    pub fn frame(&self) -> String {
        Json::Obj(vec![
            ("id".into(), Json::num(self.id)),
            ("status".into(), Json::Str("done".into())),
            ("cases".into(), Json::num(self.cases)),
            ("errors".into(), Json::num(self.errors)),
        ])
        .to_string()
    }
}

/// One parsed response frame (what `loadgen` and the tests consume).
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A plan result.
    Ok(PlanResponse),
    /// One streamed sweep case.
    Record(RecordResponse),
    /// End of a sweep stream.
    Done(DoneResponse),
    /// A structured failure (bad request, overload, draining).
    Error(ProtoError),
    /// Counter snapshot (kept as raw JSON members; see
    /// [`crate::counters::Stats`] for both sides).
    Stats(Json),
    /// Liveness reply.
    Pong {
        /// Echoed correlation id.
        id: u64,
    },
}

impl Response {
    /// Renders the frame for any response shape (inverse of
    /// [`parse_response`]).
    pub fn frame(&self) -> String {
        match self {
            Response::Ok(r) => r.frame(),
            Response::Record(r) => r.frame(),
            Response::Done(r) => r.frame(),
            Response::Error(e) => e.frame(),
            Response::Stats(v) => v.to_string(),
            Response::Pong { id } => Json::Obj(vec![
                ("id".into(), Json::num(*id)),
                ("status".into(), Json::Str("pong".into())),
            ])
            .to_string(),
        }
    }
}

/// Parses one response frame. Like [`parse_request`], total: malformed
/// frames yield `Err`, never a panic.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let v = json::parse(line.trim()).map_err(|e| format!("bad JSON: {e}"))?;
    let id = recover_id(&v);
    let field = |key: &str| v.str_field(key).map(str::to_string);
    match v.str_field("status")? {
        "ok" => Ok(Response::Ok(PlanResponse {
            id,
            workload: field("workload")?,
            seed: v.opt_u64("seed")?.unwrap_or(0),
            pes: v.usize_field("pes")?,
            scheduler: field("scheduler")?,
            sim: field("sim")?,
            outcome: field("outcome")?,
        })),
        "record" => Ok(Response::Record(RecordResponse {
            id,
            index: v.usize_field("index")?,
            workload: field("workload")?,
            seed: v.opt_u64("seed")?.unwrap_or(0),
            pes: v.usize_field("pes")?,
            scheduler: field("scheduler")?,
            outcome: field("outcome")?,
        })),
        "done" => Ok(Response::Done(DoneResponse {
            id,
            cases: v.usize_field("cases")?,
            errors: v.usize_field("errors")?,
        })),
        "error" => Ok(Response::Error(ProtoError {
            id,
            code: u16::try_from(v.u64_field("code")?)
                .map_err(|_| "field \"code\" must fit in 16 bits")?,
            error: field("error")?,
        })),
        "stats" => Ok(Response::Stats(v)),
        "pong" => Ok(Response::Pong { id }),
        other => Err(format!("unknown response status {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg_experiments::SimChoice;

    #[test]
    fn plan_request_round_trips() {
        for tenant in ["", "acme"] {
            let req = PlanRequest {
                id: 3,
                workload: "stencil2d:16x16".parse().unwrap(),
                seed: u64::MAX,
                pes: 32,
                scheduler: SchedulerKind::StreamingRlx,
                sim: SimMode::Validate(SimChoice::Batched),
                tenant: tenant.to_string(),
            };
            let line = req.encode();
            assert_eq!(line.contains("tenant"), !tenant.is_empty());
            match parse_request(&line).unwrap() {
                Request::Plan(back) => assert_eq!(back, req),
                other => panic!("not a plan: {other:?}"),
            }
        }
    }

    #[test]
    fn defaults_and_control_frames() {
        let r = parse_request(r#"{"workload":"chain:8","pes":4,"scheduler":"sb-lts"}"#).unwrap();
        match r {
            Request::Plan(p) => {
                assert_eq!((p.id, p.seed), (0, 0));
                assert_eq!(p.sim, SimMode::Off);
            }
            other => panic!("not a plan: {other:?}"),
        }
        assert!(matches!(
            parse_request(r#"{"cmd":"stats","id":9}"#).unwrap(),
            Request::Stats { id: 9 }
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"shutdown"}"#).unwrap(),
            Request::Shutdown { id: 0 }
        ));
    }

    #[test]
    fn rejects_malformed_with_recovered_id() {
        for (line, needle) in [
            ("not json", "bad JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"id":7,"workload":"chain:8","pes":4}"#, "scheduler"),
            (
                r#"{"id":7,"workload":"mesh","pes":4,"scheduler":"sb-lts"}"#,
                "invalid workload",
            ),
            (
                r#"{"id":7,"workload":"chain:8","pes":0,"scheduler":"sb-lts"}"#,
                "positive",
            ),
            (
                r#"{"id":7,"workload":"chain:8","pes":4,"sheduler":"sb-lts"}"#,
                "unknown field",
            ),
            (r#"{"id":7,"cmd":"reboot"}"#, "unknown cmd"),
            (r#"{"id":7,"sweep":{"workloads":[]}}"#, "non-empty"),
        ] {
            let e = parse_request(line).unwrap_err();
            assert_eq!(e.code, CODE_BAD_REQUEST, "{line}");
            assert!(e.error.contains(needle), "{line}: {}", e.error);
            if line.contains("\"id\":7") {
                assert_eq!(e.id, 7, "{line}");
            }
        }
    }

    #[test]
    fn sweep_request_parses_and_defaults() {
        let r = parse_request(
            r#"{"id":1,"sweep":{"workloads":[{"workload":"chain:8","pes":[2,4]},{"workload":"fft:32"}],"graphs":2,"seed":5,"schedulers":["sb-lts","nonstreaming"],"sim":"batched"}}"#,
        )
        .unwrap();
        let Request::Sweep(s) = r else {
            panic!("not a sweep")
        };
        assert_eq!(s.spec.workloads.len(), 2);
        assert_eq!(s.spec.workloads[0].pes, vec![2, 4]);
        // Omitted pes falls back to the registry default sweep.
        assert!(!s.spec.workloads[1].pes.is_empty());
        assert_eq!((s.spec.graphs, s.spec.seed), (2, 5));
        assert!(s.spec.validate);
        assert_eq!(s.spec.sim, SimChoice::Batched);
        assert!(!s.spec.timing);
    }

    #[test]
    fn error_codes_past_u16_are_refused_not_truncated() {
        let frame = |code: u64| format!(r#"{{"id":1,"status":"error","code":{code},"error":"x"}}"#);
        let err = parse_response(&frame(70_000)).unwrap_err();
        assert!(err.contains("\"code\""), "{err}");
        match parse_response(&frame(503)).unwrap() {
            Response::Error(e) => assert_eq!(e.code, CODE_OVERLOADED),
            other => panic!("not an error frame: {other:?}"),
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Ok(PlanResponse {
                id: 1,
                workload: "chain:8".into(),
                seed: 7,
                pes: 4,
                scheduler: "sb-lts".into(),
                sim: "off".into(),
                outcome: "ok 645 1.98 2.47 0.5 0.99 3 7 nosim".into(),
            }),
            Response::Record(RecordResponse {
                id: 2,
                index: 5,
                workload: "fft:32".into(),
                seed: 0,
                pes: 32,
                scheduler: "nonstreaming".into(),
                outcome: "err cyclic".into(),
            }),
            Response::Done(DoneResponse {
                id: 2,
                cases: 6,
                errors: 1,
            }),
            Response::Error(ProtoError::overloaded(3, "queue full (4 queued)")),
            Response::Pong { id: 4 },
        ];
        for r in responses {
            let line = r.frame();
            assert_eq!(parse_response(&line).unwrap(), r, "{line}");
        }
    }
}
