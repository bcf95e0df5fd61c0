//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response line per request, over stdio or a
//! TCP connection — built entirely on [`streamlin_support::json`] (the
//! workspace carries no serialization dependency). Values travel as JSON
//! numbers in the shortest round-trip spelling (`support::fmt_f64`, byte
//! for byte what Rust's `{}` prints), so a finite `f64` parsed back from
//! the wire is **bit-identical** to the engine's output — the service
//! equivalence suite leans on this. JSON has no spelling for non-finite
//! numbers (the writer would degrade them to `null`), so samples that
//! overflow or divide to NaN travel as the string sentinels
//! `"inf"`/`"-inf"`/`"nan"` instead ([`write_sample`]/[`decode_sample`]),
//! keeping every program observable through the service.
//!
//! Requests (`op` selects the verb):
//!
//! ```json
//! {"op":"open","id":"s1","program":"...","config":"autosel",
//!  "mode":"measured","matmul":"unrolled","threads":2,"quantum":4,
//!  "fault":"7:die@s0","watchdog_ms":2000,"wait_ms":100}
//! {"op":"read","id":"s1","n":64}
//! {"op":"close","id":"s1"}
//! {"op":"stats"}
//! {"op":"ping"}
//! {"op":"shutdown"}
//! ```
//!
//! Beside `op`, `id`, `program` and `wait_ms`, the members of `open` are
//! exactly the rows of the run-spec knob table
//! ([`streamlin_runtime::KNOBS`], the same table `streamlinc` feeds its
//! flags): each row's `key`, as a string or a number, validated by the
//! row. An `open` naming any other member is refused, as `streamlinc`
//! refuses an unknown flag; the other ops ignore members they do not
//! read.
//!
//! Responses always carry `"ok"`; failures are structured —
//! `{"ok":false,"error":"saturated","need":2,"in_use":4,"budget":4,...}`
//! is the admission-control refusal, never a hang, and worth retrying;
//! `{"ok":false,"error":"too_large","need":3,"budget":2,...}` is a stream
//! that needs more workers than the whole budget and never fits.

use streamlin_runtime::spec::count;
use streamlin_runtime::{RunSpec, KNOBS};
use streamlin_support::fmt_f64;
use streamlin_support::json::{self, Json};

/// A parsed `open` request.
#[derive(Debug, Clone)]
pub struct OpenReq {
    pub id: String,
    pub program: String,
    /// The defaults the request was parsed over, with its knob members
    /// applied.
    pub spec: RunSpec,
    /// How long `open` may wait for admission before a structured
    /// refusal; absent = refuse immediately.
    pub wait_ms: Option<u64>,
}

/// A parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    Open(Box<OpenReq>),
    Read { id: String, n: usize },
    Close { id: String },
    Stats,
    Ping,
    Shutdown,
}

/// Moves the string member `key` out of the request `v` rather than
/// copying it: an `open`'s program is most of its line.
fn take_str(v: &mut Json, key: &str) -> Option<String> {
    let Json::Obj(members) = v else {
        return None;
    };
    match members.remove(key)? {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

/// A member that feeds a validator: strings as they are, numbers in
/// Rust's shortest round-trip spelling (`2` for `2.0`, `0.5`, `-5`, `inf`),
/// so the validators the CLI uses see what the client wrote.
fn text_field(v: &Json, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(Json::Num(n)) => Ok(Some(n.to_string())),
        Some(_) => Err(format!("bad `{key}`: must be a string or a number")),
    }
}

/// The members of an `open` that are not knobs.
const OPEN_MEMBERS: [&str; 4] = ["op", "id", "program", "wait_ms"];

/// Parses one request line, an `open` over [`RunSpec::default`].
///
/// # Errors
///
/// As [`parse_request_over`].
pub fn parse_request(line: &str) -> Result<Request, String> {
    parse_request_over(line, &RunSpec::default())
}

/// Parses one request line; an `open`'s knob members are applied over
/// `base` (the daemon's defaults).
///
/// # Errors
///
/// A human-readable description of what is malformed, naming the member
/// (the server wraps it into a `bad_request` response).
pub fn parse_request_over(line: &str, base: &RunSpec) -> Result<Request, String> {
    let mut v = json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let op = take_str(&mut v, "op").ok_or("missing \"op\"")?;
    match op.as_str() {
        "open" => {
            let id = take_str(&mut v, "id").ok_or("open: missing \"id\"")?;
            let program = take_str(&mut v, "program").ok_or("open: missing \"program\"")?;
            if let Json::Obj(members) = &v {
                let known = |m: &str| OPEN_MEMBERS.contains(&m) || KNOBS.iter().any(|k| k.key == m);
                if let Some(m) = members.keys().find(|m| !known(m)) {
                    return Err(format!("open: unknown member `{m}`"));
                }
            }
            let mut spec = base.clone();
            for knob in KNOBS {
                if let Some(raw) = text_field(&v, knob.key).map_err(|e| format!("open: {e}"))? {
                    knob.apply(&mut spec, &raw)
                        .map_err(|why| format!("open: bad `{}`: {why}", knob.key))?;
                }
            }
            let wait_ms = match text_field(&v, "wait_ms").map_err(|e| format!("open: {e}"))? {
                None => None,
                Some(raw) => {
                    Some(count(&raw, 0).map_err(|why| format!("open: bad `wait_ms`: {why}"))?)
                }
            };
            Ok(Request::Open(Box::new(OpenReq {
                id,
                program,
                spec,
                wait_ms,
            })))
        }
        "read" => {
            let id = take_str(&mut v, "id").ok_or("read: missing \"id\"")?;
            // Checked as the number it is: `read` is the hot request, and
            // stringifying `n` for the knob validator would cost it an
            // allocation.
            let n = match v.get("n").and_then(Json::as_num) {
                Some(n) if n >= 0.0 && n.fract() == 0.0 => n as usize,
                _ => return Err("read: missing or bad `n`".into()),
            };
            Ok(Request::Read { id, n })
        }
        "close" => Ok(Request::Close {
            id: take_str(&mut v, "id").ok_or("close: missing \"id\"")?,
        }),
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Appends one output sample as it travels on the wire: finite values as
/// JSON numbers (shortest round-trip, bit-identical on parse-back),
/// non-finite values as the string sentinels `"inf"`/`"-inf"`/`"nan"`
/// — the JSON number writer would otherwise flatten them to `null`,
/// silently corrupting any program whose arithmetic overflows. This is
/// the only place the sentinels are spelled.
pub fn write_sample(out: &mut String, v: f64) {
    if v.is_finite() {
        fmt_f64::write(out, v);
    } else if v.is_nan() {
        out.push_str("\"nan\"");
    } else if v > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

/// Decodes one wire sample written by [`write_sample`]. `None` for
/// anything that is neither a number nor a recognized sentinel.
pub fn decode_sample(v: &Json) -> Option<f64> {
    match v {
        Json::Num(n) => Some(*n),
        Json::Str(s) => match s.as_str() {
            "inf" => Some(f64::INFINITY),
            "-inf" => Some(f64::NEG_INFINITY),
            "nan" => Some(f64::NAN),
            _ => None,
        },
        _ => None,
    }
}

/// A successful response: `{"ok":true,"op":<op>, ...pairs}`.
pub fn ok_response(op: &str, pairs: Vec<(String, Json)>) -> String {
    let mut all = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("op".to_string(), Json::Str(op.into())),
    ];
    all.extend(pairs);
    Json::obj(all).dump()
}

/// The successful `read` response, written straight into one buffer
/// sized for the batch: byte for byte what [`ok_response`] would dump for
/// the same members (an object's keys sort), without a `Json` node and a
/// map entry per sample to build, walk and drop.
pub fn read_response(id: &str, values: &[f64], delivered: usize, degraded: Option<&str>) -> String {
    // A sample is typically a sign, 17 digits and a point, plus its comma;
    // a batch of longer ones grows the buffer once.
    let mut out =
        String::with_capacity(96 + id.len() + degraded.map_or(0, str::len) + values.len() * 20);
    out.push('{');
    if let Some(reason) = degraded {
        out.push_str("\"degraded\":");
        json::write_string(&mut out, reason);
        out.push(',');
    }
    out.push_str("\"delivered\":");
    json::write_num(&mut out, delivered as f64);
    out.push_str(",\"id\":");
    json::write_string(&mut out, id);
    out.push_str(",\"ok\":true,\"op\":\"read\",\"values\":[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_sample(&mut out, *v);
    }
    out.push_str("]}");
    out
}

/// A failure response: `{"ok":false,"error":<code>,"detail":..., ...}`.
pub fn err_response(code: &str, detail: &str, pairs: Vec<(String, Json)>) -> String {
    let mut all = vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::Str(code.into())),
        ("detail".to_string(), Json::Str(detail.into())),
    ];
    all.extend(pairs);
    Json::obj(all).dump()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use streamlin_runtime::ExecMode;

    fn open(extra: &str) -> Result<OpenReq, String> {
        let line = format!(r#"{{"op":"open","id":"a","program":"p"{extra}}}"#);
        match parse_request(&line)? {
            Request::Open(o) => Ok(*o),
            other => panic!("not open: {other:?}"),
        }
    }

    #[test]
    fn open_defaults_mirror_streamlinc() {
        let o = open("").unwrap();
        assert_eq!(o.spec, RunSpec::default());
        assert_eq!(o.wait_ms, None);
    }

    #[test]
    fn knobs_parse() {
        let o = open(
            r#","mode":"fast","threads":4,"quantum":8,"fault":"7:die@s0",
                "watchdog_ms":500,"wait_ms":10"#,
        )
        .unwrap();
        assert_eq!(o.spec.mode, ExecMode::Fast);
        assert_eq!(o.spec.threads, Some(4));
        assert_eq!(o.spec.quantum, 8);
        assert!(o.spec.fault.is_some());
        assert_eq!(o.spec.watchdog, Some(Duration::from_millis(500)));
        assert_eq!(o.wait_ms, Some(10));
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        assert!(parse_request("").is_err());
        assert!(parse_request("{}").is_err());
        assert!(parse_request(r#"{"op":"read","id":"a"}"#).is_err());
        assert!(parse_request(r#"{"op":"warp"}"#).is_err());
        assert!(parse_request(r#"{"op":"open","id":"a","program":"p","mode":"hyper"}"#).is_err());
        // Every numeric member goes through the CLI's validator: negative,
        // fractional, zero (where the CLI refuses it) and non-finite values
        // are refused by name, as are unknown enumeration values.
        for (key, bad) in [
            ("watchdog_ms", "-5"),
            ("watchdog_ms", "0.5"),
            ("watchdog_ms", "0"),
            ("wait_ms", "-1"),
            ("wait_ms", "1.5"),
            ("quantum", "0"),
            ("quantum", "2.5"),
            ("quantum", "1e999"),
            ("threads", "0"),
            ("threads", "-2"),
            ("threads", "true"),
            ("quantum", "-1"),
            ("config", "\"bogus\""),
            ("mode", "\"turbo\""),
            ("matmul", "\"fused\""),
            ("tier", "\"jit\""),
            ("cert", "\"maybe\""),
            ("fault", "\"7:bogus\""),
        ] {
            let why = open(&format!(r#","{key}":{bad}"#)).expect_err(key);
            assert!(why.contains(&format!("`{key}`")), "{key}={bad}: {why}");
        }
        // A member no row or `open` field names is refused by name, as an
        // unknown flag is by `streamlinc`.
        for (key, value) in [("fission", "2"), ("bogus", "1"), ("unknown", "[1]")] {
            let why = open(&format!(r#","{key}":{value}"#)).expect_err(key);
            assert!(why.contains(&format!("unknown member `{key}`")), "{why}");
        }
        let why = parse_request(r#"{"op":"read","id":"a","n":-1}"#).unwrap_err();
        assert!(why.contains("`n`"), "{why}");
        assert!(open(r#","wait_ms":0"#).is_ok(), "a zero wait is a refusal");
    }

    #[test]
    fn samples_round_trip_through_the_wire_spelling() {
        for v in [
            0.0,
            -0.0,
            0.1 + 0.2,
            -1.0 / 3.0,
            5e-324,
            f64::MAX,
            1e23,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let mut text = String::new();
            write_sample(&mut text, v);
            let back = decode_sample(&json::parse(&text).expect("a JSON value"))
                .unwrap_or_else(|| panic!("{text} does not decode"));
            if v.is_nan() {
                assert!(back.is_nan(), "{text}");
            } else {
                assert_eq!(back.to_bits(), v.to_bits(), "{text}");
            }
        }
    }

    /// The `read` reply as it was built before it was written directly:
    /// a `Json` tree dumped with sorted keys.
    fn read_response_through_the_tree(
        id: &str,
        values: &[f64],
        delivered: usize,
        degraded: Option<&str>,
    ) -> String {
        let sample = |v: &f64| match *v {
            v if v.is_finite() => Json::Num(v),
            v if v.is_nan() => Json::from("nan"),
            v if v > 0.0 => Json::from("inf"),
            _ => Json::from("-inf"),
        };
        let mut pairs = vec![
            ("id".to_string(), Json::from(id)),
            ("values".to_string(), Json::arr(values.iter().map(sample))),
            ("delivered".to_string(), Json::from(delivered)),
        ];
        if let Some(reason) = degraded {
            pairs.push(("degraded".to_string(), Json::from(reason)));
        }
        ok_response("read", pairs)
    }

    #[test]
    fn read_response_is_byte_equal_to_the_dumped_tree() {
        let plain: Vec<f64> = (0..64).map(|i| (i as f64 * 0.731).sin() * 1e3).collect();
        let odd = [
            1.5,
            f64::NAN,
            f64::INFINITY,
            -0.0,
            f64::NEG_INFINITY,
            5e-324,
        ];
        for (id, values, delivered, degraded) in [
            ("s1", &plain[..], 64, None),
            (
                "a.b_c-9",
                &plain[..7],
                1 << 40,
                Some("worker lost: \"stage 1\"\n"),
            ),
            ("empty", &[][..], 0, None),
            ("odd", &odd[..], 6, None),
        ] {
            assert_eq!(
                read_response(id, values, delivered, degraded),
                read_response_through_the_tree(id, values, delivered, degraded),
            );
        }
    }

    #[test]
    fn responses_are_single_lines_that_parse_back() {
        let ok = ok_response("read", vec![("n".into(), Json::Num(3.0))]);
        assert!(!ok.contains('\n'));
        let v = json::parse(&ok).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        let err = err_response("saturated", "pool full", vec![]);
        let v = json::parse(&err).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(v.get("error").and_then(Json::as_str), Some("saturated"));
    }
}
