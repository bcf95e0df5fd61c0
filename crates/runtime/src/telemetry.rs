//! Trace-file validation for the telemetry subsystem.
//!
//! The [`streamlin_support::probe`] module records a run; its
//! [`Recorder::chrome_trace`](streamlin_support::Recorder::chrome_trace)
//! export is consumed by `chrome://tracing`/Perfetto, which fail
//! *silently* (blank timeline) on malformed input. This module is the
//! guard: [`validate_trace`] parses an emitted trace with the
//! workspace's own JSON reader and checks the shape the viewers require
//! — used by the `trace_check` binary (CI runs it on a fresh
//! `streamlinc --trace-out` artifact) and the trace-shape tests.

use std::collections::BTreeMap;

use streamlin_support::json::{self, Json};

/// What a validated trace contained.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceShape {
    /// Total events.
    pub events: usize,
    /// Complete (`ph: "X"`) spans.
    pub spans: usize,
    /// Counter (`ph: "C"`) samples.
    pub counters: usize,
    /// Distinct `tid` lanes that carry spans.
    pub lanes: usize,
    /// Lanes that were given a `thread_name`.
    pub named_lanes: usize,
}

fn num(e: &Json, key: &str) -> Result<f64, String> {
    e.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("event missing numeric `{key}`: {e:?}"))
}

/// Validates Chrome trace-event JSON against what the viewers require:
/// a `traceEvents` array of objects, each with a `ph` string and numeric
/// `pid`/`tid`/`ts`; `X` spans additionally need a `name` and a
/// non-negative `dur`, and within each lane span start times must be
/// monotone non-decreasing (the exporter sorts by start time — a
/// violation means the writer is broken).
///
/// # Errors
///
/// Returns the first violation (or JSON syntax error) as a message.
pub fn validate_trace(text: &str) -> Result<TraceShape, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("root object must have a `traceEvents` array")?;
    let mut shape = TraceShape {
        events: events.len(),
        ..TraceShape::default()
    };
    let mut last_start: BTreeMap<i64, f64> = BTreeMap::new();
    let mut named: Vec<i64> = Vec::new();
    let mut span_lanes: Vec<i64> = Vec::new();
    for e in events {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event missing `ph`: {e:?}"))?;
        num(e, "pid")?;
        let tid = num(e, "tid")? as i64;
        match ph {
            "X" => {
                shape.spans += 1;
                let ts = num(e, "ts")?;
                let dur = num(e, "dur")?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("negative ts/dur: {e:?}"));
                }
                e.get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("span missing `name`: {e:?}"))?;
                if let Some(&prev) = last_start.get(&tid) {
                    if ts < prev {
                        return Err(format!(
                            "span timestamps not monotone on tid {tid}: {ts} after {prev}"
                        ));
                    }
                }
                last_start.insert(tid, ts);
                if !span_lanes.contains(&tid) {
                    span_lanes.push(tid);
                }
            }
            "C" => {
                shape.counters += 1;
                num(e, "ts")?;
                e.get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("counter missing `name`: {e:?}"))?;
            }
            "M" => {
                if e.get("name").and_then(Json::as_str) == Some("thread_name")
                    && !named.contains(&tid)
                {
                    named.push(tid);
                }
            }
            "i" => {
                num(e, "ts")?;
            }
            other => return Err(format!("unsupported phase `{other}`: {e:?}")),
        }
    }
    shape.lanes = span_lanes.len();
    shape.named_lanes = named.len();
    Ok(shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamlin_support::{Recorder, StallKind};

    #[test]
    fn a_recorded_trace_validates() {
        let mut rec = Recorder::new();
        rec.lane_name(1, "stage 0");
        rec.node_name(0, "src");
        let t0 = rec.now();
        rec.batch(1, 0, 8, t0);
        rec.stall(1, StallKind::RecvEmpty, rec.now());
        rec.ring_depth(2, 5, rec.now());
        rec.note("pipeline", "1 stage");
        let shape = validate_trace(&rec.chrome_trace()).expect("valid");
        assert_eq!(shape.spans, 2);
        assert_eq!(shape.counters, 1);
        assert!(shape.named_lanes >= 1);
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(validate_trace("{\"traceEvents\":[").is_err());
        assert!(validate_trace("{}").is_err());
    }

    #[test]
    fn non_monotone_spans_are_rejected() {
        let bad = r#"{"traceEvents":[
            {"ph":"X","name":"a","pid":1,"tid":1,"ts":10.0,"dur":1.0},
            {"ph":"X","name":"b","pid":1,"tid":1,"ts":5.0,"dur":1.0}
        ]}"#;
        let err = validate_trace(bad).unwrap_err();
        assert!(err.contains("monotone"), "{err}");
    }
}
