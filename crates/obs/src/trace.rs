//! `chrome://tracing` / Perfetto export of the flight recorder.
//!
//! Produces the JSON *array* flavour of the Trace Event Format: a list
//! of objects with `name`, `ph`, `ts`, `pid`, `tid` (and `dur` for
//! complete spans). Timestamps are microseconds; virtual nanoseconds are
//! divided by 1000 with fractional precision preserved, so event order
//! survives the unit change. Output is deterministic: tracks are walked
//! in `(node, tid)` order and records in recording order.

use serde::Value;

use crate::recorder::{FlightRecorder, Record};

fn micros(ns: u64) -> Value {
    // Exactly representable for any plausible virtual time (f64 holds
    // integers up to 2^53 exactly; ns/1000.0 only adds thousandths).
    Value::Float(ns as f64 / 1000.0)
}

/// Builds the Chrome trace document for everything currently recorded.
///
/// Per track a `thread_name` metadata record is emitted (and a
/// `process_name` per node), then each [`Record`]: spans become `"X"`
/// complete events with a `dur`, instants become `"i"` thread-scoped
/// events carrying their argument under `args.arg`.
pub fn chrome_trace(recorder: &FlightRecorder) -> Value {
    let mut out: Vec<Value> = Vec::new();
    let mut last_node = None;
    for (node, tid, name, records, dropped) in recorder.dump() {
        if last_node != Some(node) {
            last_node = Some(node);
            out.push(Value::Object(vec![
                ("name".into(), Value::Str("process_name".into())),
                ("ph".into(), Value::Str("M".into())),
                ("ts".into(), Value::UInt(0)),
                ("pid".into(), Value::UInt(node as u64)),
                ("tid".into(), Value::UInt(0)),
                (
                    "args".into(),
                    Value::Object(vec![("name".into(), Value::Str(format!("node{node}")))]),
                ),
            ]));
        }
        let track_name = if name.is_empty() {
            if tid == crate::recorder::HW_TRACK {
                "hw".to_string()
            } else {
                format!("track{tid}")
            }
        } else {
            name
        };
        out.push(Value::Object(vec![
            ("name".into(), Value::Str("thread_name".into())),
            ("ph".into(), Value::Str("M".into())),
            ("ts".into(), Value::UInt(0)),
            ("pid".into(), Value::UInt(node as u64)),
            ("tid".into(), Value::UInt(tid as u64)),
            (
                "args".into(),
                Value::Object(vec![("name".into(), Value::Str(track_name))]),
            ),
        ]));
        for rec in records {
            out.push(match rec {
                Record::Instant { at_ns, kind, arg } => Value::Object(vec![
                    ("name".into(), Value::Str(kind.name().into())),
                    ("ph".into(), Value::Str("i".into())),
                    ("ts".into(), micros(at_ns)),
                    ("pid".into(), Value::UInt(node as u64)),
                    ("tid".into(), Value::UInt(tid as u64)),
                    ("s".into(), Value::Str("t".into())),
                    (
                        "args".into(),
                        Value::Object(vec![("arg".into(), Value::UInt(arg))]),
                    ),
                ]),
                Record::Span {
                    name,
                    start_ns,
                    end_ns,
                } => Value::Object(vec![
                    ("name".into(), Value::Str(name)),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), micros(start_ns)),
                    ("dur".into(), micros(end_ns - start_ns)),
                    ("pid".into(), Value::UInt(node as u64)),
                    ("tid".into(), Value::UInt(tid as u64)),
                ]),
            });
        }
        if dropped > 0 {
            out.push(Value::Object(vec![
                ("name".into(), Value::Str("ring_dropped".into())),
                ("ph".into(), Value::Str("i".into())),
                ("ts".into(), Value::UInt(0)),
                ("pid".into(), Value::UInt(node as u64)),
                ("tid".into(), Value::UInt(tid as u64)),
                ("s".into(), Value::Str("t".into())),
                (
                    "args".into(),
                    Value::Object(vec![("arg".into(), Value::UInt(dropped))]),
                ),
            ]));
        }
    }
    Value::Array(out)
}

/// [`chrome_trace`] rendered as a compact JSON string, ready to be
/// written to a `trace.json` and loaded in `chrome://tracing` or
/// <https://ui.perfetto.dev>.
pub fn chrome_trace_string(recorder: &FlightRecorder) -> String {
    serde_json::to_string(&chrome_trace(recorder)).expect("trace serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::EventKind;

    #[test]
    fn trace_has_required_fields_and_is_deterministic() {
        let rec = FlightRecorder::new(16);
        rec.name_track(0, 1, "worker");
        rec.event(0, 1, 1500, EventKind::SendPosted, 4096);
        rec.span(0, 1, "credit_stall", 2000, 5000);
        let v = chrome_trace(&rec);
        let Value::Array(events) = &v else {
            panic!("trace must be a JSON array")
        };
        // process_name + thread_name + instant + span.
        assert_eq!(events.len(), 4);
        for ev in events {
            let Value::Object(fields) = ev else {
                panic!("each event must be an object")
            };
            for required in ["name", "ph", "ts", "pid", "tid"] {
                assert!(
                    fields.iter().any(|(k, _)| k == required),
                    "missing field {required}"
                );
            }
        }
        assert_eq!(chrome_trace_string(&rec), chrome_trace_string(&rec));
        let s = chrome_trace_string(&rec);
        assert!(s.contains("\"send_posted\""));
        assert!(s.contains("\"credit_stall\""));
        assert!(s.contains("\"dur\":3"));
        assert!(s.contains("\"ts\":1.5"));
    }

    #[test]
    fn unnamed_tracks_get_fallback_names() {
        let rec = FlightRecorder::new(4);
        rec.event(2, 0, 0, EventKind::QpCacheMiss, 1);
        rec.event(2, 3, 0, EventKind::RnrRetry, 1);
        let s = chrome_trace_string(&rec);
        assert!(s.contains("\"hw\""));
        assert!(s.contains("\"track3\""));
        assert!(s.contains("\"node2\""));
    }
}
