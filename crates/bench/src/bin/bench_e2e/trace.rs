//! In-memory span recorder and its Chrome trace-event writer.
//!
//! Spans are taken in the harness, around calls into each layer's public
//! functions; tracing inside the program is a later issue. A span records
//! its layer, name, start, duration, the request it belongs to (micro-batch
//! or swap index) and the span that caused it (the one open when it began).
//! Nothing is written until the run is over.

use crate::json::{self, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One completed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the call belongs to (`link`, `proto`, `transport`, ...).
    pub layer: &'static str,
    pub name: &'static str,
    /// Request identifier shared by every span of one micro-batch or swap.
    pub request: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    pub start_us: f64,
    pub dur_us: f64,
}

/// Handle returned by [`Recorder::begin`]; `None` while recording is off.
#[must_use]
pub struct Open(Option<usize>);

/// Records spans when enabled and costs one branch per call when not, so
/// the untraced runs that produce the end-to-end metrics execute the same
/// harness code without taking timestamps.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            request,
            parent: self.stack.last().copied(),
            start_us: self.origin.elapsed().as_secs_f64() * 1e6,
            dur_us: 0.0,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let now_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans[index].dur_us = now_us - self.spans[index].start_us;
        // Spans close innermost-first; anything still above this one on
        // the stack was leaked by an early return and is closed with it.
        while let Some(top) = self.stack.pop() {
            if top == index {
                break;
            }
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every distinct `layer.name`, sorted, with the durations (µs) of its
    /// spans.
    pub fn families(&self) -> BTreeMap<String, Vec<f64>> {
        let mut families: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            families
                .entry(format!("{}.{}", s.layer, s.name))
                .or_default()
                .push(s.dur_us);
        }
        families
    }

    /// The trace as Chrome trace-event JSON (`chrome://tracing`, Perfetto):
    /// one complete (`"ph": "X"`) event per span.
    pub fn chrome_trace(&self, process_name: &str) -> Value {
        let mut events = vec![json::obj([
            ("name", json::str("process_name")),
            ("ph", json::str("M")),
            ("pid", Value::UInt(1)),
            ("tid", Value::UInt(1)),
            ("args", json::obj([("name", json::str(process_name))])),
        ])];
        events.extend(self.spans.iter().enumerate().map(|(index, s)| {
            json::obj([
                ("name", json::str(format!("{}.{}", s.layer, s.name))),
                ("cat", json::str(s.layer)),
                ("ph", json::str("X")),
                ("ts", Value::Num(s.start_us)),
                ("dur", Value::Num(s.dur_us)),
                ("pid", Value::UInt(1)),
                ("tid", Value::UInt(1)),
                (
                    "args",
                    json::obj([
                        ("span", Value::UInt(index as u64)),
                        ("request", Value::UInt(s.request)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                    ]),
                ),
            ])
        }));
        json::obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", json::str("ms")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let s = rec.begin("link", "seal", 0);
        rec.end(s);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents() {
        let mut rec = Recorder::new(true);
        let outer = rec.begin("replay", "micro_batch", 7);
        let inner = rec.begin("link", "seal", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.end(inner);
        let sibling = rec.begin("link", "open", 7);
        rec.end(sibling);
        rec.end(outer);
        let top = rec.begin("replay", "micro_batch", 8);
        rec.end(top);

        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(
            spans[3].parent, None,
            "stack unwound after the first request"
        );
        assert!(spans[1].dur_us >= 2_000.0);
        assert!(spans[0].dur_us >= spans[1].dur_us + spans[2].dur_us);
        let families = rec.families();
        assert_eq!(
            families.keys().collect::<Vec<_>>(),
            ["link.open", "link.seal", "replay.micro_batch"]
        );
        assert_eq!(families["link.seal"].len(), 1);
        assert_eq!(families["replay.micro_batch"].len(), 2);
    }

    #[test]
    fn chrome_trace_is_loadable_json_with_one_event_per_span() {
        let mut rec = Recorder::new(true);
        let a = rec.begin("core", "htod", 1);
        rec.end(a);
        let doc = json::parse(&rec.chrome_trace("swap_lifo").to_string()).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert_eq!(events.len(), 2, "metadata event plus one span");
        assert_eq!(events[1].get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(
            events[1].get("name").and_then(Value::as_str),
            Some("core.htod")
        );
    }
}
