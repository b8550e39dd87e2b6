//! Structural first-divergence diff between two [`SimReport`]s or two
//! [`Trace`]s.
//!
//! A fingerprint mismatch tells you *that* two reports differ; this module
//! tells you *where*. Both sides are serialized to JSON text; when the
//! texts differ, both are parsed into `serde_json` values and walked in
//! lockstep, depth-first in field order, and the first leaf (or
//! structural) difference is returned with its dotted path — e.g.
//! `trace.events[214][1].Dispatch.task` — and both values rendered.
//!
//! The walk deliberately runs over the serialized form, not the structs:
//! it needs no per-field plumbing when the report grows, and the path it
//! prints matches the JSON artifacts the sweep CLI emits.

use lpfps_kernel::report::SimReport;
use lpfps_kernel::trace::Trace;
use serde_json::{from_str, to_string, Error, Value};
use std::fmt;

/// The first point where two reports disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Dotted path from the report root, array steps as `[i]`.
    pub path: String,
    /// The left (conventionally: engine) value at `path`, rendered as JSON.
    pub left: String,
    /// The right (conventionally: oracle) value at `path`, rendered as JSON.
    pub right: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "first divergence at `{}`:\n  left:  {}\n  right: {}",
            self.path, self.left, self.right
        )
    }
}

/// Compares two reports field for field and returns the first divergence
/// in serialization order, or `None` if they are identical.
///
/// Float fields are compared through their serialized values, the
/// shortest text that reads back as the same `f64` — the differential
/// harness demands *bitwise* energy equality, not approximate equality.
/// A NaN or infinity serializes as `null`.
pub fn first_divergence(left: &SimReport, right: &SimReport) -> Option<Divergence> {
    diverge("report", to_string(left), to_string(right))
}

/// [`first_divergence`] for two event traces: the first differing event,
/// located by its index in the trace (`trace.events[i]`).
pub fn first_trace_divergence(left: &Trace, right: &Trace) -> Option<Divergence> {
    diverge("trace", to_string(left), to_string(right))
}

fn diverge(
    root: &str,
    left: Result<String, Error>,
    right: Result<String, Error>,
) -> Option<Divergence> {
    let unserializable = || Divergence {
        path: root.to_string(),
        left: "<unserializable>".to_string(),
        right: "<unserializable>".to_string(),
    };
    // Reports and traces serialize infallibly; if that ever stops
    // holding, the unserializable side is itself the divergence.
    let (Ok(l), Ok(r)) = (left, right) else {
        return Some(unserializable());
    };
    // Equal texts parse to equal trees, so only a differing pair is parsed.
    if l == r {
        return None;
    }
    let (Ok(l), Ok(r)) = (from_str::<Value>(&l), from_str::<Value>(&r)) else {
        return Some(unserializable());
    };
    walk(root, &l, &r)
}

fn walk(path: &str, left: &Value, right: &Value) -> Option<Divergence> {
    match (left, right) {
        (Value::Object(l), Value::Object(r)) => {
            for (key, lv) in l.iter() {
                match r.get(key) {
                    Some(rv) => {
                        if let Some(d) = walk(&format!("{path}.{key}"), lv, rv) {
                            return Some(d);
                        }
                    }
                    None => return Some(leaf(&format!("{path}.{key}"), Some(lv), None)),
                }
            }
            for (key, rv) in r.iter() {
                if l.get(key).is_none() {
                    return Some(leaf(&format!("{path}.{key}"), None, Some(rv)));
                }
            }
            None
        }
        (Value::Array(l), Value::Array(r)) => {
            for (i, (lv, rv)) in l.iter().zip(r.iter()).enumerate() {
                if let Some(d) = walk(&format!("{path}[{i}]"), lv, rv) {
                    return Some(d);
                }
            }
            if l.len() != r.len() {
                let i = l.len().min(r.len());
                return Some(leaf(&format!("{path}[{i}]"), l.get(i), r.get(i)));
            }
            None
        }
        _ => (left != right).then(|| leaf(path, Some(left), Some(right))),
    }
}

fn leaf(path: &str, left: Option<&Value>, right: Option<&Value>) -> Divergence {
    let render = |v: Option<&Value>| match v {
        Some(v) => serde_json::to_string(v).unwrap_or_else(|_| "<unserializable>".to_string()),
        None => "<absent>".to_string(),
    };
    Divergence {
        path: path.to_string(),
        left: render(left),
        right: render(right),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpfps::driver::{default_horizon, run, PolicyKind};
    use lpfps_cpu::spec::CpuSpec;
    use lpfps_kernel::engine::SimConfig;
    use lpfps_tasks::exec::AlwaysWcet;
    use lpfps_tasks::task::Task;
    use lpfps_tasks::taskset::TaskSet;
    use lpfps_tasks::time::{Dur, Time};

    fn table1() -> TaskSet {
        TaskSet::rate_monotonic(
            "table1",
            vec![
                Task::new("tau1", Dur::from_us(50), Dur::from_us(10)),
                Task::new("tau2", Dur::from_us(80), Dur::from_us(20)),
                Task::new("tau3", Dur::from_us(100), Dur::from_us(40)),
            ],
        )
    }

    #[test]
    fn identical_reports_have_no_divergence() {
        let ts = table1();
        let cpu = CpuSpec::arm8();
        let cfg = SimConfig::new(default_horizon(&ts));
        let a = run(&ts, &cpu, PolicyKind::Lpfps, &AlwaysWcet, &cfg).unwrap();
        let b = run(&ts, &cpu, PolicyKind::Lpfps, &AlwaysWcet, &cfg).unwrap();
        assert_eq!(first_divergence(&a, &b), None);
    }

    #[test]
    fn scalar_field_divergence_is_located_by_path() {
        let ts = table1();
        let cpu = CpuSpec::arm8();
        let cfg = SimConfig::new(default_horizon(&ts));
        let a = run(&ts, &cpu, PolicyKind::Fps, &AlwaysWcet, &cfg).unwrap();
        let mut b = a.clone();
        b.counters.dispatches += 1;
        let d = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(d.path, "report.counters.dispatches");
        assert_ne!(d.left, d.right);
    }

    #[test]
    fn length_mismatch_points_at_first_extra_element() {
        let ts = table1();
        let cpu = CpuSpec::arm8();
        let cfg = SimConfig::new(default_horizon(&ts));
        let a = run(&ts, &cpu, PolicyKind::Fps, &AlwaysWcet, &cfg).unwrap();
        let mut b = a.clone();
        let n = b.responses.len();
        b.responses.pop();
        let d = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(d.path, format!("report.responses[{}]", n - 1));
        assert_eq!(d.right, "<absent>");
    }

    #[test]
    fn trace_divergence_is_located_by_event_index() {
        use lpfps_kernel::trace::TraceEvent;
        use lpfps_tasks::task::TaskId;
        let mut a = Trace::new();
        let mut b = Trace::new();
        for (trace, task) in [(&mut a, 1), (&mut b, 2)] {
            trace.push(Time::ZERO, TraceEvent::IdleStart);
            let job = 0;
            trace.push(
                Time::from_us(5),
                TraceEvent::Dispatch {
                    task: TaskId(task),
                    job,
                },
            );
        }
        assert_eq!(first_trace_divergence(&a, &a.clone()), None);
        let d = first_trace_divergence(&a, &b).expect("must diverge");
        assert!(d.path.starts_with("trace.events[1]"), "path {}", d.path);
    }
}
