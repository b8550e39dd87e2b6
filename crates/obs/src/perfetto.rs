//! Chrome-trace-event (Perfetto-loadable) export of a simulation trace.
//!
//! [`export_chrome_trace`] renders a kernel [`Trace`] as the JSON Trace
//! Event Format that `chrome://tracing` and [ui.perfetto.dev] load
//! directly: one lane per task showing execution segments, a CPU lane
//! showing the processor condition (run / ramp / power-down / idle) with
//! instant markers at every power transition, and counter tracks for
//! instantaneous power draw, settled clock frequency, and cumulative
//! energy.
//!
//! [ui.perfetto.dev]: https://ui.perfetto.dev
//!
//! # Byte determinism
//!
//! The exporter hand-builds the JSON string: field order is fixed,
//! timestamps are `ns/1000.0` printed through Rust's shortest-roundtrip
//! `f64` formatter, and events are ordered by `(timestamp, emission
//! sequence)` with a stable sort — so the same trace always produces the
//! same bytes, which the committed `results/fig2_trace.perfetto.json`
//! golden snapshot pins. [`validate_chrome_trace`] is the independent
//! schema check: it re-parses the JSON through `serde_json` and verifies
//! the `ph` codes, timestamp monotonicity, and per-lane `B`/`E` nesting.

use crate::gantt::Gantt;
use lpfps_cpu::state::CpuState;
use lpfps_kernel::trace::{Trace, TraceEvent};
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::Time;

/// The `tid` of the processor-condition lane; task lanes use `TaskId + 1`.
const CPU_TID: usize = 0;

/// Coarse processor condition, mirroring the Gantt state row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Condition {
    Run,
    Ramp,
    PowerDown,
    Idle,
}

impl Condition {
    fn name(self) -> &'static str {
        match self {
            Condition::Run => "run",
            Condition::Ramp => "ramp",
            Condition::PowerDown => "power-down",
            Condition::Idle => "idle",
        }
    }
}

/// Escapes a string for embedding in a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a timestamp as Chrome-trace microseconds (`ns / 1000`).
/// Rust's `f64` `Display` is shortest-roundtrip and never scientific for
/// this range, so the text is a pure function of the nanosecond value.
fn ts_us(at: Time) -> String {
    format!("{}", at.as_ns() as f64 / 1000.0)
}

/// One pending event line: sorted by `(time, emission order)`.
struct Ev {
    at_ns: u64,
    seq: usize,
    json: String,
}

struct Emitter {
    events: Vec<Ev>,
}

impl Emitter {
    fn push(&mut self, at: Time, json: String) {
        self.events.push(Ev {
            at_ns: at.as_ns(),
            seq: self.events.len(),
            json,
        });
    }

    /// A metadata record (`ph: M`) naming a process or thread.
    fn meta(&mut self, name: &str, tid: usize, value: &str) {
        self.push(
            Time::ZERO,
            format!(
                "{{\"name\":\"{}\",\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                name,
                tid,
                json_escape(value)
            ),
        );
    }

    /// A `B`/`E` duration pair on one lane.
    fn span(&mut self, name: &str, tid: usize, from: Time, to: Time) {
        let b = format!(
            "{{\"name\":\"{}\",\"ph\":\"B\",\"ts\":{},\"pid\":0,\"tid\":{}}}",
            json_escape(name),
            ts_us(from),
            tid
        );
        self.push(from, b);
        let e = format!(
            "{{\"name\":\"{}\",\"ph\":\"E\",\"ts\":{},\"pid\":0,\"tid\":{}}}",
            json_escape(name),
            ts_us(to),
            tid
        );
        self.push(to, e);
    }

    /// A thread-scoped instant marker (`ph: i`).
    fn instant(&mut self, name: &str, tid: usize, at: Time) {
        let json = format!(
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":0,\"tid\":{}}}",
            json_escape(name),
            ts_us(at),
            tid
        );
        self.push(at, json);
    }

    /// A counter sample (`ph: C`).
    fn counter(&mut self, name: &str, at: Time, value: f64) {
        let json = format!(
            "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"tid\":0,\"args\":{{\"{}\":{}}}}}",
            name,
            ts_us(at),
            name,
            value
        );
        self.push(at, json);
    }

    /// Stable-sorts by `(timestamp, emission order)` and renders the
    /// document.
    fn render(mut self) -> String {
        self.events.sort_by_key(|e| (e.at_ns, e.seq));
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&ev.json);
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Renders `trace` (simulated over `[0, end)` for task set `ts`) as a
/// Chrome Trace Event Format JSON document. See the module docs for the
/// lane layout and the byte-determinism contract.
pub fn export_chrome_trace(trace: &Trace, ts: &TaskSet, end: Time) -> String {
    let mut em = Emitter { events: Vec::new() };
    // Lane names. Metadata first (all at ts 0, lowest sequence numbers).
    em.meta("process_name", CPU_TID, "lpfps schedule");
    em.meta("thread_name", CPU_TID, "cpu");
    for (id, task, _) in ts.iter() {
        em.meta("thread_name", id.0 + 1, task.name());
    }

    // Task lanes: the Gantt reconstruction already merges Dispatch /
    // Preempt / Complete into non-overlapping execution segments.
    let gantt = Gantt::from_trace(trace, end);
    for seg in gantt.segments() {
        let name = ts
            .iter()
            .find(|&(id, _, _)| id == seg.task)
            .map(|(_, t, _)| t.name().to_owned())
            .unwrap_or_else(|| format!("task{}", seg.task.0));
        em.span(&name, seg.task.0 + 1, seg.from, seg.to);
    }

    // CPU condition lane + transition markers, walking the raw trace the
    // same way the Gantt state row does.
    let mut cond = (Time::ZERO, Condition::Idle);
    let mut running = false;
    let flip = |em: &mut Emitter, cond: &mut (Time, Condition), at: Time, next: Condition| {
        if cond.1 != next {
            if at > cond.0 {
                em.span(cond.1.name(), CPU_TID, cond.0, at);
            }
            *cond = (at, next);
        }
    };
    for (t, e) in trace.iter() {
        match e {
            TraceEvent::Dispatch { .. } => {
                running = true;
                flip(&mut em, &mut cond, t, Condition::Run);
            }
            TraceEvent::Complete { .. } => {
                running = false;
                flip(&mut em, &mut cond, t, Condition::Idle);
            }
            TraceEvent::RampStart { from, to } => {
                em.instant(&format!("ramp {from} -> {to}"), CPU_TID, t);
                flip(&mut em, &mut cond, t, Condition::Ramp);
            }
            TraceEvent::RampEnd { freq } => {
                em.instant(&format!("settled at {freq}"), CPU_TID, t);
                let next = if running {
                    Condition::Run
                } else {
                    Condition::Idle
                };
                flip(&mut em, &mut cond, t, next);
            }
            TraceEvent::EnterPowerDown { wake_at } => {
                em.instant(&format!("power-down until {wake_at}"), CPU_TID, t);
                flip(&mut em, &mut cond, t, Condition::PowerDown);
            }
            TraceEvent::Wakeup => {
                em.instant("wake-up", CPU_TID, t);
                flip(&mut em, &mut cond, t, Condition::Idle);
            }
            TraceEvent::IdleStart => flip(&mut em, &mut cond, t, Condition::Idle),
            TraceEvent::BudgetOverrun { task } => {
                em.instant(&format!("budget overrun: task{}", task.0), CPU_TID, t);
            }
            TraceEvent::TimingViolation => em.instant("timing violation", CPU_TID, t),
            TraceEvent::Release { .. } | TraceEvent::Preempt { .. } => {}
            TraceEvent::EnergySegment { .. } => {}
        }
    }
    if end > cond.0 {
        em.span(cond.1.name(), CPU_TID, cond.0, end);
    }

    // Counter tracks from the energy segments. Accumulation runs in trace
    // order in one thread, so the floats (and their printed forms) are
    // deterministic.
    let mut cum_joules = 0.0f64;
    for (t, e) in trace.iter() {
        if let TraceEvent::EnergySegment { state, power, dur } = e {
            em.counter("power_w", t, power);
            em.counter("energy_uj", t, cum_joules * 1e6);
            cum_joules += power * dur.as_secs_f64();
            if let CpuState::Busy(f) = state {
                em.counter("freq_mhz", t, f.as_mhz_f64());
            }
        }
    }
    em.counter("energy_uj", end, cum_joules * 1e6);
    em.render()
}

/// Summary statistics returned by [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChromeTraceStats {
    /// Total events in the document.
    pub events: usize,
    /// Matched `B`/`E` span pairs.
    pub spans: usize,
    /// Instant markers.
    pub instants: usize,
    /// Counter samples.
    pub counters: usize,
}

/// Independently validates an exported document: JSON parses, every
/// event's `ph` is one of `M`/`B`/`E`/`i`/`C`, timestamps never decrease
/// in file order, and on every `(pid, tid)` lane the `B`/`E` events nest
/// like matched parentheses with matching names and an empty stack at
/// the end.
pub fn validate_chrome_trace(json: &str) -> Result<ChromeTraceStats, String> {
    let value: serde_json::Value =
        serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e:?}"))?;
    let events = value
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("missing traceEvents array")?;

    let mut stats = ChromeTraceStats {
        events: events.len(),
        ..ChromeTraceStats::default()
    };
    let mut last_ts = f64::NEG_INFINITY;
    // (pid, tid) -> stack of open span names.
    let mut stacks: Vec<((u64, u64), Vec<String>)> = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let ts = ev
            .get("ts")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        if ts < last_ts {
            return Err(format!("event {i}: ts went backwards ({ts} < {last_ts})"));
        }
        last_ts = ts;
        let name = ev
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let pid = ev.get("pid").and_then(|v| v.as_u64()).unwrap_or(0);
        let tid = ev.get("tid").and_then(|v| v.as_u64()).unwrap_or(0);
        let lane = (pid, tid);
        match ph {
            "M" => {}
            "B" => match stacks.iter_mut().find(|(l, _)| *l == lane) {
                Some((_, stack)) => stack.push(name.to_owned()),
                None => stacks.push((lane, vec![name.to_owned()])),
            },
            "E" => {
                let stack = stacks
                    .iter_mut()
                    .find(|(l, _)| *l == lane)
                    .map(|(_, s)| s)
                    .ok_or_else(|| format!("event {i}: E with no open B on lane {lane:?}"))?;
                let open = stack
                    .pop()
                    .ok_or_else(|| format!("event {i}: E with no open B on lane {lane:?}"))?;
                if open != name {
                    return Err(format!(
                        "event {i}: E named {name:?} closes B named {open:?}"
                    ));
                }
                stats.spans += 1;
            }
            "i" => stats.instants += 1,
            "C" => stats.counters += 1,
            other => return Err(format!("event {i}: invalid ph {other:?}")),
        }
    }
    for (lane, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!("lane {lane:?}: {} unclosed span(s)", stack.len()));
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpfps_cpu::spec::CpuSpec;
    use lpfps_kernel::engine::{simulate_in, SimConfig, SimWorkspace};
    use lpfps_kernel::policy::AlwaysFullSpeed;
    use lpfps_kernel::FixedPriority;
    use lpfps_tasks::exec::AlwaysWcet;
    use lpfps_tasks::task::Task;
    use lpfps_tasks::time::Dur;

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

    fn fps_trace(horizon_us: u64) -> (TaskSet, Trace) {
        let ts = table1();
        let cpu = CpuSpec::arm8();
        let cfg = SimConfig::new(Dur::from_us(horizon_us)).with_force_full_simulation();
        let (policy, mut ws, mut trace) = (&mut AlwaysFullSpeed, SimWorkspace::new(), Trace::new());
        simulate_in::<FixedPriority, _>(&ts, &cpu, policy, &AlwaysWcet, &cfg, &mut ws, &mut trace)
            .unwrap();
        (ts, trace)
    }

    #[test]
    fn export_validates_and_is_deterministic() {
        let (ts, trace) = fps_trace(400);
        let a = export_chrome_trace(&trace, &ts, Time::from_us(400));
        let b = export_chrome_trace(&trace, &ts, Time::from_us(400));
        assert_eq!(a, b, "export must be byte-deterministic");
        let stats = validate_chrome_trace(&a).expect("export must self-validate");
        assert!(stats.spans > 0, "expected execution spans");
        assert!(stats.counters > 0, "expected counter samples");
    }

    #[test]
    fn task_lanes_cover_busy_time() {
        // 17 jobs in one 400us hyperperiod => at least 17 task spans plus
        // the CPU condition spans.
        let (ts, trace) = fps_trace(400);
        let json = export_chrome_trace(&trace, &ts, Time::from_us(400));
        let stats = validate_chrome_trace(&json).unwrap();
        assert!(stats.spans >= 17, "spans = {}", stats.spans);
        assert!(json.contains("\"tau1\""));
        assert!(json.contains("\"tau3\""));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        // Unmatched B.
        let unmatched = r#"{"traceEvents":[{"name":"x","ph":"B","ts":1,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(unmatched)
            .unwrap_err()
            .contains("unclosed"));
        // E closing the wrong span name.
        let crossed = r#"{"traceEvents":[
            {"name":"x","ph":"B","ts":1,"pid":0,"tid":0},
            {"name":"y","ph":"E","ts":2,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(crossed).is_err());
        // Backwards time.
        let backwards = r#"{"traceEvents":[
            {"name":"a","ph":"i","s":"t","ts":5,"pid":0,"tid":0},
            {"name":"b","ph":"i","s":"t","ts":4,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(backwards)
            .unwrap_err()
            .contains("backwards"));
        // Invalid phase code.
        let bad_ph = r#"{"traceEvents":[{"name":"a","ph":"Q","ts":1,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(bad_ph)
            .unwrap_err()
            .contains("invalid ph"));
    }

    #[test]
    fn empty_trace_still_exports_idle_lane() {
        let ts = table1();
        let trace = Trace::new();
        let json = export_chrome_trace(&trace, &ts, Time::from_us(100));
        let stats = validate_chrome_trace(&json).unwrap();
        // One idle span covering the whole window, plus metadata and the
        // final cumulative-energy counter.
        assert_eq!(stats.spans, 1);
        assert!(json.contains("\"idle\""));
    }
}
