//! Serde round-trips for the data-structure types (C-SERDE): task sets
//! and analysis inputs must survive JSON persistence bit-exactly, because
//! the experiment harness stores and reloads them. The last property
//! checks the JSON writer and parser against each other on random trees.

use lpfps_tasks::analysis::{response_times, RtaConfig};
use lpfps_tasks::task::Task;
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::{Dur, Time};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde_json::{Map, Number, Value};

fn table1() -> TaskSet {
    TaskSet::rate_monotonic(
        "table1",
        vec![
            Task::new("tau1", Dur::from_us(50), Dur::from_us(10)),
            Task::new("tau2", Dur::from_us(80), Dur::from_us(20)).with_bcet(Dur::from_us(5)),
            Task::new("tau3", Dur::from_us(100), Dur::from_us(40))
                .with_deadline(Dur::from_us(90))
                .with_phase(Dur::from_us(3)),
        ],
    )
}

#[test]
fn taskset_roundtrips_through_json() {
    let ts = table1();
    let json = serde_json::to_string_pretty(&ts).expect("serialize");
    let back: TaskSet = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(ts, back);
    // Semantics preserved, not just structure: analysis agrees.
    assert_eq!(
        response_times(&ts, &RtaConfig::default()),
        response_times(&back, &RtaConfig::default())
    );
}

#[test]
fn quantities_roundtrip_through_json() {
    let d = Dur::from_ns(123_456_789);
    let t = Time::from_ns(987_654_321);
    let d2: Dur = serde_json::from_str(&serde_json::to_string(&d).unwrap()).unwrap();
    let t2: Time = serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
    assert_eq!(d, d2);
    assert_eq!(t, t2);
}

#[test]
fn taskset_json_is_human_editable() {
    // The shape users hand-edit for the `simulate --taskset` CLI flag:
    // named fields, nanosecond integers.
    let json = serde_json::to_value(table1()).unwrap();
    assert_eq!(json["name"], "table1");
    assert_eq!(json["tasks"][0]["name"], "tau1");
    assert_eq!(json["tasks"][0]["period"], 50_000);
    assert_eq!(json["priorities"][0], 0);
}

/// Files written by other tools reach `simulate --taskset`: Python's
/// `json.dump` escapes a character outside the Basic Multilingual Plane as
/// a UTF-16 surrogate pair.
#[test]
fn taskset_names_may_escape_surrogate_pairs() {
    let json = serde_json::to_string(&table1()).unwrap();
    let escaped = json.replacen(r#""table1""#, r#""table1 \ud83d\ude00""#, 1);
    assert_ne!(json, escaped);
    let back: TaskSet = serde_json::from_str(&escaped).expect("a surrogate pair decodes");
    assert_eq!(back.name(), "table1 \u{1f600}");
    // The writer writes the character itself, which reads back the same.
    let again: TaskSet = serde_json::from_str(&serde_json::to_string(&back).unwrap()).unwrap();
    assert_eq!(again, back);
}

/// Random JSON trees with finite numbers, at most `depth` containers deep.
struct Trees {
    depth: u32,
}

impl Strategy for Trees {
    type Value = Value;

    fn try_sample(&self, rng: &mut TestRng) -> Option<Value> {
        Some(tree(rng, self.depth))
    }
}

fn tree(rng: &mut TestRng, depth: u32) -> Value {
    let kinds = if depth == 0 { 6 } else { 8 };
    let shift = rng.next_u64() % 64;
    match rng.next_u64() % kinds {
        0 => Value::Null,
        1 => Value::Bool(rng.next_u64() & 1 == 1),
        2 => Value::Number(Number::PosInt(rng.next_u64() >> shift)),
        3 => Value::Number(Number::NegInt(-1 - (rng.next_u64() >> 1 >> shift) as i64)),
        4 => Value::Number(Number::Float(finite_float(rng))),
        5 => Value::String(text(rng)),
        6 => Value::Array(
            (0..rng.next_u64() % 5)
                .map(|_| tree(rng, depth - 1))
                .collect(),
        ),
        _ => {
            let mut map = Map::new();
            for _ in 0..rng.next_u64() % 5 {
                map.insert(text(rng), tree(rng, depth - 1));
            }
            Value::Object(map)
        }
    }
}

/// Either any finite bit pattern or a short decimal (integral ones
/// included, which the writer prints with a trailing `.0`).
fn finite_float(rng: &mut TestRng) -> f64 {
    if rng.next_u64() & 1 == 0 {
        return (rng.next_u64() % 2_001) as f64 / 8.0 - 125.0;
    }
    loop {
        let x = f64::from_bits(rng.next_u64());
        if x.is_finite() {
            return x;
        }
    }
}

/// Short strings over characters the writer escapes (quote, backslash,
/// control characters) and ones it copies (multi-byte, astral, `/`, DEL).
fn text(rng: &mut TestRng) -> String {
    const CHARS: [char; 14] = [
        'a',
        'Z',
        '0',
        ' ',
        '"',
        '\\',
        '/',
        '\n',
        '\t',
        '\u{1}',
        '\u{7f}',
        'µ',
        '\u{2028}',
        '\u{1f600}',
    ];
    (0..rng.next_u64() % 8)
        .map(|_| CHARS[(rng.next_u64() % CHARS.len() as u64) as usize])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The compact and the pretty rendering of a tree both parse back to
    /// it, and `to_value` (which renders, then parses) returns it.
    #[test]
    fn value_trees_roundtrip_through_both_renderings(v in Trees { depth: 4 }) {
        let compact = serde_json::to_string(&v).unwrap();
        let pretty = serde_json::to_string_pretty(&v).unwrap();
        prop_assert_eq!(serde_json::from_str::<Value>(&compact).unwrap(), v.clone());
        prop_assert_eq!(serde_json::from_str::<Value>(&pretty).unwrap(), v.clone());
        prop_assert_eq!(serde_json::to_value(&v).unwrap(), v);
    }
}
