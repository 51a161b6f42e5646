//! The typed JSON path against the generic one.
//!
//! `serde_json::from_str::<T>` reads a typed document straight from the
//! bytes, and `to_string` writes one straight into the output buffer;
//! the generic path reads any JSON into a `serde_json::Value` tree
//! (`Reader::value`) and prints a tree (`Writer::value`). Over every
//! cache entry file of the 8 corpus apps (default and paper
//! configurations), every app's declared schema and every committed
//! BENCH point, the typed value and the generic tree of the file must
//! print the same bytes, compact and pretty, and the compact ones are
//! the file's own. Every proper prefix of three sample entries must fail
//! on both paths with the same parse error, which names its byte
//! offset. A round-trip proptest covers what the corpus does not:
//! integers past `i64::MAX`, arbitrary finite floats, escapes and
//! surrogate pairs. Seeded faulty variants of three documents pin
//! `from_str`'s error messages.

use std::fmt::Debug;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cfinder::core::cache::{CacheEntry, DetectEntry};
use cfinder::core::{AnalysisCache, AppSource, CFinder, CFinderOptions, SourceFile};
use cfinder::corpus::{all_profiles, generate, GenOptions};
use cfinder::report::perf::BenchPoint;
use cfinder::schema::Schema;
use proptest::prelude::*;
use serde::json::{Reader, Writer};
use serde::{Deserialize, Serialize};
use serde_json::Value;

const SCALE: GenOptions = GenOptions { loc_scale: 0.02 };

/// The typed reader over the whole text.
fn direct<T: for<'de> Deserialize<'de>>(text: &str) -> Result<T, serde::Error> {
    let mut r = Reader::new(text);
    let value = T::read_json(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// The generic reader over the whole text: a `Value` tree.
fn generic(text: &str) -> Result<Value, serde::Error> {
    let mut r = Reader::new(text);
    let tree = r.value()?;
    r.finish()?;
    Ok(tree)
}

/// The typed writer's text for `value` and the generic writer's for
/// `tree`.
fn both_writers<T: Serialize>(value: &T, tree: &Value, pretty: bool) -> (String, String) {
    let writer = || if pretty { Writer::pretty() } else { Writer::compact() };
    let (mut typed, mut untyped) = (writer(), writer());
    value.write_json(&mut typed);
    untyped.value(tree);
    (typed.into_string(), untyped.into_string())
}

/// Decodes `text` both ways and prints both results, compact and
/// pretty; each pair must agree. Returns the typed value.
fn same_both_ways<T>(label: &str, text: &str) -> T
where
    T: Serialize + for<'de> Deserialize<'de> + PartialEq + Debug,
{
    let typed: T = direct(text).unwrap_or_else(|e| panic!("{label}: typed reader: {e}"));
    let tree = generic(text).unwrap_or_else(|e| panic!("{label}: generic reader: {e}"));
    for pretty in [false, true] {
        let (typed_text, tree_text) = both_writers(&typed, &tree, pretty);
        assert!(typed_text == tree_text, "{label}: the paths disagree (pretty: {pretty})");
    }
    typed
}

/// `(path, contents)` of every entry file of a cache of the 8 apps.
fn cached_entries(label: &str, options: CFinderOptions) -> Vec<(PathBuf, String)> {
    let dir =
        std::env::temp_dir().join(format!("cfinder-json-direct-{label}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let cache = Arc::new(AnalysisCache::open(&dir).unwrap());
    let finder = CFinder::with_options(options).with_threads(2).with_cache(cache);
    for profile in all_profiles() {
        let app = generate(&profile, SCALE);
        let source = AppSource::new(
            app.name.clone(),
            app.files.iter().map(|f| SourceFile::new(f.path.clone(), f.text.clone())).collect(),
        );
        finder.analyze(&source, &app.declared);
    }
    let mut out = Vec::new();
    for shard in fs::read_dir(&dir).unwrap() {
        let shard = shard.unwrap().path();
        if shard.is_dir() {
            for entry in fs::read_dir(&shard).unwrap() {
                let path = entry.unwrap().path();
                if path.extension().is_some_and(|x| x == "json") {
                    let text = fs::read_to_string(&path).unwrap();
                    out.push((path, text));
                }
            }
        }
    }
    let _ = fs::remove_dir_all(&dir);
    out.sort();
    out
}

fn is_detect_entry(text: &str) -> bool {
    serde_json::from_str::<Value>(text).unwrap().get("facts").is_some()
}

#[test]
fn every_cache_entry_reads_and_writes_the_same_both_ways() {
    for (label, options) in
        [("default", CFinderOptions::default()), ("paper", CFinderOptions::paper())]
    {
        let entries = cached_entries(label, options);
        assert!(entries.len() >= 200, "{label}: {} entries", entries.len());
        let mut detect = 0;
        for (path, text) in &entries {
            let name = path.display().to_string();
            let compact = if is_detect_entry(text) {
                detect += 1;
                serde_json::to_string(&same_both_ways::<DetectEntry>(&name, text))
            } else {
                serde_json::to_string(&same_both_ways::<CacheEntry>(&name, text))
            };
            assert!(compact.unwrap() == *text, "{name}: does not re-encode to its bytes");
        }
        assert!(detect > 0 && detect < entries.len(), "{label}: {detect} detect entries");
    }
}

#[test]
fn every_declared_schema_and_bench_point_reads_and_writes_the_same_both_ways() {
    for profile in all_profiles() {
        let app = generate(&profile, SCALE);
        let text = app.declared.to_json();
        let schema = same_both_ways::<Schema>(&app.name, &text);
        assert!(schema == app.declared && schema.to_json() == text, "{}", app.name);
    }
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("bench");
    let mut points = 0;
    for entry in fs::read_dir(&bench_dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = fs::read_to_string(&path).unwrap();
            let point = same_both_ways::<BenchPoint>(&path.display().to_string(), &text);
            assert!(serde_json::to_string_pretty(&point).unwrap() + "\n" == text);
            points += 1;
        }
    }
    assert!(points >= 5, "committed points: {points}");
}

/// Every proper prefix of `text` fails both ways with the same error,
/// which names a byte offset, and `from_str` words it so too.
fn every_prefix_fails<T>(text: &str)
where
    T: for<'de> Deserialize<'de> + Debug,
{
    for end in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
        let prefix = &text[..end];
        let typed = direct::<T>(prefix).expect_err(prefix).to_string();
        let untyped = generic(prefix).expect_err(prefix).to_string();
        assert!(typed.contains(" at byte ") && typed == untyped, "{typed} / {untyped}");
        assert_eq!(serde_json::from_str::<T>(prefix).unwrap_err().to_string(), untyped);
    }
}

#[test]
fn every_prefix_of_three_sample_entries_is_an_error_with_an_offset() {
    let entries = cached_entries("prefixes", CFinderOptions::default());
    let (detect, parse): (Vec<_>, Vec<_>) = entries
        .iter()
        .map(|(_, text)| text)
        .filter(|text| text.len() < 4096)
        .partition(|text| is_detect_entry(text));
    // The largest of each kind under 4 KB, and a parse entry of middling size.
    let largest =
        |texts: &[&String]| texts.iter().max_by_key(|t| t.len()).copied().unwrap().clone();
    let mut parse = parse;
    parse.sort_by_key(|t| t.len());
    every_prefix_fails::<DetectEntry>(&largest(&detect));
    every_prefix_fails::<CacheEntry>(&largest(&parse));
    every_prefix_fails::<CacheEntry>(parse[parse.len() / 2]);
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Sample {
    big: u64,
    small: i64,
    ratio: f64,
    text: String,
    #[serde(skip_serializing_if = "Option::is_none")]
    note: Option<String>,
    pairs: Vec<(String, u64)>,
    shapes: Vec<Shape>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Empty,
    Wrapped(String),
    Pair(i64, bool),
    Named { label: String, nested: Vec<Option<u64>> },
}

/// Strings over the characters JSON escapes, multi-byte UTF-8 and
/// characters outside the BMP.
const TEXT: &str = "[a-z0-9 \"\\\\/\n\t\r\u{1}\u{8}\u{c}\u{1f}\u{7f}é€😀𝄞]{0,12}";

fn shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Empty),
        TEXT.prop_map(Shape::Wrapped),
        (i64::MIN..=i64::MAX, 0..2u8).prop_map(|(n, b)| Shape::Pair(n, b == 1)),
        (TEXT, proptest::collection::vec(proptest::option::of(0..=u64::MAX), 0..4))
            .prop_map(|(label, nested)| Shape::Named { label, nested }),
    ]
}

fn sample() -> impl Strategy<Value = Sample> {
    let big = prop_oneof![0..1000u64, (i64::MAX as u64)..=u64::MAX];
    let ratio = (0..=u64::MAX).prop_map(|bits| match f64::from_bits(bits) {
        f if f.is_finite() => f,
        _ => -0.5,
    });
    (
        (big, i64::MIN..=i64::MAX, ratio),
        (TEXT, proptest::option::of(TEXT)),
        proptest::collection::vec((TEXT, 0..=u64::MAX), 0..4),
        proptest::collection::vec(shape(), 0..4),
    )
        .prop_map(|((big, small, ratio), (text, note), pairs, shapes)| Sample {
            big,
            small,
            ratio,
            text,
            note,
            pairs,
            shapes,
        })
}

/// `json` with every non-ASCII character written as a `\u` escape, a
/// surrogate pair outside the BMP. Non-ASCII text only occurs inside
/// strings, so the result is the same document.
fn escape_non_ascii(json: &str) -> String {
    let mut out = String::new();
    for c in json.chars() {
        if c.is_ascii() {
            out.push(c);
        } else {
            let mut units = [0u16; 2];
            for unit in c.encode_utf16(&mut units) {
                out.push_str(&format!("\\u{unit:04x}"));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn direct_round_trips_match_the_value_path(s in sample()) {
        for pretty in [false, true] {
            let mut w = if pretty { Writer::pretty() } else { Writer::compact() };
            s.write_json(&mut w);
            let typed = w.into_string();
            for text in [typed.clone(), escape_non_ascii(&typed)] {
                let read: Sample = direct(&text).map_err(|e| e.to_string())?;
                prop_assert_eq!(&read, &s);
                let tree = generic(&text).map_err(|e| e.to_string())?;
                prop_assert_eq!(&both_writers(&s, &tree, pretty).1, &typed);
                prop_assert_eq!(serde_json::from_str::<Sample>(&text).map_err(|e| e.to_string())?, s.clone());
            }
        }
    }
}

/// A step into a [`Value`] tree: an object entry or an array element,
/// by position.
#[derive(Clone, Copy, PartialEq)]
enum Step {
    Entry(usize),
    Elem(usize),
}

fn at<'v>(mut v: &'v mut Value, path: &[Step]) -> &'v mut Value {
    for step in path {
        v = match (step, v) {
            (Step::Entry(i), Value::Map(m)) => &mut m[*i].1,
            (Step::Elem(i), Value::Seq(s)) => &mut s[*i],
            _ => unreachable!("paths come from the same tree"),
        };
    }
    v
}

/// The path of every node under `v`, `v` first, in document order.
fn paths(v: &Value, here: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    out.push(here.clone());
    let children: Vec<(Step, &Value)> = match v {
        Value::Map(m) => m.iter().enumerate().map(|(i, (_, c))| (Step::Entry(i), c)).collect(),
        Value::Seq(s) => s.iter().enumerate().map(|(i, c)| (Step::Elem(i), c)).collect(),
        _ => Vec::new(),
    };
    for (step, child) in children {
        here.push(step);
        paths(child, here, out);
        here.pop();
    }
}

/// `doc` with the leaf at `path` given another JSON type.
fn swap(doc: &mut Value, path: &[Step]) {
    let leaf = at(doc, path);
    *leaf = match leaf {
        Value::Str(_) => Value::Int(7),
        Value::Bool(_) => Value::Int(1),
        _ => Value::Str("x".into()),
    };
}

/// A splitmix64 step, for the seeded choices below.
fn mix(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `from_str`'s verdict on `text`: `ok`, or its error message.
fn verdict<T: for<'de> Deserialize<'de>>(text: &str) -> String {
    match serde_json::from_str::<T>(text) {
        Ok(_) => "ok".into(),
        Err(e) => e.to_string(),
    }
}

/// `from_str`'s verdict on seeded faulty variants of the document
/// `text`, one line each: one field's type swapped; two fields of one
/// object swapped and its keys reversed, so the text meets them against
/// declaration order; a swap with a later `]` or trailing junk; an
/// unknown unit and an unknown data variant; trailing junk; a
/// truncation.
fn faulty_variants<T: for<'de> Deserialize<'de>>(text: &str, mut seed: u64) -> Vec<String> {
    let doc: Value = serde_json::from_str(text).unwrap();
    let mut all = Vec::new();
    paths(&doc, &mut Vec::new(), &mut all);
    let mut probe = doc.clone();
    let fields: Vec<&Vec<Step>> = all
        .iter()
        .filter(|p| {
            matches!(p.last(), Some(Step::Entry(_)))
                && !matches!(at(&mut probe, p), Value::Null | Value::Seq(_) | Value::Map(_))
        })
        .collect();
    let fields_of = |obj: &Vec<Step>| -> Vec<&Vec<Step>> {
        fields.iter().copied().filter(|f| f.len() == obj.len() + 1 && f.starts_with(obj)).collect()
    };
    let mut pick = |n: usize| (mix(&mut seed) % n as u64) as usize;
    let print = |d: &Value| serde_json::to_string(d).unwrap();
    let mut out = Vec::new();

    let mut one = doc.clone();
    swap(&mut one, fields[pick(fields.len())]);
    let one = print(&one);
    out.push(format!("swap: {}", verdict::<T>(&one)));

    let objects: Vec<&Vec<Step>> = all.iter().filter(|p| fields_of(p).len() >= 2).collect();
    let obj = objects[pick(objects.len())];
    let (mut two, inner) = (doc.clone(), fields_of(obj));
    swap(&mut two, inner[0]);
    swap(&mut two, inner[inner.len() - 1]);
    if let Value::Map(m) = at(&mut two, obj) {
        m.reverse();
    }
    out.push(format!("two swaps, reversed: {}", verdict::<T>(&print(&two))));
    let bracket = format!("{}]", &one[..one.len() - 1]);
    out.push(format!("swap, then `]`: {}", verdict::<T>(&bracket)));
    out.push(format!("swap, then junk: {}", verdict::<T>(&format!("{one} x"))));

    // The first string whose renaming is an unknown unit variant, and
    // the first one-key object whose renamed key is an unknown data
    // variant.
    let unknown = |rename: &dyn Fn(&mut Value) -> bool| {
        all.iter()
            .find_map(|p| {
                let mut d = doc.clone();
                let renamed = rename(at(&mut d, p));
                Some(verdict::<T>(&print(&d))).filter(|m| renamed && m.contains("unknown variant"))
            })
            .unwrap_or_else(|| "none".into())
    };
    let unit = unknown(&|v| match v {
        Value::Str(s) => {
            *s = "NoSuchVariant".into();
            true
        }
        _ => false,
    });
    out.push(format!("unknown unit variant: {unit}"));
    let data = unknown(&|v| match v {
        Value::Map(m) if m.len() == 1 => {
            m[0].0 = "NoSuchVariant".into();
            true
        }
        _ => false,
    });
    out.push(format!("unknown data variant: {data}"));

    out.push(format!("junk: {}", verdict::<T>(&format!("{text} x"))));
    let mut cut = pick(text.len());
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    out.push(format!("truncated: {}", verdict::<T>(&text[..cut])));
    out
}

/// `from_str`'s messages for seeded faulty variants of one cache
/// entry, one `schema.json` and one committed BENCH point, against
/// `tests/goldens/json_errors.txt`: the first syntax error anywhere in
/// the text, else the first type error in declaration order. Regenerate
/// with `CFINDER_BLESS=1 cargo test --test json_direct`.
#[test]
fn faulty_documents_keep_their_error_messages() {
    let entries = cached_entries("errors", CFinderOptions::default());
    let entry = entries
        .iter()
        .map(|(_, text)| text)
        .filter(|text| text.len() < 4096 && is_detect_entry(text))
        .max_by_key(|text| text.len())
        .unwrap();
    let schema = generate(&all_profiles()[0], SCALE).declared.to_json();
    let bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("bench/BENCH_20261020T032902Z.json");
    let bench = fs::read_to_string(bench).unwrap();
    let mut lines = Vec::new();
    for (label, found) in [
        ("cache entry", faulty_variants::<DetectEntry>(entry, 1)),
        ("schema.json", faulty_variants::<Schema>(&schema, 2)),
        ("BENCH point", faulty_variants::<BenchPoint>(&bench, 3)),
    ] {
        lines.extend(found.into_iter().map(|line| format!("{label} / {line}")));
    }
    let found = lines.join("\n") + "\n";
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/json_errors.txt");
    if std::env::var_os("CFINDER_BLESS").is_some() {
        fs::write(&golden, &found).unwrap();
    }
    let expected = fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!("missing golden {} ({e}); run with CFINDER_BLESS=1", golden.display())
    });
    assert_eq!(found, expected);
}
