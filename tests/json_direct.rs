//! The direct JSON path against the `Value` path it replaced.
//!
//! `serde_json::from_str::<T>` reads a typed document straight from the
//! bytes, and `to_string` writes one straight into the output buffer;
//! the `Value` path lowers to (or lifts from) a `serde_json::Value` tree
//! first. Over every cache entry file of the 8 corpus apps (default and
//! paper configurations), every app's declared schema and every
//! committed BENCH point, both readers must decode the same value and
//! both writers must print the same bytes, which are the file's own.
//! Every proper prefix of three sample entries must fail on both paths
//! with a parse error that names its byte offset. A round-trip proptest
//! covers what the corpus does not: integers past `i64::MAX`, arbitrary
//! finite floats, escapes and surrogate pairs.

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

/// The direct reader over the whole text.
fn direct<T: for<'de> Deserialize<'de>>(text: &str) -> Result<T, serde::Error> {
    let mut r = Reader::new(text);
    let value = T::read_json(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// The `Value` path: a tree first, then the type.
fn via_value<T: for<'de> Deserialize<'de>>(text: &str) -> Result<T, String> {
    let tree: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    T::from_value(&tree).map_err(|e| e.to_string())
}

/// The direct writer's and the `Value` writer's text for `value`.
fn both_writers<T: Serialize>(value: &T, pretty: bool) -> (String, String) {
    let writer = || if pretty { Writer::pretty() } else { Writer::compact() };
    let (mut new, mut old) = (writer(), writer());
    value.write_json(&mut new);
    old.value(&value.to_value());
    (new.into_string(), old.into_string())
}

/// Decodes `text` both ways and prints the result both ways; every pair
/// must agree. Returns the decoded value.
fn same_both_ways<T>(label: &str, text: &str) -> T
where
    T: Serialize + for<'de> Deserialize<'de> + PartialEq + Debug,
{
    let new: T = direct(text).unwrap_or_else(|e| panic!("{label}: direct reader: {e}"));
    let old: T = via_value(text).unwrap_or_else(|e| panic!("{label}: Value path: {e}"));
    assert!(new == old, "{label}: the readers disagree");
    for pretty in [false, true] {
        let (new_text, old_text) = both_writers(&new, pretty);
        assert!(new_text == old_text, "{label}: the writers disagree (pretty: {pretty})");
    }
    new
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

/// Every proper prefix of `text` fails both ways, each error naming a
/// byte offset, and `from_str` words it as the `Value` path does.
fn every_prefix_fails<T>(text: &str)
where
    T: for<'de> Deserialize<'de> + Debug,
{
    for end in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
        let prefix = &text[..end];
        let new = direct::<T>(prefix).expect_err(prefix).to_string();
        let old = via_value::<T>(prefix).expect_err(prefix);
        assert!(new.contains(" at byte ") && old.contains(" at byte "), "{new} / {old}");
        assert_eq!(serde_json::from_str::<T>(prefix).unwrap_err().to_string(), old);
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
            let (new, old) = both_writers(&s, pretty);
            prop_assert_eq!(&new, &old);
            for text in [new.clone(), escape_non_ascii(&new)] {
                let read: Sample = direct(&text).map_err(|e| e.to_string())?;
                prop_assert_eq!(&read, &s);
                prop_assert_eq!(via_value::<Sample>(&text)?, s.clone());
                prop_assert_eq!(serde_json::from_str::<Sample>(&text).map_err(|e| e.to_string())?, s.clone());
            }
        }
    }
}
