//! The fan-out engine's contract: `map_ordered` returns outputs in input
//! order at any thread count, workers claim items one at a time, every
//! worker records one `worker` span, and `catch` confines a panic to the
//! item that raised it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cfinder::core::engine::{catch, map_ordered, resolve_threads};
use cfinder::obs::Tracer;

fn map<T: Sync, O: Send>(items: &[T], threads: usize, f: impl Fn(&T) -> O + Sync) -> Vec<O> {
    map_ordered(items, threads, &Tracer::disabled(), "test", f)
}

#[test]
fn ordered_for_any_thread_count() {
    let items: Vec<u32> = (0..97).collect();
    let expected: Vec<u64> = items.iter().map(|&n| u64::from(n) * 3).collect();
    for threads in [1, 2, 3, 8, 97, 200] {
        let got = map(&items, threads, |&n| u64::from(n) * 3);
        assert_eq!(got, expected, "threads = {threads}");
    }
}

#[test]
fn empty_and_singleton() {
    let empty: Vec<u8> = Vec::new();
    assert!(map(&empty, 4, |&b| b).is_empty());
    assert_eq!(map(&[9u8], 4, |&b| b + 1), vec![10]);
}

#[test]
fn explicit_thread_request_wins() {
    assert_eq!(resolve_threads(Some(3)), 3);
    assert_eq!(resolve_threads(Some(0)), 1, "zero is clamped to one");
}

/// A slow item holds up only the worker running it: while item 0 waits
/// for the other seven items, the second worker claims and runs all of
/// them. Splitting the items into contiguous halves would strand items
/// 1–3 behind item 0 until its wait gives up.
#[test]
fn a_slow_item_does_not_hold_back_the_items_after_it() {
    let items: Vec<usize> = (0..8).collect();
    let others_done = AtomicUsize::new(0);
    let got = map(&items, 2, |&n| {
        if n == 0 {
            let give_up = Instant::now() + Duration::from_secs(10);
            while others_done.load(Ordering::SeqCst) < 7 && Instant::now() < give_up {
                std::thread::sleep(Duration::from_millis(1));
            }
            others_done.load(Ordering::SeqCst)
        } else {
            others_done.fetch_add(1, Ordering::SeqCst);
            n
        }
    });
    assert_eq!(got[0], 7, "item 0 gave up waiting: only {} other items ran", got[0]);
    assert_eq!(got[1..], items[1..]);
}

#[test]
fn catch_isolates_panics_per_item() {
    let items: Vec<u32> = (0..20).collect();
    for threads in [1, 2, 4] {
        let got = map(&items, threads, |&n| {
            catch(|| {
                if n % 7 == 3 {
                    panic!("boom on {n}");
                }
                n * 2
            })
        });
        assert_eq!(got.len(), items.len(), "threads = {threads}");
        for (n, r) in items.iter().zip(&got) {
            if n % 7 == 3 {
                assert_eq!(r.as_ref().unwrap_err(), &format!("boom on {n}"));
            } else {
                assert_eq!(r.as_ref().unwrap(), &(n * 2));
            }
        }
    }
}

#[test]
fn catch_preserves_panic_message_kinds() {
    assert_eq!(catch(|| -> u8 { panic!("static str") }).unwrap_err(), "static str");
    let owned = catch(|| -> u8 {
        let dynamic = String::from("owned message");
        panic!("{dynamic}")
    });
    assert_eq!(owned.unwrap_err(), "owned message");
}

#[test]
fn records_one_worker_span_per_worker() {
    let items: Vec<u32> = (0..10).collect();
    for threads in [1, 3] {
        let tracer = Tracer::enabled();
        let got = map_ordered(&items, threads, &tracer, "parse", |&n| n + 1);
        assert_eq!(got, (1..=10).collect::<Vec<u32>>());
        let events = tracer.events();
        assert_eq!(events.len(), threads, "one worker span per worker");
        assert!(events.iter().all(|e| e.cat == "worker"));
        for i in 0..threads {
            assert!(events.iter().any(|e| e.name == format!("parse chunk {i}")), "worker {i}");
        }
        let total: usize = events.iter().map(|e| e.args[0].1.parse::<usize>().unwrap()).sum();
        assert_eq!(total, items.len(), "worker item counts cover every item");
    }
}
