//! Pins the recovering parser's output on the corpus.
//!
//! The digest covers the `{:?}` rendering of `parse_module_recovering` —
//! the module, its node count, and every error's kind, span and message —
//! for every file of the 8 corpus apps at 0.1 scale, and for the files
//! `inject_faults` corrupts in each app, so any change to the trees the
//! parser builds or to how it recovers shows up here.

use cfinder::corpus::{all_profiles, generate, inject_faults, GenOptions};
use cfinder::pyast::parse_module_recovering;

const SCALE: GenOptions = GenOptions { loc_scale: 0.1 };

fn digest(path: &str, text: &str, out: &mut String) -> usize {
    let recovered = parse_module_recovering(text);
    let rendered = format!("{recovered:?}");
    out.push_str(&format!("{path} {}\n", cfinder::core::cache::content_hash(&rendered)));
    recovered.errors.len()
}

#[test]
fn clean_corpus_parses_are_pinned() {
    let mut digests = String::new();
    let mut errors = 0;
    for profile in all_profiles() {
        let app = generate(&profile, SCALE);
        for file in &app.files {
            errors += digest(&format!("{}/{}", app.name, file.path), &file.text, &mut digests);
        }
    }
    assert_eq!(errors, 0, "the clean corpus parses without errors");
    assert_eq!(
        cfinder::core::cache::content_hash(&digests),
        "8e21e37cf04ace880ce248e724494b1c",
        "{digests}"
    );
}

#[test]
fn faulted_corpus_parses_are_pinned() {
    let mut digests = String::new();
    let mut errors = 0;
    for (i, profile) in all_profiles().into_iter().enumerate() {
        for seed in 0..3u64 {
            let mut app = generate(&profile, SCALE);
            let faults = inject_faults(&mut app, seed * 131 + i as u64, 6);
            for fault in faults {
                let file = app.files.iter().find(|f| f.path == fault.file).unwrap();
                let label = format!("{}/{} {:?} seed {seed}", app.name, file.path, fault.kind);
                errors += digest(&label, &file.text, &mut digests);
            }
        }
    }
    assert!(errors > 0, "the injected faults produce parse errors");
    assert_eq!(
        cfinder::core::cache::content_hash(&digests),
        "96c83e61c5376b69a48b62b03cb39b1e",
        "{digests}"
    );
}
