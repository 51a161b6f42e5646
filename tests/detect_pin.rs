//! Pins every corpus app's ordered detection list.
//!
//! The pattern families share one breadth-first expression walk per
//! statement, and the order detections are emitted in is part of the
//! determinism contract. This digest covers each detection's pattern,
//! constraint, file, span, snippet and helper hop, in emission order, for
//! the 8 corpus apps under the paper configuration, the default one,
//! every single ablation and both extensions, so any change to what the
//! detectors find, or to the order they find it in, shows up here.

use std::collections::BTreeSet;

use cfinder::core::{AppSource, CFinder, CFinderOptions, PatternId, SourceFile};
use cfinder::corpus::{all_profiles, generate, GenOptions};

const SCALE: GenOptions = GenOptions { loc_scale: 0.02 };

const ABLATIONS: [&str; 7] =
    ["null-guard", "data-dep", "composite", "partial", "check", "default", "interproc"];

fn configurations() -> Vec<(String, CFinderOptions)> {
    let mut out = vec![
        ("paper".to_string(), CFinderOptions::paper()),
        ("default".to_string(), CFinderOptions::default()),
    ];
    for name in ABLATIONS {
        let mut options = CFinderOptions::default();
        options.ablate(name).unwrap();
        out.push((format!("ablate {name}"), options));
    }
    let extensions = CFinderOptions {
        ext_one_to_one_unique: true,
        ext_url_identifier: true,
        ..CFinderOptions::default()
    };
    out.push(("extensions".to_string(), extensions));
    out
}

#[test]
fn detection_lists_are_pinned() {
    let configs = configurations();
    let mut digests = String::new();
    let mut seen: BTreeSet<PatternId> = BTreeSet::new();
    for profile in all_profiles() {
        let app = generate(&profile, SCALE);
        let source = AppSource::new(
            app.name.clone(),
            app.files.iter().map(|f| SourceFile::new(f.path.clone(), f.text.clone())).collect(),
        );
        for (label, options) in &configs {
            let report =
                CFinder::with_options(*options).with_threads(2).analyze(&source, &app.declared);
            assert!(!report.detections.is_empty(), "{} under {label} detects nothing", app.name);
            seen.extend(report.detections.iter().map(|d| d.pattern));
            let list = format!("{:?}", report.detections);
            digests.push_str(&format!(
                "{} {label} {}\n",
                app.name,
                cfinder::core::cache::content_hash(&list)
            ));
        }
    }
    // The pin covers every paper family. The corpus declares no
    // `OneToOneField` and builds no URL f-string, so the extensions' run
    // pins that they add nothing there.
    for pattern in PatternId::ALL {
        assert!(seen.contains(&pattern), "no corpus detection of {pattern:?}");
    }
    assert_eq!(
        cfinder::core::cache::content_hash(&digests),
        "60a7ab46691b564e7cf27de9d9ae30b9",
        "{digests}"
    );
}
