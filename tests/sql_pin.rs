//! Pins what the SQL reader makes of real dumps: the declared constraint
//! set, the validated schema and every warning.
//!
//! For each of the 8 quick-scale corpus apps and each dialect the inputs
//! are the emitted schema dump (`schema_to_sql`), the same dump with the
//! app's fix script appended, and every `SqlFaultKind` mutant of both at
//! seeds 0–3. One digest per app, dialect and dump form covers, for the
//! clean input and its mutants in order: `constraint_set()` in its sorted
//! order, `into_schema()`'s JSON, and each error's `Display`. A change to
//! how a statement is applied, which constraints wait for a later table,
//! or what a warning says shows up here, named by the group it moved.

use cfinder::core::{AppSource, CFinder, SourceFile};
use cfinder::corpus::{all_profiles, generate, GenOptions};
use cfinder::sql::{fix_script, mutate, parse_sql, schema_to_sql, Dialect, SqlFaultKind};

/// The digested reading of one input.
fn reading(sql: &str) -> String {
    let parsed = parse_sql(sql);
    let mut out = String::new();
    for c in parsed.constraint_set().iter() {
        out.push_str(&format!("{c:?}\n"));
    }
    let (schema, errors) = parsed.into_schema();
    out.push_str(&schema.to_json());
    out.push('\n');
    for e in &errors {
        out.push_str(&format!("{e}\n"));
    }
    out
}

/// The digest of a dump and its seeded mutants.
fn group_digest(dump: &str) -> String {
    let mut all = reading(dump);
    for kind in SqlFaultKind::ALL {
        for seed in 0..4u64 {
            all.push_str(&reading(&mutate(dump, kind, seed)));
        }
    }
    cfinder::core::cache::content_hash(&all)
}

/// `(app, dialect, form, digest)` for every group, in corpus order.
fn digests() -> Vec<(String, Dialect, &'static str, String)> {
    let mut out = Vec::new();
    for profile in all_profiles() {
        let app = generate(&profile, GenOptions::quick());
        let source = AppSource::new(
            app.name.clone(),
            app.files.iter().map(|f| SourceFile::new(f.path.clone(), f.text.clone())).collect(),
        );
        let report = CFinder::new().analyze(&source, &app.declared);
        for d in Dialect::ALL {
            let dump = schema_to_sql(&app.declared, d);
            let mut fixed = format!("{dump}\n");
            fixed.push_str(&fix_script(
                report.missing.iter().map(|m| &m.constraint),
                d,
                Some(&app.declared),
                &app.name,
            ));
            out.push((app.name.clone(), d, "dump", group_digest(&dump)));
            out.push((app.name.clone(), d, "fix", group_digest(&fixed)));
        }
    }
    out
}

#[test]
fn sql_readings_are_pinned() {
    let pins = [
        ("oscar", "postgres", "dump", "0ff46e8c9e426edbf27ee04a0fd349ab"),
        ("oscar", "postgres", "fix", "6f4b2b09942d36d93061c4956e1481a1"),
        ("oscar", "mysql", "dump", "3b21a88d7788906487d6995d4b1df43f"),
        ("oscar", "mysql", "fix", "b4d5e29d6e3bcc3eec1319e8b8b73947"),
        ("oscar", "sqlite", "dump", "54f14c70f2a35997cb952962b7eb7104"),
        ("oscar", "sqlite", "fix", "b53d93cbb86d17fbb9a41292f13b12fc"),
        ("saleor", "postgres", "dump", "3dd88d19454119feea89e5b5b035626d"),
        ("saleor", "postgres", "fix", "ffc5d914a5961efc14ae78356f406052"),
        ("saleor", "mysql", "dump", "cfcaa30db54c9ae94af87b5281ee201f"),
        ("saleor", "mysql", "fix", "be11d758a72deff05202cbb1b1bcceba"),
        ("saleor", "sqlite", "dump", "e678ae5314e8a6b2f99c0c59eb277fa1"),
        ("saleor", "sqlite", "fix", "08f59b27e6749b39cf5aab6955970841"),
        ("shuup", "postgres", "dump", "deee3e3e0f38e543288a51da7576648d"),
        ("shuup", "postgres", "fix", "0ba9f79f77999d95f203ed54b39f454a"),
        ("shuup", "mysql", "dump", "31c465d55edcb62c0672a08ec95fe16b"),
        ("shuup", "mysql", "fix", "b954ce0dc3dfdf400478ee78f174ee9f"),
        ("shuup", "sqlite", "dump", "161682b56f0981030e67915d6b9cace4"),
        ("shuup", "sqlite", "fix", "e8980b71cec6b5c52faa0fc3183dc228"),
        ("zulip", "postgres", "dump", "336e045b570ea3c9d2437fdb3bc12946"),
        ("zulip", "postgres", "fix", "7b68aae9374fc428f9fc8c877d8363f9"),
        ("zulip", "mysql", "dump", "4b564c92f39a527c0e18c95c7ef02a51"),
        ("zulip", "mysql", "fix", "d8885f6fdac4a9b1f30e3882125e458b"),
        ("zulip", "sqlite", "dump", "70c8ea2189e5d20b89788ab27eb004d2"),
        ("zulip", "sqlite", "fix", "dcde269ca1641eb186c699982c33756d"),
        ("wagtail", "postgres", "dump", "18dd98d231a2f0f94ec7cc88e28a64bd"),
        ("wagtail", "postgres", "fix", "2f735bd7a8d14c1e662e3e77e54cb6b7"),
        ("wagtail", "mysql", "dump", "3805e01950f482185341f0a1ef621692"),
        ("wagtail", "mysql", "fix", "8a8b0c630740d9c6d9729c951118bc98"),
        ("wagtail", "sqlite", "dump", "49209f94822a3e454fe8ac613ef94287"),
        ("wagtail", "sqlite", "fix", "0edd51fa0a48705c6babeadfde67b2ab"),
        ("edx", "postgres", "dump", "f6a9c4843d05a75306b6c14254c55d7c"),
        ("edx", "postgres", "fix", "391f3b729586ec5ffe68b4d12468fe9b"),
        ("edx", "mysql", "dump", "f809fef4822d0094b68e4afaa1fed42b"),
        ("edx", "mysql", "fix", "48fdac415d23b528bdb6d266a3b71064"),
        ("edx", "sqlite", "dump", "264f35db22462959b69aa96fb8a5f916"),
        ("edx", "sqlite", "fix", "7245d2d07758503b7c76b4000ff133b7"),
        ("edxcomm", "postgres", "dump", "67e629c3e06efbcd00284fc7955e79a6"),
        ("edxcomm", "postgres", "fix", "580434ba9318a513732a7ee27958d145"),
        ("edxcomm", "mysql", "dump", "6d104ff1858b85233a9b7b3aacc07fd7"),
        ("edxcomm", "mysql", "fix", "fb8f50f5bfeb8b921c619ba50300f028"),
        ("edxcomm", "sqlite", "dump", "0130075192a4d469419f2b323974b524"),
        ("edxcomm", "sqlite", "fix", "6e3e010d13f86b37af534e1e498fcb63"),
        ("company", "postgres", "dump", "2194ae57e00071f407ed9c555b6e674c"),
        ("company", "postgres", "fix", "85d61b247c1fccd2bef8a970868e39f7"),
        ("company", "mysql", "dump", "17cd3c5917a62868b6a6df3e2f625a29"),
        ("company", "mysql", "fix", "3ab623f0baca6d0b1474ea8ae9ad5357"),
        ("company", "sqlite", "dump", "6597d7e62df4f3eafe9ab69f19abc8c6"),
        ("company", "sqlite", "fix", "3f097bf613f1e8579e884964aa0e2c40"),
    ];
    let got = digests();
    let mut moved = Vec::new();
    for (app, d, form, digest) in &got {
        let pin = pins.iter().find(|p| p.0 == app && p.1 == d.name() && p.2 == *form);
        if pin.map(|p| p.3) != Some(digest.as_str()) {
            moved.push(format!("(\"{app}\", \"{}\", \"{form}\", \"{digest}\"),", d.name()));
        }
    }
    assert_eq!(got.len(), 48);
    assert!(moved.is_empty(), "moved or unpinned groups:\n{}", moved.join("\n"));
}
