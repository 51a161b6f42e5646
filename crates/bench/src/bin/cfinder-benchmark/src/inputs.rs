//! Seeded inputs: the corpus, the long-body files, the edits, and the
//! plan-based answer check every operation is held to.

use cfinder_core::{AnalysisReport, AppSource, SourceFile};
use cfinder_corpus::{all_profiles, generate, GenOptions, GeneratedApp, Verdict};
use cfinder_schema::{Constraint, ConstraintType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Path prefix of the generated long-body files.
pub const LONG_PREFIX: &str = "long_";

/// Local names a long body draws its operands from.
const LOCALS: usize = 40;

/// Of [`LOCALS`], the names a long body updates only conditionally.
const ACCUMULATORS: usize = 10;

/// The eight corpus apps at `scale`, with the workload seed XORed into
/// every profile seed.
pub fn corpus(seed: u64, scale: f64) -> Vec<GeneratedApp> {
    all_profiles()
        .into_iter()
        .map(|mut profile| {
            profile.seed ^= seed;
            generate(&profile, GenOptions { loc_scale: scale })
        })
        .collect()
}

/// The app as the analyzer sees it, files in generation order.
pub fn source(app: &GeneratedApp) -> AppSource {
    AppSource::new(
        app.name.clone(),
        app.files.iter().map(|f| SourceFile::new(f.path.clone(), f.text.clone())).collect(),
    )
}

/// A deterministic generator for one purpose of one run.
pub fn rng(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose)
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Checks one report against the generator's plan, the independent
/// reference: per-type missing counts equal the `MissingPlan` totals plus
/// the `InterprocPlan` recoveries, no detection is unplanned, and the run
/// had no incidents.
pub fn check_plan(report: &AnalysisReport, app: &GeneratedApp) -> Result<(), String> {
    if let Some(incident) = report.incidents.first() {
        return Err(format!(
            "{}: {} incident(s), first: {incident}",
            app.name,
            report.incidents.len()
        ));
    }
    let plan = &app.profile.missing;
    let ip = plan.interproc;
    for (ty, want) in [
        (ConstraintType::Unique, plan.unique_total()),
        (ConstraintType::NotNull, plan.not_null_total() + ip.n2),
        (ConstraintType::ForeignKey, plan.fk_total()),
        (ConstraintType::Check, plan.check_total() + ip.c1 + ip.c2),
        (ConstraintType::Default, plan.default_total() + ip.d1),
    ] {
        let got = report.missing_count(ty);
        if got != want {
            return Err(format!(
                "{}: {got} missing {ty:?} constraints, plan says {want}",
                app.name
            ));
        }
    }
    match report.missing.iter().find(|m| app.truth.classify(&m.constraint) == Verdict::Unplanned) {
        Some(m) => Err(format!("{}: unplanned detection {}", app.name, m.constraint)),
        None => Ok(()),
    }
}

/// Appends three long-body files to every app. Body lengths are evenly
/// spaced over `lo..=hi` statements and dealt to apps in a fixed order,
/// so every seed analyses the same total length; the seed picks each
/// file's shape and its operands. With `inject`, the first long body
/// also gets one ORM lookup — a line that creates an unplanned
/// detection, for the benchmark's negative test.
pub fn add_long_bodies(
    apps: &mut [GeneratedApp],
    seed: u64,
    (lo, hi): (usize, usize),
    inject: bool,
) {
    let slots = apps.len() * 3;
    let sizes: Vec<usize> = (0..slots).map(|k| lo + (hi - lo) * k / (slots - 1).max(1)).collect();
    let mut rng = rng(seed, 1);
    let count = apps.len();
    for (a, app) in apps.iter_mut().enumerate() {
        for j in 0..3 {
            let statements = sizes[j * count + a];
            let migration = rng.gen_bool(0.5);
            let injected = (inject && a == 0 && j == 0).then(|| injected_lookup(app));
            let body = long_body(statements, &mut rng, injected.as_deref());
            let (path, text) = if migration {
                (
                    format!("{LONG_PREFIX}migration_{j}.py"),
                    format!(
                        "import math\n\n\ndef forwards(apps, schema_editor):\n{}",
                        indent(&body)
                    ),
                )
            } else {
                (format!("{LONG_PREFIX}script_{j}.py"), format!("import math\n\n{body}"))
            };
            app.files.push(cfinder_corpus::GeneratedFile { path, text });
        }
    }
}

/// A lookup by a column no planted site makes unique: the analyzer must
/// report it (PA_u2), and the plan check must call it unplanned.
fn injected_lookup(app: &GeneratedApp) -> String {
    for table in app.declared.tables() {
        for column in &table.columns {
            let name = column.name.as_str();
            if name == "id" || name.ends_with("_id") {
                continue;
            }
            let c = Constraint::unique(&table.name, [name]);
            if app.truth.classify(&c) == Verdict::Unplanned
                && !app.declared.constraints().contains(&c)
            {
                return format!("x0 = {}.objects.get({name}=x1)\n", table.name);
            }
        }
    }
    panic!("{}: no column left to inject a lookup on", app.name)
}

fn indent(body: &str) -> String {
    body.lines().map(|l| format!("    {l}\n")).collect()
}

/// A body of at least `statements` statements over [`LOCALS`] local
/// names: arithmetic, `if`, `for` and `math.*`, no ORM names. The last
/// [`ACCUMULATORS`] names are only ever updated inside a branch or a
/// loop, as running totals are, so none of their definitions is killed
/// and the definitions reaching a statement grow with the body. The
/// statement shapes repeat in a fixed cycle, so a body's cost depends on
/// its length, not on the seed.
fn long_body(statements: usize, rng: &mut StdRng, injected: Option<&str>) -> String {
    let mut out = String::new();
    let mut count = 0;
    if let Some(line) = injected {
        out.push_str(line);
        count += 1;
    }
    let temporaries = LOCALS - ACCUMULATORS;
    let mut shape = 0;
    while count < statements {
        let (t1, t2) = (rng.gen_range(0..temporaries), rng.gen_range(0..temporaries));
        let (a1, a2) = (rng.gen_range(temporaries..LOCALS), rng.gen_range(temporaries..LOCALS));
        let (t1, t2, a1, a2) =
            (format!("x{t1}"), format!("x{t2}"), format!("x{a1}"), format!("x{a2}"));
        let k = 2 + count % 7;
        let (text, n) = match shape % 5 {
            0 => (format!("if {t1} > {k}:\n    {a1} = {a1} + {t1}\n"), 2),
            1 => (format!("for i in range({k}):\n    {a1} = {a1} + i\n    {a2} = {a2} * i\n"), 3),
            2 => (format!("{t1} = {a1} % {k} + {t2}\n"), 1),
            3 => (format!("if {a2} > {t1}:\n    {a1} = {a1} - 1\nelse:\n    {a2} = {a2} + 1\n"), 3),
            _ => (format!("{t2} = math.floor({a1} / {k})\n"), 1),
        };
        out.push_str(&text);
        count += n;
        shape += 1;
    }
    out
}

/// Source of a pattern-free function: no ORM names, no raise, no calls
/// on its parameters — it changes neither the model registry nor the
/// summary table.
pub fn leaf_function(tag: &str) -> String {
    format!("\n\ndef bench_leaf_{tag}(a, b):\n    total = a * 7 + b\n    return total\n")
}

/// Source of a helper whose parameter check dominates a raise: it joins
/// the summary table (so every detect entry of its app is re-addressed)
/// but has no callers, so the answer does not change.
pub fn helper_function(tag: &str) -> String {
    format!(
        "\n\ndef bench_require_{tag}(obj):\n    if obj.bench_{tag} is None:\n        raise ValueError('bench_{tag} required')\n"
    )
}

/// Indices of the files a leaf edit may target: noise, service and model
/// files.
pub fn leaf_targets(app: &AppSource) -> Vec<usize> {
    app.files
        .iter()
        .enumerate()
        .filter(|(_, f)| ["noise_", "services_", "models_"].iter().any(|p| f.path.starts_with(p)))
        .map(|(i, _)| i)
        .collect()
}

/// Index of the app's `validators.py`.
pub fn validators(app: &AppSource) -> usize {
    app.files.iter().position(|f| f.path == "validators.py").expect("every app has validators.py")
}
