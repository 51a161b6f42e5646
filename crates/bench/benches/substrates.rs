//! Microbenchmarks of the substrate layers: lexer/parser throughput,
//! flow analyses, and minidb write paths (the "constraint guard overhead"
//! the paper's skeptical developers worry about).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use cfinder_corpus::{generate, profile};
use cfinder_flow::{NullGuards, UseDefChains};
use cfinder_minidb::{Database, Value};
use cfinder_pyast::ast::StmtKind;
use cfinder_pyast::lexer::lex;
use cfinder_pyast::parse_module;
use cfinder_schema::{Column, ColumnType, Constraint, Table};

/// A realistic service-file sample from the generated corpus.
fn sample_source() -> String {
    let app = generate(&profile("oscar").expect("profile"), cfinder_bench::bench_options());
    app.files
        .iter()
        .find(|f| f.path.starts_with("services_"))
        .map(|f| f.text.clone())
        .expect("corpus has service files")
}

fn bench_lexer(c: &mut Criterion) {
    let src = sample_source();
    let mut group = c.benchmark_group("pyast");
    group.throughput(Throughput::Bytes(src.len() as u64));
    group.bench_function("lex", |b| b.iter(|| lex(&src).expect("valid source").len()));
    group.bench_function("parse", |b| {
        b.iter(|| parse_module(&src).expect("valid source").body.len())
    });
    group.finish();
}

/// A 400-statement function body: 40 locals, of which the last 10 are
/// accumulators updated only under an `if` or a `for`, so the set of
/// definitions reaching a statement grows with the body.
fn long_body_source() -> String {
    let mut src = String::from("def forwards(apps, schema_editor):\n");
    src.extend((0..40).map(|i| format!("    v{i} = {i}\n")));
    for i in 40..400 {
        let (x, y, acc) = (i * 7 % 30, i * 13 % 40, 30 + i % 10);
        src += &match i % 4 {
            0 => format!("    if v{y} > {i}:\n        v{acc} += v{x}\n"),
            1 => format!("    for k in range(v{y}):\n        v{acc} = v{acc} + math.sqrt(k)\n"),
            _ => format!("    v{x} = v{y} * {i} + v{acc}\n"),
        };
    }
    src
}

fn bench_flow(c: &mut Criterion) {
    let src = sample_source();
    let module = parse_module(&src).expect("valid source");
    let long = parse_module(&long_body_source()).expect("valid source");
    let StmtKind::FunctionDef(forwards) = &long.body[0].kind else {
        unreachable!("the long body is one function")
    };
    let params = ["apps".to_string(), "schema_editor".to_string()];
    let mut group = c.benchmark_group("flow");
    group.bench_function("use_def_chains", |b| {
        b.iter(|| UseDefChains::compute(&module.body, &[]).defs().len())
    });
    group.bench_function("use_def_chains_long", |b| {
        b.iter(|| UseDefChains::compute(&forwards.body, &params).defs().len())
    });
    group.bench_function("null_guards", |b| {
        b.iter(|| {
            let g = NullGuards::analyze_with(&module.body, None);
            std::hint::black_box(&g);
        })
    });
    group.finish();
}

fn seeded_db(constrained: bool) -> Database {
    let mut db = if constrained { Database::new() } else { Database::without_enforcement() };
    db.create_table(
        Table::new("users")
            .with_column(Column::new("email", ColumnType::VarChar(254)))
            .with_column(Column::new("name", ColumnType::VarChar(100))),
    )
    .expect("fresh db");
    db.add_constraint(Constraint::unique("users", ["email"])).expect("declare");
    db.add_constraint(Constraint::not_null("users", "email")).expect("declare");
    for i in 0..1000 {
        db.insert(
            "users",
            [("email", Value::from(format!("user{i}@example.com"))), ("name", Value::from("n"))],
        )
        .expect("unique synthetic emails");
    }
    db
}

/// Figure 2's implicit cost question: what does the final-guard check cost
/// per insert, with 1000 existing rows?
fn bench_minidb_guard_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_guard_overhead");
    for (label, constrained) in [("insert_with_constraints", true), ("insert_unchecked", false)] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || seeded_db(constrained),
                |mut db| {
                    db.insert(
                        "users",
                        [("email", Value::from("fresh@example.com")), ("name", Value::from("x"))],
                    )
                    .expect("unique email")
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// Migration validation cost: `ADD CONSTRAINT` scans existing rows.
fn bench_minidb_migration_check(c: &mut Criterion) {
    let db = seeded_db(false);
    c.bench_function("add_constraint_validation_1k_rows", |b| {
        b.iter(|| db.count_violations(&Constraint::unique("users", ["name"])))
    });
}

criterion_group!(
    benches,
    bench_lexer,
    bench_flow,
    bench_minidb_guard_overhead,
    bench_minidb_migration_check,
);
criterion_main!(benches);
