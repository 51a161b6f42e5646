//! A CI integrity gate: fail the build when new code implies constraints
//! the schema doesn't declare, and print the migration DDL that fixes it.
//!
//! This is the deployment model §6 of the paper suggests ("CFinder is
//! designed to run in the testing environment"): developers land code, the
//! gate compares inferred constraints against the schema, and the fix is a
//! copy-pasteable migration.
//!
//! Run with: `cargo run --example ci_gate`

use std::process::ExitCode;

use cfinder::core::{AppSource, CFinder, SourceFile};
use cfinder::minidb::Database;
use cfinder::schema::{Column, ColumnType, Schema, Table};
use cfinder::sql::{constraint_ddl, Dialect};

const MODELS: &str = r#"
class Coupon(models.Model):
    code = models.CharField(max_length=32)
    active = models.BooleanField(default=True, null=True)
    uses = models.IntegerField(default=0)
"#;

/// The pull request under review: a new redemption endpoint.
const NEW_CODE: &str = r#"
def redeem(code):
    # Only one *active* coupon per code may exist.
    if Coupon.objects.filter(code=code, active=True).exists():
        raise ValueError('code already active')
    Coupon.objects.create(code=code)


def total_uses(pk):
    coupon = Coupon.objects.get(pk=pk)
    return coupon.uses.bit_length()
"#;

fn declared() -> Schema {
    let mut s = Schema::new();
    s.add_table(
        Table::new("Coupon")
            .with_column(Column::new("code", ColumnType::VarChar(32)))
            .with_column(Column::new("active", ColumnType::Boolean))
            .with_column(Column::new("uses", ColumnType::Integer)),
    );
    s
}

fn main() -> ExitCode {
    let app = AppSource::new(
        "coupons-service",
        vec![SourceFile::new("models.py", MODELS), SourceFile::new("api.py", NEW_CODE)],
    );
    let schema = declared();
    let report = CFinder::new().analyze(&app, &schema);

    if report.missing.is_empty() {
        println!("✓ schema covers every constraint the code assumes");
        return ExitCode::SUCCESS;
    }

    println!(
        "✗ integrity gate: {} constraint(s) assumed by the code but missing from the schema\n",
        report.missing.len()
    );
    println!("-- suggested migration ------------------------------------------");
    for m in &report.missing {
        let evidence = &m.detections[0];
        println!(
            "-- {} (evidence: {} at {}:{})",
            m.constraint, evidence.pattern, evidence.file, evidence.span.start.line
        );
        println!("{}\n", constraint_ddl(&m.constraint, Dialect::Postgres, None));
    }

    // Dry-run the migration against an empty staging database to prove the
    // DDL is well-formed and self-consistent.
    let mut staging = Database::new();
    for table in schema.tables() {
        staging.create_table(table.clone()).expect("staging mirrors the schema");
    }
    for m in &report.missing {
        staging
            .add_constraint(m.constraint.clone())
            .expect("suggested constraints apply cleanly to a clean database");
    }
    println!("-- dry run on staging: all {} constraints applied cleanly", report.missing.len());
    ExitCode::from(1) // fail the build until the migration lands
}
