//! Detection and analysis-report types.

use std::fmt;
use std::time::Duration;

use cfinder_pyast::Span;
use cfinder_schema::{Constraint, ConstraintSet, ConstraintType};
use cfinder_sql::{constraint_ddl, Dialect};
use serde::{Deserialize, Serialize};

use crate::incident::{Coverage, Incident, IncidentKind};

/// The seven code patterns of Figure 6, the off-by-default extensions
/// (PA_x*), and the CHECK/DEFAULT inference families (PA_c*, PA_d*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PatternId {
    /// PA_u1: check existence before save / error-handling.
    U1,
    /// PA_u2: APIs implemented with uniqueness assumptions (`get`, …).
    U2,
    /// PA_n1: method/field invocation on a column without a NULL check.
    N1,
    /// PA_n2: check NULL before assignment / error-handling.
    N2,
    /// PA_n3: field with a default value.
    N3,
    /// PA_f1: dependent column assigned/filtered with a referenced PK.
    F1,
    /// PA_f2: referenced PK looked up with a dependent column.
    F2,
    /// Extension (off by default): `OneToOneField` declarations imply a
    /// unique constraint on the FK column.
    X1,
    /// Extension (off by default, §4.3.1): fields interpolated into URL
    /// paths are used as identifiers and imply uniqueness.
    X2,
    /// PA_c1: a comparison guard on a column controls error-handling, so
    /// the negated comparison must hold for valid rows (CHECK).
    C1,
    /// PA_c2: a membership test on a column controls error-handling, so
    /// valid rows stay inside the member set (CHECK).
    C2,
    /// PA_d1: a NULL check on a column controls a constant assignment, so
    /// that constant is the column's intended default (DEFAULT).
    D1,
}

impl PatternId {
    /// All patterns, grouped by constraint type as in Table 6.
    pub const ALL: [PatternId; 10] = [
        PatternId::U1,
        PatternId::U2,
        PatternId::N1,
        PatternId::N2,
        PatternId::N3,
        PatternId::F1,
        PatternId::F2,
        PatternId::C1,
        PatternId::C2,
        PatternId::D1,
    ];

    /// The constraint type this pattern infers.
    pub fn constraint_type(&self) -> ConstraintType {
        match self {
            PatternId::U1 | PatternId::U2 | PatternId::X1 | PatternId::X2 => ConstraintType::Unique,
            PatternId::N1 | PatternId::N2 | PatternId::N3 => ConstraintType::NotNull,
            PatternId::F1 | PatternId::F2 => ConstraintType::ForeignKey,
            PatternId::C1 | PatternId::C2 => ConstraintType::Check,
            PatternId::D1 => ConstraintType::Default,
        }
    }

    /// One-sentence statement of the pattern rule (Figure 6), for
    /// provenance output and `cfinder explain`.
    pub fn rule(&self) -> &'static str {
        match self {
            PatternId::U1 => {
                "an existence check on the column set controls a save or error-handling branch"
            }
            PatternId::U2 => {
                "an API with a uniqueness assumption (get, get_or_create, …) is invoked on the column set"
            }
            PatternId::N1 => {
                "a method or field is invoked on the column's value without a dominating NULL check"
            }
            PatternId::N2 => {
                "a NULL check on the column controls an assignment or error-handling branch"
            }
            PatternId::N3 => {
                "the field declares a non-null default and no code path assigns None to it"
            }
            PatternId::F1 => {
                "the dependent column is assigned or filtered with a referenced primary key"
            }
            PatternId::F2 => {
                "the referenced primary key is looked up with a dependent column's value"
            }
            PatternId::X1 => {
                "a OneToOneField declaration implies uniqueness of the foreign-key column"
            }
            PatternId::X2 => {
                "the field is interpolated into a URL-shaped f-string, i.e. used as an identifier"
            }
            PatternId::C1 => {
                "a comparison guard on the column controls error-handling, so valid rows satisfy the negated comparison"
            }
            PatternId::C2 => {
                "a membership test on the column controls error-handling, so valid rows stay inside the member set"
            }
            PatternId::D1 => {
                "a NULL check on the column controls a constant assignment, i.e. the constant is its intended default"
            }
        }
    }

    /// Paper-style label (`PA_u1`, …).
    pub fn label(&self) -> &'static str {
        match self {
            PatternId::U1 => "PA_u1",
            PatternId::U2 => "PA_u2",
            PatternId::N1 => "PA_n1",
            PatternId::N2 => "PA_n2",
            PatternId::N3 => "PA_n3",
            PatternId::F1 => "PA_f1",
            PatternId::F2 => "PA_f2",
            PatternId::X1 => "PA_x1",
            PatternId::X2 => "PA_x2",
            PatternId::C1 => "PA_c1",
            PatternId::C2 => "PA_c2",
            PatternId::D1 => "PA_d1",
        }
    }
}

impl fmt::Display for PatternId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The intermediate hop of an inter-procedurally derived detection: the
/// validation helper whose dominated-on-raise check the call site
/// inherits. `None` on a [`Detection`] means the pattern matched directly
/// at the reported site (the paper's intra-procedural scope).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HelperHop {
    /// Name of the helper function (or method) whose summary fired.
    pub helper: String,
    /// File the helper is defined in.
    pub file: String,
    /// 1-based line of the establishing check inside the helper body.
    pub line: u32,
}

/// One pattern match that implies a constraint, with its code location —
/// the "detailed code pattern information" CFinder reports.
///
/// Serialization omits the `via` key entirely when `None`, so
/// intra-procedural reports are byte-identical to their pre-interproc
/// shape; deserialization treats an absent key as `None`, so old cache
/// entries and goldens still load.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Detection {
    /// Which pattern matched.
    pub pattern: PatternId,
    /// The inferred constraint (normalized to database column names).
    pub constraint: Constraint,
    /// Source file.
    pub file: String,
    /// Location of the matched snippet.
    pub span: Span,
    /// The matched snippet, rendered.
    pub snippet: String,
    /// The helper hop this detection was propagated through, when the
    /// pattern fired one call level away from the enforcement code.
    pub via: Option<HelperHop>,
}

impl Serialize for Detection {
    fn to_value(&self) -> serde::Value {
        let mut m = vec![
            ("pattern".to_string(), self.pattern.to_value()),
            ("constraint".to_string(), self.constraint.to_value()),
            ("file".to_string(), self.file.to_value()),
            ("span".to_string(), self.span.to_value()),
            ("snippet".to_string(), self.snippet.to_value()),
        ];
        if let Some(via) = &self.via {
            m.push(("via".to_string(), via.to_value()));
        }
        serde::Value::Map(m)
    }
}

impl Detection {
    /// The full provenance chain for this detection: pattern rule →
    /// (helper definition, when inter-procedural) → source site →
    /// table/columns → constraint DDL.
    pub fn provenance(&self) -> Provenance {
        Provenance {
            pattern: self.pattern.label().to_string(),
            rule: self.pattern.rule().to_string(),
            via: self.via.clone(),
            file: self.file.clone(),
            line: self.span.start.line,
            snippet: self.snippet.clone(),
            table: self.constraint.table().to_string(),
            columns: self.constraint.columns().iter().map(|c| c.to_string()).collect(),
            constraint: self.constraint.to_string(),
            ddl: constraint_ddl(&self.constraint, Dialect::Postgres, None),
        }
    }
}

/// Why a constraint was inferred: the explainable chain from pattern rule
/// through source location to the emitted DDL (one per supporting
/// detection). Surfaced by `cfinder explain` and the `--provenance` JSON
/// field. Like [`Detection`], the `via` key is omitted from JSON when the
/// detection was intra-procedural.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Paper-style pattern label (`PA_u1`, …).
    pub pattern: String,
    /// One-sentence pattern rule ([`PatternId::rule`]).
    pub rule: String,
    /// The helper hop, when the rule fired through one call level of
    /// indirection: rule → helper def → call site → constraint.
    pub via: Option<HelperHop>,
    /// Source file of the matched site.
    pub file: String,
    /// 1-based line of the matched site (1 for registry-level patterns
    /// like PA_n3, which have no single code site).
    pub line: u32,
    /// The matched snippet.
    pub snippet: String,
    /// Constrained table.
    pub table: String,
    /// Constrained columns.
    pub columns: Vec<String>,
    /// The constraint, rendered (`"Voucher Unique (code)"`).
    pub constraint: String,
    /// The PostgreSQL DDL that adds the constraint
    /// ([`cfinder_sql::constraint_ddl`]).
    pub ddl: String,
}

impl Serialize for Provenance {
    fn to_value(&self) -> serde::Value {
        let mut m = vec![
            ("pattern".to_string(), self.pattern.to_value()),
            ("rule".to_string(), self.rule.to_value()),
        ];
        if let Some(via) = &self.via {
            m.push(("via".to_string(), via.to_value()));
        }
        m.extend([
            ("file".to_string(), self.file.to_value()),
            ("line".to_string(), self.line.to_value()),
            ("snippet".to_string(), self.snippet.to_value()),
            ("table".to_string(), self.table.to_value()),
            ("columns".to_string(), self.columns.to_value()),
            ("constraint".to_string(), self.constraint.to_value()),
            ("ddl".to_string(), self.ddl.to_value()),
        ]);
        serde::Value::Map(m)
    }
}

/// A constraint absent from the declared schema, with the detections that
/// support it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MissingConstraint {
    /// The missing constraint.
    pub constraint: Constraint,
    /// Supporting detections (at least one).
    pub detections: Vec<Detection>,
}

impl MissingConstraint {
    /// Provenance chains of every supporting detection, in detection
    /// order.
    pub fn provenance(&self) -> Vec<Provenance> {
        self.detections.iter().map(Detection::provenance).collect()
    }

    /// Patterns that detected this constraint, deduplicated and sorted.
    pub fn patterns(&self) -> Vec<PatternId> {
        let mut ps: Vec<PatternId> = self.detections.iter().map(|d| d.pattern).collect();
        ps.sort();
        ps.dedup();
        ps
    }
}

/// One inferred constraint on an [`AnalysisReport::explain`] target, with
/// why it was inferred.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The inferred constraint.
    pub constraint: Constraint,
    /// `true` when the declared schema already has it, `false` when it is
    /// missing.
    pub declared: bool,
    /// The provenance chain of every supporting detection, in detection
    /// order.
    pub chains: Vec<Provenance>,
}

/// Per-stage wall-clock timings for one `CFinder::analyze` run, plus the
/// worker-thread count the engine used. Carried on [`AnalysisReport`] and
/// surfaced through Table 10's extended renderer and the CLI `--timings`
/// flag. Timings are observability data only: they are excluded from any
/// report-equality comparison (see the parallel-determinism test).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Pass 0: per-file parsing.
    pub parse: Duration,
    /// Pass 1: model-registry extraction.
    pub model_extraction: Duration,
    /// Passes 2–3: per-module pattern detection plus registry-level
    /// patterns (PA_n3, PA_x1).
    pub detection: Duration,
    /// Pass 4: constraint-set construction and the §3.5.3 schema diff.
    pub diff: Duration,
    /// Everything between and around the passes — result collection,
    /// incident bookkeeping, report assembly. Computed as the analysis
    /// wall time minus the four stage durations, so [`StageTimings::total`]
    /// accounts for 100% of `AnalysisReport::analysis_time`.
    pub orchestration: Duration,
    /// Worker threads the engine ran with (1 = serial).
    pub threads: usize,
    /// Incremental-cache lookups that returned a valid entry this run
    /// (0 when no cache is configured).
    pub cache_hits: usize,
    /// Incremental-cache lookups that missed (absent, corrupt, or stale
    /// entries; 0 when no cache is configured). Counted per file at the
    /// parse stage; a registry-invalidated detect entry still counts as a
    /// parse hit but shows up in [`StageTimings::files_parsed`].
    pub cache_misses: usize,
    /// Files actually parsed from source this run — the differential
    /// oracle's observable: a fully warm cached run parses nothing, and a
    /// run after editing one file parses exactly one.
    pub files_parsed: usize,
}

impl StageTimings {
    /// The stage labels, in pipeline order, that every per-stage readout
    /// (the stage-duration metric, `--timings`, BENCH `stages_seconds`)
    /// uses.
    pub const LABELS: [&'static str; 5] = ["parse", "models", "detect", "diff", "orchestration"];

    /// Each stage's duration beside its label, in [`StageTimings::LABELS`]
    /// order.
    pub fn stages(&self) -> [(&'static str, Duration); 5] {
        let [parse, models, detect, diff, orchestration] = Self::LABELS;
        [
            (parse, self.parse),
            (models, self.model_extraction),
            (detect, self.detection),
            (diff, self.diff),
            (orchestration, self.orchestration),
        ]
    }

    /// Sum of all five durations (the four passes plus orchestration) —
    /// equals `AnalysisReport::analysis_time` up to clock truncation.
    pub fn total(&self) -> Duration {
        self.parse + self.model_extraction + self.detection + self.diff + self.orchestration
    }
}

/// Result of analyzing one application.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Application name.
    pub app: String,
    /// Every pattern match (including ones for constraints that exist).
    pub detections: Vec<Detection>,
    /// All inferred constraints (normalized, deduplicated).
    pub inferred: ConstraintSet,
    /// Inferred constraints absent from the declared schema.
    pub missing: Vec<MissingConstraint>,
    /// Inferred constraints present in the declared schema
    /// ("detected existing", Table 4 / Table 8).
    pub existing_covered: ConstraintSet,
    /// Wall-clock time of the static analysis (Table 10).
    pub analysis_time: Duration,
    /// Total lines of analyzed source.
    pub loc: usize,
    /// Everything that degraded the run — recovered syntax errors, files
    /// dropped by resource guards, isolated worker panics — as typed,
    /// per-file events. Empty means full coverage. Deterministic: the
    /// same input yields the same incidents in the same order at any
    /// thread count.
    pub incidents: Vec<Incident>,
    /// Number of files the analyzed app contained (denominator for
    /// [`AnalysisReport::coverage`]).
    pub files_total: usize,
    /// Per-stage timing breakdown of `analysis_time`.
    pub timings: StageTimings,
}

impl AnalysisReport {
    /// Per-file coverage accounting derived from the incidents.
    pub fn coverage(&self) -> Coverage {
        Coverage::compute(self.files_total, &self.incidents)
    }

    /// Incidents of one kind.
    pub fn incidents_of(&self, kind: IncidentKind) -> impl Iterator<Item = &Incident> {
        self.incidents.iter().filter(move |i| i.kind == kind)
    }

    /// Compact `kind×count` summary of the incidents, sorted by kind
    /// (e.g. `"recovered-syntax 3, worker-panic 1"`). Empty string when
    /// there were none.
    pub fn incident_summary(&self) -> String {
        let mut counts: std::collections::BTreeMap<IncidentKind, usize> =
            std::collections::BTreeMap::new();
        for i in &self.incidents {
            *counts.entry(i.kind).or_default() += 1;
        }
        counts.iter().map(|(k, n)| format!("{k} {n}")).collect::<Vec<_>>().join(", ")
    }

    /// Missing constraints of one type.
    pub fn missing_of(&self, ty: ConstraintType) -> impl Iterator<Item = &MissingConstraint> {
        self.missing.iter().filter(move |m| m.constraint.constraint_type() == ty)
    }

    /// Count of missing constraints of one type.
    pub fn missing_count(&self, ty: ConstraintType) -> usize {
        self.missing_of(ty).count()
    }

    /// Count of missing constraints of a type detected by a pattern
    /// (Table 6 cells; one constraint can be counted under several
    /// patterns, but only once in the type total — exactly the paper's
    /// counting rule).
    pub fn missing_count_by_pattern(&self, pattern: PatternId) -> usize {
        self.missing.iter().filter(|m| m.patterns().contains(&pattern)).count()
    }

    /// Count of missing *partial* unique constraints (§4.1.2 reports 13).
    pub fn missing_partial_unique_count(&self) -> usize {
        self.missing.iter().filter(|m| m.constraint.is_partial_unique()).count()
    }

    /// Every inferred constraint on `target` (`table` or `table.column`)
    /// with its provenance chains: the missing ones in report order, then
    /// the declared ones. A `table.column` target matches a constraint on
    /// that table whose columns include the column. This is the query
    /// behind `cfinder explain` and the daemon's `explain` command.
    pub fn explain(&self, target: &str) -> Vec<Explanation> {
        let (table, column) = match target.split_once('.') {
            Some((table, column)) => (table, Some(column)),
            None => (target, None),
        };
        let on_target = |c: &Constraint| {
            c.table() == table && column.is_none_or(|col| c.columns().contains(&col))
        };
        let missing =
            self.missing.iter().filter(|m| on_target(&m.constraint)).map(|m| Explanation {
                constraint: m.constraint.clone(),
                declared: false,
                chains: m.provenance(),
            });
        let declared = self.existing_covered.iter().filter(|c| on_target(c)).map(|c| Explanation {
            constraint: c.clone(),
            declared: true,
            chains: self
                .detections
                .iter()
                .filter(|d| &d.constraint == c)
                .map(Detection::provenance)
                .collect(),
        });
        missing.chain(declared).collect()
    }

    /// Canonical JSON rendering of the report's *semantic* content —
    /// every analysis-result field and none of the timing or cache-counter
    /// fields (those legitimately differ between runs). Two runs computed
    /// the same answer iff their `stable_json` strings are byte-identical;
    /// the differential cold/warm cache oracle compares exactly this.
    ///
    /// Cache-infrastructure incidents ([`IncidentKind::CacheCorrupt`]) are
    /// excluded along with the timings: a damaged cache entry falls back
    /// to full re-analysis, so the *answer* is unchanged — only the
    /// diagnostic record differs — and the oracle must not flag that as a
    /// divergence.
    pub fn stable_json(&self) -> String {
        #[derive(Serialize)]
        struct Stable<'a> {
            app: &'a str,
            detections: &'a [Detection],
            inferred: &'a ConstraintSet,
            missing: &'a [MissingConstraint],
            existing_covered: &'a ConstraintSet,
            incidents: Vec<&'a Incident>,
            files_total: usize,
            loc: usize,
            coverage: Coverage,
        }
        serde_json::to_string(&Stable {
            app: &self.app,
            detections: &self.detections,
            inferred: &self.inferred,
            missing: &self.missing,
            existing_covered: &self.existing_covered,
            incidents: self.incidents.iter().filter(|i| i.kind.affects_coverage()).collect(),
            files_total: self.files_total,
            loc: self.loc,
            coverage: self.coverage(),
        })
        .expect("report serialization cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfinder_schema::Constraint;

    fn det(pattern: PatternId, c: Constraint) -> Detection {
        Detection {
            pattern,
            constraint: c,
            file: "f.py".into(),
            span: Span::DUMMY,
            snippet: String::new(),
            via: None,
        }
    }

    #[test]
    fn pattern_types() {
        assert_eq!(PatternId::U1.constraint_type(), ConstraintType::Unique);
        assert_eq!(PatternId::N3.constraint_type(), ConstraintType::NotNull);
        assert_eq!(PatternId::F2.constraint_type(), ConstraintType::ForeignKey);
        assert_eq!(PatternId::N2.label(), "PA_n2");
    }

    #[test]
    fn missing_constraint_patterns_dedup() {
        let c = Constraint::unique("t", ["a"]);
        let m = MissingConstraint {
            constraint: c.clone(),
            detections: vec![
                det(PatternId::U2, c.clone()),
                det(PatternId::U1, c.clone()),
                det(PatternId::U2, c),
            ],
        };
        assert_eq!(m.patterns(), vec![PatternId::U1, PatternId::U2]);
    }

    #[test]
    fn report_counters() {
        let cu = Constraint::unique("t", ["a"]);
        let cn = Constraint::not_null("t", "b");
        let report = AnalysisReport {
            app: "x".into(),
            detections: vec![],
            inferred: [cu.clone(), cn.clone()].into_iter().collect(),
            missing: vec![
                MissingConstraint {
                    constraint: cu.clone(),
                    detections: vec![det(PatternId::U1, cu)],
                },
                MissingConstraint {
                    constraint: cn.clone(),
                    detections: vec![det(PatternId::N1, cn)],
                },
            ],
            existing_covered: ConstraintSet::new(),
            analysis_time: Duration::from_millis(5),
            loc: 100,
            incidents: vec![],
            files_total: 1,
            timings: StageTimings::default(),
        };
        assert_eq!(report.missing_count(ConstraintType::Unique), 1);
        assert_eq!(report.missing_count(ConstraintType::NotNull), 1);
        assert_eq!(report.missing_count(ConstraintType::ForeignKey), 0);
        assert_eq!(report.missing_count_by_pattern(PatternId::U1), 1);
        assert_eq!(report.missing_count_by_pattern(PatternId::U2), 0);
        assert_eq!(report.missing_partial_unique_count(), 0);
        assert_eq!(report.coverage().files_clean, 1);
        assert_eq!(report.incident_summary(), "");
    }

    #[test]
    fn explain_matches_table_or_column_missing_first() {
        let unique = Constraint::unique("t", ["a", "b"]);
        let not_null = Constraint::not_null("t", "b");
        let declared = Constraint::not_null("t", "c");
        let other = Constraint::not_null("u", "a");
        let mut d_declared = det(PatternId::N2, declared.clone());
        d_declared.file = "g.py".into();
        let report = AnalysisReport {
            app: "x".into(),
            detections: vec![
                det(PatternId::U1, unique.clone()),
                d_declared,
                det(PatternId::N1, not_null.clone()),
                det(PatternId::N1, other.clone()),
            ],
            inferred: [unique.clone(), not_null.clone(), declared.clone(), other.clone()]
                .into_iter()
                .collect(),
            missing: [&unique, &not_null, &other]
                .into_iter()
                .map(|c| MissingConstraint {
                    constraint: c.clone(),
                    detections: vec![det(PatternId::U1, c.clone()), det(PatternId::U2, c.clone())],
                })
                .collect(),
            existing_covered: [declared.clone()].into_iter().collect(),
            analysis_time: Duration::ZERO,
            loc: 0,
            incidents: vec![],
            files_total: 1,
            timings: StageTimings::default(),
        };
        let found = |target: &str| -> Vec<(String, bool, Vec<String>)> {
            report
                .explain(target)
                .into_iter()
                .map(|e| {
                    let chains = e.chains.iter().map(|p| format!("{}@{}", p.pattern, p.file));
                    (e.constraint.to_string(), e.declared, chains.collect())
                })
                .collect()
        };
        let missing_chains = vec!["PA_u1@f.py".to_string(), "PA_u2@f.py".to_string()];
        assert_eq!(
            found("t"),
            vec![
                (unique.to_string(), false, missing_chains.clone()),
                (not_null.to_string(), false, missing_chains.clone()),
                (declared.to_string(), true, vec!["PA_n2@g.py".to_string()]),
            ]
        );
        assert_eq!(
            found("t.b"),
            vec![
                (unique.to_string(), false, missing_chains.clone()),
                (not_null.to_string(), false, missing_chains),
            ]
        );
        assert_eq!(found("t.c"), vec![(declared.to_string(), true, vec!["PA_n2@g.py".into()])]);
        assert!(found("t.z").is_empty());
        assert!(found("v").is_empty());
        assert!(found("ta").is_empty(), "a table name matches whole, not by prefix");
    }

    #[test]
    fn stable_json_ignores_timings_and_cache_incidents() {
        let mut report = AnalysisReport {
            app: "x".into(),
            detections: vec![],
            inferred: ConstraintSet::new(),
            missing: vec![],
            existing_covered: ConstraintSet::new(),
            analysis_time: Duration::from_millis(5),
            loc: 10,
            incidents: vec![Incident::new(IncidentKind::RecoveredSyntax, "a.py", 1, "x")],
            files_total: 2,
            timings: StageTimings::default(),
        };
        let base = report.stable_json();
        assert!(base.contains("recovered-syntax") || base.contains("RecoveredSyntax"));

        // Timing and cache-counter changes are invisible.
        report.analysis_time = Duration::from_secs(99);
        report.timings.cache_hits = 7;
        report.timings.files_parsed = 3;
        assert_eq!(report.stable_json(), base);

        // Cache-infrastructure incidents are invisible; analysis incidents
        // are not.
        report.incidents.push(Incident::new(
            IncidentKind::CacheCorrupt,
            "a.py",
            0,
            "truncated entry",
        ));
        assert_eq!(report.stable_json(), base);
        report.incidents.push(Incident::new(IncidentKind::WorkerPanic, "b.py", 0, "boom"));
        assert_ne!(report.stable_json(), base);
    }

    #[test]
    fn detection_via_is_omitted_when_absent() {
        let d = det(PatternId::N2, Constraint::not_null("t", "a"));
        let json = serde_json::to_string(&d).unwrap();
        assert!(!json.contains("via"), "intra-procedural detections must not carry a via key");
        // An old-shape payload (no `via` key) still deserializes.
        let back: Detection = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.provenance().via, None);

        let mut d2 = d.clone();
        d2.via = Some(HelperHop { helper: "require".into(), file: "helpers.py".into(), line: 4 });
        let json2 = serde_json::to_string(&d2).unwrap();
        assert!(json2.contains("\"via\""));
        assert!(json2.contains("require"));
        let back2: Detection = serde_json::from_str(&json2).unwrap();
        assert_eq!(back2, d2);
        let prov = serde_json::to_string(&back2.provenance()).unwrap();
        assert!(prov.contains("\"via\""));
        let prov_plain = serde_json::to_string(&d.provenance()).unwrap();
        assert!(!prov_plain.contains("\"via\""));
    }

    #[test]
    fn incident_summary_counts_by_kind() {
        let report = AnalysisReport {
            app: "x".into(),
            detections: vec![],
            inferred: ConstraintSet::new(),
            missing: vec![],
            existing_covered: ConstraintSet::new(),
            analysis_time: Duration::ZERO,
            loc: 0,
            incidents: vec![
                Incident::new(IncidentKind::RecoveredSyntax, "a.py", 1, "x"),
                Incident::new(IncidentKind::WorkerPanic, "b.py", 0, "boom"),
                Incident::new(IncidentKind::RecoveredSyntax, "c.py", 2, "y"),
            ],
            files_total: 3,
            timings: StageTimings::default(),
        };
        assert_eq!(report.incident_summary(), "recovered-syntax 2, worker-panic 1");
        assert_eq!(report.incidents_of(IncidentKind::RecoveredSyntax).count(), 2);
        let cov = report.coverage();
        assert_eq!((cov.files_clean, cov.files_degraded, cov.files_dropped), (0, 2, 1));
    }
}
