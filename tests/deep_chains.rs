//! Deep field-access chains across multiple foreign keys — §3.5.1's "for a
//! real example in Oscar, `self.attribute.option_group.options` involves
//! the reference between three tables. It is hard to sort out the
//! relationship with such complex code even with human inspection."

use cfinder::core::{AppSource, CFinder, SourceFile};
use cfinder::schema::Schema;

/// The Oscar attribute/option-group structure: four models chained by FKs
/// and one reverse manager.
const MODELS: &str = r#"
from django.db import models


class AttributeOptionGroup(models.Model):
    name = models.CharField(max_length=128)


class AttributeOption(models.Model):
    group = models.ForeignKey(AttributeOptionGroup, related_name='options', on_delete=models.CASCADE)
    option = models.CharField(max_length=255)


class ProductAttribute(models.Model):
    code = models.CharField(max_length=128)
    option_group = models.ForeignKey(AttributeOptionGroup, null=True, on_delete=models.SET_NULL)


class ProductAttributeValue(models.Model):
    attribute = models.ForeignKey(ProductAttribute, on_delete=models.CASCADE)
    value_text = models.CharField(max_length=255)
"#;

#[test]
fn three_table_chain_resolves_to_final_table() {
    // self.attribute.option_group.options walks
    //   ProductAttributeValue → ProductAttribute → AttributeOptionGroup
    //   → (reverse) AttributeOption
    // so the uniqueness check constrains AttributeOption with the implicit
    // join on its `group` FK.
    let code = r#"
class ProductAttributeValue(models.Model):
    attribute = models.ForeignKey(ProductAttribute, on_delete=models.CASCADE)

    def validate_option(self, value):
        if self.attribute.option_group.options.filter(option=value).count() > 0:
            raise ValueError('option already defined in group')
"#;
    let app = AppSource::new(
        "oscar-like",
        vec![SourceFile::new("models.py", MODELS), SourceFile::new("validators.py", code)],
    );
    let report = CFinder::new().analyze(&app, &Schema::new());
    let missing: Vec<String> = report.missing.iter().map(|m| m.constraint.to_string()).collect();
    assert!(
        missing.iter().any(|c| c == "AttributeOption Unique (group_id, option)"),
        "{missing:?}"
    );
}

#[test]
fn chain_through_nullable_fk_detects_not_null_on_each_hop() {
    // Invoking through `attr.option_group.name` requires option_group
    // (nullable FK) to be non-null.
    let code = r#"
def group_name(pk):
    attr = ProductAttribute.objects.get(pk=pk)
    return attr.option_group.name.upper()
"#;
    let app = AppSource::new(
        "oscar-like",
        vec![SourceFile::new("models.py", MODELS), SourceFile::new("views.py", code)],
    );
    let report = CFinder::new().analyze(&app, &Schema::new());
    let missing: Vec<String> = report.missing.iter().map(|m| m.constraint.to_string()).collect();
    // Both hops imply not-null: the FK column and the final scalar column.
    assert!(
        missing.iter().any(|c| c == "ProductAttribute Not NULL (option_group_id)"),
        "{missing:?}"
    );
    assert!(missing.iter().any(|c| c == "AttributeOptionGroup Not NULL (name)"), "{missing:?}");
}

#[test]
fn guard_on_intermediate_hop_suppresses_only_that_hop() {
    let code = r#"
def group_name(pk):
    attr = ProductAttribute.objects.get(pk=pk)
    if attr.option_group is not None:
        return attr.option_group.name.upper()
    return ''
"#;
    let app = AppSource::new(
        "oscar-like",
        vec![SourceFile::new("models.py", MODELS), SourceFile::new("views.py", code)],
    );
    let report = CFinder::new().analyze(&app, &Schema::new());
    let missing: Vec<String> = report.missing.iter().map(|m| m.constraint.to_string()).collect();
    assert!(
        !missing.iter().any(|c| c == "ProductAttribute Not NULL (option_group_id)"),
        "the guarded FK hop must not be reported: {missing:?}"
    );
    assert!(
        missing.iter().any(|c| c == "AttributeOptionGroup Not NULL (name)"),
        "the unguarded scalar hop still is: {missing:?}"
    );
}

#[test]
fn variable_chains_resolve_like_inline_chains() {
    // The same constraint through intermediate variables — the use-def
    // chain glues the hops together.
    let code = r#"
def validate_option(value_pk, value):
    val = ProductAttributeValue.objects.get(pk=value_pk)
    attr = val.attribute
    group = attr.option_group
    existing = group.options.filter(option=value)
    if existing.count() > 0:
        raise ValueError('duplicate option')
"#;
    let app = AppSource::new(
        "oscar-like",
        vec![SourceFile::new("models.py", MODELS), SourceFile::new("validators.py", code)],
    );
    let report = CFinder::new().analyze(&app, &Schema::new());
    let missing: Vec<String> = report.missing.iter().map(|m| m.constraint.to_string()).collect();
    assert!(
        missing.iter().any(|c| c == "AttributeOption Unique (group_id, option)"),
        "{missing:?}"
    );
}

#[test]
fn longest_admitted_chains_analyze_without_incident() {
    // Attribute, call and `+` chains one link short of the parser's cap,
    // inside a `… is None: raise` guard and `and` guards, so the null-guard
    // walk, the pattern families and the helper-summary matcher all
    // descend the deepest trees the parser can produce. CI also runs this
    // test on a reduced stack: every walker's per-level frame must stay
    // small enough for a chain this deep.
    let links = cfinder::pyast::parser::MAX_CHAIN - 1;
    let attrs = format!("order{}", ".item".repeat(links));
    let calls = format!("make{}", "()".repeat(links));
    let sum = format!("order.total{}", " + 1".repeat(links));
    let code = format!(
        "def check(order):\n    \
         if {attrs} is None:\n        \
         raise ValueError('missing')\n    \
         first = order.item and {attrs}\n    \
         made = order.item and {calls}\n    \
         total = order.item and ({sum})\n    \
         return first, made, total\n"
    );
    let app = AppSource::new(
        "deep",
        vec![SourceFile::new("models.py", MODELS), SourceFile::new("views.py", code)],
    );
    let report = CFinder::new().with_threads(1).analyze(&app, &Schema::new());
    assert!(report.incidents.is_empty(), "{:?}", report.incidents);
}
