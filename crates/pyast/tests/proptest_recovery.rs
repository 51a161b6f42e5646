//! Property tests for the error-recovering lexer/parser entry points.
//!
//! The recovering pipeline is the analyzer's fault-tolerance boundary, so
//! its contract is stronger than the strict one's: it must *never* fail —
//! no panic, no `Err` — and everything it returns (tokens, statements,
//! recorded errors) must carry spans inside the input it was given.

use cfinder_pyast::lexer::{lex, lex_recovering};
use cfinder_pyast::parser::{parse_module, parse_module_recovering};
use cfinder_pyast::token::TokenKind;
use cfinder_pyast::visit::{walk_exprs, walk_stmts};
use cfinder_pyast::Span;
use proptest::prelude::*;

/// Every span in a module (statements and expressions).
fn all_spans(module: &cfinder_pyast::Module) -> Vec<Span> {
    let mut spans = Vec::new();
    walk_stmts(&module.body, &mut |s| spans.push(s.span));
    walk_exprs(&module.body, &mut |e| spans.push(e.span));
    spans
}

fn assert_spans_in_bounds(input: &str, out: &cfinder_pyast::Recovered) {
    let len = input.len() as u32;
    for err in &out.errors {
        assert!(err.span.start.offset <= err.span.end.offset, "inverted error span");
        assert!(err.span.end.offset <= len, "error span {:?} outside input len {len}", err.span);
    }
    for span in all_spans(&out.module) {
        assert!(span.end.offset <= len, "node span {span:?} outside input len {len}");
    }
}

proptest! {
    /// The recovering lexer never panics and always ends with exactly one
    /// EOF token, with balanced INDENT/DEDENT, for any input.
    #[test]
    fn recovering_lexer_total(input in ".{0,200}") {
        let out = lex_recovering(&input);
        let eofs = out.tokens.iter().filter(|t| t.kind == TokenKind::Eof).count();
        prop_assert_eq!(eofs, 1);
        prop_assert_eq!(&out.tokens.last().unwrap().kind, &TokenKind::Eof);
        let mut depth: i64 = 0;
        for t in &out.tokens {
            match t.kind {
                TokenKind::Indent => depth += 1,
                TokenKind::Dedent => depth -= 1,
                _ => {}
            }
            prop_assert!(depth >= 0, "dedent below zero");
        }
        prop_assert_eq!(depth, 0, "unbalanced at eof");
    }

    /// The recovering parser never panics and never returns a span —
    /// error or AST node — outside the input, for any input.
    #[test]
    fn recovering_parser_total_and_spans_in_bounds(input in ".{0,200}") {
        let out = parse_module_recovering(&input);
        assert_spans_in_bounds(&input, &out);
    }

    /// Same, over structured Python-looking fragments that exercise the
    /// indentation machinery and resynchronization much harder than
    /// uniform noise does.
    #[test]
    fn recovering_parser_total_on_pythonish_soup(
        input in "[a-z() :=,.'\\[\\]{}#!$\n\t]{0,300}"
    ) {
        let out = parse_module_recovering(&input);
        assert_spans_in_bounds(&input, &out);
    }

    /// On input the strict pipeline accepts, recovery reports no errors
    /// and produces the identical module.
    #[test]
    fn recovering_agrees_with_strict_on_valid_input(input in "[a-z =:\n()0-9]{0,120}") {
        if lex(&input).is_ok() {
            if let Ok(strict) = parse_module(&input) {
                let out = parse_module_recovering(&input);
                prop_assert!(out.errors.is_empty(), "spurious errors: {:?}", out.errors);
                prop_assert_eq!(strict, out.module);
            }
        }
    }

    /// Recovery monotonicity at the file level: prepending a broken
    /// statement line never costs the valid statements that follow it.
    #[test]
    fn recovering_keeps_statements_after_injected_garbage(n in 1usize..6) {
        let valid: String = (0..n).map(|i| format!("v{i} = {i}\n")).collect();
        let src = format!("bad = = =\n{valid}");
        let out = parse_module_recovering(&src);
        prop_assert!(!out.errors.is_empty());
        prop_assert_eq!(out.module.body.len(), n);
    }
}
