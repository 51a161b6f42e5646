//! Recursive-descent parser for the Python subset.
//!
//! Grammar coverage: module / class / function definitions with decorators
//! and default or starred parameters, the full simple- and compound-statement
//! set used by Django-style applications, and expressions with Python's
//! operator precedence, chained comparisons, ternaries, lambdas, slices,
//! comprehensions, and f-strings (holes are parsed so data-flow sees the
//! uses).

use crate::ast::*;
use crate::error::{ParseError, Result};
use crate::lexer::{lex, lex_recovering, LexRecovery};
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Maximum nesting depth the parser accepts, counted in guard activations
/// (one per statement, expression, unary chain, or prefix-operator level —
/// a parenthesis level costs about three).
///
/// Recursive-descent parsing consumes native stack proportionally to input
/// nesting, so pathological inputs (`((((…`) could otherwise overflow the
/// stack. Exceeding the limit produces a [`ParseError`] with
/// [`crate::error::ParseErrorKind::DepthLimit`] in both strict and
/// recovering modes. The value admits ~32 parenthesis levels — far above
/// anything real code reaches (CPython's own compiler caps around 100
/// nested blocks) — while keeping worst-case stack usage bounded even on
/// threads with reduced stacks.
pub const MAX_DEPTH: u32 = 96;

/// Maximum number of links in an iteratively-built expression chain
/// (binary operators like `a + a + …`, or postfix trailers like
/// `a.b.c…`/`f()()…`).
///
/// These chains cost no parse-time recursion, so [`MAX_DEPTH`] never sees
/// them — but each link deepens the resulting left-leaning tree, and a
/// tree tens of thousands of nodes deep overflows the stack later, in the
/// AST's *recursive drop and traversal*, which no `catch_unwind` can
/// intercept. Capping the links keeps every tree the parser can produce
/// shallow enough to walk and free safely. Real code stays orders of
/// magnitude below this; exceeding it yields a
/// [`crate::error::ParseErrorKind::DepthLimit`] error.
pub const MAX_CHAIN: usize = 1024;

/// Parses a module (a full source file).
///
/// # Errors
///
/// Returns the first lexing or parsing error with its source location.
///
/// # Examples
///
/// ```
/// use cfinder_pyast::parser::parse_module;
///
/// let module = parse_module("x = a.filter(email=email).exists()\n").unwrap();
/// assert_eq!(module.body.len(), 1);
/// ```
pub fn parse_module(source: &str) -> Result<Module> {
    let tokens = lex(source)?;
    let mut parser = Parser::new(tokens);
    let body = parser.parse_block_until_eof()?;
    Ok(Module { body, node_count: parser.next_id })
}

/// Parses a single expression (must consume the whole input).
///
/// # Errors
///
/// Returns an error if the input is not exactly one expression.
pub fn parse_expr(source: &str) -> Result<Expr> {
    let tokens = lex(source)?;
    let mut parser = Parser::new(tokens);
    let expr = parser.expression()?;
    parser.eat(&TokenKind::Newline)?;
    parser.eat(&TokenKind::Eof)?;
    Ok(expr)
}

/// The output of [`parse_module_recovering`]: the parts of the module that
/// parsed cleanly plus every error that was recovered from.
#[derive(Debug)]
pub struct Recovered {
    /// Partial module containing every statement that parsed. When
    /// `errors` is empty this is identical to strict [`parse_module`]
    /// output.
    pub module: Module,
    /// Lexing errors first, then parsing errors, each group in source
    /// order. Empty means the input was fully valid.
    pub errors: Vec<ParseError>,
}

/// Error-tolerant variant of [`parse_module`]: never fails.
///
/// On a syntax error the parser records the error with its span, then
/// resynchronizes at the next statement boundary *at the same indentation
/// level* — it skips tokens (balancing `Indent`/`Dedent` pairs so an
/// enclosing suite is never abandoned) up to the next `Newline`, and
/// resumes statement parsing there. One broken function body therefore no
/// longer loses a file's other definitions.
///
/// # Examples
///
/// ```
/// use cfinder_pyast::parser::parse_module_recovering;
///
/// let out = parse_module_recovering("class A:\n    pass\nbad = = syntax\nclass B:\n    pass\n");
/// assert_eq!(out.module.body.len(), 2); // A and B both survive
/// assert_eq!(out.errors.len(), 1);
/// ```
pub fn parse_module_recovering(source: &str) -> Recovered {
    let LexRecovery { tokens, errors } = lex_recovering(source);
    parse_tokens_recovering(tokens, errors)
}

/// Recovering parse over an existing token stream (the output of
/// [`crate::lexer::lex_recovering`]), seeded with the lexer's recorded
/// errors. Lets callers inspect or cap the token stream before parsing.
pub fn parse_tokens_recovering(tokens: Vec<Token>, lex_errors: Vec<ParseError>) -> Recovered {
    let mut parser = Parser::new(tokens);
    parser.recover = true;
    parser.errors = lex_errors;
    let body = match parser.parse_block_until_eof() {
        Ok(body) => body,
        // Unreachable: in recover mode every statement error is caught in
        // the block loop. Degrade to an empty module all the same.
        Err(e) => {
            parser.errors.push(e);
            Vec::new()
        }
    };
    Recovered { module: Module { body, node_count: parser.next_id }, errors: parser.errors }
}

struct Parser {
    tokens: Vec<Token>,
    idx: usize,
    next_id: u32,
    /// Current statement/expression nesting depth, capped at [`MAX_DEPTH`].
    depth: u32,
    /// When set, statement-level errors are recorded in `errors` and
    /// parsing resumes at the next statement boundary.
    recover: bool,
    /// Errors tolerated so far (recover mode only).
    errors: Vec<ParseError>,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser { tokens, idx: 0, next_id: 0, depth: 0, recover: false, errors: Vec::new() }
    }

    // --- token plumbing -----------------------------------------------------

    fn peek(&self) -> &Token {
        &self.tokens[self.idx.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn peek_ahead(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.idx + n).min(self.tokens.len() - 1)].kind
    }

    /// Consumes the current token and hands it over. The parser never
    /// rewinds, so the token moves out of its slot instead of being cloned;
    /// the last token (the `Eof`) stays in place for every later `peek`.
    fn advance(&mut self) -> Token {
        let last = self.tokens.len() - 1;
        if self.idx < last {
            self.idx += 1;
            let consumed = Token::new(TokenKind::Newline, Span::DUMMY);
            std::mem::replace(&mut self.tokens[self.idx - 1], consumed)
        } else {
            self.tokens[last].clone()
        }
    }

    fn check(&self, kind: &TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn eat_if(&mut self, kind: &TokenKind) -> bool {
        if self.check(kind) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> Result<Token> {
        if self.check(kind) {
            Ok(self.advance())
        } else {
            Err(self.unexpected(&format!("expected {}", kind.describe())))
        }
    }

    fn eat_name(&mut self) -> Result<(String, Span)> {
        if !matches!(self.peek_kind(), TokenKind::Name(_)) {
            return Err(self.unexpected("expected identifier"));
        }
        match self.advance() {
            Token { kind: TokenKind::Name(n), span } => Ok((n, span)),
            _ => unreachable!("peeked a name"),
        }
    }

    fn unexpected(&self, msg: &str) -> ParseError {
        ParseError::new(format!("{msg}, found {}", self.peek_kind().describe()), self.peek().span)
    }

    fn id(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        id
    }

    fn expr(&mut self, span: Span, kind: ExprKind) -> Expr {
        Expr { id: self.id(), span, kind }
    }

    fn stmt(&mut self, span: Span, kind: StmtKind) -> Stmt {
        Stmt { id: self.id(), span, kind }
    }

    /// Runs `f` one nesting level deeper, failing with a
    /// [`crate::error::ParseErrorKind::DepthLimit`] error once
    /// [`MAX_DEPTH`] is reached. Wraps every recursion cycle of the
    /// grammar (statements, expressions, unary chains) so input nesting —
    /// not the OS stack — is the binding limit.
    fn with_depth<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth >= MAX_DEPTH {
            return Err(ParseError::depth_limit(MAX_DEPTH, self.peek().span));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    // --- blocks and statements ----------------------------------------------

    /// Parses one statement into `out`. In recover mode a failed
    /// statement is recorded, its partial output dropped, and parsing
    /// resynchronized at the next statement boundary.
    fn block_statement(&mut self, out: &mut Vec<Stmt>) -> Result<()> {
        if !self.recover {
            return self.statement(out);
        }
        let (before, len) = (self.idx, out.len());
        if let Err(e) = self.statement(out) {
            out.truncate(len);
            self.errors.push(e);
            self.synchronize(before);
        }
        Ok(())
    }

    /// Skips tokens up to the next statement boundary at the same
    /// indentation level: the next `Newline` outside any `Indent`/`Dedent`
    /// pairs opened during the skip. A `Dedent` belonging to an enclosing
    /// suite is left unconsumed so the caller's block loop sees it.
    fn synchronize(&mut self, before: usize) {
        let mut depth = 0usize;
        loop {
            match self.peek_kind() {
                TokenKind::Eof => break,
                TokenKind::Newline if depth == 0 => {
                    self.advance();
                    break;
                }
                TokenKind::Dedent if depth == 0 => break,
                TokenKind::Indent => {
                    depth += 1;
                    self.advance();
                }
                TokenKind::Dedent => {
                    depth -= 1;
                    self.advance();
                    if depth == 0 {
                        // A balanced Indent..Dedent group just closed: we
                        // are back at a statement boundary at the original
                        // indentation level.
                        break;
                    }
                }
                _ => {
                    self.advance();
                }
            }
        }
        // Guarantee progress even on a stray structural token.
        if self.idx == before && !self.check(&TokenKind::Eof) {
            self.advance();
        }
    }

    fn parse_block_until_eof(&mut self) -> Result<Vec<Stmt>> {
        let mut body = Vec::new();
        while !self.check(&TokenKind::Eof) {
            self.block_statement(&mut body)?;
        }
        Ok(body)
    }

    /// Parses an indented suite after a colon, or a simple-statement list on
    /// the same line (`if x: pass`).
    fn suite(&mut self) -> Result<Vec<Stmt>> {
        self.eat(&TokenKind::Colon)?;
        let mut body = Vec::new();
        if self.eat_if(&TokenKind::Newline) {
            self.eat(&TokenKind::Indent)?;
            while !self.check(&TokenKind::Dedent) && !self.check(&TokenKind::Eof) {
                self.block_statement(&mut body)?;
            }
            // The Dedent is absent only when input ends inside the suite,
            // which strict lexing never produces (the indent stack is
            // drained before Eof).
            self.eat_if(&TokenKind::Dedent);
        } else {
            // Inline suite: one or more `;`-separated simple statements.
            self.simple_statement_line(&mut body)?;
        }
        Ok(body)
    }

    /// Parses one statement into `out`; simple statements may expand to
    /// several via `;`.
    fn statement(&mut self, out: &mut Vec<Stmt>) -> Result<()> {
        self.with_depth(|p| p.statement_impl(out))
    }

    fn statement_impl(&mut self, out: &mut Vec<Stmt>) -> Result<()> {
        let stmt = match self.peek_kind() {
            TokenKind::Def | TokenKind::Class | TokenKind::At => self.definition()?,
            TokenKind::If => self.if_statement()?,
            TokenKind::For => self.for_statement()?,
            TokenKind::While => self.while_statement()?,
            TokenKind::Try => self.try_statement()?,
            TokenKind::With => self.with_statement()?,
            _ => return self.simple_statement_line(out),
        };
        out.push(stmt);
        Ok(())
    }

    /// A physical line of `;`-separated simple statements ended by
    /// `Newline`, pushed onto `out`.
    fn simple_statement_line(&mut self, out: &mut Vec<Stmt>) -> Result<()> {
        out.push(self.simple_statement()?);
        while self.eat_if(&TokenKind::Semi) {
            if self.check(&TokenKind::Newline) {
                break;
            }
            out.push(self.simple_statement()?);
        }
        self.eat(&TokenKind::Newline)?;
        Ok(())
    }

    fn simple_statement(&mut self) -> Result<Stmt> {
        let start = self.peek().span;
        match self.peek_kind() {
            TokenKind::Return => {
                self.advance();
                let value = if self.check(&TokenKind::Newline) || self.check(&TokenKind::Semi) {
                    None
                } else {
                    Some(self.expression_list()?)
                };
                let span = value.as_ref().map_or(start, |v| start.to(v.span));
                Ok(self.stmt(span, StmtKind::Return { value }))
            }
            TokenKind::Raise => {
                self.advance();
                let (exc, cause) = if self.check(&TokenKind::Newline)
                    || self.check(&TokenKind::Semi)
                {
                    (None, None)
                } else {
                    let exc = self.expression()?;
                    let cause =
                        if self.eat_if(&TokenKind::From) { Some(self.expression()?) } else { None };
                    (Some(exc), cause)
                };
                let end = cause
                    .as_ref()
                    .map(|c| c.span)
                    .or_else(|| exc.as_ref().map(|e| e.span))
                    .unwrap_or(start);
                Ok(self.stmt(start.to(end), StmtKind::Raise { exc, cause }))
            }
            TokenKind::Pass => {
                self.advance();
                Ok(self.stmt(start, StmtKind::Pass))
            }
            TokenKind::Break => {
                self.advance();
                Ok(self.stmt(start, StmtKind::Break))
            }
            TokenKind::Continue => {
                self.advance();
                Ok(self.stmt(start, StmtKind::Continue))
            }
            TokenKind::Import => {
                self.advance();
                let names = self.import_aliases()?;
                Ok(self.stmt(start, StmtKind::Import { names }))
            }
            TokenKind::From => {
                self.advance();
                let mut module = String::new();
                while self.eat_if(&TokenKind::Dot) {
                    module.push('.');
                }
                if let TokenKind::Name(_) = self.peek_kind() {
                    let (first, _) = self.eat_name()?;
                    module.push_str(&first);
                    while self.check(&TokenKind::Dot) {
                        self.advance();
                        let (part, _) = self.eat_name()?;
                        module.push('.');
                        module.push_str(&part);
                    }
                }
                self.eat(&TokenKind::Import)?;
                let names = if self.check(&TokenKind::Star) {
                    self.advance();
                    vec![ImportAlias { name: "*".to_string(), asname: None }]
                } else if self.eat_if(&TokenKind::LParen) {
                    let names = self.import_aliases()?;
                    self.eat(&TokenKind::RParen)?;
                    names
                } else {
                    self.import_aliases()?
                };
                Ok(self.stmt(start, StmtKind::ImportFrom { module, names }))
            }
            TokenKind::Assert => {
                self.advance();
                let test = self.expression()?;
                let msg =
                    if self.eat_if(&TokenKind::Comma) { Some(self.expression()?) } else { None };
                let span = start.to(msg.as_ref().map_or(test.span, |m| m.span));
                Ok(self.stmt(span, StmtKind::Assert { test, msg }))
            }
            TokenKind::Global | TokenKind::Nonlocal => {
                self.advance();
                let mut names = vec![self.eat_name()?.0];
                while self.eat_if(&TokenKind::Comma) {
                    names.push(self.eat_name()?.0);
                }
                Ok(self.stmt(start, StmtKind::Global { names }))
            }
            TokenKind::Del => {
                self.advance();
                let mut targets = vec![self.expression()?];
                while self.eat_if(&TokenKind::Comma) {
                    targets.push(self.expression()?);
                }
                Ok(self.stmt(start, StmtKind::Delete { targets }))
            }
            _ => self.expression_statement(),
        }
    }

    fn import_aliases(&mut self) -> Result<Vec<ImportAlias>> {
        let mut names = Vec::new();
        loop {
            let (mut name, _) = self.eat_name()?;
            while self.eat_if(&TokenKind::Dot) {
                let (part, _) = self.eat_name()?;
                name.push('.');
                name.push_str(&part);
            }
            let asname = if self.eat_if(&TokenKind::As) { Some(self.eat_name()?.0) } else { None };
            names.push(ImportAlias { name, asname });
            if !self.eat_if(&TokenKind::Comma) {
                break;
            }
            // Allow trailing comma before `)` in parenthesized form.
            if self.check(&TokenKind::RParen) {
                break;
            }
        }
        Ok(names)
    }

    /// Assignment (plain, chained, augmented, annotated) or bare expression.
    fn expression_statement(&mut self) -> Result<Stmt> {
        let first = self.expression_list()?;
        let start = first.span;
        // Annotated assignment `x: T = v` / bare annotation `x: T`.
        if self.check(&TokenKind::Colon)
            && matches!(first.kind, ExprKind::Name(_) | ExprKind::Attribute { .. })
        {
            self.advance();
            let _annotation = self.expression()?;
            if self.eat_if(&TokenKind::Eq) {
                let value = self.expression_list()?;
                let span = start.to(value.span);
                return Ok(self.stmt(span, StmtKind::Assign { targets: vec![first], value }));
            }
            // A bare annotation declares the name without a value; model it
            // as an expression statement so the name use is still visible.
            return Ok(self.stmt(start, StmtKind::Expr { value: first }));
        }
        if let Some(op) = self.augmented_op() {
            self.advance();
            let value = self.expression_list()?;
            let span = start.to(value.span);
            return Ok(self.stmt(span, StmtKind::AugAssign { target: first, op, value }));
        }
        if self.check(&TokenKind::Eq) {
            let mut targets = vec![first];
            let mut value = None;
            while self.eat_if(&TokenKind::Eq) {
                let e = self.expression_list()?;
                if self.check(&TokenKind::Eq) {
                    targets.push(e);
                } else {
                    value = Some(e);
                }
            }
            let value = value.expect("loop sets value on exit");
            let span = start.to(value.span);
            return Ok(self.stmt(span, StmtKind::Assign { targets, value }));
        }
        Ok(self.stmt(start, StmtKind::Expr { value: first }))
    }

    fn augmented_op(&self) -> Option<BinOp> {
        Some(match self.peek_kind() {
            TokenKind::PlusEq => BinOp::Add,
            TokenKind::MinusEq => BinOp::Sub,
            TokenKind::StarEq => BinOp::Mul,
            TokenKind::SlashEq => BinOp::Div,
            TokenKind::SlashSlashEq => BinOp::FloorDiv,
            TokenKind::PercentEq => BinOp::Mod,
            TokenKind::AmpEq => BinOp::BitAnd,
            TokenKind::PipeEq => BinOp::BitOr,
            TokenKind::CaretEq => BinOp::BitXor,
            _ => return None,
        })
    }

    // --- compound statements --------------------------------------------------

    fn definition(&mut self) -> Result<Stmt> {
        let start = self.peek().span;
        let mut decorators = Vec::new();
        while self.check(&TokenKind::At) {
            self.advance();
            decorators.push(self.expression()?);
            self.eat(&TokenKind::Newline)?;
        }
        match self.peek_kind() {
            TokenKind::Def => self.function_def(decorators, start),
            TokenKind::Class => self.class_def(decorators, start),
            _ => Err(self.unexpected("expected `def` or `class` after decorators")),
        }
    }

    fn function_def(&mut self, decorators: Vec<Expr>, start: Span) -> Result<Stmt> {
        self.eat(&TokenKind::Def)?;
        let (name, _) = self.eat_name()?;
        self.eat(&TokenKind::LParen)?;
        let params = self.parameters(&TokenKind::RParen, true)?;
        self.eat(&TokenKind::RParen)?;
        if self.eat_if(&TokenKind::Arrow) {
            let _return_annotation = self.expression()?;
        }
        let body = self.suite()?;
        let span = start.to(body.last().map_or(start, |s| s.span));
        Ok(self.stmt(span, StmtKind::FunctionDef(FunctionDef { name, params, decorators, body })))
    }

    /// `allow_annotations` is false for lambdas, whose `:` terminates the
    /// parameter list instead of introducing an annotation.
    fn parameters(
        &mut self,
        terminator: &TokenKind,
        allow_annotations: bool,
    ) -> Result<Vec<Param>> {
        let mut params = Vec::new();
        while !self.check(terminator) && !self.check(&TokenKind::Colon) {
            let star = if self.eat_if(&TokenKind::StarStar) {
                ParamStar::Kwargs
            } else if self.eat_if(&TokenKind::Star) {
                // A bare `*` marks keyword-only params; skip the marker.
                if self.check(&TokenKind::Comma) {
                    self.advance();
                    continue;
                }
                ParamStar::Args
            } else {
                ParamStar::None
            };
            let (name, span) = self.eat_name()?;
            if allow_annotations && self.eat_if(&TokenKind::Colon) {
                let _annotation = self.expression()?;
            }
            let default = if self.eat_if(&TokenKind::Eq) { Some(self.expression()?) } else { None };
            params.push(Param { name, default, star, span });
            if !self.eat_if(&TokenKind::Comma) {
                break;
            }
        }
        Ok(params)
    }

    fn class_def(&mut self, decorators: Vec<Expr>, start: Span) -> Result<Stmt> {
        self.eat(&TokenKind::Class)?;
        let (name, _) = self.eat_name()?;
        let mut bases = Vec::new();
        let mut keywords = Vec::new();
        if self.eat_if(&TokenKind::LParen) {
            while !self.check(&TokenKind::RParen) {
                if matches!(self.peek_kind(), TokenKind::Name(_))
                    && *self.peek_ahead(1) == TokenKind::Eq
                {
                    let (kw, _) = self.eat_name()?;
                    self.eat(&TokenKind::Eq)?;
                    let value = self.expression()?;
                    keywords.push(Keyword { name: Some(kw), value });
                } else {
                    bases.push(self.expression()?);
                }
                if !self.eat_if(&TokenKind::Comma) {
                    break;
                }
            }
            self.eat(&TokenKind::RParen)?;
        }
        let body = self.suite()?;
        let span = start.to(body.last().map_or(start, |s| s.span));
        Ok(self
            .stmt(span, StmtKind::ClassDef(ClassDef { name, bases, keywords, decorators, body })))
    }

    fn if_statement(&mut self) -> Result<Stmt> {
        let start = self.peek().span;
        self.advance(); // `if` or `elif`
        let test = self.expression()?;
        let body = self.suite()?;
        let orelse = if self.check(&TokenKind::Elif) {
            vec![self.if_statement_from_elif()?]
        } else if self.eat_if(&TokenKind::Else) {
            self.suite()?
        } else {
            Vec::new()
        };
        let end = orelse.last().or(body.last()).map_or(start, |s| s.span);
        Ok(self.stmt(start.to(end), StmtKind::If { test, body, orelse }))
    }

    fn if_statement_from_elif(&mut self) -> Result<Stmt> {
        // `elif` behaves exactly like a nested `if`.
        self.if_statement()
    }

    fn for_statement(&mut self) -> Result<Stmt> {
        let start = self.peek().span;
        self.eat(&TokenKind::For)?;
        let target = self.target_list()?;
        self.eat(&TokenKind::In)?;
        let iter = self.expression_list()?;
        let body = self.suite()?;
        let orelse = if self.eat_if(&TokenKind::Else) { self.suite()? } else { Vec::new() };
        let end = orelse.last().or(body.last()).map_or(start, |s| s.span);
        Ok(self.stmt(start.to(end), StmtKind::For { target, iter, body, orelse }))
    }

    fn while_statement(&mut self) -> Result<Stmt> {
        let start = self.peek().span;
        self.eat(&TokenKind::While)?;
        let test = self.expression()?;
        let body = self.suite()?;
        let orelse = if self.eat_if(&TokenKind::Else) { self.suite()? } else { Vec::new() };
        let end = orelse.last().or(body.last()).map_or(start, |s| s.span);
        Ok(self.stmt(start.to(end), StmtKind::While { test, body, orelse }))
    }

    fn try_statement(&mut self) -> Result<Stmt> {
        let start = self.peek().span;
        self.eat(&TokenKind::Try)?;
        let body = self.suite()?;
        let mut handlers = Vec::new();
        while self.check(&TokenKind::Except) {
            let hstart = self.peek().span;
            self.advance();
            let (typ, name) = if self.check(&TokenKind::Colon) {
                (None, None)
            } else {
                let t = self.expression()?;
                let n = if self.eat_if(&TokenKind::As) { Some(self.eat_name()?.0) } else { None };
                (Some(t), n)
            };
            let hbody = self.suite()?;
            handlers.push(ExceptHandler { typ, name, body: hbody, span: hstart });
        }
        let orelse = if self.eat_if(&TokenKind::Else) { self.suite()? } else { Vec::new() };
        let finalbody = if self.eat_if(&TokenKind::Finally) { self.suite()? } else { Vec::new() };
        if handlers.is_empty() && finalbody.is_empty() {
            return Err(self.unexpected("expected `except` or `finally` after try block"));
        }
        Ok(self.stmt(start, StmtKind::Try { body, handlers, orelse, finalbody }))
    }

    fn with_statement(&mut self) -> Result<Stmt> {
        let start = self.peek().span;
        self.eat(&TokenKind::With)?;
        let mut items = Vec::new();
        loop {
            let context = self.expression()?;
            let target = if self.eat_if(&TokenKind::As) { Some(self.postfix()?) } else { None };
            items.push(WithItem { context, target });
            if !self.eat_if(&TokenKind::Comma) {
                break;
            }
        }
        let body = self.suite()?;
        Ok(self.stmt(start, StmtKind::With { items, body }))
    }

    /// `for` targets: `a`, `a, b`, `(a, b)`, `a, *rest` — comma builds a
    /// tuple.
    fn target_list(&mut self) -> Result<Expr> {
        let first = self.starred_or(Self::postfix)?;
        if !self.check(&TokenKind::Comma) {
            return Ok(first);
        }
        let start = first.span;
        let mut elems = vec![first];
        while self.eat_if(&TokenKind::Comma) {
            if self.check(&TokenKind::In) {
                break;
            }
            elems.push(self.starred_or(Self::postfix)?);
        }
        let span = start.to(elems.last().unwrap().span);
        Ok(self.expr(span, ExprKind::Tuple(elems)))
    }

    // --- expressions ------------------------------------------------------------

    /// `expression_list`: `a, b, c` builds a tuple (as in `return a, b`);
    /// an item may be starred (`a, *rest = xs`).
    fn expression_list(&mut self) -> Result<Expr> {
        let first = self.starred_or(Self::expression)?;
        if !self.check(&TokenKind::Comma) {
            return Ok(first);
        }
        let start = first.span;
        let mut elems = vec![first];
        while self.eat_if(&TokenKind::Comma) {
            if self.expression_cannot_start() {
                break; // trailing comma
            }
            elems.push(self.starred_or(Self::expression)?);
        }
        let span = start.to(elems.last().unwrap().span);
        Ok(self.expr(span, ExprKind::Tuple(elems)))
    }

    /// One list item: `*item` (a starred target or unpacking) or `item`.
    fn starred_or(&mut self, item: fn(&mut Self) -> Result<Expr>) -> Result<Expr> {
        if !self.check(&TokenKind::Star) {
            return item(self);
        }
        let start = self.advance().span;
        let inner = item(self)?;
        let span = start.to(inner.span);
        Ok(self.expr(span, ExprKind::Starred(Box::new(inner))))
    }

    fn expression_cannot_start(&self) -> bool {
        matches!(
            self.peek_kind(),
            TokenKind::Newline
                | TokenKind::Eof
                | TokenKind::Eq
                | TokenKind::RParen
                | TokenKind::RBracket
                | TokenKind::RBrace
                | TokenKind::Colon
                | TokenKind::Semi
        )
    }

    /// Top-level expression: ternary / lambda / or-chain.
    fn expression(&mut self) -> Result<Expr> {
        self.with_depth(Self::expression_impl)
    }

    fn expression_impl(&mut self) -> Result<Expr> {
        if self.check(&TokenKind::Lambda) {
            return self.lambda();
        }
        if self.check(&TokenKind::Yield) {
            let start = self.advance().span;
            let value = if self.expression_cannot_start() || self.check(&TokenKind::From) {
                // `yield from` — treat the whole thing as a yield of the inner
                // expression; the distinction is irrelevant to the analysis.
                if self.eat_if(&TokenKind::From) {
                    Some(Box::new(self.expression()?))
                } else {
                    None
                }
            } else {
                Some(Box::new(self.expression()?))
            };
            let span = value.as_ref().map_or(start, |v| start.to(v.span));
            return Ok(self.expr(span, ExprKind::Yield(value)));
        }
        let cond = self.or_expr()?;
        if self.check(&TokenKind::If) {
            // `body if test else orelse`
            self.advance();
            let test = self.or_expr()?;
            self.eat(&TokenKind::Else)?;
            let orelse = self.expression()?;
            let span = cond.span.to(orelse.span);
            return Ok(self.expr(
                span,
                ExprKind::IfExp {
                    test: Box::new(test),
                    body: Box::new(cond),
                    orelse: Box::new(orelse),
                },
            ));
        }
        Ok(cond)
    }

    fn lambda(&mut self) -> Result<Expr> {
        let start = self.eat(&TokenKind::Lambda)?.span;
        let params = self.parameters(&TokenKind::Colon, false)?;
        self.eat(&TokenKind::Colon)?;
        let body = self.expression()?;
        let span = start.to(body.span);
        Ok(self.expr(span, ExprKind::Lambda { params, body: Box::new(body) }))
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let first = self.and_expr()?;
        if !self.check(&TokenKind::Or) {
            return Ok(first);
        }
        let mut values = vec![first];
        while self.eat_if(&TokenKind::Or) {
            values.push(self.and_expr()?);
        }
        let span = values[0].span.to(values.last().unwrap().span);
        Ok(self.expr(span, ExprKind::BoolOp { op: BoolOpKind::Or, values }))
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let first = self.not_expr()?;
        if !self.check(&TokenKind::And) {
            return Ok(first);
        }
        let mut values = vec![first];
        while self.eat_if(&TokenKind::And) {
            values.push(self.not_expr()?);
        }
        let span = values[0].span.to(values.last().unwrap().span);
        Ok(self.expr(span, ExprKind::BoolOp { op: BoolOpKind::And, values }))
    }

    fn not_expr(&mut self) -> Result<Expr> {
        self.with_depth(Self::not_expr_impl)
    }

    fn not_expr_impl(&mut self) -> Result<Expr> {
        if self.check(&TokenKind::Not) {
            let start = self.advance().span;
            let operand = self.not_expr()?;
            let span = start.to(operand.span);
            return Ok(
                self.expr(span, ExprKind::UnaryOp { op: UnaryOp::Not, operand: Box::new(operand) })
            );
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.binary(1)?;
        let mut ops = Vec::new();
        let mut comparators = Vec::new();
        loop {
            let op = match self.peek_kind() {
                TokenKind::EqEq => CmpOp::Eq,
                TokenKind::NotEq => CmpOp::NotEq,
                TokenKind::Lt => CmpOp::Lt,
                TokenKind::LtEq => CmpOp::LtEq,
                TokenKind::Gt => CmpOp::Gt,
                TokenKind::GtEq => CmpOp::GtEq,
                TokenKind::In => CmpOp::In,
                TokenKind::Is => {
                    if *self.peek_ahead(1) == TokenKind::Not {
                        self.advance();
                        CmpOp::IsNot
                    } else {
                        CmpOp::Is
                    }
                }
                TokenKind::Not if *self.peek_ahead(1) == TokenKind::In => {
                    self.advance();
                    CmpOp::NotIn
                }
                _ => break,
            };
            self.advance();
            ops.push(op);
            comparators.push(self.binary(1)?);
        }
        if ops.is_empty() {
            return Ok(left);
        }
        let span = left.span.to(comparators.last().unwrap().span);
        Ok(self.expr(span, ExprKind::Compare { left: Box::new(left), ops, comparators }))
    }

    /// The binary operators from `|` down to `*`, by precedence climbing.
    /// `min` is the loosest level this call may consume; the right operand
    /// of a level-`p` operator takes only levels tighter than `p`, so every
    /// level associates left and nodes are created in post-order. The
    /// operators of one level this loop consumes in a row are that level's
    /// chain, and each chain counts toward [`MAX_CHAIN`] on its own.
    fn binary(&mut self, min: u8) -> Result<Expr> {
        let mut left = self.factor()?;
        let (mut run_level, mut links) = (0, 0usize);
        while let Some((level, op)) = binary_op(self.peek_kind()).filter(|&(l, _)| l >= min) {
            if level != run_level {
                (run_level, links) = (level, 0);
            }
            links += 1;
            if links > MAX_CHAIN {
                return Err(ParseError::chain_limit(MAX_CHAIN, self.peek().span));
            }
            self.advance();
            let right = self.binary(level + 1)?;
            let span = left.span.to(right.span);
            left = self
                .expr(span, ExprKind::BinOp { left: Box::new(left), op, right: Box::new(right) });
        }
        Ok(left)
    }

    fn factor(&mut self) -> Result<Expr> {
        self.with_depth(Self::factor_impl)
    }

    fn factor_impl(&mut self) -> Result<Expr> {
        let op = match self.peek_kind() {
            TokenKind::Minus => Some(UnaryOp::Neg),
            TokenKind::Plus => Some(UnaryOp::Pos),
            TokenKind::Tilde => Some(UnaryOp::Invert),
            _ => None,
        };
        if let Some(op) = op {
            let start = self.advance().span;
            let operand = self.factor()?;
            let span = start.to(operand.span);
            return Ok(self.expr(span, ExprKind::UnaryOp { op, operand: Box::new(operand) }));
        }
        self.power()
    }

    fn power(&mut self) -> Result<Expr> {
        let base = self.postfix()?;
        if self.eat_if(&TokenKind::StarStar) {
            let exp = self.factor()?; // right-associative
            let span = base.span.to(exp.span);
            return Ok(self.expr(
                span,
                ExprKind::BinOp { left: Box::new(base), op: BinOp::Pow, right: Box::new(exp) },
            ));
        }
        Ok(base)
    }

    /// Postfix: calls, attribute access, subscripts.
    fn postfix(&mut self) -> Result<Expr> {
        let mut e = self.atom()?;
        let mut links = 0usize;
        loop {
            match self.peek_kind() {
                TokenKind::Dot | TokenKind::LParen | TokenKind::LBracket if links >= MAX_CHAIN => {
                    return Err(ParseError::chain_limit(MAX_CHAIN, self.peek().span));
                }
                TokenKind::Dot => {
                    links += 1;
                    self.advance();
                    let (attr, aspan) = self.eat_name()?;
                    let span = e.span.to(aspan);
                    e = self.expr(span, ExprKind::Attribute { value: Box::new(e), attr });
                }
                TokenKind::LParen => {
                    links += 1;
                    self.advance();
                    let (args, keywords) = self.call_arguments()?;
                    let rp = self.eat(&TokenKind::RParen)?;
                    let span = e.span.to(rp.span);
                    e = self.expr(span, ExprKind::Call { func: Box::new(e), args, keywords });
                }
                TokenKind::LBracket => {
                    links += 1;
                    self.advance();
                    let index = self.subscript_index()?;
                    let rb = self.eat(&TokenKind::RBracket)?;
                    let span = e.span.to(rb.span);
                    e = self.expr(
                        span,
                        ExprKind::Subscript { value: Box::new(e), index: Box::new(index) },
                    );
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn subscript_index(&mut self) -> Result<Expr> {
        let start = self.peek().span;
        // Slice with missing lower bound, e.g. `a[:5]`.
        let lower = if self.check(&TokenKind::Colon) { None } else { Some(self.expression()?) };
        if self.eat_if(&TokenKind::Colon) {
            let upper = if self.check(&TokenKind::RBracket) || self.check(&TokenKind::Colon) {
                None
            } else {
                Some(self.expression()?)
            };
            let step = if self.eat_if(&TokenKind::Colon) {
                if self.check(&TokenKind::RBracket) {
                    None
                } else {
                    Some(self.expression()?)
                }
            } else {
                None
            };
            let span = start.to(self.peek().span);
            return Ok(self.expr(
                span,
                ExprKind::Slice {
                    lower: lower.map(Box::new),
                    upper: upper.map(Box::new),
                    step: step.map(Box::new),
                },
            ));
        }
        let mut index = lower.expect("non-slice subscript has an index");
        // Tuple index `a[x, y]`.
        if self.check(&TokenKind::Comma) {
            let mut elems = vec![index];
            while self.eat_if(&TokenKind::Comma) {
                if self.check(&TokenKind::RBracket) {
                    break;
                }
                elems.push(self.expression()?);
            }
            let span = elems[0].span.to(elems.last().unwrap().span);
            index = self.expr(span, ExprKind::Tuple(elems));
        }
        Ok(index)
    }

    fn call_arguments(&mut self) -> Result<(Vec<Expr>, Vec<Keyword>)> {
        let mut args = Vec::new();
        let mut keywords = Vec::new();
        while !self.check(&TokenKind::RParen) {
            if self.eat_if(&TokenKind::StarStar) {
                let value = self.expression()?;
                keywords.push(Keyword { name: None, value });
            } else if self.eat_if(&TokenKind::Star) {
                let inner = self.expression()?;
                let span = inner.span;
                let starred = self.expr(span, ExprKind::Starred(Box::new(inner)));
                args.push(starred);
            } else if matches!(self.peek_kind(), TokenKind::Name(_))
                && *self.peek_ahead(1) == TokenKind::Eq
            {
                let (name, _) = self.eat_name()?;
                self.eat(&TokenKind::Eq)?;
                let value = self.expression()?;
                keywords.push(Keyword { name: Some(name), value });
            } else {
                let e = self.expression()?;
                // Generator argument: `f(x for x in y)`.
                if self.check(&TokenKind::For) {
                    let gens = self.comprehension_clauses()?;
                    let span = e.span;
                    let comp = self.expr(
                        span,
                        ExprKind::Comprehension {
                            kind: ComprehensionKind::Generator,
                            element: Box::new(e),
                            value: None,
                            generators: gens,
                        },
                    );
                    args.push(comp);
                } else {
                    args.push(e);
                }
            }
            if !self.eat_if(&TokenKind::Comma) {
                break;
            }
        }
        Ok((args, keywords))
    }

    fn comprehension_clauses(&mut self) -> Result<Vec<Comprehension>> {
        let mut gens = Vec::new();
        while self.check(&TokenKind::For) {
            self.advance();
            let target = self.target_list()?;
            self.eat(&TokenKind::In)?;
            let iter = self.or_expr()?;
            let mut ifs = Vec::new();
            while self.eat_if(&TokenKind::If) {
                ifs.push(self.or_expr()?);
            }
            gens.push(Comprehension { target, iter, ifs });
        }
        Ok(gens)
    }

    fn atom(&mut self) -> Result<Expr> {
        match self.peek_kind() {
            TokenKind::LParen => return self.paren_atom(),
            TokenKind::LBracket => return self.list_atom(),
            TokenKind::LBrace => return self.brace_atom(),
            TokenKind::Lambda => return self.lambda(),
            TokenKind::Name(_)
            | TokenKind::Int(_)
            | TokenKind::Float(_)
            | TokenKind::Str(_)
            | TokenKind::FStr(_)
            | TokenKind::True
            | TokenKind::False
            | TokenKind::None => {}
            _ => return Err(self.unexpected("expected expression")),
        }
        let Token { kind, span } = self.advance();
        let kind = match kind {
            TokenKind::Name(n) => ExprKind::Name(n),
            TokenKind::Int(v) => ExprKind::Constant(Constant::Int(v)),
            TokenKind::Float(v) => ExprKind::Constant(Constant::Float(v)),
            TokenKind::Str(mut full) => {
                // Adjacent string literals concatenate.
                let mut span = span;
                while matches!(self.peek_kind(), TokenKind::Str(_)) {
                    let next = self.advance();
                    span = span.to(next.span);
                    if let TokenKind::Str(s) = next.kind {
                        full.push_str(&s);
                    }
                }
                return Ok(self.expr(span, ExprKind::Constant(Constant::Str(full))));
            }
            TokenKind::FStr(raw) => {
                let parts = self.parse_fstring_holes(&raw, span)?;
                ExprKind::FString { raw, parts }
            }
            TokenKind::True => ExprKind::Constant(Constant::Bool(true)),
            TokenKind::False => ExprKind::Constant(Constant::Bool(false)),
            TokenKind::None => ExprKind::Constant(Constant::None),
            _ => unreachable!("peeked an atom"),
        };
        Ok(self.expr(span, kind))
    }

    fn paren_atom(&mut self) -> Result<Expr> {
        let start = self.eat(&TokenKind::LParen)?.span;
        if self.check(&TokenKind::RParen) {
            let end = self.advance().span;
            return Ok(self.expr(start.to(end), ExprKind::Tuple(Vec::new())));
        }
        let first = self.expression()?;
        if self.check(&TokenKind::For) {
            let gens = self.comprehension_clauses()?;
            let end = self.eat(&TokenKind::RParen)?.span;
            return Ok(self.expr(
                start.to(end),
                ExprKind::Comprehension {
                    kind: ComprehensionKind::Generator,
                    element: Box::new(first),
                    value: None,
                    generators: gens,
                },
            ));
        }
        if self.check(&TokenKind::Comma) {
            let mut elems = vec![first];
            while self.eat_if(&TokenKind::Comma) {
                if self.check(&TokenKind::RParen) {
                    break;
                }
                elems.push(self.expression()?);
            }
            let end = self.eat(&TokenKind::RParen)?.span;
            return Ok(self.expr(start.to(end), ExprKind::Tuple(elems)));
        }
        self.eat(&TokenKind::RParen)?;
        // Parenthesized expression: keep the inner node (spans stay inner).
        Ok(first)
    }

    fn list_atom(&mut self) -> Result<Expr> {
        let start = self.eat(&TokenKind::LBracket)?.span;
        if self.check(&TokenKind::RBracket) {
            let end = self.advance().span;
            return Ok(self.expr(start.to(end), ExprKind::List(Vec::new())));
        }
        let first = self.expression()?;
        if self.check(&TokenKind::For) {
            let gens = self.comprehension_clauses()?;
            let end = self.eat(&TokenKind::RBracket)?.span;
            return Ok(self.expr(
                start.to(end),
                ExprKind::Comprehension {
                    kind: ComprehensionKind::List,
                    element: Box::new(first),
                    value: None,
                    generators: gens,
                },
            ));
        }
        let mut elems = vec![first];
        while self.eat_if(&TokenKind::Comma) {
            if self.check(&TokenKind::RBracket) {
                break;
            }
            elems.push(self.expression()?);
        }
        let end = self.eat(&TokenKind::RBracket)?.span;
        Ok(self.expr(start.to(end), ExprKind::List(elems)))
    }

    fn brace_atom(&mut self) -> Result<Expr> {
        let start = self.eat(&TokenKind::LBrace)?.span;
        if self.check(&TokenKind::RBrace) {
            let end = self.advance().span;
            return Ok(self.expr(start.to(end), ExprKind::Dict { keys: vec![], values: vec![] }));
        }
        if self.eat_if(&TokenKind::StarStar) {
            // `{**a, …}` — model the splat value as both key and value slot.
            let splat = self.expression()?;
            let mut keys = vec![];
            let mut values = vec![splat];
            while self.eat_if(&TokenKind::Comma) {
                if self.check(&TokenKind::RBrace) {
                    break;
                }
                if self.eat_if(&TokenKind::StarStar) {
                    values.push(self.expression()?);
                } else {
                    let k = self.expression()?;
                    self.eat(&TokenKind::Colon)?;
                    keys.push(k);
                    values.push(self.expression()?);
                }
            }
            let end = self.eat(&TokenKind::RBrace)?.span;
            return Ok(self.expr(start.to(end), ExprKind::Dict { keys, values }));
        }
        let first = self.expression()?;
        if self.eat_if(&TokenKind::Colon) {
            let fval = self.expression()?;
            if self.check(&TokenKind::For) {
                let gens = self.comprehension_clauses()?;
                let end = self.eat(&TokenKind::RBrace)?.span;
                return Ok(self.expr(
                    start.to(end),
                    ExprKind::Comprehension {
                        kind: ComprehensionKind::Dict,
                        element: Box::new(first),
                        value: Some(Box::new(fval)),
                        generators: gens,
                    },
                ));
            }
            let mut keys = vec![first];
            let mut values = vec![fval];
            while self.eat_if(&TokenKind::Comma) {
                if self.check(&TokenKind::RBrace) {
                    break;
                }
                if self.eat_if(&TokenKind::StarStar) {
                    values.push(self.expression()?);
                    continue;
                }
                let k = self.expression()?;
                self.eat(&TokenKind::Colon)?;
                let v = self.expression()?;
                keys.push(k);
                values.push(v);
            }
            let end = self.eat(&TokenKind::RBrace)?.span;
            return Ok(self.expr(start.to(end), ExprKind::Dict { keys, values }));
        }
        if self.check(&TokenKind::For) {
            let gens = self.comprehension_clauses()?;
            let end = self.eat(&TokenKind::RBrace)?.span;
            return Ok(self.expr(
                start.to(end),
                ExprKind::Comprehension {
                    kind: ComprehensionKind::Set,
                    element: Box::new(first),
                    value: None,
                    generators: gens,
                },
            ));
        }
        let mut elems = vec![first];
        while self.eat_if(&TokenKind::Comma) {
            if self.check(&TokenKind::RBrace) {
                break;
            }
            elems.push(self.expression()?);
        }
        let end = self.eat(&TokenKind::RBrace)?.span;
        Ok(self.expr(start.to(end), ExprKind::Set(elems)))
    }

    /// Parses `{expr}` holes inside an f-string so name uses remain visible
    /// to data-flow analysis. Format specs after `:` and conversions after
    /// `!` are ignored.
    fn parse_fstring_holes(&mut self, raw: &str, span: Span) -> Result<Vec<Expr>> {
        let mut parts = Vec::new();
        let bytes = raw.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'{' if i + 1 < bytes.len() && bytes[i + 1] == b'{' => i += 2,
                b'}' if i + 1 < bytes.len() && bytes[i + 1] == b'}' => i += 2,
                b'{' => {
                    let start = i + 1;
                    let mut depth = 1;
                    let mut j = start;
                    let mut expr_end = None;
                    while j < bytes.len() {
                        match bytes[j] {
                            b'{' => depth += 1,
                            b'}' => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            b':' | b'!' if depth == 1 && expr_end.is_none() => {
                                expr_end = Some(j);
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    if j >= bytes.len() {
                        return Err(ParseError::new("unbalanced `{` in f-string", span));
                    }
                    let end = expr_end.unwrap_or(j);
                    let inner = raw[start..end].trim();
                    if !inner.is_empty() && !inner.ends_with('=') {
                        // Sub-parse the hole; ids continue from our counter.
                        let tokens = lex(inner)
                            .map_err(|e| ParseError::new(format!("in f-string hole: {e}"), span))?;
                        let mut sub = Parser::new(tokens);
                        sub.next_id = self.next_id;
                        // Nested f-strings share the depth budget so hole
                        // sub-parses cannot exceed MAX_DEPTH either.
                        sub.depth = self.depth;
                        let e = sub
                            .expression()
                            .map_err(|e| ParseError::new(format!("in f-string hole: {e}"), span))?;
                        self.next_id = sub.next_id;
                        parts.push(e);
                    }
                    i = j + 1;
                }
                _ => i += 1,
            }
        }
        Ok(parts)
    }
}

/// A binary operator token's precedence level (1 = `|`, the loosest, to
/// 6 = `*`, `/`, `//`, `%`) and node operator. `**` is not here: it is
/// right-associative and binds tighter than unary minus ([`Parser::power`]).
fn binary_op(kind: &TokenKind) -> Option<(u8, BinOp)> {
    Some(match kind {
        TokenKind::Pipe => (1, BinOp::BitOr),
        TokenKind::Caret => (2, BinOp::BitXor),
        TokenKind::Amp => (3, BinOp::BitAnd),
        TokenKind::Shl => (4, BinOp::Shl),
        TokenKind::Shr => (4, BinOp::Shr),
        TokenKind::Plus => (5, BinOp::Add),
        TokenKind::Minus => (5, BinOp::Sub),
        TokenKind::Star => (6, BinOp::Mul),
        TokenKind::Slash => (6, BinOp::Div),
        TokenKind::SlashSlash => (6, BinOp::FloorDiv),
        TokenKind::Percent => (6, BinOp::Mod),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(src: &str) -> Stmt {
        let m = parse_module(src).unwrap();
        assert_eq!(m.body.len(), 1, "expected one statement in {src:?}");
        m.body.into_iter().next().unwrap()
    }

    #[test]
    fn parses_assignment() {
        let s = parse_one("x = 1\n");
        match s.kind {
            StmtKind::Assign { targets, value } => {
                assert_eq!(targets.len(), 1);
                assert_eq!(targets[0].as_name(), Some("x"));
                assert_eq!(value.kind, ExprKind::Constant(Constant::Int(1)));
            }
            other => panic!("expected Assign, got {other:?}"),
        }
    }

    #[test]
    fn chained_assignment_keeps_all_targets() {
        let s = parse_one("a = b = 3\n");
        match s.kind {
            StmtKind::Assign { targets, .. } => assert_eq!(targets.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn augmented_assignment() {
        let s = parse_one("total += price\n");
        assert!(matches!(s.kind, StmtKind::AugAssign { op: BinOp::Add, .. }));
    }

    #[test]
    fn annotated_assignment_desugars() {
        let s = parse_one("count: int = 0\n");
        assert!(matches!(s.kind, StmtKind::Assign { .. }));
    }

    #[test]
    fn method_call_chain() {
        let s = parse_one("user = User.objects.get(email=email)\n");
        let StmtKind::Assign { value, .. } = s.kind else { panic!() };
        let ExprKind::Call { func, args, keywords } = value.kind else { panic!() };
        assert!(args.is_empty());
        assert_eq!(keywords.len(), 1);
        assert_eq!(keywords[0].name.as_deref(), Some("email"));
        let (root, chain) = func.dotted_chain().unwrap();
        assert_eq!(root, "User");
        assert_eq!(chain, vec!["objects", "get"]);
    }

    #[test]
    fn if_elif_else_desugars() {
        let m = parse_module("if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3\n").unwrap();
        let StmtKind::If { orelse, .. } = &m.body[0].kind else { panic!() };
        assert_eq!(orelse.len(), 1);
        let StmtKind::If { orelse: inner_else, .. } = &orelse[0].kind else { panic!() };
        assert_eq!(inner_else.len(), 1);
    }

    #[test]
    fn comparison_chain() {
        let e = parse_expr("0 <= x < 10").unwrap();
        let ExprKind::Compare { ops, comparators, .. } = e.kind else { panic!() };
        assert_eq!(ops, vec![CmpOp::LtEq, CmpOp::Lt]);
        assert_eq!(comparators.len(), 2);
    }

    #[test]
    fn is_not_and_not_in() {
        let e = parse_expr("a is not None").unwrap();
        let ExprKind::Compare { ops, .. } = e.kind else { panic!() };
        assert_eq!(ops, vec![CmpOp::IsNot]);
        let e = parse_expr("a not in b").unwrap();
        let ExprKind::Compare { ops, .. } = e.kind else { panic!() };
        assert_eq!(ops, vec![CmpOp::NotIn]);
    }

    #[test]
    fn precedence_and_over_or_and_not() {
        let e = parse_expr("a or b and not c").unwrap();
        let ExprKind::BoolOp { op: BoolOpKind::Or, values } = e.kind else { panic!() };
        assert_eq!(values.len(), 2);
        let ExprKind::BoolOp { op: BoolOpKind::And, values: inner } = &values[1].kind else {
            panic!()
        };
        assert!(matches!(inner[1].kind, ExprKind::UnaryOp { op: UnaryOp::Not, .. }));
    }

    #[test]
    fn arith_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        let ExprKind::BinOp { op: BinOp::Add, right, .. } = e.kind else { panic!() };
        assert!(matches!(right.kind, ExprKind::BinOp { op: BinOp::Mul, .. }));
    }

    #[test]
    fn power_is_right_associative() {
        let e = parse_expr("2 ** 3 ** 2").unwrap();
        let ExprKind::BinOp { op: BinOp::Pow, right, .. } = e.kind else { panic!() };
        assert!(matches!(right.kind, ExprKind::BinOp { op: BinOp::Pow, .. }));
    }

    #[test]
    fn function_def_with_defaults_and_stars() {
        let s = parse_one("def f(a, b=2, *args, **kwargs):\n    pass\n");
        let StmtKind::FunctionDef(f) = s.kind else { panic!() };
        assert_eq!(f.name, "f");
        assert_eq!(f.params.len(), 4);
        assert!(f.params[1].default.is_some());
        assert_eq!(f.params[2].star, ParamStar::Args);
        assert_eq!(f.params[3].star, ParamStar::Kwargs);
    }

    #[test]
    fn decorated_class_with_bases_and_keywords() {
        let s = parse_one("@register\nclass Order(models.Model, metaclass=Meta):\n    pass\n");
        let StmtKind::ClassDef(c) = s.kind else { panic!() };
        assert_eq!(c.name, "Order");
        assert_eq!(c.decorators.len(), 1);
        assert_eq!(c.bases.len(), 1);
        assert_eq!(c.keywords.len(), 1);
    }

    #[test]
    fn try_except_else_finally() {
        let src = "try:\n    x\nexcept ValueError as e:\n    y\nexcept Exception:\n    z\nelse:\n    a\nfinally:\n    b\n";
        let s = parse_one(src);
        let StmtKind::Try { handlers, orelse, finalbody, .. } = s.kind else { panic!() };
        assert_eq!(handlers.len(), 2);
        assert_eq!(handlers[0].name.as_deref(), Some("e"));
        assert!(handlers[1].name.is_none());
        assert_eq!(orelse.len(), 1);
        assert_eq!(finalbody.len(), 1);
    }

    #[test]
    fn bare_try_without_handlers_is_error() {
        assert!(parse_module("try:\n    x\n").is_err());
    }

    #[test]
    fn for_with_tuple_target() {
        let s = parse_one("for k, v in items:\n    pass\n");
        let StmtKind::For { target, .. } = s.kind else { panic!() };
        assert!(matches!(target.kind, ExprKind::Tuple(ref t) if t.len() == 2));
    }

    #[test]
    fn while_else() {
        let s = parse_one("while x:\n    a\nelse:\n    b\n");
        let StmtKind::While { orelse, .. } = s.kind else { panic!() };
        assert_eq!(orelse.len(), 1);
    }

    #[test]
    fn with_as_target() {
        let s = parse_one("with transaction.atomic() as tx:\n    pass\n");
        let StmtKind::With { items, .. } = s.kind else { panic!() };
        assert_eq!(items.len(), 1);
        assert!(items[0].target.is_some());
    }

    #[test]
    fn imports() {
        let m = parse_module("import os\nfrom django.db import models, connection\nfrom . import utils\nfrom .models import *\n")
            .unwrap();
        assert_eq!(m.body.len(), 4);
        let StmtKind::ImportFrom { module, names } = &m.body[1].kind else { panic!() };
        assert_eq!(module, "django.db");
        assert_eq!(names.len(), 2);
        let StmtKind::ImportFrom { module, .. } = &m.body[2].kind else { panic!() };
        assert_eq!(module, ".");
        let StmtKind::ImportFrom { names, .. } = &m.body[3].kind else { panic!() };
        assert_eq!(names[0].name, "*");
    }

    #[test]
    fn subscripts_and_slices() {
        let e = parse_expr("a[0]").unwrap();
        assert!(matches!(e.kind, ExprKind::Subscript { .. }));
        let e = parse_expr("a[1:2]").unwrap();
        let ExprKind::Subscript { index, .. } = e.kind else { panic!() };
        assert!(matches!(index.kind, ExprKind::Slice { .. }));
        let e = parse_expr("a[:n]").unwrap();
        let ExprKind::Subscript { index, .. } = e.kind else { panic!() };
        let ExprKind::Slice { lower, upper, .. } = index.kind else { panic!() };
        assert!(lower.is_none() && upper.is_some());
        let e = parse_expr("request.GET['order_number']").unwrap();
        assert!(matches!(e.kind, ExprKind::Subscript { .. }));
    }

    #[test]
    fn collections() {
        assert!(
            matches!(parse_expr("[1, 2, 3]").unwrap().kind, ExprKind::List(ref v) if v.len() == 3)
        );
        assert!(
            matches!(parse_expr("(1, 2)").unwrap().kind, ExprKind::Tuple(ref v) if v.len() == 2)
        );
        assert!(matches!(parse_expr("()").unwrap().kind, ExprKind::Tuple(ref v) if v.is_empty()));
        assert!(
            matches!(parse_expr("{}").unwrap().kind, ExprKind::Dict { ref keys, .. } if keys.is_empty())
        );
        assert!(
            matches!(parse_expr("{1: 'a'}").unwrap().kind, ExprKind::Dict { ref keys, .. } if keys.len() == 1)
        );
        assert!(matches!(parse_expr("{1, 2}").unwrap().kind, ExprKind::Set(ref v) if v.len() == 2));
        assert!(matches!(parse_expr("[1,]").unwrap().kind, ExprKind::List(ref v) if v.len() == 1));
    }

    #[test]
    fn comprehensions() {
        let e = parse_expr("[x.id for x in rows if x.ok]").unwrap();
        let ExprKind::Comprehension { kind, generators, .. } = e.kind else { panic!() };
        assert_eq!(kind, ComprehensionKind::List);
        assert_eq!(generators.len(), 1);
        assert_eq!(generators[0].ifs.len(), 1);
        assert!(matches!(
            parse_expr("{x: y for x, y in items}").unwrap().kind,
            ExprKind::Comprehension { kind: ComprehensionKind::Dict, .. }
        ));
        assert!(matches!(
            parse_expr("{x for x in items}").unwrap().kind,
            ExprKind::Comprehension { kind: ComprehensionKind::Set, .. }
        ));
        assert!(matches!(
            parse_expr("(x for x in items)").unwrap().kind,
            ExprKind::Comprehension { kind: ComprehensionKind::Generator, .. }
        ));
    }

    #[test]
    fn generator_call_argument() {
        let e = parse_expr("any(line.total is None for line in lines)").unwrap();
        let ExprKind::Call { args, .. } = e.kind else { panic!() };
        assert!(matches!(args[0].kind, ExprKind::Comprehension { .. }));
    }

    #[test]
    fn ternary_and_lambda() {
        let e = parse_expr("a if cond else b").unwrap();
        assert!(matches!(e.kind, ExprKind::IfExp { .. }));
        let e = parse_expr("lambda x, y=1: x + y").unwrap();
        let ExprKind::Lambda { params, .. } = e.kind else { panic!() };
        assert_eq!(params.len(), 2);
    }

    #[test]
    fn fstring_holes_are_parsed() {
        let e = parse_expr("f'order {order.id} for {user.email!r:>10}'").unwrap();
        let ExprKind::FString { parts, .. } = e.kind else { panic!() };
        assert_eq!(parts.len(), 2);
        assert!(parts[0].dotted_chain().is_some());
    }

    #[test]
    fn fstring_escaped_braces() {
        let e = parse_expr("f'{{literal}} {x}'").unwrap();
        let ExprKind::FString { parts, .. } = e.kind else { panic!() };
        assert_eq!(parts.len(), 1);
    }

    #[test]
    fn adjacent_string_concat() {
        let e = parse_expr("'a' 'b' 'c'").unwrap();
        assert_eq!(e.as_str(), Some("abc"));
    }

    #[test]
    fn return_tuple() {
        let m = parse_module("def f():\n    return a, b\n").unwrap();
        let StmtKind::FunctionDef(f) = &m.body[0].kind else { panic!() };
        let StmtKind::Return { value: Some(v) } = &f.body[0].kind else { panic!() };
        assert!(matches!(v.kind, ExprKind::Tuple(_)));
    }

    #[test]
    fn raise_from() {
        let s = parse_one("raise ValueError('bad') from exc\n");
        let StmtKind::Raise { exc, cause } = s.kind else { panic!() };
        assert!(exc.is_some() && cause.is_some());
    }

    #[test]
    fn inline_suite() {
        let s = parse_one("if a: b = 1; c = 2\n");
        let StmtKind::If { body, .. } = s.kind else { panic!() };
        assert_eq!(body.len(), 2);
    }

    #[test]
    fn node_ids_are_dense_and_unique() {
        let m =
            parse_module("def f(a):\n    if a:\n        return a.b\n    return None\n").unwrap();
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        fn walk_stmt(s: &Stmt, seen: &mut HashSet<u32>) {
            assert!(seen.insert(s.id.0), "duplicate stmt id {}", s.id);
            match &s.kind {
                StmtKind::FunctionDef(f) => {
                    for st in &f.body {
                        walk_stmt(st, seen);
                    }
                }
                StmtKind::If { test, body, orelse } => {
                    walk_expr(test, seen);
                    for st in body.iter().chain(orelse) {
                        walk_stmt(st, seen);
                    }
                }
                StmtKind::Return { value: Some(v) } => {
                    walk_expr(v, seen);
                }
                _ => {}
            }
        }
        fn walk_expr(e: &Expr, seen: &mut HashSet<u32>) {
            assert!(seen.insert(e.id.0), "duplicate expr id {}", e.id);
            if let ExprKind::Attribute { value, .. } = &e.kind {
                walk_expr(value, seen);
            }
        }
        for s in &m.body {
            walk_stmt(s, &mut seen);
        }
        assert!(seen.iter().all(|id| *id < m.node_count));
    }

    #[test]
    fn error_messages_carry_location() {
        let err = parse_module("if a\n    pass\n").unwrap_err();
        assert!(err.message.contains("expected"), "{}", err.message);
        assert_eq!(err.span.start.line, 1);
    }

    #[test]
    fn starred_assignment_and_for_targets() {
        let m = parse_module("a, *rest = xs\n*init, last = xs\nfor k, *vs in rows:\n    pass\n")
            .unwrap();
        let names = |t: &Expr| -> Vec<String> {
            let ExprKind::Tuple(elems) = &t.kind else { panic!("{t:?}") };
            elems
                .iter()
                .map(|e| match &e.kind {
                    ExprKind::Name(n) => n.clone(),
                    ExprKind::Starred(inner) => match &inner.kind {
                        ExprKind::Name(n) => format!("*{n}"),
                        other => panic!("{other:?}"),
                    },
                    other => panic!("{other:?}"),
                })
                .collect()
        };
        let StmtKind::Assign { targets, .. } = &m.body[0].kind else { panic!() };
        assert_eq!(names(&targets[0]), ["a", "*rest"]);
        let StmtKind::Assign { targets, .. } = &m.body[1].kind else { panic!() };
        assert_eq!(names(&targets[0]), ["*init", "last"]);
        let StmtKind::For { target, .. } = &m.body[2].kind else { panic!() };
        assert_eq!(names(target), ["k", "*vs"]);
        assert_eq!(m.body[0].span.start.col, m.body[1].span.start.col);
    }

    #[test]
    fn starred_call_args() {
        let e = parse_expr("f(*args, **kwargs)").unwrap();
        let ExprKind::Call { args, keywords, .. } = e.kind else { panic!() };
        assert!(matches!(args[0].kind, ExprKind::Starred(_)));
        assert_eq!(keywords.len(), 1);
        assert!(keywords[0].name.is_none());
    }

    #[test]
    fn dict_splat() {
        let e = parse_expr("{**base, 'k': v}").unwrap();
        let ExprKind::Dict { keys, values } = e.kind else { panic!() };
        assert_eq!(keys.len(), 1);
        assert_eq!(values.len(), 2);
    }

    #[test]
    fn global_and_del_and_assert() {
        let m = parse_module("global a, b\ndel x\nassert y, 'msg'\n").unwrap();
        assert!(matches!(&m.body[0].kind, StmtKind::Global { names } if names.len() == 2));
        assert!(matches!(&m.body[1].kind, StmtKind::Delete { targets } if targets.len() == 1));
        assert!(matches!(&m.body[2].kind, StmtKind::Assert { msg: Some(_), .. }));
    }

    #[test]
    fn yield_forms() {
        let m = parse_module("def g():\n    yield 1\n    yield from other()\n    yield\n").unwrap();
        let StmtKind::FunctionDef(f) = &m.body[0].kind else { panic!() };
        assert_eq!(f.body.len(), 3);
    }

    #[test]
    fn django_model_realistic() {
        let src = r#"
from django.db import models


class OrderLine(models.Model):
    order = models.ForeignKey('Order', on_delete=models.CASCADE, related_name='lines')
    product = models.ForeignKey('catalogue.Product', null=True, on_delete=models.SET_NULL)
    quantity = models.IntegerField(default=1)
    sku = models.CharField(max_length=128)

    class Meta:
        unique_together = ('order', 'sku')

    def is_available(self):
        if self.product is None:
            return False
        return self.product.is_public and self.quantity > 0
"#;
        let m = parse_module(src).unwrap();
        let StmtKind::ClassDef(c) = &m.body[1].kind else { panic!() };
        assert_eq!(c.name, "OrderLine");
        assert_eq!(c.body.len(), 6);
    }

    // --- recovering mode ----------------------------------------------------

    #[test]
    fn recovering_matches_strict_on_clean_input() {
        let src = "class A:\n    x = 1\n\n    def m(self):\n        return self.x\n";
        let strict = parse_module(src).unwrap();
        let out = parse_module_recovering(src);
        assert!(out.errors.is_empty());
        assert_eq!(strict, out.module);
    }

    #[test]
    fn recovering_skips_broken_top_level_statement() {
        let out = parse_module_recovering("a = 1\nb = = 2\nc = 3\n");
        assert_eq!(out.errors.len(), 1);
        assert_eq!(out.module.body.len(), 2);
        assert!(matches!(&out.module.body[0].kind, StmtKind::Assign { .. }));
        assert!(matches!(&out.module.body[1].kind, StmtKind::Assign { .. }));
    }

    #[test]
    fn recovering_keeps_other_statements_in_same_suite() {
        let src = "def f():\n    good1 = 1\n    bad = = 2\n    good2 = 3\n";
        let out = parse_module_recovering(src);
        assert_eq!(out.errors.len(), 1);
        let StmtKind::FunctionDef(f) = &out.module.body[0].kind else { panic!() };
        assert_eq!(f.body.len(), 2);
    }

    #[test]
    fn recovering_broken_header_skips_whole_block_only() {
        // A broken `def` header loses that definition and its indented
        // body (the Indent/Dedent pair is skipped as a balanced unit), but
        // nothing after it.
        // Note no bracket in the broken header: an unbalanced `(` makes
        // the lexer treat everything to EOF as one bracketed logical line,
        // which costs the rest of the file (see DESIGN.md §9).
        let src = "def broken 123:\n    x = 1\n    y = 2\nclass Survivor:\n    z = 3\n";
        let out = parse_module_recovering(src);
        assert!(!out.errors.is_empty());
        assert_eq!(out.module.body.len(), 1);
        assert!(matches!(&out.module.body[0].kind, StmtKind::ClassDef(c) if c.name == "Survivor"));
    }

    #[test]
    fn recovering_never_errors_on_arbitrary_garbage() {
        for src in ["(((", ")= =(", "def def def", "if :\n::\n", "\u{1F980} = 1\n"] {
            let out = parse_module_recovering(src);
            assert!(!out.errors.is_empty(), "expected errors for {src:?}");
        }
    }

    #[test]
    fn depth_limit_instead_of_stack_overflow() {
        let bomb = format!("x = {}0{}\n", "(".repeat(4000), ")".repeat(4000));
        let err = parse_module(&bomb).unwrap_err();
        assert_eq!(err.kind, crate::error::ParseErrorKind::DepthLimit);
        let out = parse_module_recovering(&bomb);
        assert!(out.errors.iter().any(|e| e.kind == crate::error::ParseErrorKind::DepthLimit));
    }

    #[test]
    fn depth_limit_admits_reasonable_nesting() {
        let fine = format!("x = {}0{}\n", "(".repeat(30), ")".repeat(30));
        assert!(parse_module(&fine).is_ok());
    }

    #[test]
    fn depth_limit_caps_operator_chains() {
        // Built iteratively, so the recursion guard never fires — but the
        // left-deep tree would overflow the stack in the recursive drop.
        let bomb = format!("x = 1{}\n", " + 1".repeat(MAX_CHAIN + 50));
        let err = parse_module(&bomb).unwrap_err();
        assert_eq!(err.kind, crate::error::ParseErrorKind::DepthLimit);
        let out = parse_module_recovering(&bomb);
        assert!(out.errors.iter().any(|e| e.kind == crate::error::ParseErrorKind::DepthLimit));
        // A long-but-sane chain still parses.
        let fine = format!("x = 1{}\n", " + 1".repeat(500));
        assert!(parse_module(&fine).is_ok());
    }

    /// Renders an operator tree as `(Op#id@start..end operands…)`, leaves
    /// as `name#id`: the shape, node ids and spans of every node.
    fn op_tree(e: &Expr) -> String {
        let at = format!("#{}@{}..{}", e.id.0, e.span.start.offset, e.span.end.offset);
        match &e.kind {
            ExprKind::Name(n) => format!("{n}{at}"),
            ExprKind::Constant(Constant::Int(i)) => format!("{i}{at}"),
            ExprKind::Constant(Constant::None) => format!("None{at}"),
            ExprKind::BinOp { left, op, right } => {
                format!("({op:?}{at} {} {})", op_tree(left), op_tree(right))
            }
            ExprKind::UnaryOp { op, operand } => format!("({op:?}{at} {})", op_tree(operand)),
            ExprKind::BoolOp { op, values } => {
                let values: Vec<String> = values.iter().map(op_tree).collect();
                format!("({op:?}{at} {})", values.join(" "))
            }
            ExprKind::Compare { left, ops, comparators } => {
                let rest: Vec<String> = comparators.iter().map(op_tree).collect();
                format!("({ops:?}{at} {} {})", op_tree(left), rest.join(" "))
            }
            other => panic!("not an operator tree: {other:?}"),
        }
    }

    #[test]
    fn operator_grammar_pins_shape_ids_and_spans() {
        let cases = [
            // Every binary level, loosest first: each nests to the right.
            (
                "a | b ^ c & d << e + f * g",
                "(BitOr#12@0..26 a#0@0..1 (BitXor#11@4..26 b#1@4..5 (BitAnd#10@8..26 c#2@8..9 \
                 (Shl#9@12..26 d#3@12..13 (Add#8@17..26 e#4@17..18 (Mul#7@21..26 f#5@21..22 \
                 g#6@25..26))))))",
            ),
            // Tightest first: each nests to the left.
            (
                "a * b + c << d & e ^ f | g",
                "(BitOr#12@0..26 (BitXor#10@0..22 (BitAnd#8@0..18 (Shl#6@0..14 (Add#4@0..9 \
                 (Mul#2@0..5 a#0@0..1 b#1@4..5) c#3@8..9) d#5@13..14) e#7@17..18) f#9@21..22) \
                 g#11@25..26)",
            ),
            // Left associativity within a level, every operator of it.
            (
                "a - b + c // d % e / f >> g << h",
                "(Shl#14@0..32 (Shr#12@0..27 (Add#10@0..22 (Sub#2@0..5 a#0@0..1 b#1@4..5) \
                 (Div#9@8..22 (Mod#7@8..18 (FloorDiv#5@8..14 c#3@8..9 d#4@13..14) e#6@17..18) \
                 f#8@21..22)) g#11@26..27) h#13@31..32)",
            ),
            // Unary operators bind tighter than `*` and looser than `**`,
            // and `**` nests to the right.
            (
                "-a ** -b ** c * ~d + +e",
                "(Add#12@0..23 (Mul#9@0..18 (Neg#6@0..13 (Pow#5@1..13 a#0@1..2 (Neg#4@6..13 \
                 (Pow#3@7..13 b#1@7..8 c#2@12..13)))) (Invert#8@16..18 d#7@17..18)) \
                 (Pos#11@21..23 e#10@22..23))",
            ),
            // Binary operators inside comparisons, under `not`, `and`, `or`.
            (
                "not a | b < c & d == e and f or g ^ h is not None",
                "(Or#16@0..49 (And#10@0..28 (Not#8@0..22 ([Lt, Eq]#7@4..22 (BitOr#2@4..9 \
                 a#0@4..5 b#1@8..9) (BitAnd#5@12..17 c#3@12..13 d#4@16..17) e#6@21..22)) \
                 f#9@27..28) ([IsNot]#15@32..49 (BitXor#13@32..37 g#11@32..33 h#12@36..37) \
                 None#14@45..49))",
            ),
        ];
        for (src, want) in cases {
            assert_eq!(op_tree(&parse_expr(src).unwrap()), want, "{src}");
        }
    }

    #[test]
    fn chain_limit_error_is_pinned_per_level_run() {
        let chain_error = |src: &str| {
            let err = parse_module(src).unwrap_err();
            let (s, e) = (err.span.start, err.span.end);
            (err.kind, (s.line, s.col, s.offset, e.line, e.col, e.offset), err.message)
        };
        let message = "expression chain exceeds the maximum length of 1024".to_string();
        // One level, alternating operators: the link past the cap fails.
        let one_level = format!("x = 1{}\n", " + 1 - 1".repeat(MAX_CHAIN / 2 + 1));
        assert_eq!(
            chain_error(&one_level),
            (
                crate::error::ParseErrorKind::DepthLimit,
                (1, 4103, 4102, 1, 4104, 4103),
                message.clone()
            )
        );
        // Across levels: `|` links whose operands are `+` chains of one
        // link each; only the `|` run counts toward the cap.
        let across = format!("x = 1 + 1{}\n", " | 1 + 1".repeat(MAX_CHAIN + 1));
        assert_eq!(
            chain_error(&across),
            (crate::error::ParseErrorKind::DepthLimit, (1, 8203, 8202, 1, 8204, 8203), message)
        );
        // The cap is per run: more links than the cap in total, none of
        // the runs over it, still parses.
        let runs = format!(
            "x = 1{}{}{}\n",
            " * 1".repeat(900),
            " + 1 * 1".repeat(900),
            " - 1".repeat(100)
        );
        assert!(parse_module(&runs).is_ok());
    }

    #[test]
    fn depth_limit_caps_postfix_chains() {
        let bomb = format!("x = a{}\n", ".b".repeat(MAX_CHAIN + 50));
        let err = parse_module(&bomb).unwrap_err();
        assert_eq!(err.kind, crate::error::ParseErrorKind::DepthLimit);
        let fine = format!("x = a{}()\n", ".b".repeat(200));
        assert!(parse_module(&fine).is_ok());
    }
}
