//! Recursive-descent parser for MiniC.
//!
//! The grammar is a C subset extended with SharC's sharing-mode
//! qualifiers. Types are written C-style with qualifiers *after* the
//! level they qualify:
//!
//! ```c
//! int dynamic * private p;          // private pointer to dynamic int
//! char locked(mut) *locked(mut) s;  // as in the paper's Figure 2
//! void (*q fun)(char private * fdata);  // function pointer field
//! ```

use crate::ast::*;
use crate::diag::Diagnostic;
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Parses a full MiniC translation unit.
///
/// # Errors
///
/// Returns the first syntax error encountered.
///
/// # Examples
///
/// ```
/// let prog = minic::parse("int g; void main() { g = 1; }").unwrap();
/// assert_eq!(prog.fns.len(), 1);
/// assert_eq!(prog.globals.len(), 1);
/// ```
pub fn parse(src: &str) -> Result<Program, Diagnostic> {
    let tokens = lex(src)?;
    Parser::new(tokens, 0).program()
}

/// Parses a single expression, assigning node ids starting at
/// `first_id`. Used to synthesize lock-check expressions from
/// `locked(...)` paths.
///
/// # Errors
///
/// Returns a syntax error if `src` is not a single expression.
pub fn parse_expr(src: &str, first_id: u32) -> Result<Expr, Diagnostic> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens, first_id);
    let e = p.expr()?;
    p.expect(TokenKind::Eof)?;
    Ok(e)
}

/// The deepest a MiniC program may nest. It bounds both the parser's
/// own recursion (parentheses, blocks, prefix operators, casts,
/// function-pointer parameters) and the height of every tree it
/// builds, a left-deep `1+1+…+1` chain included: every later pass
/// walks that tree recursively. A program at this depth checks and
/// runs in an unoptimized build; a deeper one is refused with a
/// diagnostic instead of overflowing a stack.
pub const MAX_NESTING: u32 = 256;

/// Levels in `ty`, counted as the passes that walk a type recurse.
fn type_height(ty: &Type) -> u32 {
    1 + match &ty.kind {
        TypeKind::Ptr(inner) | TypeKind::Array(inner, _) => type_height(inner),
        TypeKind::Fn(sig) => sig
            .params
            .iter()
            .map(|p| type_height(&p.ty))
            .fold(type_height(&sig.ret), u32::max),
        _ => 0,
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    next_id: u32,
    /// Struct names (and typedef aliases resolving to them) seen so far,
    /// so `stage_t *S;` parses as a declaration.
    type_names: Vec<String>,
    /// Open recursive constructs at the current token.
    nesting: u32,
    /// The height of every node built in the current top-level item:
    /// `heights[i]` is node `first_id + i`'s.
    heights: Vec<u32>,
    first_id: u32,
}

type PResult<T> = Result<T, Diagnostic>;

impl Parser {
    fn new(tokens: Vec<Token>, first_id: u32) -> Self {
        Parser {
            tokens,
            pos: 0,
            next_id: first_id,
            type_names: Vec::new(),
            nesting: 0,
            heights: Vec::new(),
            first_id,
        }
    }

    fn too_deep(span: Span) -> Diagnostic {
        Diagnostic::error(format!("nesting deeper than {MAX_NESTING} levels"), span)
    }

    /// Runs `f` one level deeper in the parser's recursion.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        if self.nesting == MAX_NESTING {
            return Err(Self::too_deep(self.span()));
        }
        self.nesting += 1;
        let r = f(self);
        self.nesting -= 1;
        r
    }

    fn height(&self, id: NodeId) -> u32 {
        self.heights[(id.0 - self.first_id) as usize]
    }

    /// Refuses a type past the limit. Called as each level is added,
    /// so no type grows more than one level past it.
    fn check_type_height(&self, ty: &Type) -> PResult<()> {
        if type_height(ty) > MAX_NESTING {
            return Err(Self::too_deep(self.prev_span()));
        }
        Ok(())
    }

    fn block_height(&self, b: &Block) -> u32 {
        b.stmts.iter().map(|s| self.height(s.id)).max().unwrap_or(0)
    }

    /// The id of a new node whose children reach `below` levels down.
    fn node_id(&mut self, below: u32, span: Span) -> PResult<NodeId> {
        if below >= MAX_NESTING {
            return Err(Self::too_deep(span));
        }
        let id = NodeId(self.next_id);
        self.next_id += 1;
        self.heights.push(below + 1);
        Ok(id)
    }

    fn expr_node(&mut self, kind: ExprKind, span: Span) -> PResult<Expr> {
        let h = |e: &Expr| self.height(e.id);
        let below = match &kind {
            ExprKind::Unary(_, a) | ExprKind::Field(a, _, _) => h(a),
            ExprKind::Cast(t, a) | ExprKind::Scast(t, a) | ExprKind::NewArray(t, a) => {
                h(a).max(type_height(t))
            }
            ExprKind::New(t) | ExprKind::Sizeof(t) => type_height(t),
            ExprKind::Binary(_, a, b) | ExprKind::Index(a, b) => h(a).max(h(b)),
            ExprKind::Call(f, args) => args.iter().map(h).fold(h(f), u32::max),
            ExprKind::Ternary(c, a, b) => h(c).max(h(a)).max(h(b)),
            _ => 0,
        };
        let id = self.node_id(below, span)?;
        Ok(Expr { kind, span, id })
    }

    fn stmt_node(&mut self, kind: StmtKind, span: Span) -> PResult<Stmt> {
        let h = |e: &Expr| self.height(e.id);
        let b = |blk: &Block| self.block_height(blk);
        let below = match &kind {
            StmtKind::Decl { ty, init, .. } => init.as_ref().map_or(0, h).max(type_height(ty)),
            StmtKind::Assign { lhs, rhs } => h(lhs).max(h(rhs)),
            StmtKind::Expr(e) | StmtKind::Return(Some(e)) => h(e),
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => h(cond).max(b(then_blk)).max(else_blk.as_ref().map_or(0, b)),
            StmtKind::While { cond, body } => h(cond).max(b(body)),
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => [init, step]
                .into_iter()
                .flatten()
                .map(|s| self.height(s.id))
                .chain(cond.as_ref().map(h))
                .fold(b(body), u32::max),
            StmtKind::Block(blk) => b(blk),
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => 0,
        };
        let id = self.node_id(below, span)?;
        Ok(Stmt { kind, span, id })
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        let idx = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[idx].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> PResult<Token> {
        if self.peek() == &kind {
            Ok(self.bump())
        } else {
            Err(Diagnostic::error(
                format!("expected {kind}, found {}", self.peek()),
                self.span(),
            ))
        }
    }

    fn expect_ident(&mut self) -> PResult<(String, Span)> {
        let span = self.span();
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok((name, span))
            }
            other => Err(Diagnostic::error(
                format!("expected identifier, found {other}"),
                span,
            )),
        }
    }

    fn is_type_start(&self) -> bool {
        self.is_type_start_at(0)
    }

    fn is_type_start_at(&self, n: usize) -> bool {
        match self.peek_at(n) {
            TokenKind::Ident(name) => self.type_names.iter().any(|t| t == name),
            k => k.starts_type(),
        }
    }

    // ----- program structure -----

    fn program(&mut self) -> PResult<Program> {
        let mut prog = Program {
            structs: Vec::new(),
            globals: Vec::new(),
            fns: Vec::new(),
        };
        while self.peek() != &TokenKind::Eof {
            // Only a node's parent reads its height, and both belong to
            // one top-level item: keep that item's heights alone.
            self.first_id = self.next_id;
            self.heights.clear();
            match self.peek() {
                TokenKind::KwTypedef => {
                    let sd = self.typedef()?;
                    prog.structs.push(sd);
                }
                TokenKind::KwRacy if self.peek_at(1) == &TokenKind::KwStruct => {
                    self.bump();
                    let sd = self.struct_def(true)?;
                    prog.structs.push(sd);
                }
                TokenKind::KwStruct if matches!(self.peek_at(2), TokenKind::LBrace) => {
                    let sd = self.struct_def(false)?;
                    prog.structs.push(sd);
                }
                _ => self.global_or_fn(&mut prog)?,
            }
        }
        Ok(prog)
    }

    /// `typedef [racy] struct name { fields } alias;`
    fn typedef(&mut self) -> PResult<StructDef> {
        self.expect(TokenKind::KwTypedef)?;
        let racy = self.eat(&TokenKind::KwRacy);
        let mut sd = self.struct_body(racy)?;
        // Alias name; we register it as referring to the same struct.
        let (alias, _) = self.expect_ident()?;
        self.expect(TokenKind::Semi)?;
        // Keep the struct's own name if it has one; otherwise use alias.
        if sd.name.is_empty() {
            sd.name = alias.clone();
        }
        self.type_names.push(sd.name.clone());
        if alias != sd.name {
            // An alias is a second name for the same struct. We record it
            // by pushing the alias as a known type name and relying on
            // name canonicalization in `struct_body` callers: MiniC
            // treats the alias as the canonical name if distinct.
            self.type_names.push(alias.clone());
        }
        sd.alias = Some(alias);
        Ok(sd)
    }

    /// `[racy] struct name { fields } ;`
    fn struct_def(&mut self, racy: bool) -> PResult<StructDef> {
        let sd = self.struct_body(racy)?;
        self.expect(TokenKind::Semi)?;
        self.type_names.push(sd.name.clone());
        Ok(sd)
    }

    fn struct_body(&mut self, racy: bool) -> PResult<StructDef> {
        let start = self.span();
        self.expect(TokenKind::KwStruct)?;
        let name = match self.peek().clone() {
            TokenKind::Ident(n) => {
                self.bump();
                // Make the struct name usable inside its own body
                // (e.g. `struct stage *next;`).
                self.type_names.push(n.clone());
                n
            }
            _ => String::new(),
        };
        self.expect(TokenKind::LBrace)?;
        let mut fields = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            let base = self.type_prefix()?;
            loop {
                let (ty, fname, fspan) = self.declarator(base.clone())?;
                fields.push(Field {
                    name: fname,
                    ty,
                    span: fspan,
                });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::Semi)?;
        }
        Ok(StructDef {
            name,
            fields,
            racy,
            span: start.to(self.prev_span()),
            alias: None,
        })
    }

    fn global_or_fn(&mut self, prog: &mut Program) -> PResult<()> {
        let start = self.span();
        if !self.is_type_start() {
            return Err(Diagnostic::error(
                format!("expected declaration, found {}", self.peek()),
                start,
            ));
        }
        let base = self.type_prefix()?;
        let (ty, name, _) = self.declarator(base.clone())?;
        if self.peek() == &TokenKind::LParen {
            // Function definition.
            self.bump();
            let mut params = Vec::new();
            if !self.eat(&TokenKind::RParen) {
                loop {
                    params.push(self.param()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::RParen)?;
            }
            let body = self.block()?;
            prog.fns.push(FnDef {
                name,
                ret: ty,
                params,
                body,
                span: start.to(self.prev_span()),
            });
        } else {
            // Global(s).
            let mut push_global =
                |p: &mut Self, ty: Type, name: String, span: Span| -> PResult<()> {
                    let init = if p.eat(&TokenKind::Assign) {
                        Some(p.expr()?)
                    } else {
                        None
                    };
                    prog.globals.push(GlobalDef {
                        name,
                        ty,
                        init,
                        span,
                    });
                    Ok(())
                };
            push_global(self, ty, name, start.to(self.prev_span()))?;
            while self.eat(&TokenKind::Comma) {
                let (ty2, name2, sp2) = self.declarator(base.clone())?;
                push_global(self, ty2, name2, sp2)?;
            }
            self.expect(TokenKind::Semi)?;
        }
        Ok(())
    }

    fn param(&mut self) -> PResult<Param> {
        let start = self.span();
        let base = self.type_prefix()?;
        let (ty, name, _) = self.declarator_opt_name(base)?;
        Ok(Param {
            name,
            ty,
            span: start.to(self.prev_span()),
        })
    }

    // ----- types -----

    /// Parses the base type and the qualifiers that follow it:
    /// `int dynamic`, `struct stage`, `char locked(mut)`, `stage_t`.
    fn type_prefix(&mut self) -> PResult<Type> {
        let kind = match self.peek().clone() {
            TokenKind::KwInt => {
                self.bump();
                TypeKind::Int
            }
            TokenKind::KwChar => {
                self.bump();
                TypeKind::Char
            }
            TokenKind::KwBool => {
                self.bump();
                TypeKind::Bool
            }
            TokenKind::KwVoid => {
                self.bump();
                TypeKind::Void
            }
            TokenKind::KwMutex => {
                self.bump();
                TypeKind::Mutex
            }
            TokenKind::KwCond => {
                self.bump();
                TypeKind::Cond
            }
            TokenKind::KwStruct => {
                self.bump();
                let (name, _) = self.expect_ident()?;
                TypeKind::Named(name)
            }
            TokenKind::Ident(name) if self.type_names.iter().any(|t| t == &name) => {
                self.bump();
                TypeKind::Named(name)
            }
            other => {
                return Err(Diagnostic::error(
                    format!("expected type, found {other}"),
                    self.span(),
                ))
            }
        };
        let qual = self.quals()?;
        Ok(Type { kind, qual })
    }

    /// Parses zero or more qualifier keywords, returning the last one
    /// written (duplicates are a parse error) or `Qual::Infer`.
    fn quals(&mut self) -> PResult<Qual> {
        let mut qual = Qual::Infer;
        loop {
            let q = match self.peek() {
                TokenKind::KwPrivate => Qual::Private,
                TokenKind::KwReadonly => Qual::Readonly,
                TokenKind::KwRacy => Qual::Racy,
                TokenKind::KwDynamic => Qual::Dynamic,
                TokenKind::KwLocked => {
                    let start = self.span();
                    self.bump();
                    self.expect(TokenKind::LParen)?;
                    let path = self.lock_path()?;
                    self.expect(TokenKind::RParen)?;
                    if qual != Qual::Infer {
                        return Err(Diagnostic::error(
                            "conflicting sharing-mode qualifiers",
                            start,
                        ));
                    }
                    qual = Qual::Locked(path);
                    continue;
                }
                _ => break,
            };
            if qual != Qual::Infer {
                return Err(Diagnostic::error(
                    "conflicting sharing-mode qualifiers",
                    self.span(),
                ));
            }
            self.bump();
            qual = q;
        }
        Ok(qual)
    }

    fn lock_path(&mut self) -> PResult<LockPath> {
        let start = self.span();
        let (base, _) = self.expect_ident()?;
        let mut segs = vec![base];
        while self.eat(&TokenKind::Arrow) {
            let (seg, _) = self.expect_ident()?;
            segs.push(seg);
        }
        Ok(LockPath::new(segs, start.to(self.prev_span())))
    }

    /// Parses `* qual*` pointer layers, the declared name, and array
    /// suffixes. Also handles function-pointer declarators
    /// `( * qual* name ) ( params )`.
    fn declarator(&mut self, base: Type) -> PResult<(Type, String, Span)> {
        let (ty, name, span) = self.declarator_opt_name(base)?;
        if name.is_empty() {
            return Err(Diagnostic::error("expected name in declaration", span));
        }
        Ok((ty, name, span))
    }

    fn declarator_opt_name(&mut self, base: Type) -> PResult<(Type, String, Span)> {
        let mut ty = base;
        while self.eat(&TokenKind::Star) {
            let qual = self.quals()?;
            ty = Type::ptr(ty, qual);
            self.check_type_height(&ty)?;
        }
        // Function-pointer declarator: `( * qual* name? ) ( params )`.
        if self.peek() == &TokenKind::LParen && self.peek_at(1) == &TokenKind::Star {
            self.bump(); // (
            self.bump(); // *
            let qual = self.quals()?;
            let (name, nspan) = match self.peek().clone() {
                TokenKind::Ident(n) => {
                    let sp = self.span();
                    self.bump();
                    (n, sp)
                }
                _ => (String::new(), self.span()),
            };
            self.expect(TokenKind::RParen)?;
            self.expect(TokenKind::LParen)?;
            let mut params = Vec::new();
            if !self.eat(&TokenKind::RParen) {
                loop {
                    params.push(self.nested(Self::param)?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::RParen)?;
            }
            let sig = FnSig { ret: ty, params };
            let fn_ty = Type::new(TypeKind::Fn(Box::new(sig)), Qual::Infer);
            let ty = Type::ptr(fn_ty, qual);
            self.check_type_height(&ty)?;
            return Ok((ty, name, nspan));
        }
        let (name, nspan) = match self.peek().clone() {
            TokenKind::Ident(n) => {
                let sp = self.span();
                self.bump();
                (n, sp)
            }
            _ => (String::new(), self.span()),
        };
        while self.eat(&TokenKind::LBracket) {
            let len = match self.peek().clone() {
                TokenKind::IntLit(n) if n >= 0 => {
                    self.bump();
                    n as usize
                }
                other => {
                    return Err(Diagnostic::error(
                        format!("expected array length, found {other}"),
                        self.span(),
                    ))
                }
            };
            self.expect(TokenKind::RBracket)?;
            let q = ty.qual.clone();
            ty = Type::new(TypeKind::Array(Box::new(ty), len), q);
            self.check_type_height(&ty)?;
        }
        Ok((ty, name, nspan))
    }

    /// Parses a type with an abstract declarator (no name), as used in
    /// casts and `SCAST`/`new` arguments: `char private *`.
    fn abstract_type(&mut self) -> PResult<Type> {
        let base = self.type_prefix()?;
        let mut ty = base;
        while self.eat(&TokenKind::Star) {
            let qual = self.quals()?;
            ty = Type::ptr(ty, qual);
            self.check_type_height(&ty)?;
        }
        Ok(ty)
    }

    // ----- statements -----

    fn block(&mut self) -> PResult<Block> {
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            self.stmt_into(&mut stmts)?;
        }
        Ok(Block { stmts })
    }

    /// Parses one statement; declarations with multiple declarators
    /// push several statements.
    fn stmt_into(&mut self, out: &mut Vec<Stmt>) -> PResult<()> {
        self.nested(|p| p.stmt(out))
    }

    fn stmt(&mut self, out: &mut Vec<Stmt>) -> PResult<()> {
        let start = self.span();
        match self.peek() {
            TokenKind::LBrace => {
                let b = self.block()?;
                out.push(self.stmt_node(StmtKind::Block(b), start.to(self.prev_span()))?);
            }
            TokenKind::KwIf => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let then_blk = self.block_or_single()?;
                let else_blk = if self.eat(&TokenKind::KwElse) {
                    Some(self.block_or_single()?)
                } else {
                    None
                };
                let kind = StmtKind::If {
                    cond,
                    then_blk,
                    else_blk,
                };
                out.push(self.stmt_node(kind, start.to(self.prev_span()))?);
            }
            TokenKind::KwWhile => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let body = self.block_or_single()?;
                let kind = StmtKind::While { cond, body };
                out.push(self.stmt_node(kind, start.to(self.prev_span()))?);
            }
            TokenKind::KwFor => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let init = if self.peek() == &TokenKind::Semi {
                    self.bump();
                    None
                } else {
                    let mut tmp = Vec::new();
                    self.simple_stmt_into(&mut tmp)?;
                    self.expect(TokenKind::Semi)?;
                    if tmp.len() != 1 {
                        return Err(Diagnostic::error(
                            "for-init must be a single declaration or assignment",
                            start,
                        ));
                    }
                    Some(Box::new(tmp.pop().unwrap()))
                };
                let cond = if self.peek() == &TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::Semi)?;
                let step = if self.peek() == &TokenKind::RParen {
                    None
                } else {
                    let mut tmp = Vec::new();
                    self.simple_stmt_into(&mut tmp)?;
                    match <[Stmt; 1]>::try_from(tmp) {
                        Ok([s]) if matches!(s.kind, StmtKind::Assign { .. }) => Some(Box::new(s)),
                        _ => {
                            return Err(Diagnostic::error(
                                "for-step must be a single assignment",
                                start,
                            ))
                        }
                    }
                };
                self.expect(TokenKind::RParen)?;
                let body = self.block_or_single()?;
                let kind = StmtKind::For {
                    init,
                    cond,
                    step,
                    body,
                };
                out.push(self.stmt_node(kind, start.to(self.prev_span()))?);
            }
            TokenKind::KwReturn => {
                self.bump();
                let value = if self.peek() == &TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::Semi)?;
                let span = start.to(self.prev_span());
                out.push(self.stmt_node(StmtKind::Return(value), span)?);
            }
            TokenKind::KwBreak => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                out.push(self.stmt_node(StmtKind::Break, start)?);
            }
            TokenKind::KwContinue => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                out.push(self.stmt_node(StmtKind::Continue, start)?);
            }
            _ => {
                self.simple_stmt_into(out)?;
                self.expect(TokenKind::Semi)?;
            }
        }
        Ok(())
    }

    /// A single statement, or a braced block, wrapped as a Block either
    /// way (for `if`/`while`/`for` bodies).
    fn block_or_single(&mut self) -> PResult<Block> {
        if self.peek() == &TokenKind::LBrace {
            self.block()
        } else {
            let mut stmts = Vec::new();
            self.stmt_into(&mut stmts)?;
            Ok(Block { stmts })
        }
    }

    /// Declarations, assignments, and expression statements — without
    /// the trailing semicolon (shared with `for` headers).
    fn simple_stmt_into(&mut self, out: &mut Vec<Stmt>) -> PResult<()> {
        let start = self.span();
        if self.is_type_start() {
            let base = self.type_prefix()?;
            loop {
                let (ty, name, _) = self.declarator(base.clone())?;
                let init = if self.eat(&TokenKind::Assign) {
                    Some(self.expr()?)
                } else {
                    None
                };
                let kind = StmtKind::Decl { name, ty, init };
                out.push(self.stmt_node(kind, start.to(self.prev_span()))?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            return Ok(());
        }
        let lhs = self.expr()?;
        let kind = match self.peek().clone() {
            TokenKind::Assign => {
                self.bump();
                let rhs = self.expr()?;
                StmtKind::Assign { lhs, rhs }
            }
            k @ (TokenKind::PlusEq
            | TokenKind::MinusEq
            | TokenKind::StarEq
            | TokenKind::SlashEq) => {
                self.bump();
                let op = match k {
                    TokenKind::PlusEq => BinOp::Add,
                    TokenKind::MinusEq => BinOp::Sub,
                    TokenKind::StarEq => BinOp::Mul,
                    _ => BinOp::Div,
                };
                let rhs = self.expr()?;
                let lhs_copy = self.refresh_ids(&lhs)?;
                let span = lhs.span.to(rhs.span);
                let desugared = self.expr_node(
                    ExprKind::Binary(op, Box::new(lhs_copy), Box::new(rhs)),
                    span,
                )?;
                StmtKind::Assign {
                    lhs,
                    rhs: desugared,
                }
            }
            TokenKind::PlusPlus | TokenKind::MinusMinus => {
                let op = if self.peek() == &TokenKind::PlusPlus {
                    BinOp::Add
                } else {
                    BinOp::Sub
                };
                self.bump();
                let lhs_copy = self.refresh_ids(&lhs)?;
                let one = self.expr_node(ExprKind::IntLit(1), self.prev_span())?;
                let kind = ExprKind::Binary(op, Box::new(lhs_copy), Box::new(one));
                let desugared = self.expr_node(kind, lhs.span)?;
                StmtKind::Assign {
                    lhs,
                    rhs: desugared,
                }
            }
            _ => StmtKind::Expr(lhs),
        };
        out.push(self.stmt_node(kind, start.to(self.prev_span()))?);
        Ok(())
    }

    /// Clones an expression assigning fresh node ids throughout (used
    /// when desugaring `x += e` into `x = x + e`).
    fn refresh_ids(&mut self, e: &Expr) -> PResult<Expr> {
        let copy = |p: &mut Self, a: &Expr| p.refresh_ids(a).map(Box::new);
        let kind = match &e.kind {
            ExprKind::Unary(op, a) => ExprKind::Unary(*op, copy(self, a)?),
            ExprKind::Binary(op, a, b) => ExprKind::Binary(*op, copy(self, a)?, copy(self, b)?),
            ExprKind::Index(a, b) => ExprKind::Index(copy(self, a)?, copy(self, b)?),
            ExprKind::Field(a, f, arrow) => ExprKind::Field(copy(self, a)?, f.clone(), *arrow),
            ExprKind::Call(f, args) => ExprKind::Call(
                copy(self, f)?,
                args.iter()
                    .map(|a| self.refresh_ids(a))
                    .collect::<PResult<_>>()?,
            ),
            ExprKind::Cast(t, a) => ExprKind::Cast(t.clone(), copy(self, a)?),
            ExprKind::Scast(t, a) => ExprKind::Scast(t.clone(), copy(self, a)?),
            ExprKind::NewArray(t, a) => ExprKind::NewArray(t.clone(), copy(self, a)?),
            ExprKind::Ternary(c, a, b) => {
                ExprKind::Ternary(copy(self, c)?, copy(self, a)?, copy(self, b)?)
            }
            other => other.clone(),
        };
        self.expr_node(kind, e.span)
    }

    // ----- expressions -----

    fn expr(&mut self) -> PResult<Expr> {
        self.nested(Self::ternary)
    }

    fn ternary(&mut self) -> PResult<Expr> {
        let cond = self.binary(0)?;
        if self.eat(&TokenKind::Question) {
            let then = self.expr()?;
            self.expect(TokenKind::Colon)?;
            let els = self.expr()?;
            let span = cond.span.to(els.span);
            let kind = ExprKind::Ternary(Box::new(cond), Box::new(then), Box::new(els));
            return self.expr_node(kind, span);
        }
        Ok(cond)
    }

    fn binop_for(&self, k: &TokenKind) -> Option<(BinOp, u8)> {
        use BinOp::*;
        use TokenKind as T;
        Some(match k {
            T::PipePipe => (Or, 1),
            T::AmpAmp => (And, 2),
            T::Pipe => (BitOr, 3),
            T::Caret => (BitXor, 4),
            T::Amp => (BitAnd, 5),
            T::EqEq => (Eq, 6),
            T::NotEq => (Ne, 6),
            T::Lt => (Lt, 7),
            T::Le => (Le, 7),
            T::Gt => (Gt, 7),
            T::Ge => (Ge, 7),
            T::Shl => (Shl, 8),
            T::Shr => (Shr, 8),
            T::Plus => (Add, 9),
            T::Minus => (Sub, 9),
            T::Star => (Mul, 10),
            T::Slash => (Div, 10),
            T::Percent => (Rem, 10),
            _ => return None,
        })
    }

    fn binary(&mut self, min_prec: u8) -> PResult<Expr> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = self.binop_for(self.peek()) {
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary(prec + 1)?;
            let span = lhs.span.to(rhs.span);
            lhs = self.expr_node(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span)?;
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> PResult<Expr> {
        let start = self.span();
        let op = match self.peek() {
            TokenKind::Star => Some(UnOp::Deref),
            TokenKind::Amp => Some(UnOp::AddrOf),
            TokenKind::Minus => Some(UnOp::Neg),
            TokenKind::Bang => Some(UnOp::Not),
            TokenKind::Tilde => Some(UnOp::BitNot),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let inner = self.nested(Self::unary)?;
            let span = start.to(inner.span);
            return self.expr_node(ExprKind::Unary(op, Box::new(inner)), span);
        }
        self.postfix()
    }

    fn postfix(&mut self) -> PResult<Expr> {
        let mut e = self.primary()?;
        loop {
            match self.peek().clone() {
                TokenKind::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(TokenKind::RBracket)?;
                    let span = e.span.to(self.prev_span());
                    e = self.expr_node(ExprKind::Index(Box::new(e), Box::new(idx)), span)?;
                }
                TokenKind::Dot => {
                    self.bump();
                    let (name, _) = self.expect_ident()?;
                    let span = e.span.to(self.prev_span());
                    e = self.expr_node(ExprKind::Field(Box::new(e), name, false), span)?;
                }
                TokenKind::Arrow => {
                    self.bump();
                    let (name, _) = self.expect_ident()?;
                    let span = e.span.to(self.prev_span());
                    e = self.expr_node(ExprKind::Field(Box::new(e), name, true), span)?;
                }
                TokenKind::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                        self.expect(TokenKind::RParen)?;
                    }
                    let span = e.span.to(self.prev_span());
                    e = self.expr_node(ExprKind::Call(Box::new(e), args), span)?;
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> PResult<Expr> {
        let start = self.span();
        let kind = match self.peek().clone() {
            TokenKind::IntLit(v) => {
                self.bump();
                ExprKind::IntLit(v)
            }
            TokenKind::CharLit(c) => {
                self.bump();
                ExprKind::CharLit(c)
            }
            TokenKind::StrLit(s) => {
                self.bump();
                ExprKind::StrLit(s)
            }
            TokenKind::KwTrue => {
                self.bump();
                ExprKind::BoolLit(true)
            }
            TokenKind::KwFalse => {
                self.bump();
                ExprKind::BoolLit(false)
            }
            TokenKind::KwNull => {
                self.bump();
                ExprKind::Null
            }
            TokenKind::Ident(name) => {
                self.bump();
                ExprKind::Ident(name)
            }
            TokenKind::KwScast => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let ty = self.abstract_type()?;
                self.expect(TokenKind::Comma)?;
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                ExprKind::Scast(ty, Box::new(e))
            }
            TokenKind::KwNew => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let ty = self.abstract_type()?;
                self.expect(TokenKind::RParen)?;
                ExprKind::New(ty)
            }
            TokenKind::KwNewArray => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let ty = self.abstract_type()?;
                self.expect(TokenKind::Comma)?;
                let n = self.expr()?;
                self.expect(TokenKind::RParen)?;
                ExprKind::NewArray(ty, Box::new(n))
            }
            TokenKind::KwSizeof => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let ty = self.abstract_type()?;
                self.expect(TokenKind::RParen)?;
                ExprKind::Sizeof(ty)
            }
            TokenKind::LParen => {
                self.bump();
                if self.is_type_start() {
                    // A cast: `(type) expr`.
                    let ty = self.abstract_type()?;
                    self.expect(TokenKind::RParen)?;
                    let e = self.nested(Self::unary)?;
                    let span = start.to(e.span);
                    return self.expr_node(ExprKind::Cast(ty, Box::new(e)), span);
                }
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                return Ok(e);
            }
            other => {
                return Err(Diagnostic::error(
                    format!("expected expression, found {other}"),
                    start,
                ))
            }
        };
        self.expr_node(kind, start.to(self.prev_span()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_globals_and_fn() {
        let p = parse("int g; int h = 5; void main() { g = h; }").unwrap();
        assert_eq!(p.globals.len(), 2);
        assert_eq!(p.fns.len(), 1);
        assert!(p.globals[1].init.is_some());
    }

    #[test]
    fn parses_qualified_types() {
        let p = parse("int dynamic * private p;").unwrap();
        let ty = &p.globals[0].ty;
        assert_eq!(ty.qual, Qual::Private);
        assert_eq!(ty.pointee().unwrap().qual, Qual::Dynamic);
    }

    #[test]
    fn parses_locked_qualifier() {
        let p =
            parse("struct s { mutex racy * readonly mut; char locked(mut) * locked(mut) sdata; };")
                .unwrap();
        let sd = &p.structs[0];
        let sdata = sd.field("sdata").unwrap();
        match &sdata.ty.qual {
            Qual::Locked(path) => assert_eq!(path.to_string(), "mut"),
            other => panic!("expected locked, got {other:?}"),
        }
        match &sdata.ty.pointee().unwrap().qual {
            Qual::Locked(_) => {}
            other => panic!("expected locked pointee, got {other:?}"),
        }
    }

    #[test]
    fn parses_fn_pointer_field() {
        let p = parse("struct stage { void (*fun)(char private * fdata); };").unwrap();
        let f = p.structs[0].field("fun").unwrap();
        let fn_ty = f.ty.pointee().unwrap();
        match &fn_ty.kind {
            TypeKind::Fn(sig) => {
                assert!(sig.ret.is_void());
                assert_eq!(sig.params.len(), 1);
                assert_eq!(sig.params[0].ty.pointee().unwrap().qual, Qual::Private);
            }
            other => panic!("expected fn type, got {other:?}"),
        }
    }

    #[test]
    fn parses_typedef_struct() {
        let p = parse(
            "typedef struct stage { struct stage * next; } stage_t;\n\
             void f() { stage_t * s; s = NULL; }",
        )
        .unwrap();
        assert_eq!(p.structs[0].name, "stage");
        assert_eq!(p.structs[0].alias.as_deref(), Some("stage_t"));
    }

    #[test]
    fn parses_scast() {
        let p =
            parse("void f(char dynamic * d) { char private * l; l = SCAST(char private *, d); }")
                .unwrap();
        let body = &p.fns[0].body;
        match &body.stmts[1].kind {
            StmtKind::Assign { rhs, .. } => {
                assert!(matches!(rhs.kind, ExprKind::Scast(..)));
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn parses_control_flow() {
        let p = parse(
            "void f() { int i; for (i = 0; i < 10; i++) { if (i % 2 == 0) continue; else break; } \
             while (i > 0) i -= 1; return; }",
        )
        .unwrap();
        assert_eq!(p.fns.len(), 1);
    }

    #[test]
    fn for_step_must_be_an_assignment() {
        for step in ["i = i + 1", "i++", "i += 2"] {
            let src = format!("void f() {{ int i; for (i = 0; i < 3; {step}) {{ }} }}");
            assert!(parse(&src).is_ok(), "{src}");
        }
        for step in ["int j = 1", "int j", "f()", "i", "int j, k"] {
            let src = format!("void f() {{ int i; for (i = 0; i < 3; {step}) {{ }} }}");
            let err = parse(&src).expect_err(&src);
            assert!(err.message.contains("for-step"), "{src}: {}", err.message);
        }
    }

    #[test]
    fn desugars_compound_assignment() {
        let p = parse("void f() { int x; x += 3; }").unwrap();
        match &p.fns[0].body.stmts[1].kind {
            StmtKind::Assign { rhs, .. } => {
                assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Add, ..)));
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn parses_pipeline_example() {
        // The paper's Figure 1 program (annotated variant).
        let src = r#"
            typedef struct stage {
                struct stage * next;
                cond racy * cv;
                mutex racy * readonly mut;
                char locked(mut) * locked(mut) sdata;
                void (* fun)(char private * fdata);
            } stage_t;

            int notDone;

            void thrFunc(stage_t * d) {
                stage_t * S = d;
                stage_t * nextS = S->next;
                char private * ldata;
                while (notDone) {
                    mutex_lock(S->mut);
                    while (S->sdata == NULL)
                        cond_wait(S->cv, S->mut);
                    ldata = SCAST(char private *, S->sdata);
                    S->sdata = NULL;
                    cond_signal(S->cv);
                    mutex_unlock(S->mut);
                    S->fun(ldata);
                    if (nextS) {
                        mutex_lock(nextS->mut);
                        while (nextS->sdata)
                            cond_wait(nextS->cv, nextS->mut);
                        nextS->sdata = SCAST(char locked(mut) *, ldata);
                        cond_signal(nextS->cv);
                        mutex_unlock(nextS->mut);
                    }
                }
            }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.globals.len(), 1);
    }

    #[test]
    fn rejects_conflicting_quals() {
        assert!(parse("int private dynamic x;").is_err());
    }

    #[test]
    fn parses_arrays() {
        let p = parse("int buf[16]; void f() { buf[3] = 7; }").unwrap();
        match &p.globals[0].ty.kind {
            TypeKind::Array(elem, 16) => assert!(elem.is_integral()),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn parses_ternary_and_casts() {
        let p = parse("void f() { int x; x = (int)(x > 0 ? x : 0 - x); }").unwrap();
        assert_eq!(p.fns.len(), 1);
    }
}
