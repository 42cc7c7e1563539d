//! Recursive-descent parser for `.tpa` scenario files.
//!
//! Grammar (EBNF; `#`/`//` comments, free-form whitespace):
//!
//! ```text
//! file      := item*
//! item      := "scenario" (IDENT | STRING)
//!            | "procs" INT
//!            | "param" IDENT "=" INT
//!            | "symmetric"
//!            | "var" IDENT ["=" expr] annot*
//!            | "array" IDENT "[" expr "]" ["=" (expr | "{" expr {"," expr} ["," ".."] "}")] annot*
//!            | "proc" ["*"] "{" pitem* "}"
//!            | "forbid" bexpr
//!            | "assert" ("exclusion"|"liveness"|"crash_exclusion"|"recovery")
//!            | "check" ("tso"|"pso") opt* "expect" ("pass"|"violation")
//!            | "twin" STRING ["passages" INT]
//! annot     := "pid_indexed" | "pid_valued" "(" ("zero_based"|"one_based") ")"
//!            | "local" | "owner" "(" expr ")"
//! opt       := ("steps"|"crashes"|"transitions") INT
//! pitem     := "reg" IDENT [":" KIND ["at" IDENT]] ["=" expr]
//!            | IDENT ":"
//!            | "if" expr [cmp expr] "{" pitem* "}" ["else" "{" pitem* "}"]
//!            | stmt
//! stmt      := "enter" | "cs" | "exit" | "fence" | "halt"
//!            | "goto" IDENT
//!            | "if" expr cmp expr "goto" IDENT
//!            | "when" ref cmp expr "goto" IDENT "else" IDENT
//!            | [IDENT ["/" IDENT] "="] "cas" "(" ref "," expr "," expr ")"
//!                  "goto" IDENT "else" IDENT
//!            | ref ("=" expr | "+=" expr | "-=" expr)
//!            | "invoke" expr "," expr
//!            | "return" expr
//! ref       := IDENT ["[" expr "]"]
//! expr      := mul { ("+"|"-") mul } ; mul := atom { "*" atom }
//! atom      := INT | IDENT ["[" expr "]"] | "(" expr ")" | "-" atom
//! bexpr     := band { "||" band } ; band := bnot { "&&" bnot }
//! bnot      := "!" bnot | "(" bexpr ")" | fterm cmp fterm
//! fterm     := INT | "p"INT "." IDENT | ref
//! cmp       := "==" | "!=" | "<" | "<=" | ">" | ">="
//! ```

use tpa_tso::{Cmp, MemoryModel};

use crate::ast::*;
use crate::diag::{suggest, Diagnostic, Span};
use crate::lexer::{lex, Tok, Token};

const ITEM_KEYWORDS: &[&str] = &[
    "scenario",
    "procs",
    "param",
    "symmetric",
    "var",
    "array",
    "proc",
    "forbid",
    "assert",
    "check",
    "twin",
];

const STMT_KEYWORDS: &[&str] = &[
    "reg", "enter", "cs", "exit", "fence", "halt", "goto", "if", "when", "cas", "invoke", "return",
];

/// Parses a whole scenario file.
pub fn parse(src: &str) -> Result<File, Diagnostic> {
    let toks = lex(src)?;
    let mut p = Parser {
        src,
        toks,
        at: 0,
        file: File::default(),
    };
    p.file()?;
    Ok(p.file)
}

struct Parser<'s> {
    src: &'s str,
    toks: Vec<Token>,
    at: usize,
    file: File,
}

impl<'s> Parser<'s> {
    fn peek(&self) -> &Token {
        &self.toks[self.at]
    }

    fn peek2(&self) -> &Token {
        &self.toks[(self.at + 1).min(self.toks.len() - 1)]
    }

    fn next(&mut self) -> Token {
        let t = self.toks[self.at].clone();
        if self.at + 1 < self.toks.len() {
            self.at += 1;
        }
        t
    }

    fn err(&self, span: Span, msg: impl Into<String>) -> Diagnostic {
        Diagnostic::new(span, msg)
    }

    fn expect(&mut self, want: Tok, what: &str) -> Result<Span, Diagnostic> {
        let t = self.next();
        if t.tok == want {
            Ok(t.span)
        } else {
            Err(self.err(
                t.span,
                format!("expected {what}, found {}", t.tok.describe()),
            ))
        }
    }

    fn ident(&mut self, what: &str) -> Result<(String, Span), Diagnostic> {
        let t = self.next();
        match t.tok {
            Tok::Ident(s) => Ok((s, t.span)),
            other => Err(self.err(
                t.span,
                format!("expected {what}, found {}", other.describe()),
            )),
        }
    }

    fn int(&mut self, what: &str) -> Result<(u64, Span), Diagnostic> {
        let t = self.next();
        match t.tok {
            Tok::Int(v) => Ok((v, t.span)),
            other => Err(self.err(
                t.span,
                format!("expected {what}, found {}", other.describe()),
            )),
        }
    }

    fn at_ident(&self, kw: &str) -> bool {
        matches!(&self.peek().tok, Tok::Ident(s) if s == kw)
    }

    fn eat_ident(&mut self, kw: &str) -> bool {
        if self.at_ident(kw) {
            self.next();
            true
        } else {
            false
        }
    }

    fn file(&mut self) -> Result<(), Diagnostic> {
        loop {
            let t = self.peek().clone();
            match &t.tok {
                Tok::Eof => return Ok(()),
                Tok::Ident(kw) => match kw.as_str() {
                    "scenario" => {
                        self.next();
                        let t = self.next();
                        let name = match t.tok {
                            Tok::Ident(s) => s,
                            Tok::Str(s) => s,
                            other => {
                                return Err(self.err(
                                    t.span,
                                    format!("expected a scenario name, found {}", other.describe()),
                                ))
                            }
                        };
                        self.file.name = Some((name, t.span));
                    }
                    "procs" => {
                        self.next();
                        let (v, s) = self.int("a process count")?;
                        self.file.procs = Some((v, s));
                    }
                    "param" => {
                        self.next();
                        let (name, span) = self.ident("a constant name")?;
                        self.expect(Tok::Assign, "`=`")?;
                        let (value, _) = self.int("a default value")?;
                        self.file.params.push(ParamDecl { name, span, value });
                    }
                    "symmetric" => {
                        self.next();
                        self.file.symmetric = Some(t.span);
                    }
                    "var" => self.var_decl(false)?,
                    "array" => self.var_decl(true)?,
                    "proc" => self.proc_block(t.span)?,
                    "forbid" => self.forbid()?,
                    "assert" => self.assert_clause()?,
                    "check" => self.check_clause(t.span)?,
                    "twin" => self.twin_clause(t.span)?,
                    other => {
                        let mut d = self.err(t.span, format!("unknown declaration `{other}`"));
                        if let Some(s) = suggest(other, ITEM_KEYWORDS.iter().copied()) {
                            d = d.with_help(format!("did you mean `{s}`?"));
                        }
                        return Err(d);
                    }
                },
                other => {
                    return Err(self.err(
                        t.span,
                        format!("expected a declaration, found {}", other.describe()),
                    ))
                }
            }
        }
    }

    fn var_decl(&mut self, array: bool) -> Result<(), Diagnostic> {
        self.next(); // var | array
        let (name, span) = self.ident("a variable name")?;
        let len = if array {
            self.expect(Tok::LBrack, "`[`")?;
            let e = self.expr()?;
            self.expect(Tok::RBrack, "`]`")?;
            Some(e)
        } else {
            None
        };
        let (mut init, mut init_list, mut init_rest) = (None, None, false);
        if self.peek().tok == Tok::Assign {
            self.next();
            if self.peek().tok == Tok::LBrace {
                let open = self.next().span; // {
                if !array {
                    return Err(self.err(
                        open,
                        "per-element initial values `{…}` only apply to `array` declarations",
                    ));
                }
                let mut elems = vec![self.expr()?];
                while self.peek().tok == Tok::Comma {
                    self.next();
                    if self.peek().tok == Tok::Dot && self.peek2().tok == Tok::Dot {
                        self.next();
                        self.next();
                        init_rest = true;
                        break;
                    }
                    elems.push(self.expr()?);
                }
                self.expect(Tok::RBrace, "`}` or `,`")?;
                init_list = Some(elems);
            } else {
                init = Some(self.expr()?);
            }
        }
        let mut annots = Vec::new();
        loop {
            let t = self.peek().clone();
            let Tok::Ident(kw) = &t.tok else { break };
            match kw.as_str() {
                "pid_indexed" => {
                    self.next();
                    annots.push(Annot::PidIndexed(t.span));
                }
                "pid_valued" => {
                    self.next();
                    self.expect(Tok::LParen, "`(`")?;
                    let (enc, es) = self.ident("`zero_based` or `one_based`")?;
                    self.expect(Tok::RParen, "`)`")?;
                    annots.push(Annot::PidValued(enc, es));
                }
                "local" => {
                    self.next();
                    annots.push(Annot::Local(t.span));
                }
                "owner" => {
                    self.next();
                    self.expect(Tok::LParen, "`(`")?;
                    let e = self.expr()?;
                    self.expect(Tok::RParen, "`)`")?;
                    annots.push(Annot::Owner(e, t.span));
                }
                _ => break,
            }
        }
        self.file.vars.push(VarDecl {
            name,
            span,
            len,
            init,
            init_list,
            init_rest,
            annots,
        });
        Ok(())
    }

    fn proc_block(&mut self, span: Span) -> Result<(), Diagnostic> {
        self.next(); // proc
        let template = if self.peek().tok == Tok::Star {
            self.next();
            true
        } else {
            // An optional explicit index documents which process the
            // block is for; it must match declaration order.
            if let Tok::Int(idx) = self.peek().tok {
                let ispan = self.peek().span;
                self.next();
                let expected = self.file.blocks.len() as u64;
                if idx != expected {
                    return Err(self.err(
                        ispan,
                        format!(
                            "`proc` blocks must appear in process order; this is block \
                             {expected}, not {idx}"
                        ),
                    ));
                }
            }
            false
        };
        let items = self.item_block()?;
        self.file.blocks.push(ProcBlock {
            template,
            span,
            items,
        });
        Ok(())
    }

    fn proc_item(&mut self) -> Result<PItem, Diagnostic> {
        let t = self.peek().clone();
        let Tok::Ident(kw) = &t.tok else {
            return Err(self.err(
                t.span,
                format!("expected a statement, found {}", t.tok.describe()),
            ));
        };
        match kw.as_str() {
            "reg" => {
                self.next();
                let (name, span) = self.ident("a register name")?;
                let (mut kind, mut scope) = (None, None);
                if self.peek().tok == Tok::Colon {
                    self.next();
                    kind = Some(self.ident("a register kind")?);
                    // `at L` scopes the kind; `at:` would be a label.
                    if self.at_ident("at") && self.peek2().tok != Tok::Colon {
                        self.next();
                        scope = Some(self.ident("a label")?);
                    }
                }
                let init = if self.peek().tok == Tok::Assign {
                    self.next();
                    Some(self.expr()?)
                } else {
                    None
                };
                Ok(PItem::Reg {
                    name,
                    span,
                    kind,
                    scope,
                    init,
                })
            }
            "enter" | "cs" | "exit" | "fence" | "halt" => {
                self.next();
                let kind = match kw.as_str() {
                    "enter" => SimpleKind::Enter,
                    "cs" => SimpleKind::Cs,
                    "exit" => SimpleKind::Exit,
                    "fence" => SimpleKind::Fence,
                    _ => SimpleKind::Halt,
                };
                Ok(PItem::Stmt(Stmt::Simple(kind, t.span)))
            }
            "goto" => {
                self.next();
                let (l, ls) = self.ident("a label")?;
                Ok(PItem::Stmt(Stmt::Goto(l, ls)))
            }
            "if" => {
                self.next();
                let a = self.expr()?;
                if self.peek().tok == Tok::LBrace {
                    return self.static_if(StaticCond { a, cmp: None });
                }
                let cmp = self.cmp()?;
                let b = self.expr()?;
                if self.peek().tok == Tok::LBrace {
                    return self.static_if(StaticCond {
                        a,
                        cmp: Some((cmp, b)),
                    });
                }
                self.kw("goto")?;
                let target = self.ident("a label")?;
                let span = t.span.to(target.1);
                Ok(PItem::Stmt(Stmt::If {
                    a,
                    cmp,
                    b,
                    target,
                    span,
                }))
            }
            "when" => {
                self.next();
                let var = self.vref()?;
                let cmp = self.cmp()?;
                let rhs = self.expr()?;
                self.kw("goto")?;
                let jt = self.ident("a label")?;
                self.kw("else")?;
                let jf = self.ident("a label")?;
                let span = t.span.to(jf.1);
                Ok(PItem::Stmt(Stmt::When {
                    var,
                    cmp,
                    rhs,
                    jt,
                    jf,
                    span,
                }))
            }
            "cas" => {
                self.next();
                self.cas_tail(CasObs::None, t.span)
            }
            "invoke" => {
                self.next();
                let op = self.expr()?;
                self.expect(Tok::Comma, "`,`")?;
                let arg = self.expr()?;
                let span = t.span.to(arg.span());
                Ok(PItem::Stmt(Stmt::Invoke { op, arg, span }))
            }
            "return" => {
                self.next();
                let src = self.expr()?;
                let span = t.span.to(src.span());
                Ok(PItem::Stmt(Stmt::Return { src, span }))
            }
            name => {
                // Label, CAS observation, or assignment.
                if self.peek2().tok == Tok::Colon {
                    let (name, span) = self.ident("a label")?;
                    self.next(); // :
                    return Ok(PItem::Label { name, span });
                }
                if self.peek2().tok == Tok::Slash {
                    let r1 = self.ident("a register")?;
                    self.next(); // /
                    let r2 = self.ident("a register")?;
                    self.expect(Tok::Assign, "`=`")?;
                    let c = self.next();
                    if !matches!(&c.tok, Tok::Ident(k) if k == "cas") {
                        return Err(self.err(
                            c.span,
                            format!("expected `cas` after `r1/r2 =`, found {}", c.tok.describe()),
                        ));
                    }
                    return self.cas_tail(CasObs::Two(r1, r2), t.span);
                }
                let lhs = self.vref()?;
                let op = match self.next() {
                    Token {
                        tok: Tok::Assign, ..
                    } => AssignOp::Set,
                    Token {
                        tok: Tok::PlusEq, ..
                    } => AssignOp::Add,
                    Token {
                        tok: Tok::MinusEq, ..
                    } => AssignOp::Sub,
                    bad => {
                        let mut d = self.err(
                            bad.span,
                            format!(
                                "expected `=`, `+=`, `-=` or `:` after `{name}`, found {}",
                                bad.tok.describe()
                            ),
                        );
                        if let Some(s) = suggest(name, STMT_KEYWORDS.iter().copied()) {
                            d = d.with_help(format!("did you mean the statement `{s}`?"));
                        }
                        return Err(d);
                    }
                };
                if op == AssignOp::Set && self.at_ident("cas") {
                    if lhs.index.is_some() {
                        return Err(self.err(lhs.span, "a CAS observation must be a register"));
                    }
                    self.next(); // cas
                    return self.cas_tail(CasObs::One(lhs.name, lhs.span), t.span);
                }
                let rhs = self.expr()?;
                let span = t.span.to(rhs.span());
                Ok(PItem::Stmt(Stmt::Assign { lhs, op, rhs, span }))
            }
        }
    }

    /// The rest of a compile-time `if COND { … } [else { … }]`, from the
    /// opening brace.
    fn static_if(&mut self, cond: StaticCond) -> Result<PItem, Diagnostic> {
        let then = self.item_block()?;
        let els = if self.eat_ident("else") {
            self.item_block()?
        } else {
            Vec::new()
        };
        Ok(PItem::Static { cond, then, els })
    }

    /// `{ pitem* }`.
    fn item_block(&mut self) -> Result<Vec<PItem>, Diagnostic> {
        self.expect(Tok::LBrace, "`{`")?;
        let mut items = Vec::new();
        while self.peek().tok != Tok::RBrace {
            if self.peek().tok == Tok::Eof {
                return Err(self.err(self.peek().span, "unclosed block (missing `}`)"));
            }
            items.push(self.proc_item()?);
        }
        self.next(); // }
        Ok(items)
    }

    fn cas_tail(&mut self, obs: CasObs, start: Span) -> Result<PItem, Diagnostic> {
        self.expect(Tok::LParen, "`(` after `cas`")?;
        let var = self.vref()?;
        self.expect(Tok::Comma, "`,`")?;
        let expected = self.expr()?;
        self.expect(Tok::Comma, "`,`")?;
        let new = self.expr()?;
        self.expect(Tok::RParen, "`)`")?;
        self.kw("goto")?;
        let ok = self.ident("a label")?;
        self.kw("else")?;
        let fail = self.ident("a label")?;
        let span = start.to(fail.1);
        Ok(PItem::Stmt(Stmt::Cas {
            obs,
            var,
            expected,
            new,
            ok,
            fail,
            span,
        }))
    }

    fn kw(&mut self, kw: &str) -> Result<Span, Diagnostic> {
        let t = self.next();
        match &t.tok {
            Tok::Ident(s) if s == kw => Ok(t.span),
            other => Err(self.err(
                t.span,
                format!("expected `{kw}`, found {}", other.describe()),
            )),
        }
    }

    fn cmp(&mut self) -> Result<Cmp, Diagnostic> {
        let t = self.next();
        Ok(match t.tok {
            Tok::EqEq => Cmp::Eq,
            Tok::NotEq => Cmp::Ne,
            Tok::Lt => Cmp::Lt,
            Tok::Le => Cmp::Le,
            Tok::Gt => Cmp::Gt,
            Tok::Ge => Cmp::Ge,
            other => {
                return Err(self.err(
                    t.span,
                    format!("expected a comparison operator, found {}", other.describe()),
                ))
            }
        })
    }

    fn vref(&mut self) -> Result<VarRef, Diagnostic> {
        let (name, span) = self.ident("a name")?;
        let index = if self.peek().tok == Tok::LBrack {
            self.next();
            let e = self.expr()?;
            self.expect(Tok::RBrack, "`]`")?;
            Some(Box::new(e))
        } else {
            None
        };
        Ok(VarRef { name, span, index })
    }

    fn expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut e = self.mul()?;
        loop {
            let op = match self.peek().tok {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.next();
            let rhs = self.mul()?;
            e = Expr::Bin(Box::new(e), op, Box::new(rhs));
        }
        Ok(e)
    }

    fn mul(&mut self) -> Result<Expr, Diagnostic> {
        let mut e = self.atom()?;
        while self.peek().tok == Tok::Star {
            self.next();
            let rhs = self.atom()?;
            e = Expr::Bin(Box::new(e), BinOp::Mul, Box::new(rhs));
        }
        Ok(e)
    }

    fn atom(&mut self) -> Result<Expr, Diagnostic> {
        let t = self.next();
        match t.tok {
            Tok::Int(v) => Ok(Expr::Int(v, t.span)),
            Tok::Ident(name) => {
                if self.peek().tok == Tok::LBrack {
                    self.next();
                    let idx = self.expr()?;
                    self.expect(Tok::RBrack, "`]`")?;
                    Ok(Expr::Index(VarRef {
                        name,
                        span: t.span,
                        index: Some(Box::new(idx)),
                    }))
                } else {
                    Ok(Expr::Name(name, t.span))
                }
            }
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(e)
            }
            Tok::Minus => {
                let inner = self.atom()?;
                let span = t.span.to(inner.span());
                Ok(Expr::Neg(Box::new(inner), span))
            }
            other => Err(self.err(
                t.span,
                format!("expected an expression, found {}", other.describe()),
            )),
        }
    }

    fn forbid(&mut self) -> Result<(), Diagnostic> {
        let start = self.next().span; // forbid
        let expr = self.bexpr()?;
        let end = self.toks[self.at.saturating_sub(1)].span;
        let span = start.to(end);
        let text = self.src[span.lo.min(self.src.len())..span.hi.min(self.src.len())]
            .trim()
            .to_owned();
        self.file.forbids.push(ForbidDecl { expr, span, text });
        Ok(())
    }

    fn bexpr(&mut self) -> Result<BExpr, Diagnostic> {
        let mut e = self.band()?;
        while self.peek().tok == Tok::OrOr {
            self.next();
            let rhs = self.band()?;
            e = BExpr::Or(Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn band(&mut self) -> Result<BExpr, Diagnostic> {
        let mut e = self.bnot()?;
        while self.peek().tok == Tok::AndAnd {
            self.next();
            let rhs = self.bnot()?;
            e = BExpr::And(Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn bnot(&mut self) -> Result<BExpr, Diagnostic> {
        match self.peek().tok {
            Tok::Bang => {
                self.next();
                Ok(BExpr::Not(Box::new(self.bnot()?)))
            }
            Tok::LParen => {
                self.next();
                let e = self.bexpr()?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(e)
            }
            _ => {
                let a = self.fterm()?;
                let cmp = self.cmp()?;
                let b = self.fterm()?;
                Ok(BExpr::Cmp(a, cmp, b))
            }
        }
    }

    fn fterm(&mut self) -> Result<FTerm, Diagnostic> {
        let t = self.peek().clone();
        match &t.tok {
            Tok::Int(v) => {
                self.next();
                Ok(FTerm::Int(*v, t.span))
            }
            Tok::Ident(name) => {
                // `pK.reg` — a terminal register; anything else is memory.
                if let Some(digits) = name.strip_prefix('p') {
                    if !digits.is_empty()
                        && digits.bytes().all(|b| b.is_ascii_digit())
                        && self.peek2().tok == Tok::Dot
                    {
                        self.next(); // pK
                        self.next(); // .
                        let (reg, rs) = self.ident("a register name")?;
                        return Ok(FTerm::Reg {
                            pid: digits.parse().unwrap(),
                            reg,
                            span: t.span.to(rs),
                        });
                    }
                }
                Ok(FTerm::Mem(self.vref()?))
            }
            other => Err(self.err(
                t.span,
                format!(
                    "expected a value, `pK.reg`, or a variable, found {}",
                    other.describe()
                ),
            )),
        }
    }

    fn assert_clause(&mut self) -> Result<(), Diagnostic> {
        self.next(); // assert
        let (name, span) = self.ident("an invariant name")?;
        let kind = match name.as_str() {
            "exclusion" => AssertKind::Exclusion,
            "liveness" => AssertKind::Liveness,
            "crash_exclusion" => AssertKind::CrashExclusion,
            "recovery" => AssertKind::Recovery,
            other => {
                let cands = ["exclusion", "liveness", "crash_exclusion", "recovery"];
                let mut d = self.err(span, format!("unknown invariant `{other}`"));
                if let Some(s) = suggest(other, cands) {
                    d = d.with_help(format!("did you mean `{s}`?"));
                }
                return Err(d);
            }
        };
        self.file.asserts.push((kind, span));
        Ok(())
    }

    fn check_clause(&mut self, start: Span) -> Result<(), Diagnostic> {
        self.next(); // check
        let (model_name, ms) = self.ident("a memory model (`tso` or `pso`)")?;
        let model = match model_name.as_str() {
            "tso" => MemoryModel::Tso,
            "pso" => MemoryModel::Pso,
            other => {
                return Err(self
                    .err(ms, format!("unknown memory model `{other}`"))
                    .with_help("the supported models are `tso` and `pso`"))
            }
        };
        let (mut steps, mut crashes, mut transitions) = (None, 0u64, None);
        loop {
            if self.eat_ident("steps") {
                steps = Some(self.int("a step bound")?.0);
            } else if self.eat_ident("crashes") {
                crashes = self.int("a crash budget")?.0;
            } else if self.eat_ident("transitions") {
                transitions = Some(self.int("a transition budget")?.0);
            } else {
                break;
            }
        }
        let kw = self.kw("expect");
        if kw.is_err() {
            let t = self.peek().clone();
            if let Tok::Ident(got) = &t.tok {
                let cands = ["steps", "crashes", "transitions", "expect"];
                if let Some(s) = suggest(got, cands) {
                    return Err(self
                        .err(t.span, format!("unknown check option `{got}`"))
                        .with_help(format!("did you mean `{s}`?")));
                }
            }
            return kw.map(|_| ());
        }
        let (verdict, vs) = self.ident("`pass` or `violation`")?;
        let expect = match verdict.as_str() {
            "pass" => Expect::Pass,
            "violation" => Expect::Violation,
            other => {
                let mut d = self.err(vs, format!("unknown expectation `{other}`"));
                if let Some(s) = suggest(other, ["pass", "violation"]) {
                    d = d.with_help(format!("did you mean `{s}`?"));
                }
                return Err(d);
            }
        };
        self.file.checks.push(CheckDecl {
            model,
            steps,
            crashes,
            transitions,
            expect,
            span: start.to(vs),
        });
        Ok(())
    }

    fn twin_clause(&mut self, start: Span) -> Result<(), Diagnostic> {
        self.next(); // twin
        let t = self.next();
        let lock = match t.tok {
            Tok::Str(s) => s,
            other => {
                return Err(self.err(
                    t.span,
                    format!(
                        "expected a quoted native lock name, found {}",
                        other.describe()
                    ),
                ))
            }
        };
        let passages = if self.eat_ident("passages") {
            self.int("a passage count")?.0
        } else {
            1
        };
        self.file.twin = Some(TwinDecl {
            lock,
            passages,
            span: start.to(t.span),
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_scenario() {
        let f = parse(
            r#"
            scenario sb
            procs 2
            var x = 0
            var y
            proc* {
              reg r0
              x = 1
              r0 = y
              halt
            }
            forbid p0.r0 == 0 && p1.r0 == 0
            check tso expect violation
            "#,
        )
        .unwrap();
        assert_eq!(f.name.as_ref().unwrap().0, "sb");
        assert_eq!(f.procs.unwrap().0, 2);
        assert_eq!(f.vars.len(), 2);
        assert_eq!(f.blocks.len(), 1);
        assert!(f.blocks[0].template);
        assert_eq!(f.forbids.len(), 1);
        assert_eq!(f.checks.len(), 1);
        assert_eq!(f.checks[0].expect, Expect::Violation);
    }

    #[test]
    fn parses_cas_observation_forms() {
        let f = parse(
            "proc { reg t \n reg k \n a: t = cas(x, 0, 1) goto a else a \n k/t = cas(x, t, t + 1) goto a else a \n cas(x, 0, 1) goto a else a }",
        )
        .unwrap();
        let n_cas = f.blocks[0]
            .items
            .iter()
            .filter(|i| matches!(i, PItem::Stmt(Stmt::Cas { .. })))
            .count();
        assert_eq!(n_cas, 3);
    }

    #[test]
    fn suggests_close_keywords() {
        let err = parse("proc { fenc }").unwrap_err();
        assert!(err.help.unwrap().contains("fence"), "{}", err.msg);
        let err = parse("scenrio x").unwrap_err();
        assert!(err.help.unwrap().contains("scenario"));
        let err = parse("assert exclusoin").unwrap_err();
        assert!(err.help.unwrap().contains("exclusion"));
    }

    #[test]
    fn rejects_unclosed_blocks() {
        let err = parse("proc { enter").unwrap_err();
        assert!(err.msg.contains("unclosed"), "{}", err.msg);
    }
}
