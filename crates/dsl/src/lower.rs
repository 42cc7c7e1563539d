//! Lowering: resolve names, fold per-process constants, and assemble a
//! parsed [`File`] into a [`VmSystem`] through [`tpa_tso::Asm`].
//!
//! The translation is deliberately 1:1 — every statement emits exactly
//! one bytecode instruction — so a lock port's control structure is its
//! bytecode's, rest point for rest point.
//!
//! Constants: `n` (the process count, set by `procs`) and every `param`
//! are compile-time constants everywhere; inside a `proc` block so is
//! `me` (this process' id). A `proc*` template is lowered once per
//! process with `me` rebound, so pid-dependent code (`number[me] = v`,
//! `if me < j goto served`) folds to per-process immediates, and
//! compile-time `if COND { … } else { … }` blocks keep or drop whole
//! statement runs per process (onebit's halves, filter's `n == 1` case).
//! A caller may override `n` and any `param` ([`crate::compile_with`]).
//!
//! Register kinds hold at every pc, or with `at LABEL` only at that
//! label's rest point (a scan index is a pid position only while the
//! scan rests there).
//!
//! Symmetry declarations are validated here where they are statically
//! checkable (a `pid_indexed` array whose length is not `procs`, register
//! kinds without `symmetric`, a `symmetric` scenario whose processes do
//! not share one code layout) and deferred to the checker's start-of-run
//! lockstep walk where they are not (a declaration that is wrong about
//! the *dynamics* falls back to concrete state keys there).

use std::collections::{HashMap, HashSet};

use tpa_tso::{
    Asm, Bytecode, Cmp, Label, Machine, MemoryModel, Operand, PidEncoding, ProcId, RegKind,
    SymMode, VRef, Value, VarId, VarSpec, VmSystem, DISCARD, NREGS,
};

use crate::ast::{
    self, Annot, AssignOp, BinOp, CasObs, Expr, File, PItem, SimpleKind, StaticCond, Stmt,
};
use crate::diag::{suggest, Diagnostic, Span};

pub use crate::ast::{AssertKind, Expect};

/// A fully lowered scenario: the compiled system plus everything the
/// checker needs to run and judge it.
pub struct CompiledScenario {
    /// Scenario name (from `scenario NAME`, default `"scenario"`).
    pub name: String,
    /// Number of processes.
    pub procs: usize,
    /// The compiled system, ready for any [`tpa_tso::System`] consumer.
    pub system: VmSystem,
    /// Compiled `forbid` predicates over terminal states.
    pub forbids: Vec<Forbid>,
    /// Requested named invariants, in declaration order.
    pub asserts: Vec<AssertKind>,
    /// `check` clauses, in declaration order.
    pub checks: Vec<Check>,
    /// Native differential twin, if declared.
    pub twin: Option<Twin>,
    /// Whether the scenario declared `symmetric`.
    pub symmetric: bool,
}

/// One lowered `check` clause.
#[derive(Clone, Debug)]
pub struct Check {
    /// Memory model to check under.
    pub model: MemoryModel,
    /// Schedule-length bound override.
    pub steps: Option<usize>,
    /// Crash-fault budget.
    pub crashes: u32,
    /// Transition-budget override.
    pub transitions: Option<u64>,
    /// Expected verdict.
    pub expect: Expect,
}

/// Lowered `twin` metadata.
#[derive(Clone, Debug)]
pub struct Twin {
    /// Native lock registry name.
    pub lock: String,
    /// Passages per process.
    pub passages: usize,
}

/// A compiled `forbid` predicate: true on a terminal state the scenario
/// declares illegal.
#[derive(Clone, Debug)]
pub struct Forbid {
    /// The predicate's source text, for violation messages.
    pub text: String,
    n: usize,
    expr: FExpr,
}

#[derive(Clone, Debug)]
enum FExpr {
    And(Box<FExpr>, Box<FExpr>),
    Or(Box<FExpr>, Box<FExpr>),
    Not(Box<FExpr>),
    Cmp(FVal, Cmp, FVal),
}

#[derive(Clone, Copy, Debug)]
enum FVal {
    Const(Value),
    Reg(u32, u8),
    Mem(u32),
}

impl Forbid {
    /// Whether the machine is in a terminal state matching the
    /// predicate. Terminal means quiescent: every process halted AND
    /// every store buffer drained — a halted process can still hold
    /// buffered writes, and judging memory before they commit would
    /// report outcomes no completed execution exhibits.
    pub fn matches(&self, m: &Machine) -> bool {
        let quiescent = (0..self.n as u32).all(|p| {
            let p = ProcId(p);
            m.peek_next(p) == tpa_tso::machine::NextEvent::Halted && m.buffer_empty(p)
        });
        quiescent && eval_fexpr(&self.expr, m)
    }
}

fn eval_fexpr(e: &FExpr, m: &Machine) -> bool {
    match e {
        FExpr::And(a, b) => eval_fexpr(a, m) && eval_fexpr(b, m),
        FExpr::Or(a, b) => eval_fexpr(a, m) || eval_fexpr(b, m),
        FExpr::Not(a) => !eval_fexpr(a, m),
        FExpr::Cmp(a, cmp, b) => cmp.eval(eval_fval(*a, m), eval_fval(*b, m)),
    }
}

fn eval_fval(v: FVal, m: &Machine) -> Value {
    match v {
        FVal::Const(c) => c,
        FVal::Reg(pid, r) => m
            .program(ProcId(pid))
            .and_then(|p| p.register(r as usize))
            .unwrap_or(0),
        FVal::Mem(var) => m.value(VarId(var)),
    }
}

/// One declared shared variable (or array base).
struct VarInfo {
    base: u32,
    /// `Some(len)` for arrays.
    len: Option<u64>,
}

/// The compile-time constants in scope: `n` and every `param`.
type Consts = HashMap<String, i64>;

/// The largest process count a scenario may declare, directly or through
/// an `n` override.
pub const MAX_PROCS: usize = 64;

/// Lowers a parsed file to a [`CompiledScenario`]. `overrides` replace
/// the declared values of constants: `n` (the `procs` count) or any
/// `param`; naming a constant the file does not declare is an error.
pub fn lower(file: &File, overrides: &[(&str, u64)]) -> Result<CompiledScenario, Diagnostic> {
    let top = Span::new(0, 0);
    let name = file
        .name
        .as_ref()
        .map(|(n, _)| n.clone())
        .unwrap_or_else(|| "scenario".to_owned());
    let Some((mut procs, procs_span)) = file.procs else {
        return Err(Diagnostic::new(top, "missing `procs N` declaration"));
    };
    let in_range = |v: u64, span: Span| {
        i64::try_from(v).map_err(|_| Diagnostic::new(span, "constant is out of range"))
    };
    let mut consts = Consts::new();
    for p in &file.params {
        if p.name == "me" || p.name == "n" || consts.contains_key(&p.name) {
            return Err(Diagnostic::new(
                p.span,
                format!("constant `{}` is already defined", p.name),
            ));
        }
        consts.insert(p.name.clone(), in_range(p.value, p.span)?);
    }
    for &(key, value) in overrides {
        if key == "n" {
            procs = value;
        } else if let Some(slot) = consts.get_mut(key) {
            *slot = in_range(value, procs_span)?;
        } else {
            let mut d = Diagnostic::new(
                procs_span,
                format!("cannot override `{key}`: the scenario declares no such constant"),
            );
            let declared = consts.keys().map(String::as_str).chain(["n"]);
            if let Some(s) = suggest(key, declared) {
                d = d.with_help(format!("did you mean `{s}`?"));
            }
            return Err(d);
        }
    }
    if procs == 0 || procs > MAX_PROCS as u64 {
        return Err(Diagnostic::new(
            procs_span,
            format!("process count must be between 1 and {MAX_PROCS}, got {procs}"),
        ));
    }
    let n = procs as usize;
    consts.insert("n".to_owned(), procs as i64);

    // --- Shared variables -------------------------------------------------
    let mut vars: HashMap<String, VarInfo> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    let mut b = VarSpec::builder();
    for decl in &file.vars {
        if vars.contains_key(&decl.name) {
            return Err(Diagnostic::new(
                decl.span,
                format!("variable `{}` is declared twice", decl.name),
            ));
        }
        if decl.name == "me" || consts.contains_key(&decl.name) {
            return Err(Diagnostic::new(
                decl.span,
                format!("`{}` is a reserved constant name", decl.name),
            ));
        }
        let init = match &decl.init {
            Some(e) => fold_const(e, None, &consts)? as Value,
            None => 0,
        };
        let base = match &decl.len {
            None => {
                let mut owner = None;
                for a in &decl.annots {
                    match a {
                        Annot::Owner(e, span) => {
                            let v = fold_const(e, None, &consts)?;
                            if v < 0 || v as usize >= n {
                                return Err(Diagnostic::new(
                                    *span,
                                    format!("owner {v} is not a process id (0..{n})"),
                                ));
                            }
                            owner = Some(ProcId(v as u32));
                        }
                        Annot::Local(span) | Annot::PidIndexed(span) => {
                            return Err(Diagnostic::new(
                                *span,
                                "this annotation only applies to arrays",
                            ));
                        }
                        Annot::PidValued(..) => {}
                    }
                }
                let id = b.var(decl.name.clone(), init, owner);
                for a in &decl.annots {
                    if let Annot::PidValued(enc, span) = a {
                        b.mark_pid_valued(id, parse_encoding(enc, *span)?);
                    }
                }
                vars.insert(
                    decl.name.clone(),
                    VarInfo {
                        base: id.0,
                        len: None,
                    },
                );
                id
            }
            Some(len_expr) => {
                let len = fold_const(len_expr, None, &consts)?;
                if len < 0 {
                    return Err(Diagnostic::new(
                        len_expr.span(),
                        format!("array length must be non-negative, got {len}"),
                    ));
                }
                let len = len as usize;
                let local = decl.annots.iter().any(|a| matches!(a, Annot::Local(_)));
                if local && len != n {
                    return Err(Diagnostic::new(
                        decl.span,
                        format!("`local` array `{}` must have one element per process (length {n}, got {len})", decl.name),
                    ));
                }
                let base = match &decl.init_list {
                    None => b.array(&decl.name, len, init, |i| local.then_some(ProcId(i as u32))),
                    Some(elems) => {
                        if elems.len() > len || (elems.len() < len && !decl.init_rest) {
                            return Err(Diagnostic::new(
                                decl.span,
                                format!(
                                    "`{}` declares {len} elements but initialises {}",
                                    decl.name,
                                    elems.len()
                                ),
                            ));
                        }
                        // Element-wise `var` pushes: same contiguous ids
                        // and `name[i]` naming as `array`, per-element
                        // inits (the shape the native ticket lock uses
                        // for its pre-granted `grant[0]`); a `..` tail
                        // pads with zeros.
                        let mut first = None;
                        for i in 0..len {
                            let v = match elems.get(i) {
                                Some(e) => fold_const(e, None, &consts)?,
                                None => 0,
                            };
                            if v < 0 {
                                return Err(Diagnostic::new(
                                    elems[i].span(),
                                    format!("initial values must be non-negative, got {v}"),
                                ));
                            }
                            let id = b.var(
                                format!("{}[{i}]", decl.name),
                                v as Value,
                                local.then_some(ProcId(i as u32)),
                            );
                            first.get_or_insert(id);
                        }
                        first.expect("a list has an element, so `len > 0`")
                    }
                };
                for a in &decl.annots {
                    match a {
                        Annot::PidIndexed(span) => {
                            if len != n {
                                return Err(Diagnostic::new(
                                    *span,
                                    format!(
                                        "`pid_indexed` array `{}` must have exactly one element \
                                         per process (length {n}, got {len})",
                                        decl.name
                                    ),
                                ));
                            }
                            b.mark_pid_indexed(base, len);
                        }
                        Annot::PidValued(enc, span) => {
                            b.mark_pid_valued_array(base, len, parse_encoding(enc, *span)?);
                        }
                        Annot::Owner(_, span) => {
                            return Err(Diagnostic::new(
                                *span,
                                "`owner` applies to scalars; use `local` for per-process arrays",
                            ));
                        }
                        Annot::Local(_) => {}
                    }
                }
                vars.insert(
                    decl.name.clone(),
                    VarInfo {
                        base: base.0,
                        len: Some(len as u64),
                    },
                );
                base
            }
        };
        let _ = base;
        order.push(decl.name.clone());
    }
    let spec = b.build();

    // --- Process blocks ---------------------------------------------------
    if file.blocks.is_empty() {
        return Err(Diagnostic::new(top, "missing a `proc` block"));
    }
    let template = file.blocks.len() == 1 && file.blocks[0].template;
    if !template {
        if let Some(block) = file.blocks.iter().find(|b| b.template) {
            return Err(Diagnostic::new(
                block.span,
                "a `proc*` template cannot be mixed with explicit `proc` blocks",
            ));
        }
        if file.blocks.len() != n {
            return Err(Diagnostic::new(
                file.blocks.last().unwrap().span,
                format!(
                    "expected {n} `proc` blocks (one per process) or a single `proc*` \
                     template, found {}",
                    file.blocks.len()
                ),
            ));
        }
        if let Some(sym_span) = file.symmetric {
            return Err(Diagnostic::new(
                sym_span,
                "a `symmetric` scenario must use a single `proc*` template so every \
                 process shares one code layout",
            )
            .with_help("replace the explicit `proc` blocks with `proc* { … }`"));
        }
    }
    let symmetric = file.symmetric.is_some();
    let mut code = Vec::with_capacity(n);
    let mut reg_maps = Vec::with_capacity(n);
    for me in 0..n {
        let block = if template {
            &file.blocks[0]
        } else {
            &file.blocks[me]
        };
        let (bc, regs) = lower_block(block, me, &consts, &vars, symmetric)?;
        code.push(bc);
        reg_maps.push(regs);
    }

    // --- Forbid predicates ------------------------------------------------
    let mut forbids = Vec::new();
    for decl in &file.forbids {
        let expr = lower_bexpr(&decl.expr, &consts, &vars, &reg_maps)?;
        forbids.push(Forbid {
            text: decl.text.clone(),
            n,
            expr,
        });
    }

    let mut asserts = Vec::new();
    for (kind, _) in &file.asserts {
        if !asserts.contains(kind) {
            asserts.push(*kind);
        }
    }

    let checks = file
        .checks
        .iter()
        .map(|c| Check {
            model: c.model,
            steps: c.steps.map(|s| s as usize),
            crashes: c.crashes as u32,
            transitions: c.transitions,
            expect: c.expect,
        })
        .collect();

    let twin = file.twin.as_ref().map(|t| Twin {
        lock: t.lock.clone(),
        passages: t.passages.max(1) as usize,
    });

    Ok(CompiledScenario {
        system: VmSystem::new(name.clone(), spec, code, symmetric),
        name,
        procs: n,
        forbids,
        asserts,
        checks,
        twin,
        symmetric,
    })
}

fn parse_encoding(enc: &str, span: Span) -> Result<PidEncoding, Diagnostic> {
    match enc {
        "zero_based" => Ok(PidEncoding::ZeroBased),
        "one_based" => Ok(PidEncoding::OneBased),
        other => {
            let mut d = Diagnostic::new(span, format!("unknown pid encoding `{other}`"));
            if let Some(s) = suggest(other, ["zero_based", "one_based"]) {
                d = d.with_help(format!("did you mean `{s}`?"));
            }
            Err(d)
        }
    }
}

fn parse_reg_kind(kind: &str, span: Span) -> Result<RegKind, Diagnostic> {
    match kind {
        "plain" => Ok(RegKind::Plain),
        "one_based" => Ok(RegKind::OneBased),
        "zero_idx" => Ok(RegKind::ZeroIdx),
        "scan_skip_self" => Ok(RegKind::ScanSkipSelf),
        other => {
            let cands = ["plain", "one_based", "zero_idx", "scan_skip_self"];
            let mut d = Diagnostic::new(span, format!("unknown register kind `{other}`"));
            if let Some(s) = suggest(other, cands) {
                d = d.with_help(format!("did you mean `{s}`?"));
            }
            Err(d)
        }
    }
}

/// Folds a constant expression; `me` is only available inside a proc
/// block. Errors point at the first non-constant name.
fn fold_const(e: &Expr, me: Option<usize>, consts: &Consts) -> Result<i64, Diagnostic> {
    match e {
        Expr::Int(v, span) => {
            i64::try_from(*v).map_err(|_| Diagnostic::new(*span, "constant is out of range"))
        }
        Expr::Name(name, span) => match name.as_str() {
            "me" => me.map(|m| m as i64).ok_or_else(|| {
                Diagnostic::new(*span, "`me` is only available inside a `proc` block")
            }),
            other => consts.get(other).copied().ok_or_else(|| {
                Diagnostic::new(
                    *span,
                    format!("`{other}` is not a compile-time constant here"),
                )
            }),
        },
        Expr::Index(v) => Err(Diagnostic::new(
            v.span,
            "array elements are not compile-time constants",
        )),
        Expr::Bin(a, op, b) => {
            let (a, b) = (fold_const(a, me, consts)?, fold_const(b, me, consts)?);
            Ok(match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
            })
        }
        Expr::Neg(a, _) => Ok(-fold_const(a, me, consts)?),
    }
}

/// The span of the first name in `e` that `hit` accepts.
fn find_name(e: &Expr, hit: &dyn Fn(&str) -> bool) -> Option<Span> {
    match e {
        Expr::Name(name, span) if hit(name) => Some(*span),
        Expr::Bin(a, _, b) => find_name(a, hit).or_else(|| find_name(b, hit)),
        Expr::Neg(a, _) => find_name(a, hit),
        _ => None,
    }
}

/// Every item of a block, descending into both arms of compile-time
/// `if`s (so a name is "defined" if any instantiation defines it).
fn walk<'a>(items: &'a [PItem], f: &mut impl FnMut(&'a PItem)) {
    for item in items {
        f(item);
        if let PItem::Static { then, els, .. } = item {
            walk(then, f);
            walk(els, f);
        }
    }
}

/// Resolves compile-time `if`s for process `me`: the items this process
/// keeps, in order.
fn flatten<'a>(
    items: &'a [PItem],
    me: usize,
    consts: &Consts,
    regs: &HashSet<&str>,
    out: &mut Vec<&'a PItem>,
) -> Result<(), Diagnostic> {
    for item in items {
        let PItem::Static { cond, then, els } = item else {
            out.push(item);
            continue;
        };
        let StaticCond { a, cmp } = cond;
        let exprs = std::iter::once(a).chain(cmp.as_ref().map(|(_, b)| b));
        for e in exprs {
            if let Some(span) = find_name(e, &|name| regs.contains(name)) {
                return Err(Diagnostic::new(
                    span,
                    "a compile-time `if { … }` cannot read a register",
                )
                .with_help("branch at run time with `if A CMP B goto LABEL`"));
            }
        }
        let a = fold_const(a, Some(me), consts)?;
        let holds = match cmp {
            None => a != 0,
            Some((cmp, b)) => {
                let b = fold_const(b, Some(me), consts)?;
                match cmp {
                    Cmp::Eq => a == b,
                    Cmp::Ne => a != b,
                    Cmp::Lt => a < b,
                    Cmp::Le => a <= b,
                    Cmp::Gt => a > b,
                    Cmp::Ge => a >= b,
                }
            }
        };
        flatten(if holds { then } else { els }, me, consts, regs, out)?;
    }
    Ok(())
}

/// Per-block lowering context.
struct Ctx<'f> {
    me: usize,
    consts: &'f Consts,
    vars: &'f HashMap<String, VarInfo>,
    regs: HashMap<String, u8>,
    labels: HashMap<String, Label>,
}

impl Ctx<'_> {
    fn name_candidates(&self) -> Vec<&str> {
        self.regs
            .keys()
            .map(String::as_str)
            .chain(self.vars.keys().map(String::as_str))
            .chain(self.consts.keys().map(String::as_str))
            .chain(["me"])
            .collect()
    }

    fn unknown_name(&self, name: &str, span: Span) -> Diagnostic {
        let mut d = Diagnostic::new(span, format!("unknown name `{name}`"));
        if let Some(s) = suggest(name, self.name_candidates()) {
            d = d.with_help(format!("did you mean `{s}`?"));
        }
        d
    }

    /// `me`-aware constant fold.
    fn fold(&self, e: &Expr) -> Result<i64, Diagnostic> {
        fold_const(e, Some(self.me), self.consts)
    }

    /// Splits an additive expression into (register, constant displacement).
    fn linearize(&self, e: &Expr) -> Result<(Option<u8>, i64), Diagnostic> {
        match e {
            Expr::Name(name, span) => {
                if let Some(&r) = self.regs.get(name.as_str()) {
                    return Ok((Some(r), 0));
                }
                if let Some(&k) = self.consts.get(name.as_str()) {
                    return Ok((None, k));
                }
                match name.as_str() {
                    "me" => Ok((None, self.me as i64)),
                    other if self.vars.contains_key(other) => Err(Diagnostic::new(
                        *span,
                        format!(
                            "shared variable `{other}` cannot be used inline; read it into a \
                             register first"
                        ),
                    )),
                    other => Err(self.unknown_name(other, *span)),
                }
            }
            Expr::Bin(a, op, b) => {
                let (ra, ka) = self.linearize(a)?;
                match op {
                    BinOp::Add | BinOp::Sub => {
                        let (rb, kb) = self.linearize(b)?;
                        let sign = if *op == BinOp::Sub { -1 } else { 1 };
                        if *op == BinOp::Sub && rb.is_some() {
                            return Err(Diagnostic::new(
                                b.span(),
                                "cannot subtract a register; only `reg ± constant` is supported",
                            ));
                        }
                        match (ra, rb) {
                            (Some(_), Some(_)) => Err(Diagnostic::new(
                                e.span(),
                                "at most one register may appear in an operand",
                            )),
                            (r, _) => Ok((r.or(rb), ka + sign * kb)),
                        }
                    }
                    BinOp::Mul => {
                        let kb = self.fold(b)?;
                        if ra.is_some() {
                            return Err(Diagnostic::new(
                                e.span(),
                                "registers cannot be multiplied in an operand",
                            ));
                        }
                        Ok((None, ka.wrapping_mul(kb)))
                    }
                }
            }
            Expr::Neg(a, span) => {
                let (r, k) = self.linearize(a)?;
                if r.is_some() {
                    return Err(Diagnostic::new(*span, "cannot negate a register"));
                }
                Ok((None, -k))
            }
            Expr::Int(..) => Ok((None, self.fold(e)?)),
            Expr::Index(v) => Err(Diagnostic::new(
                v.span,
                "array elements cannot be used inline; read them into a register first",
            )),
        }
    }

    /// Resolves a value operand: immediate, register, or `reg ± k`.
    fn operand(&self, e: &Expr) -> Result<Operand, Diagnostic> {
        match self.linearize(e)? {
            (None, v) => {
                if v < 0 {
                    return Err(Diagnostic::new(
                        e.span(),
                        format!("immediate operands must be non-negative, got {v}"),
                    ));
                }
                Ok(Operand::Imm(v as Value))
            }
            (Some(r), 0) => Ok(Operand::Reg(r)),
            (Some(r), k) => Ok(Operand::RegOff(r, k)),
        }
    }

    /// Resolves a shared-variable reference.
    fn vref(&self, v: &ast::VarRef) -> Result<VRef, Diagnostic> {
        let Some(info) = self.vars.get(&v.name) else {
            return Err(self.unknown_name(&v.name, v.span));
        };
        match (&v.index, info.len) {
            (None, None) => Ok(VRef::Direct(info.base)),
            (None, Some(_)) => Err(Diagnostic::new(
                v.span,
                format!("`{}` is an array; index it with `{}[…]`", v.name, v.name),
            )),
            (Some(_), None) => Err(Diagnostic::new(
                v.span,
                format!("`{}` is a scalar, not an array", v.name),
            )),
            (Some(idx), Some(len)) => match self.linearize(idx)? {
                (None, k) => {
                    if k < 0 || k as u64 >= len {
                        return Err(Diagnostic::new(
                            idx.span(),
                            format!("index {k} is out of bounds for `{}[{len}]`", v.name),
                        ));
                    }
                    Ok(VRef::Direct(info.base + k as u32))
                }
                (Some(r), off) => {
                    let off = i32::try_from(off).map_err(|_| {
                        Diagnostic::new(idx.span(), "index displacement is out of range")
                    })?;
                    Ok(VRef::Indexed {
                        base: info.base,
                        idx: r,
                        off,
                    })
                }
            },
        }
    }

    fn label(&self, name: &str, span: Span) -> Result<Label, Diagnostic> {
        self.labels.get(name).copied().ok_or_else(|| {
            let mut d = Diagnostic::new(span, format!("undefined label `{name}`"));
            if let Some(s) = suggest(name, self.labels.keys().map(String::as_str)) {
                d = d.with_help(format!("did you mean `{s}`?"));
            }
            d
        })
    }

    fn obs_reg(&self, name: &str, span: Span) -> Result<u8, Diagnostic> {
        self.regs
            .get(name)
            .copied()
            .ok_or_else(|| self.unknown_name(name, span))
    }
}

/// Lowers one `proc` block for process `me`; returns the bytecode and
/// the register name map (the forbid compiler needs it).
fn lower_block(
    block: &ast::ProcBlock,
    me: usize,
    consts: &Consts,
    vars: &HashMap<String, VarInfo>,
    symmetric: bool,
) -> Result<(Bytecode, HashMap<String, u8>), Diagnostic> {
    // Pass 0: the names any instantiation declares, then this process'
    // items with compile-time `if`s resolved.
    let (mut all_regs, mut all_labels) = (HashSet::new(), Vec::new());
    walk(&block.items, &mut |item| match item {
        PItem::Reg { name, .. } => {
            all_regs.insert(name.as_str());
        }
        PItem::Label { name, .. } => all_labels.push(name.as_str()),
        _ => {}
    });
    let mut items = Vec::new();
    flatten(&block.items, me, consts, &all_regs, &mut items)?;

    // Pass 1: registers and label names.
    let mut regs: HashMap<String, u8> = HashMap::new();
    let mut reg_inits: Vec<(u8, &Option<Expr>)> = Vec::new();
    let mut reg_kinds: Vec<(u8, RegKind, Option<&str>)> = Vec::new();
    let mut label_names: Vec<(String, Span)> = Vec::new();
    for &item in &items {
        match item {
            PItem::Reg {
                name,
                span,
                kind,
                scope,
                init,
            } => {
                if regs.contains_key(name) {
                    return Err(Diagnostic::new(
                        *span,
                        format!("register `{name}` is declared twice"),
                    ));
                }
                if vars.contains_key(name) || name == "me" || consts.contains_key(name) {
                    return Err(Diagnostic::new(
                        *span,
                        format!("register `{name}` shadows a variable or reserved constant"),
                    ));
                }
                let idx = regs.len();
                if idx >= NREGS {
                    return Err(Diagnostic::new(
                        *span,
                        format!("too many registers (the VM has {NREGS})"),
                    ));
                }
                regs.insert(name.clone(), idx as u8);
                reg_inits.push((idx as u8, init));
                if let Some((kname, kspan)) = kind {
                    let k = parse_reg_kind(kname, *kspan)?;
                    if k != RegKind::Plain {
                        if !symmetric {
                            return Err(Diagnostic::new(
                                *kspan,
                                "register kinds only apply to `symmetric` scenarios",
                            )
                            .with_help(
                                "add a top-level `symmetric` declaration or drop the kind",
                            ));
                        }
                        if let Some((label, lspan)) = scope {
                            if !all_labels.contains(&label.as_str()) {
                                let mut d =
                                    Diagnostic::new(*lspan, format!("undefined label `{label}`"));
                                if let Some(s) = suggest(label, all_labels.iter().copied()) {
                                    d = d.with_help(format!("did you mean `{s}`?"));
                                }
                                return Err(d);
                            }
                        }
                        reg_kinds.push((idx as u8, k, scope.as_ref().map(|(l, _)| l.as_str())));
                    }
                }
            }
            PItem::Label { name, span } => {
                if label_names.iter().any(|(l, _)| l == name) {
                    return Err(Diagnostic::new(
                        *span,
                        format!("label `{name}` is defined twice"),
                    ));
                }
                label_names.push((name.clone(), *span));
            }
            PItem::Stmt(_) | PItem::Static { .. } => {}
        }
    }

    // Pass 2: emit.
    let mut a = Asm::new();
    let mut ctx = Ctx {
        me,
        consts,
        vars,
        regs,
        labels: HashMap::new(),
    };
    for (name, _) in &label_names {
        let l = a.label();
        ctx.labels.insert(name.clone(), l);
    }
    let mut recover_pc = None;
    for &item in &items {
        match item {
            PItem::Reg { .. } | PItem::Static { .. } => {}
            PItem::Label { name, .. } => {
                a.bind(ctx.labels[name]);
                if name == "recover" {
                    recover_pc = Some(a.len() as u16);
                }
            }
            PItem::Stmt(stmt) => emit_stmt(&mut a, &ctx, stmt)?,
        }
    }
    if a.is_empty() {
        return Err(Diagnostic::new(block.span, "empty `proc` block"));
    }

    let mut init_regs = [0 as Value; NREGS];
    for (idx, init) in &reg_inits {
        if let Some(e) = init {
            let v = ctx.fold(e)?;
            if v < 0 {
                return Err(Diagnostic::new(
                    e.span(),
                    format!("register initial values must be non-negative, got {v}"),
                ));
            }
            init_regs[*idx as usize] = v as Value;
        }
    }

    // A kind without a scope holds at every pc; a scoped kind only at
    // its label's rest point, if this process emitted that label.
    let sym = if !symmetric {
        SymMode::Asymmetric
    } else if reg_kinds.is_empty() {
        SymMode::Equivariant
    } else {
        let mut rows = vec![[RegKind::Plain; NREGS]; a.len()];
        for &(idx, kind, scope) in &reg_kinds {
            match scope {
                None => rows.iter_mut().for_each(|row| row[idx as usize] = kind),
                Some(label) => {
                    if let Some(row) = ctx
                        .labels
                        .get(label)
                        .and_then(|&l| rows.get_mut(a.pc_of(l) as usize))
                    {
                        row[idx as usize] = kind;
                    }
                }
            }
        }
        SymMode::Kinds(rows)
    };
    Ok((
        Bytecode {
            code: a.finish(),
            init_regs,
            recover_pc,
            sym,
            me: me as u32,
        },
        ctx.regs,
    ))
}

fn emit_stmt(a: &mut Asm, ctx: &Ctx, stmt: &Stmt) -> Result<(), Diagnostic> {
    match stmt {
        Stmt::Simple(kind, _) => {
            match kind {
                SimpleKind::Enter => a.enter(),
                SimpleKind::Cs => a.cs(),
                SimpleKind::Exit => a.exit(),
                SimpleKind::Fence => a.fence(),
                SimpleKind::Halt => a.halt(),
            }
            Ok(())
        }
        Stmt::Goto(name, span) => {
            let l = ctx.label(name, *span)?;
            a.jmp(l);
            Ok(())
        }
        Stmt::If {
            a: lhs,
            cmp,
            b: rhs,
            target,
            ..
        } => {
            let (lhs, rhs) = (ctx.operand(lhs)?, ctx.operand(rhs)?);
            let l = ctx.label(&target.0, target.1)?;
            a.br(lhs, *cmp, rhs, l);
            Ok(())
        }
        Stmt::When {
            var,
            cmp,
            rhs,
            jt,
            jf,
            ..
        } => {
            let v = ctx.vref(var)?;
            let rhs = ctx.operand(rhs)?;
            let (jt, jf) = (ctx.label(&jt.0, jt.1)?, ctx.label(&jf.0, jf.1)?);
            a.read_br(v, *cmp, rhs, jt, jf);
            Ok(())
        }
        Stmt::Cas {
            obs,
            var,
            expected,
            new,
            ok,
            fail,
            ..
        } => {
            let v = ctx.vref(var)?;
            let (expected, new) = (ctx.operand(expected)?, ctx.operand(new)?);
            let (ok_obs, fail_obs) = match obs {
                CasObs::None => (DISCARD, DISCARD),
                CasObs::One(r, s) => {
                    let r = ctx.obs_reg(r, *s)?;
                    (r, r)
                }
                CasObs::Two((r1, s1), (r2, s2)) => (ctx.obs_reg(r1, *s1)?, ctx.obs_reg(r2, *s2)?),
            };
            let (ok, fail) = (ctx.label(&ok.0, ok.1)?, ctx.label(&fail.0, fail.1)?);
            a.cas(v, expected, new, ok_obs, fail_obs, ok, fail);
            Ok(())
        }
        Stmt::Assign { lhs, op, rhs, span } => emit_assign(a, ctx, lhs, *op, rhs, *span),
        Stmt::Invoke { op, arg, .. } => {
            let opc = ctx.fold(op)?;
            if opc < 0 || opc > u32::MAX as i64 {
                return Err(Diagnostic::new(op.span(), "operation code is out of range"));
            }
            let arg = ctx.operand(arg)?;
            a.invoke(opc as u32, arg);
            Ok(())
        }
        Stmt::Return { src, .. } => {
            let src = ctx.operand(src)?;
            a.ret(src);
            Ok(())
        }
    }
}

fn emit_assign(
    a: &mut Asm,
    ctx: &Ctx,
    lhs: &ast::VarRef,
    op: AssignOp,
    rhs: &Expr,
    span: Span,
) -> Result<(), Diagnostic> {
    // Register destination?
    if lhs.index.is_none() {
        if let Some(&reg) = ctx.regs.get(&lhs.name) {
            match op {
                AssignOp::Add | AssignOp::Sub => {
                    let k = ctx.fold(rhs)?;
                    let delta = if op == AssignOp::Sub { -k } else { k };
                    a.add(reg, delta);
                    return Ok(());
                }
                AssignOp::Set => {
                    // Shared read: `r = x` or `r = x[i]`.
                    match rhs {
                        Expr::Name(name, _) if ctx.vars.contains_key(name) => {
                            let v = ctx.vref(&ast::VarRef {
                                name: name.clone(),
                                span: rhs.span(),
                                index: None,
                            })?;
                            a.read(v, reg);
                            return Ok(());
                        }
                        Expr::Index(vr) if ctx.vars.contains_key(&vr.name) => {
                            let v = ctx.vref(vr)?;
                            a.read(v, reg);
                            return Ok(());
                        }
                        _ => {}
                    }
                    // Local register instruction.
                    return match ctx.linearize(rhs)? {
                        (None, v) => {
                            if v < 0 {
                                return Err(Diagnostic::new(
                                    rhs.span(),
                                    format!("register constants must be non-negative, got {v}"),
                                ));
                            }
                            a.li(reg, v as Value);
                            Ok(())
                        }
                        (Some(src), 0) => {
                            a.mov(reg, src);
                            Ok(())
                        }
                        (Some(src), k) if src == reg => {
                            a.add(reg, k);
                            Ok(())
                        }
                        (Some(_), _) => {
                            Err(
                                Diagnostic::new(span, "unsupported register expression").with_help(
                                    "registers support `r = const`, `r = other`, `r = x[…]`, and \
                             `r += const`; three-address arithmetic is not in the instruction set",
                                ),
                            )
                        }
                    };
                }
            }
        }
    }
    // Shared-variable destination.
    if ctx.vars.contains_key(&lhs.name) {
        if op != AssignOp::Set {
            return Err(Diagnostic::new(
                span,
                "`+=`/`-=` on a shared variable is not atomic in this machine",
            )
            .with_help("read into a register, modify, and write back — or use `cas`"));
        }
        let v = ctx.vref(lhs)?;
        let val = ctx.operand(rhs)?;
        a.write(v, val);
        return Ok(());
    }
    Err(ctx.unknown_name(&lhs.name, lhs.span))
}

fn lower_bexpr(
    e: &ast::BExpr,
    consts: &Consts,
    vars: &HashMap<String, VarInfo>,
    reg_maps: &[HashMap<String, u8>],
) -> Result<FExpr, Diagnostic> {
    Ok(match e {
        ast::BExpr::And(x, y) => FExpr::And(
            Box::new(lower_bexpr(x, consts, vars, reg_maps)?),
            Box::new(lower_bexpr(y, consts, vars, reg_maps)?),
        ),
        ast::BExpr::Or(x, y) => FExpr::Or(
            Box::new(lower_bexpr(x, consts, vars, reg_maps)?),
            Box::new(lower_bexpr(y, consts, vars, reg_maps)?),
        ),
        ast::BExpr::Not(x) => FExpr::Not(Box::new(lower_bexpr(x, consts, vars, reg_maps)?)),
        ast::BExpr::Cmp(a, cmp, b) => FExpr::Cmp(
            lower_fterm(a, consts, vars, reg_maps)?,
            *cmp,
            lower_fterm(b, consts, vars, reg_maps)?,
        ),
    })
}

fn lower_fterm(
    t: &ast::FTerm,
    consts: &Consts,
    vars: &HashMap<String, VarInfo>,
    reg_maps: &[HashMap<String, u8>],
) -> Result<FVal, Diagnostic> {
    match t {
        ast::FTerm::Int(v, _) => Ok(FVal::Const(*v)),
        ast::FTerm::Reg { pid, reg, span } => {
            let n = reg_maps.len();
            if *pid as usize >= n {
                return Err(Diagnostic::new(
                    *span,
                    format!("process p{pid} does not exist (the scenario has {n})"),
                ));
            }
            let map = &reg_maps[*pid as usize];
            let Some(&idx) = map.get(reg) else {
                let mut d =
                    Diagnostic::new(*span, format!("process p{pid} has no register `{reg}`"));
                if let Some(s) = suggest(reg, map.keys().map(String::as_str)) {
                    d = d.with_help(format!("did you mean `{s}`?"));
                }
                return Err(d);
            };
            Ok(FVal::Reg(*pid as u32, idx))
        }
        ast::FTerm::Mem(vr) => {
            let Some(info) = vars.get(&vr.name) else {
                let mut d = Diagnostic::new(vr.span, format!("unknown variable `{}`", vr.name));
                if let Some(s) = suggest(&vr.name, vars.keys().map(String::as_str)) {
                    d = d.with_help(format!("did you mean `{s}`?"));
                }
                return Err(d);
            };
            match (&vr.index, info.len) {
                (None, None) => Ok(FVal::Mem(info.base)),
                (Some(idx), Some(len)) => {
                    let k = fold_const(idx, None, consts)?;
                    if k < 0 || k as u64 >= len {
                        return Err(Diagnostic::new(
                            idx.span(),
                            format!("index {k} is out of bounds for `{}[{len}]`", vr.name),
                        ));
                    }
                    Ok(FVal::Mem(info.base + k as u32))
                }
                (None, Some(_)) => Err(Diagnostic::new(
                    vr.span,
                    format!("`{}` is an array; index it with a constant", vr.name),
                )),
                (Some(_), None) => Err(Diagnostic::new(
                    vr.span,
                    format!("`{}` is a scalar, not an array", vr.name),
                )),
            }
        }
    }
}
