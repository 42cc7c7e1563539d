//! Abstract syntax for `.tpa` scenario files.
//!
//! The tree stays close to the surface syntax: names are kept as strings
//! with spans and nothing is resolved — the lowering pass
//! ([`crate::lower`]) decides whether `x` is a shared variable, a
//! register, or the reserved constants `me`/`n`, and reports resolution
//! errors against the recorded spans.

use tpa_tso::Cmp;

use crate::diag::Span;

/// A parsed scenario file.
#[derive(Clone, Debug, Default)]
pub struct File {
    /// `scenario NAME` — the scenario's name.
    pub name: Option<(String, Span)>,
    /// `procs N` — number of processes (the constant `n`).
    pub procs: Option<(u64, Span)>,
    /// `param NAME = N` — named constants a caller may override.
    pub params: Vec<ParamDecl>,
    /// `symmetric` — declares full process symmetry.
    pub symmetric: Option<Span>,
    /// Shared-variable declarations, in declaration order.
    pub vars: Vec<VarDecl>,
    /// Process code blocks (`proc*` template or explicit `proc` blocks).
    pub blocks: Vec<ProcBlock>,
    /// `forbid EXPR` — forbidden terminal-state predicates.
    pub forbids: Vec<ForbidDecl>,
    /// `assert NAME` — named invariant requests.
    pub asserts: Vec<(AssertKind, Span)>,
    /// `check MODEL … expect …` clauses, in order.
    pub checks: Vec<CheckDecl>,
    /// `twin "lock" passages P` — native differential twin metadata.
    pub twin: Option<TwinDecl>,
}

/// One `param NAME = N` declaration: a compile-time constant with a
/// default, which [`crate::compile_with`] may override.
#[derive(Clone, Debug)]
pub struct ParamDecl {
    /// Constant name.
    pub name: String,
    /// Span of the name.
    pub span: Span,
    /// Default value.
    pub value: u64,
}

/// One `var` or `array` declaration.
#[derive(Clone, Debug)]
pub struct VarDecl {
    /// Variable (or array base) name.
    pub name: String,
    /// Span of the name.
    pub span: Span,
    /// Array length, if this is an `array` declaration.
    pub len: Option<Expr>,
    /// Initial value (defaults to 0).
    pub init: Option<Expr>,
    /// `= {e, e, …}` — per-element initial values (arrays only). The
    /// list length must match the declared array length unless it ends
    /// in `..`, which leaves the remaining elements at 0.
    pub init_list: Option<Vec<Expr>>,
    /// Whether the element list ends in `..`.
    pub init_rest: bool,
    /// Symmetry/ownership annotations.
    pub annots: Vec<Annot>,
}

/// A symmetry or ownership annotation on a variable declaration.
#[derive(Clone, Debug)]
pub enum Annot {
    /// `pid_indexed` — element `i` belongs to process `i`'s role.
    PidIndexed(Span),
    /// `pid_valued(zero_based | one_based)` — values encode pids.
    PidValued(String, Span),
    /// `local` — array element `i` is DSM-local to process `i`.
    Local(Span),
    /// `owner(E)` — scalar owned by the process `E` evaluates to.
    Owner(Expr, Span),
}

/// One process code block.
#[derive(Clone, Debug)]
pub struct ProcBlock {
    /// `true` for `proc*` (one template instantiated per process).
    pub template: bool,
    /// Span of the `proc` keyword.
    pub span: Span,
    /// Register declarations, labels and statements, in order.
    pub items: Vec<PItem>,
}

/// One item inside a `proc` block.
#[derive(Clone, Debug)]
pub enum PItem {
    /// `reg NAME [: KIND] [= INIT]`.
    Reg {
        /// Register name.
        name: String,
        /// Span of the name.
        span: Span,
        /// Optional symmetry kind (`one_based`, `zero_idx`, …).
        kind: Option<(String, Span)>,
        /// `at LABEL` — the kind applies only while the program counter
        /// rests at that label; without it, at every pc.
        scope: Option<(String, Span)>,
        /// Optional initial value (defaults to 0).
        init: Option<Expr>,
    },
    /// `NAME:` — a label. The name `recover` marks the crash-recovery
    /// entry point.
    Label {
        /// Label name.
        name: String,
        /// Span of the name.
        span: Span,
    },
    /// An executable statement.
    Stmt(Stmt),
    /// `if COND { … } [else { … }]` — a compile-time choice between two
    /// item lists; `COND` may only use constants (`me`, `n`, params).
    Static {
        /// The condition.
        cond: StaticCond,
        /// Items kept when the condition holds.
        then: Vec<PItem>,
        /// Items kept otherwise.
        els: Vec<PItem>,
    },
}

/// The condition of a compile-time `if { … }`: `A CMP B`, or a bare
/// `A` meaning `A != 0`.
#[derive(Clone, Debug)]
pub struct StaticCond {
    /// Left operand.
    pub a: Expr,
    /// Comparison and right operand, if any.
    pub cmp: Option<(Cmp, Expr)>,
}

/// The keyword statements that lower to a single marker instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimpleKind {
    /// `enter`
    Enter,
    /// `cs`
    Cs,
    /// `exit`
    Exit,
    /// `fence`
    Fence,
    /// `halt`
    Halt,
}

/// Which registers observe a CAS's pre-swap value.
#[derive(Clone, Debug)]
pub enum CasObs {
    /// `cas(…)` — discard on both paths.
    None,
    /// `r = cas(…)` — observe into `r` on both paths.
    One(String, Span),
    /// `r1/r2 = cas(…)` — `r1` on success, `r2` on failure.
    Two((String, Span), (String, Span)),
}

/// An executable statement.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// `enter` / `cs` / `exit` / `fence` / `halt`.
    Simple(SimpleKind, Span),
    /// `goto L`.
    Goto(String, Span),
    /// `if A CMP B goto L` — a local branch over registers/constants.
    If {
        /// Left operand.
        a: Expr,
        /// Predicate.
        cmp: Cmp,
        /// Right operand.
        b: Expr,
        /// Branch target label.
        target: (String, Span),
        /// Statement span.
        span: Span,
    },
    /// `when V CMP B goto L else M` — a shared read fused with a
    /// test-and-discard branch ([`tpa_tso::BInstr::ReadBr`]).
    When {
        /// The shared variable read.
        var: VarRef,
        /// Predicate applied to the read value.
        cmp: Cmp,
        /// Right-hand side.
        rhs: Expr,
        /// Target when the predicate holds.
        jt: (String, Span),
        /// Target when it does not.
        jf: (String, Span),
        /// Statement span.
        span: Span,
    },
    /// `[obs =] cas(V, EXPECTED, NEW) goto OK else FAIL`.
    Cas {
        /// Observation registers.
        obs: CasObs,
        /// The shared variable.
        var: VarRef,
        /// Expected value.
        expected: Expr,
        /// Replacement value.
        new: Expr,
        /// Target on success.
        ok: (String, Span),
        /// Target on failure.
        fail: (String, Span),
        /// Statement span.
        span: Span,
    },
    /// `LHS = RHS`, `LHS += K`, `LHS -= K` — resolved during lowering to
    /// a read, write, or local register instruction.
    Assign {
        /// Left-hand side (register or shared variable reference).
        lhs: VarRef,
        /// Assignment operator.
        op: AssignOp,
        /// Right-hand side.
        rhs: Expr,
        /// Statement span.
        span: Span,
    },
    /// `invoke OP, ARG` — begin an object operation.
    Invoke {
        /// Operation code.
        op: Expr,
        /// Argument operand.
        arg: Expr,
        /// Statement span.
        span: Span,
    },
    /// `return SRC` — complete an object operation.
    Return {
        /// Result operand.
        src: Expr,
        /// Statement span.
        span: Span,
    },
}

/// The assignment operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AssignOp {
    /// `=`
    Set,
    /// `+=`
    Add,
    /// `-=`
    Sub,
}

/// A possibly-indexed name: `x` or `x[E]`.
#[derive(Clone, Debug)]
pub struct VarRef {
    /// The base name.
    pub name: String,
    /// Span of the base name.
    pub span: Span,
    /// The index expression, if any.
    pub index: Option<Box<Expr>>,
}

/// An arithmetic expression over integers, `me`, `n`, and registers.
#[derive(Clone, Debug)]
pub enum Expr {
    /// An integer literal.
    Int(u64, Span),
    /// A name (`me`, `n`, a register, or — as an assignment RHS — a
    /// shared variable).
    Name(String, Span),
    /// `name[E]` — only legal as an assignment RHS (a shared array read).
    Index(VarRef),
    /// `a OP b`.
    Bin(Box<Expr>, BinOp, Box<Expr>),
    /// `-a`.
    Neg(Box<Expr>, Span),
}

impl Expr {
    /// The source span of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, s) | Expr::Name(_, s) | Expr::Neg(_, s) => *s,
            Expr::Index(v) => v.span,
            Expr::Bin(a, _, b) => a.span().to(b.span()),
        }
    }
}

/// Binary arithmetic operators in [`Expr`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
}

/// The named invariants `assert` can request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AssertKind {
    /// Mutual exclusion of critical sections.
    Exclusion,
    /// Terminal quiescence (every terminal state is halted-and-drained).
    Liveness,
    /// Exclusion across crash/recovery.
    CrashExclusion,
    /// Crashed processes eventually make progress again.
    Recovery,
}

/// A `forbid` declaration: a predicate over terminal states.
#[derive(Clone, Debug)]
pub struct ForbidDecl {
    /// The predicate.
    pub expr: BExpr,
    /// Span of the whole declaration.
    pub span: Span,
    /// The predicate's source text (for violation messages).
    pub text: String,
}

/// A boolean predicate in a `forbid` declaration.
#[derive(Clone, Debug)]
pub enum BExpr {
    /// `a && b`
    And(Box<BExpr>, Box<BExpr>),
    /// `a || b`
    Or(Box<BExpr>, Box<BExpr>),
    /// `!a`
    Not(Box<BExpr>),
    /// `A CMP B`
    Cmp(FTerm, Cmp, FTerm),
}

/// A term in a `forbid` predicate.
#[derive(Clone, Debug)]
pub enum FTerm {
    /// An integer literal.
    Int(u64, Span),
    /// `pK.R` — register `R` of process `K` in the terminal state.
    Reg {
        /// Process index.
        pid: u64,
        /// Register name.
        reg: String,
        /// Term span.
        span: Span,
    },
    /// A shared variable's committed value in the terminal state.
    Mem(VarRef),
}

/// One `check` clause.
#[derive(Clone, Debug)]
pub struct CheckDecl {
    /// Memory model to check under.
    pub model: tpa_tso::MemoryModel,
    /// `steps N` — schedule-length bound override.
    pub steps: Option<u64>,
    /// `crashes N` — crash-fault budget.
    pub crashes: u64,
    /// `transitions N` — transition-budget override.
    pub transitions: Option<u64>,
    /// Expected verdict.
    pub expect: Expect,
    /// Clause span.
    pub span: Span,
}

/// The verdict a `check` clause expects.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Expect {
    /// The invariant battery must hold everywhere.
    Pass,
    /// The search must find a violation.
    Violation,
}

/// `twin "lock" passages P` metadata.
#[derive(Clone, Debug)]
pub struct TwinDecl {
    /// The native lock's registry name (see `tpa_algos::lock_by_name`).
    pub lock: String,
    /// Passages per process the twin was instantiated with.
    pub passages: u64,
    /// Declaration span.
    pub span: Span,
}
