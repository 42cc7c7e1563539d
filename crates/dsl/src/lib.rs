//! A small text frontend for the TSO/PSO checker: `.tpa` scenario
//! files compile through a lexer → parser → lowering pipeline into the
//! same [`tpa_tso::VmSystem`] bytecode the native lock compilers
//! target, so everything downstream — the checker, symmetry reduction,
//! crash faults — works on DSL scenarios unchanged.
//!
//! A scenario declares shared variables (with the symmetry annotations
//! from `tpa_tso::vars`), per-process code blocks whose statements map
//! one-for-one onto bytecode instructions, and the properties to check:
//!
//! ```text
//! scenario sb            # store buffering
//! procs 2
//!
//! var x
//! var y
//!
//! proc 0 { reg a  x = 1  a = y  halt }
//! proc 1 { reg b  y = 1  b = x  halt }
//!
//! forbid p0.a == 0 && p1.b == 0
//! check tso expect violation   # TSO reorders the reads past the writes
//! check pso expect violation
//! ```
//!
//! Each statement lowers to exactly one instruction, and compile-time
//! `if COND { … } else { … }` blocks over constants (`me`, `n`, and
//! `param`s) choose which statements a process gets. The lock ports
//! under `scenarios/locks/` are the bytecode source of the portfolio
//! locks: `tpa-algos` lowers them with the caller's `n`, passage count
//! and variant flags, and the corpus pins each against its native
//! `Program` by verdict *and* state count.
//!
//! Entry points: [`compile`] for source text, [`compile_with`] to
//! override declared constants, [`compile_named`] to tag diagnostics
//! with a file name. Errors are [`Diagnostic`]s carrying byte spans;
//! render them with [`Diagnostic::render`].

#![warn(missing_docs)]

pub mod ast;
pub mod diag;
pub mod lexer;
pub mod lower;
pub mod parser;

pub use ast::{AssertKind, Expect};
pub use diag::{suggest, Diagnostic, Span};
pub use lower::{Check, CompiledScenario, Forbid, Twin, MAX_PROCS};
pub use parser::parse;

/// Compiles scenario source to a checkable [`CompiledScenario`].
pub fn compile(src: &str) -> Result<CompiledScenario, Diagnostic> {
    compile_with(src, &[])
}

/// [`compile`] with the declared values of some constants replaced:
/// `("n", k)` sets the process count, and any other name must be a
/// `param` the source declares (`param passages = 1`).
pub fn compile_with(src: &str, consts: &[(&str, u64)]) -> Result<CompiledScenario, Diagnostic> {
    lower::lower(&parser::parse(src)?, consts)
}

/// [`compile`], pre-rendering any diagnostic against `origin` (a file
/// name) so callers that don't keep the source around still get the
/// caret display.
pub fn compile_named(src: &str, origin: &str) -> Result<CompiledScenario, String> {
    compile(src).map_err(|d| d.render(src, origin))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpa_tso::System;

    const SB: &str = "
        scenario sb
        procs 2
        var x
        var y
        proc 0 { reg a  x = 1  a = y  halt }
        proc 1 { reg b  y = 1  b = x  halt }
        forbid p0.a == 0 && p1.b == 0
        check tso expect violation
        check pso expect violation
    ";

    #[test]
    fn compiles_store_buffering() {
        let s = compile(SB).expect("sb compiles");
        assert_eq!(s.name, "sb");
        assert_eq!(s.procs, 2);
        assert_eq!(s.system.n(), 2);
        assert_eq!(s.forbids.len(), 1);
        assert_eq!(s.checks.len(), 2);
        assert!(!s.symmetric);
    }

    #[test]
    fn template_scenarios_expand_me() {
        let s = compile(
            "scenario t procs 3 symmetric
             array slot[n]
             proc* { reg a  slot[me] = me + 1  a = slot[me]  halt }",
        )
        .expect("template compiles");
        assert_eq!(s.system.n(), 3);
        assert!(s.symmetric);
    }

    #[test]
    fn overridden_constants_size_arrays_and_pick_blocks() {
        let src = "scenario t procs 2 param passages = 1
             array grant[n * passages + 1] = {1, ..}
             array victim[n - 1]
             proc* { reg left = passages  if n == 1 { halt } else { fence  halt } }";
        let s = compile_with(src, &[("n", 1), ("passages", 3)]).expect("compiles");
        assert_eq!(s.system.n(), 1);
        assert_eq!(
            s.system.vars().count(),
            4,
            "three grant slots, no victim slot"
        );
        let code = s.system.bytecode(tpa_tso::ProcId(0));
        assert_eq!(code.init_regs[0], 3);
        assert_eq!(code.code.len(), 1, "only the `n == 1` arm is emitted");
    }

    #[test]
    fn unknown_names_get_suggestions() {
        let err = compile(
            "scenario t procs 1
             var flag
             proc* { flagg = 1  halt }",
        )
        .map(|_| ())
        .unwrap_err();
        let help = err.help.as_deref().unwrap_or_default();
        assert!(help.contains("flag"), "{err:?}");
    }
}
