//! Rendered-diagnostic snapshots for the scenario DSL: the exact caret
//! display a user sees for representative mistakes. Exact-string
//! comparisons on purpose — a diagnostic regression is a UX regression
//! even when the compiler still rejects the program.

use tpa::dsl;

fn render(src: &str) -> String {
    match dsl::compile(src) {
        Ok(_) => panic!("source unexpectedly compiled:\n{src}"),
        Err(d) => d.render(src, "snippet.tpa"),
    }
}

#[test]
fn unknown_variable_suggests_the_nearest_declaration() {
    let src = "scenario t\nprocs 1\nvar flag\nproc* { flagg = 1  halt }\n";
    assert_eq!(
        render(src),
        "error: unknown name `flagg`\n  \
         --> snippet.tpa:4:9\n   \
         |\n   \
         | proc* { flagg = 1  halt }\n   \
         |         ^^^^^\n   \
         = help: did you mean `flag`?\n"
    );
}

#[test]
fn unknown_label_suggests_the_nearest_label() {
    let src = "scenario t\nprocs 1\nproc* {\nloop:\n  goto lop\n}\n";
    assert_eq!(
        render(src),
        "error: undefined label `lop`\n  \
         --> snippet.tpa:5:8\n   \
         |\n   \
         |   goto lop\n   \
         |        ^^^\n   \
         = help: did you mean `loop`?\n"
    );
}

#[test]
fn scalar_declarations_reject_element_lists() {
    let src = "scenario t\nprocs 1\nvar x = {1, 2}\nproc* { halt }\n";
    assert_eq!(
        render(src),
        "error: per-element initial values `{…}` only apply to `array` declarations\n  \
         --> snippet.tpa:3:9\n   \
         |\n   \
         | var x = {1, 2}\n   \
         |         ^\n"
    );
}

#[test]
fn array_element_lists_must_match_the_declared_length() {
    let src = "scenario t\nprocs 1\narray g[3] = {1, 0}\nproc* { halt }\n";
    assert_eq!(
        render(src),
        "error: `g` declares 3 elements but initialises 2\n  \
         --> snippet.tpa:3:7\n   \
         |\n   \
         | array g[3] = {1, 0}\n   \
         |       ^\n"
    );
}

#[test]
fn unknown_memory_model_names_the_supported_ones() {
    let src = "scenario t\nprocs 1\nproc* { halt }\ncheck sc expect pass\n";
    assert_eq!(
        render(src),
        "error: unknown memory model `sc`\n  \
         --> snippet.tpa:4:7\n   \
         |\n   \
         | check sc expect pass\n   \
         |       ^^\n   \
         = help: the supported models are `tso` and `pso`\n"
    );
}

#[test]
fn register_kinds_require_a_symmetric_scenario() {
    let src = "scenario t\nprocs 2\nproc* { reg p: one_based  halt }\n";
    assert_eq!(
        render(src),
        "error: register kinds only apply to `symmetric` scenarios\n  \
         --> snippet.tpa:3:16\n   \
         |\n   \
         | proc* { reg p: one_based  halt }\n   \
         |                ^^^^^^^^^\n   \
         = help: add a top-level `symmetric` declaration or drop the kind\n"
    );
}

#[test]
fn compile_time_blocks_cannot_read_registers() {
    let src = "scenario t\nprocs 1\nproc* {\n  reg j\n  if j == 0 { fence }\n  halt\n}\n";
    assert_eq!(
        render(src),
        "error: a compile-time `if { … }` cannot read a register\n  \
         --> snippet.tpa:5:6\n   \
         |\n   \
         |   if j == 0 { fence }\n   \
         |      ^\n   \
         = help: branch at run time with `if A CMP B goto LABEL`\n"
    );
}

#[test]
fn overriding_an_undeclared_constant_suggests_a_declared_one() {
    let src = "scenario t\nprocs 1\nparam passages = 1\nproc* { halt }\n";
    let rendered = match dsl::compile_with(src, &[("pasages", 2)]) {
        Ok(_) => panic!("override of an undeclared constant was accepted"),
        Err(d) => d.render(src, "snippet.tpa"),
    };
    assert_eq!(
        rendered,
        "error: cannot override `pasages`: the scenario declares no such constant\n  \
         --> snippet.tpa:2:7\n   \
         |\n   \
         | procs 1\n   \
         |       ^\n   \
         = help: did you mean `passages`?\n"
    );
}

#[test]
fn scoped_register_kinds_name_a_defined_label() {
    let src = "scenario t\nprocs 2\nsymmetric\narray b[n] pid_indexed\nproc* {\n  \
               reg j: scan_skip_self at wiatb\nwaitb:\n  when b[j] == 0 goto waitb else waitb\n}\n";
    assert_eq!(
        render(src),
        "error: undefined label `wiatb`\n  \
         --> snippet.tpa:6:28\n   \
         |\n   \
         |   reg j: scan_skip_self at wiatb\n   \
         |                            ^^^^^\n   \
         = help: did you mean `waitb`?\n"
    );
}
