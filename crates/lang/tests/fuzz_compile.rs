//! Fuzz-style totality tests: randomly generated well-formed MiniC
//! programs must compile, run without host panics, and round-trip through
//! the pretty-printer; random byte soup must produce errors, not panics.

use proptest::prelude::*;
use swifi_lang::{compile, parser::parse, pretty::print_program};
use swifi_vm::machine::{Machine, MachineConfig, RunOutcome};
use swifi_vm::Noop;

/// A tiny generator of well-formed programs: straight-line integer
/// arithmetic with loops and conditionals over a fixed variable pool.
#[derive(Debug, Clone)]
enum GenStmt {
    Assign {
        var: usize,
        a: usize,
        b: usize,
        op: usize,
        lit: i8,
    },
    If {
        var: usize,
        cmp: usize,
        lit: i8,
        then_var: usize,
    },
    Loop {
        var: usize,
        bound: u8,
        body_var: usize,
    },
    Print {
        var: usize,
    },
}

fn arb_stmt() -> impl Strategy<Value = GenStmt> {
    prop_oneof![
        (0usize..4, 0usize..4, 0usize..4, 0usize..6, any::<i8>())
            .prop_map(|(var, a, b, op, lit)| GenStmt::Assign { var, a, b, op, lit }),
        (0usize..4, 0usize..6, any::<i8>(), 0usize..4).prop_map(|(var, cmp, lit, then_var)| {
            GenStmt::If {
                var,
                cmp,
                lit,
                then_var,
            }
        }),
        (0usize..4, 0u8..20, 0usize..4).prop_map(|(var, bound, body_var)| GenStmt::Loop {
            var,
            bound,
            body_var
        }),
        (0usize..4).prop_map(|var| GenStmt::Print { var }),
    ]
}

fn render(stmts: &[GenStmt]) -> String {
    let vars = ["v0", "v1", "v2", "v3"];
    let ops = ["+", "-", "*", "/", "%", "^"];
    let cmps = ["<", "<=", ">", ">=", "==", "!="];
    let mut src = String::from("void main() {\n");
    for v in vars {
        src.push_str(&format!("  int {v};\n"));
    }
    for v in vars {
        src.push_str(&format!("  {v} = 1;\n"));
    }
    let mut loop_var = 0;
    for s in stmts {
        match s {
            GenStmt::Assign { var, a, b, op, lit } => {
                // Guard divisions: divide by a non-zero literal instead.
                if *op == 3 || *op == 4 {
                    let d = (*lit as i32).unsigned_abs() % 7 + 1;
                    src.push_str(&format!(
                        "  {} = {} {} {};\n",
                        vars[*var], vars[*a], ops[*op], d
                    ));
                } else {
                    src.push_str(&format!(
                        "  {} = {} {} ({} + {});\n",
                        vars[*var], vars[*a], ops[*op], vars[*b], lit
                    ));
                }
            }
            GenStmt::If {
                var,
                cmp,
                lit,
                then_var,
            } => {
                src.push_str(&format!(
                    "  if ({} {} {}) {{ {} = {} + 1; }}\n",
                    vars[*var], cmps[*cmp], lit, vars[*then_var], vars[*then_var]
                ));
            }
            GenStmt::Loop {
                var,
                bound,
                body_var,
            } => {
                // Fresh counter per loop keeps termination trivial.
                let c = format!("c{loop_var}");
                loop_var += 1;
                src = src.replacen(
                    "void main() {\n",
                    &format!("void main() {{\n  int {c};\n"),
                    1,
                );
                src.push_str(&format!(
                    "  for ({c} = 0; {c} < {bound}; {c} = {c} + 1) {{ {} = {} + {}; }}\n",
                    vars[*var], vars[*var], vars[*body_var]
                ));
            }
            GenStmt::Print { var } => {
                src.push_str(&format!("  print_int({});\n", vars[*var]));
            }
        }
    }
    src.push_str("}\n");
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated programs always compile and terminate without host
    /// panics; outcomes are completed runs (terminating loops, guarded
    /// divisions).
    #[test]
    fn generated_programs_compile_and_run(stmts in proptest::collection::vec(arb_stmt(), 0..25)) {
        let src = render(&stmts);
        let p = compile(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let mut m = Machine::new(MachineConfig { budget: 5_000_000, ..MachineConfig::default() });
        m.load(&p.image);
        match m.run(&mut Noop) {
            RunOutcome::Completed { exit_code: 0, .. } => {}
            other => panic!("abnormal outcome {other:?} for\n{src}"),
        }
    }

    /// Generated programs round-trip through the pretty printer with
    /// identical behaviour.
    #[test]
    fn generated_programs_pretty_round_trip(stmts in proptest::collection::vec(arb_stmt(), 0..15)) {
        let src = render(&stmts);
        let printed = print_program(&parse(&src).unwrap());
        let run = |s: &str| {
            let p = compile(s).unwrap_or_else(|e| panic!("{e}\n{s}"));
            let mut m = Machine::new(MachineConfig { budget: 5_000_000, ..MachineConfig::default() });
            m.load(&p.image);
            m.run(&mut Noop).output().to_vec()
        };
        prop_assert_eq!(run(&src), run(&printed), "printed form diverged:\n{}", printed);
    }

    /// Arbitrary byte soup never panics the compiler — it may only return
    /// a CompileError.
    #[test]
    fn garbage_input_is_rejected_gracefully(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        if let Ok(src) = String::from_utf8(bytes) {
            let _ = compile(&src); // must not panic
        }
    }

    /// Structured garbage: random token soup from a C-ish alphabet.
    #[test]
    fn token_soup_is_rejected_gracefully(
        toks in proptest::collection::vec(0usize..21, 0..120)
    ) {
        let alphabet = [
            "int", "char", "void", "if", "else", "while", "for", "return", "{", "}", "(",
            ")", ";", "=", "+", "*", "x", "1", "[3]", "struct", "[1073741825]",
        ];
        let src: String = toks
            .iter()
            .map(|&t| alphabet[t])
            .collect::<Vec<_>>()
            .join(" ");
        let _ = compile(&src); // must not panic
    }
}
