//! The AST walks over one program that uses every `StmtKind` and
//! `ExprKind` variant and every position a type can be written in:
//! their visit order is the documented one, they see every node once,
//! and `for_each_type_mut` reports each type at the span elaboration
//! uses there.

use minic::ast::{ExprKind, Node, Qual, Stmt, StmtKind};
use minic::{parse, pretty};

const ALL_KINDS: &str = "struct s { int f; };\n\
    int g;\n\
    int * h(int * q, struct s * r) {\n\
    int a = (int) 'c';\n\
    a = -r->f + sizeof(struct s);\n\
    h(q, r)[a] = true ? a : 0;\n\
    if (a) { print_str(\"s\"); } else { }\n\
    while (a) { break; }\n\
    for (int i = 0; i < a; i = i + 1) { continue; }\n\
    { q = SCAST(int *, q); }\n\
    q = new(int);\n\
    q = newarray(char, a);\n\
    return NULL;\n\
    }\n\
    void v() { return; }";

/// An expression as printed; a statement as its kind's name.
fn label(n: Node<'_>) -> String {
    match n {
        Node::Expr(e) => pretty::expr(e),
        Node::Stmt(s) => format!("{:?}", s.kind)
            .split([' ', '(', '{'])
            .next()
            .unwrap_or_default()
            .to_string(),
    }
}

#[test]
fn block_walk_visits_every_node_once_in_source_order() {
    let p = parse(ALL_KINDS).unwrap();
    let (mut labels, mut ids) = (Vec::new(), Vec::new());
    for f in &p.fns {
        f.body.walk(&mut |n| {
            labels.push(label(n));
            ids.push(match n {
                Node::Stmt(s) => s.id.0,
                Node::Expr(e) => e.id.0,
            });
            true
        });
    }
    assert_eq!(
        labels.join(" | "),
        "Decl | (int)'c' | 'c' \
         | Assign | a | -r->f + sizeof(s) | -r->f | r->f | r | sizeof(s) \
         | Assign | h(q, r)[a] | h(q, r) | h | q | r | a | true ? a : 0 | true | a | 0 \
         | If | a | Expr | print_str(\"s\") | print_str | \"s\" \
         | While | a | Break \
         | For | Decl | 0 | i < a | i | a | Assign | i | i + 1 | i | 1 | Continue \
         | Block | Assign | q | SCAST(int *, q) | q \
         | Assign | q | new(int) \
         | Assign | q | newarray(char, a) | a \
         | Return | NULL \
         | Return"
    );
    // The parser numbers every statement and expression: the walk sees
    // each id exactly once.
    ids.sort_unstable();
    assert_eq!(ids, (0..ids.len() as u32).collect::<Vec<_>>());
}

#[test]
fn walks_skip_subtrees_and_stop_at_the_first_match() {
    let p = parse(ALL_KINDS).unwrap();
    let mut stmts = 0;
    p.fns[0].body.walk(&mut |n| {
        stmts += usize::from(matches!(n, Node::Stmt(_)));
        !matches!(
            n,
            Node::Stmt(Stmt {
                kind: StmtKind::For { .. },
                ..
            })
        )
    });
    // Skipping the `for` skips its init, step and body.
    assert_eq!(stmts, 13);

    let StmtKind::Assign { lhs, .. } = &p.fns[0].body.stmts[2].kind else {
        panic!("expected the indexed assignment");
    };
    let mut seen = Vec::new();
    let hit = lhs.find(|e| {
        seen.push(pretty::expr(e));
        matches!(&e.kind, ExprKind::Ident(n) if n == "q")
    });
    // The first `q` in `h(q, r)[a]`, and nothing after it.
    let call = ALL_KINDS.find("h(q, r)[a]").unwrap() as u32;
    assert_eq!(hit.map(|e| e.span.lo), Some(call + 2));
    assert_eq!(seen, ["h(q, r)[a]", "h(q, r)", "h", "q"]);
    assert!(!lhs.any(|e| matches!(e.kind, ExprKind::Ternary(..))));
}

#[test]
fn for_each_type_mut_visits_every_type_position_with_elaborations_span() {
    let mut p = parse(ALL_KINDS).unwrap();
    let mut seen = Vec::new();
    p.for_each_type_mut(&mut |ty, span| {
        let at = &ALL_KINDS[span.lo as usize..span.hi as usize];
        let first_line = at.lines().next().unwrap_or_default();
        seen.push(format!("{} @ {first_line}", pretty::type_str(ty)));
        ty.qual = Qual::Racy;
    });
    assert_eq!(
        seen,
        [
            // A field (its name's span), a global, a return type (the
            // function's span), parameters.
            "int @ f",
            "int @ int g",
            "int * @ int * h(int * q, struct s * r) {",
            "int * @ int * q",
            "s * @ struct s * r",
            // In a body: a declaration's type at the statement, before
            // its initializer's types; a type in an expression at the
            // expression.
            "int @ int a = (int) 'c'",
            "int @ (int) 'c'",
            "s @ sizeof(struct s)",
            "int @ int i = 0",
            "int * @ SCAST(int *, q)",
            "int @ new(int)",
            "char @ newarray(char, a)",
            "void @ void v() { return; }",
        ]
    );
    // The callback's edits land in the tree.
    let mut racy = 0;
    p.for_each_type_mut(&mut |ty, _| racy += usize::from(ty.qual == Qual::Racy));
    assert_eq!(racy, seen.len());
}
