//! Call graph construction and thread-reachability (paper §4.1).
//!
//! SharC seeds its sharing analysis with the objects inherently
//! visible to spawned threads: the formals of thread functions and
//! every global touched by a function reachable from a thread root.
//!
//! Each function body is read in one [`Block::walk`]. A direct call
//! adds an edge. Function pointers are handled soundly: an indirect
//! call adds an edge to every function of the call's arity, and a
//! spawned pointer makes every unary function a thread root. An
//! identifier naming a global that no parameter or local shadows is a
//! touch; the callee name of `spawn` or of a builtin is not.

use minic::ast::*;
use std::collections::{HashMap, HashSet};

/// The call graph plus derived thread-reachability facts.
#[derive(Debug)]
pub struct CallGraph {
    /// Direct and (shape-resolved) indirect callees per function.
    pub callees: HashMap<String, HashSet<String>>,
    /// Functions passed to `spawn` (directly, or any shape-compatible
    /// function when a function pointer is spawned).
    pub thread_roots: HashSet<String>,
    /// Functions reachable from any thread root (including the roots).
    pub thread_reachable: HashSet<String>,
    /// Global variables referenced per function (directly).
    pub globals_touched: HashMap<String, HashSet<String>>,
}

impl CallGraph {
    /// Builds the call graph for `program`.
    pub fn build(program: &Program) -> CallGraph {
        let global_names: HashSet<String> =
            program.globals.iter().map(|g| g.name.clone()).collect();
        let fn_names: HashSet<String> = program.fns.iter().map(|f| f.name.clone()).collect();

        let mut callees: HashMap<String, HashSet<String>> = HashMap::new();
        let mut globals_touched: HashMap<String, HashSet<String>> = HashMap::new();
        let mut thread_roots: HashSet<String> = HashSet::new();

        for f in &program.fns {
            let mut locals: HashSet<&str> = f.params.iter().map(|p| p.name.as_str()).collect();
            f.body.walk(&mut |n| {
                if let Node::Stmt(Stmt {
                    kind: StmtKind::Decl { name, .. },
                    ..
                }) = n
                {
                    locals.insert(name);
                }
                true
            });
            let mut called = HashSet::new();
            let mut globals = HashSet::new();
            // The callee of `spawn` or of a builtin names no global.
            let mut builtin_callee = None;
            f.body.walk(&mut |n| {
                let Node::Expr(e) = n else { return true };
                match &e.kind {
                    ExprKind::Call(callee, args) => match &callee.kind {
                        ExprKind::Ident(name) if name == "spawn" => {
                            builtin_callee = Some(callee.id);
                            match args.first().map(|a| &a.kind) {
                                Some(ExprKind::Ident(root)) if fn_names.contains(root) => {
                                    thread_roots.insert(root.clone());
                                }
                                // A spawned function pointer: every
                                // unary function is a potential root.
                                Some(_) => thread_roots.extend(
                                    program
                                        .fns
                                        .iter()
                                        .filter(|g| g.params.len() == 1)
                                        .map(|g| g.name.clone()),
                                ),
                                None => {}
                            }
                        }
                        ExprKind::Ident(name) if is_builtin(name) => {
                            builtin_callee = Some(callee.id);
                        }
                        ExprKind::Ident(name)
                            if fn_names.contains(name) && !locals.contains(name.as_str()) =>
                        {
                            called.insert(name.clone());
                        }
                        // Indirect call through a function pointer: it
                        // may alias any function of matching arity
                        // (shape refinement happens during constraint
                        // binding).
                        _ => called.extend(
                            program
                                .fns
                                .iter()
                                .filter(|g| g.params.len() == args.len())
                                .map(|g| g.name.clone()),
                        ),
                    },
                    ExprKind::Ident(name)
                        if builtin_callee != Some(e.id)
                            && global_names.contains(name)
                            && !locals.contains(name.as_str()) =>
                    {
                        globals.insert(name.clone());
                    }
                    _ => {}
                }
                true
            });
            callees.insert(f.name.clone(), called);
            globals_touched.insert(f.name.clone(), globals);
        }

        // Reachability from thread roots.
        let mut thread_reachable = HashSet::new();
        let mut stack: Vec<String> = thread_roots.iter().cloned().collect();
        while let Some(f) = stack.pop() {
            if !thread_reachable.insert(f.clone()) {
                continue;
            }
            if let Some(cs) = callees.get(&f) {
                for c in cs {
                    if !thread_reachable.contains(c) {
                        stack.push(c.clone());
                    }
                }
            }
        }

        CallGraph {
            callees,
            thread_roots,
            thread_reachable,
            globals_touched,
        }
    }

    /// Globals touched by any thread-reachable function; these seed
    /// the sharing analysis.
    pub fn thread_touched_globals(&self) -> HashSet<String> {
        let mut out = HashSet::new();
        for f in &self.thread_reachable {
            if let Some(gs) = self.globals_touched.get(f) {
                out.extend(gs.iter().cloned());
            }
        }
        out
    }
}

/// Returns every function in `program` whose shape matches `sig`
/// (candidate targets of a function pointer of that type).
pub fn shape_matching_fns<'p>(program: &'p Program, sig: &FnSig) -> Vec<&'p FnDef> {
    program
        .fns
        .iter()
        .filter(|f| {
            f.ret.same_shape(&sig.ret)
                && f.params.len() == sig.params.len()
                && f.params
                    .iter()
                    .zip(&sig.params)
                    .all(|(a, b)| a.ty.same_shape(&b.ty))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::parse;

    #[test]
    fn direct_spawn_is_root() {
        let src = "int g;\n\
                   void worker(int * d) { g = 1; }\n\
                   void main() { int * p; spawn(worker, p); }";
        let p = parse(src).unwrap();
        let cg = CallGraph::build(&p);
        assert!(cg.thread_roots.contains("worker"));
        assert!(cg.thread_reachable.contains("worker"));
        assert!(!cg.thread_reachable.contains("main"));
        assert!(cg.thread_touched_globals().contains("g"));
    }

    #[test]
    fn globals_through_callees_are_seeded() {
        let src = "int shared_flag;\n\
                   void helper() { shared_flag = 1; }\n\
                   void worker(int * d) { helper(); }\n\
                   void main() { int * p; spawn(worker, p); }";
        let p = parse(src).unwrap();
        let cg = CallGraph::build(&p);
        assert!(cg.thread_reachable.contains("helper"));
        assert!(cg.thread_touched_globals().contains("shared_flag"));
    }

    #[test]
    fn globals_only_in_main_not_seeded() {
        let src = "int main_only;\n\
                   void worker(int * d) { }\n\
                   void main() { int * p; main_only = 3; spawn(worker, p); }";
        let p = parse(src).unwrap();
        let cg = CallGraph::build(&p);
        assert!(!cg.thread_touched_globals().contains("main_only"));
    }

    #[test]
    fn indirect_calls_alias_by_arity() {
        let src = "int g;\n\
                   void cb(int x) { g = x; }\n\
                   void other(int x) { }\n\
                   void worker(int * d) { void (* f)(int x); f(3); }\n\
                   void main() { int * p; spawn(worker, p); }";
        let p = parse(src).unwrap();
        let cg = CallGraph::build(&p);
        assert!(cg.thread_reachable.contains("cb"));
        assert!(cg.thread_reachable.contains("other"));
        assert!(cg.thread_touched_globals().contains("g"));
    }

    #[test]
    fn builtin_callee_names_no_global() {
        let src = "int free; int spawn; int print;\n\
                   void worker(int * d) { free(d); print(print); }\n\
                   void main() { int * p; spawn(worker, p); }";
        let cg = CallGraph::build(&parse(src).unwrap());
        let touched = cg.thread_touched_globals();
        assert!(!touched.contains("free") && !touched.contains("spawn"));
        // An argument is a use, whatever its name.
        assert!(touched.contains("print"));
    }

    #[test]
    fn shape_matching() {
        let src = "void a(int x) { }\nvoid b(char c) { }\nvoid c(int x) { }";
        let p = parse(src).unwrap();
        let sig = p.fns[0].sig();
        let m = shape_matching_fns(&p, &sig);
        let names: Vec<_> = m.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "c"]);
    }
}
