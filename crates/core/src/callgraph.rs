//! Call graph construction and thread-reachability (paper §4.1).
//!
//! SharC seeds its sharing analysis with the objects inherently
//! visible to spawned threads: the formals of thread functions and
//! every global touched by a function reachable from a thread root.
//!
//! Each function body is read in one [`Block::walk`], against the
//! typer's [`Bindings`] for that function: an identifier means what
//! the typer resolved it to, so a local or formal that shares a
//! function's name is the variable here as in the VM. A call of a name
//! that resolved to a function adds an edge. Function pointers are
//! handled soundly: an indirect call may reach every function of the
//! call's arity, and a spawned pointer makes every unary function a
//! thread root. An identifier that resolved to a global is a touch.
//!
//! The functions of each arity are listed once per program; an
//! indirect call records only its arity, and reachability expands an
//! arity the first time a reachable function calls through it.

use crate::typer::Bindings;
use minic::ast::*;
use std::collections::{HashMap, HashSet};

/// The call graph plus derived thread-reachability facts.
#[derive(Debug)]
pub struct CallGraph {
    /// Functions passed to `spawn` (directly, or every unary function
    /// when a function pointer is spawned).
    pub thread_roots: HashSet<String>,
    /// Functions reachable from any thread root (including the roots).
    pub thread_reachable: HashSet<String>,
    /// Global variables referenced per function (directly).
    pub globals_touched: HashMap<String, HashSet<String>>,
}

impl CallGraph {
    /// Builds the call graph for `program`, whose identifiers the typer
    /// resolved into `bindings` (one per function, in program order).
    pub fn build(program: &Program, bindings: &[Bindings]) -> CallGraph {
        let mut by_arity: HashMap<usize, Vec<&str>> = HashMap::new();
        for f in &program.fns {
            by_arity.entry(f.params.len()).or_default().push(&f.name);
        }

        // Functions each function calls by name, and the arities of its
        // calls through a function pointer (each may reach every
        // function of that arity).
        let mut callees: HashMap<String, HashSet<String>> = HashMap::new();
        let mut indirect_arities: HashMap<String, HashSet<usize>> = HashMap::new();
        let mut globals_touched: HashMap<String, HashSet<String>> = HashMap::new();
        let mut thread_roots: HashSet<String> = HashSet::new();
        let mut spawns_pointer = false;

        for (f, bindings) in program.fns.iter().zip(bindings) {
            let mut called = HashSet::new();
            let mut arities = HashSet::new();
            let mut globals = HashSet::new();
            f.body.walk(&mut |n| {
                let Node::Expr(e) = n else { return true };
                match &e.kind {
                    ExprKind::Call(callee, args) => match &callee.kind {
                        ExprKind::Ident(name) if name == "spawn" => {
                            if let Some(root) = args.first() {
                                match bindings.fn_named(root) {
                                    Some(root) => {
                                        thread_roots.insert(root.to_owned());
                                    }
                                    None => spawns_pointer = true,
                                }
                            }
                        }
                        ExprKind::Ident(name) if is_builtin(name) => {}
                        _ => match bindings.fn_named(callee) {
                            Some(name) => {
                                called.insert(name.to_owned());
                            }
                            None => {
                                arities.insert(args.len());
                            }
                        },
                    },
                    ExprKind::Ident(_) => {
                        if let Some(name) = bindings.global_named(e) {
                            globals.insert(name.to_owned());
                        }
                    }
                    _ => {}
                }
                true
            });
            callees.insert(f.name.clone(), called);
            indirect_arities.insert(f.name.clone(), arities);
            globals_touched.insert(f.name.clone(), globals);
        }
        // A spawned function pointer: every unary function is a
        // potential root.
        if spawns_pointer {
            let unary = by_arity.get(&1).into_iter().flatten();
            thread_roots.extend(unary.map(|g| (*g).to_owned()));
        }

        // Reachability from thread roots.
        let mut thread_reachable = HashSet::new();
        let mut expanded_arities = HashSet::new();
        let mut stack: Vec<String> = thread_roots.iter().cloned().collect();
        while let Some(f) = stack.pop() {
            if !thread_reachable.insert(f.clone()) {
                continue;
            }
            if let Some(cs) = callees.get(&f) {
                stack.extend(
                    cs.iter()
                        .filter(|c| !thread_reachable.contains(*c))
                        .cloned(),
                );
            }
            for arity in indirect_arities.get(&f).into_iter().flatten() {
                if expanded_arities.insert(*arity) {
                    let targets = by_arity.get(arity).into_iter().flatten();
                    stack.extend(targets.map(|g| (*g).to_owned()));
                }
            }
        }

        CallGraph {
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

/// Every function grouped by signature shape, built once per program:
/// the candidate targets of a function pointer are the functions of
/// its shape.
#[derive(Debug)]
pub struct ShapeIndex<'p> {
    by_shape: HashMap<FnSig, Vec<&'p FnDef>>,
}

impl<'p> ShapeIndex<'p> {
    /// Indexes every function of `program`.
    pub fn new(program: &'p Program) -> Self {
        let mut by_shape: HashMap<FnSig, Vec<&'p FnDef>> = HashMap::new();
        for f in &program.fns {
            by_shape.entry(shape(f.sig())).or_default().push(f);
        }
        ShapeIndex { by_shape }
    }

    /// The functions whose shape matches `sig`, in program order.
    pub fn matching(&self, sig: &FnSig) -> &[&'p FnDef] {
        self.by_shape
            .get(&shape(sig.clone()))
            .map_or(&[], Vec::as_slice)
    }
}

/// `sig` with every qualifier erased: two signatures have the same
/// shape ([`Type::same_shape`] of the return and of every parameter)
/// exactly when their shapes are equal.
fn shape(mut sig: FnSig) -> FnSig {
    let erase = |ty: &mut Type| ty.for_each_level_mut(&mut |l| l.qual = Qual::Infer);
    erase(&mut sig.ret);
    for p in &mut sig.params {
        erase(&mut p.ty);
    }
    sig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typer::{type_function, TypeEnv};
    use minic::env::StructTable;
    use minic::parse;

    fn graph(src: &str) -> CallGraph {
        let p = parse(src).unwrap();
        let structs = StructTable::build(&p).unwrap();
        let env = TypeEnv::new(&p, &structs);
        let bindings: Vec<_> = p
            .fns
            .iter()
            .map(|f| type_function(&env, f).bindings)
            .collect();
        CallGraph::build(&p, &bindings)
    }

    #[test]
    fn direct_spawn_is_root() {
        let src = "int g;\n\
                   void worker(int * d) { g = 1; }\n\
                   void main() { int * p; spawn(worker, p); }";
        let cg = graph(src);
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
        let cg = graph(src);
        assert!(cg.thread_reachable.contains("helper"));
        assert!(cg.thread_touched_globals().contains("shared_flag"));
    }

    #[test]
    fn globals_only_in_main_not_seeded() {
        let src = "int main_only;\n\
                   void worker(int * d) { }\n\
                   void main() { int * p; main_only = 3; spawn(worker, p); }";
        let cg = graph(src);
        assert!(!cg.thread_touched_globals().contains("main_only"));
    }

    #[test]
    fn indirect_calls_alias_by_arity() {
        let src = "int g;\n\
                   void cb(int x) { g = x; }\n\
                   void other(int x) { }\n\
                   void worker(int * d) { void (* f)(int x); f(3); }\n\
                   void main() { int * p; spawn(worker, p); }";
        let cg = graph(src);
        assert!(cg.thread_reachable.contains("cb"));
        assert!(cg.thread_reachable.contains("other"));
        assert!(cg.thread_touched_globals().contains("g"));
    }

    #[test]
    fn a_local_named_like_a_function_is_a_pointer() {
        // Each `noop` called or spawned below is the local, which holds
        // `writer`: a call through it may reach every unary function,
        // not only the function `noop`, and spawning it makes every
        // unary function a root.
        let fns = "int g;\n\
                   void noop(int * p) { }\n\
                   void writer(int * p) { g = 1; }\n";
        let called = graph(&format!(
            "{fns}void worker(int * p) {{ void (* noop)(int * p); noop = writer; noop(NULL); }}\n\
             void main() {{ spawn(worker, NULL); }}"
        ));
        assert!(called.thread_reachable.contains("writer"));
        assert!(called.thread_touched_globals().contains("g"));
        let spawned = graph(&format!(
            "{fns}void main() {{ void (* noop)(int * p); noop = writer; spawn(noop, NULL); }}"
        ));
        assert!(spawned.thread_roots.contains("writer"));
        assert!(spawned.thread_touched_globals().contains("g"));
    }

    #[test]
    fn builtin_callee_names_no_global() {
        let src = "int free; int spawn; int print;\n\
                   void worker(int * d) { free(d); print(print); }\n\
                   void main() { int * p; spawn(worker, p); }";
        let cg = graph(src);
        let touched = cg.thread_touched_globals();
        assert!(!touched.contains("free") && !touched.contains("spawn"));
        // An argument is a use, whatever its name.
        assert!(touched.contains("print"));
    }

    #[test]
    fn shape_matching() {
        let src = "struct s { int v; };\nstruct sa { int v; };\n\
                   void a(int x) { }\nvoid b(char c) { }\nvoid c(int x) { }\n\
                   int d(int x) { return x; }\n\
                   void e(struct s * p) { }\nvoid f(struct sa * p) { }\n\
                   void g(void (* k)(int x)) { }\nvoid h(void (* k)(char x)) { }\n\
                   void i(int * x, int y) { }\nvoid j(int * x) { }";
        let p = parse(src).unwrap();
        let index = ShapeIndex::new(&p);
        let names = |f: &str| -> Vec<&str> {
            let sig = p.fn_by_name(f).unwrap().sig();
            index
                .matching(&sig)
                .iter()
                .map(|f| f.name.as_str())
                .collect()
        };
        assert_eq!(names("a"), ["a", "c"]);
        for single in ["b", "d", "e", "f", "g", "h", "i", "j"] {
            assert_eq!(names(single), [single]);
        }
        // Every pair of functions shares a key exactly when
        // `same_shape` says their signatures match.
        for x in &p.fns {
            for y in &p.fns {
                let same = x.ret.same_shape(&y.ret)
                    && x.params.len() == y.params.len()
                    && x.params
                        .iter()
                        .zip(&y.params)
                        .all(|(a, b)| a.ty.same_shape(&b.ty));
                let keyed = index.matching(&x.sig()).iter().any(|f| f.name == y.name);
                assert_eq!(same, keyed, "{} vs {}", x.name, y.name);
            }
        }
    }
}
