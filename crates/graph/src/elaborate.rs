//! Elaboration: from parsed declarations to a concrete stream graph.
//!
//! StreamIt resolves its stream hierarchy at compile time: container bodies
//! (including `for` loops that `add` children, as in the FilterBank
//! benchmark) run under constant evaluation, stream parameters are bound,
//! filter `init` blocks execute to produce field values (the FIR weight
//! tables the linear analysis later treats as constants), and I/O rates are
//! resolved to integers (§2.1: "these rates must be resolvable at compile
//! time"). This module performs all of that, producing the [`Stream`] IR.
//!
//! Every constant context evaluates through [`crate::lower`]: the syntax
//! is slot-resolved against the live environment and run by the reference
//! interpreter under [`PureHost`]. What stays here is what only a container
//! has: `add`, control flow around `add`s, and declarations that must
//! outlive their statement.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use streamlin_lang::ast::{
    Block, Expr, FilterDecl, Program, Stmt, StreamDecl, StreamKind, StreamRef, Type, WorkDecl,
};

use crate::exec::{PureHost, DEFAULT_FUEL};
use crate::ir::{FilterInst, Joiner, Splitter, Stream, WorkFn};
use crate::lower::{const_eval_expr, const_eval_noting, const_exec_stmt, with_cells_as_store};
use crate::value::{Cell, EvalError, Value};

/// An elaboration error, with the stream-instantiation context in which it
/// occurred.
#[derive(Debug, Clone, PartialEq)]
pub struct ElabError {
    /// Explanation of the problem.
    pub message: String,
    /// Instantiation stack, outermost first.
    pub context: Vec<String>,
}

impl ElabError {
    fn new(message: impl Into<String>) -> Self {
        ElabError {
            message: message.into(),
            context: Vec::new(),
        }
    }

    fn in_context(mut self, name: &str) -> Self {
        self.context.insert(0, name.to_string());
        self
    }
}

impl std::fmt::Display for ElabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.context.is_empty() {
            write!(f, "elaboration error: {}", self.message)
        } else {
            write!(
                f,
                "elaboration error in {}: {}",
                self.context.join(" -> "),
                self.message
            )
        }
    }
}

impl std::error::Error for ElabError {}

impl From<EvalError> for ElabError {
    fn from(e: EvalError) -> Self {
        ElabError::new(e.message)
    }
}

/// Maximum stream-nesting depth, guarding against unbounded recursion in
/// (erroneous) self-referential declarations.
const MAX_DEPTH: usize = 64;

/// Elaborates the program's top-level stream (the last `void->void`
/// declaration).
///
/// # Errors
///
/// Fails if there is no top-level stream or any instantiation fails.
///
/// # Examples
///
/// ```
/// let p = streamlin_lang::parse(
///     "void->void pipeline Main { add S(); add K(); }
///      void->float filter S { work push 1 { push(1.0); } }
///      float->void filter K { work pop 1 { println(pop()); } }",
/// )
/// .unwrap();
/// let g = streamlin_graph::elaborate(&p).unwrap();
/// assert_eq!(g.filter_count(), 2);
/// ```
pub fn elaborate(program: &Program) -> Result<Stream, ElabError> {
    let top = program
        .top_level()
        .ok_or_else(|| ElabError::new("program has no void->void top-level stream"))?;
    elaborate_decl(program, top, &[])
}

/// Elaborates a named stream declaration with the given argument values.
///
/// # Errors
///
/// Fails if the declaration is missing or instantiation fails.
pub fn elaborate_named(program: &Program, name: &str, args: &[Value]) -> Result<Stream, ElabError> {
    let decl = program
        .find(name)
        .ok_or_else(|| ElabError::new(format!("no stream declaration named `{name}`")))?;
    elaborate_decl(program, decl, args)
}

fn elaborate_decl(
    program: &Program,
    decl: &StreamDecl,
    args: &[Value],
) -> Result<Stream, ElabError> {
    let mut elab = Elaborator {
        program,
        next_id: 0,
        depth: 0,
    };
    elab.instantiate(decl, args, None)
}

struct Elaborator<'a> {
    program: &'a Program,
    next_id: usize,
    depth: usize,
}

impl<'a> Elaborator<'a> {
    fn instantiate(
        &mut self,
        decl: &StreamDecl,
        args: &[Value],
        captured: Option<&HashMap<String, Cell>>,
    ) -> Result<Stream, ElabError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(ElabError::new(format!(
                "stream nesting deeper than {MAX_DEPTH} (recursive declaration?)"
            )));
        }
        let result = self.instantiate_inner(decl, args, captured);
        self.depth -= 1;
        result.map_err(|e| e.in_context(&decl.name))
    }

    fn instantiate_inner(
        &mut self,
        decl: &StreamDecl,
        args: &[Value],
        captured: Option<&HashMap<String, Cell>>,
    ) -> Result<Stream, ElabError> {
        // Seed the environment with captured variables (anonymous streams
        // close over their container's constants), then bind parameters.
        let mut env: HashMap<String, Cell> = captured.cloned().unwrap_or_default();
        if args.len() != decl.params.len() {
            return Err(ElabError::new(format!(
                "`{}` expects {} arguments, got {}",
                decl.name,
                decl.params.len(),
                args.len()
            )));
        }
        for (p, a) in decl.params.iter().zip(args) {
            if !p.ty.dims.is_empty() {
                return Err(ElabError::new(format!(
                    "array-valued stream parameter `{}` is not supported; pass scalars and \
                     rebuild the table in `init`",
                    p.name
                )));
            }
            let v = a.coerce_to(p.ty.base)?;
            env.insert(p.name.clone(), Cell::Scalar(p.ty.base, v));
        }

        match &decl.kind {
            StreamKind::Filter(f) => self.instantiate_filter(decl, f, env, args),
            StreamKind::Pipeline(body) => {
                let children = self.run_container_body(body, &mut env)?;
                if children.is_empty() {
                    return Err(ElabError::new("pipeline has no children"));
                }
                Ok(Stream::Pipeline(children))
            }
            StreamKind::SplitJoin(sj) => {
                let children = self.run_container_body(&sj.body, &mut env)?;
                if children.is_empty() {
                    return Err(ElabError::new("splitjoin has no children"));
                }
                let split = self.eval_splitter(&sj.split, &mut env, children.len())?;
                let streamlin_lang::ast::JoinerAst::RoundRobin(w) = &sj.join;
                let join = Joiner {
                    weights: self.eval_weights(w, &mut env, children.len())?,
                };
                Ok(Stream::SplitJoin {
                    split,
                    children,
                    join,
                })
            }
            StreamKind::FeedbackLoop(fb) => {
                let body = self.elaborate_ref(&fb.body, &mut env)?;
                let loop_stream = self.elaborate_ref(&fb.loop_stream, &mut env)?;
                let streamlin_lang::ast::JoinerAst::RoundRobin(jw) = &fb.join;
                let join = Joiner {
                    weights: self.eval_weights(jw, &mut env, 2)?,
                };
                let split = self.eval_splitter(&fb.split, &mut env, 2)?;
                let mut enqueue = Vec::with_capacity(fb.enqueue.len());
                for e in &fb.enqueue {
                    enqueue.push(const_eval_expr(&mut env, e)?.as_f64()?);
                }
                Ok(Stream::FeedbackLoop {
                    join,
                    body: Box::new(body),
                    loop_stream: Box::new(loop_stream),
                    split,
                    enqueue,
                })
            }
        }
    }

    fn instantiate_filter(
        &mut self,
        decl: &StreamDecl,
        f: &FilterDecl,
        mut env: HashMap<String, Cell>,
        args: &[Value],
    ) -> Result<Stream, ElabError> {
        let param_names: Vec<String> = env.keys().cloned().collect();
        // Every persistent name the declaration resolves, wherever it is
        // resolved: what it never reaches is what the unused lints report.
        let mut uses = HashSet::new();

        // Field declarations (dims may reference parameters), then `init`.
        for field in &f.fields {
            if env.contains_key(&field.name) {
                return Err(ElabError::new(format!(
                    "field `{}` shadows a parameter or captured variable",
                    field.name
                )));
            }
            declare(
                &mut env,
                &field.ty,
                &field.name,
                field.init.as_ref(),
                &mut uses,
            )?;
        }
        if let Some(init) = &f.init {
            run_init_noting(&mut env, init, DEFAULT_FUEL, &mut uses)?;
        }

        let work = resolve_work(&f.work, &mut env, &mut uses)?;
        let init_work = f
            .init_work
            .as_ref()
            .map(|w| resolve_work(w, &mut env, &mut uses))
            .transpose()?;

        // Slot-resolve the work phases against the now-complete state:
        // the runtime executes this form, and name errors surface here at
        // elaboration instead of on the Nth firing — all of them in one
        // pass, each with its source position.
        let init_body = f.init_work.as_ref().map(|w| &w.body);
        let lowered = crate::lower::lower_filter_noting(&env, &f.work.body, init_body, &mut uses)
            .map_err(|errs| {
            spanned_error(
                "in a work function",
                errs.iter().map(|e| (e.span, e.message.as_str())),
            )
        })?;

        // Run the abstract interpreter (see `crate::analyze`): rate/bounds
        // certification, lints, plumbing. Provable rate or bounds
        // violations fail elaboration here, with spans, instead of
        // surfacing as runtime errors on the Nth firing.
        let mut facts = crate::analyze::analyze_filter(
            &env,
            &lowered,
            &work,
            init_work.as_ref(),
            f.work.span,
            f.init_work.as_ref().map(|w| w.span).unwrap_or_default(),
        );
        if !facts.errors.is_empty() {
            return Err(spanned_error(
                "in a work function",
                facts.errors.iter().map(|e| (e.span, e.message.as_str())),
            ));
        }
        facts.lints.extend(unused_decl_lints(decl, f, &uses));

        let id = self.next_id;
        self.next_id += 1;
        let name = if args.is_empty() {
            decl.name.clone()
        } else {
            let rendered: Vec<String> = args.iter().map(|v| v.to_string()).collect();
            format!("{}({})", decl.name, rendered.join(", "))
        };
        Ok(Stream::Filter(Rc::new(FilterInst {
            id,
            name,
            decl_name: decl.name.clone(),
            input: decl.input,
            output: decl.output,
            state: env,
            param_names,
            work,
            init_work,
            lowered,
            facts,
        })))
    }

    /// Runs a container body, collecting `add`ed children. Control flow is
    /// interpreted here (so `add` inside loops works) and declarations bind
    /// straight into `env` — no scopes, so a loop variable stays visible to
    /// interleaved `add`s and to anonymous-stream capture; assignments and
    /// expression statements go to the constant evaluator.
    fn run_container_body(
        &mut self,
        body: &Block,
        env: &mut HashMap<String, Cell>,
    ) -> Result<Vec<Stream>, ElabError> {
        let mut children = Vec::new();
        self.run_block(body, env, &mut children)?;
        Ok(children)
    }

    fn run_block(
        &mut self,
        block: &Block,
        env: &mut HashMap<String, Cell>,
        children: &mut Vec<Stream>,
    ) -> Result<(), ElabError> {
        for (_, stmt) in &block.stmts {
            self.run_stmt(stmt, env, children)?;
        }
        Ok(())
    }

    fn run_stmt(
        &mut self,
        stmt: &Stmt,
        env: &mut HashMap<String, Cell>,
        children: &mut Vec<Stream>,
    ) -> Result<(), ElabError> {
        match stmt {
            Stmt::Add(r) => {
                let child = self.elaborate_ref(r, env)?;
                children.push(child);
                Ok(())
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                if const_eval_expr(env, cond)?.as_bool()? {
                    self.run_block(then_blk, env, children)
                } else if let Some(e) = else_blk {
                    self.run_block(e, env, children)
                } else {
                    Ok(())
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.run_stmt(i, env, children)?;
                }
                self.run_loop(cond.as_ref(), step.as_deref(), body, env, children)
            }
            Stmt::While { cond, body } => self.run_loop(Some(cond), None, body, env, children),
            Stmt::Return => Ok(()),
            Stmt::Decl { ty, name, init } => {
                declare(env, ty, name, init.as_ref(), &mut HashSet::new())
            }
            simple => const_exec_stmt(env, simple).map_err(ElabError::from),
        }
    }

    fn run_loop(
        &mut self,
        cond: Option<&Expr>,
        step: Option<&Stmt>,
        body: &Block,
        env: &mut HashMap<String, Cell>,
        children: &mut Vec<Stream>,
    ) -> Result<(), ElabError> {
        for _ in 0..1_000_000 {
            if let Some(c) = cond {
                if !const_eval_expr(env, c)?.as_bool()? {
                    return Ok(());
                }
            }
            self.run_block(body, env, children)?;
            if let Some(s) = step {
                self.run_stmt(s, env, children)?;
            }
        }
        Err(ElabError::new("container loop did not terminate"))
    }

    fn elaborate_ref(
        &mut self,
        r: &StreamRef,
        env: &mut HashMap<String, Cell>,
    ) -> Result<Stream, ElabError> {
        match r {
            StreamRef::Named { name, args } => {
                let decl = self.program.find(name).ok_or_else(|| {
                    ElabError::new(format!("no stream declaration named `{name}`"))
                })?;
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(const_eval_expr(env, a)?);
                }
                self.instantiate(decl, &vals, None)
            }
            StreamRef::Anonymous(decl) => {
                let captured = env.clone();
                self.instantiate(decl, &[], Some(&captured))
            }
        }
    }

    fn eval_splitter(
        &mut self,
        s: &streamlin_lang::ast::SplitterAst,
        env: &mut HashMap<String, Cell>,
        n_children: usize,
    ) -> Result<Splitter, ElabError> {
        Ok(match s {
            streamlin_lang::ast::SplitterAst::Duplicate => Splitter::Duplicate,
            streamlin_lang::ast::SplitterAst::RoundRobin(w) => {
                Splitter::RoundRobin(self.eval_weights(w, env, n_children)?)
            }
        })
    }

    fn eval_weights(
        &mut self,
        w: &[Expr],
        env: &mut HashMap<String, Cell>,
        n_children: usize,
    ) -> Result<Vec<usize>, ElabError> {
        if w.is_empty() {
            return Ok(vec![1; n_children]);
        }
        let mut weights = Vec::with_capacity(w.len());
        for e in w {
            let v = const_eval_expr(env, e)?.as_index()?;
            weights.push(v);
        }
        // StreamIt's `roundrobin(k)` broadcasts a single weight to every
        // child.
        if weights.len() == 1 && n_children > 1 {
            return Ok(vec![weights[0]; n_children]);
        }
        if weights.len() != n_children {
            return Err(ElabError::new(format!(
                "round-robin has {} weights but {} children",
                weights.len(),
                n_children
            )));
        }
        if weights.iter().all(|&x| x == 0) {
            return Err(ElabError::new("round-robin weights are all zero"));
        }
        Ok(weights)
    }
}

/// Resolves a work declaration's rates, adding the names they resolve to
/// `uses`.
fn resolve_work<'ast>(
    w: &'ast WorkDecl,
    env: &mut HashMap<String, Cell>,
    uses: &mut HashSet<&'ast str>,
) -> Result<WorkFn, ElabError> {
    let mut rate = |e: &'ast Option<Expr>| -> Result<Option<usize>, ElabError> {
        let Some(e) = e else { return Ok(None) };
        Ok(Some(const_eval_noting(env, e, uses)?.as_index()?))
    };
    let push = rate(&w.push)?.unwrap_or(0);
    let pop = rate(&w.pop)?.unwrap_or(0);
    let peek = rate(&w.peek)?.unwrap_or(pop);
    Ok(WorkFn {
        peek: peek.max(pop),
        pop,
        push,
    })
}

/// Runs a filter's `init` block over its cells (parameters, captured
/// constants, zeroed fields) the way a firing runs: slot-resolved against
/// the cells by [`crate::lower`], compiled to bytecode and executed under
/// [`PureHost`] — so filling a weight table costs what a firing that
/// filled it would.
///
/// # Errors
///
/// Name errors are reported before anything runs, all at once and with
/// their source positions; an execution error (a tape operation, an index
/// out of bounds, exhausted `fuel`) reads ``while running `init`: …``.
pub fn run_init(
    state: &mut HashMap<String, Cell>,
    init: &Block,
    fuel: u64,
) -> Result<(), ElabError> {
    run_init_noting(state, init, fuel, &mut HashSet::new())
}

/// [`run_init`], adding to `uses` every persistent name the block
/// resolves.
fn run_init_noting<'ast>(
    state: &mut HashMap<String, Cell>,
    init: &'ast Block,
    fuel: u64,
    uses: &mut HashSet<&'ast str>,
) -> Result<(), ElabError> {
    let lowered = crate::lower::lower_filter_noting(state, init, None, uses).map_err(|errs| {
        spanned_error(
            "in `init`",
            errs.iter().map(|e| (e.span, e.message.as_str())),
        )
    })?;
    let run = with_cells_as_store(state, &lowered.globals, lowered.work.frame_slots, |store| {
        crate::bytecode::exec(&lowered.work.code, store, &mut PureHost, fuel)
    });
    run.map(|_| ())
        .map_err(|e| ElabError::new(format!("while running `init`: {}", e.message)))
}

/// One elaboration error listing every finding with its source position.
fn spanned_error<'e>(
    what: &str,
    findings: impl Iterator<Item = (streamlin_lang::token::Span, &'e str)>,
) -> ElabError {
    let msgs: Vec<String> = findings
        .map(|(span, message)| format!("at {span}: {message}"))
        .collect();
    ElabError::new(format!("{what}: {}", msgs.join("; ")))
}

/// Binds `name` in `env` to a zeroed cell of type `ty` (dimensions are
/// evaluated before the name is visible), then stores the initializer,
/// which already sees the new variable. The names both resolve are added
/// to `uses`.
fn declare<'ast>(
    env: &mut HashMap<String, Cell>,
    ty: &'ast Type,
    name: &str,
    init: Option<&'ast Expr>,
    uses: &mut HashSet<&'ast str>,
) -> Result<(), ElabError> {
    let mut dims = Vec::with_capacity(ty.dims.len());
    for d in &ty.dims {
        dims.push(const_eval_noting(env, d, uses)?.as_index()?);
    }
    env.insert(name.to_string(), Cell::zero_of(ty.base, dims));
    if let Some(init) = init {
        let v = const_eval_noting(env, init, uses)?;
        match env.get_mut(name) {
            Some(Cell::Scalar(ty, slot)) => *slot = v.coerce_to(*ty)?,
            _ => {
                return Err(ElabError::new(format!(
                    "array `{name}` cannot have a scalar initializer"
                )))
            }
        }
    }
    Ok(())
}

/// Unused-declaration lints for a filter: the parameters and fields no
/// resolution reached — not a field dimension or initializer, a declared
/// rate, `init`, or either work body. `uses` holds what [`crate::lower`]
/// resolved to persistent storage, so a name reached only through a
/// shadowing local is reported; resolution is static, so a name in a
/// branch that never runs is a use.
fn unused_decl_lints(
    decl: &StreamDecl,
    f: &FilterDecl,
    uses: &HashSet<&str>,
) -> Vec<crate::analyze::Lint> {
    let params = (decl.params.iter()).map(|p| ("unused-param", "parameter", &p.name, p.span));
    let fields = (f.fields.iter()).map(|x| ("unused-field", "field", &x.name, x.span));
    params
        .chain(fields)
        .filter(|(_, _, name, _)| !uses.contains(name.as_str()))
        .map(|(code, what, name, span)| crate::analyze::Lint {
            code,
            span,
            message: format!("{what} `{name}` is never used"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamlin_lang::parse;

    fn elab(src: &str) -> Stream {
        elaborate(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn simple_pipeline() {
        let g = elab(
            "void->void pipeline Main { add Src(); add Sink(); }
             void->float filter Src { work push 1 { push(1.0); } }
             float->void filter Sink { work pop 1 { println(pop()); } }",
        );
        let Stream::Pipeline(children) = &g else {
            panic!()
        };
        assert_eq!(children.len(), 2);
        let Stream::Filter(src) = &children[0] else {
            panic!()
        };
        assert!(src.is_source());
        assert!(!src.lowered.prints);
        let Stream::Filter(sink) = &children[1] else {
            panic!()
        };
        assert!(sink.is_sink());
        assert!(sink.lowered.prints);
    }

    #[test]
    fn parameters_bind_and_rates_resolve() {
        let g = elab(
            "void->void pipeline Main { add F(8); add K(); }
             void->float filter F(int N) { work push N { for (int i=0;i<N;i++) push(i); } }
             float->void filter K { work pop 1 { pop(); } }",
        );
        let Stream::Pipeline(c) = &g else { panic!() };
        let Stream::Filter(f) = &c[0] else { panic!() };
        assert_eq!(f.work.push, 8);
        assert_eq!(f.name, "F(8)");
    }

    #[test]
    fn init_computes_weight_tables() {
        let g = elab(
            "void->void pipeline Main { add L(4); add K(); }
             void->float filter L(int N) {
                 float[N] h;
                 init { for (int i=0;i<N;i++) h[i] = i * i; }
                 work push 1 { push(h[3]); }
             }
             float->void filter K { work pop 1 { pop(); } }",
        );
        let Stream::Pipeline(c) = &g else { panic!() };
        let Stream::Filter(f) = &c[0] else { panic!() };
        let Cell::Array(h) = &f.state["h"] else {
            panic!()
        };
        assert_eq!(h.data[3], Value::Float(9.0));
        assert!(f.param_names.contains(&"N".to_string()));
    }

    #[test]
    fn splitjoin_with_loop_generated_children() {
        let g = elab(
            "void->void pipeline Main { add Bank(3); add K(); }
             void->float splitjoin Bank(int M) {
                 split duplicate;
                 for (int i = 0; i < M; i++) add Leaf(i);
                 join roundrobin;
             }
             void->float filter Leaf(int i) { work push 1 { push(i); } }
             float->void filter K { work pop 1 { pop(); } }",
        );
        let Stream::Pipeline(c) = &g else { panic!() };
        let Stream::SplitJoin { children, join, .. } = &c[0] else {
            panic!()
        };
        assert_eq!(children.len(), 3);
        assert_eq!(join.weights, vec![1, 1, 1]);
        let Stream::Filter(leaf2) = &children[2] else {
            panic!()
        };
        assert_eq!(leaf2.name, "Leaf(2)");
    }

    #[test]
    fn anonymous_streams_capture_loop_variables() {
        let g = elab(
            "void->void pipeline Main { add Bank(2); add K(); }
             void->float splitjoin Bank(int M) {
                 split duplicate;
                 for (int i = 0; i < M; i++) {
                     add pipeline { add Leaf(i * 10); }
                 }
                 join roundrobin;
             }
             void->float filter Leaf(int v) { work push 1 { push(v); } }
             float->void filter K { work pop 1 { pop(); } }",
        );
        let Stream::Pipeline(c) = &g else { panic!() };
        let Stream::SplitJoin { children, .. } = &c[0] else {
            panic!()
        };
        let Stream::Pipeline(inner) = &children[1] else {
            panic!()
        };
        let Stream::Filter(leaf) = &inner[0] else {
            panic!()
        };
        assert_eq!(leaf.name, "Leaf(10)");
    }

    #[test]
    fn container_statements_bind_and_update_the_environment() {
        // Declarations land in the container's environment (so later
        // `add`s see them), assignments and `++` write through to it, and
        // an initializer sees its own freshly zeroed variable.
        let g = elab(
            "void->void pipeline Main {
                 int n = 2;
                 n = n * 5;
                 n++;
                 int m = m + n;
                 add Leaf(n);
                 add Leaf(m);
                 add K();
             }
             void->float filter Leaf(int v) { work push 1 { push(v); } }
             float->void filter K { work pop 2 { pop(); pop(); } }",
        );
        let Stream::Pipeline(c) = &g else { panic!() };
        assert_eq!(c[0].describe(), "Leaf(11)");
        assert_eq!(c[1].describe(), "Leaf(11)");
    }

    #[test]
    fn container_errors_name_the_culprit() {
        for (stmt, want) in [
            ("add Leaf(nope);", "undefined variable `nope`"),
            ("nope = 1;", "undefined variable `nope`"),
            (
                "println(1);",
                "printing is not allowed in a constant context",
            ),
            (
                "int n = pop();",
                "`pop` is not allowed in a constant context",
            ),
        ] {
            let p = parse(&format!(
                "void->void pipeline Main {{ {stmt} add Leaf(1); }}
                 void->float filter Leaf(int v) {{ work push 1 {{ push(v); }} }}"
            ))
            .unwrap();
            let err = elaborate(&p).unwrap_err();
            assert_eq!(err.message, want, "`{stmt}`");
        }
    }

    #[test]
    fn feedbackloop_elaborates() {
        let g = elab(
            "void->void pipeline Main { add Src(); add FB(); add K(); }
             void->float filter Src { work push 1 { push(1.0); } }
             float->void filter K { work pop 1 { pop(); } }
             float->float feedbackloop FB {
                 join roundrobin(1, 1);
                 body Adder();
                 loop Delay();
                 split roundrobin(1, 1);
                 enqueue 0;
             }
             float->float filter Adder { work push 1 pop 2 { push(pop() + pop()); } }
             float->float filter Delay {
                 float s;
                 work push 1 pop 1 { push(s); s = pop(); }
             }",
        );
        let Stream::Pipeline(c) = &g else { panic!() };
        let Stream::FeedbackLoop { enqueue, .. } = &c[1] else {
            panic!()
        };
        assert_eq!(enqueue, &vec![0.0]);
    }

    #[test]
    fn peek_defaults_to_pop_and_is_clamped() {
        let g = elab(
            "void->void pipeline Main { add S(); add F(); add K(); }
             void->float filter S { work push 1 { push(0.0); } }
             float->float filter F { work push 1 pop 2 peek 1 { push(peek(0)); pop(); pop(); } }
             float->void filter K { work pop 1 { pop(); } }",
        );
        let Stream::Pipeline(c) = &g else { panic!() };
        let Stream::Filter(f) = &c[1] else { panic!() };
        assert_eq!(f.work.peek, 2); // clamped up to pop
    }

    #[test]
    fn missing_stream_is_an_error() {
        let p = parse("void->void pipeline Main { add Nope(); }").unwrap();
        let err = elaborate(&p).unwrap_err();
        assert!(err.message.contains("Nope"), "{err}");
        assert_eq!(err.context, vec!["Main"]);
    }

    #[test]
    fn wrong_arity_is_an_error() {
        let p = parse(
            "void->void pipeline Main { add F(); }
             void->float filter F(int N) { work push 1 { push(N); } }",
        )
        .unwrap();
        let err = elaborate(&p).unwrap_err();
        assert!(err.message.contains("expects 1 arguments"), "{err}");
    }

    #[test]
    fn weight_mismatch_is_an_error() {
        let p = parse(
            "void->void pipeline Main { add SJ(); add K(); }
             void->float splitjoin SJ { split duplicate; add A(); add B(); join roundrobin(1, 1, 1); }
             void->float filter A { work push 1 { push(1.0); } }
             void->float filter B { work push 1 { push(2.0); } }
             float->void filter K { work pop 1 { pop(); } }",
        )
        .unwrap();
        let err = elaborate(&p).unwrap_err();
        assert!(err.message.contains("weights"), "{err}");
    }

    #[test]
    fn non_constant_rate_is_an_error() {
        let p = parse(
            "void->void pipeline Main { add F(); add K(); }
             void->float filter F { work push pop() { push(1.0); } }
             float->void filter K { work pop 1 { pop(); } }",
        )
        .unwrap();
        assert!(elaborate(&p).is_err());
    }

    /// The unused-declaration lints of filter `F` instantiated with
    /// every parameter set to 1.
    fn unused_lints(src: &str) -> Vec<String> {
        let p = parse(src).unwrap();
        let args = vec![Value::Int(1); p.find("F").unwrap().params.len()];
        let Stream::Filter(f) = elaborate_named(&p, "F", &args).unwrap() else {
            panic!()
        };
        let lints = f.facts.lints.iter();
        let unused = lints.filter(|l| l.code.starts_with("unused-"));
        unused.map(|l| l.message.clone()).collect()
    }

    #[test]
    fn a_name_resolved_anywhere_in_the_declaration_is_used() {
        // Each parameter and field is reached from one place only: a
        // field dimension, a field initializer, a rate, `init`,
        // `initWork`, or a branch that never runs. Only `x` is unused.
        let lints = unused_lints(
            "float->float filter F(int a, int b, int c, int d, int e, int g, int x) {
                 float[a] t;
                 int m = b;
                 float h;
                 float w = h;
                 float z;
                 init { t[0] = d; }
                 initWork push 1 pop 1 { push(w * e + pop()); }
                 work push 1 pop m peek c { if (false) { push(g + z); } else { push(pop()); } }
             }",
        );
        assert_eq!(lints, ["parameter `x` is never used"]);
    }

    #[test]
    fn a_name_reached_only_through_a_shadowing_local_is_unused() {
        let lints = unused_lints(
            "float->float filter F(int n) {
                 float g;
                 work push 1 pop 1 { int n = 3; float g = 1; push(pop() * n * g); }
             }",
        );
        assert_eq!(
            lints,
            ["parameter `n` is never used", "field `g` is never used"]
        );
    }

    #[test]
    fn elaborate_named_entry_point() {
        use streamlin_lang::ast::DataType;
        let p =
            parse("float->float filter Gain(float g) { work push 1 pop 1 { push(g * pop()); } }")
                .unwrap();
        let s = elaborate_named(&p, "Gain", &[Value::Float(2.5)]).unwrap();
        let Stream::Filter(f) = &s else { panic!() };
        assert_eq!(
            f.state["g"],
            Cell::Scalar(DataType::Float, Value::Float(2.5))
        );
    }
}
