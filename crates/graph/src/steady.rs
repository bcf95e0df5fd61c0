//! Steady-state schedule solver.
//!
//! StreamIt programs admit a *steady-state schedule*: an assignment of
//! repetition counts to filters such that every channel returns to its
//! initial occupancy (§3.3.1 of the paper, after Karczmarek's scheduling
//! work). This module solves the SDF balance equations hierarchically with
//! exact rationals and normalizes to the minimal integral repetition
//! vector. The optimization-selection cost model scales per-firing costs by
//! these repetition counts, and Table 5.2's statistics derive from them.

use std::collections::HashMap;

use streamlin_support::ratio::{common_denominator, Ratio};

use crate::ir::{Splitter, Stream};

/// Items consumed/produced by one macro-firing of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SteadyIo {
    /// Items popped from the stream's input per steady-state cycle.
    pub pop: u64,
    /// Items pushed to the stream's output per steady-state cycle.
    pub push: u64,
}

/// A solved steady state: I/O totals plus per-filter repetition counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Steady {
    /// I/O per steady-state cycle of the whole stream.
    pub io: SteadyIo,
    /// Filter-instance id → firings per steady-state cycle.
    pub reps: HashMap<usize, u64>,
}

/// Errors from the balance-equation solver.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleError {
    /// Explanation of the inconsistency.
    pub message: String,
}

impl ScheduleError {
    fn new(message: impl Into<String>) -> Self {
        ScheduleError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scheduling error: {}", self.message)
    }
}

impl std::error::Error for ScheduleError {}

/// Solves the steady state of a stream.
///
/// # Errors
///
/// Returns a [`ScheduleError`] when the balance equations are inconsistent
/// (e.g. a splitjoin whose branches cannot agree on a splitter rate).
pub fn steady_state(s: &Stream) -> Result<Steady, ScheduleError> {
    solve(s)
}

/// One directed channel of a flat SDF graph, with per-firing rates: node
/// `from` pushes `push` items per firing, node `to` pops `pop` per firing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateEdge {
    /// Producer node index.
    pub from: usize,
    /// Consumer node index.
    pub to: usize,
    /// Items pushed per producer firing.
    pub push: u64,
    /// Items popped per consumer firing.
    pub pop: u64,
}

/// Solves the balance equations of a *flat* SDF graph: returns the minimal
/// repetition vector `q` such that `q[from] * push == q[to] * pop` holds on
/// every edge. This is the entry point the runtime's schedule compiler uses
/// on the flattened node/channel graph (where splitters, joiners, and
/// decimators are materialized nodes the hierarchical solver never sees).
///
/// Disconnected components are normalized independently, each to its own
/// minimal positive vector.
///
/// # Errors
///
/// Returns a [`ScheduleError`] if an edge has a zero rate on one side only
/// (data piles up or starves forever) or if two paths between the same
/// nodes imply inconsistent rates.
pub fn balance(num_nodes: usize, edges: &[RateEdge]) -> Result<Vec<u64>, ScheduleError> {
    for e in edges {
        if e.from >= num_nodes || e.to >= num_nodes {
            return Err(ScheduleError::new("edge endpoint out of range"));
        }
        if (e.push == 0) != (e.pop == 0) {
            return Err(ScheduleError::new(format!(
                "channel {} -> {} has a zero rate on one side only ({} vs {})",
                e.from, e.to, e.push, e.pop
            )));
        }
    }
    // Undirected adjacency for rate propagation.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); num_nodes];
    for (i, e) in edges.iter().enumerate() {
        adj[e.from].push(i);
        adj[e.to].push(i);
    }
    let mut rates: Vec<Option<Ratio>> = vec![None; num_nodes];
    let mut reps = vec![0u64; num_nodes];
    for root in 0..num_nodes {
        if rates[root].is_some() {
            continue;
        }
        // BFS this component with root rate 1.
        rates[root] = Some(Ratio::one());
        let mut component = vec![root];
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(n) = queue.pop_front() {
            let rn = rates[n].expect("queued nodes have rates");
            for &ei in &adj[n] {
                let e = &edges[ei];
                if e.push == 0 {
                    continue; // zero-zero edge constrains nothing
                }
                let (other, implied) = if e.from == n {
                    (e.to, rn * Ratio::new(e.push as i128, e.pop as i128))
                } else {
                    (e.from, rn * Ratio::new(e.pop as i128, e.push as i128))
                };
                match rates[other] {
                    None => {
                        rates[other] = Some(implied);
                        component.push(other);
                        queue.push_back(other);
                    }
                    Some(existing) if existing == implied => {}
                    Some(existing) => {
                        return Err(ScheduleError::new(format!(
                            "nodes {n} and {other} disagree on rates ({existing} vs {implied}); \
                             the graph is not schedulable"
                        )))
                    }
                }
            }
        }
        let ms: Vec<Ratio> = component
            .iter()
            .map(|&n| rates[n].expect("component solved"))
            .collect();
        let ints = normalize(&ms)?;
        for (&n, &q) in component.iter().zip(&ints) {
            reps[n] = q;
        }
    }
    Ok(reps)
}

fn solve(s: &Stream) -> Result<Steady, ScheduleError> {
    match s {
        Stream::Filter(f) => {
            let mut reps = HashMap::new();
            reps.insert(f.id, 1);
            Ok(Steady {
                io: SteadyIo {
                    pop: f.work.pop as u64,
                    push: f.work.push as u64,
                },
                reps,
            })
        }
        Stream::Pipeline(children) => {
            let (mults, sols) = pipeline_multipliers(children)?;
            let io = SteadyIo {
                pop: mults[0] * sols[0].io.pop,
                push: mults[mults.len() - 1] * sols[sols.len() - 1].io.push,
            };
            Ok(Steady {
                io,
                reps: merge_reps(&sols, &mults),
            })
        }
        Stream::SplitJoin {
            split,
            children,
            join,
        } => {
            let (mults, sols, s_cycles, j_cycles) = splitjoin_multipliers(split, children, join)?;
            let pop = s_cycles * split.items_per_cycle() as u64;
            let push = j_cycles * join.items_per_cycle() as u64;
            Ok(Steady {
                io: SteadyIo { pop, push },
                reps: merge_reps(&sols, &mults),
            })
        }
        Stream::FeedbackLoop {
            join,
            body,
            loop_stream,
            split,
            ..
        } => {
            let m = feedback_multipliers(join, body, loop_stream, split)?;
            let body_sol = solve(body)?;
            let loop_sol = solve(loop_stream)?;
            let reps = merge_reps(&[body_sol, loop_sol], &[m.body, m.loop_reps]);
            Ok(Steady {
                io: SteadyIo {
                    pop: m.pop,
                    push: m.push,
                },
                reps,
            })
        }
    }
}

fn merge_reps(sols: &[Steady], mults: &[u64]) -> HashMap<usize, u64> {
    let mut reps = HashMap::new();
    for (sol, &m) in sols.iter().zip(mults) {
        for (&id, &r) in &sol.reps {
            reps.insert(id, r * m);
        }
    }
    reps
}

fn gcd(a: u64, b: u64) -> u64 {
    streamlin_support::num::gcd(a, b)
}

/// Normalizes rational multipliers to the minimal positive integers with
/// the same ratios.
fn normalize(ms: &[Ratio]) -> Result<Vec<u64>, ScheduleError> {
    let l = common_denominator(ms.iter());
    let mut ints = Vec::with_capacity(ms.len());
    for m in ms {
        let v = (*m * Ratio::from_int(l))
            .to_integer()
            .expect("common denominator clears all fractions");
        if v <= 0 {
            return Err(ScheduleError::new("non-positive repetition count"));
        }
        ints.push(v as u64);
    }
    let g = ints.iter().copied().fold(0, gcd).max(1);
    Ok(ints.iter().map(|v| v / g).collect())
}

fn pipeline_multipliers(children: &[Stream]) -> Result<(Vec<u64>, Vec<Steady>), ScheduleError> {
    let sols: Vec<Steady> = children.iter().map(solve).collect::<Result<_, _>>()?;
    let mut ms = vec![Ratio::one()];
    for i in 0..sols.len() - 1 {
        let up = sols[i].io.push;
        let down = sols[i + 1].io.pop;
        let next = match (up, down) {
            (0, 0) => Ratio::one(),
            (0, _) => {
                return Err(ScheduleError::new(format!(
                    "pipeline stage {} produces nothing but stage {} consumes",
                    i,
                    i + 1
                )))
            }
            (_, 0) => {
                return Err(ScheduleError::new(format!(
                    "pipeline stage {} produces data but stage {} consumes nothing",
                    i,
                    i + 1
                )))
            }
            (u, d) => ms[i] * Ratio::new(u as i128, d as i128),
        };
        ms.push(next);
    }
    let mults = normalize(&ms)?;
    Ok((mults, sols))
}

#[allow(clippy::type_complexity)]
fn splitjoin_multipliers(
    split: &Splitter,
    children: &[Stream],
    join: &crate::ir::Joiner,
) -> Result<(Vec<u64>, Vec<Steady>, u64, u64), ScheduleError> {
    let sols: Vec<Steady> = children.iter().map(solve).collect::<Result<_, _>>()?;
    if join.weights.len() != children.len() {
        return Err(ScheduleError::new("joiner weight count mismatch"));
    }
    let n = children.len();
    // Work with joiner cycles J = 1.
    let mut r: Vec<Option<Ratio>> = vec![None; n];
    for k in 0..n {
        let q = sols[k].io.push;
        let w = join.weights[k] as u64;
        match (q, w) {
            (0, 0) => {}
            (0, _) => {
                return Err(ScheduleError::new(format!(
                    "splitjoin child {k} pushes nothing but the joiner expects items from it"
                )))
            }
            (_, 0) => {
                return Err(ScheduleError::new(format!(
                    "splitjoin child {k} pushes data but its joiner weight is zero"
                )))
            }
            (q, w) => r[k] = Some(Ratio::new(w as i128, q as i128)),
        }
    }
    // Determine splitter cycles S from any child constrained on both sides.
    let mut s_cycles: Option<Ratio> = None;
    for k in 0..n {
        let p = sols[k].io.pop;
        let v = split.weight(k) as u64;
        if let (Some(rk), true, true) = (r[k], p > 0, v > 0) {
            let cand = rk * Ratio::new(p as i128, v as i128);
            match s_cycles {
                None => s_cycles = Some(cand),
                Some(existing) if existing == cand => {}
                Some(existing) => {
                    return Err(ScheduleError::new(format!(
                        "splitjoin branches disagree on the splitter rate ({existing} vs {cand}); \
                         the graph is not schedulable"
                    )))
                }
            }
        }
    }
    let s_cycles = match s_cycles {
        Some(s) => s,
        None => {
            // No child consumes input: a splitjoin of sources.
            if sols.iter().any(|s| s.io.pop > 0) {
                return Err(ScheduleError::new(
                    "splitjoin mixes source children with consuming children",
                ));
            }
            Ratio::zero()
        }
    };
    // Children unconstrained by the joiner get their rate from the splitter.
    for k in 0..n {
        if r[k].is_none() {
            let p = sols[k].io.pop;
            let v = split.weight(k) as u64;
            if p == 0 {
                return Err(ScheduleError::new(format!(
                    "splitjoin child {k} neither consumes nor produces data"
                )));
            }
            r[k] = Some(s_cycles * Ratio::new(v as i128, p as i128));
        }
    }
    // Consistency: every child must drain exactly what the splitter sends.
    for k in 0..n {
        let p = sols[k].io.pop;
        let v = split.weight(k) as u64;
        let rk = r[k].expect("all rates resolved above");
        if rk * Ratio::from_int(p as i128) != s_cycles * Ratio::from_int(v as i128) {
            return Err(ScheduleError::new(format!(
                "splitjoin child {k} cannot keep up with the splitter; not schedulable"
            )));
        }
    }
    // Normalize r ∪ {S, J}.
    let mut all: Vec<Ratio> = r.iter().map(|x| x.expect("resolved")).collect();
    all.push(Ratio::one()); // J
    let with_s = s_cycles != Ratio::zero();
    if with_s {
        all.push(s_cycles);
    }
    let ints = normalize(&all)?;
    let mults = ints[..n].to_vec();
    let j_cycles = ints[n];
    let s_int = if with_s { ints[n + 1] } else { 0 };
    Ok((mults, sols, s_int, j_cycles))
}

struct FeedbackRates {
    body: u64,
    loop_reps: u64,
    pop: u64,
    push: u64,
}

fn feedback_multipliers(
    join: &crate::ir::Joiner,
    body: &Stream,
    loop_stream: &Stream,
    split: &Splitter,
) -> Result<FeedbackRates, ScheduleError> {
    let body_sol = solve(body)?;
    let loop_sol = solve(loop_stream)?;
    let (w_in, w_fb) = (join.weights[0] as i128, join.weights[1] as i128);
    let (pb, qb) = (body_sol.io.pop as i128, body_sol.io.push as i128);
    let (pl, ql) = (loop_sol.io.pop as i128, loop_sol.io.push as i128);
    if pb == 0 || qb == 0 || pl == 0 || ql == 0 {
        return Err(ScheduleError::new(
            "feedbackloop body and loop streams must both consume and produce data",
        ));
    }
    // J = 1 joiner cycles.
    let rb = Ratio::new(w_in + w_fb, pb);
    let (s_cycles, loop_in, push_per_s) = match split {
        Splitter::Duplicate => {
            let s = rb * Ratio::from_int(qb);
            (s, s, Ratio::one())
        }
        Splitter::RoundRobin(v) => {
            if v.len() != 2 {
                return Err(ScheduleError::new("feedback splitter must have 2 weights"));
            }
            let (v_out, v_fb) = (v[0] as i128, v[1] as i128);
            let s = rb * Ratio::from_int(qb) / Ratio::from_int(v_out + v_fb);
            (s, s * Ratio::from_int(v_fb), Ratio::from_int(v_out))
        }
    };
    let rl = loop_in / Ratio::from_int(pl);
    // Consistency: the loop must feed the joiner exactly w_fb per cycle.
    if rl * Ratio::from_int(ql) != Ratio::from_int(w_fb) {
        return Err(ScheduleError::new(
            "feedbackloop rates are inconsistent: the loop path does not balance",
        ));
    }
    let push_total = s_cycles * push_per_s;
    let all = [rb, rl, Ratio::one(), push_total, Ratio::from_int(w_in)];
    let nonzero: Vec<Ratio> = all.iter().filter(|r| !r.is_zero()).copied().collect();
    let l = common_denominator(nonzero.iter());
    let scale =
        |r: Ratio| -> u64 { (r * Ratio::from_int(l)).to_integer().expect("cleared") as u64 };
    let mut ints = vec![scale(rb), scale(rl), scale(Ratio::one())];
    let push_i = scale(push_total);
    let pop_i = scale(Ratio::from_int(w_in));
    ints.push(push_i);
    ints.push(pop_i);
    let g = ints.iter().copied().filter(|&v| v > 0).fold(0, gcd).max(1);
    Ok(FeedbackRates {
        body: scale(rb) / g,
        loop_reps: scale(rl) / g,
        pop: pop_i / g,
        push: push_i / g,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::elaborate;
    use streamlin_lang::parse;

    fn steady(src: &str) -> Steady {
        steady_state(&elaborate(&parse(src).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn downsample_pipeline_rates() {
        // Source(push 1) -> Compressor(pop 2 push 1) -> Sink(pop 1):
        // source fires 2x per sink firing.
        let s = steady(
            "void->void pipeline Main { add S(); add C(); add K(); }
             void->float filter S { work push 1 { push(0.0); } }
             float->float filter C { work pop 2 push 1 { push(pop()); pop(); } }
             float->void filter K { work pop 1 { pop(); } }",
        );
        let reps: Vec<u64> = {
            let mut v: Vec<_> = s.reps.iter().collect();
            v.sort();
            v.into_iter().map(|(_, &r)| r).collect()
        };
        assert_eq!(reps, vec![2, 1, 1]);
        assert_eq!(s.io.pop, 0);
        assert_eq!(s.io.push, 0);
    }

    #[test]
    fn expander_compressor_cancel() {
        let s = steady(
            "void->void pipeline Main { add S(); add E(); add C(); add K(); }
             void->float filter S { work push 1 { push(0.0); } }
             float->float filter E { work pop 1 push 3 { push(pop()); push(0); push(0); } }
             float->float filter C { work pop 3 push 1 { push(pop()); pop(); pop(); } }
             float->void filter K { work pop 1 { pop(); } }",
        );
        let mut v: Vec<_> = s.reps.iter().collect();
        v.sort();
        let reps: Vec<u64> = v.into_iter().map(|(_, &r)| r).collect();
        assert_eq!(reps, vec![1, 1, 1, 1]);
    }

    #[test]
    fn duplicate_splitjoin_balances() {
        let s = steady(
            "void->void pipeline Main { add S(); add SJ(); add K(); }
             void->float filter S { work push 1 { push(0.0); } }
             float->float splitjoin SJ {
                 split duplicate;
                 add A(); add B();
                 join roundrobin(1, 2);
             }
             float->float filter A { work pop 2 push 1 { push(pop()); pop(); } }
             float->float filter B { work pop 1 push 1 { push(pop()); } }
             float->void filter K { work pop 1 { pop(); } }",
        );
        // A: per joiner cycle needs 1 output => 1 firing consuming 2.
        // B: needs 2 outputs => 2 firings consuming 2. Consistent: S=2.
        assert_eq!(s.io.pop, 0);
        // Source fires 2 per steady state; sink pops 3.
        let total: u64 = s.reps.values().sum();
        assert!(total >= 6, "reps: {:?}", s.reps);
    }

    #[test]
    fn inconsistent_splitjoin_is_rejected() {
        let p = parse(
            "void->void pipeline Main { add S(); add SJ(); add K(); }
             void->float filter S { work push 1 { push(0.0); } }
             float->float splitjoin SJ {
                 split duplicate;
                 add A(); add B();
                 join roundrobin(1, 1);
             }
             float->float filter A { work pop 2 push 1 { push(pop()); pop(); } }
             float->float filter B { work pop 1 push 1 { push(pop()); } }
             float->void filter K { work pop 1 { pop(); } }",
        )
        .unwrap();
        let g = elaborate(&p).unwrap();
        let err = steady_state(&g).unwrap_err();
        assert!(err.message.contains("not schedulable"), "{err}");
    }

    #[test]
    fn roundrobin_splitter_rates() {
        let s = steady(
            "void->void pipeline Main { add S(); add SJ(); add K(); }
             void->float filter S { work push 3 { push(0.0); push(0.0); push(0.0); } }
             float->float splitjoin SJ {
                 split roundrobin(2, 1);
                 add A(); add B();
                 join roundrobin(2, 1);
             }
             float->float filter A { work pop 1 push 1 { push(pop()); } }
             float->float filter B { work pop 1 push 1 { push(pop()); } }
             float->void filter K { work pop 3 { pop(); pop(); pop(); } }",
        );
        let total: u64 = s.reps.values().sum();
        // S:1, A:2, B:1, K:1 => 5
        assert_eq!(total, 5, "reps: {:?}", s.reps);
    }

    #[test]
    fn feedbackloop_balances() {
        let s = steady(
            "void->void pipeline Main { add S(); add FB(); add K(); }
             void->float filter S { work push 1 { push(1.0); } }
             float->void filter K { work pop 1 { pop(); } }
             float->float feedbackloop FB {
                 join roundrobin(1, 1);
                 body B();
                 loop L();
                 split roundrobin(1, 1);
                 enqueue 0;
             }
             float->float filter B { work pop 2 push 2 { push(pop() + peek(0)); push(pop()); } }
             float->float filter L { work pop 1 push 1 { push(pop()); } }",
        );
        let total: u64 = s.reps.values().sum();
        assert_eq!(total, 4, "reps: {:?}", s.reps); // S, B, L, K once each
    }

    #[test]
    fn flat_balance_solves_a_chain() {
        // S (push 1) -> C (pop 2, push 1) -> K (pop 3): q = [6, 3, 1].
        let edges = [
            RateEdge {
                from: 0,
                to: 1,
                push: 1,
                pop: 2,
            },
            RateEdge {
                from: 1,
                to: 2,
                push: 1,
                pop: 3,
            },
        ];
        assert_eq!(balance(3, &edges).unwrap(), vec![6, 3, 1]);
    }

    #[test]
    fn flat_balance_solves_a_diamond() {
        // split(1 each) -> two branches (pop 1 push 1 / pop 1 push 2) -> join(1, 2).
        let edges = [
            RateEdge {
                from: 0,
                to: 1,
                push: 1,
                pop: 1,
            },
            RateEdge {
                from: 0,
                to: 2,
                push: 1,
                pop: 1,
            },
            RateEdge {
                from: 1,
                to: 3,
                push: 1,
                pop: 1,
            },
            RateEdge {
                from: 2,
                to: 3,
                push: 2,
                pop: 2,
            },
        ];
        assert_eq!(balance(4, &edges).unwrap(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn flat_balance_rejects_inconsistent_cycles_of_constraints() {
        // Diamond whose two paths imply different rates for the join.
        let edges = [
            RateEdge {
                from: 0,
                to: 1,
                push: 1,
                pop: 1,
            },
            RateEdge {
                from: 0,
                to: 2,
                push: 1,
                pop: 1,
            },
            RateEdge {
                from: 1,
                to: 3,
                push: 1,
                pop: 1,
            },
            RateEdge {
                from: 2,
                to: 3,
                push: 2,
                pop: 1,
            },
        ];
        assert!(balance(4, &edges).is_err());
    }

    #[test]
    fn flat_balance_rejects_one_sided_zero_rates() {
        let edges = [RateEdge {
            from: 0,
            to: 1,
            push: 0,
            pop: 2,
        }];
        assert!(balance(2, &edges).is_err());
    }

    #[test]
    fn flat_balance_normalizes_components_independently() {
        // Two disjoint chains: each gets its own minimal vector.
        let edges = [
            RateEdge {
                from: 0,
                to: 1,
                push: 2,
                pop: 1,
            },
            RateEdge {
                from: 2,
                to: 3,
                push: 1,
                pop: 3,
            },
        ];
        assert_eq!(balance(4, &edges).unwrap(), vec![1, 2, 3, 1]);
    }

    #[test]
    fn rate_mismatch_mid_pipeline_is_rejected() {
        let p = parse(
            "void->void pipeline Main { add S(); add X(); add K(); }
             void->float filter S { work push 1 { push(0.0); } }
             float->void filter X { work pop 1 { pop(); } }
             float->void filter K { work pop 1 { pop(); } }",
        )
        .unwrap();
        let g = elaborate(&p).unwrap();
        assert!(steady_state(&g).is_err());
    }
}
