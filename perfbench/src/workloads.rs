//! The four benchmark workloads: instance generation from a seed, the
//! sequential reference answer, the solve (build, routed facade run,
//! reconstruction) and the correctness gate.

use std::cmp::Reverse;

use parallel_dp::core::StallError;
use parallel_dp::gap::{
    convex_gap_instance, sequential_gap, try_reconstruct_gap_ops, GapOp, PackedGapCordon,
};
use parallel_dp::glws::{sequential_convex_glws, ConvexGlwsCordon, GlwsProblem, PostOfficeProblem};
use parallel_dp::lcs::{reconstruct_lcs, sequential_sparse_lcs, LcsCordon, MatchPair};
use parallel_dp::oat::{garsia_wachs, oat_cordon_auto};
use parallel_dp::parutils::Metrics;
use parallel_dp::workloads as gen;

use crate::trace::{Runner, Step};

/// Why a solve produced no answer.
#[derive(Debug)]
pub enum SolveError {
    /// The driver's stall guard fired.
    Stall(StallError),
    /// Reconstruction failed.
    Reconstruct(String),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Stall(e) => write!(f, "stall: {e}"),
            SolveError::Reconstruct(e) => write!(f, "reconstruction failed: {e}"),
        }
    }
}

/// A solve's reconstructed answer plus the engine's counters.
#[derive(Debug)]
pub struct Solved<A> {
    /// The reconstructed answer.
    pub answer: A,
    /// Rounds, frontier log and work counters of the run.
    pub metrics: Metrics,
}

/// One benchmark workload.
pub trait Workload: Sync {
    /// Raw inputs generated from the seed.
    type Input: PartialEq + Sync;
    /// The sequential reference answer.
    type Reference;
    /// A solve's reconstructed answer.
    type Answer: PartialEq + std::fmt::Debug + Send;

    /// Workload name as passed to `--workload`.
    fn name(&self) -> &'static str;

    /// Instance parameters as a JSON object.
    fn params_json(&self) -> String;

    /// Generate the raw inputs for `seed`.
    fn generate(&self, seed: u64) -> Self::Input;

    /// Solve with the strongest sequential algorithm; also returns its
    /// counters (the base of `metrics.work_ratio`).
    fn reference(&self, input: &Self::Input) -> (Self::Reference, Metrics);

    /// Build the problem, run the routed cordon through the facade, and
    /// reconstruct the answer, with each step going through `runner`.
    fn solve<R: Runner>(
        &self,
        input: &Self::Input,
        runner: &mut R,
    ) -> Result<Solved<Self::Answer>, SolveError>;

    /// Check an answer against the reference and validate its
    /// reconstruction.
    fn check(
        &self,
        input: &Self::Input,
        reference: &Self::Reference,
        answer: &Self::Answer,
    ) -> Result<(), String>;
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

// ---------------------------------------------------------------------------
// gap_deep
// ---------------------------------------------------------------------------

const GAP_OPEN: i64 = 3;
const GAP_EXT: i64 = 1;
const GAP_QUAD: i64 = 1;

/// GAP edit distance with convex gap costs, solved by the packed cordon.
pub struct GapDeep {
    /// Length of the base string.
    pub n: usize,
    /// Length of the mutated copy.
    pub m: usize,
    /// Alphabet size.
    pub alphabet: u8,
}

/// Inputs of [`GapDeep`].
#[derive(Debug, PartialEq)]
pub struct GapInput {
    a: Vec<u8>,
    b: Vec<u8>,
}

/// Answer of [`GapDeep`].
#[derive(Debug, PartialEq)]
pub struct GapAnswer {
    d: Vec<Vec<i64>>,
    cost: i64,
    ops: Vec<GapOp>,
}

impl Workload for GapDeep {
    type Input = GapInput;
    type Reference = (Vec<Vec<i64>>, i64);
    type Answer = GapAnswer;

    fn name(&self) -> &'static str {
        "gap_deep"
    }

    fn params_json(&self) -> String {
        format!(
            "{{\"generator\":\"gap_strings\",\"n\":{},\"m\":{},\"alphabet\":{},\
             \"gap_cost\":\"convex_gap_instance(open={GAP_OPEN}, ext={GAP_EXT}, quad={GAP_QUAD})\",\
             \"cordon\":\"PackedGapCordon\"}}",
            self.n, self.m, self.alphabet
        )
    }

    fn generate(&self, seed: u64) -> GapInput {
        let (a, b) = gen::gap_strings(self.n, self.m, self.alphabet, seed);
        GapInput { a, b }
    }

    fn reference(&self, input: &GapInput) -> (Self::Reference, Metrics) {
        let inst = convex_gap_instance(&input.a, &input.b, GAP_OPEN, GAP_EXT, GAP_QUAD);
        let r = sequential_gap(&inst);
        ((r.d, r.cost), r.metrics)
    }

    fn solve<R: Runner>(
        &self,
        input: &GapInput,
        runner: &mut R,
    ) -> Result<Solved<GapAnswer>, SolveError> {
        let inst = runner.step(Step::Build, || {
            convex_gap_instance(&input.a, &input.b, GAP_OPEN, GAP_EXT, GAP_QUAD)
        });
        let cordon = runner.step(Step::CordonNew, || PackedGapCordon::new(&inst));
        let run = runner.run(cordon).map_err(SolveError::Stall)?;
        let d = run.output;
        let ops = runner
            .step(Step::Reconstruct, || try_reconstruct_gap_ops(&inst, &d))
            .map_err(|e| SolveError::Reconstruct(e.to_string()))?;
        let cost = d[input.a.len()][input.b.len()];
        Ok(Solved {
            answer: GapAnswer { d, cost, ops },
            metrics: run.metrics,
        })
    }

    fn check(
        &self,
        input: &GapInput,
        (ref_d, ref_cost): &Self::Reference,
        answer: &GapAnswer,
    ) -> Result<(), String> {
        ensure(answer.cost == *ref_cost, || {
            format!("cost {} != sequential {}", answer.cost, ref_cost)
        })?;
        ensure(answer.d == *ref_d, || {
            "DP grid differs from sequential".into()
        })?;
        // Replay the alignment: it must walk (0,0) -> (n,m) and cost `cost`.
        let (a, b) = (&input.a, &input.b);
        let inst = convex_gap_instance(a, b, GAP_OPEN, GAP_EXT, GAP_QUAD);
        let (mut i, mut j, mut total) = (0usize, 0usize, 0i64);
        for op in &answer.ops {
            match *op {
                GapOp::Match { i: oi, j: oj } => {
                    ensure(
                        oi == i + 1 && oj == j + 1 && oi <= a.len() && oj <= b.len(),
                        || format!("match {oi},{oj} does not follow ({i},{j})"),
                    )?;
                    ensure(a[oi - 1] == b[oj - 1], || {
                        format!("match {oi},{oj} mismatches")
                    })?;
                    (i, j) = (oi, oj);
                }
                GapOp::GapA { l, r } => {
                    ensure(l == i && l < r && r <= a.len(), || {
                        format!("gap in A {l}..{r} does not follow row {i}")
                    })?;
                    total += (inst.w1)(l, r);
                    i = r;
                }
                GapOp::GapB { l, r } => {
                    ensure(l == j && l < r && r <= b.len(), || {
                        format!("gap in B {l}..{r} does not follow column {j}")
                    })?;
                    total += (inst.w2)(l, r);
                    j = r;
                }
            }
        }
        ensure((i, j) == (a.len(), b.len()), || {
            format!("alignment ends at ({i},{j})")
        })?;
        ensure(total == answer.cost, || {
            format!("alignment replays to {total}, not {}", answer.cost)
        })
    }
}

// ---------------------------------------------------------------------------
// lcs_wide
// ---------------------------------------------------------------------------

/// Sparse LCS over generated matching pairs (the Fig. 6 shape).
pub struct LcsWide {
    /// Number of matching pairs `L`.
    pub l: usize,
    /// LCS length `k`.
    pub k: usize,
}

/// Answer of [`LcsWide`].
#[derive(Debug, PartialEq)]
pub struct LcsAnswer {
    values: Vec<u32>,
    length: u32,
    chain: Vec<MatchPair>,
}

impl Workload for LcsWide {
    type Input = Vec<(u32, u32)>;
    type Reference = (u32, Vec<u32>);
    type Answer = LcsAnswer;

    fn name(&self) -> &'static str {
        "lcs_wide"
    }

    fn params_json(&self) -> String {
        format!(
            "{{\"generator\":\"lcs_pairs_with\",\"l\":{},\"k\":{},\"cordon\":\"LcsCordon\"}}",
            self.l, self.k
        )
    }

    fn generate(&self, seed: u64) -> Self::Input {
        gen::lcs_pairs_with(self.l, self.k, seed)
    }

    fn reference(&self, input: &Self::Input) -> (Self::Reference, Metrics) {
        let r = sequential_sparse_lcs(&to_pairs(input));
        ((r.length, r.pair_values), r.metrics)
    }

    fn solve<R: Runner>(
        &self,
        input: &Self::Input,
        runner: &mut R,
    ) -> Result<Solved<LcsAnswer>, SolveError> {
        let pairs = runner.step(Step::Build, || to_pairs(input));
        let cordon = runner.step(Step::CordonNew, || LcsCordon::new(&pairs));
        let run = runner.run(cordon).map_err(SolveError::Stall)?;
        let (values, length) = run.output;
        let chain = runner.step(Step::Reconstruct, || {
            reconstruct_lcs(&pairs, &values, length)
        });
        Ok(Solved {
            answer: LcsAnswer {
                values,
                length,
                chain,
            },
            metrics: run.metrics,
        })
    }

    fn check(
        &self,
        input: &Self::Input,
        (ref_length, ref_values): &Self::Reference,
        answer: &LcsAnswer,
    ) -> Result<(), String> {
        ensure(answer.length == *ref_length, || {
            format!("length {} != sequential {}", answer.length, ref_length)
        })?;
        ensure(answer.values == *ref_values, || {
            "pair values differ from sequential".into()
        })?;
        ensure(answer.chain.len() == answer.length as usize, || {
            format!(
                "chain has {} pairs, length is {}",
                answer.chain.len(),
                answer.length
            )
        })?;
        for w in answer.chain.windows(2) {
            ensure(w[0].i < w[1].i && w[0].j < w[1].j, || {
                format!("chain not strictly increasing at {:?}", w)
            })?;
        }
        // Every chain pair is a matching pair (input is in canonical order).
        for p in &answer.chain {
            let found = input
                .binary_search_by_key(&(p.i, Reverse(p.j)), |&(i, j)| (i, Reverse(j)))
                .is_ok();
            ensure(found, || format!("chain pair {p:?} is not a matching pair"))?;
        }
        Ok(())
    }
}

fn to_pairs(input: &[(u32, u32)]) -> Vec<MatchPair> {
    input.iter().map(|&(i, j)| MatchPair { i, j }).collect()
}

// ---------------------------------------------------------------------------
// glws_fig7
// ---------------------------------------------------------------------------

/// Convex GLWS on a post-office instance (the Fig. 7 shape).
pub struct GlwsFig7 {
    /// Number of villages.
    pub n: usize,
    /// Planted number of clusters (offices in the optimum).
    pub k: usize,
}

/// Inputs of [`GlwsFig7`].
#[derive(Debug, PartialEq)]
pub struct GlwsInput {
    coords: Vec<i64>,
    open_cost: i64,
    clusters: usize,
}

/// Answer of [`GlwsFig7`].
#[derive(Debug, PartialEq)]
pub struct GlwsAnswer {
    d: Vec<i64>,
    best: Vec<usize>,
    /// Segment boundaries of the optimal chain, `0 = c0 < ... < ck = n`.
    chain: Vec<usize>,
}

impl Workload for GlwsFig7 {
    type Input = GlwsInput;
    type Reference = Vec<i64>;
    type Answer = GlwsAnswer;

    fn name(&self) -> &'static str {
        "glws_fig7"
    }

    fn params_json(&self) -> String {
        format!(
            "{{\"generator\":\"post_office_instance\",\"n\":{},\"k\":{},\
             \"cordon\":\"ConvexGlwsCordon\"}}",
            self.n, self.k
        )
    }

    fn generate(&self, seed: u64) -> GlwsInput {
        let inst = gen::post_office_instance(self.n, self.k, seed);
        GlwsInput {
            coords: inst.coords,
            open_cost: inst.open_cost,
            clusters: inst.clusters,
        }
    }

    fn reference(&self, input: &GlwsInput) -> (Vec<i64>, Metrics) {
        let problem = PostOfficeProblem::new(input.coords.clone(), input.open_cost);
        let r = sequential_convex_glws(&problem);
        (r.d, r.metrics)
    }

    fn solve<R: Runner>(
        &self,
        input: &GlwsInput,
        runner: &mut R,
    ) -> Result<Solved<GlwsAnswer>, SolveError> {
        let problem = runner.step(Step::Build, || {
            PostOfficeProblem::new(input.coords.clone(), input.open_cost)
        });
        let cordon = runner.step(Step::CordonNew, || ConvexGlwsCordon::new(&problem));
        let run = runner.run(cordon).map_err(SolveError::Stall)?;
        let (d, best) = run.output;
        let chain = runner
            .step(Step::Reconstruct, || best_chain(&best))
            .map_err(SolveError::Reconstruct)?;
        Ok(Solved {
            answer: GlwsAnswer { d, best, chain },
            metrics: run.metrics,
        })
    }

    fn check(
        &self,
        input: &GlwsInput,
        reference: &Vec<i64>,
        answer: &GlwsAnswer,
    ) -> Result<(), String> {
        ensure(answer.d == *reference, || {
            "d differs from sequential".into()
        })?;
        let problem = PostOfficeProblem::new(input.coords.clone(), input.open_cost);
        let n = problem.n();
        ensure(
            answer.chain.first() == Some(&0) && answer.chain.last() == Some(&n),
            || "chain does not span 0..n".into(),
        )?;
        let cost: i64 = answer
            .chain
            .windows(2)
            .map(|w| problem.w(w[0], w[1]))
            .sum::<i64>()
            + problem.d0();
        ensure(cost == answer.d[n], || {
            format!("chain costs {cost}, d[n] is {}", answer.d[n])
        })?;
        ensure(answer.chain.len() == input.clusters + 1, || {
            format!(
                "chain opens {} offices, instance plants {}",
                answer.chain.len() - 1,
                input.clusters
            )
        })
    }
}

/// Walk the best decisions back from `n`; errors on a decision that does
/// not move strictly left.
fn best_chain(best: &[usize]) -> Result<Vec<usize>, String> {
    let mut chain = vec![best.len() - 1];
    let mut cur = best.len() - 1;
    while cur != 0 {
        let prev = best[cur];
        if prev >= cur {
            return Err(format!("best[{cur}] = {prev} does not move left"));
        }
        chain.push(prev);
        cur = prev;
    }
    chain.reverse();
    Ok(chain)
}

// ---------------------------------------------------------------------------
// oat_valley
// ---------------------------------------------------------------------------

/// Optimal alphabetic tree through the size router (valley cordon).
pub struct OatValley {
    /// Number of leaves.
    pub n: usize,
    /// Largest leaf weight.
    pub max_weight: u64,
}

/// Answer of [`OatValley`].
#[derive(Debug, PartialEq)]
pub struct OatAnswer {
    cost: u64,
    depths: Vec<u32>,
    height: u32,
}

impl Workload for OatValley {
    type Input = Vec<u64>;
    type Reference = u64;
    type Answer = OatAnswer;

    fn name(&self) -> &'static str {
        "oat_valley"
    }

    fn params_json(&self) -> String {
        format!(
            "{{\"generator\":\"positive_weights\",\"n\":{},\"max_weight\":{},\
             \"cordon\":\"oat_cordon_auto\"}}",
            self.n, self.max_weight
        )
    }

    fn generate(&self, seed: u64) -> Vec<u64> {
        gen::positive_weights(self.n, self.max_weight, seed)
    }

    fn reference(&self, input: &Vec<u64>) -> (u64, Metrics) {
        let r = garsia_wachs(input);
        (r.cost, r.metrics)
    }

    fn solve<R: Runner>(
        &self,
        input: &Vec<u64>,
        runner: &mut R,
    ) -> Result<Solved<OatAnswer>, SolveError> {
        let weights = runner.step(Step::Build, || input.as_slice());
        let cordon = runner.step(Step::CordonNew, || oat_cordon_auto(weights));
        let run = runner.run(cordon).map_err(SolveError::Stall)?;
        let layout = run.output;
        let height = runner.step(Step::Reconstruct, || {
            layout.depths.iter().copied().max().unwrap_or(0)
        });
        Ok(Solved {
            answer: OatAnswer {
                cost: layout.cost,
                depths: layout.depths,
                height,
            },
            metrics: run.metrics,
        })
    }

    fn check(&self, input: &Vec<u64>, reference: &u64, answer: &OatAnswer) -> Result<(), String> {
        ensure(answer.cost == *reference, || {
            format!("cost {} != Garsia-Wachs {}", answer.cost, reference)
        })?;
        ensure(answer.depths.len() == input.len(), || {
            format!("{} depths for {} leaves", answer.depths.len(), input.len())
        })?;
        let weighted: u128 = input
            .iter()
            .zip(&answer.depths)
            .map(|(&w, &d)| w as u128 * d as u128)
            .sum();
        ensure(weighted == answer.cost as u128, || {
            format!("sum of w*depth is {weighted}, cost is {}", answer.cost)
        })
    }
}
