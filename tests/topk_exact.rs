//! Exactness of `FactorSnapshot::top_k`'s norm-ordered early stop.
//!
//! Every case compares the served `(row, score bits)` lists with an
//! exhaustive oracle that scores every target row the way the service
//! does and sorts all of them by score (`f64::total_cmp`, descending),
//! then row id (ascending). The cases cover ragged ranks, zero and
//! duplicate rows, rows parallel to the query (scores at their norm
//! bound), negative weights and entries, signed-zero ties, rounding
//! and underflow at the stop bound, every edge of `k`, multi-row
//! requests, a 90 000-row mode with power-law row norms, and non-finite
//! factors that must take the full scan.

use linalg::Mat;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};
use stef::{cpd_als, CpdOptions, CpdResult, FactorSnapshot, ReferenceEngine};
use workloads::power_law_tensor;

/// The top-k counters are process-global, so the tests in this file run
/// one at a time to read exact counter deltas.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// A tiny fitted result; the cases overwrite its public factors and λ.
fn snapshot(factors: Vec<Mat>, lambda: Vec<f64>) -> FactorSnapshot {
    let t = power_law_tensor(&[4, 3, 3], 20, &[0.5, 0.5, 0.5], 1);
    let mut engine = ReferenceEngine::new(t);
    let mut opts = CpdOptions::new(2);
    opts.max_iters = 1;
    opts.tol = 0.0;
    let mut result: CpdResult = cpd_als(&mut engine, &opts).unwrap();
    result.factors = factors;
    result.lambda = lambda;
    FactorSnapshot::from_result("m", 1, 0, &result)
}

/// Scores every target row as the service does and keeps the best `k`
/// under the total order (score desc, id asc).
fn oracle(s: &FactorSnapshot, mode: usize, row: usize, target: usize, k: usize) -> Vec<(usize, u64)> {
    let q = s.factor_row(mode, row).unwrap();
    let weighted: Vec<f64> = q.iter().zip(s.lambda.iter()).map(|(a, l)| a * l).collect();
    let mut all: Vec<(usize, f64)> = s.factors[target]
        .rows_iter()
        .map(|(j, t)| (j, weighted.iter().zip(t).map(|(w, t)| w * t).sum()))
        .collect();
    let order = |a: &(usize, f64), b: &(usize, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
    if k < all.len() {
        all.select_nth_unstable_by(k, order);
        all.truncate(k);
    }
    all.sort_by(order);
    all.into_iter().map(|(j, v)| (j, v.to_bits())).collect()
}

/// Sum of a `/metrics` counter, read through the Prometheus exposition.
fn counter(name: &str) -> f64 {
    stef::parse_prometheus_text(&stef::metrics::render_prometheus())
        .unwrap()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum()
}

/// Runs one request and checks every query row against the oracle.
/// Returns the target rows scored, from the `/metrics` counter.
fn check(s: &FactorSnapshot, mode: usize, rows: &[usize], target: usize, k: usize) -> u64 {
    let before = counter("stef_topk_rows_scored_total");
    let offered = counter("stef_topk_target_rows_total");
    let got = s.top_k(mode, rows, target, k).unwrap();
    let scored = counter("stef_topk_rows_scored_total") - before;
    assert_eq!(
        counter("stef_topk_target_rows_total") - offered,
        (rows.len() * s.dims[target]) as f64,
        "one target-rows add per query row"
    );
    assert_eq!(got.len(), rows.len());
    for (&row, hits) in rows.iter().zip(&got) {
        let bits: Vec<(usize, u64)> = hits.iter().map(|&(j, v)| (j, v.to_bits())).collect();
        assert_eq!(bits, oracle(s, mode, row, target, k), "query row {row}, k {k}");
    }
    scored as u64
}

/// splitmix64: the cases' own deterministic stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in [-1, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// A factor entry: often a small grid value (so scores tie
    /// exactly), sometimes a signed zero, otherwise continuous.
    fn entry(&mut self) -> f64 {
        match self.below(6) {
            0 => [0.0, -0.0][self.below(2)],
            1 | 2 => (self.below(9) as f64 - 4.0) / 2.0,
            _ => self.unit() * 3.0,
        }
    }
}

/// A random model: mode 0 holds the query rows, mode 1 the target rows.
/// Target rows are random, all-zero (either sign), copies of earlier
/// rows, or power-of-two multiples of a weighted query row, whose score
/// sits right at its Cauchy–Schwarz bound.
fn random_model(rng: &mut Rng, rank: usize, queries: usize, targets: usize) -> FactorSnapshot {
    let lambda: Vec<f64> = (0..rank).map(|_| rng.entry() * 2.0).collect();
    let q = Mat::from_fn(queries, rank, |_, _| rng.entry());
    let mut t = Mat::zeros(targets, rank);
    for j in 0..targets {
        match rng.below(8) {
            0 => t.row_mut(j).fill([0.0, -0.0][rng.below(2)]),
            1 if j > 0 => {
                let src = t.row(rng.below(j)).to_vec();
                t.row_mut(j).copy_from_slice(&src);
            }
            2 => {
                let (src, scale) = (rng.below(queries), [0.5, 1.0, 4.0][rng.below(3)]);
                for ((v, a), l) in t.row_mut(j).iter_mut().zip(q.row(src)).zip(&lambda) {
                    *v = a * l * scale;
                }
            }
            _ => t.row_mut(j).iter_mut().for_each(|v| *v = rng.entry()),
        }
    }
    snapshot(vec![q, t], lambda)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pruned_top_k_equals_the_exhaustive_oracle(
        seed in any::<u64>(),
        rank in 1usize..=33,
        targets in 0usize..=300,
        k_pick in 0usize..6,
    ) {
        let _serial = serial();
        let mut rng = Rng(seed);
        let queries = 1 + rng.below(12);
        let s = random_model(&mut rng, rank, queries, targets);
        let k = match k_pick {
            0 => 0,
            1 => 1,
            2 => targets.saturating_sub(1),
            3 => targets,
            4 => targets + 5,
            _ => rng.below(targets + 1),
        };
        let rows: Vec<usize> = (0..1 + rng.below(4)).map(|_| rng.below(queries)).collect();
        check(&s, 0, &rows, 1, k);
        // The reverse direction ranks the (few) query rows.
        if targets > 0 {
            check(&s, 1, &[rng.below(targets)], 0, k);
        }
    }
}

#[test]
fn signed_zero_scores_rank_by_total_cmp() {
    let _serial = serial();
    // With a positive query, a -0.0 row scores -0.0 and a +0.0 row +0.0.
    let t = Mat::from_vec(4, 2, vec![-0.0, -0.0, -0.0, -0.0, 0.0, 0.0, -0.0, -0.0]);
    let q = Mat::from_vec(1, 2, vec![1.0, 1.0]);
    let s = snapshot(vec![q, t], vec![1.0, 1.0]);
    // Float sums start at -0.0 (Rust ≥ 1.82), so the -0.0 rows keep their
    // sign; the displacement test once compared with `>`, which let -0.0
    // rows collected first keep out a later +0.0 row.
    if [-0.0f64].into_iter().sum::<f64>().is_sign_negative() {
        let got = s.top_k(0, &[0], 1, 2).unwrap();
        let bits: Vec<(usize, u64)> = got[0].iter().map(|&(j, v)| (j, v.to_bits())).collect();
        assert_eq!(bits, vec![(2, 0.0f64.to_bits()), (0, (-0.0f64).to_bits())]);
    }
    for k in 0..=5 {
        check(&s, 0, &[0], 1, k);
    }
}

/// Rounding cases (found by search) where row X's computed score exceeds
/// the computed product `‖w‖·‖X‖`, and row A, visited first because its
/// norm is no smaller, scores strictly between the two. A stop bound
/// without the rounding slack would end the scan at X and answer A.
#[test]
fn scores_above_the_unrounded_norm_product_are_not_pruned() {
    let _serial = serial();
    let cases: [[&[f64]; 3]; 2] = [
        [
            &[1.5131553853393966, -1.0529233022329836, -1.700301539315555, -1.3487824039026475, 1.1410124764499345, -1.3791638141745393],
            &[1.9075137131206814, -1.3273360140890187, -2.1434338694549537, -1.700301870110386, 1.4383829755738247, -1.7386012789345369],
            &[1.9075137131206819, -1.3273360140890198, -2.1434338694549537, -1.7003018701103845, 1.4383829755738238, -1.738601278934536],
        ],
        [
            &[1.547923805497261, -1.946949420963592, 1.5707255302612988, 1.4494638573185494, -0.9274361929793078, 1.2230021341213115, -0.6327771396645925, 1.1156927410188633, 0.5301880310538176, -1.6531878309160168, 0.5662850916943151, 1.066707153451895],
            &[2.1354578611101322, -2.6859386950541215, 2.1669142688617993, 1.9996261944634772, -1.279456328497702, 1.687208060363695, -0.8729557052024607, 1.539168030061321, 0.7314276030638778, -2.2806761785584952, 0.7812257595583809, 1.4715893432554954],
            &[2.1354578611101322, -2.68593869505412, 2.1669142688617975, 1.9996261944634777, -1.2794563284977023, 1.6872080603636956, -0.8729557052024604, 1.5391680300613217, 0.7314276030638781, -2.2806761785584966, 0.7812257595583816, 1.471589343255496],
        ],
    ];
    for [w, x, a] in cases {
        let rank = w.len();
        let q = Mat::from_vec(1, rank, w.to_vec());
        let t = Mat::from_vec(2, rank, [a, x].concat());
        let s = snapshot(vec![q, t], vec![1.0; rank]);
        check(&s, 0, &[0], 1, 1);
        assert_eq!(s.top_k(0, &[0], 1, 1).unwrap()[0][0].0, 1, "X outscores A");
    }
}

/// Row 1's squares underflow to zero, so its unfloored norm is 0 while
/// its score (1e-170) beats row 0's (1e-200). The norm floor keeps its
/// bound above the k-th score.
#[test]
fn rows_whose_squares_underflow_are_not_pruned() {
    let _serial = serial();
    let q = Mat::from_vec(1, 2, vec![1.0, 0.0]);
    let t = Mat::from_vec(2, 2, vec![1e-200, 1.0, 1e-170, 0.0]);
    let s = snapshot(vec![q, t], vec![1.0, 1.0]);
    check(&s, 0, &[0], 1, 1);
    assert_eq!(s.top_k(0, &[0], 1, 1).unwrap()[0], vec![(1, 1e-170)]);
}

/// 90 000 target rows of rank 16 with power-law row norms, assigned to
/// row ids in shuffled order; 50 query rows.
#[test]
fn tall_power_law_mode_is_exact_and_scores_under_two_percent() {
    let _serial = serial();
    let (rows, rank, queries) = (90_000usize, 16usize, 50usize);
    let mut rng = Rng(2015);
    let mut ids: Vec<usize> = (0..rows).collect();
    for i in (1..rows).rev() {
        ids.swap(i, rng.below(i + 1));
    }
    let mut t = Mat::zeros(rows, rank);
    for (rank_pos, &j) in ids.iter().enumerate() {
        let dir: Vec<f64> = (0..rank).map(|_| rng.unit()).collect();
        let len = dir.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-12);
        let norm = (1.0 + rank_pos as f64).powf(-0.7);
        for (v, d) in t.row_mut(j).iter_mut().zip(&dir) {
            *v = d / len * norm;
        }
    }
    let q = Mat::from_fn(queries, rank, |_, _| rng.unit());
    let lambda: Vec<f64> = (0..rank).map(|r| 10.0 / (1.0 + r as f64)).collect();
    let s = snapshot(vec![q, t], lambda);
    let all: Vec<usize> = (0..queries).collect();
    let scored = check(&s, 0, &all, 1, 10);
    let offered = (queries * rows) as u64;
    assert!(
        scored * 50 < offered,
        "scored {scored} of {offered} target rows (≥ 2%)"
    );
}

#[test]
fn non_finite_factors_take_the_full_scan() {
    let _serial = serial();
    let mut rng = Rng(7);
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300] {
        let (rows, rank) = (200usize, 5usize);
        let mut t = Mat::from_fn(rows, rank, |_, _| rng.unit());
        // 1e300 squares to ∞: a finite entry whose norm is not finite.
        t.row_mut(37)[2] = bad;
        let q = Mat::from_fn(3, rank, |_, _| rng.unit());
        let s = snapshot(vec![q, t], vec![1.0; rank]);
        let scored = check(&s, 0, &[0, 1, 2], 1, 4);
        assert_eq!(scored, 3 * rows as u64, "a non-finite target norm scans every row");
    }
    // A non-finite weighted query row scans every row too.
    let (rows, rank) = (150usize, 4usize);
    let t = Mat::from_fn(rows, rank, |_, _| rng.unit());
    let mut q = Mat::from_fn(2, rank, |_, _| rng.unit());
    q.row_mut(1)[0] = f64::INFINITY;
    let s = snapshot(vec![q, t], vec![1.0; rank]);
    assert_eq!(check(&s, 0, &[1], 1, 3), rows as u64);
}
