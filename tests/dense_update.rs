//! The two-pass CP-ALS mode update (`linalg::update`) against the
//! step-by-step reference: the scalar row solve, `normalize_columns` and
//! `gram_full`.
//!
//! For every SIMD path this CPU can run, every rank 1..=20 and 32, and
//! row counts around the lane-group and block boundaries:
//!
//! * the solve is bitwise equal to `solve_row_cholesky`, row by row;
//! * under `MaxClamped`, λ and the factor are bitwise equal to the
//!   reference; under `Two` they are within 1e-12 relative; a zero column
//!   keeps λ = 1 and stays zero;
//! * the Gram is bitwise equal to `gram` of the updated factor and
//!   within 1e-12·√(gᵢᵢ gⱼⱼ) of `gram_full` of the reference factor;
//! * every result is bitwise equal on pools of 1, 2, 3 and 7 workers.
//!
//! One `#[test]` on purpose: `simd::apply` mutates process-wide state.

use linalg::norms::{normalize_columns, ColumnNorm};
use linalg::ops::{gram, gram_full};
use linalg::par::{Fanout, Inline};
use linalg::simd::{self, SimdPath, SimdPolicy};
use linalg::solve::{cholesky_factor, solve_row_cholesky, SolveMethod};
use linalg::update::{solve_on, update_mode};
use linalg::Mat;
use stef::runtime::Executor;

const RANKS: [usize; 21] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 32,
];
const ROWS: [usize; 8] = [0, 1, 3, 4, 5, 1023, 1024, 4099];

fn rng(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

/// A well-conditioned SPD system whose last column is decoupled from the
/// others (when `r > 1`), so a zero right-hand-side column solves to a
/// zero factor column.
fn system(r: usize, seed: u64) -> Mat {
    let mut next = rng(seed);
    let g = Mat::from_fn(r + 3, r, |_, _| next());
    let mut v = gram_full(&g);
    for i in 0..r {
        v[(i, i)] += 1.0;
    }
    if r > 1 {
        for k in 0..r - 1 {
            v[(r - 1, k)] = 0.0;
            v[(k, r - 1)] = 0.0;
        }
    }
    v
}

/// A right-hand side with a zero last column (when `r > 1`).
fn rhs(rows: usize, r: usize, seed: u64) -> Mat {
    let mut next = rng(seed ^ 0xABCD);
    Mat::from_fn(rows, r, |_, j| {
        if r > 1 && j == r - 1 {
            0.0
        } else {
            next() * 3.0
        }
    })
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn close(got: f64, want: f64, scale: f64) -> bool {
    (got - want).abs() <= 1e-12 * scale
}

/// `(factor, λ, gram)` of one update, as bits.
type Outcome = (Vec<u64>, Vec<u64>, Vec<u64>);

fn run_update(exec: &dyn Fanout, v: &Mat, b: &Mat, norm: ColumnNorm) -> Outcome {
    let mut factor = Mat::zeros(b.rows(), b.cols());
    let mut lambda = vec![f64::NAN; b.cols()];
    let u =
        update_mode(exec, v, b, 0.0, norm, &mut factor, &mut lambda).expect("well-posed system");
    assert_eq!(u.method, SolveMethod::Cholesky);
    assert_eq!(
        bits(u.gram.as_slice()),
        bits(gram(&factor).as_slice()),
        "Gram is gram(factor)"
    );
    (
        bits(factor.as_slice()),
        bits(&lambda),
        bits(u.gram.as_slice()),
    )
}

fn check_case(path: SimdPath, pools: &[Executor], r: usize, rows: usize) {
    let tag = format!("{path} r={r} rows={rows}");
    let seed = (r * 131 + rows) as u64;
    let v = system(r, seed);
    let b = rhs(rows, r, seed);
    let l = cholesky_factor(&v).expect("SPD");

    // Solve: bitwise equal to the scalar row solve.
    let mut reference = b.clone();
    for i in 0..rows {
        solve_row_cholesky(&l, reference.row_mut(i));
    }
    let mut solved = b.clone();
    solve_on(&Inline, &v, &mut solved, 0.0).expect("solve");
    assert_eq!(
        bits(solved.as_slice()),
        bits(reference.as_slice()),
        "{tag}: solve"
    );

    for norm in [ColumnNorm::Two, ColumnNorm::MaxClamped] {
        let mut ref_factor = reference.clone();
        let mut ref_lambda = vec![0.0; r];
        normalize_columns(&mut ref_factor, &mut ref_lambda, norm);
        let ref_gram = gram_full(&ref_factor);

        let inline = run_update(&Inline, &v, &b, norm);
        let (factor, lambda, g) = (&inline.0, &inline.1, &inline.2);
        let f = |xs: &[u64], i: usize| f64::from_bits(xs[i]);
        if norm == ColumnNorm::MaxClamped {
            assert_eq!(lambda, &bits(&ref_lambda), "{tag}: MaxClamped λ");
            assert_eq!(
                factor,
                &bits(ref_factor.as_slice()),
                "{tag}: MaxClamped factor"
            );
        } else {
            for (j, &want) in ref_lambda.iter().enumerate() {
                assert!(close(f(lambda, j), want, want), "{tag}: Two λ[{j}]");
            }
            for (i, &want) in ref_factor.as_slice().iter().enumerate() {
                assert!(
                    close(f(factor, i), want, want.abs().max(1e-300)),
                    "{tag}: Two factor[{i}]"
                );
            }
        }
        if r > 1 && rows > 0 {
            assert_eq!(f(lambda, r - 1), 1.0, "{tag}: zero column keeps λ = 1");
            assert!(
                (0..rows).all(|i| f(factor, i * r + r - 1) == 0.0),
                "{tag}: zero column stays zero"
            );
        }
        for i in 0..r {
            for j in 0..r {
                let scale = (ref_gram[(i, i)] * ref_gram[(j, j)]).sqrt();
                assert!(
                    close(f(g, i * r + j), ref_gram[(i, j)], scale),
                    "{tag} {norm:?}: gram[{i},{j}] {} vs {}",
                    f(g, i * r + j),
                    ref_gram[(i, j)]
                );
            }
        }
        for pool in pools {
            assert!(
                run_update(pool, &v, &b, norm) == inline,
                "{tag} {norm:?}: {} workers",
                pool.workers()
            );
        }
    }
}

#[test]
fn two_pass_update_matches_the_stepwise_reference_on_every_path() {
    let pools: Vec<Executor> = [1, 2, 3, 7].into_iter().map(Executor::new).collect();
    let available: Vec<SimdPath> = SimdPath::ALL
        .into_iter()
        .filter(|p| p.available())
        .collect();
    for &path in &available {
        simd::apply(SimdPolicy::Force(path));
        assert_eq!(simd::active(), path);
        for r in RANKS {
            for rows in ROWS {
                check_case(path, &pools, r, rows);
            }
        }
    }
    simd::apply(SimdPolicy::Force(simd::detect()));
}
