//! The data-movement model's decisions on the suite analogues must
//! reproduce the paper's qualitative behaviour (Table II and §IV-A), and
//! the suite itself must keep the structural properties the evaluation
//! depends on.

use sptensor::{
    build_csf, sort_modes_by_length, CooTensor, Csf, LevelSort, Linearized, TensorStats,
};
use stef::model::{best_memo_set, choose_plan, AltoProfile};
use stef::{
    build_engine, EngineChoice, LevelProfile, MemoPlan, MemoPolicy, ModeSwitchPolicy, Stef,
    StefOptions,
};
use workloads::{suite_tensor, SuiteScale};

fn prepared(name: &str, rank: usize) -> Stef {
    let t = suite_tensor(name, SuiteScale::Tiny).unwrap();
    Stef::prepare(&t, StefOptions::new(rank))
}

#[test]
fn freebase_like_tensors_are_not_memoized() {
    // Paper Table II: freebase_music / freebase_sampled have ratio 0.00 —
    // nearly-unique (i,j) pairs make partials as large as the tensor.
    for name in ["freebase_music", "freebase_sampled"] {
        let engine = prepared(name, 32);
        assert_eq!(
            engine.partial_bytes(),
            0,
            "{name}: the model should decline to memoize, chose {:?}",
            engine.plan().save
        );
    }
}

#[test]
fn some_suite_tensors_are_memoized() {
    // The model must not degenerate into "never memoize": at least a few
    // suite tensors (the clustered / long-fiber ones) should memoize.
    let memoized = workloads::paper_suite()
        .iter()
        .filter(|spec| {
            let t = spec.generate(SuiteScale::Tiny);
            let engine = Stef::prepare(&t, StefOptions::new(32));
            engine.partial_bytes() > 0
        })
        .count();
    assert!(memoized >= 2, "only {memoized} tensors memoized");
}

#[test]
fn partial_ratio_is_bounded_like_table2() {
    // Paper: the model-chosen ratio maxes out around 2.34; allow slack
    // for the scaled analogues but catch runaway memoization.
    for spec in workloads::paper_suite() {
        let t = spec.generate(SuiteScale::Tiny);
        let engine = Stef::prepare(&t, StefOptions::new(32));
        let ratio = engine.partial_bytes() as f64 / engine.csf_and_factor_bytes() as f64;
        assert!(
            ratio < 4.0,
            "{}: partial/storage ratio {ratio:.2} is runaway",
            spec.name
        );
    }
}

#[test]
fn ratio_grows_with_rank_when_memoizing() {
    // Table II: the overhead ratio increases slightly from R=32 to R=64
    // (partials and factors double; the CSF does not). Find a memoized
    // tensor and check the direction.
    for spec in workloads::paper_suite() {
        let t = spec.generate(SuiteScale::Tiny);
        let e32 = Stef::prepare(&t, StefOptions::new(32));
        if e32.partial_bytes() == 0 {
            continue;
        }
        let mut o64 = StefOptions::new(64);
        // Force the same save set so only R changes.
        o64.memo = MemoPolicy::Fixed(e32.plan().save.clone());
        let e64 = Stef::prepare(&t, o64);
        let r32 = e32.partial_bytes() as f64 / e32.csf_and_factor_bytes() as f64;
        let r64 = e64.partial_bytes() as f64 / e64.csf_and_factor_bytes() as f64;
        assert!(
            r64 >= r32,
            "{}: ratio should not shrink with rank ({r32:.3} -> {r64:.3})",
            spec.name
        );
        return; // one witness suffices
    }
    panic!("no memoized tensor found in the suite");
}

#[test]
fn model_prediction_is_self_consistent() {
    // The chosen configuration's predicted traffic must be <= both
    // extremes evaluated on the same profile.
    for name in ["uber", "nell-2", "flickr-3d"] {
        let t = suite_tensor(name, SuiteScale::Tiny).unwrap();
        let model = Stef::prepare(&t, StefOptions::new(32));
        let mut all = StefOptions::new(32);
        all.memo = MemoPolicy::SaveAll;
        all.mode_switch = stef::ModeSwitchPolicy::Never;
        let save_all = Stef::prepare(&t, all);
        let mut none = StefOptions::new(32);
        none.memo = MemoPolicy::SaveNone;
        none.mode_switch = stef::ModeSwitchPolicy::Never;
        let save_none = Stef::prepare(&t, none);
        assert!(
            model.plan().predicted <= save_all.plan().predicted + 1e-9,
            "{name}: model {} > save-all {}",
            model.plan().predicted,
            save_all.plan().predicted
        );
        assert!(
            model.plan().predicted <= save_none.plan().predicted + 1e-9,
            "{name}: model {} > save-none {}",
            model.plan().predicted,
            save_none.plan().predicted
        );
    }
}

#[test]
fn vast_analogue_starves_slice_scheduling() {
    let t = suite_tensor("vast-2015-mc1-3d", SuiteScale::Tiny).unwrap();
    let order = sort_modes_by_length(t.dims());
    let csf = build_csf(&t, &order);
    let stats = TensorStats::from_csf(&csf, t.dims());
    assert_eq!(stats.root_slices, 2);
    let nthreads = 8;
    let slice = stef::Schedule::slice_based(&csf, nthreads);
    let busy = (0..nthreads)
        .filter(|&th| slice.nodes_at(th, csf.ndim() - 1) > 0)
        .count();
    assert!(busy <= 2);
    let nnzb = stef::Schedule::nnz_balanced(&csf, nthreads);
    let busy2 = (0..nthreads)
        .filter(|&th| nnzb.nodes_at(th, csf.ndim() - 1) > 0)
        .count();
    assert_eq!(busy2, nthreads);
}

#[test]
fn delicious_analogue_triggers_mode_switch_consideration() {
    // The 4d delicious analogue is built so the swapped order compresses
    // better; verify Algorithm 9 reports fewer fibers for the swap at
    // bench scale (Tiny can be too sparse for collisions, so use Small).
    let t = suite_tensor("delicious-4d", SuiteScale::Small).unwrap();
    let order = sort_modes_by_length(t.dims());
    let csf = build_csf(&t, &order);
    let swapped = sptensor::count_fibers_if_last_two_swapped(&csf);
    let base = csf.nfibers(csf.ndim() - 2);
    assert!(
        swapped != base,
        "orders should differ in fiber count (base {base}, swapped {swapped})"
    );
}

#[test]
fn suite_stats_are_stable_across_generations() {
    for name in ["uber", "nips"] {
        let a = TensorStats::from_coo(&suite_tensor(name, SuiteScale::Tiny).unwrap());
        let b = TensorStats::from_coo(&suite_tensor(name, SuiteScale::Tiny).unwrap());
        assert_eq!(a, b, "{name} generation not deterministic");
    }
}

/// The plan `Stef` records, checked field by field (`predicted_other_order`
/// is NaN when only one order is considered).
fn assert_same_plan(got: &MemoPlan, want: &MemoPlan, what: &str) {
    assert_eq!(got.swap_last_two, want.swap_last_two, "{what}: swap");
    assert_eq!(got.save, want.save, "{what}: save set");
    assert_eq!(got.predicted, want.predicted, "{what}: predicted");
    assert!(
        got.predicted_other_order == want.predicted_other_order
            || (got.predicted_other_order.is_nan() && want.predicted_other_order.is_nan()),
        "{what}: other order {} vs {}",
        got.predicted_other_order,
        want.predicted_other_order
    );
}

#[test]
fn one_planner_keeps_every_auto_and_order_decision() {
    // The engine plans from level profiles alone. Its decisions must be
    // the ones the built-CSF rule makes: `auto` picks ALTO iff its index
    // fits 128 bits and its §IV-C price undercuts the CSF plan's, and
    // each mode-switch policy keeps its order, save set and predictions.
    let rank = 16;
    let mut tensors: Vec<(String, CooTensor)> = workloads::paper_suite()
        .iter()
        .map(|spec| {
            (
                format!("{}@tiny", spec.name),
                spec.generate(SuiteScale::Tiny),
            )
        })
        .collect();
    tensors.push((
        "freebase_music@small".into(),
        suite_tensor("freebase_music", SuiteScale::Small).unwrap(),
    ));
    for (name, t) in &tensors {
        let opts = StefOptions::new(rank);
        let csf_plan = Stef::try_prepare(t, opts.clone()).unwrap().plan().clone();
        let bits = sptensor::index_bits_for(t.dims());
        let alto = AltoProfile {
            dims: t.dims().to_vec(),
            nnz: t.nnz(),
            rank,
            cache_elems: opts.cache_bytes / 8,
            idx_elems: if bits <= 64 { 1 } else { 2 },
        };
        let want = if bits <= 128 && alto.total_traffic() < csf_plan.predicted {
            "alto"
        } else {
            "stef"
        };
        let mut auto = opts.clone();
        auto.engine = EngineChoice::Auto;
        assert_eq!(build_engine(t, auto).unwrap().name(), want, "{name}: auto");

        let csf = build_csf(t, &sort_modes_by_length(t.dims()));
        let base = LevelProfile::from_csf(&csf, rank, opts.cache_bytes);
        let swapped = LevelProfile::swapped_from_csf(&csf, rank, opts.cache_bytes);
        let single = |swap: bool| {
            let (save, predicted) = best_memo_set(if swap { &swapped } else { &base });
            MemoPlan {
                swap_last_two: swap,
                save,
                predicted,
                predicted_other_order: f64::NAN,
            }
        };
        let model = choose_plan(&base, &swapped);
        let opposite = MemoPlan {
            predicted_other_order: model.predicted,
            ..single(!model.swap_last_two)
        };
        for (policy, want) in [
            (ModeSwitchPolicy::ModelChosen, model.clone()),
            (ModeSwitchPolicy::Never, single(false)),
            (ModeSwitchPolicy::Always, single(true)),
            (ModeSwitchPolicy::OppositeOfModel, opposite),
        ] {
            let mut o = opts.clone();
            o.mode_switch = policy;
            let got = Stef::try_prepare(t, o).unwrap().plan().clone();
            assert_same_plan(&got, &want, &format!("{name} {policy:?}"));
        }
    }
}

/// The 16 Tiny suite tensors and freebase_music Small.
fn suite_and_freebase_small() -> Vec<(String, CooTensor)> {
    let mut tensors: Vec<(String, CooTensor)> = workloads::paper_suite()
        .iter()
        .map(|spec| {
            (
                format!("{}@tiny", spec.name),
                spec.generate(SuiteScale::Tiny),
            )
        })
        .collect();
    tensors.push((
        "freebase_music@small".into(),
        suite_tensor("freebase_music", SuiteScale::Small).unwrap(),
    ));
    tensors
}

/// `t`'s non-zeros in a seeded Fisher–Yates order.
fn shuffled(t: &CooTensor, seed: u64) -> CooTensor {
    let mut perm: Vec<usize> = (0..t.nnz()).collect();
    let mut x = seed | 1;
    for i in (1..perm.len()).rev() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        perm.swap(i, ((x >> 33) % (i as u64 + 1)) as usize);
    }
    let mut out = CooTensor::new(t.dims().to_vec());
    for e in perm {
        out.push(&t.coord(e), t.values()[e]);
    }
    out
}

#[test]
fn fiber_profile_from_the_sorted_keys_matches_the_built_csf() {
    // The planner reads both orders' fiber counts off the sorted keys;
    // they must be the counts of the CSF it would otherwise have built,
    // and Algorithm 9's count on that CSF.
    let (rank, cache) = (16, StefOptions::new(16).cache_bytes);
    let tensors = suite_and_freebase_small();
    assert_eq!(tensors.len(), 17);
    for (name, t) in &tensors {
        let order = sort_modes_by_length(t.dims());
        let counts = LevelSort::new(t, &order).fiber_counts();
        let base = LevelProfile::new(
            order.iter().map(|&m| t.dims()[m]).collect(),
            counts.levels,
            rank,
            cache,
        );
        let csf = build_csf(t, &order);
        assert_eq!(base, LevelProfile::from_csf(&csf, rank, cache), "{name}");
        assert_eq!(
            base.swapped(counts.swapped),
            LevelProfile::swapped_from_csf(&csf, rank, cache),
            "{name}: swapped"
        );
    }
}

fn same_csf(a: &Csf, b: &Csf) -> bool {
    let bits = |c: &Csf| c.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    a.mode_order() == b.mode_order()
        && (0..a.ndim()).all(|l| a.fids(l) == b.fids(l))
        && (0..a.ndim() - 1).all(|l| a.ptr(l) == b.ptr(l))
        && bits(a) == bits(b)
}

#[test]
fn suite_csfs_do_not_depend_on_input_order() {
    // Suite tensors hold no duplicates, so each has one sorted order:
    // the CSF (and its swapped rebuild) of a shuffled copy is bitwise
    // the CSF of the tensor as generated.
    for (name, t) in suite_and_freebase_small() {
        let order = sort_modes_by_length(t.dims());
        let mut swapped_order = order.clone();
        let d = order.len();
        swapped_order.swap(d - 2, d - 1);
        let s = shuffled(&t, 7);
        assert!(
            same_csf(&build_csf(&t, &order), &build_csf(&s, &order)),
            "{name}"
        );
        let mut levels = LevelSort::new(&s, &order);
        levels.swap_last_two();
        assert!(
            same_csf(&levels.build(), &build_csf(&t, &swapped_order)),
            "{name}: swapped"
        );
    }
}

#[test]
fn linearized_order_is_the_unique_key_order_on_every_tiny_suite_tensor() {
    // With no duplicates there is exactly one order of strictly
    // increasing interleaved keys; `Linearized::build` must produce it,
    // carrying each non-zero's value, from any input order.
    for spec in workloads::paper_suite() {
        let t = spec.generate(SuiteScale::Tiny);
        let Ok(lin) = Linearized::build(&t) else {
            continue;
        };
        let keys: Vec<u128> = match (lin.narrow(), lin.wide()) {
            (Some(k), _) => k.iter().map(|&k| k as u128).collect(),
            (_, Some(k)) => k.to_vec(),
            _ => unreachable!("a built index is narrow or wide"),
        };
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "{}: keys not strictly increasing",
            spec.name
        );
        let mut want: Vec<(Vec<u32>, u64)> = (0..t.nnz())
            .map(|e| (t.coord(e), t.values()[e].to_bits()))
            .collect();
        let mut got: Vec<(Vec<u32>, u64)> = (0..lin.nnz())
            .map(|e| {
                (
                    (0..t.ndim()).map(|m| lin.decode(e, m)).collect(),
                    lin.vals()[e].to_bits(),
                )
            })
            .collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "{}", spec.name);
        let again = Linearized::build(&shuffled(&t, 11)).unwrap();
        assert_eq!(again.narrow(), lin.narrow(), "{}: shuffled keys", spec.name);
        assert_eq!(again.wide(), lin.wide(), "{}: shuffled keys", spec.name);
        let bits = |l: &Linearized| l.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&again), bits(&lin), "{}: shuffled values", spec.name);
    }
}
