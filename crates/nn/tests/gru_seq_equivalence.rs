//! The fused GRU sequence op against the op-by-op tape composition it
//! replaces, compared bit for bit, plus a finite-difference check of its
//! gradients and its tape-free forward.

use env2vec_linalg::Matrix;
use env2vec_nn::graph::{Graph, NodeId};
use env2vec_nn::gru::{GruParams, H, R, Z};
use env2vec_nn::layers::{activate, Activation, AttentionPool, GruCell};
use env2vec_nn::params::{Bound, ParamId, ParamSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ACTIVATIONS: [Activation; 4] = [
    Activation::Linear,
    Activation::Sigmoid,
    Activation::Tanh,
    Activation::Relu,
];

/// The cell's parameters, looked up by the names `GruCell::new`
/// registers under `prefix`.
fn gru_ids(ps: &ParamSet, prefix: &str) -> GruParams<ParamId> {
    let id = |kind: &str, gate: &str| {
        ps.find(&format!("{prefix}.{kind}_{gate}"))
            .expect("GRU parameter registered")
    };
    GruParams {
        w: ["z", "r", "h"].map(|g| id("w", g)),
        u: ["z", "r", "h"].map(|g| id("u", g)),
        b: ["z", "r", "h"].map(|g| id("b", g)),
    }
}

/// One GRU step composed op by op on the tape: the reference the fused
/// op must reproduce.
fn reference_step(
    graph: &mut Graph,
    bound: &Bound,
    p: &GruParams<ParamId>,
    candidate: Activation,
    x: NodeId,
    h: NodeId,
) -> NodeId {
    let gate = |graph: &mut Graph, g: usize| {
        let xw = graph.matmul(x, bound.node(p.w[g])).unwrap();
        let hu = graph.matmul(h, bound.node(p.u[g])).unwrap();
        let sum = graph.add(xw, hu).unwrap();
        graph.add_row_broadcast(sum, bound.node(p.b[g])).unwrap()
    };
    let z_pre = gate(graph, Z);
    let z = graph.sigmoid(z_pre);
    let r_pre = gate(graph, R);
    let r = graph.sigmoid(r_pre);

    // Candidate: f(x W_h + (r ⊙ h) U_h + b_h).
    let xw = graph.matmul(x, bound.node(p.w[H])).unwrap();
    let rh = graph.mul(r, h).unwrap();
    let rhu = graph.matmul(rh, bound.node(p.u[H])).unwrap();
    let pre = graph.add(xw, rhu).unwrap();
    let pre = graph.add_row_broadcast(pre, bound.node(p.b[H])).unwrap();
    let cand = activate(graph, pre, candidate);

    // h_t = (1 - z) ⊙ h' + z ⊙ h_{t-1}.
    let one_minus_z = graph.one_minus(z);
    let a = graph.mul(one_minus_z, cand).unwrap();
    let b = graph.mul(z, h).unwrap();
    graph.add(a, b).unwrap()
}

/// Every hidden state of the reference unroll, oldest first.
fn reference_states(
    graph: &mut Graph,
    bound: &Bound,
    p: &GruParams<ParamId>,
    candidate: Activation,
    xs: &[Matrix],
    hidden: usize,
) -> Vec<NodeId> {
    let mut h = graph.leaf(Matrix::zeros(xs[0].rows(), hidden));
    xs.iter()
        .map(|x| {
            let x = graph.leaf(x.clone());
            h = reference_step(graph, bound, p, candidate, x, h);
            h
        })
        .collect()
}

/// Inputs mixing ordinary values with `0.0`, `-0.0` and large
/// magnitudes.
fn inputs(rng: &mut StdRng, steps: usize, batch: usize, in_dim: usize) -> Vec<Matrix> {
    (0..steps)
        .map(|_| {
            Matrix::from_fn(batch, in_dim, |_, _| match rng.gen_range(0..6) {
                0 => 0.0,
                1 => -0.0,
                2 => rng.gen_range(-300.0..300.0),
                _ => rng.gen_range(-1.5..1.5),
            })
        })
        .collect()
}

/// A GRU (plus attention pool) with every parameter, biases included,
/// drawn away from its initial value, and a fixed readout.
struct Fixture {
    ps: ParamSet,
    cell: GruCell,
    pool: Option<AttentionPool>,
    readout: Matrix,
    target: Matrix,
}

fn fixture(
    seed: u64,
    in_dim: usize,
    hidden: usize,
    candidate: Activation,
    attention: bool,
    batch: usize,
) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ps = ParamSet::new();
    let cell = GruCell::new(&mut ps, &mut rng, "gru", in_dim, hidden, candidate).unwrap();
    let pool = attention.then(|| AttentionPool::new(&mut ps, &mut rng, "attn", hidden).unwrap());
    let ids: Vec<ParamId> = ps.iter().map(|(id, _, _)| id).collect();
    for id in ids {
        for v in ps.value_mut(id).as_mut_slice() {
            *v += rng.gen_range(-0.3..0.3);
        }
    }
    Fixture {
        ps,
        cell,
        pool,
        readout: Matrix::from_fn(hidden, 2, |_, _| rng.gen_range(-1.0..1.0)),
        target: Matrix::from_fn(batch, 2, |_, _| rng.gen_range(-1.0..1.0)),
    }
}

/// Loss over the sequence summary (attention-pooled or last state):
/// `mse(summary · readout, target)`.
fn loss_over(f: &Fixture, g: &mut Graph, bound: &Bound, states: &[NodeId]) -> NodeId {
    let summary = match &f.pool {
        Some(pool) => pool.forward(g, bound, states).unwrap(),
        None => *states.last().unwrap(),
    };
    let readout = g.leaf(f.readout.clone());
    let out = g.matmul(summary, readout).unwrap();
    let target = g.leaf(f.target.clone());
    g.mse(out, target).unwrap()
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn fused_op_matches_the_op_by_op_tape_bit_for_bit() {
    let (batch, hidden) = (5, 4);
    let mut seed = 0;
    for steps in 1..=4 {
        for in_dim in [1, 3] {
            for candidate in ACTIVATIONS {
                for attention in [false, true] {
                    seed += 1;
                    let case = format!("T={steps} in={in_dim} {candidate:?} attention={attention}");
                    let f = fixture(seed, in_dim, hidden, candidate, attention, batch);
                    let xs = inputs(
                        &mut StdRng::seed_from_u64(seed + 1000),
                        steps,
                        batch,
                        in_dim,
                    );

                    let mut fused = Graph::new();
                    let fused_bound = f.ps.bind(&mut fused);
                    // Attention reads every state; otherwise only the last
                    // one leaves the sequence, as in the models.
                    let fused_states = if attention {
                        f.cell
                            .run_sequence_all(&mut fused, &fused_bound, xs.clone())
                            .unwrap()
                    } else {
                        vec![f
                            .cell
                            .run_sequence(&mut fused, &fused_bound, xs.clone())
                            .unwrap()]
                    };
                    let fused_loss = loss_over(&f, &mut fused, &fused_bound, &fused_states);
                    fused.backward(fused_loss).unwrap();

                    let mut reference = Graph::new();
                    let ref_bound = f.ps.bind(&mut reference);
                    let ids = gru_ids(&f.ps, "gru");
                    let ref_states =
                        reference_states(&mut reference, &ref_bound, &ids, candidate, &xs, hidden);
                    let ref_loss = loss_over(&f, &mut reference, &ref_bound, &ref_states);
                    reference.backward(ref_loss).unwrap();

                    let read = &ref_states[steps - fused_states.len()..];
                    for (t, (a, b)) in fused_states.iter().zip(read).enumerate() {
                        assert_eq!(
                            bits(fused.value(*a)),
                            bits(reference.value(*b)),
                            "{case}: state {t}"
                        );
                    }
                    assert_eq!(
                        bits(fused.value(fused_loss)),
                        bits(reference.value(ref_loss)),
                        "{case}: loss"
                    );
                    let fused_grads = f.ps.gradients(&fused, &fused_bound).unwrap();
                    let ref_grads = f.ps.gradients(&reference, &ref_bound).unwrap();
                    for ((_, name, _), (a, b)) in
                        f.ps.iter().zip(fused_grads.iter().zip(&ref_grads))
                    {
                        assert_eq!(bits(a), bits(b), "{case}: gradient of {name}");
                    }

                    // The tape-free forward runs the same kernel.
                    let inferred = f.cell.infer_sequence(&f.ps, &xs).unwrap();
                    for (t, (a, b)) in inferred.iter().zip(&ref_states).enumerate() {
                        assert_eq!(bits(a), bits(reference.value(*b)), "{case}: inferred h_{t}");
                    }
                    if let Some(pool) = &f.pool {
                        let pooled = pool.infer(&f.ps, &inferred).unwrap();
                        let mut g = Graph::new();
                        let bound = f.ps.bind(&mut g);
                        let states: Vec<NodeId> =
                            inferred.iter().map(|h| g.leaf(h.clone())).collect();
                        let taped = pool.forward(&mut g, &bound, &states).unwrap();
                        assert_eq!(bits(&pooled), bits(g.value(taped)), "{case}: pooled");
                    }
                }
            }
        }
    }
}

#[test]
fn fused_op_gradients_match_finite_differences() {
    let (batch, hidden, in_dim) = (3, 3, 2);
    for candidate in [Activation::Tanh, Activation::Sigmoid, Activation::Relu] {
        for attention in [false, true] {
            let mut f = fixture(7, in_dim, hidden, candidate, attention, batch);
            let xs: Vec<Matrix> = (0..3)
                .map(|t| {
                    Matrix::from_fn(batch, in_dim, |i, j| {
                        ((t * 7 + i * 3 + j) as f64 * 0.9).sin()
                    })
                })
                .collect();
            let loss = |ps: &ParamSet, f: &Fixture| -> (f64, Vec<Matrix>) {
                let mut g = Graph::new();
                let bound = ps.bind(&mut g);
                let states = f.cell.run_sequence_all(&mut g, &bound, xs.clone()).unwrap();
                let l = loss_over(f, &mut g, &bound, &states);
                g.backward(l).unwrap();
                (g.value(l).get(0, 0), ps.gradients(&g, &bound).unwrap())
            };
            let (_, analytic) = loss(&f.ps, &f);
            let eps = 1e-6;
            let ids: Vec<(ParamId, String)> =
                f.ps.iter().map(|(id, n, _)| (id, n.to_string())).collect();
            for (id, name) in ids {
                let (rows, cols) = f.ps.value(id).shape();
                for r in 0..rows {
                    for c in 0..cols {
                        let base = f.ps.value(id).get(r, c);
                        f.ps.value_mut(id).set(r, c, base + eps);
                        let (up, _) = loss(&f.ps, &f);
                        f.ps.value_mut(id).set(r, c, base - eps);
                        let (down, _) = loss(&f.ps, &f);
                        f.ps.value_mut(id).set(r, c, base);
                        let numeric = (up - down) / (2.0 * eps);
                        let got = analytic[id.index()].get(r, c);
                        assert!(
                            (numeric - got).abs() < 1e-6 * (1.0 + numeric.abs()),
                            "{candidate:?} attention={attention} {name}[{r},{c}]: numeric {numeric}, analytic {got}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn empty_and_mismatched_sequences_are_errors() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut ps = ParamSet::new();
    let cell = GruCell::new(&mut ps, &mut rng, "gru", 2, 3, Activation::Relu).unwrap();
    let ids = gru_ids(&ps, "gru");
    let bad: [Vec<Matrix>; 3] = [
        vec![],
        // Batch sizes differ between steps.
        vec![Matrix::zeros(2, 2), Matrix::zeros(3, 2)],
        // Input width differs from the cell's.
        vec![Matrix::zeros(2, 2), Matrix::zeros(2, 1)],
    ];
    for xs in bad {
        let mut g = Graph::new();
        let bound = ps.bind(&mut g);
        assert!(cell.run_sequence(&mut g, &bound, xs.clone()).is_err());
        assert!(cell.run_sequence_all(&mut g, &bound, xs.clone()).is_err());
        assert!(g
            .gru_seq(ids.map(|p| bound.node(p)), xs.clone(), Activation::Relu)
            .is_err());
        assert!(cell.infer_sequence(&ps, &xs).is_err());
    }
    // Parameters of the wrong shape (U_z swapped for the 1x3 bias).
    let mut g = Graph::new();
    let bound = ps.bind(&mut g);
    let mut wrong = ids.map(|p| bound.node(p));
    wrong.u[Z] = bound.node(ids.b[Z]);
    assert!(g
        .gru_seq(wrong, vec![Matrix::zeros(2, 2)], Activation::Tanh)
        .is_err());
}
