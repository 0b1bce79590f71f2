//! Algebraic properties of tree merging — the foundation the replicated
//! estimator tier's anti-entropy protocol rests on.
//!
//! Over dyadic-cost streams (multiples of 1/8, so f64 sums are exact and
//! order-independent) with budgets ample enough that nothing compresses,
//! `merge_from` must be **commutative** and **associative**: any fold
//! order over any partition of a stream yields the same model, bit for
//! bit. That is what lets N replicas fed disjoint partitions converge to
//! a single union-stream reference no matter how sync rounds interleave.

use mlq_core::{InsertionStrategy, MemoryLimitedQuadtree, MlqConfig, Space};
use proptest::prelude::*;

fn model() -> MemoryLimitedQuadtree {
    let config = MlqConfig::builder(Space::cube(2, 0.0, 100.0).unwrap())
        .memory_budget(1 << 20)
        .strategy(InsertionStrategy::Eager)
        .lambda(6)
        .build()
        .unwrap();
    MemoryLimitedQuadtree::new(config).unwrap()
}

/// (point, dyadic cost) observations.
type Stream = Vec<([f64; 2], f64)>;

fn stream_strategy(max_len: usize) -> impl Strategy<Value = Stream> {
    prop::collection::vec(
        ((0.0..100.0f64, 0.0..100.0f64), 1u64..1280)
            .prop_map(|((x, y), c)| ([x, y], c as f64 / 8.0)),
        0..max_len,
    )
}

fn fed(stream: &Stream) -> MemoryLimitedQuadtree {
    let mut m = model();
    for (p, v) in stream {
        m.insert(p, *v).unwrap();
    }
    m
}

fn probe_points() -> Vec<[f64; 2]> {
    let mut points = Vec::new();
    for i in 0..5 {
        for j in 0..5 {
            points.push([4.0 + 19.0 * f64::from(i), 7.0 + 18.5 * f64::from(j)]);
        }
    }
    points
}

/// Probe predictions as bit patterns — equality here is *bit* equality.
fn prediction_bits(m: &MemoryLimitedQuadtree) -> Vec<Option<u64>> {
    probe_points().iter().map(|p| m.predict(p).unwrap().map(f64::to_bits)).collect()
}

fn assert_same_model(
    a: &MemoryLimitedQuadtree,
    b: &MemoryLimitedQuadtree,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.node_count(), b.node_count());
    let (sa, sb) = (a.root_summary(), b.root_summary());
    prop_assert_eq!(sa.count, sb.count);
    prop_assert_eq!(sa.sum.to_bits(), sb.sum.to_bits());
    prop_assert_eq!(sa.sum_sq.to_bits(), sb.sum_sq.to_bits());
    prop_assert_eq!(prediction_bits(a), prediction_bits(b));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// a ⊕ b == b ⊕ a, and both equal the union stream fed directly.
    #[test]
    fn merge_is_commutative(
        sa in stream_strategy(60),
        sb in stream_strategy(60),
    ) {
        let (a, b) = (fed(&sa), fed(&sb));
        let mut ab = a.clone();
        prop_assert!(ab.merge_from(&b).unwrap().is_none(), "budget must absorb the union");
        let mut ba = b.clone();
        prop_assert!(ba.merge_from(&a).unwrap().is_none());
        assert_same_model(&ab, &ba)?;
        let union: Stream = sa.iter().chain(&sb).cloned().collect();
        assert_same_model(&ab, &fed(&union))?;
    }

    /// (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c) — fold order over replicas is free.
    #[test]
    fn merge_is_associative(
        sa in stream_strategy(40),
        sb in stream_strategy(40),
        sc in stream_strategy(40),
    ) {
        let (a, b, c) = (fed(&sa), fed(&sb), fed(&sc));
        let mut left = a.clone();
        left.merge_from(&b).unwrap();
        left.merge_from(&c).unwrap();
        let mut bc = b.clone();
        bc.merge_from(&c).unwrap();
        let mut right = a.clone();
        right.merge_from(&bc).unwrap();
        assert_same_model(&left, &right)?;
    }
}
