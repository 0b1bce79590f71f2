//! Operating MLQ like catalog metadata: snapshot a trained model into a
//! checksummed envelope, restore it in a "new process", fold
//! per-connection shard models into one, and replay a recorded workload
//! trace against a fresh configuration.
//!
//! Run with: `cargo run --release --example persistence_and_sharding`

use mlq_core::{
    InsertionStrategy, MemoryLimitedQuadtree, MlqConfig, RestoreOutcome, Space, TreeSnapshot,
};
use mlq_experiments::trace::WorkloadTrace;
use mlq_synth::{CostSurface, QueryDistribution, SyntheticUdf};

fn config(space: &Space) -> MlqConfig {
    MlqConfig::builder(space.clone())
        .memory_budget(4096)
        .strategy(InsertionStrategy::Lazy { alpha: 0.05 })
        .build()
        .expect("valid config")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let space = Space::cube(2, 0.0, 1000.0)?;
    let udf = SyntheticUdf::builder(space.clone()).peaks(40).seed(11).build();

    // --- 1. Sharded training: two "connections" observe disjoint streams.
    let mut shard_a = MemoryLimitedQuadtree::new(config(&space))?;
    let mut shard_b = MemoryLimitedQuadtree::new(config(&space))?;
    let workload = QueryDistribution::paper_gaussian_random().generate(&space, 4000, 21);
    let mut trace = WorkloadTrace::new("gauss-random over 40-peak surface, seed 21");
    for (i, q) in workload.iter().enumerate() {
        let actual = udf.cost(q);
        trace.record(q, actual);
        if i % 2 == 0 {
            shard_a.insert(q, actual)?;
        } else {
            shard_b.insert(q, actual)?;
        }
    }
    println!(
        "shard A: {} observations in {} nodes; shard B: {} in {}",
        shard_a.root_summary().count,
        shard_a.node_count(),
        shard_b.root_summary().count,
        shard_b.node_count(),
    );

    // --- 2. Merge into the catalog model (summaries are additive).
    let report = shard_a.merge_from(&shard_b)?;
    println!(
        "merged catalog model: {} observations, {} nodes (compression: {:?})",
        shard_a.root_summary().count,
        shard_a.node_count(),
        report,
    );

    // --- 3. Persist to a snapshot envelope and restore ("optimizer restart").
    let snapshot: TreeSnapshot = shard_a.snapshot();
    let envelope = snapshot.to_envelope();
    println!(
        "snapshot: {} nodes encoded in a {}-byte envelope ({} bytes accounted in memory)",
        snapshot.node_count(),
        envelope.len(),
        shard_a.bytes_used()
    );
    let restored = match MemoryLimitedQuadtree::restore(&envelope, config(&space))? {
        RestoreOutcome::Restored(model) => model,
        other => return Err(format!("snapshot did not restore: {other:?}").into()),
    };
    let probe = &workload[17];
    assert_eq!(restored.predict(probe)?, shard_a.predict(probe)?);
    println!("restored model answers identically at a probe point");

    // --- 4. Replay the recorded trace against a different configuration
    //        (what-if tuning without re-running the workload).
    for (label, strategy) in
        [("eager", InsertionStrategy::Eager), ("lazy ", InsertionStrategy::Lazy { alpha: 0.05 })]
    {
        let mut what_if = MemoryLimitedQuadtree::new(
            MlqConfig::builder(space.clone()).memory_budget(1800).strategy(strategy).build()?,
        )?;
        let nae = trace.replay(&mut what_if)?.expect("trace has positive costs");
        println!(
            "replayed {} observations against a 1.8 KB {} model: NAE {:.3}, {} compressions",
            trace.len(),
            label,
            nae,
            what_if.counters().compressions,
        );
    }
    Ok(())
}
