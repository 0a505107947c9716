//! Property test (ISSUE 3 satellite): the staged `CompileSession` pipeline
//! produces byte-identical `CompiledProgram` metrics and schedules to the
//! monolithic `Compiler::compile` across random circuits and option sets —
//! with and without a stage cache in the loop.

use ftqc::benchmarks::random_clifford_t;
use ftqc::compiler::{CompileSession, Compiler, CompilerOptions, StageCache};
use ftqc::service::json::ToJson;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn staged_pipeline_matches_monolithic(
        n in 2u32..9,
        gates in 1usize..60,
        seed in 0u64..500,
        r in 2u32..6,
        f in 1u32..3,
        lookahead in any::<bool>(),
        eliminate in any::<bool>(),
        optimize in any::<bool>(),
        unbounded in any::<bool>(),
    ) {
        let c = random_clifford_t(n, gates, seed);
        let options = CompilerOptions::default()
            .routing_paths(r)
            .factories(f)
            .lookahead(lookahead)
            .eliminate_redundant_moves(eliminate)
            .optimize(optimize)
            .unbounded_magic(unbounded);

        let mono = Compiler::new(options.clone()).compile(&c).expect("monolithic compiles");
        let staged = CompileSession::new(options.clone())
            .prepare(&c).expect("prepare")
            .lower()
            .map().expect("map")
            .schedule().expect("schedule");

        // Byte-identical metrics (via the canonical wire rendering, the
        // strongest equality the cache file would ever observe)…
        prop_assert_eq!(
            mono.metrics().to_json().render(),
            staged.metrics().to_json().render()
        );
        // …and item-identical schedules.
        prop_assert_eq!(mono.schedule().len(), staged.schedule().len());
        for (a, b) in mono.schedule().iter().zip(staged.schedule().iter()) {
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(mono.lowered_circuit(), staged.lowered_circuit());
        prop_assert_eq!(mono.initial_mapping(), staged.initial_mapping());
        let keys = CompileSession::new(options.clone()).stage_keys(&c).expect("keys");
        prop_assert_eq!(staged.stage_keys(), keys);

        // A cache-served second run reproduces the same program exactly.
        let stages = StageCache::new(32);
        let session = CompileSession::new(options).with_cache(stages.clone());
        let first = session.compile(&c).expect("first cached run");
        let second = session.compile(&c).expect("second cached run");
        prop_assert_eq!(first.metrics(), mono.metrics());
        prop_assert_eq!(
            second.metrics().to_json().render(),
            mono.metrics().to_json().render()
        );
        prop_assert_eq!(second.schedule().len(), mono.schedule().len());
        prop_assert_eq!(stages.stats().hits(), 4, "second run hit all four stages");
        prop_assert_eq!([first.stage_keys(), second.stage_keys()], [keys; 2]);
    }
}
