//! Self-test of the benchmark at tiny scale: every named metric is emitted
//! with a unit, query streams are reproducible from the seed, and
//! serve-road's cache-hit share follows the replay share at two rates.

use perfbench::util::encode_stream;
use perfbench::{per_layer, run_workload, serve_road, shard_grid, sssp_grid, RunConfig, Scale};
use perfbench::{END_TO_END, WORKLOADS};

fn tiny(seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        setups: 2,
        scale: Scale::tiny(),
        rate: 100.0,
        self_speedup: false,
        ..RunConfig::new(seed, 0.3, trace)
    }
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let out = run_workload(workload, &tiny(3, trace)).expect("known workload");
            assert!(out.correct(), "{workload}: wrong answers");
            assert_eq!(out.failed(), 0, "{workload}: failed operations");
            let line = out.result_json(trace);
            let expected: Vec<(String, &str)> = if trace {
                per_layer()
            } else {
                END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
            };
            for (name, unit) in &expected {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert!(line.contains(&entry), "{workload}: {name} missing from {line}");
                let value = perfbench::sssp_grid::metric_value(&line, name)
                    .unwrap_or_else(|| panic!("{workload}: {name} has no numeric value"));
                assert!(value.is_finite());
                assert!(line.contains(&format!(
                    "{entry}{}, \"unit\": \"{unit}\"}}",
                    perfbench::num(value)
                )));
            }
            assert_eq!(
                line.matches("\"unit\"").count(),
                expected.len(),
                "{workload}: extra metrics"
            );
            if !trace {
                for (name, _) in &expected {
                    let v = out.values[name];
                    assert!(v > 0.0, "{workload}: end-to-end {name} reads {v}");
                }
            }
        }
    }
}

#[test]
fn metric_lists_match_benchmark_json() {
    let json = benchmark_json();
    let listed = |name: &str, unit: &str| {
        json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
    };
    for (name, unit) in END_TO_END {
        assert!(listed(name, unit), "end-to-end {name} ({unit}) not in BENCHMARK.json");
    }
    for (name, unit) in per_layer() {
        assert!(listed(&name, unit), "per-layer {name} ({unit}) not in BENCHMARK.json");
    }
    let entries = json.matches("\"unit\"").count();
    assert_eq!(entries, END_TO_END.len() + per_layer().len(), "BENCHMARK.json lists other metrics");
    for workload in WORKLOADS {
        assert!(json.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")), "{workload}");
    }
}

#[test]
fn same_seed_same_query_stream() {
    let scale = Scale::tiny();
    let n = sssp_grid::graph(&scale).num_vertices();
    let a = encode_stream(&sssp_grid::query_stream(n, 9));
    assert_eq!(a, encode_stream(&sssp_grid::query_stream(n, 9)));
    assert_ne!(a, encode_stream(&sssp_grid::query_stream(n, 10)));

    let n = serve_road::graph(&scale).num_vertices();
    let queries = |seed| -> Vec<_> {
        serve_road::query_stream(n, seed, 500).into_iter().map(|r| r.query).collect()
    };
    let a = encode_stream(&queries(9));
    assert_eq!(a, encode_stream(&queries(9)));
    assert_ne!(a, encode_stream(&queries(10)));

    let a = encode_stream(&shard_grid::query_stream(&scale, 9));
    assert_eq!(a, encode_stream(&shard_grid::query_stream(&scale, 9)));
    assert_ne!(a, encode_stream(&shard_grid::query_stream(&scale, 10)));

    // The recorded hash is the hash of exactly that stream.
    let out = run_workload("sssp-grid", &tiny(9, false)).expect("known workload");
    let n = sssp_grid::graph(&scale).num_vertices();
    assert_eq!(out.stream_hash, perfbench::util::stream_hash(&sssp_grid::query_stream(n, 9)));
}

#[test]
fn cache_hit_share_tracks_replay_share() {
    let scale = Scale::tiny();
    let n = serve_road::graph(&scale).num_vertices();
    for rate in [150.0, 400.0] {
        let seconds = 3.0;
        let cfg = RunConfig { rate, ..RunConfig { seconds, ..tiny(5, true) } };
        let len = (rate * seconds).ceil() as usize;
        let stream = serve_road::query_stream(n, 5, len);
        let replay = stream.iter().filter(|r| r.replay_of.is_some()).count() as f64 / len as f64;
        let out = serve_road::run(&cfg);
        assert!(out.correct() && out.failed() == 0);
        let hit = out.values["cache.hit_share"];
        assert!(
            (hit - replay).abs() < 0.05,
            "rate {rate}: hit share {hit} vs replay share {replay}"
        );

        // The serve layer's self time is about its requests' latencies plus
        // server start, not the length of the load window on top of them.
        let latencies_s = out.latency_ms.iter().sum::<f64>() * 1e-3;
        let serve = out.values["self_s.serve"];
        let harness = out.values["self_s.harness"];
        assert!(
            serve < latencies_s + seconds / 2.0,
            "rate {rate}: self_s.serve {serve} s over a {seconds} s load \
             whose latencies sum to {latencies_s} s"
        );
        assert!(harness < seconds / 4.0, "rate {rate}: self_s.harness {harness} s");
    }
}
