//! Fault-injection tests over the committed `slopt-shard/1` corpus in
//! `tests/data/shards/` (see its README.txt): ingestion must fold the
//! valid shards, skip each malformed one with a counted warning, count
//! the numbering gap as missing, and never panic.

use slopt_obs::Obs;
use slopt_sample::{
    concurrency_map, read_shard, shard_concurrency, ConcurrencyConfig, ShardError, ShardReader,
};
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/shards")
}

const CFG: ConcurrencyConfig = ConcurrencyConfig { interval: 100 };

#[test]
fn corpus_reader_classifies_every_fault() {
    let mut reader = ShardReader::open(&corpus_dir()).unwrap();
    let results: Vec<(PathBuf, Result<Vec<_>, ShardError>)> = reader.by_ref().collect();
    let names: Vec<String> = results
        .iter()
        .map(|(p, _)| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    // README.txt is ignored; shards come back in index order.
    assert_eq!(
        names,
        [
            "shard-00000.slshard",
            "shard-00001.slshard",
            "shard-00002.slshard",
            "shard-00003.slshard",
            "shard-00004.slshard",
            "shard-00006.slshard",
        ]
    );
    assert!(matches!(results[0].1, Ok(ref s) if s.len() == 4));
    assert!(matches!(
        results[1].1,
        Err(ShardError::Truncated {
            expected: 128,
            actual: 80
        })
    ));
    assert!(matches!(results[2].1, Err(ShardError::BadMagic)));
    assert!(matches!(
        results[3].1,
        Err(ShardError::Truncated {
            expected: 32,
            actual: 0
        })
    ));
    assert!(matches!(results[4].1, Err(ShardError::OutOfOrder(2))));
    assert!(matches!(results[5].1, Ok(ref s) if s.len() == 2));
    // The gap at index 5 is a missing shard, not an error.
    assert_eq!(reader.missing(), 1);
}

#[test]
fn corpus_ingestion_skips_faults_and_matches_survivors() {
    let dir = corpus_dir();
    let (map, stats) =
        shard_concurrency(&dir, CFG, 2, &Obs::disabled()).expect("listing the corpus dir succeeds");
    assert_eq!(stats.shards_ok, 2);
    assert_eq!(stats.shards_skipped, 4);
    assert_eq!(stats.shards_missing, 1);
    assert_eq!(stats.samples, 6);
    assert_eq!(stats.skipped_by_reason.get("truncated"), Some(&2));
    assert_eq!(stats.skipped_by_reason.get("bad_magic"), Some(&1));
    assert_eq!(stats.skipped_by_reason.get("out_of_order"), Some(&1));

    // The result equals the batch CC of exactly the surviving shards.
    let mut survivors = read_shard(&dir.join("shard-00000.slshard")).unwrap();
    survivors.extend(read_shard(&dir.join("shard-00006.slshard")).unwrap());
    let expected = concurrency_map(&survivors, &CFG);
    assert_eq!(map, expected);

    let line = stats.summary_line();
    assert!(line.contains("2 ok"), "summary: {line}");
    assert!(line.contains("4 skipped"), "summary: {line}");
    assert!(line.contains("1 missing"), "summary: {line}");
}

#[test]
fn corpus_skips_surface_as_stats_warnings() {
    let obs = Obs::aggregating();
    let (_, stats) = shard_concurrency(&corpus_dir(), CFG, 1, &obs).unwrap();
    obs.finish();
    let summary = obs.summary();
    // Each skip reason is a warn.shard.skipped.<reason> counter — the
    // rows `--stats` prints — plus the missing-shard warning.
    assert_eq!(
        summary.metrics.counter("warn.shard.skipped.truncated"),
        stats.skipped_by_reason["truncated"]
    );
    assert_eq!(summary.metrics.counter("warn.shard.skipped.bad_magic"), 1);
    assert_eq!(
        summary.metrics.counter("warn.shard.skipped.out_of_order"),
        1
    );
    assert_eq!(summary.metrics.counter("warn.shard.missing"), 1);
    assert_eq!(summary.warning_total(), 5);
    assert_eq!(summary.metrics.counter("shard.ok"), 2);
    assert_eq!(summary.metrics.counter("shard.samples"), 6);
    let table = summary.to_string();
    assert!(
        table.contains("warn.shard.skipped.truncated"),
        "stats table must list skip counters:\n{table}"
    );
}
