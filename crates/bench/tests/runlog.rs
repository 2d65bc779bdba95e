//! The binary run-log contract, pinned:
//!
//! 1. A log written by the [`bench::runlog::Writer`] sink during a live
//!    campaign reads back record-for-record, and replaying it through
//!    `aggregate_stream` reproduces the live report **byte for byte**.
//! 2. Shard logs merge into the unsharded canonical stream; duplicates
//!    and gaps are errors, not silently wrong aggregates.
//! 3. A damaged tail (partial final write) drops cleanly: the complete
//!    prefix survives, `truncated` is flagged, and `complete_cells`
//!    offers only cells whose full seed set is on disk.
//! 4. Corrupt bytes anywhere read back as `Err` or a well-formed log,
//!    never a panic or an abort.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use bench::runlog::{self, RunLogHeader, Writer};
use tm_campaign::codec::{put_f64, put_str, put_u32, put_u64};
use tm_campaign::{
    aggregate_stream, run_campaign_with, Axis, CampaignSpec, Metrics, RecordingSink, Registry,
    Resume, Scenario, Shard,
};
use tm_prop::bytes::mutation;
use tm_prop::prelude::*;

fn registry() -> Registry {
    let mut r = Registry::new();
    r.register(Scenario::new(
        "rl",
        "run-log fixture",
        vec![Axis::new("a", &["p", "q"]), Axis::new("b", &["0", "1"])],
        |point, seed| {
            if point.get("a") == Some("q") && seed % 3 == 0 {
                panic!("q fails every third seed");
            }
            let b: f64 = point.get("b").and_then(|v| v.parse().ok()).unwrap_or(0.0);
            Metrics::new()
                .with("value", (seed % 50) as f64 + b)
                .with("flag", (seed % 2) as f64)
        },
    ))
    .expect("register");
    r
}

fn spec() -> CampaignSpec {
    let mut s = CampaignSpec::new("rl", 0x5EED);
    s.seeds = 4;
    s.workers = 2;
    s.quiet_panics = true;
    s
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-runlog-{tag}"));
    fs::create_dir_all(&dir).expect("tmpdir");
    dir
}

/// Runs one shard, writing its run-log and recording the live stream.
fn run_shard(dir: &Path, shard: Shard) -> (tm_campaign::CampaignReport, RecordingSink, PathBuf) {
    let r = registry();
    let mut s = spec();
    s.shard = shard;
    let scenario = r.get("rl").expect("scenario");
    let header = RunLogHeader::for_spec(scenario, &s);
    let path = dir.join(format!("rl.shard{}of{}.runlog", shard.index, shard.count));
    let mut writer = Writer::create(&path, &header, &[]).expect("create log");
    let mut recorder = RecordingSink::default();
    let mut tee = tm_campaign::TeeSink {
        first: &mut writer,
        second: &mut recorder,
    };
    let report = run_campaign_with(&r, &s, &Resume::none(), &mut tee).expect("campaign");
    (report, recorder, path)
}

#[test]
fn log_round_trips_and_replays_byte_identically() {
    let dir = tmpdir("roundtrip");
    let (live, recorder, path) = run_shard(&dir, Shard::full());

    let log = runlog::read(&path).expect("read log");
    assert!(!log.truncated);
    assert_eq!(
        log.records, recorder.runs,
        "records survive the disk round trip"
    );
    assert_eq!(log.header.grid().len(), 4);

    let replayed =
        aggregate_stream(&log.header.meta(), &log.header.grid(), log.records).expect("replay");
    assert_eq!(replayed.render(), live.render(), "replayed render");
    assert_eq!(replayed, live, "replayed report");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn shard_logs_merge_into_the_unsharded_stream() {
    let dir = tmpdir("merge");
    let (whole, _, _) = run_shard(&dir, Shard::full());
    let (_, _, p0) = run_shard(&dir, Shard { index: 0, count: 2 });
    let (_, _, p1) = run_shard(&dir, Shard { index: 1, count: 2 });

    let logs = vec![
        runlog::read(&p0).expect("shard 0"),
        runlog::read(&p1).expect("shard 1"),
    ];
    let (header, records) = runlog::merge(&logs).expect("merge");
    assert!(
        header.shard.is_full(),
        "complete merge is the unsharded campaign"
    );
    let merged = aggregate_stream(&header.meta(), &header.grid(), records).expect("aggregate");
    assert_eq!(
        merged.render(),
        whole.render(),
        "merged replay vs single-shot"
    );
    assert_eq!(merged.cells, whole.cells);

    // Duplicates (same log twice) and gaps (one shard missing) are errors.
    let dup = vec![
        runlog::read(&p0).expect("shard 0"),
        runlog::read(&p0).expect("shard 0 again"),
    ];
    assert!(runlog::merge(&dup).unwrap_err().contains("duplicate"));
    // A lone shard log still merges (partial replay keeps its shard label)…
    let (lone_header, _) = runlog::merge(&logs[..1]).expect("single log");
    assert_eq!(lone_header.shard, Shard { index: 0, count: 2 });
    // …but a log with a run chopped out mid-cell reports the gap.
    let mut cut = runlog::read(&p0).expect("shard 0");
    cut.records.remove(1);
    assert!(runlog::merge(&[cut]).unwrap_err().contains("of 4 runs"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn mismatched_logs_refuse_to_merge() {
    let dir = tmpdir("mismatch");
    let (_, _, path) = run_shard(&dir, Shard::full());
    let mut other = runlog::read(&path).expect("read");
    other.header.base_seed ^= 1;
    let same = runlog::read(&path).expect("read again");
    assert!(runlog::merge(&[same, other])
        .unwrap_err()
        .contains("disagree"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn damaged_tail_keeps_the_complete_prefix() {
    let dir = tmpdir("trunc");
    let (_, recorder, path) = run_shard(&dir, Shard::full());
    let full = fs::read(&path).expect("read bytes");

    // Any cut inside the record area yields a prefix of the records and
    // the truncated flag; never an error, never garbage records.
    let header_len = full.len()
        - recorder
            .runs
            .iter()
            .map(|r| runlog::encode_record(4, r).len())
            .sum::<usize>();
    for cut in [full.len() - 1, full.len() - 9, header_len + 3, header_len] {
        fs::write(&path, &full[..cut]).expect("truncate");
        let log = runlog::read(&path).expect("read truncated");
        if cut == header_len {
            assert!(!log.truncated, "a record-aligned cut is not damage");
            assert!(log.records.is_empty());
        } else {
            assert!(log.truncated, "cut={cut} must flag the damaged tail");
        }
        assert!(log.records.len() <= recorder.runs.len());
        assert_eq!(log.records.as_slice(), &recorder.runs[..log.records.len()]);
    }

    // complete_cells only offers cells whose whole seed set survived.
    fs::write(&path, &full[..full.len() - 5]).expect("truncate");
    let log = runlog::read(&path).expect("read");
    let complete = runlog::complete_cells(&log);
    assert!(
        complete.len() < 4,
        "the damaged last cell must not be offered"
    );
    for (cell, records) in &complete {
        assert_eq!(records.len(), 4);
        assert!(records
            .iter()
            .enumerate()
            .all(|(i, r)| r.seed_index == i && r.cell == *cell));
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn writer_carries_kept_records_through_a_resume_rewrite() {
    let dir = tmpdir("resume");
    let (_, recorder, path) = run_shard(&dir, Shard::full());
    let log = runlog::read(&path).expect("read");

    // Pretend only cell 0 and 1 survived: rewrite keeping them, then
    // append the rest as a resumed campaign would.
    let keep: Vec<_> = recorder
        .runs
        .iter()
        .filter(|r| r.cell < 2)
        .cloned()
        .collect();
    let rest: Vec<_> = recorder
        .runs
        .iter()
        .filter(|r| r.cell >= 2)
        .cloned()
        .collect();
    let mut writer = Writer::create(&path, &log.header, &keep).expect("rewrite");
    use tm_campaign::RunSink;
    for record in &rest {
        writer.on_run(record).expect("append");
    }
    let bytes_reported = writer.bytes();
    drop(writer);

    let reread = runlog::read(&path).expect("reread");
    assert_eq!(
        reread.records, recorder.runs,
        "kept + appended = original stream"
    );
    assert!(!reread.truncated);
    assert_eq!(bytes_reported, fs::metadata(&path).expect("stat").len());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_axis_counts_are_an_error_not_an_abort() {
    // The header's axis and value counts set to u32::MAX: reading must
    // fail on the missing entries, not try to allocate what they claim.
    let dir = tmpdir("counts");
    let path = dir.join("counts.runlog");
    for (n_axes, n_values) in [(u32::MAX, 0), (1, u32::MAX)] {
        let mut buf = b"TMRLOG01".to_vec();
        put_str(&mut buf, "rl");
        put_str(&mut buf, "run-log fixture");
        put_u64(&mut buf, 0x5EED);
        put_u64(&mut buf, 4);
        put_f64(&mut buf, 0.95);
        put_u32(&mut buf, 0);
        put_u32(&mut buf, 1);
        put_u32(&mut buf, n_axes);
        put_str(&mut buf, "a");
        put_u32(&mut buf, n_values);
        fs::write(&path, &buf).expect("write");
        assert!(
            runlog::read(&path).is_err(),
            "n_axes={n_axes} n_values={n_values}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A valid log of the fixture campaign, written once.
fn valid_log() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let dir = tmpdir("valid");
        let (_, _, path) = run_shard(&dir, Shard::full());
        let bytes = fs::read(&path).expect("read log");
        let _ = fs::remove_dir_all(&dir);
        bytes
    })
}

tm_prop! {
    #[test]
    fn mutated_logs_read_to_err_or_a_stable_log(
        mutations in collection::vec(mutation(), 1..4),
    ) {
        // Any corruption of a valid log must read as `Err` or as a log
        // that is itself well-formed: rewriting and rereading it is a
        // fixed point, byte for byte.
        let mut wire = valid_log().to_vec();
        for m in &mutations {
            wire = m.apply(&wire);
        }
        let dir = tmpdir("mutated");
        let path = dir.join("mutated.runlog");
        let copy = dir.join("copy.runlog");
        fs::write(&path, &wire).expect("write");
        if let Ok(log) = runlog::read(&path) {
            runlog::complete_cells(&log);
            Writer::create(&copy, &log.header, &log.records).expect("rewrite");
            let once = fs::read(&copy).expect("read");
            let again = runlog::read(&copy).expect("reread");
            prop_assert!(!again.truncated);
            Writer::create(&copy, &again.header, &again.records).expect("rewrite again");
            prop_assert_eq!(fs::read(&copy).expect("read"), once);
        }
    }
}
