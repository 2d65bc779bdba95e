//! Resumable campaign checkpoints: finalized cells on disk, updated
//! atomically, validated before a single byte of them is trusted.
//!
//! A checkpoint holds the [`CellReport`]s a shard has finalized so far,
//! preceded by a header binding the file to one exact campaign: scenario
//! name, base seed, seed count, confidence, shard assignment, and a
//! fingerprint of the full grid. [`load`] refuses a checkpoint whose
//! header describes a *different* campaign (running `--resume` against
//! the wrong state is an error, not silent mis-aggregation), while a
//! *damaged* file degrades gracefully:
//!
//! * missing file, bad magic, or a header too short to parse → start
//!   clean (no cells resumed);
//! * a truncated or corrupt record tail → keep the complete prefix and
//!   re-run only the cells past it.
//!
//! Writes go through the same discipline as the `tm-lint` cache: encode
//! the whole file, write to a sibling `.tmp`, then `rename` into place.
//! On POSIX the rename is atomic, so a reader (or a crash) sees either
//! the old complete checkpoint or the new one — never a half-written
//! file. The [`Saver`] sink plugs this into the runner: every finalized
//! cell triggers a fresh atomic snapshot, so killing a campaign at any
//! instant loses at most the cells still in flight.
//!
//! Numbers are stored bit-exactly ([`f64::to_bits`] via [`crate::codec`]),
//! so a resumed report renders byte-identically to an uninterrupted run.

use std::fs;
use std::path::{Path, PathBuf};

use crate::aggregate::{CellReport, MetricAggregate};
use crate::codec::{put_f64, put_str, put_u32, put_u64, Cursor};
use crate::registry::{GridPoint, Scenario};
use crate::runner::{CampaignSpec, RunSink};
use crate::shard::Shard;

/// File magic + format version. Bump on any layout change.
const MAGIC: &[u8; 8] = b"TMCKPT01";

/// The identity block binding a checkpoint to one exact campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointHeader {
    /// Scenario name.
    pub scenario: String,
    /// The spec's base seed.
    pub base_seed: u64,
    /// Seeds per cell.
    pub seeds: usize,
    /// Confidence level (compared bit-exactly).
    pub confidence: f64,
    /// The shard that owns this checkpoint.
    pub shard: Shard,
    /// FNV-1a fingerprint of the full grid's cell labels — catches a
    /// scenario whose axes changed since the checkpoint was written.
    pub grid_fingerprint: u64,
    /// Total cells in the grid (across all shards).
    pub grid_cells: usize,
}

impl CheckpointHeader {
    /// The header for a spec over the given scenario.
    pub fn for_spec(scenario: &Scenario, spec: &CampaignSpec) -> CheckpointHeader {
        let grid = scenario.cells();
        CheckpointHeader {
            scenario: scenario.name.clone(),
            base_seed: spec.base_seed,
            seeds: spec.seeds,
            confidence: spec.confidence,
            shard: spec.shard,
            grid_fingerprint: grid_fingerprint(&grid),
            grid_cells: grid.len(),
        }
    }
}

/// FNV-1a over the grid's cell labels, in canonical cell order.
///
/// Any change to the axes — a value added, renamed, or reordered —
/// shifts cell indices, so the fingerprint must change with them; labels
/// capture exactly that.
pub fn grid_fingerprint(grid: &[GridPoint]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let prime: u64 = 0x0000_0100_0000_01b3;
    for point in grid {
        for byte in point.label().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(prime);
        }
        // Separator outside the UTF-8 range, so label boundaries can't
        // alias ("ab"+"c" vs "a"+"bc").
        hash ^= 0xFF;
        hash = hash.wrapping_mul(prime);
    }
    hash
}

fn encode_header(buf: &mut Vec<u8>, header: &CheckpointHeader) {
    buf.extend_from_slice(MAGIC);
    put_str(buf, &header.scenario);
    put_u64(buf, header.base_seed);
    put_u64(buf, header.seeds as u64);
    put_f64(buf, header.confidence);
    put_u32(buf, header.shard.index);
    put_u32(buf, header.shard.count);
    put_u64(buf, header.grid_fingerprint);
    put_u64(buf, header.grid_cells as u64);
}

fn decode_header(cursor: &mut Cursor<'_>) -> Option<CheckpointHeader> {
    if cursor.bytes(MAGIC.len())? != MAGIC {
        return None;
    }
    let scenario = cursor.str()?;
    let base_seed = cursor.u64()?;
    let seeds = cursor.len()?;
    let confidence = cursor.f64()?;
    let shard = Shard {
        index: cursor.u32()?,
        count: cursor.u32()?,
    };
    let grid_fingerprint = cursor.u64()?;
    let grid_cells = cursor.len()?;
    Some(CheckpointHeader {
        scenario,
        base_seed,
        seeds,
        confidence,
        shard,
        grid_fingerprint,
        grid_cells,
    })
}

fn encode_cell(buf: &mut Vec<u8>, cell: &CellReport) {
    let mut body = Vec::new();
    put_u64(&mut body, cell.index as u64);
    put_u32(&mut body, cell.point.coords.len() as u32);
    for (axis, value) in &cell.point.coords {
        put_str(&mut body, axis);
        put_str(&mut body, value);
    }
    put_u64(&mut body, cell.seeds as u64);
    put_u32(&mut body, cell.failures.len() as u32);
    for (seed, cause) in &cell.failures {
        put_u64(&mut body, *seed);
        put_str(&mut body, cause);
    }
    put_u32(&mut body, cell.metrics.len() as u32);
    for m in &cell.metrics {
        put_str(&mut body, &m.name);
        put_u64(&mut body, m.n as u64);
        put_f64(&mut body, m.mean);
        put_f64(&mut body, m.sd);
        put_f64(&mut body, m.min);
        put_f64(&mut body, m.max);
        put_f64(&mut body, m.ci_half);
        put_f64(&mut body, m.q50);
    }
    put_u64(buf, body.len() as u64);
    buf.extend_from_slice(&body);
}

fn decode_cell(cursor: &mut Cursor<'_>) -> Option<CellReport> {
    // Counts are untrusted: grow the vectors as entries actually decode
    // rather than pre-allocating what a corrupt count claims.
    let index = cursor.len()?;
    let n_coords = cursor.u32()?;
    let mut coords = Vec::new();
    for _ in 0..n_coords {
        let axis = cursor.str()?;
        let value = cursor.str()?;
        coords.push((axis, value));
    }
    let seeds = cursor.len()?;
    let n_failures = cursor.u32()?;
    let mut failures = Vec::new();
    for _ in 0..n_failures {
        let seed = cursor.u64()?;
        let cause = cursor.str()?;
        failures.push((seed, cause));
    }
    let n_metrics = cursor.u32()?;
    let mut metrics = Vec::new();
    for _ in 0..n_metrics {
        metrics.push(MetricAggregate {
            name: cursor.str()?,
            n: cursor.len()?,
            mean: cursor.f64()?,
            sd: cursor.f64()?,
            min: cursor.f64()?,
            max: cursor.f64()?,
            ci_half: cursor.f64()?,
            q50: cursor.f64()?,
        });
    }
    Some(CellReport {
        index,
        point: GridPoint { coords },
        seeds,
        failures,
        metrics,
    })
}

/// Writes a complete checkpoint atomically: encode, write a sibling
/// `<path>.tmp`, `rename` over `path`.
pub fn save(path: &Path, header: &CheckpointHeader, cells: &[CellReport]) -> Result<(), String> {
    let mut buf = Vec::new();
    encode_header(&mut buf, header);
    for cell in cells {
        encode_cell(&mut buf, cell);
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, &buf).map_err(|e| format!("checkpoint write {}: {e}", tmp.display()))?;
    fs::rename(&tmp, path).map_err(|e| {
        format!(
            "checkpoint rename {} -> {}: {e}",
            tmp.display(),
            path.display()
        )
    })
}

/// Loads the resumable cells from a checkpoint, validating it against the
/// campaign described by `expect`.
///
/// Returns the complete-record prefix of the file. Degrades per the
/// module contract: no file / bad magic / short header → `Ok(empty)`
/// (clean restart); a parseable header that describes a *different*
/// campaign → `Err` (refuse to mix state); a damaged record tail → the
/// cells before it.
pub fn load(path: &Path, expect: &CheckpointHeader) -> Result<Vec<CellReport>, String> {
    let data = match fs::read(path) {
        Ok(data) => data,
        Err(_) => return Ok(Vec::new()),
    };
    let mut cursor = Cursor::new(&data);
    let header = match decode_header(&mut cursor) {
        Some(header) => header,
        None => return Ok(Vec::new()),
    };
    let header_matches = header.confidence.to_bits() == expect.confidence.to_bits()
        && CheckpointHeader {
            confidence: expect.confidence,
            ..header.clone()
        } == *expect;
    if !header_matches {
        return Err(format!(
            "checkpoint {} was written for campaign `{}` (base seed {:#x}, {} seeds, shard {}, \
             grid {:#018x}/{} cells); current spec differs — delete it or fix the flags",
            path.display(),
            header.scenario,
            header.base_seed,
            header.seeds,
            header.shard.label(),
            header.grid_fingerprint,
            header.grid_cells,
        ));
    }
    let mut cells = Vec::new();
    loop {
        if cursor.is_empty() {
            break;
        }
        let complete = (|| {
            let len = cursor.len()?;
            let body = cursor.bytes(len)?;
            let mut record = Cursor::new(body);
            let cell = decode_cell(&mut record)?;
            record.is_empty().then_some(cell)
        })();
        match complete {
            Some(cell) => cells.push(cell),
            // Truncated or corrupt tail: keep the complete prefix; the
            // runner re-executes everything past it.
            None => break,
        }
    }
    Ok(cells)
}

/// A [`RunSink`] that re-snapshots the checkpoint after every finalized
/// cell.
///
/// Seed it with the cells loaded at resume time so an interrupted →
/// resumed → interrupted chain never forgets earlier work. Snapshots are
/// whole-file atomic rewrites; cells are kept sorted by index so the file
/// is always in canonical order.
pub struct Saver {
    path: PathBuf,
    header: CheckpointHeader,
    cells: Vec<CellReport>,
}

impl Saver {
    /// A saver for `path`, pre-seeded with already-finalized cells.
    pub fn new(path: PathBuf, header: CheckpointHeader, resumed: Vec<CellReport>) -> Saver {
        Saver {
            path,
            header,
            cells: resumed,
        }
    }

    /// The cells the saver currently holds (resumed + finalized).
    pub fn cells(&self) -> &[CellReport] {
        &self.cells
    }
}

impl RunSink for Saver {
    fn on_cell(&mut self, cell: &CellReport) -> Result<(), String> {
        self.cells.push(cell.clone());
        self.cells.sort_by_key(|c| c.index);
        save(&self.path, &self.header, &self.cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Axis, Metrics, Registry};
    use crate::runner::{run_campaign, run_campaign_with, Resume};
    use std::sync::OnceLock;
    use tm_prop::bytes::mutation;
    use tm_prop::prelude::*;

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.register(Scenario::new(
            "ck",
            "checkpoint fixture",
            vec![Axis::new("v", &["1", "2", "3"])],
            |point, seed| {
                let v: f64 = point.get("v").and_then(|s| s.parse().ok()).unwrap_or(0.0);
                if point.get("v") == Some("3") && seed % 2 == 1 {
                    panic!("odd seed on v=3");
                }
                Metrics::new().with("m", v * (seed % 10) as f64)
            },
        ))
        .expect("register");
        r
    }

    fn spec() -> CampaignSpec {
        let mut s = CampaignSpec::new("ck", 0xAB);
        s.seeds = 4;
        s.quiet_panics = true;
        s
    }

    fn header(registry: &Registry, spec: &CampaignSpec) -> CheckpointHeader {
        CheckpointHeader::for_spec(registry.get("ck").expect("scenario"), spec)
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let dir = std::env::temp_dir().join("tm-campaign-ckpt-roundtrip");
        fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("ck.ckpt");
        let r = registry();
        let s = spec();
        let report = run_campaign(&r, &s).expect("campaign");
        let h = header(&r, &s);
        save(&path, &h, &report.cells).expect("save");
        let cells = load(&path, &h).expect("load");
        assert_eq!(cells, report.cells);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_or_garbage_file_is_a_clean_restart() {
        let dir = std::env::temp_dir().join("tm-campaign-ckpt-garbage");
        fs::create_dir_all(&dir).expect("tmpdir");
        let r = registry();
        let s = spec();
        let h = header(&r, &s);
        assert_eq!(load(&dir.join("absent.ckpt"), &h), Ok(Vec::new()));
        let garbage = dir.join("garbage.ckpt");
        fs::write(&garbage, b"not a checkpoint at all").expect("write");
        assert_eq!(load(&garbage, &h), Ok(Vec::new()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_header_is_an_error_not_a_restart() {
        let dir = std::env::temp_dir().join("tm-campaign-ckpt-mismatch");
        fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("ck.ckpt");
        let r = registry();
        let s = spec();
        let report = run_campaign(&r, &s).expect("campaign");
        save(&path, &header(&r, &s), &report.cells).expect("save");

        let mut other_seed = s.clone();
        other_seed.base_seed = 0xCD;
        assert!(load(&path, &header(&r, &other_seed)).is_err(), "base seed");
        let mut other_seeds = s.clone();
        other_seeds.seeds = 9;
        assert!(
            load(&path, &header(&r, &other_seeds)).is_err(),
            "seed count"
        );
        let mut other_shard = s.clone();
        other_shard.shard = Shard { index: 0, count: 2 };
        assert!(load(&path, &header(&r, &other_shard)).is_err(), "shard");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_keeps_the_complete_prefix() {
        let dir = std::env::temp_dir().join("tm-campaign-ckpt-trunc");
        fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("ck.ckpt");
        let r = registry();
        let s = spec();
        let h = header(&r, &s);
        let report = run_campaign(&r, &s).expect("campaign");
        assert_eq!(report.cells.len(), 3);
        save(&path, &h, &report.cells).expect("save");
        let full = fs::read(&path).expect("read");

        // Chop bytes off the end: the loader must always return a prefix
        // of the saved cells, never an error or a panic.
        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).expect("truncate");
            let cells = load(&path, &h).expect("load truncated");
            assert!(cells.len() <= report.cells.len());
            assert_eq!(cells.as_slice(), &report.cells[..cells.len()], "cut={cut}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn saver_sink_checkpoints_every_cell_and_resumes() {
        let dir = std::env::temp_dir().join("tm-campaign-ckpt-saver");
        fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("ck.ckpt");
        let r = registry();
        let s = spec();
        let h = header(&r, &s);

        // First pass: run everything through the saver.
        let mut saver = Saver::new(path.clone(), h.clone(), Vec::new());
        let full = run_campaign_with(&r, &s, &Resume::none(), &mut saver).expect("campaign");
        assert_eq!(saver.cells(), full.cells.as_slice());

        // Simulate a crash that lost the last record: truncate the file,
        // resume, and require byte-identical output.
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() - 7]).expect("truncate");
        let resumed_cells = load(&path, &h).expect("load");
        assert!(
            resumed_cells.len() < full.cells.len(),
            "truncation lost a cell"
        );
        let mut saver = Saver::new(path.clone(), h.clone(), resumed_cells.clone());
        let resumed = run_campaign_with(
            &r,
            &s,
            &Resume {
                cells: resumed_cells,
            },
            &mut saver,
        )
        .expect("resumed campaign");
        assert_eq!(resumed.render(), full.render());
        assert_eq!(resumed, full);
        // And the checkpoint on disk is whole again.
        assert_eq!(load(&path, &h).expect("reload"), full.cells);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cell_counts_drop_the_tail_instead_of_aborting() {
        // Each of a cell's three counts set to u32::MAX in turn, the
        // others zero so decoding reaches it. The record is damage: the
        // loader keeps the valid cell before it and must not try to
        // allocate what the count claims.
        let dir = std::env::temp_dir().join("tm-campaign-ckpt-counts");
        fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("ck.ckpt");
        let r = registry();
        let s = spec();
        let h = header(&r, &s);
        let report = run_campaign(&r, &s).expect("campaign");
        for field in 0..3 {
            let count = |i: usize| if i == field { u32::MAX } else { 0 };
            let mut body = Vec::new();
            put_u64(&mut body, 1);
            put_u32(&mut body, count(0));
            put_u64(&mut body, 4);
            put_u32(&mut body, count(1));
            put_u32(&mut body, count(2));
            let mut buf = Vec::new();
            encode_header(&mut buf, &h);
            encode_cell(&mut buf, &report.cells[0]);
            put_u64(&mut buf, body.len() as u64);
            buf.extend_from_slice(&body);
            fs::write(&path, &buf).expect("write");
            assert_eq!(
                load(&path, &h).expect("load"),
                report.cells[..1],
                "field {field}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A valid encoding of the fixture campaign, built once.
    fn valid_checkpoint() -> &'static (CheckpointHeader, Vec<u8>) {
        static BYTES: OnceLock<(CheckpointHeader, Vec<u8>)> = OnceLock::new();
        BYTES.get_or_init(|| {
            let r = registry();
            let s = spec();
            let h = header(&r, &s);
            let mut buf = Vec::new();
            encode_header(&mut buf, &h);
            for cell in &run_campaign(&r, &s).expect("campaign").cells {
                encode_cell(&mut buf, cell);
            }
            (h, buf)
        })
    }

    tm_prop! {
        #[test]
        fn mutated_checkpoints_load_to_err_or_a_stable_prefix(
            mutations in collection::vec(mutation(), 1..4),
        ) {
            // Any corruption of a valid checkpoint must load as `Err` or
            // as cells that are themselves well-formed: saving and
            // reloading them is a fixed point, byte for byte.
            let (h, valid) = valid_checkpoint();
            let mut wire = valid.clone();
            for m in &mutations {
                wire = m.apply(&wire);
            }
            let dir = std::env::temp_dir().join("tm-campaign-ckpt-mutated");
            fs::create_dir_all(&dir).expect("tmpdir");
            let path = dir.join("ck.ckpt");
            fs::write(&path, &wire).expect("write");
            if let Ok(cells) = load(&path, h) {
                save(&path, h, &cells).expect("save");
                let once = fs::read(&path).expect("read");
                let again = load(&path, h).expect("reload");
                prop_assert_eq!(again.len(), cells.len());
                save(&path, h, &again).expect("resave");
                prop_assert_eq!(fs::read(&path).expect("read"), once);
            }
        }
    }
}
