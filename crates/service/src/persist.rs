//! The cache's durability layer: an append-only segment log per serve
//! process.
//!
//! A `--cache-dir` holds two segments. `cache.log` is the append log:
//! every cacheable computed result is framed and appended as it is
//! inserted. `cache.snap` is the compaction output: when the log has
//! accumulated several times more records than the cache holds live
//! entries, the live entries are rewritten into `cache.snap.tmp`, the
//! file is atomically renamed over `cache.snap`, and the log is
//! truncated — so the on-disk footprint tracks the live set, not the
//! insert history.
//!
//! ## Record framing
//!
//! Each record is `[len: u32 LE][checksum: Digest hi,lo LE][payload]`
//! where the payload is the canonical JSON encoding of a
//! [`CacheEntry`] (the same codec the `cache_put` wire op speaks) and
//! the checksum is the house [`CanonicalHasher`] over the payload
//! bytes. There is deliberately no framing cleverness beyond that: the
//! JSON subset is already canonical, and a 128-bit avalanche checksum
//! per record makes silent corruption detectable without pulling in a
//! CRC dependency.
//!
//! ## Replay rules
//!
//! On boot the snapshot is replayed first, then the log; the **last**
//! record for a digest wins (a recompute overwrote the entry in
//! memory, so it must win on disk too). A torn tail — a record whose
//! frame extends past the end of the file, the normal result of a kill
//! mid-append — ends replay of that segment cleanly, keeping
//! everything before it. A checksum or decode failure does the same:
//! replay never guesses past damage, because a resynchronization
//! heuristic that skipped bytes could stitch together a record that
//! was never written. Both cases are reported, not errored — a cache
//! restore is an optimization, and a half-lost log must never stop a
//! shard from serving.

use crate::digest::{CanonicalHasher, Digest};
use crate::protocol::{parse, CacheEntry};
use crate::scheduler::LayoutResult;
use antlayer_graph::DiGraph;
use antlayer_layering::{Layering, LayeringMetrics, WidthModel};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Append-log file name inside a `--cache-dir`.
const LOG_FILE: &str = "cache.log";
/// Snapshot file name (compaction output).
const SNAP_FILE: &str = "cache.snap";
/// Temporary snapshot written before the atomic rename.
const SNAP_TMP: &str = "cache.snap.tmp";
/// Domain tag of the per-record checksum.
const CHECKSUM_TAG: &str = "antlayer-segment-v1";
/// Frame header size: u32 length + 128-bit checksum.
const HEADER: usize = 4 + 16;

/// What a segment replay found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Distinct entries recovered (after last-write-wins dedup).
    pub entries: usize,
    /// Records decoded across both segments (before dedup).
    pub records: usize,
    /// Whether a segment ended in a torn or corrupt record (replay kept
    /// everything before the damage).
    pub damaged: bool,
}

/// The per-process segment log behind `antlayer serve --cache-dir`.
pub struct SegmentLog {
    dir: PathBuf,
    inner: Mutex<LogWriter>,
}

struct LogWriter {
    log: File,
    /// Records appended to the log since the last compaction; the
    /// compaction trigger compares this to the live entry count.
    log_records: u64,
}

impl SegmentLog {
    /// Opens (creating if needed) the segment log in `dir`. The append
    /// log is opened for appending; existing segments are left for
    /// [`replay`](Self::replay).
    pub fn open(dir: &Path) -> std::io::Result<SegmentLog> {
        std::fs::create_dir_all(dir)?;
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(LOG_FILE))?;
        Ok(SegmentLog {
            dir: dir.to_path_buf(),
            inner: Mutex::new(LogWriter {
                log,
                log_records: 0,
            }),
        })
    }

    /// Replays snapshot then log, last record per digest winning, in a
    /// recency-faithful order (an entry's position is its last write).
    /// Damage truncates the affected segment's replay; it never errors.
    pub fn replay(&self) -> std::io::Result<(Vec<CacheEntry>, ReplayReport)> {
        let mut report = ReplayReport::default();
        let mut records = Vec::new();
        for name in [SNAP_FILE, LOG_FILE] {
            let path = self.dir.join(name);
            let mut bytes = Vec::new();
            match File::open(&path) {
                Ok(mut f) => {
                    f.read_to_end(&mut bytes)?;
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            }
            let (decoded, clean) = decode_segment(&bytes);
            report.records += decoded.len();
            report.damaged |= !clean;
            records.extend(decoded);
        }
        // Last write wins, and the order of survivors is the order of
        // their last writes — replaying them into an LRU reproduces the
        // recency the process died with.
        let mut last: HashMap<u128, usize> = HashMap::with_capacity(records.len());
        for (i, entry) in records.iter().enumerate() {
            last.insert(entry.digest.as_u128(), i);
        }
        let mut entries: Vec<CacheEntry> = Vec::with_capacity(last.len());
        for (i, entry) in records.into_iter().enumerate() {
            if last.get(&entry.digest.as_u128()) == Some(&i) {
                entries.push(entry);
            }
        }
        // Seed the compaction trigger with the replayed log's record
        // count, so a shard that boots onto a bloated log compacts on
        // its first inserts instead of doubling the bloat first.
        self.inner.lock().log_records = report.records as u64;
        report.entries = entries.len();
        Ok((entries, report))
    }

    /// Appends one entry to the log.
    pub fn append(&self, entry: &CacheEntry) -> std::io::Result<()> {
        let frame = encode_record(entry);
        let mut inner = self.inner.lock();
        inner.log.write_all(&frame)?;
        inner.log.flush()?;
        inner.log_records += 1;
        Ok(())
    }

    /// Whether the log has outgrown the live set enough to be worth
    /// compacting: several times more records than `live` entries, with
    /// a floor so small caches do not churn.
    pub fn should_compact(&self, live: usize) -> bool {
        self.inner.lock().log_records > 4 * live as u64 + 64
    }

    /// Rewrites `live` as the snapshot segment (tmp file + atomic
    /// rename) and truncates the log. Entries should be given in
    /// least- to most-recent order (what [`ShardedCache::for_each`]
    /// yields) so a later replay reconstructs recency.
    ///
    /// [`ShardedCache::for_each`]: crate::cache::ShardedCache::for_each
    pub fn compact(&self, live: &[CacheEntry]) -> std::io::Result<()> {
        // Hold the writer lock across the whole rewrite: an append
        // interleaved between the snapshot write and the log truncation
        // would be lost.
        let mut inner = self.inner.lock();
        let tmp = self.dir.join(SNAP_TMP);
        let mut out = File::create(&tmp)?;
        for entry in live {
            out.write_all(&encode_record(entry))?;
        }
        out.sync_all()?;
        std::fs::rename(&tmp, self.dir.join(SNAP_FILE))?;
        inner.log.set_len(0)?;
        inner.log_records = 0;
        Ok(())
    }

    /// Records appended to the log since the last compaction.
    pub fn log_records(&self) -> u64 {
        self.inner.lock().log_records
    }
}

/// Encodes one framed record: length, checksum, canonical-JSON payload.
pub fn encode_record(entry: &CacheEntry) -> Vec<u8> {
    let payload = entry.to_json().encode();
    let sum = checksum(payload.as_bytes());
    let mut out = Vec::with_capacity(HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&sum.hi.to_le_bytes());
    out.extend_from_slice(&sum.lo.to_le_bytes());
    out.extend_from_slice(payload.as_bytes());
    out
}

/// Decodes a segment: every well-formed record before the first torn or
/// corrupt one. Returns the records and whether the segment was clean
/// (ended exactly at a record boundary with every checksum passing).
pub fn decode_segment(bytes: &[u8]) -> (Vec<CacheEntry>, bool) {
    let mut entries = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        if bytes.len() - pos < HEADER {
            return (entries, false); // torn header
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let hi = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
        let lo = u64::from_le_bytes(bytes[pos + 12..pos + 20].try_into().unwrap());
        if bytes.len() - pos - HEADER < len {
            return (entries, false); // torn payload
        }
        let payload = &bytes[pos + HEADER..pos + HEADER + len];
        let sum = checksum(payload);
        if sum.hi != hi || sum.lo != lo {
            return (entries, false); // corrupt record: stop, keep prefix
        }
        // The checksum passed, so decode failures here mean the writer
        // itself was broken — still stop cleanly rather than panic.
        let Ok(text) = std::str::from_utf8(payload) else {
            return (entries, false);
        };
        let Ok(v) = parse(text) else {
            return (entries, false);
        };
        let Ok(entry) = CacheEntry::from_json(&v) else {
            return (entries, false);
        };
        entries.push(entry);
        pos += HEADER + len;
    }
    (entries, true)
}

fn checksum(payload: &[u8]) -> Digest {
    let mut h = CanonicalHasher::new(CHECKSUM_TAG);
    h.write_u64(payload.len() as u64);
    for chunk in payload.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h.write_u64(u64::from_le_bytes(word));
    }
    h.finish()
}

/// Reconstructs the [`LayoutResult`] a [`CacheEntry`] describes, by the
/// same pipeline that computed it: rebuild the graph, orient it, place
/// nodes on the recorded layers, and recompute metrics under the
/// recorded width model. The layering is validated against the oriented
/// DAG, so a record that does not describe a real layering (possible
/// only through a broken writer — checksums catch disk damage) is
/// rejected instead of poisoning the cache.
pub fn restore_result(entry: &CacheEntry) -> Result<LayoutResult, String> {
    let nodes = entry.nodes as usize;
    let graph =
        DiGraph::from_edges(nodes, &entry.edges).map_err(|e| format!("restore: graph: {e}"))?;
    let oriented = antlayer_sugiyama::acyclic_orientation(&graph);
    if entry.reversed_edges != oriented.reversed.len() as u64 {
        return Err(format!(
            "restore: reversed_edges is {}, but orienting the graph reverses {}",
            entry.reversed_edges,
            oriented.reversed.len()
        ));
    }
    let mut layer_of = vec![0u32; nodes];
    let mut placed = 0usize;
    for (i, layer) in entry.layers.iter().enumerate() {
        for &node in layer {
            let idx = node as usize; // < nodes: validated by the codec
            if layer_of[idx] != 0 {
                return Err(format!("restore: node {idx} placed twice"));
            }
            layer_of[idx] = i as u32 + 1; // layers are 1-based, bottom-up
            placed += 1;
        }
    }
    if placed != nodes {
        return Err(format!(
            "restore: {placed} of {nodes} nodes placed on layers"
        ));
    }
    let layering = Layering::from_slice(&layer_of);
    layering
        .validate(&oriented.dag)
        .map_err(|e| format!("restore: layering: {e}"))?;
    let wm = WidthModel::with_dummy_width(entry.nd_width);
    let metrics = LayeringMetrics::compute(&oriented.dag, &layering, &wm);
    Ok(LayoutResult {
        digest: entry.digest,
        graph,
        layering,
        metrics,
        nd_width: entry.nd_width,
        reversed_edges: entry.reversed_edges as usize,
        stopped_early: false,
        seeded: entry.seeded,
        certified: entry.certified,
        race: None,
        compute_micros: entry.compute_micros,
        // A restored entry's chain provenance is not recorded; starting
        // at 0 just means its first refresh comes a full period later.
        chain_len: 0,
        refreshed: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(hi: u64, edges: Vec<(u32, u32)>) -> CacheEntry {
        // A 3-node path graph with a valid bottom-up layering.
        CacheEntry {
            digest: Digest { hi, lo: hi ^ 7 },
            nodes: 3,
            edges,
            layers: vec![vec![2], vec![1], vec![0]],
            nd_width: 1.0,
            reversed_edges: 0,
            seeded: false,
            certified: false,
            compute_micros: 5,
        }
    }

    fn path_entry(hi: u64) -> CacheEntry {
        entry(hi, vec![(0, 1), (1, 2)])
    }

    #[test]
    fn append_replay_roundtrip_last_write_wins() {
        let dir = std::env::temp_dir().join(format!("antlayer-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let log = SegmentLog::open(&dir).unwrap();
        log.append(&path_entry(1)).unwrap();
        log.append(&path_entry(2)).unwrap();
        let mut updated = path_entry(1);
        updated.compute_micros = 99;
        log.append(&updated).unwrap();
        drop(log);

        let log = SegmentLog::open(&dir).unwrap();
        let (entries, report) = log.replay().unwrap();
        assert_eq!(report.records, 3);
        assert!(!report.damaged);
        // Dedup by digest, last write wins, last-write order.
        assert_eq!(entries, vec![path_entry(2), updated]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_keeps_prefix() {
        let mut bytes = encode_record(&path_entry(1));
        bytes.extend_from_slice(&encode_record(&path_entry(2))[..10]);
        let (entries, clean) = decode_segment(&bytes);
        assert_eq!(entries.len(), 1);
        assert!(!clean);
    }

    #[test]
    fn corrupt_record_stops_replay_cleanly() {
        let mut bytes = encode_record(&path_entry(1));
        let flip_at = bytes.len() - 3; // inside the first payload
        bytes.extend_from_slice(&encode_record(&path_entry(2)));
        bytes[flip_at] ^= 0x40;
        let (entries, clean) = decode_segment(&bytes);
        assert!(entries.is_empty(), "damage in record 1 stops before it");
        assert!(!clean);
    }

    #[test]
    fn compaction_truncates_log_and_survives_replay() {
        let dir = std::env::temp_dir().join(format!("antlayer-compact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let log = SegmentLog::open(&dir).unwrap();
        for i in 0..10 {
            log.append(&path_entry(i)).unwrap();
        }
        // Pretend only two entries are live.
        log.compact(&[path_entry(3), path_entry(7)]).unwrap();
        assert_eq!(log.log_records(), 0);
        log.append(&path_entry(11)).unwrap();
        drop(log);

        let log = SegmentLog::open(&dir).unwrap();
        let (entries, report) = log.replay().unwrap();
        assert!(!report.damaged);
        assert_eq!(entries, vec![path_entry(3), path_entry(7), path_entry(11)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restore_rebuilds_the_computed_result() {
        let e = path_entry(9);
        let r = restore_result(&e).unwrap();
        assert_eq!(r.digest, e.digest);
        assert_eq!(r.graph.node_count(), 3);
        assert_eq!(r.metrics.height, 3);
        assert!(!r.stopped_early);
        // A broken layering (node placed twice) is rejected.
        let mut bad = path_entry(9);
        bad.layers = vec![vec![2, 2], vec![1], vec![0]];
        assert!(restore_result(&bad).unwrap_err().contains("placed twice"));
        // A node missing from every layer is rejected.
        let mut bad = path_entry(9);
        bad.layers = vec![vec![2], vec![1]];
        assert!(restore_result(&bad).is_err());
    }

    #[test]
    fn a_wrong_reversed_edge_count_is_rejected_by_restore_and_install() {
        // The path is a DAG: orienting it reverses nothing, so an entry
        // claiming 999 reversed edges must not be served.
        let mut bad = path_entry(9);
        bad.reversed_edges = 999;
        let err = restore_result(&bad).unwrap_err();
        assert!(err.contains("reversed_edges is 999"), "{err}");
        let scheduler = crate::scheduler::Scheduler::new(Default::default());
        assert!(matches!(
            scheduler.install(&bad),
            Err(crate::scheduler::ServiceError::InvalidRequest(_))
        ));
        assert_eq!(scheduler.restored(), 0);
        assert_eq!(scheduler.install(&path_entry(9)), Ok(true));
    }
}
