//! Versioned, checksummed binary snapshots of graph + φ + hierarchy.
//!
//! A snapshot is the unit a query server loads once and serves from: the
//! bipartite graph, its bitruss numbers, and (optionally) the prebuilt
//! [`BitrussHierarchy`], so neither the minutes-long decomposition nor
//! the index build is ever repeated.
//!
//! # Layout (format version 2)
//!
//! All integers are **little-endian**; `u32`s carry ids/counts bounded by
//! the graph's `u32` id space, `u64`s carry φ values and offsets.
//!
//! After the 12-byte preamble (`magic` then `version`), the file is a
//! sequence of independently checksummed **section frames**:
//!
//! ```text
//! magic    8 × u8   "BTRSNAP\0"
//! version  u32      2
//! frame*   u8 tag, u64 payload_len, payload bytes,
//!          u64 FNV-1a-64 over (tag | payload_len | payload)
//! ```
//!
//! Frames appear in a fixed order — `GRAPH` (tag 1), `PHI` (tag 2), an
//! optional `HIERARCHY` (tag 3), and a terminating `END` (tag 0xEE,
//! empty payload) — so a file torn at a frame boundary can never pass
//! for a complete snapshot that merely lacked the optional section.
//! Section payloads:
//!
//! ```text
//! GRAPH     u32 num_upper, u32 num_lower, u32 num_edges,
//!           then per edge: u32 upper_local, u32 lower_local
//!           (strictly ascending (upper, lower) pairs — edge-id order)
//! PHI       u64 × num_edges
//! HIERARCHY u32 L, u64 levels × L, u64 count_ge × L,
//!           u32 perm × num_edges,
//!           u32 N (forest nodes), u64 node_level × N, u32 node_parent × N,
//!           u64 node_edge_offsets × (N+1), u32 node_edge_ids × num_edges,
//!           u32 edge_node × num_edges, u64 vertex_max_k × num_vertices
//! ```
//!
//! Per-section checksums localize damage ("checksum mismatch in the phi
//! section" instead of "somewhere in the file") and let the reader
//! verify each section as it streams past instead of buffering the whole
//! file first.
//!
//! # Versioning policy
//!
//! The version is bumped whenever the byte layout changes; readers accept
//! exactly the versions they know and reject newer files with a clear
//! [`Error::Corrupt`] naming both versions, so stale binaries fail loudly
//! instead of misreading new snapshots. Version-1 files (one whole-file
//! trailer checksum instead of section frames) are still read: the
//! reader falls back to buffering and verifying the whole payload, so
//! snapshots written before the frame format keep loading byte-for-byte
//! identically.
//!
//! # Corruption handling
//!
//! Every load failure — bad magic, unsupported version, truncation,
//! structurally impossible sections, or a trailer checksum mismatch —
//! surfaces as [`Error::Corrupt`] (or [`Error::Io`] for genuine I/O
//! failures); loading never panics on hostile bytes. A successfully
//! loaded hierarchy is additionally cross-validated against the φ array,
//! so its answers are guaranteed to match the decomposition.

use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::path::Path;

use bigraph::fnv::{fnv1a, fnv_update};
use bigraph::{BipartiteGraph, Error, GraphBuilder, Result};

use crate::decomposition::Decomposition;
use crate::hierarchy::BitrussHierarchy;
use crate::persist::check_matching;
use crate::persist::vfs::{StdVfs, Vfs};
use crate::persist::{le_u32, le_u64};

/// Magic bytes opening every snapshot.
const MAGIC: [u8; 8] = *b"BTRSNAP\0";

/// Current snapshot format version (see the module docs for the policy).
pub const FORMAT_VERSION: u32 = 2;

/// Oldest format version this build still reads (whole-file checksum).
pub const MIN_FORMAT_VERSION: u32 = 1;

/// Section tags of the version-2 frame format.
const TAG_GRAPH: u8 = 1;
const TAG_PHI: u8 = 2;
const TAG_HIERARCHY: u8 = 3;
const TAG_END: u8 = 0xee;

/// Human name of a section tag, for error messages.
fn tag_name(tag: u8) -> &'static str {
    match tag {
        TAG_GRAPH => "graph",
        TAG_PHI => "phi",
        TAG_HIERARCHY => "hierarchy",
        TAG_END => "end",
        _ => "unknown",
    }
}

/// Cap on speculative `Vec` pre-allocation while reading, so a corrupt
/// count field cannot trigger a huge allocation before EOF detection.
const PREALLOC_CAP: usize = 1 << 20;

/// A loaded snapshot: the graph, its decomposition, and the hierarchy
/// index when one was persisted.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The bipartite graph, with declared layer sizes (isolated vertices
    /// included) and the exact edge ids of the writer.
    pub graph: BipartiteGraph,
    /// The bitruss numbers, aligned with the graph's edge ids.
    pub decomposition: Decomposition,
    /// The hierarchy index, when the snapshot carried one.
    pub hierarchy: Option<BitrussHierarchy>,
}

// ---------------------------------------------------------------------
// Primitive readers/writers (truncation → Error::Corrupt).

fn read_fully<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == ErrorKind::UnexpectedEof {
            Error::Corrupt("snapshot truncated mid-section".into())
        } else {
            Error::Io(e)
        }
    })
}

fn w_u8<W: Write>(w: &mut W, x: u8) -> Result<()> {
    w.write_all(&[x])?;
    Ok(())
}

fn w_u32<W: Write>(w: &mut W, x: u32) -> Result<()> {
    w.write_all(&x.to_le_bytes())?;
    Ok(())
}

fn w_u64<W: Write>(w: &mut W, x: u64) -> Result<()> {
    w.write_all(&x.to_le_bytes())?;
    Ok(())
}

fn r_u8<R: Read>(r: &mut R) -> Result<u8> {
    let mut b = [0u8; 1];
    read_fully(r, &mut b)?;
    Ok(b[0])
}

fn r_u32<R: Read>(r: &mut R) -> Result<u32> {
    let mut b = [0u8; 4];
    read_fully(r, &mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn r_u64<R: Read>(r: &mut R) -> Result<u64> {
    let mut b = [0u8; 8];
    read_fully(r, &mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn r_vec_u32<R: Read>(r: &mut R, count: usize) -> Result<Vec<u32>> {
    let mut v = Vec::with_capacity(count.min(PREALLOC_CAP));
    for _ in 0..count {
        v.push(r_u32(r)?);
    }
    Ok(v)
}

fn r_vec_u64<R: Read>(r: &mut R, count: usize) -> Result<Vec<u64>> {
    let mut v = Vec::with_capacity(count.min(PREALLOC_CAP));
    for _ in 0..count {
        v.push(r_u64(r)?);
    }
    Ok(v)
}

/// `usize` from a persisted `u64` offset/count, rejecting values that
/// cannot index this platform's memory.
fn r_usize<R: Read>(r: &mut R) -> Result<usize> {
    usize::try_from(r_u64(r)?)
        .map_err(|_| Error::Corrupt("offset exceeds the platform's address space".into()))
}

// ---------------------------------------------------------------------
// Writing.

/// Writes a snapshot of `g`, `d`, and optionally a prebuilt hierarchy.
///
/// # Errors
///
/// [`Error::Invariant`] when `d` (or `h`) does not belong to `g`;
/// [`Error::Io`] on write failures.
pub fn write_snapshot<W: Write>(
    g: &BipartiteGraph,
    d: &Decomposition,
    h: Option<&BitrussHierarchy>,
    writer: W,
) -> Result<()> {
    check_matching(g, d)?;
    if let Some(h) = h {
        if h.num_edges() != g.num_edges() as usize {
            return Err(Error::Invariant(format!(
                "hierarchy indexes {} edges but the graph has {}",
                h.num_edges(),
                g.num_edges()
            )));
        }
    }
    let mut w = BufWriter::new(writer);
    w.write_all(&MAGIC)?;
    w_u32(&mut w, FORMAT_VERSION)?;

    let mut payload = Vec::new();
    w_u32(&mut payload, g.num_upper())?;
    w_u32(&mut payload, g.num_lower())?;
    w_u32(&mut payload, g.num_edges())?;
    for e in g.edges() {
        let (u, v) = g.edge(e);
        w_u32(&mut payload, g.layer_index(u))?;
        w_u32(&mut payload, g.layer_index(v))?;
    }
    write_frame(&mut w, TAG_GRAPH, &payload)?;

    payload.clear();
    for &p in &d.phi {
        w_u64(&mut payload, p)?;
    }
    write_frame(&mut w, TAG_PHI, &payload)?;

    if let Some(h) = h {
        payload.clear();
        w_u32(&mut payload, h.levels.len() as u32)?;
        for &l in &h.levels {
            w_u64(&mut payload, l)?;
        }
        for &c in &h.count_ge {
            w_u64(&mut payload, c as u64)?;
        }
        for &e in &h.perm {
            w_u32(&mut payload, e)?;
        }
        w_u32(&mut payload, h.node_level.len() as u32)?;
        for &l in &h.node_level {
            w_u64(&mut payload, l)?;
        }
        for &p in &h.node_parent {
            w_u32(&mut payload, p)?;
        }
        for &o in &h.node_edge_offsets {
            w_u64(&mut payload, o as u64)?;
        }
        for &e in &h.node_edge_ids {
            w_u32(&mut payload, e)?;
        }
        for &n in &h.edge_node {
            w_u32(&mut payload, n)?;
        }
        for &k in &h.vertex_max_k {
            w_u64(&mut payload, k)?;
        }
        write_frame(&mut w, TAG_HIERARCHY, &payload)?;
    }

    write_frame(&mut w, TAG_END, &[])?;
    w.flush()?;
    Ok(())
}

/// Emits one version-2 section frame: `tag | len | payload | fnv`, the
/// checksum covering everything before it in the frame.
fn write_frame<W: Write>(w: &mut W, tag: u8, payload: &[u8]) -> Result<()> {
    w_u8(w, tag)?;
    w_u64(w, payload.len() as u64)?;
    w.write_all(payload)?;
    let mut hash = fnv1a(&[tag]);
    hash = fnv_update(hash, &(payload.len() as u64).to_le_bytes());
    hash = fnv_update(hash, payload);
    w_u64(w, hash)?;
    Ok(())
}

/// Writes a snapshot to a file path; see [`write_snapshot`].
///
/// The write is **atomic and durable**: the snapshot is buffered, then
/// committed via temp-file + fsync + rename + directory fsync
/// ([`crate::persist::store::write_bytes_atomic_std`]), so a crash
/// mid-write can never leave a torn file at `path`, and errors name the
/// offending file.
pub fn write_snapshot_file<P: AsRef<Path>>(
    g: &BipartiteGraph,
    d: &Decomposition,
    h: Option<&BitrussHierarchy>,
    path: P,
) -> Result<()> {
    let mut bytes = Vec::new();
    write_snapshot(g, d, h, &mut bytes)?;
    crate::persist::store::write_bytes_atomic_std(path.as_ref(), &bytes)
}

// ---------------------------------------------------------------------
// Reading.

/// Reads a snapshot written by [`write_snapshot`] (or any still-
/// supported older version), verifying the magic, version, checksums,
/// and every structural invariant. Version-2 files verify each section
/// frame as it streams past — a mismatch names the damaged section;
/// version-1 files fall back to buffering the whole payload and
/// verifying its single trailer checksum before any section is
/// interpreted. Either way a corrupted count field can never trigger a
/// huge allocation or a misparse. See the module docs for the
/// guarantees.
pub fn read_snapshot<R: Read>(reader: R) -> Result<Snapshot> {
    let mut r = BufReader::new(reader);
    let mut preamble = [0u8; 12];
    r.read_exact(&mut preamble).map_err(|e| {
        if e.kind() == ErrorKind::UnexpectedEof {
            Error::Corrupt("file is too short to be a bitruss snapshot".into())
        } else {
            Error::Io(e)
        }
    })?;
    if preamble[..MAGIC.len()] != MAGIC {
        return Err(Error::Corrupt(
            "not a bitruss snapshot (magic bytes mismatch)".into(),
        ));
    }
    match le_u32(&preamble[8..12]) {
        1 => read_snapshot_v1(&mut r, &preamble),
        FORMAT_VERSION => read_snapshot_v2(&mut r),
        version => Err(Error::Corrupt(format!(
            "unsupported snapshot version {version} (this build reads versions \
             {MIN_FORMAT_VERSION}..={FORMAT_VERSION})"
        ))),
    }
}

/// The version-1 fallback: one FNV trailer over the whole file, all
/// sections concatenated in a single payload.
fn read_snapshot_v1<R: Read>(r: &mut R, preamble: &[u8; 12]) -> Result<Snapshot> {
    let mut bytes = preamble.to_vec();
    r.read_to_end(&mut bytes)?;
    if bytes.len() < preamble.len() + 8 {
        return Err(Error::Corrupt(
            "file is too short to be a bitruss snapshot".into(),
        ));
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = le_u64(trailer);
    let computed = fnv1a(payload);
    if stored != computed {
        return Err(Error::Corrupt(format!(
            "checksum mismatch (stored {stored:#018x}, computed {computed:#018x}) — \
             the file is damaged"
        )));
    }

    let mut s: &[u8] = &payload[12..];
    let graph = parse_graph(&mut s)?;
    let m = graph.num_edges() as usize;
    let decomposition = Decomposition::new(r_vec_u64(&mut s, m)?);
    let hierarchy = match r_u8(&mut s)? {
        0 => None,
        1 => Some(parse_hierarchy(&mut s, &graph, &decomposition)?),
        other => {
            return Err(Error::Corrupt(format!(
                "unknown hierarchy flag {other} (expected 0 or 1)"
            )))
        }
    };
    if !s.is_empty() {
        return Err(Error::Corrupt(format!(
            "{} unexpected trailing bytes after the last section",
            s.len()
        )));
    }
    Ok(Snapshot {
        graph,
        decomposition,
        hierarchy,
    })
}

/// The version-2 streaming reader: fixed frame order GRAPH, PHI,
/// optional HIERARCHY, END; each frame verified independently.
fn read_snapshot_v2<R: Read>(r: &mut R) -> Result<Snapshot> {
    let (tag, payload) = read_frame(r)?;
    if tag != TAG_GRAPH {
        return Err(Error::Corrupt(format!(
            "expected the graph section first, found the {} section (tag {tag:#04x})",
            tag_name(tag)
        )));
    }
    let mut s: &[u8] = &payload;
    let graph = parse_graph(&mut s)?;
    section_fully_consumed(s, TAG_GRAPH)?;

    let (tag, payload) = read_frame(r)?;
    if tag != TAG_PHI {
        return Err(Error::Corrupt(format!(
            "expected the phi section after the graph, found the {} section (tag {tag:#04x})",
            tag_name(tag)
        )));
    }
    let m = graph.num_edges() as usize;
    let mut s: &[u8] = &payload;
    let decomposition = Decomposition::new(r_vec_u64(&mut s, m)?);
    section_fully_consumed(s, TAG_PHI)?;

    let (tag, payload) = read_frame(r)?;
    let (hierarchy, end_tag) = match tag {
        TAG_HIERARCHY => {
            let mut s: &[u8] = &payload;
            let h = parse_hierarchy(&mut s, &graph, &decomposition)?;
            section_fully_consumed(s, TAG_HIERARCHY)?;
            let (tag, _) = read_frame(r)?;
            (Some(h), tag)
        }
        other => (None, other),
    };
    if end_tag != TAG_END {
        return Err(Error::Corrupt(format!(
            "expected the end marker, found the {} section (tag {end_tag:#04x})",
            tag_name(end_tag)
        )));
    }
    let mut probe = [0u8; 1];
    if r.read(&mut probe)? != 0 {
        return Err(Error::Corrupt(
            "unexpected trailing bytes after the end marker".into(),
        ));
    }
    Ok(Snapshot {
        graph,
        decomposition,
        hierarchy,
    })
}

/// Reads and verifies one version-2 frame, returning its tag and
/// payload. Truncation and checksum mismatches name the section.
fn read_frame<R: Read>(r: &mut R) -> Result<(u8, Vec<u8>)> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag).map_err(|e| {
        if e.kind() == ErrorKind::UnexpectedEof {
            Error::Corrupt("snapshot ends before its end marker (torn file?)".into())
        } else {
            Error::Io(e)
        }
    })?;
    let tag = tag[0];
    let len = r_u64(r)?;
    let mut payload = Vec::with_capacity((len as usize).min(PREALLOC_CAP));
    let mut chunk = vec![0u8; 64 * 1024];
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(chunk.len() as u64) as usize;
        read_fully(r, &mut chunk[..take])?;
        payload.extend_from_slice(&chunk[..take]);
        remaining -= take as u64;
    }
    let stored = r_u64(r)?;
    let mut computed = fnv1a(&[tag]);
    computed = fnv_update(computed, &len.to_le_bytes());
    computed = fnv_update(computed, &payload);
    if stored != computed {
        return Err(Error::Corrupt(format!(
            "checksum mismatch in the {} section (stored {stored:#018x}, computed \
             {computed:#018x}) — the file is damaged",
            tag_name(tag)
        )));
    }
    Ok((tag, payload))
}

/// Rejects leftover bytes after a section parser finished.
fn section_fully_consumed(rest: &[u8], tag: u8) -> Result<()> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(Error::Corrupt(format!(
            "{} unexpected trailing bytes in the {} section",
            rest.len(),
            tag_name(tag)
        )))
    }
}

/// Parses the graph section payload (shared by both format versions).
fn parse_graph(r: &mut &[u8]) -> Result<BipartiteGraph> {
    let num_upper = r_u32(r)?;
    let num_lower = r_u32(r)?;
    let m = r_u32(r)? as usize;
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(m.min(PREALLOC_CAP));
    for _ in 0..m {
        let u = r_u32(r)?;
        let v = r_u32(r)?;
        // Strictly ascending pairs ⇒ sorted, duplicate-free, and the
        // builder reproduces the writer's edge ids exactly (so φ stays
        // aligned by position).
        if pairs.last().is_some_and(|&last| last >= (u, v)) {
            return Err(Error::Corrupt(
                "edge section is not strictly ascending".into(),
            ));
        }
        pairs.push((u, v));
    }
    GraphBuilder::new()
        .with_upper(num_upper)
        .with_lower(num_lower)
        .add_edges(pairs)
        .build()
        .map_err(|e| Error::Corrupt(format!("snapshot graph is invalid: {e}")))
}

/// Parses the hierarchy section payload and cross-validates it against
/// φ (shared by both format versions).
fn parse_hierarchy(
    r: &mut &[u8],
    graph: &BipartiteGraph,
    decomposition: &Decomposition,
) -> Result<BitrussHierarchy> {
    let m = graph.num_edges() as usize;
    let n = graph.num_vertices() as usize;
    let num_levels = r_u32(r)? as usize;
    let levels = r_vec_u64(r, num_levels)?;
    let mut count_ge = Vec::with_capacity(num_levels.min(PREALLOC_CAP));
    for _ in 0..num_levels {
        count_ge.push(r_usize(r)?);
    }
    let perm = r_vec_u32(r, m)?;
    let num_nodes = r_u32(r)? as usize;
    let node_level = r_vec_u64(r, num_nodes)?;
    let node_parent = r_vec_u32(r, num_nodes)?;
    let mut node_edge_offsets = Vec::with_capacity((num_nodes + 1).min(PREALLOC_CAP));
    for _ in 0..num_nodes + 1 {
        node_edge_offsets.push(r_usize(r)?);
    }
    let node_edge_ids = r_vec_u32(r, m)?;
    let edge_node = r_vec_u32(r, m)?;
    let vertex_max_k = r_vec_u64(r, n)?;
    let h = BitrussHierarchy::from_parts(
        graph,
        levels,
        count_ge,
        perm,
        node_level,
        node_parent,
        node_edge_offsets,
        node_edge_ids,
        edge_node,
        vertex_max_k,
    )?;
    h.validate_against_phi(graph, &decomposition.phi)?;
    Ok(h)
}

/// Reads a snapshot from a file path; see [`read_snapshot`]. Errors
/// name the offending file.
pub fn read_snapshot_file<P: AsRef<Path>>(path: P) -> Result<Snapshot> {
    let path = path.as_ref();
    // Through the Vfs (not std::fs) so reads share the store's audited
    // I/O layer; read_snapshot consumes the whole stream either way.
    let bytes = StdVfs
        .read(path)
        .map_err(|e| crate::persist::store::io_ctx(path, e))?;
    read_snapshot(&bytes[..]).map_err(|e| crate::persist::store::err_ctx(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{decompose, Algorithm};

    fn sample() -> (BipartiteGraph, Decomposition, BitrussHierarchy) {
        let g = GraphBuilder::new()
            .with_upper(12)
            .with_lower(9)
            .add_edges([
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (2, 0),
                (2, 1),
                (2, 2),
                (3, 1),
                (3, 2),
            ])
            .build()
            .unwrap();
        let (d, _) = decompose(&g, Algorithm::BuPlusPlus);
        let h = BitrussHierarchy::new(&g, &d).unwrap();
        (g, d, h)
    }

    fn snapshot_bytes() -> (Vec<u8>, BipartiteGraph, Decomposition, BitrussHierarchy) {
        let (g, d, h) = sample();
        let mut buf = Vec::new();
        write_snapshot(&g, &d, Some(&h), &mut buf).unwrap();
        (buf, g, d, h)
    }

    #[test]
    fn round_trip_with_hierarchy() {
        let (buf, g, d, h) = snapshot_bytes();
        let snap = read_snapshot(buf.as_slice()).unwrap();
        assert_eq!(snap.graph.edge_pairs(), g.edge_pairs());
        assert_eq!(snap.graph.num_upper(), 12);
        assert_eq!(snap.graph.num_lower(), 9);
        assert_eq!(snap.decomposition, d);
        assert_eq!(snap.hierarchy.as_ref(), Some(&h));
    }

    #[test]
    fn round_trip_without_hierarchy() {
        let (g, d, _) = sample();
        let mut buf = Vec::new();
        write_snapshot(&g, &d, None, &mut buf).unwrap();
        let snap = read_snapshot(buf.as_slice()).unwrap();
        assert_eq!(snap.graph.edge_pairs(), g.edge_pairs());
        assert_eq!(snap.decomposition, d);
        assert!(snap.hierarchy.is_none());
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = GraphBuilder::new().build().unwrap();
        let d = Decomposition::new(vec![]);
        let h = BitrussHierarchy::new(&g, &d).unwrap();
        let mut buf = Vec::new();
        write_snapshot(&g, &d, Some(&h), &mut buf).unwrap();
        let snap = read_snapshot(buf.as_slice()).unwrap();
        assert_eq!(snap.graph.num_edges(), 0);
        assert_eq!(snap.hierarchy, Some(h));
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let (mut buf, ..) = snapshot_bytes();
        let mut wrong = buf.clone();
        wrong[0] ^= 0xff;
        let err = read_snapshot(wrong.as_slice()).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        buf[8] = 99; // version field
        let err = read_snapshot(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let (buf, ..) = snapshot_bytes();
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x01;
            assert!(
                read_snapshot(bad.as_slice()).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let (buf, ..) = snapshot_bytes();
        for len in 0..buf.len() {
            assert!(
                read_snapshot(&buf[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    /// Walks the version-2 frames of `buf`, returning
    /// `(frame_start, tag, payload_len)` per frame.
    fn frames(buf: &[u8]) -> Vec<(usize, u8, usize)> {
        let mut out = Vec::new();
        let mut pos = 12;
        while pos < buf.len() {
            let tag = buf[pos];
            let len = u64::from_le_bytes(buf[pos + 1..pos + 9].try_into().unwrap()) as usize;
            out.push((pos, tag, len));
            pos += 1 + 8 + len + 8;
        }
        out
    }

    /// Recomputes the checksum of the frame starting at `start` after a
    /// test tampered with its payload.
    fn restamp_frame(buf: &mut [u8], start: usize) {
        let tag = buf[start];
        let len = u64::from_le_bytes(buf[start + 1..start + 9].try_into().unwrap()) as usize;
        let mut h = fnv1a(&[tag]);
        h = fnv_update(h, &(len as u64).to_le_bytes());
        h = fnv_update(h, &buf[start + 9..start + 9 + len]);
        buf[start + 9 + len..start + 9 + len + 8].copy_from_slice(&h.to_le_bytes());
    }

    #[test]
    fn tampered_vertex_max_k_fails_cross_validation() {
        // A forged file can carry valid checksums (FNV is not
        // cryptographic), so the φ cross-validation must catch sections
        // the structural checks cannot: rewrite one vertex_max_k entry
        // and re-stamp its frame.
        let (mut buf, g, ..) = snapshot_bytes();
        let n = g.num_vertices() as usize;
        let (start, tag, len) = *frames(&buf)
            .iter()
            .find(|&&(_, tag, _)| tag == super::TAG_HIERARCHY)
            .unwrap();
        assert_eq!(tag, super::TAG_HIERARCHY);
        // vertex_max_k is the last field of the hierarchy payload.
        let entry = start + 9 + len - n * 8;
        buf[entry..entry + 8].copy_from_slice(&999u64.to_le_bytes());
        restamp_frame(&mut buf, start);
        let err = read_snapshot(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("max-k"), "{err}");
    }

    #[test]
    fn corruption_errors_name_the_damaged_section() {
        let (mut buf, ..) = snapshot_bytes();
        let (start, tag, len) = frames(&buf)[1];
        assert_eq!(tag, super::TAG_PHI);
        assert!(len > 0);
        buf[start + 9] ^= 0x01; // first payload byte of the phi section
        let err = read_snapshot(buf.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("phi section"),
            "error should localize the damage: {err}"
        );
    }

    #[test]
    fn torn_file_at_a_frame_boundary_is_rejected() {
        // Cutting the file exactly after the phi frame leaves a
        // structurally clean prefix — the end marker is what must make
        // it fail instead of loading as a hierarchy-less snapshot.
        let (buf, ..) = snapshot_bytes();
        let (start, tag, _) = frames(&buf)[2];
        assert_eq!(tag, super::TAG_HIERARCHY);
        let err = read_snapshot(&buf[..start]).unwrap_err();
        assert!(err.to_string().contains("end marker"), "{err}");
    }

    /// Serializes `g`/`d`/`h` in the legacy version-1 layout: one
    /// contiguous payload, a hierarchy flag byte, one whole-file FNV
    /// trailer.
    fn v1_bytes(g: &BipartiteGraph, d: &Decomposition, h: Option<&BitrussHierarchy>) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&1u32.to_le_bytes());
        let push_u32 = |buf: &mut Vec<u8>, x: u32| buf.extend_from_slice(&x.to_le_bytes());
        let push_u64 = |buf: &mut Vec<u8>, x: u64| buf.extend_from_slice(&x.to_le_bytes());
        push_u32(&mut buf, g.num_upper());
        push_u32(&mut buf, g.num_lower());
        push_u32(&mut buf, g.num_edges());
        for e in g.edges() {
            let (u, v) = g.edge(e);
            push_u32(&mut buf, g.layer_index(u));
            push_u32(&mut buf, g.layer_index(v));
        }
        for &p in &d.phi {
            push_u64(&mut buf, p);
        }
        match h {
            None => buf.push(0),
            Some(h) => {
                buf.push(1);
                push_u32(&mut buf, h.levels.len() as u32);
                for &l in &h.levels {
                    push_u64(&mut buf, l);
                }
                for &c in &h.count_ge {
                    push_u64(&mut buf, c as u64);
                }
                for &e in &h.perm {
                    push_u32(&mut buf, e);
                }
                push_u32(&mut buf, h.node_level.len() as u32);
                for &l in &h.node_level {
                    push_u64(&mut buf, l);
                }
                for &p in &h.node_parent {
                    push_u32(&mut buf, p);
                }
                for &o in &h.node_edge_offsets {
                    push_u64(&mut buf, o as u64);
                }
                for &e in &h.node_edge_ids {
                    push_u32(&mut buf, e);
                }
                for &n in &h.edge_node {
                    push_u32(&mut buf, n);
                }
                for &k in &h.vertex_max_k {
                    push_u64(&mut buf, k);
                }
            }
        }
        let hash = fnv1a(&buf);
        buf.extend_from_slice(&hash.to_le_bytes());
        buf
    }

    #[test]
    fn version_1_files_still_load() {
        let (g, d, h) = sample();
        for with_h in [false, true] {
            let buf = v1_bytes(&g, &d, with_h.then_some(&h));
            let snap = read_snapshot(buf.as_slice()).unwrap();
            assert_eq!(snap.graph.edge_pairs(), g.edge_pairs());
            assert_eq!(snap.decomposition, d);
            assert_eq!(snap.hierarchy.is_some(), with_h);
            if with_h {
                assert_eq!(snap.hierarchy, Some(h.clone()));
            }
        }
    }

    #[test]
    fn version_1_byte_flips_and_truncations_are_detected() {
        let (g, d, h) = sample();
        let buf = v1_bytes(&g, &d, Some(&h));
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x01;
            assert!(
                read_snapshot(bad.as_slice()).is_err(),
                "v1 flip at byte {i} went undetected"
            );
        }
        for len in 0..buf.len() {
            assert!(
                read_snapshot(&buf[..len]).is_err(),
                "v1 truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn mismatched_inputs_are_invariant_errors() {
        let (g, _, h) = sample();
        let short = Decomposition::new(vec![0]);
        let mut buf = Vec::new();
        assert!(matches!(
            write_snapshot(&g, &short, None, &mut buf),
            Err(Error::Invariant(_))
        ));
        let g2 = GraphBuilder::new().add_edge(0, 0).build().unwrap();
        let d2 = Decomposition::new(vec![0]);
        assert!(matches!(
            write_snapshot(&g2, &d2, Some(&h), &mut buf),
            Err(Error::Invariant(_))
        ));
    }
}
