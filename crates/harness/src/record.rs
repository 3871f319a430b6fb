//! JSONL run records: the payload carried inside each spool frame.
//!
//! Every completed run is one flat JSON object holding the run's identity
//! (`index`, `id`), the engine's timing metadata, and the exact integer
//! moments of its statistics: every [`STATS`] row under its name (the
//! latency accumulators as their raw parts under the `ml`/`cml`
//! prefixes), plus the latency histogram. Floating-point fields
//! (`NocStats::energy`, `RunStats::snoop_energy`) are stored as their
//! IEEE-754 bit patterns so the round trip is bit-exact.
//!
//! The codec is deliberately tiny and dependency-free: values are
//! unsigned integers (up to `u128`), strings, or arrays of unsigned
//! integers — exactly what [`spcp_system::RunStats`] needs. Unknown keys
//! are ignored on decode so the format can grow fields without breaking
//! old readers.
//!
//! Heavy optional payloads (`comm_matrix`, `epoch_records`, `pc_volumes`,
//! traces) do **not** travel through the spool; streamed sweeps reject
//! recording matrices up front.

use std::collections::HashMap;
use std::time::Duration;

use spcp_sim::{Histogram, MeanAccumulator};
use spcp_system::metrics::{StatField, STATS};
use spcp_system::RunStats;

/// Spool format version stamped into every record and shard header.
pub const RECORD_VERSION: u64 = 1;

/// One completed run as it travels through a spool file.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Position in the canonical matrix ordering (`RunSpec::index`).
    pub index: usize,
    /// The run's `RunSpec::id()` string, the resume key.
    pub id: String,
    /// Wall-clock time of the run (timing metadata, never compared).
    pub wall: Duration,
    /// Worker slot that executed the run (informational only).
    pub worker: usize,
    /// The reconstructed statistics.
    pub stats: RunStats,
}

// ---------------------------------------------------------------- JSON

/// A JSON value as used by spool records.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    Num(u128),
    Str(String),
    Arr(Vec<u128>),
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Incremental writer for one flat JSON object.
#[derive(Debug, Default)]
struct ObjWriter {
    buf: String,
}

impl ObjWriter {
    fn new() -> Self {
        ObjWriter {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        push_json_str(&mut self.buf, key);
        self.buf.push(':');
    }

    fn num(&mut self, key: &str, v: u128) {
        self.key(key);
        self.buf.push_str(&v.to_string());
    }

    fn str(&mut self, key: &str, v: &str) {
        self.key(key);
        push_json_str(&mut self.buf, v);
    }

    fn arr(&mut self, key: &str, vs: impl IntoIterator<Item = u128>) {
        self.key(key);
        self.buf.push('[');
        for (i, v) in vs.into_iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push_str(&v.to_string());
        }
        self.buf.push(']');
    }

    fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Parses one flat JSON object of the record subset.
fn parse_object(s: &str) -> Result<HashMap<String, Val>, String> {
    let mut p = Parser {
        src: s,
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let map = p.object()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(map)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t'))
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn object(&mut self) -> Result<HashMap<String, Val>, String> {
        self.expect(b'{')?;
        let mut map = HashMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(map);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(map);
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn value(&mut self) -> Result<Val, String> {
        match self.peek() {
            Some(b'"') => Ok(Val::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'0'..=b'9') => Ok(Val::Num(self.number()?)),
            _ => Err(format!("unexpected value at offset {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Val, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Val::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.number()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Val::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<u128, String> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected digits at offset {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse()
            .map_err(|_| format!("integer overflow at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.pos += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar: `pos` only ever advances
                    // by whole scalars, so it sits on a char boundary.
                    let c = self
                        .src
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or("string offset off a char boundary")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

// ----------------------------------------------------- record en/decode

fn get_num(map: &HashMap<String, Val>, key: &str) -> Result<u128, String> {
    match map.get(key) {
        Some(Val::Num(n)) => Ok(*n),
        Some(_) => Err(format!("field '{key}' is not a number")),
        None => Err(format!("missing field '{key}'")),
    }
}

fn get_u64(map: &HashMap<String, Val>, key: &str) -> Result<u64, String> {
    u64::try_from(get_num(map, key)?).map_err(|_| format!("field '{key}' exceeds u64"))
}

fn get_str(map: &HashMap<String, Val>, key: &str) -> Result<String, String> {
    match map.get(key) {
        Some(Val::Str(s)) => Ok(s.clone()),
        Some(_) => Err(format!("field '{key}' is not a string")),
        None => Err(format!("missing field '{key}'")),
    }
}

fn get_arr_u64(map: &HashMap<String, Val>, key: &str) -> Result<Vec<u64>, String> {
    match map.get(key) {
        Some(Val::Arr(vs)) => vs
            .iter()
            .map(|&v| u64::try_from(v).map_err(|_| format!("field '{key}' exceeds u64")))
            .collect(),
        Some(_) => Err(format!("field '{key}' is not an array")),
        None => Err(format!("missing field '{key}'")),
    }
}

fn write_mean(w: &mut ObjWriter, prefix: &str, m: &MeanAccumulator) {
    w.num(&format!("{prefix}_sum"), m.sum());
    w.num(&format!("{prefix}_count"), m.count() as u128);
    w.num(&format!("{prefix}_min"), m.raw_min() as u128);
    w.num(&format!("{prefix}_max"), m.raw_max() as u128);
}

fn read_mean(map: &HashMap<String, Val>, prefix: &str) -> Result<MeanAccumulator, String> {
    Ok(MeanAccumulator::from_parts(
        get_num(map, &format!("{prefix}_sum"))?,
        get_u64(map, &format!("{prefix}_count"))?,
        get_u64(map, &format!("{prefix}_min"))?,
        get_u64(map, &format!("{prefix}_max"))?,
    ))
}

/// Encodes a run record as one flat JSON object (the frame payload).
pub fn encode_record(rec: &RunRecord) -> String {
    let mut w = ObjWriter::new();
    w.str("kind", "run");
    w.num("v", RECORD_VERSION as u128);
    w.num("index", rec.index as u128);
    w.str("id", &rec.id);
    w.num("wall_ns", rec.wall.as_nanos());
    w.num("worker", rec.worker as u128);
    let s = &rec.stats;
    w.str("benchmark", &s.benchmark);
    w.str("protocol", &s.protocol);
    for stat in STATS {
        match stat.field {
            StatField::Count(get, _) => w.num(stat.name, get(s) as u128),
            StatField::Mean(get, _, prefix) => write_mean(&mut w, prefix, get(s)),
        }
    }
    w.arr(
        "hist_bounds",
        s.miss_latency_hist.bounds().iter().map(|&b| b as u128),
    );
    w.arr(
        "hist_counts",
        s.miss_latency_hist
            .bucket_counts()
            .iter()
            .map(|&c| c as u128),
    );
    w.num("noc_energy_bits", s.noc.energy.to_bits() as u128);
    w.num("snoop_energy_bits", s.snoop_energy.to_bits() as u128);
    w.finish()
}

/// Decodes a frame payload back into a [`RunRecord`].
///
/// Heavy optional payloads (communication matrix, epoch records, traces)
/// are not spooled, so the reconstructed `RunStats` carries their empty
/// defaults; every summary/golden/report field round-trips bit-exactly.
pub fn decode_record(payload: &str) -> Result<RunRecord, String> {
    let map = parse_object(payload)?;
    if get_str(&map, "kind")? != "run" {
        return Err("not a run record".into());
    }
    let v = get_u64(&map, "v")?;
    if v != RECORD_VERSION {
        return Err(format!("unsupported record version {v}"));
    }
    let mut stats = RunStats {
        benchmark: get_str(&map, "benchmark")?,
        protocol: get_str(&map, "protocol")?,
        ..RunStats::default()
    };
    for stat in STATS {
        match stat.field {
            StatField::Count(_, set) => set(&mut stats, get_u64(&map, stat.name)?),
            StatField::Mean(_, get_mut, prefix) => *get_mut(&mut stats) = read_mean(&map, prefix)?,
        }
    }
    let bounds = get_arr_u64(&map, "hist_bounds")?;
    let counts = get_arr_u64(&map, "hist_counts")?;
    if counts.len() != bounds.len() + 1 || !bounds.windows(2).all(|w| w[0] < w[1]) {
        return Err("malformed latency histogram".into());
    }
    stats.miss_latency_hist = Histogram::from_parts(&bounds, &counts);
    stats.noc.energy = f64::from_bits(get_u64(&map, "noc_energy_bits")?);
    stats.snoop_energy = f64::from_bits(get_u64(&map, "snoop_energy_bits")?);
    Ok(RunRecord {
        index: get_u64(&map, "index")? as usize,
        id: get_str(&map, "id")?,
        wall: Duration::from_nanos(get_u64(&map, "wall_ns")?),
        worker: get_u64(&map, "worker")? as usize,
        stats,
    })
}

/// The header record opening every shard file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHeader {
    /// Format version.
    pub version: u64,
    /// Fingerprint of the matrix the shard belongs to.
    pub fingerprint: u64,
    /// Total number of runs in the matrix (all shards together).
    pub specs: u64,
}

/// Encodes a shard header payload.
pub fn encode_header(h: &ShardHeader) -> String {
    let mut w = ObjWriter::new();
    w.str("kind", "shard");
    w.num("v", h.version as u128);
    w.num("fingerprint", h.fingerprint as u128);
    w.num("specs", h.specs as u128);
    w.finish()
}

/// Decodes a shard header payload.
pub fn decode_header(payload: &str) -> Result<ShardHeader, String> {
    let map = parse_object(payload)?;
    if get_str(&map, "kind")? != "shard" {
        return Err("not a shard header".into());
    }
    Ok(ShardHeader {
        version: get_u64(&map, "v")?,
        fingerprint: get_u64(&map, "fingerprint")?,
        specs: get_u64(&map, "specs")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> RunRecord {
        let mut stats = RunStats {
            benchmark: "fft".to_string(),
            protocol: "Directory (MESIF)".to_string(),
            total_ops: 123_456,
            exec_cycles: 987_654,
            l2_misses: 3210,
            comm_misses: 2100,
            noncomm_misses: 1110,
            ..RunStats::default()
        };
        stats.miss_latency.record(17);
        stats.miss_latency.record(250);
        stats.comm_miss_latency.record(250);
        stats.miss_latency_hist.record(17);
        stats.miss_latency_hist.record(250);
        stats.noc.messages = 5;
        stats.noc.byte_hops = 4096;
        stats.noc.energy = 1234.5678;
        stats.snoop_energy = 0.125;
        RunRecord {
            index: 7,
            id: "fft/dir/seed7/paper16".to_string(),
            wall: Duration::from_nanos(123_456_789),
            worker: 3,
            stats,
        }
    }

    #[test]
    fn record_round_trips_bit_exactly() {
        let rec = sample_record();
        let payload = encode_record(&rec);
        assert!(!payload.contains('\n'));
        let back = decode_record(&payload).unwrap();
        assert_eq!(back.index, rec.index);
        assert_eq!(back.id, rec.id);
        assert_eq!(back.wall, rec.wall);
        assert_eq!(back.worker, rec.worker);
        assert_eq!(back.stats, rec.stats);
        assert_eq!(back.stats.snoop_energy.to_bits(), 0.125f64.to_bits());
        // And the re-encoding is byte-identical (canonical field order).
        assert_eq!(encode_record(&back), payload);
    }

    #[test]
    fn decode_rejects_missing_fields() {
        let err = decode_record(r#"{"kind":"run","v":1}"#).unwrap_err();
        assert!(err.contains("missing field"), "{err}");
    }

    #[test]
    fn decode_rejects_wrong_kind_and_version() {
        let rec = sample_record();
        let payload = encode_record(&rec);
        let other = payload.replace(r#""kind":"run""#, r#""kind":"walk""#);
        assert!(decode_record(&other).is_err());
        let other = payload.replace(r#""v":1"#, r#""v":999"#);
        assert!(decode_record(&other).unwrap_err().contains("version"));
    }

    #[test]
    fn strings_with_specials_round_trip() {
        let mut rec = sample_record();
        rec.id = "weird\"id\\with\tchars".to_string();
        rec.stats.benchmark = "bench\u{1}name".to_string();
        let back = decode_record(&encode_record(&rec)).unwrap();
        assert_eq!(back.id, rec.id);
        assert_eq!(back.stats.benchmark, rec.stats.benchmark);
    }

    #[test]
    fn wall_time_beyond_u64_is_an_error() {
        let payload = encode_record(&sample_record()).replace(
            r#""wall_ns":123456789"#,
            &format!(r#""wall_ns":{}"#, u64::MAX as u128 + 1),
        );
        let err = decode_record(&payload).unwrap_err();
        assert_eq!(err, "field 'wall_ns' exceeds u64");
    }

    #[test]
    fn non_ascii_strings_round_trip() {
        let mut rec = sample_record();
        rec.id = "fft/σπ/seed7/€🦀".to_string();
        rec.stats.protocol = "predicted-SP ✓".to_string();
        let back = decode_record(&encode_record(&rec)).unwrap();
        assert_eq!(back.id, rec.id);
        assert_eq!(back.stats.protocol, rec.stats.protocol);
        assert_eq!(
            parse_object(r#"{"k":"aé\u00e9b"}"#).unwrap().get("k"),
            Some(&Val::Str("aééb".to_string()))
        );
    }

    #[test]
    fn header_round_trips() {
        let h = ShardHeader {
            version: RECORD_VERSION,
            fingerprint: 0xdead_beef_cafe_f00d,
            specs: 40,
        };
        assert_eq!(decode_header(&encode_header(&h)).unwrap(), h);
        assert!(decode_header(r#"{"kind":"run","v":1}"#).is_err());
    }

    #[test]
    fn parser_rejects_malformed_objects() {
        assert!(parse_object("").is_err());
        assert!(parse_object("{").is_err());
        assert!(parse_object(r#"{"a":}"#).is_err());
        assert!(parse_object(r#"{"a":1,}"#).is_err());
        assert!(parse_object(r#"{"a":1} trailing"#).is_err());
        assert!(parse_object(r#"{"a":[1,]}"#).is_err());
        assert!(parse_object(r#"{"a":"unterminated}"#).is_err());
    }

    #[test]
    fn parser_accepts_empty_object_and_array() {
        assert!(parse_object("{}").unwrap().is_empty());
        let map = parse_object(r#"{"a":[]}"#).unwrap();
        assert_eq!(map.get("a"), Some(&Val::Arr(Vec::new())));
    }
}
