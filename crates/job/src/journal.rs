//! The `dq-job v1` journal: the single commit record of a
//! checkpointed job.
//!
//! A journal is a small text file describing exactly how far a
//! streaming job got, written atomically at chunk-commit boundaries
//! (see [`crate::CheckpointDir`]). Grammar, line by line, in order:
//!
//! ```text
//! dq-job v1
//! kind <generate|pollute|detect>
//! config <hex16>                     FNV-1a of the canonical config text
//! schema <hex16>                     schema fingerprint
//! state <running|done>
//! cursor rows <n>                    rows consumed from the primary stream
//! rng <hex16> <hex16> <hex16> <hex16>  optional: xoshiro256++ state words
//! counter <name> <n>                 zero or more named counters
//! output <name> bytes <n>            zero or more committed byte
//!                                      watermarks, one per output file
//! checksum <hex16>                   FNV-1a over every preceding byte
//! ```
//!
//! `<hex16>` is sixteen lowercase hex digits. The trailing `checksum`
//! line covers every byte before it, so a journal torn mid-write —
//! truncated, or with a stale tail — parses to a typed
//! [`JobError::Torn`], never to a silently wrong resume point. The
//! `config` and `schema` fingerprints are the mutation guard: a resume
//! attempt with different flags, seed, or schema is refused with
//! [`JobError::Mismatch`] instead of splicing two different streams
//! into one output file.

use crate::error::JobError;

/// FNV-1a 64-bit — the workspace's canonical content fingerprint (the
/// same fold `Schema::fingerprint` uses), applied here to journal
/// bytes and canonical config text.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A committed watermark of one output: how much of it the journal
/// vouches for. Anything beyond the watermark was written by a crashed
/// incarnation after its last commit and is truncated on resume.
/// Bytes are the one unit: every output is a flat file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Watermark {
    /// Committed length of a flat file (a CSV output), in bytes.
    Bytes(u64),
}

/// One parsed (or about-to-be-saved) `dq-job v1` journal. See the
/// module docs for the grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Journal {
    /// Which pipeline stage this job runs (`generate`, `pollute`,
    /// `detect`).
    pub kind: String,
    /// FNV-1a fingerprint of the canonical config text (flags, seed,
    /// paths — everything that shapes the output bytes).
    pub config: u64,
    /// Fingerprint of the relation schema the job runs over.
    pub schema: u64,
    /// `true` once the job has fully committed its outputs; resuming a
    /// done job is a no-op.
    pub done: bool,
    /// Rows consumed from the primary stream at the last commit (clean
    /// rows for generate/pollute, input rows for detect).
    pub cursor_rows: u64,
    /// Serialized pollution-RNG state at the cursor, when the job owns
    /// a sequential RNG (pollute stages).
    pub rng: Option<[u64; 4]>,
    /// Named counters in save order (dirty rows, log cells written,
    /// findings committed, …).
    pub counters: Vec<(String, u64)>,
    /// Per-output committed watermarks in save order.
    pub outputs: Vec<(String, Watermark)>,
}

impl Journal {
    /// A fresh `running` journal at cursor zero.
    pub fn new(kind: &str, config: u64, schema: u64) -> Self {
        Journal {
            kind: kind.to_string(),
            config,
            schema,
            done: false,
            cursor_rows: 0,
            rng: None,
            counters: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Look up a named counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Set (or add) a named counter.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some(entry) => entry.1 = value,
            None => self.counters.push((name.to_string(), value)),
        }
    }

    /// Look up an output watermark.
    pub fn output(&self, name: &str) -> Option<Watermark> {
        self.outputs.iter().find(|(n, _)| n == name).map(|&(_, w)| w)
    }

    /// Set (or add) an output watermark.
    pub fn set_output(&mut self, name: &str, watermark: Watermark) {
        match self.outputs.iter_mut().find(|(n, _)| n == name) {
            Some(entry) => entry.1 = watermark,
            None => self.outputs.push((name.to_string(), watermark)),
        }
    }

    /// Refuse to resume under a mutated identity: the journaled kind,
    /// config fingerprint, and schema fingerprint must all match what
    /// the resuming invocation derived from its own flags.
    pub fn validate(&self, kind: &str, config: u64, schema: u64) -> Result<(), JobError> {
        if self.kind != kind {
            return Err(JobError::KindMismatch {
                expected: kind.to_string(),
                got: self.kind.clone(),
            });
        }
        if self.config != config {
            return Err(JobError::Mismatch { what: "config", expected: config, got: self.config });
        }
        if self.schema != schema {
            return Err(JobError::Mismatch { what: "schema", expected: schema, got: self.schema });
        }
        Ok(())
    }

    /// Render the journal as `dq-job v1` text, checksum line included.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("dq-job v1\n");
        let _ = writeln!(out, "kind {}", self.kind);
        let _ = writeln!(out, "config {:016x}", self.config);
        let _ = writeln!(out, "schema {:016x}", self.schema);
        let _ = writeln!(out, "state {}", if self.done { "done" } else { "running" });
        let _ = writeln!(out, "cursor rows {}", self.cursor_rows);
        if let Some(s) = self.rng {
            let _ = writeln!(out, "rng {:016x} {:016x} {:016x} {:016x}", s[0], s[1], s[2], s[3]);
        }
        for (name, value) in &self.counters {
            let _ = writeln!(out, "counter {name} {value}");
        }
        for (name, Watermark::Bytes(n)) in &self.outputs {
            let _ = writeln!(out, "output {name} bytes {n}");
        }
        let _ = writeln!(out, "checksum {:016x}", fnv1a(out.as_bytes()));
        out
    }

    /// Parse `dq-job v1` text. The checksum is verified **first**: a
    /// journal whose trailing checksum line is absent, malformed, or
    /// disagrees with the preceding bytes is [`JobError::Torn`] — the
    /// loud refusal that keeps a torn commit from ever looking like a
    /// smaller (or zero) resume point. `path` only labels errors.
    pub fn parse(text: &str, path: &str) -> Result<Self, JobError> {
        let torn = |detail: String| JobError::Torn { path: path.to_string(), detail };

        if !text.ends_with('\n') {
            return Err(torn("missing trailing newline".into()));
        }
        // Checksum gate: the last line must be `checksum <hex16>` and
        // must cover everything before it.
        let body_end = text
            .rfind("checksum ")
            .filter(|&at| at == 0 || text.as_bytes()[at - 1] == b'\n')
            .ok_or_else(|| torn("no trailing checksum line".into()))?;
        let checksum_line = text[body_end..].trim_end_matches('\n');
        if text[body_end..].matches('\n').count() > 1 {
            return Err(torn("bytes after the checksum line".into()));
        }
        let declared = checksum_line
            .strip_prefix("checksum ")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| torn(format!("malformed checksum line `{checksum_line}`")))?;
        let actual = fnv1a(&text.as_bytes()[..body_end]);
        if declared != actual {
            return Err(torn(format!(
                "checksum mismatch: declared {declared:016x}, content hashes to {actual:016x}"
            )));
        }

        let mut lines = text[..body_end].lines();
        if lines.next() != Some("dq-job v1") {
            return Err(torn("missing `dq-job v1` header".into()));
        }
        let mut field = |name: &str| -> Result<String, JobError> {
            let line = lines.next().unwrap_or("");
            line.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| torn(format!("line `{line}` is not `{name} …`")))
        };
        let kind = field("kind")?;
        let hex = |v: String, what: &str| {
            u64::from_str_radix(&v, 16)
                .map_err(|e| torn(format!("bad {what} fingerprint `{v}`: {e}")))
        };
        let config = hex(field("config")?, "config")?;
        let schema = hex(field("schema")?, "schema")?;
        let done = match field("state")?.as_str() {
            "running" => false,
            "done" => true,
            other => return Err(torn(format!("unknown state `{other}`"))),
        };
        let cursor_rows =
            field("cursor rows")?.parse::<u64>().map_err(|e| torn(format!("bad cursor: {e}")))?;

        let mut rng = None;
        let mut counters = Vec::new();
        let mut outputs = Vec::new();
        for line in lines {
            if let Some(words) = line.strip_prefix("rng ") {
                let parts: Vec<u64> = words
                    .split(' ')
                    .map(|w| u64::from_str_radix(w, 16))
                    .collect::<Result<_, _>>()
                    .map_err(|e| torn(format!("bad rng word in `{line}`: {e}")))?;
                let s: [u64; 4] = parts
                    .try_into()
                    .map_err(|_| torn(format!("rng line needs 4 words: `{line}`")))?;
                rng = Some(s);
            } else if let Some(rest) = line.strip_prefix("counter ") {
                let (name, value) = rest
                    .rsplit_once(' ')
                    .ok_or_else(|| torn(format!("malformed counter line `{line}`")))?;
                let value = value.parse::<u64>().map_err(|e| torn(format!("bad counter: {e}")))?;
                counters.push((name.to_string(), value));
            } else if let Some(rest) = line.strip_prefix("output ") {
                let mut words = rest.rsplitn(3, ' ');
                let value = words.next().unwrap_or("");
                let unit = words.next().unwrap_or("");
                let name = words.next().unwrap_or("");
                let value =
                    value.parse::<u64>().map_err(|e| torn(format!("bad watermark: {e}")))?;
                let watermark = match unit {
                    "bytes" => Watermark::Bytes(value),
                    other => return Err(torn(format!("unknown watermark unit `{other}`"))),
                };
                if name.is_empty() {
                    return Err(torn(format!("malformed output line `{line}`")));
                }
                outputs.push((name.to_string(), watermark));
            } else {
                return Err(torn(format!("unrecognized journal line `{line}`")));
            }
        }
        Ok(Journal { kind, config, schema, done, cursor_rows, rng, counters, outputs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> Journal {
        let mut j = Journal::new("generate", 0xdead_beef_0123_4567, 0x0123_4567_89ab_cdef);
        j.cursor_rows = 123_456;
        j.rng = Some([1, 2, u64::MAX, 0xabc]);
        j.set_counter("dirty_rows", 123_700);
        j.set_counter("log_cells", 991);
        j.set_output("clean.csv", Watermark::Bytes(4_200_000));
        j.set_output("dirty.csv", Watermark::Bytes(4_210_333));
        j.set_output("pollution-log.csv", Watermark::Bytes(30));
        j
    }

    #[test]
    fn render_parse_round_trip() {
        let j = fixture();
        let text = j.render();
        assert!(text.starts_with("dq-job v1\n"), "{text}");
        let back = Journal::parse(&text, "job.dqj").unwrap();
        assert_eq!(back, j);

        // Done state and absent rng round-trip too.
        let mut j = fixture();
        j.done = true;
        j.rng = None;
        assert_eq!(Journal::parse(&j.render(), "job.dqj").unwrap(), j);
    }

    #[test]
    fn accessors_update_in_place() {
        let mut j = fixture();
        assert_eq!(j.counter("dirty_rows"), Some(123_700));
        assert_eq!(j.counter("absent"), None);
        j.set_counter("dirty_rows", 5);
        assert_eq!(j.counter("dirty_rows"), Some(5));
        assert_eq!(j.output("pollution-log.csv"), Some(Watermark::Bytes(30)));
        j.set_output("pollution-log.csv", Watermark::Bytes(31));
        assert_eq!(j.output("pollution-log.csv"), Some(Watermark::Bytes(31)));
        assert_eq!(j.counters.len(), 2, "set replaces, never duplicates");
        assert_eq!(j.outputs.len(), 3);
    }

    #[test]
    fn every_truncation_is_torn_never_a_smaller_journal() {
        let text = fixture().render();
        for cut in 0..text.len() {
            let err = Journal::parse(&text[..cut], "job.dqj").unwrap_err();
            assert!(matches!(err, JobError::Torn { .. }), "cut at {cut} must be Torn, got {err:?}");
        }
    }

    #[test]
    fn flipped_bytes_are_torn() {
        let text = fixture().render();
        // Flip one character somewhere in the body.
        let mut bad = text.clone().into_bytes();
        bad[20] = bad[20].wrapping_add(1);
        let bad = String::from_utf8(bad).unwrap();
        assert!(matches!(Journal::parse(&bad, "j"), Err(JobError::Torn { .. })));
        // Appending after the checksum is torn too.
        let appended = format!("{text}output x bytes 1\n");
        assert!(matches!(Journal::parse(&appended, "j"), Err(JobError::Torn { .. })));
    }

    #[test]
    fn unknown_watermark_units_are_torn() {
        // `pages` was the unit of a removed page-directory output; a
        // journal still carrying it is refused, never half-resumed.
        for unit in ["pages", "rows", ""] {
            let mut text = fixture().render();
            let body = text.rfind("checksum ").unwrap();
            text.truncate(body);
            text.push_str(&format!("output dirty.pages {unit} 3\n"));
            let text = format!("{text}checksum {:016x}\n", fnv1a(text.as_bytes()));
            match Journal::parse(&text, "job.dqj") {
                Err(JobError::Torn { detail, .. }) => assert!(
                    detail.contains(&format!("unknown watermark unit `{unit}`")),
                    "unit `{unit}`: {detail}"
                ),
                other => panic!("unit `{unit}` must be Torn, got {other:?}"),
            }
        }
    }

    #[test]
    fn validate_refuses_mutated_identity() {
        let j = fixture();
        j.validate("generate", j.config, j.schema).unwrap();
        assert!(matches!(
            j.validate("detect", j.config, j.schema),
            Err(JobError::KindMismatch { .. })
        ));
        assert!(matches!(
            j.validate("generate", j.config ^ 1, j.schema),
            Err(JobError::Mismatch { what: "config", .. })
        ));
        assert!(matches!(
            j.validate("generate", j.config, j.schema ^ 1),
            Err(JobError::Mismatch { what: "schema", .. })
        ));
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
