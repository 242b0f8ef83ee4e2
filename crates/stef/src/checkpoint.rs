//! Checkpoint/resume for long CPD-ALS runs.
//!
//! Decomposing a billion-non-zero tensor takes hours; a crash at
//! iteration 40 of 50 should not cost the whole run. The driver
//! serializes its complete ALS state — factors, `λ`, fit history,
//! iteration count, RNG seed, and engine identity — every `N` iterations
//! so an interrupted run can restart exactly where it stopped.
//!
//! # Format
//!
//! A line-oriented text file. Every `f64` is stored as the 16-hex-digit
//! big-endian bit pattern (`f64::to_bits`), so the round trip is *exact*:
//! a resumed run replays the identical floating-point trajectory of an
//! uninterrupted one. The file ends with an FNV-64 checksum of everything
//! before it, and saves go through a `.tmp` + rename so a crash mid-write
//! can never destroy the previous good checkpoint.

use linalg::Mat;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Current on-disk format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Endianness tag written into checkpoint/journal headers. The formats
/// are text (floats as big-endian hex bit patterns), so `be` is the only
/// tag this implementation ever produces or accepts; the token exists so
/// a hypothetical binary sibling format written on a different
/// convention is rejected with a typed [`CheckpointError::Version`]
/// instead of a checksum mismatch masquerading as corruption.
pub const CHECKPOINT_ENDIANNESS: &str = "be";

/// Why a checkpoint could not be saved or loaded.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file is truncated, checksum-mismatched, or malformed.
    Corrupt { reason: String },
    /// The file is valid but does not match the requested run (wrong
    /// dims or rank).
    Mismatch { reason: String },
    /// The file declares a future format version or a foreign
    /// endianness. Detected from the header *before* checksum
    /// verification, so a file this build cannot read reports *why*
    /// instead of a misleading checksum mismatch.
    Version {
        /// Version the file declares.
        found: u32,
        /// Newest version this build reads.
        supported: u32,
        /// Human-readable specifics (e.g. the offending endianness tag).
        detail: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt { reason } => write!(f, "corrupt checkpoint: {reason}"),
            CheckpointError::Mismatch { reason } => {
                write!(f, "checkpoint does not match this run: {reason}")
            }
            CheckpointError::Version {
                found,
                supported,
                detail,
            } => write!(
                f,
                "unreadable format version: file declares v{found}, this build reads up to v{supported} ({detail})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// When and where the CPD driver writes checkpoints.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Target file; the atomic save uses `<path>.tmp` as scratch.
    pub path: PathBuf,
    /// Write after every `every` completed iterations (0 disables).
    pub every: usize,
}

impl CheckpointPolicy {
    /// Checkpoint to `path` every `every` iterations.
    pub fn new(path: impl Into<PathBuf>, every: usize) -> Self {
        CheckpointPolicy {
            path: path.into(),
            every,
        }
    }
}

/// A complete snapshot of CPD-ALS state after some iteration.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Format version (see [`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Completed iterations at snapshot time.
    pub iteration: usize,
    /// The run's factor-initialization seed (recovery reinits derive
    /// fresh seeds from it, so it is part of the state).
    pub seed: u64,
    /// Decomposition rank.
    pub rank: usize,
    /// Original mode lengths.
    pub dims: Vec<usize>,
    /// Engine name the snapshot was taken under (informational; any
    /// engine over the same tensor can resume, at possibly different
    /// floating-point trajectories).
    pub engine: String,
    /// Component weights.
    pub lambda: Vec<f64>,
    /// Fit after each completed iteration.
    pub fits: Vec<f64>,
    /// Factor matrices in original mode order.
    pub factors: Vec<Mat>,
}

pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

pub(crate) fn hex_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Parses a `<magic> v<N>[ <endianness>]` header line shared by the
/// checkpoint and the job-journal formats. Returns the declared version,
/// or a typed error: [`CheckpointError::Version`] for a future version
/// or a foreign endianness (checked *before* any checksum, so those
/// files fail with the real reason), [`CheckpointError::Corrupt`] for a
/// line that is not a header at all.
pub(crate) fn parse_versioned_header(
    line: &str,
    magic: &str,
    supported: u32,
) -> Result<u32, CheckpointError> {
    let rest = line.strip_prefix(magic).and_then(|r| r.strip_prefix(" v")).ok_or_else(|| {
        CheckpointError::Corrupt {
            reason: format!("missing '{magic} v<N>' header"),
        }
    })?;
    let (ver_tok, endian_tok) = match rest.split_once(' ') {
        Some((v, e)) => (v, Some(e.trim())),
        None => (rest, None),
    };
    let found: u32 = ver_tok.parse().map_err(|_| CheckpointError::Corrupt {
        reason: format!("bad version token '{ver_tok}' in '{magic}' header"),
    })?;
    if found > supported {
        return Err(CheckpointError::Version {
            found,
            supported,
            detail: "written by a newer build".into(),
        });
    }
    // Files from the pre-endianness-tag era carry no token; they are
    // all this implementation's own big-endian-hex text format.
    if let Some(endian) = endian_tok {
        if endian != CHECKPOINT_ENDIANNESS {
            return Err(CheckpointError::Version {
                found,
                supported,
                detail: format!(
                    "endianness tag '{endian}', this build reads '{CHECKPOINT_ENDIANNESS}'"
                ),
            });
        }
    }
    Ok(found)
}

pub(crate) fn parse_f64(tok: &str, what: &str) -> Result<f64, CheckpointError> {
    let bits = u64::from_str_radix(tok, 16).map_err(|_| CheckpointError::Corrupt {
        reason: format!("bad {what} float '{tok}'"),
    })?;
    Ok(f64::from_bits(bits))
}

/// Replaces `path` with `bytes` atomically and durably, for checkpoints
/// and journal compaction alike: writes and fsyncs `tmp`, renames it
/// over `path`, then fsyncs the directory so the rename itself survives
/// a crash.
pub(crate) fn replace_file(path: &Path, tmp: &Path, bytes: &[u8]) -> std::io::Result<()> {
    {
        let mut file = std::fs::File::create(tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(tmp, path)?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

fn parse_usize(tok: &str, what: &str) -> Result<usize, CheckpointError> {
    tok.parse().map_err(|_| CheckpointError::Corrupt {
        reason: format!("bad {what} '{tok}'"),
    })
}

impl Checkpoint {
    /// Serializes to the text format (including the trailing checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = String::new();
        body.push_str(&format!(
            "stef-checkpoint v{} {}\n",
            self.version, CHECKPOINT_ENDIANNESS
        ));
        body.push_str(&format!("iteration {}\n", self.iteration));
        body.push_str(&format!("seed {}\n", self.seed));
        body.push_str(&format!("rank {}\n", self.rank));
        body.push_str("dims");
        for &d in &self.dims {
            body.push_str(&format!(" {d}"));
        }
        body.push('\n');
        body.push_str(&format!("engine {}\n", self.engine));
        body.push_str("lambda");
        for &l in &self.lambda {
            body.push_str(&format!(" {}", hex_f64(l)));
        }
        body.push('\n');
        body.push_str("fits");
        for &f in &self.fits {
            body.push_str(&format!(" {}", hex_f64(f)));
        }
        body.push('\n');
        for (m, f) in self.factors.iter().enumerate() {
            body.push_str(&format!("factor {m} {} {}\n", f.rows(), f.cols()));
            for i in 0..f.rows() {
                let row: Vec<String> = f.row(i).iter().map(|&v| hex_f64(v)).collect();
                body.push_str(&row.join(" "));
                body.push('\n');
            }
        }
        body.push_str(&format!("checksum {:016x}\n", fnv64(body.as_bytes())));
        body.into_bytes()
    }

    /// Atomic, durable save through `<path>.tmp` (see [`replace_file`]).
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        replace_file(path, &path.with_extension("tmp"), &self.to_bytes())?;
        Ok(())
    }

    /// Parses the text format, verifying the checksum and internal
    /// consistency (factor shapes vs dims and rank).
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let text = std::str::from_utf8(bytes).map_err(|_| CheckpointError::Corrupt {
            reason: "not UTF-8".into(),
        })?;
        // Validate the version header *before* the checksum: a file this
        // build cannot read must report the real reason, not a checksum
        // mismatch (a v2 file legitimately checksums differently).
        let first = text.lines().next().ok_or(CheckpointError::Corrupt {
            reason: "empty file".into(),
        })?;
        let version = parse_versioned_header(first, "stef-checkpoint", CHECKPOINT_VERSION)?;
        // Split off and verify the checksum line.
        let trimmed = text.trim_end_matches('\n');
        let (body_end, checksum_line) =
            trimmed
                .rfind('\n')
                .map(|i| (i + 1, &trimmed[i + 1..]))
                .ok_or(CheckpointError::Corrupt {
                    reason: "truncated: no checksum line".into(),
                })?;
        let want = checksum_line
            .strip_prefix("checksum ")
            .ok_or(CheckpointError::Corrupt {
                reason: "truncated: missing checksum line".into(),
            })?;
        let want = u64::from_str_radix(want.trim(), 16).map_err(|_| CheckpointError::Corrupt {
            reason: "bad checksum value".into(),
        })?;
        let body = &text[..body_end];
        let got = fnv64(body.as_bytes());
        if got != want {
            return Err(CheckpointError::Corrupt {
                reason: format!("checksum mismatch (stored {want:016x}, computed {got:016x})"),
            });
        }

        let mut lines = body.lines();
        let mut next_line = |what: &str| {
            lines.next().ok_or_else(|| CheckpointError::Corrupt {
                reason: format!("truncated before {what}"),
            })
        };

        next_line("header")?; // already validated above

        let field = |line: &str, key: &str| -> Result<String, CheckpointError> {
            line.strip_prefix(key)
                .and_then(|r| r.strip_prefix(' '))
                .map(|r| r.to_string())
                .ok_or(CheckpointError::Corrupt {
                    reason: format!("expected '{key} ...', got '{line}'"),
                })
        };

        let iteration = parse_usize(&field(next_line("iteration")?, "iteration")?, "iteration")?;
        let seed: u64 = field(next_line("seed")?, "seed")?
            .parse()
            .map_err(|_| CheckpointError::Corrupt {
                reason: "bad seed".into(),
            })?;
        let rank = parse_usize(&field(next_line("rank")?, "rank")?, "rank")?;
        let dims_line = next_line("dims")?;
        let dims: Vec<usize> = field(dims_line, "dims")?
            .split_whitespace()
            .map(|t| parse_usize(t, "dim"))
            .collect::<Result<_, _>>()?;
        let engine = field(next_line("engine")?, "engine")?;
        let lambda: Vec<f64> = field(next_line("lambda")?, "lambda")?
            .split_whitespace()
            .map(|t| parse_f64(t, "lambda"))
            .collect::<Result<_, _>>()?;
        let fits: Vec<f64> = next_line("fits")?
            .strip_prefix("fits")
            .ok_or(CheckpointError::Corrupt {
                reason: "expected 'fits' line".into(),
            })?
            .split_whitespace()
            .map(|t| parse_f64(t, "fit"))
            .collect::<Result<_, _>>()?;

        if rank == 0 || dims.is_empty() {
            return Err(CheckpointError::Corrupt {
                reason: "rank and dims must be positive".into(),
            });
        }
        if lambda.len() != rank {
            return Err(CheckpointError::Corrupt {
                reason: format!("lambda has {} entries, rank is {rank}", lambda.len()),
            });
        }

        let mut factors = Vec::with_capacity(dims.len());
        for m in 0..dims.len() {
            let hdr = next_line("factor header")?;
            let toks: Vec<&str> = hdr.split_whitespace().collect();
            if toks.len() != 4 || toks[0] != "factor" {
                return Err(CheckpointError::Corrupt {
                    reason: format!("expected 'factor {m} <rows> <cols>', got '{hdr}'"),
                });
            }
            let mode = parse_usize(toks[1], "factor mode")?;
            let rows = parse_usize(toks[2], "factor rows")?;
            let cols = parse_usize(toks[3], "factor cols")?;
            if mode != m {
                return Err(CheckpointError::Corrupt {
                    reason: format!("factor {mode} out of order (expected {m})"),
                });
            }
            if rows != dims[m] || cols != rank {
                return Err(CheckpointError::Corrupt {
                    reason: format!(
                        "factor {m} is {rows}x{cols}, dims/rank say {}x{rank}",
                        dims[m]
                    ),
                });
            }
            let mut data = Vec::with_capacity(rows * cols);
            for i in 0..rows {
                let row_line = next_line("factor row")?;
                let mut count = 0usize;
                for t in row_line.split_whitespace() {
                    data.push(parse_f64(t, "factor entry")?);
                    count += 1;
                }
                if count != cols {
                    return Err(CheckpointError::Corrupt {
                        reason: format!("factor {m} row {i} has {count} entries, expected {cols}"),
                    });
                }
            }
            factors.push(Mat::from_vec(rows, cols, data));
        }
        if lines.next().is_some() {
            return Err(CheckpointError::Corrupt {
                reason: "trailing data after factors".into(),
            });
        }

        Ok(Checkpoint {
            version,
            iteration,
            seed,
            rank,
            dims,
            engine,
            lambda,
            fits,
            factors,
        })
    }

    /// Loads and validates a checkpoint file.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            iteration: 7,
            seed: 42,
            rank: 2,
            dims: vec![3, 4],
            engine: "stef".into(),
            lambda: vec![1.5, -0.25],
            fits: vec![0.1, 0.2, 1.0 / 3.0, f64::MIN_POSITIVE, -0.0],
            factors: vec![
                Mat::from_fn(3, 2, |i, j| (i * 2 + j) as f64 * 0.3 + 0.01),
                Mat::from_fn(4, 2, |i, j| 1.0 / (1.0 + i as f64 + j as f64)),
            ],
        }
    }

    #[test]
    fn round_trips_exactly() {
        let cp = sample();
        let back = Checkpoint::from_bytes(&cp.to_bytes()).expect("round trip");
        assert_eq!(back.iteration, cp.iteration);
        assert_eq!(back.seed, cp.seed);
        assert_eq!(back.dims, cp.dims);
        assert_eq!(back.engine, cp.engine);
        // Bit-exact floats, including the awkward ones.
        assert_eq!(back.lambda, cp.lambda);
        for (a, b) in back.factors.iter().zip(&cp.factors) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn save_and_load_through_disk() {
        let dir = std::env::temp_dir().join("stef-ckpt-test-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let cp = sample();
        cp.save(&path).expect("save");
        let back = Checkpoint::load(&path).expect("load");
        assert_eq!(back, cp);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample().to_bytes();
        for cut in [bytes.len() / 4, bytes.len() / 2, bytes.len() - 10] {
            match Checkpoint::from_bytes(&bytes[..cut]) {
                Err(CheckpointError::Corrupt { .. }) => {}
                other => panic!("cut at {cut}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flip_is_detected() {
        let mut bytes = sample().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] = if bytes[mid] == b'0' { b'1' } else { b'0' };
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn future_version_is_typed_not_corrupt() {
        let mut cp = sample();
        cp.version = CHECKPOINT_VERSION + 1;
        match Checkpoint::from_bytes(&cp.to_bytes()) {
            Err(CheckpointError::Version {
                found, supported, ..
            }) => {
                assert_eq!(found, CHECKPOINT_VERSION + 1);
                assert_eq!(supported, CHECKPOINT_VERSION);
            }
            other => panic!("expected Version error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_endianness_is_typed_not_corrupt() {
        let text = String::from_utf8(sample().to_bytes()).unwrap();
        let le = text.replacen("stef-checkpoint v1 be", "stef-checkpoint v1 le", 1);
        match Checkpoint::from_bytes(le.as_bytes()) {
            Err(CheckpointError::Version { detail, .. }) => {
                assert!(detail.contains("le"), "detail should name the tag: {detail}");
            }
            other => panic!("expected Version error, got {other:?}"),
        }
    }

    #[test]
    fn legacy_header_without_endianness_still_loads() {
        // Pre-tag files say just "stef-checkpoint v1"; rebuild the
        // checksum after rewriting the header so only the header differs.
        let text = String::from_utf8(sample().to_bytes()).unwrap();
        let legacy = text.replacen("stef-checkpoint v1 be", "stef-checkpoint v1", 1);
        let body_end = legacy.trim_end_matches('\n').rfind('\n').unwrap() + 1;
        let rebuilt = format!(
            "{}checksum {:016x}\n",
            &legacy[..body_end],
            fnv64(&legacy.as_bytes()[..body_end])
        );
        let back = Checkpoint::from_bytes(rebuilt.as_bytes()).expect("legacy load");
        assert_eq!(back, sample());
    }

    #[test]
    fn inconsistent_shapes_are_corrupt() {
        let mut cp = sample();
        cp.lambda.push(9.0); // lambda no longer matches rank
        assert!(matches!(
            Checkpoint::from_bytes(&cp.to_bytes()),
            Err(CheckpointError::Corrupt { .. })
        ));
    }
}
