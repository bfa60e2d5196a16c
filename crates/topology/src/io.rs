//! Plain-text serialization of topologies.
//!
//! A deliberately simple line format so layouts can be shared, diffed, and
//! edited by hand (no serialization-format dependency needed):
//!
//! ```text
//! # dirca topology v1
//! range 1.0
//! measured 5
//! 0.25 -0.5
//! 1.0 0.0
//! …one "x y" line per node…
//! ```

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use dirca_geometry::Point;

use crate::Topology;

/// What went wrong while parsing the topology text format. Each variant is
/// one validation rule, so callers (and tests) can match on the cause
/// rather than scrape the message text.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseErrorKind {
    /// The `range` header value did not parse as a float.
    BadRange,
    /// The `range` header value parsed but is not a finite positive number.
    NonPositiveRange,
    /// The `measured` header value did not parse as an unsigned integer.
    BadMeasured,
    /// A header appeared twice.
    DuplicateHeader {
        /// The repeated header name (`range` or `measured`).
        header: &'static str,
    },
    /// A node line's x coordinate is missing or unparseable.
    BadX,
    /// A node line's y coordinate is missing or unparseable.
    BadY,
    /// A node line carried more than two coordinate tokens.
    TrailingTokens,
    /// A coordinate parsed to an infinity or NaN.
    NonFiniteCoordinate,
    /// Two node lines give the exact same position — almost always a
    /// copy-paste slip, and it makes node identities ambiguous.
    DuplicatePosition {
        /// Line number of the earlier occurrence.
        first_line: usize,
    },
    /// The mandatory `range` header never appeared.
    MissingRange,
    /// The file has headers but no node lines (or is entirely empty).
    NoNodes,
    /// The `measured` count exceeds the number of node lines.
    MeasuredExceedsNodes {
        /// The declared `measured` count.
        measured: usize,
        /// The actual node count.
        nodes: usize,
    },
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseErrorKind::BadRange => write!(f, "bad range value"),
            ParseErrorKind::NonPositiveRange => write!(f, "range must be positive"),
            ParseErrorKind::BadMeasured => write!(f, "bad measured value"),
            ParseErrorKind::DuplicateHeader { header } => {
                write!(f, "duplicate '{header}' header")
            }
            ParseErrorKind::BadX => write!(f, "bad x coordinate"),
            ParseErrorKind::BadY => write!(f, "bad y coordinate"),
            ParseErrorKind::TrailingTokens => write!(f, "trailing tokens after coordinates"),
            ParseErrorKind::NonFiniteCoordinate => write!(f, "coordinates must be finite"),
            ParseErrorKind::DuplicatePosition { first_line } => {
                write!(
                    f,
                    "duplicate node position (first seen at line {first_line})"
                )
            }
            ParseErrorKind::MissingRange => write!(f, "missing 'range' header"),
            ParseErrorKind::NoNodes => write!(f, "no node lines (empty topology)"),
            ParseErrorKind::MeasuredExceedsNodes { measured, nodes } => {
                write!(f, "measured {measured} exceeds node count {nodes}")
            }
        }
    }
}

/// Error from parsing the topology text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTopologyError {
    line: usize,
    kind: ParseErrorKind,
}

impl ParseTopologyError {
    /// The 1-based line the error was detected on; 0 for whole-file
    /// problems (missing header, empty file, bad `measured` total).
    pub fn line(&self) -> usize {
        self.line
    }

    /// Which validation rule failed.
    pub fn kind(&self) -> &ParseErrorKind {
        &self.kind
    }
}

impl fmt::Display for ParseTopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "topology parse error at line {}: {}",
            self.line, self.kind
        )
    }
}

impl Error for ParseTopologyError {}

fn err(line: usize, kind: ParseErrorKind) -> ParseTopologyError {
    ParseTopologyError { line, kind }
}

/// Renders a topology in the text format.
///
/// # Example
///
/// ```
/// use dirca_topology::{fixtures, io};
///
/// let topo = fixtures::hidden_terminal();
/// let text = io::to_text(&topo);
/// let back = io::from_text(&text)?;
/// assert_eq!(topo, back);
/// # Ok::<(), dirca_topology::io::ParseTopologyError>(())
/// ```
pub fn to_text(topology: &Topology) -> String {
    let mut out = String::from("# dirca topology v1\n");
    out.push_str(&format!("range {}\n", topology.range));
    out.push_str(&format!("measured {}\n", topology.measured));
    for p in &topology.positions {
        out.push_str(&format!("{} {}\n", p.x, p.y));
    }
    out
}

/// Parses the text format produced by [`to_text`].
///
/// Blank lines and `#` comments are ignored; `range` and `measured`
/// headers may appear in either order but must precede the node lines.
///
/// # Errors
///
/// Returns [`ParseTopologyError`] on malformed or repeated headers,
/// malformed or non-finite coordinates, duplicated node positions, an
/// empty node list, or a `measured` count exceeding the node count; see
/// [`ParseErrorKind`] for the full rule list.
pub fn from_text(text: &str) -> Result<Topology, ParseTopologyError> {
    let mut range: Option<f64> = None;
    let mut measured: Option<usize> = None;
    let mut positions = Vec::new();
    // Line number of each accepted node line, for duplicate reporting.
    let mut position_lines: Vec<usize> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("range ") {
            if range.is_some() {
                return Err(err(
                    line_no,
                    ParseErrorKind::DuplicateHeader { header: "range" },
                ));
            }
            let v =
                f64::from_str(rest.trim()).map_err(|_| err(line_no, ParseErrorKind::BadRange))?;
            if !(v.is_finite() && v > 0.0) {
                return Err(err(line_no, ParseErrorKind::NonPositiveRange));
            }
            range = Some(v);
        } else if let Some(rest) = line.strip_prefix("measured ") {
            if measured.is_some() {
                return Err(err(
                    line_no,
                    ParseErrorKind::DuplicateHeader { header: "measured" },
                ));
            }
            measured = Some(
                usize::from_str(rest.trim())
                    .map_err(|_| err(line_no, ParseErrorKind::BadMeasured))?,
            );
        } else {
            let mut parts = line.split_whitespace();
            let x = parts
                .next()
                .and_then(|t| f64::from_str(t).ok())
                .ok_or_else(|| err(line_no, ParseErrorKind::BadX))?;
            let y = parts
                .next()
                .and_then(|t| f64::from_str(t).ok())
                .ok_or_else(|| err(line_no, ParseErrorKind::BadY))?;
            if parts.next().is_some() {
                return Err(err(line_no, ParseErrorKind::TrailingTokens));
            }
            if !(x.is_finite() && y.is_finite()) {
                return Err(err(line_no, ParseErrorKind::NonFiniteCoordinate));
            }
            let p = Point::new(x, y);
            // Bitwise comparison: the format round-trips floats exactly, so
            // two textually distinct lines land on distinct bit patterns
            // unless they really name the same point.
            if let Some(first) = positions.iter().position(|q: &Point| {
                q.x.to_bits() == p.x.to_bits() && q.y.to_bits() == p.y.to_bits()
            }) {
                return Err(err(
                    line_no,
                    ParseErrorKind::DuplicatePosition {
                        first_line: position_lines[first],
                    },
                ));
            }
            positions.push(p);
            position_lines.push(line_no);
        }
    }
    let range = range.ok_or_else(|| err(0, ParseErrorKind::MissingRange))?;
    if positions.is_empty() {
        return Err(err(0, ParseErrorKind::NoNodes));
    }
    let measured = measured.unwrap_or(positions.len());
    if measured > positions.len() {
        return Err(err(
            0,
            ParseErrorKind::MeasuredExceedsNodes {
                measured,
                nodes: positions.len(),
            },
        ));
    }
    Ok(Topology {
        positions,
        range,
        measured,
    })
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;
    use crate::fixtures;

    #[test]
    fn round_trip_preserves_everything() {
        let mut topo = fixtures::parallel_pairs();
        topo.measured = 2;
        let text = to_text(&topo);
        let back = from_text(&text).unwrap();
        assert_eq!(topo, back);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# hello\n\nrange 2.0\nmeasured 1\n# node below\n0.5 0.5\n";
        let topo = from_text(text).unwrap();
        assert_eq!(topo.len(), 1);
        assert_eq!(topo.range, 2.0);
        assert_eq!(topo.measured, 1);
    }

    #[test]
    fn measured_defaults_to_all() {
        let topo = from_text("range 1.0\n0 0\n1 1\n").unwrap();
        assert_eq!(topo.measured, 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = from_text("range 1.0\n0 zzz\n").unwrap_err();
        assert!(format!("{e}").contains("line 2"));
        assert_eq!(e.line(), 2);
        assert_eq!(*e.kind(), ParseErrorKind::BadY);
        let e = from_text("range -1\n").unwrap_err();
        assert!(format!("{e}").contains("positive"));
        let e = from_text("0 0\n").unwrap_err();
        assert!(format!("{e}").contains("missing 'range'"));
        assert_eq!(*e.kind(), ParseErrorKind::MissingRange);
    }

    #[test]
    fn overlong_measured_rejected() {
        let e = from_text("range 1.0\nmeasured 5\n0 0\n").unwrap_err();
        assert!(format!("{e}").contains("exceeds node count"));
        assert_eq!(
            *e.kind(),
            ParseErrorKind::MeasuredExceedsNodes {
                measured: 5,
                nodes: 1
            }
        );
    }

    #[test]
    fn trailing_tokens_rejected() {
        let e = from_text("range 1.0\n0 0 0\n").unwrap_err();
        assert_eq!(*e.kind(), ParseErrorKind::TrailingTokens);
    }

    #[test]
    fn empty_and_header_only_files_rejected() {
        let e = from_text("").unwrap_err();
        assert_eq!(*e.kind(), ParseErrorKind::MissingRange);
        let e = from_text("range 1.0\n").unwrap_err();
        assert_eq!(*e.kind(), ParseErrorKind::NoNodes, "headers but no nodes");
        let e = from_text("# only comments\n\n").unwrap_err();
        assert_eq!(*e.kind(), ParseErrorKind::MissingRange);
    }

    #[test]
    fn non_finite_coordinates_rejected() {
        for bad in ["inf 0", "0 -inf", "NaN 0"] {
            let text = format!("range 1.0\n{bad}\n");
            let e = from_text(&text).unwrap_err();
            assert_eq!(
                *e.kind(),
                ParseErrorKind::NonFiniteCoordinate,
                "input {bad:?}"
            );
            assert_eq!(e.line(), 2);
        }
    }

    #[test]
    fn duplicate_positions_rejected_with_both_lines() {
        let e = from_text("range 1.0\n0 0\n1 1\n0 0\n").unwrap_err();
        assert_eq!(e.line(), 4);
        assert_eq!(
            *e.kind(),
            ParseErrorKind::DuplicatePosition { first_line: 2 }
        );
        assert!(format!("{e}").contains("first seen at line 2"));
        // 0.0 and -0.0 compare equal but are distinct positions bitwise:
        // the duplicate check must not conflate them.
        assert!(from_text("range 1.0\n0 0\n-0 0\n").is_ok());
    }

    #[test]
    fn duplicate_headers_rejected() {
        let e = from_text("range 1.0\nrange 2.0\n0 0\n").unwrap_err();
        assert_eq!(
            *e.kind(),
            ParseErrorKind::DuplicateHeader { header: "range" }
        );
        let e = from_text("range 1.0\nmeasured 1\nmeasured 1\n0 0\n").unwrap_err();
        assert_eq!(
            *e.kind(),
            ParseErrorKind::DuplicateHeader { header: "measured" }
        );
    }

    #[test]
    fn generated_ring_round_trips() {
        use rand::SeedableRng;
        let spec = crate::RingSpec::paper(3, 1.0);
        let topo = spec
            .generate(&mut rand::rngs::SmallRng::seed_from_u64(5))
            .unwrap();
        let back = from_text(&to_text(&topo)).unwrap();
        // Float round-trip through shortest-representation formatting is
        // exact in Rust.
        assert_eq!(topo, back);
    }
}
