//! CSV import/export of connectivity events.
//!
//! Association logs are commonly exchanged as flat `mac,timestamp,ap` files; this is
//! also the format our scenario simulator writes. The format is deliberately tiny: a
//! header line `mac,timestamp,ap` followed by one event per line. Timestamps are
//! integer seconds since the deployment epoch.
//!
//! Parse errors carry the 1-based line *and column* of the offending field, so a
//! bad row in a million-line export is locatable without bisecting the file.

use crate::error::IngestError;
use locater_events::Timestamp;
use serde::{Deserialize, Serialize};

/// One unparsed connectivity event as found in a CSV file or ingestion stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RawEvent {
    /// Device MAC address / identifier.
    pub mac: String,
    /// Timestamp in seconds since the deployment epoch.
    pub t: Timestamp,
    /// Access point name.
    pub ap: String,
}

impl RawEvent {
    /// Creates a raw event.
    pub fn new(mac: impl Into<String>, t: Timestamp, ap: impl Into<String>) -> Self {
        Self {
            mac: mac.into(),
            t,
            ap: ap.into(),
        }
    }
}

/// The fields of one CSV data line, borrowed from the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CsvRow<'a> {
    pub(crate) mac: &'a str,
    pub(crate) t: Timestamp,
    pub(crate) ap: &'a str,
}

/// Header line used by [`format_csv`] and expected (optionally) by [`parse_csv`].
pub(crate) const CSV_HEADER: &str = "mac,timestamp,ap";

/// Serializes events to CSV with a header line.
pub fn format_csv(events: &[RawEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 32 + CSV_HEADER.len() + 1);
    out.push_str(CSV_HEADER);
    out.push('\n');
    for e in events {
        out.push_str(&e.mac);
        out.push(',');
        out.push_str(&e.t.to_string());
        out.push(',');
        out.push_str(&e.ap);
        out.push('\n');
    }
    out
}

/// Parses one CSV data line into its fields. Returns `Ok(None)` for blank lines;
/// the caller decides whether a first-line header is expected. `line_no` is the
/// 1-based position used in error messages; reported columns are 1-based byte
/// offsets into `line`.
pub(crate) fn parse_csv_line(
    line: &str,
    line_no: usize,
) -> Result<Option<CsvRow<'_>>, IngestError> {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    let indent = line.len() - line.trim_start().len();
    let malformed = |offset: usize, reason: String| IngestError::Malformed {
        line: line_no,
        column: indent + offset + 1,
        reason,
    };
    // Field boundaries, tracked by byte offset within the trimmed line.
    let mut fields: Vec<(usize, &str)> = Vec::with_capacity(3);
    let mut start = 0usize;
    for (idx, byte) in trimmed.bytes().enumerate() {
        if byte == b',' {
            fields.push((start, &trimmed[start..idx]));
            start = idx + 1;
        }
    }
    fields.push((start, &trimmed[start..]));
    if fields.len() > 3 {
        let (offset, _) = fields[3];
        return Err(malformed(offset, "too many fields".to_string()));
    }
    let (mac_off, mac) = fields[0];
    let mac = mac.trim();
    if mac.is_empty() {
        return Err(malformed(mac_off, "missing mac field".to_string()));
    }
    let &(t_off, t_str) = fields
        .get(1)
        .ok_or_else(|| malformed(trimmed.len(), "missing timestamp field".to_string()))?;
    let &(ap_off, ap) = fields
        .get(2)
        .ok_or_else(|| malformed(trimmed.len(), "missing ap field".to_string()))?;
    let ap = ap.trim();
    if ap.is_empty() {
        return Err(malformed(ap_off, "missing ap field".to_string()));
    }
    let t_str = t_str.trim();
    let t: Timestamp = t_str
        .parse()
        .map_err(|_| malformed(t_off, format!("invalid timestamp {t_str:?}")))?;
    Ok(Some(CsvRow { mac, t, ap }))
}

/// `true` if `line` is the (case-insensitive) `mac,timestamp,ap` header.
pub(crate) fn is_csv_header(line: &str) -> bool {
    line.trim().eq_ignore_ascii_case(CSV_HEADER)
}

/// Parses CSV accepted by [`format_csv`]. The header line is optional; blank lines are
/// skipped; extra whitespace around fields is trimmed.
pub fn parse_csv(csv: &str) -> Result<Vec<RawEvent>, IngestError> {
    let mut out = Vec::new();
    for (idx, line) in csv.lines().enumerate() {
        if idx == 0 && is_csv_header(line) {
            continue;
        }
        if let Some(row) = parse_csv_line(line, idx + 1)? {
            out.push(RawEvent::new(row.mac, row.t, row.ap));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_header() {
        let events = vec![
            RawEvent::new("aa:bb:cc:dd:ee:01", 100, "wap1"),
            RawEvent::new("7fbh", 230, "wap3"),
        ];
        let csv = format_csv(&events);
        assert!(csv.starts_with("mac,timestamp,ap\n"));
        let parsed = parse_csv(&csv).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn header_is_optional_and_blank_lines_are_skipped() {
        let csv = "d1,100,wap1\n\n  d2 , 200 , wap2 \n";
        let parsed = parse_csv(csv).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1], RawEvent::new("d2", 200, "wap2"));
    }

    #[test]
    fn malformed_lines_report_position() {
        let err = parse_csv("mac,timestamp,ap\nd1,abc,wap1\n").unwrap_err();
        assert!(matches!(err, IngestError::Malformed { line: 2, .. }));
        let err = parse_csv("d1,100\n").unwrap_err();
        assert!(matches!(err, IngestError::Malformed { line: 1, .. }));
        let err = parse_csv("d1,100,wap1,extra\n").unwrap_err();
        assert!(matches!(err, IngestError::Malformed { line: 1, .. }));
        let err = parse_csv(",100,wap1\n").unwrap_err();
        assert!(matches!(err, IngestError::Malformed { line: 1, .. }));
    }

    #[test]
    fn malformed_fields_report_their_column() {
        // `abc` starts at byte 3 (0-based) → column 4.
        let err = parse_csv("d1,abc,wap1\n").unwrap_err();
        assert_eq!(
            err,
            IngestError::Malformed {
                line: 1,
                column: 4,
                reason: "invalid timestamp \"abc\"".into()
            }
        );
        assert!(err.to_string().contains("line 1, column 4"));
        // Leading whitespace shifts the reported column accordingly.
        let err = parse_csv("  d1,xyz,wap1\n").unwrap_err();
        assert!(matches!(err, IngestError::Malformed { column: 6, .. }));
        // The extra field's own offset is reported.
        let err = parse_csv("d1,100,wap1,extra\n").unwrap_err();
        assert!(matches!(err, IngestError::Malformed { column: 13, .. }));
        // Missing trailing fields point past the end of the line.
        let err = parse_csv("d1\n").unwrap_err();
        assert!(matches!(err, IngestError::Malformed { column: 3, .. }));
        // An empty ap field is reported at its own position.
        let err = parse_csv("d1,100,\n").unwrap_err();
        assert!(matches!(err, IngestError::Malformed { column: 8, .. }));
    }

    #[test]
    fn empty_input_parses_to_empty_vec() {
        assert!(parse_csv("").unwrap().is_empty());
        assert!(parse_csv("mac,timestamp,ap\n").unwrap().is_empty());
    }

    #[test]
    fn parse_csv_line_skips_blanks() {
        assert_eq!(parse_csv_line("   ", 5).unwrap(), None);
        assert_eq!(
            parse_csv_line(" d1 , 100,wap1", 5).unwrap(),
            Some(CsvRow {
                mac: "d1",
                t: 100,
                ap: "wap1"
            })
        );
    }
}
