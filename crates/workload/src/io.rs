//! Trace serialization: a small line-oriented CSV codec.
//!
//! Lets users export synthetic traces, or import real traces with the same
//! schema, without pulling a CSV dependency. Fields never contain commas, so
//! no quoting is needed; the affinity list uses `;` as its inner separator.

use std::error::Error;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

use netbatch_cluster::job::PoolAffinity;

use crate::trace::{Trace, TraceRecord};

/// The header line written at the top of every trace file.
pub const CSV_HEADER: &str = "submit_minute,runtime_minutes,cores,memory_mb,priority,affinity,task";

/// The largest `submit_minute` or `runtime_minutes` a trace file may
/// carry: 2^40 minutes, about two million years. Far past any real trace,
/// and small enough that the simulator's minute arithmetic (a submit time
/// plus a speed-scaled wall time plus waits) cannot overflow `SimTime`.
pub const MAX_TRACE_MINUTES: u64 = 1 << 40;

/// Error produced when parsing a trace file.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number and a description.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o failure: {e}"),
            TraceIoError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
        }
    }
}

impl Error for TraceIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Writes a trace as CSV. A `&mut` reference to any writer works
/// (`write_csv(&mut file, …)`).
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_csv<W: Write>(mut w: W, trace: &Trace) -> Result<(), TraceIoError> {
    writeln!(w, "{CSV_HEADER}")?;
    for r in trace {
        let affinity = r
            .affinity
            .pools()
            .iter()
            .map(|p| p.as_u16().to_string())
            .collect::<Vec<_>>()
            .join(";");
        let task = r.task.map(|t| t.to_string()).unwrap_or_default();
        writeln!(
            w,
            "{},{},{},{},{},{},{}",
            r.submit_minute, r.runtime_minutes, r.cores, r.memory_mb, r.priority, affinity, task
        )?;
    }
    Ok(())
}

/// Reads a trace from CSV as produced by [`write_csv`]. The header line is
/// validated; records are re-sorted by submission minute.
///
/// # Errors
///
/// Returns [`TraceIoError::Parse`] on any malformed line, including one
/// whose `submit_minute` or `runtime_minutes` exceeds
/// [`MAX_TRACE_MINUTES`], and [`TraceIoError::Io`] on read failures.
pub fn read_csv<R: Read>(r: R) -> Result<Trace, TraceIoError> {
    let reader = BufReader::new(r);
    let mut lines = reader.lines().enumerate();
    match lines.next() {
        Some((_, Ok(header))) if header.trim() == CSV_HEADER => {}
        Some((_, Ok(other))) => {
            return Err(TraceIoError::Parse {
                line: 1,
                message: format!("unexpected header `{other}`"),
            })
        }
        Some((_, Err(e))) => return Err(e.into()),
        None => return Ok(Trace::new()),
    }
    let mut records = Vec::new();
    for (idx, line) in lines {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        records.push(parse_line(line).map_err(|message| TraceIoError::Parse {
            line: idx + 1,
            message,
        })?);
    }
    Ok(Trace::from_records(records))
}

fn parse_line(line: &str) -> Result<TraceRecord, String> {
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != 7 {
        return Err(format!("expected 7 fields, found {}", fields.len()));
    }
    fn num<T: std::str::FromStr>(s: &str, name: &str) -> Result<T, String> {
        s.parse().map_err(|_| format!("invalid {name} value `{s}`"))
    }
    fn minutes(s: &str, name: &str) -> Result<u64, String> {
        let m = num(s, name)?;
        if m > MAX_TRACE_MINUTES {
            return Err(format!(
                "{name} value `{s}` exceeds the cap of {MAX_TRACE_MINUTES} minutes"
            ));
        }
        Ok(m)
    }
    let affinity = if fields[5].is_empty() {
        PoolAffinity::Any
    } else {
        let ids = fields[5]
            .split(';')
            .map(|s| num::<u16>(s, "affinity"))
            .collect::<Result<Vec<_>, _>>()?;
        PoolAffinity::from_ids(&ids)
    };
    let task = if fields[6].is_empty() {
        None
    } else {
        Some(num::<u32>(fields[6], "task")?)
    };
    Ok(TraceRecord {
        submit_minute: minutes(fields[0], "submit_minute")?,
        runtime_minutes: minutes(fields[1], "runtime_minutes")?,
        cores: num(fields[2], "cores")?,
        memory_mb: num(fields[3], "memory_mb")?,
        priority: num(fields[4], "priority")?,
        affinity,
        task,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_trace() -> Trace {
        Trace::from_records(vec![
            TraceRecord {
                submit_minute: 0,
                runtime_minutes: 120,
                cores: 2,
                memory_mb: 4096,
                priority: 10,
                affinity: PoolAffinity::from_ids(&[1, 3, 5]),
                task: Some(7),
            },
            TraceRecord {
                submit_minute: 5,
                runtime_minutes: 30,
                cores: 1,
                memory_mb: 1024,
                priority: 0,
                affinity: PoolAffinity::Any,
                task: None,
            },
        ])
    }

    #[test]
    fn round_trip_preserves_records() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_csv(&mut buf, &trace).unwrap();
        let back = read_csv(buf.as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn csv_shape_is_stable() {
        let mut buf = Vec::new();
        write_csv(&mut buf, &sample_trace()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(CSV_HEADER));
        assert_eq!(lines.next(), Some("0,120,2,4096,10,1;3;5,7"));
        assert_eq!(lines.next(), Some("5,30,1,1024,0,,"));
    }

    #[test]
    fn empty_input_is_empty_trace() {
        let t = read_csv(std::io::empty()).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = format!("{CSV_HEADER}\n\n1,2,1,100,0,,\n\n");
        let t = read_csv(text.as_bytes()).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn crlf_endings_and_a_missing_final_newline_parse() {
        let text = format!("{CSV_HEADER}\r\n1,2,1,100,0,,\r\n3,4,1,100,10,2;5,9");
        let t = read_csv(text.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.records()[1].affinity, PoolAffinity::from_ids(&[2, 5]));
        assert_eq!(t.records()[1].task, Some(9));
        let err = read_csv("nope\r\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("`nope`"), "{err}");
    }

    #[test]
    fn bad_header_is_reported() {
        let err = read_csv("nope\n".as_bytes()).unwrap_err();
        let TraceIoError::Parse { line, message } = err else {
            panic!("expected parse error")
        };
        assert_eq!(line, 1);
        assert!(message.contains("header"));
    }

    #[test]
    fn bad_field_reports_line_number() {
        let text = format!("{CSV_HEADER}\n1,2,1,100,0,,\nx,2,1,100,0,,\n");
        let err = read_csv(text.as_bytes()).unwrap_err();
        let TraceIoError::Parse { line, message } = err else {
            panic!("expected parse error")
        };
        assert_eq!(line, 3);
        assert!(message.contains("submit_minute"));
    }

    #[test]
    fn minutes_past_the_cap_are_rejected() {
        // At the cap a row still parses; one past it, or a value whose
        // simulator arithmetic would overflow, names its line and field.
        let at_cap = format!("{CSV_HEADER}\n{MAX_TRACE_MINUTES},{MAX_TRACE_MINUTES},1,100,1,,\n");
        assert_eq!(read_csv(at_cap.as_bytes()).unwrap().len(), 1);
        for (row, field) in [
            ("18446744073709551615,10,1,100,1,,", "submit_minute"),
            ("100,18446744073709551615,1,100,1,,", "runtime_minutes"),
            ("1099511627777,10,1,100,1,,", "submit_minute"),
            ("100,1099511627777,1,100,1,,", "runtime_minutes"),
        ] {
            let text = format!("{CSV_HEADER}\n{row}\n");
            let TraceIoError::Parse { line, message } = read_csv(text.as_bytes()).unwrap_err()
            else {
                panic!("expected parse error for {row}")
            };
            assert_eq!(line, 2, "{row}");
            assert!(
                message.contains(field) && message.contains("cap"),
                "{message}"
            );
        }
    }

    #[test]
    fn wrong_field_count_rejected() {
        let text = format!("{CSV_HEADER}\n1,2,3\n");
        let err = read_csv(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 7 fields"));
    }

    #[test]
    fn error_display_covers_io() {
        let e = TraceIoError::from(std::io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
        assert!(Error::source(&e).is_some());
    }

    fn csv_bytes(trace: &Trace) -> Vec<u8> {
        let mut buf = Vec::new();
        write_csv(&mut buf, trace).unwrap();
        buf
    }

    /// Characters a hostile or corrupted trace line is built from: the
    /// field and list separators, digits, signs, whitespace, letters and
    /// a multi-byte character.
    const HOSTILE: [char; 14] = [
        '0', '1', '7', '9', ',', ';', '-', '+', ' ', '\t', 'x', 'e', '.', '\u{e9}',
    ];

    fn hostile_char() -> impl Strategy<Value = char> {
        proptest::sample::select(HOSTILE.to_vec())
    }

    proptest! {
        /// Arbitrary lines, and valid lines with characters inserted,
        /// replaced or deleted, parse to `Ok` or `Err` without panicking;
        /// whatever parses writes back to a trace that reads the same.
        #[test]
        fn prop_hostile_lines_never_panic(
            noise in proptest::collection::vec(hostile_char(), 0..40),
            base in (0u64..100_000, 1u64..10_000, 1u32..64, 0u8..20,
                     proptest::collection::vec(0u16..20, 0..4)),
            edits in proptest::collection::vec((0usize..64, 0u8..3, hostile_char()), 0..6),
        ) {
            let (submit, runtime, cores, priority, pools) = base;
            let pools: Vec<String> = pools.iter().map(u16::to_string).collect();
            let mut line: Vec<char> =
                format!("{submit},{runtime},{cores},1024,{priority},{},", pools.join(";"))
                    .chars()
                    .collect();
            for (at, op, c) in edits {
                let at = at % (line.len() + 1);
                match op {
                    0 => line.insert(at, c),
                    1 if at < line.len() => line[at] = c,
                    _ if at < line.len() => {
                        line.remove(at);
                    }
                    _ => {}
                }
            }
            let mutated: String = line.into_iter().collect();
            let noise: String = noise.into_iter().collect();
            for body in [mutated, noise] {
                let text = format!("{CSV_HEADER}\n{body}\n");
                if let Ok(trace) = read_csv(text.as_bytes()) {
                    let back = read_csv(csv_bytes(&trace).as_slice()).unwrap();
                    prop_assert_eq!(back, trace);
                }
            }
        }

        /// Any generated trace survives a CSV round trip.
        #[test]
        fn prop_round_trip(records in proptest::collection::vec(
            (0u64..100_000, 1u64..10_000, 1u32..64, 128u64..1_000_000, 0u8..20,
             proptest::collection::vec(0u16..20, 0..4), proptest::option::of(0u32..1000)),
            0..50,
        )) {
            let trace = Trace::from_records(records.into_iter().map(
                |(submit_minute, runtime_minutes, cores, memory_mb, priority, affinity, task)| TraceRecord {
                    submit_minute, runtime_minutes, cores, memory_mb, priority,
                    affinity: PoolAffinity::from_ids(&affinity), task,
                }).collect());
            let mut buf = Vec::new();
            write_csv(&mut buf, &trace).unwrap();
            let back = read_csv(buf.as_slice()).unwrap();
            prop_assert_eq!(back, trace);
        }
    }
}
