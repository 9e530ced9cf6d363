//! Proleptic-Gregorian day-number arithmetic.
//!
//! Dates are stored in tables as `i64` day numbers relative to
//! 1970-01-01 (day 0). The conversions below are the classic
//! `days_from_civil` / `civil_from_days` algorithms (Howard Hinnant),
//! exact over the whole proleptic Gregorian calendar.

use std::fmt;

/// Day number of a civil date `(year, month, day)`, relative to
/// 1970-01-01. Months are 1-12, days 1-31.
pub fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    debug_assert!((1..=12).contains(&m), "month out of range");
    debug_assert!((1..=31).contains(&d), "day out of range");
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // [0, 11], March = 0
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe - 719468
}

/// Civil date `(year, month, day)` of a day number relative to
/// 1970-01-01. Inverse of [`days_from_civil`].
pub fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Write day number `z` as ISO `YYYY-MM-DD` — the one date renderer
/// behind both `Value`'s `Display` and the CSV writer. Years 0..=9999
/// take a digit-by-digit path with no formatting machinery; any other
/// year falls back to `{y:04}-{m:02}-{d:02}` (e.g. `-001-03-01`,
/// `10000-01-01`).
pub fn write_iso<W: fmt::Write>(out: &mut W, z: i64) -> fmt::Result {
    let (y, m, d) = civil_from_days(z);
    if !(0..=9999).contains(&y) {
        return write!(out, "{y:04}-{m:02}-{d:02}");
    }
    let y = y as u32;
    let mut text = *b"0000-00-00";
    let digits = [
        (0, y / 1000),
        (1, y / 100),
        (2, y / 10),
        (3, y),
        (5, m / 10),
        (6, m),
        (8, d / 10),
        (9, d),
    ];
    for (at, x) in digits {
        text[at] += (x % 10) as u8;
    }
    out.write_str(std::str::from_utf8(&text).expect("ASCII digits"))
}

/// Parse an ISO `YYYY-MM-DD` string into a day number.
///
/// The canonical ten-byte shape (four-digit year, two-digit month and
/// day — everything the CSV writer produces) is decoded byte by byte.
/// Any other shape takes the general path, which also accepts what
/// `str::parse` does per field (`+2000-1-1`, `02000-01-01`, …); both
/// paths agree on every input.
pub fn parse_iso(s: &str) -> Option<i64> {
    parse_iso_bytes(s.as_bytes())
}

/// [`parse_iso`] on bytes, for the CSV reader: the canonical shape is
/// decoded without a UTF-8 check, and only the general path needs text.
pub(crate) fn parse_iso_bytes(s: &[u8]) -> Option<i64> {
    let general = || std::str::from_utf8(s).ok().and_then(parse_iso_fields);
    let &[y0, y1, y2, y3, b'-', m0, m1, b'-', d0, d1] = s else {
        return general();
    };
    let digits = [y0, y1, y2, y3, m0, m1, d0, d1];
    if !digits.iter().all(u8::is_ascii_digit) {
        return general();
    }
    let [y0, y1, y2, y3, m0, m1, d0, d1] = digits.map(|b| u32::from(b - b'0'));
    let y = y0 * 1000 + y1 * 100 + y2 * 10 + y3;
    let m = m0 * 10 + m1;
    let d = d0 * 10 + d1;
    if !(1..=12).contains(&m) || d == 0 || d > days_in_month(y, m) {
        return None;
    }
    Some(days_from_civil(i64::from(y), m, d))
}

/// Days in month `m` (1-12) of the non-negative year `y`.
fn days_in_month(y: u32, m: u32) -> u32 {
    match m {
        2 if y % 4 == 0 && (y % 100 != 0 || y % 400 == 0) => 29,
        2 => 28,
        4 | 6 | 9 | 11 => 30,
        _ => 31,
    }
}

/// The largest year whose day number, and that day number's way back
/// through [`civil_from_days`], stay inside `i64` (the era term of both
/// conversions is `year / 400 * 146097`).
const MAX_YEAR: i64 = (i64::MAX - 146_096) / 146_097 * 400 + 399;

/// The general path of [`parse_iso`]: three `-`-separated integer
/// fields, checked by a round trip through the day number.
fn parse_iso_fields(s: &str) -> Option<i64> {
    let mut parts = s.splitn(3, '-');
    // A leading '-' would make the year part empty; QUIS-era data does
    // not carry BCE dates, so reject them rather than guessing.
    let y: i64 = parts.next()?.parse().ok()?;
    let m: u32 = parts.next()?.parse().ok()?;
    let d: u32 = parts.next()?.parse().ok()?;
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) || y > MAX_YEAR {
        return None;
    }
    // Round-trip to reject impossible dates such as Feb 30.
    let days = days_from_civil(y, m, d);
    if civil_from_days(days) == (y, m, d) {
        Some(days)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(civil_from_days(0), (1970, 1, 1));
    }

    #[test]
    fn known_dates() {
        // VLDB 2003 conference opening day.
        assert_eq!(civil_from_days(days_from_civil(2003, 9, 9)), (2003, 9, 9));
        assert_eq!(days_from_civil(2000, 3, 1), 11017);
        assert_eq!(days_from_civil(1969, 12, 31), -1);
    }

    #[test]
    fn leap_years() {
        assert_eq!(days_from_civil(2000, 2, 29) + 1, days_from_civil(2000, 3, 1));
        // 1900 is not a leap year in the Gregorian calendar.
        assert_eq!(parse_iso("1900-02-29"), None);
        assert!(parse_iso("2000-02-29").is_some());
    }

    #[test]
    fn round_trip_over_two_centuries() {
        let lo = days_from_civil(1900, 1, 1);
        let hi = days_from_civil(2100, 1, 1);
        let mut prev = civil_from_days(lo - 1);
        for z in lo..=hi {
            let cur = civil_from_days(z);
            assert_eq!(days_from_civil(cur.0, cur.1, cur.2), z);
            assert!(cur != prev, "dates must strictly advance");
            prev = cur;
        }
    }

    #[test]
    fn write_iso_pads_and_falls_back_outside_four_digit_years() {
        let iso = |y, m, d| {
            let mut s = String::new();
            write_iso(&mut s, days_from_civil(y, m, d)).unwrap();
            s
        };
        assert_eq!(iso(1970, 1, 1), "1970-01-01");
        assert_eq!(iso(2003, 9, 9), "2003-09-09");
        assert_eq!(iso(0, 1, 1), "0000-01-01");
        assert_eq!(iso(7, 12, 31), "0007-12-31");
        assert_eq!(iso(9999, 12, 31), "9999-12-31");
        assert_eq!(iso(10000, 1, 1), "10000-01-01");
        assert_eq!(iso(-1, 3, 1), "-001-03-01");
        assert_eq!(iso(-12345, 6, 7), "-12345-06-07");
    }

    #[test]
    fn canonical_dates_parse_as_the_general_path_does() {
        for y in [0, 1, 4, 99, 100, 400, 1900, 1970, 2000, 2001, 2004, 2100, 2400, 9999] {
            for m in 0..100 {
                for d in 0..100 {
                    let s = format!("{y:04}-{m:02}-{d:02}");
                    assert_eq!(parse_iso(&s), parse_iso_fields(&s), "{s}");
                }
            }
        }
        // Shapes off the canonical one keep the general path's answer.
        assert_eq!(parse_iso("+2000-01-01"), Some(days_from_civil(2000, 1, 1)));
        assert_eq!(parse_iso("2000-1-1"), Some(days_from_civil(2000, 1, 1)));
        assert_eq!(parse_iso("02000-01-01"), Some(days_from_civil(2000, 1, 1)));
        assert_eq!(parse_iso("10000-01-01"), Some(days_from_civil(10000, 1, 1)));
        assert_eq!(parse_iso("-001-01-01"), None);
        assert_eq!(parse_iso("2000-01-0a"), None);
        assert_eq!(parse_iso("2000/01/01"), None);
    }

    #[test]
    fn years_past_the_day_number_range_are_rejected_not_overflowed() {
        assert_eq!(parse_iso("100000000000000000-03-01"), None);
        assert_eq!(parse_iso(&format!("{}-01-01", MAX_YEAR + 1)), None);
        assert_eq!(parse_iso(&format!("{}-01-01", i64::MAX)), None);
        let last = parse_iso(&format!("{MAX_YEAR}-12-31")).expect("the last representable year");
        assert_eq!(civil_from_days(last), (MAX_YEAR, 12, 31));
    }

    #[test]
    fn an_overflowing_year_in_a_csv_date_cell_is_a_cell_error() {
        let schema = crate::builder::SchemaBuilder::new()
            .date_ymd("built", (2000, 1, 1), (2010, 1, 1))
            .build()
            .unwrap();
        let input = "built\n2003-09-09\n100000000000000000-03-01\n";
        match crate::csv::read_csv(schema, input.as_bytes()) {
            Err(crate::TableError::CsvCell { line: 3, column, message }) => {
                assert_eq!(column, "built");
                assert!(message.contains("100000000000000000-03-01"), "got {message}");
            }
            other => panic!("expected a cell error on line 3, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(parse_iso(""), None);
        assert_eq!(parse_iso("2003-13-01"), None);
        assert_eq!(parse_iso("2003-00-10"), None);
        assert_eq!(parse_iso("2003-02-30"), None);
        assert_eq!(parse_iso("03/02/2003"), None);
        assert_eq!(parse_iso("2003-09-09"), Some(days_from_civil(2003, 9, 9)));
    }
}
