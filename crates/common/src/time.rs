//! Civil-calendar conversions for DATE/TIMESTAMP values.
//!
//! Dates are days since 1970-01-01 in the proleptic Gregorian calendar.
//! The conversions are Howard Hinnant's `civil_from_days`/`days_from_civil`
//! algorithms, exact over the whole i64 day range we use.

/// Convert days-since-epoch to `(year, month, day)`.
pub fn civil_from_days(days: i64) -> (i64, i64, i64) {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Convert `(year, month, day)` to days-since-epoch.
pub fn days_from_civil(y: i64, m: i64, d: i64) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = y.div_euclid(400);
    let yoe = y - era * 400;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Parse an ISO `yyyy-mm-dd` date into days-since-epoch. Returns `None` on
/// malformed input or out-of-range month/day.
pub fn parse_date(s: &str) -> Option<i64> {
    let mut parts = s.split('-');
    let y: i64 = parts.next()?.parse().ok()?;
    let m: i64 = parts.next()?.parse().ok()?;
    let d: i64 = parts.next()?.parse().ok()?;
    if parts.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    let days = days_from_civil(y, m, d);
    // Reject normalized-away inputs like 2021-02-31.
    if civil_from_days(days) != (y, m, d) {
        return None;
    }
    Some(days)
}

/// Format days-since-epoch as `yyyy-mm-dd`.
pub fn format_date(days: i64) -> String {
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_1970() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(days_from_civil(1970, 1, 1), 0);
    }

    #[test]
    fn round_trips() {
        for days in [-100_000, -1, 0, 1, 10_957, 100_000] {
            let (y, m, d) = civil_from_days(days);
            assert_eq!(days_from_civil(y, m, d), days);
        }
    }

    #[test]
    fn parse_and_format() {
        assert_eq!(parse_date("1995-03-17"), Some(days_from_civil(1995, 3, 17)));
        assert_eq!(format_date(parse_date("2024-02-29").unwrap()), "2024-02-29");
        assert_eq!(parse_date("2021-02-31"), None);
        assert_eq!(parse_date("not-a-date"), None);
        assert_eq!(parse_date("2021-13-01"), None);
    }
}
