//! Minimal proleptic-Gregorian date arithmetic (days since 1970-01-01).
//!
//! TPC-H only needs dates between 1992 and 1998, but the implementation is
//! correct for the whole i32 day range used here.

/// True iff `year` is a Gregorian leap year.
pub(crate) fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

const DAYS_IN_MONTH: [i32; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

/// Number of days in `month` (1-based) of `year`.
pub(crate) fn days_in_month(year: i32, month: u32) -> i32 {
    if month == 2 && is_leap_year(year) {
        29
    } else {
        DAYS_IN_MONTH[(month - 1) as usize]
    }
}

/// Days from 1970-01-01 to `year`-01-01 (negative before 1970).
fn days_to_year(year: i32) -> i64 {
    // Count leap years in [1970, year) or (year, 1970].
    fn leaps_before(y: i64) -> i64 {
        // number of leap years strictly before year y (from year 1)
        let y = y - 1;
        y / 4 - y / 100 + y / 400
    }
    (year as i64 - 1970) * 365 + (leaps_before(year as i64) - leaps_before(1970))
}

/// Convert a calendar date to days since the epoch. Returns `None` for
/// invalid dates.
pub fn to_days(year: i32, month: u32, day: u32) -> Option<i32> {
    if !(1..=12).contains(&month) || day == 0 || day as i32 > days_in_month(year, month) {
        return None;
    }
    let mut days = days_to_year(year);
    for m in 1..month {
        days += days_in_month(year, m) as i64;
    }
    days += day as i64 - 1;
    i32::try_from(days).ok()
}

/// Convert days since the epoch back to (year, month, day).
pub fn from_days(mut days: i32) -> (i32, u32, u32) {
    let mut year = 1970;
    loop {
        let len = if is_leap_year(year) { 366 } else { 365 };
        if days >= len {
            days -= len;
            year += 1;
        } else if days < 0 {
            year -= 1;
            days += if is_leap_year(year) { 366 } else { 365 };
        } else {
            break;
        }
    }
    let mut month = 1u32;
    while days >= days_in_month(year, month) {
        days -= days_in_month(year, month);
        month += 1;
    }
    (year, month, days as u32 + 1)
}

/// Parse a `YYYY-MM-DD` string.
pub fn parse_date(s: &str) -> Option<i32> {
    let mut parts = s.split('-');
    let year: i32 = parts.next()?.parse().ok()?;
    let month: u32 = parts.next()?.parse().ok()?;
    let day: u32 = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    to_days(year, month, day)
}

/// Format days-since-epoch as `YYYY-MM-DD`.
pub(crate) fn format_date(days: i32) -> String {
    let (y, m, d) = from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_zero() {
        assert_eq!(to_days(1970, 1, 1), Some(0));
        assert_eq!(from_days(0), (1970, 1, 1));
    }

    #[test]
    fn known_dates() {
        // 1996-07-01 is 9678 days after the epoch.
        assert_eq!(to_days(1996, 7, 1), Some(9678));
        assert_eq!(parse_date("1996-07-01"), Some(9678));
        assert_eq!(format_date(9678), "1996-07-01");
    }

    #[test]
    fn leap_years() {
        assert!(is_leap_year(1996));
        assert!(is_leap_year(2000));
        assert!(!is_leap_year(1900));
        assert!(!is_leap_year(1995));
        assert_eq!(days_in_month(1996, 2), 29);
        assert_eq!(days_in_month(1995, 2), 28);
    }

    #[test]
    fn rejects_invalid() {
        assert_eq!(parse_date("1995-02-29"), None);
        assert_eq!(parse_date("1995-13-01"), None);
        assert_eq!(parse_date("1995-00-10"), None);
        assert_eq!(parse_date("hello"), None);
    }

    #[test]
    fn roundtrip_range() {
        // Round-trip every ~37th day across the TPC-H range.
        let start = to_days(1992, 1, 1).unwrap();
        let end = to_days(1999, 1, 1).unwrap();
        let mut d = start;
        while d < end {
            let (y, m, dd) = from_days(d);
            assert_eq!(to_days(y, m, dd), Some(d));
            d += 37;
        }
    }

    #[test]
    fn pre_epoch() {
        assert_eq!(to_days(1969, 12, 31), Some(-1));
        assert_eq!(from_days(-1), (1969, 12, 31));
    }
}
