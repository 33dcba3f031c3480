//! Calendar time for certificate validity periods.
//!
//! X.509 encodes validity as UTCTime (`YYMMDDHHMMSSZ`) for years before
//! 2050. All certificates in the workspace live comfortably inside that
//! window, so only UTCTime is emitted.

use crate::der::{tag, Writer};

/// A calendar timestamp (UTC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Time {
    /// Full year, e.g. 2022.
    pub year: u16,
    /// Month 1–12.
    pub month: u8,
    /// Day 1–31.
    pub day: u8,
    /// Hour 0–23.
    pub hour: u8,
    /// Minute 0–59.
    pub minute: u8,
    /// Second 0–59.
    pub second: u8,
}

impl Time {
    /// Midnight on the given date.
    pub const fn date(year: u16, month: u8, day: u8) -> Self {
        Time {
            year,
            month,
            day,
            hour: 0,
            minute: 0,
            second: 0,
        }
    }

    /// The same instant `days` later (approximate calendar arithmetic:
    /// months are treated as 30 days, sufficient for validity spans).
    pub(crate) fn plus_days(self, days: u32) -> Time {
        let total = self.day as u32 - 1 + days;
        let month_total = self.month as u32 - 1 + total / 30;
        Time {
            year: self.year + (month_total / 12) as u16,
            month: (month_total % 12) as u8 + 1,
            day: (total % 30) as u8 + 1,
            ..self
        }
    }

    /// The `YYMMDDHHMMSSZ` octets (UTCTime, two-digit year per RFC 5280).
    fn utc_octets(self) -> [u8; 13] {
        let fields = [
            (self.year % 100) as u8,
            self.month,
            self.day,
            self.hour,
            self.minute,
            self.second,
        ];
        let mut out = [b'Z'; 13];
        for (pair, field) in out.chunks_exact_mut(2).zip(fields) {
            debug_assert!(field < 100, "UTCTime fields are two digits");
            pair[0] = b'0' + field / 10;
            pair[1] = b'0' + field % 10;
        }
        out
    }

    /// Append the UTCTime encoding to `w`.
    pub fn encode_into(self, w: &mut Writer) {
        w.tlv(tag::UTC_TIME, &[&self.utc_octets()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_format_matches_rfc_shape() {
        let t = Time::date(2021, 11, 27);
        let enc = crate::der::encoded(|w| t.encode_into(w));
        assert_eq!(enc[0], 0x17);
        assert_eq!(enc[1], 13);
        assert_eq!(&enc[2..], b"211127000000Z");
    }

    #[test]
    fn plus_days_rolls_over() {
        let t = Time::date(2022, 1, 1);
        let later = t.plus_days(90);
        assert_eq!(later.month, 4);
        assert_eq!(later.year, 2022);
        let next_year = t.plus_days(365);
        assert_eq!(next_year.year, 2023);
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(Time::date(2022, 1, 1) < Time::date(2022, 6, 1));
        assert!(Time::date(2021, 12, 31) < Time::date(2022, 1, 1));
    }
}
