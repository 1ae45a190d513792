//! The output checks: planted-truth validation of a report and byte
//! identity of a served or re-derived report against a direct run.
//!
//! Neither check compares against a stored copy of earlier output. The
//! truth is the preset's planted `DeviceConfig`, built apart from
//! discovery, and the reference bytes come from a fresh `Job::run`.

use mt4g_core::report::Report;
use mt4g_core::suite::JobSpec;
use mt4g_core::validate::validate_scenario;
use mt4g_sim::presets::Registry;

/// Outcome of checking one report against its planted ground truth.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Attributes that had both a measured value and a planted truth.
    pub checked: u32,
    /// Checked attributes that disagreed.
    pub mismatches: u32,
    /// One line per mismatch (or the reason the report could not be read).
    pub notes: Vec<String>,
}

impl Verdict {
    /// A report passes when something was checked and nothing disagreed.
    pub fn passed(&self) -> bool {
        self.checked > 0 && self.mismatches == 0
    }
}

/// Parses report bytes and validates them with `validate_scenario`
/// against the planted configuration of the cell's preset.
pub fn validate_bytes(spec: &JobSpec, bytes: &str) -> Verdict {
    let report: Report = match serde_json::from_str(bytes) {
        Ok(r) => r,
        Err(e) => {
            return Verdict {
                mismatches: 1,
                notes: vec![format!("report does not parse: {e}")],
                ..Verdict::default()
            }
        }
    };
    let Some(entry) = Registry::global().get(&spec.gpu) else {
        return Verdict {
            mismatches: 1,
            notes: vec![format!("unknown preset {}", spec.gpu)],
            ..Verdict::default()
        };
    };
    match validate_scenario(&report, &entry.gpu().config, &spec.scenario) {
        Ok(v) => Verdict {
            checked: v.checked,
            mismatches: v.mismatches,
            notes: v.notes,
        },
        Err(e) => Verdict {
            mismatches: 1,
            notes: vec![format!("scenario does not apply: {e}")],
            ..Verdict::default()
        },
    }
}

/// Byte identity: `None` when `got` equals `want`, otherwise where the
/// two first differ.
pub fn first_difference(want: &str, got: &str) -> Option<String> {
    if want == got {
        return None;
    }
    let at = want
        .bytes()
        .zip(got.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(want.len().min(got.len()));
    Some(format!(
        "bytes differ at offset {at} (lengths {} vs {})",
        want.len(),
        got.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt4g_core::serve::parse_request;
    use mt4g_sim::device::CacheKind;

    fn cheap_spec() -> JobSpec {
        parse_request(r#"{"op":"discover","gpu":"T1000","only":"cl1"}"#)
            .unwrap()
            .to_spec(1)
            .unwrap()
    }

    fn run(spec: &JobSpec) -> String {
        spec.clone().resolve().unwrap().run().unwrap().bytes
    }

    #[test]
    fn a_direct_run_passes_validation() {
        let spec = cheap_spec();
        let v = validate_bytes(&spec, &run(&spec));
        assert!(v.passed(), "{v:?}");
    }

    #[test]
    fn a_report_with_one_altered_cache_size_is_rejected() {
        let spec = cheap_spec();
        let mut report: Report = serde_json::from_str(&run(&spec)).unwrap();
        let row = report.element_mut(CacheKind::ConstL1);
        let size = row.size.value().copied().expect("cl1 size measured");
        row.size = mt4g_core::report::Attribute::Measured {
            value: size + 64,
            confidence: 1.0,
        };
        let altered = mt4g_core::report::to_json_pretty(&report).unwrap();
        let v = validate_bytes(&spec, &altered);
        assert!(!v.passed());
        assert_eq!(v.mismatches, 1, "{v:?}");
    }

    #[test]
    fn one_altered_byte_fails_byte_identity() {
        let spec = cheap_spec();
        let bytes = run(&spec);
        assert_eq!(first_difference(&bytes, &bytes), None);
        let mut altered = bytes.clone().into_bytes();
        let i = altered.len() / 2;
        altered[i] = if altered[i] == b'1' { b'2' } else { b'1' };
        let altered = String::from_utf8(altered).unwrap();
        let diff = first_difference(&bytes, &altered).expect("rejected");
        assert!(diff.contains(&format!("offset {i}")), "{diff}");
    }
}
