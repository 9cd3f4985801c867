//! Named metric values, and how one is printed.

use crate::catalogue::{self, MetricDef};

/// Metric values in insertion order. A ratio is set together with its
/// base — the two quantities it divides — so that it is never printed
/// without them.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
    bases: Vec<(&'static str, String)>,
}

/// Units of metrics that divide one quantity by another.
pub fn is_ratio(def: &MetricDef) -> bool {
    matches!(def.unit, "x" | "share" | "%" | "1/s" | "1/event" | "1/msg")
}

impl Metrics {
    fn def(name: &str) -> &'static MetricDef {
        catalogue::metric(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
    }

    fn put(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// Sets the plain (non-ratio) metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            !is_ratio(Self::def(name)),
            "{name} is a ratio: use set_ratio"
        );
        self.put(name, value);
    }

    /// Sets the ratio metric `name` to `scale × numerator ÷ denominator`
    /// (zero when the denominator is zero) and records the base.
    pub fn set_ratio(&mut self, name: &'static str, numerator: f64, denominator: f64, what: &str) {
        let def = Self::def(name);
        assert!(is_ratio(def), "{name} is not a ratio");
        let scale = if def.unit == "%" { 100.0 } else { 1.0 };
        let value = if denominator == 0.0 {
            0.0
        } else {
            scale * numerator / denominator
        };
        let base = format!("{numerator} ÷ {denominator} {what}");
        self.insert(name, value, Some(&base));
    }

    /// Sets `name` to a value (and base) computed elsewhere — by a child
    /// process.
    pub fn insert(&mut self, name: &'static str, value: f64, base: Option<&str>) {
        self.put(name, value);
        self.bases.retain(|(n, _)| *n != name);
        if let Some(base) = base {
            self.bases.push((name, base.to_string()));
        }
    }

    /// Copies `name` (value and base) from `other`, if it has it.
    pub fn copy_from(&mut self, other: &Metrics, name: &'static str) {
        if let Some(value) = other.get(name) {
            self.insert(name, value, other.base(name));
        }
    }

    /// Adds every entry of `other`, overwriting equal names.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, _) in &other.values {
            self.copy_from(other, name);
        }
    }

    /// Whether nothing is set.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The base of ratio `name`, if set.
    pub fn base(&self, name: &str) -> Option<&str> {
        self.bases
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, b)| b.as_str())
    }

    /// The `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values.iter().copied()
    }

    /// Names that both `self` and `other` have, with values that differ
    /// bit for bit.
    pub fn conflicts(&self, other: &Metrics) -> Vec<&'static str> {
        self.iter()
            .filter(|(n, v)| other.get(n).is_some_and(|o| o.to_bits() != v.to_bits()))
            .map(|(n, _)| n)
            .collect()
    }

    /// One printed line: name, value with all its digits, unit, and for a
    /// ratio its base.
    ///
    /// # Panics
    ///
    /// Panics if `name` is a ratio without a base, or is not set.
    pub fn line(&self, name: &str) -> String {
        let def = Self::def(name);
        let value = self
            .get(name)
            .unwrap_or_else(|| panic!("{name} is not set"));
        let mut line = format!("{:<28} {:>18} {}", def.name, format!("{value}"), def.unit);
        if is_ratio(def) {
            let base = self
                .base(name)
                .unwrap_or_else(|| panic!("ratio {name} has no base"));
            line.push_str(&format!("  ({base})"));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_print_their_base() {
        let mut m = Metrics::default();
        m.set_ratio("core.retry_share", 638.0, 4911.0, "faults");
        m.set_ratio(
            "virt_ref_err_pct",
            1.2,
            19.3,
            "us (|measured - paper| ÷ paper)",
        );
        m.set("host_wall_ms", 301.25);
        let line = m.line("core.retry_share");
        assert!(line.contains("638 ÷ 4911 faults"), "{line}");
        assert!(line.contains("share"), "{line}");
        assert!((m.get("virt_ref_err_pct").unwrap() - 100.0 * 1.2 / 19.3).abs() < 1e-12);
        assert!(m.line("virt_ref_err_pct").contains("÷ 19.3"));
        assert!(!m.line("host_wall_ms").contains('÷'));
    }

    #[test]
    #[should_panic(expected = "is a ratio")]
    fn a_ratio_cannot_be_set_without_its_base() {
        Metrics::default().set("virt_speedup", 2.0);
    }

    #[test]
    fn a_metric_named_as_a_ratio_has_a_ratio_unit() {
        for def in catalogue::METRICS {
            let named_ratio = ["_ratio", "_share", "_speedup", "_pct"]
                .iter()
                .any(|suffix| def.name.ends_with(suffix));
            assert!(!named_ratio || is_ratio(def), "{}", def.name);
        }
    }

    #[test]
    fn zero_denominator_gives_zero() {
        let mut m = Metrics::default();
        m.set_ratio("core.retry_share", 0.0, 0.0, "faults");
        assert_eq!(m.get("core.retry_share"), Some(0.0));
    }

    #[test]
    fn conflicts_are_bitwise_and_only_on_shared_names() {
        let mut a = Metrics::default();
        let mut b = Metrics::default();
        a.set("virt_time_ms", 0.1 + 0.2);
        b.set("virt_time_ms", 0.3);
        a.set("net.msgs", 5.0);
        b.set("net.msgs", 5.0);
        b.set("net.pages", 1.0);
        assert_eq!(a.conflicts(&b), vec!["virt_time_ms"]);
        assert_eq!(b.conflicts(&a), vec!["virt_time_ms"]);
        assert!(a.conflicts(&a.clone()).is_empty());
    }
}
