//! Group-by aggregation over [`DataFrame`]s.

use crate::column::Column;
use crate::error::Result;
use crate::frame::DataFrame;
use crate::stats;

/// Aggregation functions applicable to a numeric column within a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// Sum of present values (0 for an empty group).
    Sum,
    /// Mean of present values (null for an empty group).
    Mean,
    /// Count of present (non-null) values.
    Count,
    /// Minimum of present values (null for empty).
    Min,
    /// Maximum of present values (null for empty).
    Max,
    /// Median of present values (null for empty).
    Median,
}

impl AggFn {
    /// Display name used for the output column suffix.
    pub(crate) fn name(self) -> &'static str {
        match self {
            AggFn::Sum => "sum",
            AggFn::Mean => "mean",
            AggFn::Count => "count",
            AggFn::Min => "min",
            AggFn::Max => "max",
            AggFn::Median => "median",
        }
    }

    fn apply(self, values: &[f64]) -> Option<f64> {
        match self {
            AggFn::Sum => Some(stats::sum(values)),
            AggFn::Mean => stats::mean(values),
            AggFn::Count => Some(values.len() as f64),
            AggFn::Min => values.iter().copied().reduce(f64::min),
            AggFn::Max => values.iter().copied().reduce(f64::max),
            AggFn::Median => stats::median(values),
        }
    }
}

/// Groups `df` by the string column `key` and applies each `(column, fn)`
/// pair within each group. The output has one row per group, a `key` string
/// column (null key preserved) and one `column_fn` column per aggregation.
pub fn group_by(df: &DataFrame, key: &str, aggs: &[(&str, AggFn)]) -> Result<DataFrame> {
    let groups = df.group_indices_by_str(key)?;
    let mut keys: Vec<Option<String>> = Vec::with_capacity(groups.len());
    let mut outputs: Vec<Vec<Option<f64>>> = vec![Vec::with_capacity(groups.len()); aggs.len()];

    // Pre-fetch numeric views once per aggregated column.
    let mut numeric_cache: Vec<Vec<Option<f64>>> = Vec::with_capacity(aggs.len());
    for (col, _) in aggs {
        numeric_cache.push(df.numeric(col)?);
    }

    for (k, rows) in groups {
        keys.push(k);
        for (slot, ((_, agg), values)) in aggs.iter().zip(&numeric_cache).enumerate() {
            let present: Vec<f64> = rows.iter().filter_map(|&i| values[i]).collect();
            outputs[slot].push(agg.apply(&present));
        }
    }

    let mut out = DataFrame::new().with_column(key, Column::Str(keys))?;
    for ((col, agg), values) in aggs.iter().zip(outputs) {
        out.add_column(format!("{col}_{}", agg.name()), Column::F64(values))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Value;

    fn df() -> DataFrame {
        DataFrame::new()
            .with_column(
                "country",
                Column::from_str_iter(["US", "FR", "US", "FR", "JP"]),
            )
            .unwrap()
            .with_column(
                "carbon",
                Column::F64(vec![Some(10.0), Some(4.0), Some(20.0), None, Some(7.0)]),
            )
            .unwrap()
    }

    #[test]
    fn group_sum_and_count() {
        let g = group_by(
            &df(),
            "country",
            &[("carbon", AggFn::Sum), ("carbon", AggFn::Count)],
        )
        .unwrap();
        assert_eq!(g.len(), 3);
        // US first (first appearance order).
        assert_eq!(g.value("country", 0).unwrap(), Value::Str("US".into()));
        assert_eq!(g.value("carbon_sum", 0).unwrap(), Value::F64(30.0));
        // FR: one null dropped.
        assert_eq!(g.value("carbon_count", 1).unwrap(), Value::F64(1.0));
    }

    #[test]
    fn group_mean_of_empty_group_is_null() {
        let base = DataFrame::new()
            .with_column("k", Column::from_str_iter(["a"]))
            .unwrap()
            .with_column("v", Column::F64(vec![None]))
            .unwrap();
        let g = group_by(&base, "k", &[("v", AggFn::Mean)]).unwrap();
        assert_eq!(g.value("v_mean", 0).unwrap(), Value::Null);
    }

    #[test]
    fn min_max_median() {
        let g = group_by(
            &df(),
            "country",
            &[
                ("carbon", AggFn::Min),
                ("carbon", AggFn::Max),
                ("carbon", AggFn::Median),
            ],
        )
        .unwrap();
        assert_eq!(g.value("carbon_min", 0).unwrap(), Value::F64(10.0));
        assert_eq!(g.value("carbon_max", 0).unwrap(), Value::F64(20.0));
        assert_eq!(g.value("carbon_median", 0).unwrap(), Value::F64(15.0));
    }

    #[test]
    fn unknown_agg_column_errors() {
        assert!(group_by(&df(), "country", &[("nope", AggFn::Sum)]).is_err());
    }
}
