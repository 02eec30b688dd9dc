//! Column-oriented data table.
//!
//! A [`DataTable`] pairs a [`Schema`] with an `n × m` matrix of values
//! (records are rows, attributes are columns). It is the common currency of
//! the whole workspace: the randomization schemes take an original table and
//! produce a disguised one, the reconstruction attacks take the disguised
//! table and produce an estimate, and the metrics compare tables.

use crate::error::{DataError, Result};
use crate::schema::Schema;
use randrecon_linalg::Matrix;
use randrecon_stats::summary;
use serde::{Deserialize, Serialize};

/// A named table of `f64` records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataTable {
    schema: Schema,
    values: Matrix,
}

impl DataTable {
    /// Creates a table from a schema and a value matrix whose column count
    /// matches the schema.
    pub fn new(schema: Schema, values: Matrix) -> Result<Self> {
        if schema.len() != values.cols() {
            return Err(DataError::SchemaMismatch {
                reason: format!(
                    "schema has {} attributes but the matrix has {} columns",
                    schema.len(),
                    values.cols()
                ),
            });
        }
        Ok(DataTable { schema, values })
    }

    /// Creates a table with an anonymous schema (`a0, a1, …`) from a value matrix.
    pub fn from_matrix(values: Matrix) -> Result<Self> {
        let schema = Schema::anonymous(values.cols())?;
        DataTable::new(schema, values)
    }

    /// Creates a table from named columns.
    pub fn from_named_columns(columns: &[(&str, Vec<f64>)]) -> Result<Self> {
        let schema = Schema::new(
            columns
                .iter()
                .map(|(name, _)| crate::schema::Attribute::sensitive(*name))
                .collect(),
        )?;
        let cols: Vec<Vec<f64>> = columns.iter().map(|(_, c)| c.clone()).collect();
        let values = Matrix::from_columns(&cols)?;
        DataTable::new(schema, values)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The underlying value matrix (records are rows).
    pub fn values(&self) -> &Matrix {
        &self.values
    }

    /// Number of records (rows).
    pub fn n_records(&self) -> usize {
        self.values.rows()
    }

    /// Number of attributes (columns).
    pub fn n_attributes(&self) -> usize {
        self.values.cols()
    }

    /// Record `i` as a slice.
    pub fn record(&self, i: usize) -> &[f64] {
        self.values.row(i)
    }

    /// Iterator over records.
    pub fn records(&self) -> impl Iterator<Item = &[f64]> {
        self.values.row_iter()
    }

    /// Column by index.
    pub fn column(&self, j: usize) -> Vec<f64> {
        self.values.column(j)
    }

    /// Per-attribute means.
    pub fn mean_vector(&self) -> Vec<f64> {
        summary::mean_vector(&self.values)
    }

    /// Per-attribute sample variances.
    pub fn variance_vector(&self) -> Vec<f64> {
        summary::variance_vector(&self.values)
    }

    /// Sample covariance matrix of the attributes.
    pub fn covariance_matrix(&self) -> Matrix {
        summary::covariance_matrix(&self.values)
    }

    /// Sample correlation-coefficient matrix of the attributes.
    pub fn correlation_matrix(&self) -> Matrix {
        summary::correlation_matrix(&self.values)
    }

    /// Returns a new table with every column centered to zero mean, plus the
    /// mean vector that was removed. This is the adjustment PCA requires
    /// (Section 5.1.1 of the paper).
    pub fn centered(&self) -> (DataTable, Vec<f64>) {
        let (centered, means) = self.values.center_columns();
        (
            DataTable {
                schema: self.schema.clone(),
                values: centered,
            },
            means,
        )
    }

    /// Returns a new table with the given mean vector added back to every record.
    pub fn with_means_added(&self, means: &[f64]) -> Result<DataTable> {
        if means.len() != self.n_attributes() {
            return Err(DataError::SchemaMismatch {
                reason: format!(
                    "mean vector has length {} but the table has {} attributes",
                    means.len(),
                    self.n_attributes()
                ),
            });
        }
        let mut values = self.values.clone();
        values
            .add_row_broadcast(means)
            .expect("length checked above");
        Ok(DataTable {
            schema: self.schema.clone(),
            values,
        })
    }

    /// Builds a new table with the same schema but different values.
    ///
    /// This is how attacks return reconstructions: same shape and names,
    /// different numbers.
    pub fn with_values(&self, values: Matrix) -> Result<DataTable> {
        DataTable::new(self.schema.clone(), values)
    }

    /// Returns a table restricted to the first `n` records (or all of them if
    /// `n` exceeds the record count).
    pub fn head(&self, n: usize) -> DataTable {
        let n = n.min(self.n_records());
        let values = self
            .values
            .submatrix(0, n, 0, self.n_attributes())
            .expect("head range is always valid");
        DataTable {
            schema: self.schema.clone(),
            values,
        }
    }

    /// True if the tables have the same shape and every value differs by at
    /// most `tol`.
    pub fn approx_eq(&self, other: &DataTable, tol: f64) -> bool {
        self.schema == other.schema && self.values.approx_eq(&other.values, tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn sample() -> DataTable {
        DataTable::from_named_columns(&[
            ("age", vec![30.0, 40.0, 50.0, 60.0]),
            ("income", vec![30_000.0, 42_000.0, 51_000.0, 65_000.0]),
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let t = sample();
        assert_eq!(t.n_records(), 4);
        assert_eq!(t.n_attributes(), 2);
        assert_eq!(t.record(1), &[40.0, 42_000.0]);
        assert_eq!(t.records().count(), 4);
        assert_eq!(t.column(0), vec![30.0, 40.0, 50.0, 60.0]);
    }

    #[test]
    fn values_is_the_backing_matrix() {
        let t = sample();
        let m = t.values();
        assert_eq!(m.shape(), (4, 2));
        for (i, record) in t.records().enumerate() {
            assert_eq!(record, m.row(i));
            assert_eq!(t.record(i), m.row(i));
        }
        for j in 0..2 {
            assert_eq!(t.column(j), m.column(j));
        }
        let rebuilt = DataTable::new(t.schema().clone(), m.clone()).unwrap();
        assert!(rebuilt.approx_eq(&t, 0.0));
    }

    #[test]
    fn from_named_columns_rejects_ragged_and_duplicate_columns() {
        let ragged = [("a", vec![1.0, 2.0]), ("b", vec![1.0])];
        assert!(DataTable::from_named_columns(&ragged).is_err());
        let duplicate = [("a", vec![1.0]), ("a", vec![2.0])];
        assert!(DataTable::from_named_columns(&duplicate).is_err());
        assert!(DataTable::from_named_columns(&[]).is_err());
        let t = DataTable::from_named_columns(&[("x", vec![1.0]), ("y", vec![2.0])]).unwrap();
        assert_eq!(t.schema().names(), vec!["x", "y"]);
        assert_eq!(t.schema().sensitive_indices(), vec![0, 1]);
    }

    #[test]
    fn approx_eq_needs_matching_names_and_values() {
        let t = sample();
        let renamed = DataTable::from_matrix(t.values().clone()).unwrap();
        assert!(!t.approx_eq(&renamed, f64::INFINITY));
        let nudged = t.with_values(t.values().map(|v| v + 1e-6)).unwrap();
        assert!(t.approx_eq(&nudged, 1e-5));
        assert!(!t.approx_eq(&nudged, 1e-7));
    }

    #[test]
    fn schema_size_must_match_matrix() {
        let schema = Schema::new(vec![Attribute::sensitive("only_one")]).unwrap();
        let values = Matrix::zeros(3, 2);
        assert!(DataTable::new(schema, values).is_err());
    }

    #[test]
    fn from_matrix_gets_anonymous_names() {
        let t = DataTable::from_matrix(Matrix::zeros(2, 3)).unwrap();
        assert_eq!(t.schema().names(), vec!["a0", "a1", "a2"]);
    }

    #[test]
    fn statistics_pass_through() {
        let t = sample();
        let means = t.mean_vector();
        assert_eq!(means[0], 45.0);
        let cov = t.covariance_matrix();
        assert!(
            cov.get(0, 1) > 0.0,
            "age and income are positively correlated"
        );
        let corr = t.correlation_matrix();
        assert!(corr.get(0, 1) > 0.99);
        assert!(t.variance_vector()[0] > 0.0);
    }

    #[test]
    fn centering_roundtrip() {
        let t = sample();
        let (centered, means) = t.centered();
        for m in centered.mean_vector() {
            assert!(m.abs() < 1e-9);
        }
        let restored = centered.with_means_added(&means).unwrap();
        assert!(restored.approx_eq(&t, 1e-9));
        assert!(centered.with_means_added(&[1.0]).is_err());
    }

    #[test]
    fn with_values_keeps_schema() {
        let t = sample();
        let other = t.with_values(Matrix::zeros(4, 2)).unwrap();
        assert_eq!(other.schema(), t.schema());
        assert!(t.with_values(Matrix::zeros(4, 3)).is_err());
    }

    #[test]
    fn head_truncates() {
        let t = sample();
        assert_eq!(t.head(2).n_records(), 2);
        assert_eq!(t.head(100).n_records(), 4);
        assert_eq!(t.head(2).record(1), t.record(1));
    }
}
