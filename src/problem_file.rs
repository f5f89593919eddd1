//! The `.problem` file format: one `CERTAINTY(q, FK)` problem, optionally
//! with an inline database.
//!
//! ```text
//! # comment lines and blank lines are ignored
//! schema: N[2,1] O[1,1] P[1,1]
//! query:  N('c',y), O(y), P(y)
//! fks:    N[2] -> O
//! db:     N(c,a) N(c,b) O(a) P(a)
//! ```
//!
//! `schema:` and `query:` are required, `fks:` and `db:` optional; a
//! repeated key keeps its last value. The field texts use the syntax of
//! [`cqa_model::parser`], which this module does not parse: it only splits
//! the file into its fields.

use std::fmt;

/// The fields of a `.problem` file, as text.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProblemFile {
    /// The `schema:` text.
    pub schema: String,
    /// The `query:` text.
    pub query: String,
    /// The `fks:` text (empty when absent).
    pub fks: String,
    /// The `db:` text, if the file carries an inline database.
    pub db: Option<String>,
}

/// Why a `.problem` file could not be split into its fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProblemFileError {
    /// A line that is not blank, a `#` comment, or a known `key:` field.
    UnrecognizedLine(String),
    /// No `schema:` line.
    MissingSchema,
    /// No `query:` line.
    MissingQuery,
}

impl fmt::Display for ProblemFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemFileError::UnrecognizedLine(line) => write!(f, "unrecognized line `{line}`"),
            ProblemFileError::MissingSchema => write!(f, "missing `schema:` line"),
            ProblemFileError::MissingQuery => write!(f, "missing `query:` line"),
        }
    }
}

impl std::error::Error for ProblemFileError {}

/// Splits a `.problem` file into its fields.
pub fn parse_problem_file(text: &str) -> Result<ProblemFile, ProblemFileError> {
    let (mut schema, mut query, mut fks, mut db) = (None, None, String::new(), None);
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line.split_once(':') {
            Some(("schema", rest)) => schema = Some(rest.trim().to_string()),
            Some(("query", rest)) => query = Some(rest.trim().to_string()),
            Some(("fks", rest)) => fks = rest.trim().to_string(),
            Some(("db", rest)) => db = Some(rest.trim().to_string()),
            _ => return Err(ProblemFileError::UnrecognizedLine(line.to_string())),
        }
    }
    Ok(ProblemFile {
        schema: schema.ok_or(ProblemFileError::MissingSchema)?,
        query: query.ok_or(ProblemFileError::MissingQuery)?,
        fks,
        db,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_comments_and_errors() {
        let file = parse_problem_file(
            "# a comment\n\nschema: R[2,1] S[1,1]\nquery:  R(x,y), S(y)\nfks: R[2] -> S\n",
        )
        .unwrap();
        assert_eq!(file.schema, "R[2,1] S[1,1]");
        assert_eq!(file.query, "R(x,y), S(y)");
        assert_eq!(file.fks, "R[2] -> S");
        assert_eq!(file.db, None);
        assert_eq!(
            parse_problem_file("schema: R[1,1]\nbogus"),
            Err(ProblemFileError::UnrecognizedLine("bogus".into()))
        );
        assert_eq!(
            parse_problem_file("query: R(x)"),
            Err(ProblemFileError::MissingSchema)
        );
        assert_eq!(
            parse_problem_file("schema: R[1,1]"),
            Err(ProblemFileError::MissingQuery)
        );
        assert_eq!(
            ProblemFileError::MissingQuery.to_string(),
            "missing `query:` line"
        );
    }
}
