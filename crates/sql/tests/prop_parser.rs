#![allow(clippy::unwrap_used)]
//! Property tests for the SQL front end: the parser never panics, and
//! structurally-generated queries round-trip through parsing.

use presto_sql::ast::{SelectItem, Statement};
use presto_sql::parse_statement;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Fuzz-lite: arbitrary strings must produce Ok or a user error —
    /// never a panic, never a non-user error code.
    #[test]
    fn parser_never_panics(input in ".{0,120}") {
        match parse_statement(&input) {
            Ok(_) => {}
            Err(e) => prop_assert_eq!(e.code, presto_common::ErrorCode::User),
        }
    }

    /// SQL-shaped fuzzing: random token soup from the SQL vocabulary.
    #[test]
    fn parser_survives_sql_token_soup(
        tokens in proptest::collection::vec(
            prop_oneof![
                Just("SELECT".to_string()), Just("FROM".to_string()),
                Just("WHERE".to_string()), Just("GROUP".to_string()),
                Just("BY".to_string()), Just("ORDER".to_string()),
                Just("JOIN".to_string()), Just("ON".to_string()),
                Just("AND".to_string()), Just("OR".to_string()),
                Just("(".to_string()), Just(")".to_string()),
                Just(",".to_string()), Just("*".to_string()),
                Just("=".to_string()), Just("<".to_string()),
                Just("1".to_string()), Just("'x'".to_string()),
                Just("t".to_string()), Just("a".to_string()),
                Just("CASE".to_string()), Just("WHEN".to_string()),
                Just("END".to_string()), Just("CAST".to_string()),
                Just("AS".to_string()), Just("LIMIT".to_string()),
            ],
            0..25,
        )
    ) {
        let sql = tokens.join(" ");
        match parse_statement(&sql) {
            Ok(_) => {}
            Err(e) => prop_assert_eq!(e.code, presto_common::ErrorCode::User),
        }
    }

    /// Structured round-trip: generated SELECT lists parse back with the
    /// same item count and aliases.
    #[test]
    fn select_list_round_trips(
        columns in proptest::collection::vec("c_[a-z0-9_]{0,8}", 1..6),
        aliased in proptest::collection::vec(any::<bool>(), 1..6),
        limit in proptest::option::of(0u64..1000),
    ) {
        let items: Vec<String> = columns
            .iter()
            .zip(aliased.iter().chain(std::iter::repeat(&false)))
            .map(|(c, a)| if *a { format!("{c} AS {c}_alias") } else { c.clone() })
            .collect();
        let mut sql = format!("SELECT {} FROM some_table", items.join(", "));
        if let Some(n) = limit {
            sql.push_str(&format!(" LIMIT {n}"));
        }
        let parsed = parse_statement(&sql).expect("generated SQL parses");
        let Statement::Query(q) = parsed else { panic!("expected query") };
        prop_assert_eq!(q.limit, limit);
        prop_assert_eq!(q.terms[0].items.len(), columns.len());
        for (item, (c, a)) in q.terms[0].items.iter().zip(columns.iter().zip(&aliased)) {
            match item {
                SelectItem::Expr { alias, .. } => {
                    if *a {
                        prop_assert_eq!(alias.clone(), Some(format!("{c}_alias")));
                    } else {
                        prop_assert_eq!(alias.clone(), None);
                    }
                }
                other => prop_assert!(false, "unexpected item {:?}", other),
            }
        }
    }

    /// Numeric literal round-trip through the lexer.
    #[test]
    fn integer_literals_round_trip(n in any::<i32>()) {
        let sql = format!("SELECT {n}");
        let parsed = parse_statement(&sql).expect("parses");
        let Statement::Query(q) = parsed else { panic!() };
        let SelectItem::Expr { expr, .. } = &q.terms[0].items[0] else { panic!() };
        let repr = format!("{expr:?}");
        prop_assert!(repr.contains(&n.abs().to_string()), "{repr}");
    }
}
