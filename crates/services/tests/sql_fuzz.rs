//! Robustness fuzzing of the SQL engine: arbitrary input must produce
//! `Err`, never a panic, and generated *valid* statements must execute.

use proptest::prelude::*;

use microfaas_services::sqldb::{Database, QueryOutput, SqlValue};

fn seeded() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INTEGER, b TEXT, c REAL)")
        .expect("create");
    for i in 0..20 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, 'row{i}', {i}.5)"))
            .expect("insert");
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary byte soup never panics the parser or executor.
    #[test]
    fn arbitrary_input_never_panics(sql in ".{0,80}") {
        let mut db = seeded();
        let _ = db.execute(&sql);
        let _ = db.handle_raw(sql.as_bytes());
    }

    /// SQL-shaped token soup never panics either.
    #[test]
    fn sql_shaped_soup_never_panics(
        tokens in prop::collection::vec(
            prop_oneof![
                Just("SELECT".to_string()),
                Just("FROM".to_string()),
                Just("WHERE".to_string()),
                Just("UPDATE".to_string()),
                Just("DELETE".to_string()),
                Just("INSERT".to_string()),
                Just("INTO".to_string()),
                Just("VALUES".to_string()),
                Just("ORDER".to_string()),
                Just("BY".to_string()),
                Just("LIMIT".to_string()),
                Just("AND".to_string()),
                Just("*".to_string()),
                Just("(".to_string()),
                Just(")".to_string()),
                Just(",".to_string()),
                Just("=".to_string()),
                Just("<=".to_string()),
                Just("t".to_string()),
                Just("a".to_string()),
                Just("'text'".to_string()),
                Just("42".to_string()),
                Just("-1.5".to_string()),
            ],
            0..12,
        )
    ) {
        let sql = tokens.join(" ");
        let mut db = seeded();
        let _ = db.execute(&sql);
    }

    /// Generated well-formed SELECTs always succeed and respect LIMIT.
    #[test]
    fn generated_selects_execute(
        lo in 0i64..20,
        span in 0i64..20,
        limit in 0usize..30,
        descending in any::<bool>(),
    ) {
        let mut db = seeded();
        let hi = lo + span;
        let order = if descending { "DESC" } else { "ASC" };
        let sql = format!(
            "SELECT a, c FROM t WHERE a >= {lo} AND a <= {hi} ORDER BY a {order} LIMIT {limit}"
        );
        let out = db.execute(&sql).expect("well-formed select");
        match out {
            QueryOutput::Rows { rows, columns } => {
                prop_assert_eq!(columns, vec!["a".to_string(), "c".to_string()]);
                let expected = ((hi.min(19) - lo + 1).max(0) as usize).min(limit);
                prop_assert_eq!(rows.len(), expected, "{}", sql);
                // Ordering holds.
                for pair in rows.windows(2) {
                    let (SqlValue::Integer(x), SqlValue::Integer(y)) = (&pair[0][0], &pair[1][0])
                    else {
                        panic!("column a is INTEGER");
                    };
                    if descending {
                        prop_assert!(x >= y);
                    } else {
                        prop_assert!(x <= y);
                    }
                }
            }
            other => prop_assert!(false, "expected rows, got {:?}", other),
        }
    }

    /// UPDATE then COUNT(*) agree on the number of affected rows.
    #[test]
    fn update_and_count_agree(threshold in 0i64..25) {
        let mut db = seeded();
        let updated = match db
            .execute(&format!("UPDATE t SET b = 'x' WHERE a < {threshold}"))
            .expect("update")
        {
            QueryOutput::Affected(n) => n,
            other => panic!("expected affected count, got {other:?}"),
        };
        let counted = match db
            .execute("SELECT COUNT(*) FROM t WHERE b = 'x'")
            .expect("count")
        {
            QueryOutput::Rows { rows, .. } => match rows[0][0] {
                SqlValue::Integer(n) => n as usize,
                ref other => panic!("expected integer, got {other:?}"),
            },
            other => panic!("expected rows, got {other:?}"),
        };
        prop_assert_eq!(updated, counted);
    }
}
