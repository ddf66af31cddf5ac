//! Recursive-descent SQL parser.

use presto_common::time::parse_date;
use presto_common::{PrestoError, Result, Value};

use crate::ast::*;
use crate::lexer::{tokenize, Spanned, Token};

/// Parse one SQL statement.
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.parse_statement()?;
    p.expect_eof()?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos].token
    }

    fn peek_at(&self, offset: usize) -> &Token {
        let i = (self.pos + offset).min(self.tokens.len() - 1);
        &self.tokens[i].token
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].token.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn error(&self, msg: &str) -> PrestoError {
        let s = &self.tokens[self.pos];
        PrestoError::user(format!(
            "line {}:{}: {msg}, found '{}'",
            s.line, s.col, s.token
        ))
    }

    /// Consume a keyword (lowercased identifier) if present.
    fn accept_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Token::Ident(s) if s == kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Token::Ident(s) if s == kw)
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.accept_kw(kw) {
            Ok(())
        } else {
            Err(self.error(&format!("expected {}", kw.to_uppercase())))
        }
    }

    fn accept(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.accept(t) {
            Ok(())
        } else {
            Err(self.error(&format!("expected '{t}'")))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if matches!(self.peek(), Token::Eof) {
            Ok(())
        } else {
            Err(self.error("expected end of statement"))
        }
    }

    /// An identifier (quoted or not), returned in its resolved form.
    fn identifier(&mut self) -> Result<String> {
        match self.advance() {
            Token::Ident(s) => Ok(s),
            Token::QuotedIdent(s) => Ok(s),
            _ => {
                self.pos -= 1;
                Err(self.error("expected identifier"))
            }
        }
    }

    fn qualified_name(&mut self) -> Result<QualifiedName> {
        let mut parts = vec![self.identifier()?];
        while self.accept(&Token::Dot) {
            parts.push(self.identifier()?);
        }
        Ok(QualifiedName::new(parts))
    }

    fn parse_statement(&mut self) -> Result<Statement> {
        if self.accept_kw("explain") {
            // ANALYZE is contextual, not reserved: `EXPLAIN ANALYZE` only.
            if self.accept_kw("analyze") {
                return Ok(Statement::ExplainAnalyze(Box::new(self.parse_statement()?)));
            }
            return Ok(Statement::Explain(Box::new(self.parse_statement()?)));
        }
        if self.accept_kw("insert") {
            self.expect_kw("into")?;
            let table = self.qualified_name()?;
            let query = self.parse_query()?;
            return Ok(Statement::Insert { table, query });
        }
        Ok(Statement::Query(self.parse_query()?))
    }

    fn parse_query(&mut self) -> Result<Query> {
        let mut terms = vec![self.parse_select()?];
        while self.peek_kw("union") {
            self.advance();
            self.expect_kw("all")?;
            terms.push(self.parse_select()?);
        }
        let order_by = if self.accept_kw("order") {
            self.expect_kw("by")?;
            self.order_items()?
        } else {
            Vec::new()
        };
        let limit = if self.accept_kw("limit") {
            match self.advance() {
                Token::Integer(n) if n >= 0 => Some(n as u64),
                _ => {
                    self.pos -= 1;
                    return Err(self.error("expected LIMIT count"));
                }
            }
        } else {
            None
        };
        Ok(Query {
            terms,
            order_by,
            limit,
        })
    }

    fn order_items(&mut self) -> Result<Vec<OrderItem>> {
        let mut items = Vec::new();
        loop {
            let expr = self.parse_expr()?;
            let ascending = if self.accept_kw("desc") {
                false
            } else {
                self.accept_kw("asc");
                true
            };
            // Default: NULLS LAST for ASC, NULLS FIRST for DESC (ANSI).
            let mut nulls_first = !ascending;
            if self.accept_kw("nulls") {
                if self.accept_kw("first") {
                    nulls_first = true;
                } else {
                    self.expect_kw("last")?;
                    nulls_first = false;
                }
            }
            items.push(OrderItem {
                expr,
                ascending,
                nulls_first,
            });
            if !self.accept(&Token::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn parse_select(&mut self) -> Result<Select> {
        self.expect_kw("select")?;
        let distinct = self.accept_kw("distinct");
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.accept(&Token::Comma) {
                break;
            }
        }
        let from = if self.accept_kw("from") {
            Some(self.table_ref()?)
        } else {
            None
        };
        let where_ = if self.accept_kw("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let group_by = if self.accept_kw("group") {
            self.expect_kw("by")?;
            let mut exprs = vec![self.parse_expr()?];
            while self.accept(&Token::Comma) {
                exprs.push(self.parse_expr()?);
            }
            exprs
        } else {
            Vec::new()
        };
        let having = if self.accept_kw("having") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Select {
            distinct,
            items,
            from,
            where_,
            group_by,
            having,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.accept(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // alias.* ?
        if let (Token::Ident(name), Token::Dot, Token::Star) = (
            self.peek().clone(),
            self.peek_at(1).clone(),
            self.peek_at(2).clone(),
        ) {
            self.advance();
            self.advance();
            self.advance();
            return Ok(SelectItem::QualifiedWildcard(name));
        }
        let expr = self.parse_expr()?;
        let alias = if self.accept_kw("as") {
            Some(self.identifier()?)
        } else {
            // Bare alias: an identifier that is not a clause keyword.
            match self.peek() {
                Token::Ident(s) if !is_reserved(s) => Some(self.identifier()?),
                Token::QuotedIdent(_) => Some(self.identifier()?),
                _ => None,
            }
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.table_primary()?;
        loop {
            let kind = if self.accept_kw("cross") {
                self.expect_kw("join")?;
                JoinKind::Cross
            } else if self.accept_kw("inner") {
                self.expect_kw("join")?;
                JoinKind::Inner
            } else if self.accept_kw("left") {
                self.accept_kw("outer");
                self.expect_kw("join")?;
                JoinKind::Left
            } else if self.accept_kw("right") {
                self.accept_kw("outer");
                self.expect_kw("join")?;
                JoinKind::Right
            } else if self.accept_kw("join") {
                JoinKind::Inner
            } else if self.accept(&Token::Comma) {
                // Implicit cross join: FROM a, b
                JoinKind::Cross
            } else {
                break;
            };
            let right = self.table_primary()?;
            let on = if kind != JoinKind::Cross {
                self.expect_kw("on")?;
                Some(self.parse_expr()?)
            } else {
                None
            };
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on,
            };
        }
        Ok(left)
    }

    fn table_primary(&mut self) -> Result<TableRef> {
        if self.accept(&Token::LParen) {
            let query = self.parse_query()?;
            self.expect(&Token::RParen)?;
            self.accept_kw("as");
            let alias = self.identifier()?;
            return Ok(TableRef::Derived {
                query: Box::new(query),
                alias,
            });
        }
        let name = self.qualified_name()?;
        let alias = if self.accept_kw("as") {
            Some(self.identifier()?)
        } else {
            match self.peek() {
                Token::Ident(s) if !is_reserved(s) => Some(self.identifier()?),
                Token::QuotedIdent(_) => Some(self.identifier()?),
                _ => None,
            }
        };
        Ok(TableRef::Table { name, alias })
    }

    // ---- expressions, precedence climbing ----

    fn parse_expr(&mut self) -> Result<AstExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<AstExpr> {
        let mut left = self.and_expr()?;
        while self.accept_kw("or") {
            let right = self.and_expr()?;
            left = AstExpr::binary(BinaryOp::Or, left, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<AstExpr> {
        let mut left = self.not_expr()?;
        while self.accept_kw("and") {
            let right = self.not_expr()?;
            left = AstExpr::binary(BinaryOp::And, left, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<AstExpr> {
        if self.accept_kw("not") {
            return Ok(AstExpr::Not(Box::new(self.not_expr()?)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<AstExpr> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.accept_kw("is") {
            let negated = self.accept_kw("not");
            self.expect_kw("null")?;
            return Ok(AstExpr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let negated = if self.peek_kw("not")
            && matches!(self.peek_at(1), Token::Ident(s) if s == "between" || s == "in" || s == "like")
        {
            self.advance();
            true
        } else {
            false
        };
        if self.accept_kw("between") {
            let low = self.additive()?;
            self.expect_kw("and")?;
            let high = self.additive()?;
            return Ok(AstExpr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.accept_kw("in") {
            self.expect(&Token::LParen)?;
            let mut list = vec![self.parse_expr()?];
            while self.accept(&Token::Comma) {
                list.push(self.parse_expr()?);
            }
            self.expect(&Token::RParen)?;
            return Ok(AstExpr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.accept_kw("like") {
            let pattern = self.additive()?;
            return Ok(AstExpr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if negated {
            return Err(self.error("expected BETWEEN, IN or LIKE after NOT"));
        }
        let op = match self.peek() {
            Token::Eq => BinaryOp::Eq,
            Token::Ne => BinaryOp::Ne,
            Token::Lt => BinaryOp::Lt,
            Token::Le => BinaryOp::Le,
            Token::Gt => BinaryOp::Gt,
            Token::Ge => BinaryOp::Ge,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.additive()?;
        Ok(AstExpr::binary(op, left, right))
    }

    fn additive(&mut self) -> Result<AstExpr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinaryOp::Add,
                Token::Minus => BinaryOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.multiplicative()?;
            left = AstExpr::binary(op, left, right);
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<AstExpr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinaryOp::Mul,
                Token::Slash => BinaryOp::Div,
                Token::Percent => BinaryOp::Mod,
                _ => break,
            };
            self.advance();
            let right = self.unary()?;
            left = AstExpr::binary(op, left, right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<AstExpr> {
        if self.accept(&Token::Minus) {
            return Ok(AstExpr::Unary {
                minus: true,
                expr: Box::new(self.unary()?),
            });
        }
        if self.accept(&Token::Plus) {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<AstExpr> {
        match self.peek().clone() {
            Token::Integer(v) => {
                self.advance();
                Ok(AstExpr::Literal(Value::Bigint(v)))
            }
            Token::Float(v) => {
                self.advance();
                Ok(AstExpr::Literal(Value::Double(v)))
            }
            Token::String(s) => {
                self.advance();
                Ok(AstExpr::Literal(Value::varchar(s)))
            }
            Token::LParen => {
                self.advance();
                let e = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(word) => match word.as_str() {
                "true" => {
                    self.advance();
                    Ok(AstExpr::Literal(Value::Boolean(true)))
                }
                "false" => {
                    self.advance();
                    Ok(AstExpr::Literal(Value::Boolean(false)))
                }
                "null" => {
                    self.advance();
                    Ok(AstExpr::Literal(Value::Null))
                }
                "date" if matches!(self.peek_at(1), Token::String(_)) => {
                    self.advance();
                    let s = match self.advance() {
                        Token::String(s) => s,
                        _ => unreachable!(),
                    };
                    let days = parse_date(&s)
                        .ok_or_else(|| PrestoError::user(format!("invalid date literal '{s}'")))?;
                    Ok(AstExpr::Literal(Value::Date(days)))
                }
                "case" => self.case_expr(),
                "cast" => self.cast_expr(),
                w if is_reserved(w) => Err(self.error("expected expression")),
                _ => self.identifier_or_call(),
            },
            Token::QuotedIdent(_) => self.identifier_or_call(),
            _ => Err(self.error("expected expression")),
        }
    }

    fn case_expr(&mut self) -> Result<AstExpr> {
        self.expect_kw("case")?;
        let operand = if !self.peek_kw("when") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        let mut branches = Vec::new();
        while self.accept_kw("when") {
            let cond = self.parse_expr()?;
            self.expect_kw("then")?;
            let result = self.parse_expr()?;
            branches.push((cond, result));
        }
        if branches.is_empty() {
            return Err(self.error("CASE requires at least one WHEN branch"));
        }
        let otherwise = if self.accept_kw("else") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_kw("end")?;
        Ok(AstExpr::Case {
            operand,
            branches,
            otherwise,
        })
    }

    fn cast_expr(&mut self) -> Result<AstExpr> {
        self.expect_kw("cast")?;
        self.expect(&Token::LParen)?;
        let expr = self.parse_expr()?;
        self.expect_kw("as")?;
        let type_name = self.identifier()?;
        self.expect(&Token::RParen)?;
        Ok(AstExpr::Cast {
            expr: Box::new(expr),
            type_name,
        })
    }

    fn identifier_or_call(&mut self) -> Result<AstExpr> {
        let name = self.qualified_name()?;
        if !matches!(self.peek(), Token::LParen) {
            return Ok(AstExpr::Identifier(name));
        }
        let mut parts = name.parts.into_iter();
        let (Some(fname), None) = (parts.next(), parts.next()) else {
            return Err(self.error("qualified function names are not supported"));
        };
        self.advance(); // (
        let mut distinct = false;
        let mut wildcard = false;
        let mut args = Vec::new();
        if self.accept(&Token::Star) {
            wildcard = true;
        } else if !matches!(self.peek(), Token::RParen) {
            distinct = self.accept_kw("distinct");
            args.push(self.parse_expr()?);
            while self.accept(&Token::Comma) {
                args.push(self.parse_expr()?);
            }
        }
        self.expect(&Token::RParen)?;
        let over = if self.accept_kw("over") {
            self.expect(&Token::LParen)?;
            let partition_by = if self.accept_kw("partition") {
                self.expect_kw("by")?;
                let mut exprs = vec![self.parse_expr()?];
                while self.accept(&Token::Comma) {
                    exprs.push(self.parse_expr()?);
                }
                exprs
            } else {
                Vec::new()
            };
            let order_by = if self.accept_kw("order") {
                self.expect_kw("by")?;
                self.order_items()?
            } else {
                Vec::new()
            };
            self.expect(&Token::RParen)?;
            Some(WindowSpec {
                partition_by,
                order_by,
            })
        } else {
            None
        };
        Ok(AstExpr::Call {
            name: fname,
            args,
            distinct,
            wildcard,
            over,
        })
    }
}

/// Keywords that terminate an implicit alias position. Keeping this list
/// tight (only clause starters) lets users write `SELECT a value FROM t`.
fn is_reserved(word: &str) -> bool {
    matches!(
        word,
        "select"
            | "from"
            | "where"
            | "group"
            | "having"
            | "order"
            | "limit"
            | "union"
            | "join"
            | "inner"
            | "left"
            | "right"
            | "full"
            | "cross"
            | "on"
            | "as"
            | "and"
            | "or"
            | "not"
            | "between"
            | "in"
            | "like"
            | "is"
            | "when"
            | "then"
            | "else"
            | "end"
            | "asc"
            | "desc"
            | "nulls"
            | "over"
            | "insert"
            | "into"
            | "explain"
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn query(sql: &str) -> Query {
        match parse_statement(sql).unwrap() {
            Statement::Query(q) => q,
            other => panic!("expected query, got {other:?}"),
        }
    }

    #[test]
    fn paper_example_query_parses() {
        // The §IV-B3 example from the paper.
        let q = query(
            "SELECT orders.orderkey, SUM(tax) \
             FROM orders \
             LEFT JOIN lineitem ON orders.orderkey = lineitem.orderkey \
             WHERE discount = 0 \
             GROUP BY orders.orderkey",
        );
        let select = &q.terms[0];
        assert_eq!(select.items.len(), 2);
        assert_eq!(select.group_by.len(), 1);
        match select.from.as_ref().unwrap() {
            TableRef::Join {
                kind: JoinKind::Left,
                on: Some(_),
                ..
            } => {}
            other => panic!("expected left join, got {other:?}"),
        }
        assert!(select.where_.is_some());
    }

    #[test]
    fn select_items_and_aliases() {
        let q = query("SELECT a, b AS total, c d, t.* , * FROM t");
        let items = &q.terms[0].items;
        assert_eq!(items.len(), 5);
        assert!(matches!(&items[0], SelectItem::Expr { alias: None, .. }));
        assert!(matches!(&items[1], SelectItem::Expr { alias: Some(a), .. } if a == "total"));
        assert!(matches!(&items[2], SelectItem::Expr { alias: Some(a), .. } if a == "d"));
        assert!(matches!(&items[3], SelectItem::QualifiedWildcard(t) if t == "t"));
        assert!(matches!(&items[4], SelectItem::Wildcard));
    }

    #[test]
    fn operator_precedence() {
        let q = query("SELECT 1 + 2 * 3");
        match &q.terms[0].items[0] {
            SelectItem::Expr {
                expr:
                    AstExpr::Binary {
                        op: BinaryOp::Add,
                        right,
                        ..
                    },
                ..
            } => {
                assert!(matches!(
                    **right,
                    AstExpr::Binary {
                        op: BinaryOp::Mul,
                        ..
                    }
                ));
            }
            other => panic!("{other:?}"),
        }
        let q = query("SELECT a OR b AND c");
        match &q.terms[0].items[0] {
            SelectItem::Expr {
                expr:
                    AstExpr::Binary {
                        op: BinaryOp::Or,
                        right,
                        ..
                    },
                ..
            } => {
                assert!(matches!(
                    **right,
                    AstExpr::Binary {
                        op: BinaryOp::And,
                        ..
                    }
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn between_in_like_not_variants() {
        let q = query(
            "SELECT * FROM t WHERE a BETWEEN 1 AND 10 AND b NOT IN (1, 2) \
             AND c LIKE 'x%' AND d NOT LIKE '%y' AND e IS NOT NULL",
        );
        let w = q.terms[0].where_.as_ref().unwrap();
        let s = format!("{w:?}");
        assert!(s.contains("Between"));
        assert!(s.contains("InList"));
        assert!(s.contains("Like"));
        assert!(s.contains("negated: true"));
    }

    #[test]
    fn aggregates_and_windows() {
        let q = query(
            "SELECT count(*), sum(DISTINCT x), \
             rank() OVER (PARTITION BY region ORDER BY sales DESC) FROM t",
        );
        let items = &q.terms[0].items;
        assert!(matches!(
            &items[0],
            SelectItem::Expr {
                expr: AstExpr::Call { wildcard: true, .. },
                ..
            }
        ));
        assert!(matches!(
            &items[1],
            SelectItem::Expr {
                expr: AstExpr::Call { distinct: true, .. },
                ..
            }
        ));
        match &items[2] {
            SelectItem::Expr {
                expr: AstExpr::Call {
                    over: Some(spec), ..
                },
                ..
            } => {
                assert_eq!(spec.partition_by.len(), 1);
                assert_eq!(spec.order_by.len(), 1);
                assert!(!spec.order_by[0].ascending);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn derived_tables_and_subqueries() {
        let q = query("SELECT x FROM (SELECT a AS x FROM t WHERE a > 0) sub WHERE x < 10");
        match q.terms[0].from.as_ref().unwrap() {
            TableRef::Derived { alias, .. } => assert_eq!(alias, "sub"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn union_all_order_limit() {
        let q = query("SELECT a FROM t UNION ALL SELECT b FROM u ORDER BY 1 DESC LIMIT 10");
        assert_eq!(q.terms.len(), 2);
        assert_eq!(q.order_by.len(), 1);
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn insert_and_explain() {
        match parse_statement("INSERT INTO target SELECT * FROM src").unwrap() {
            Statement::Insert { table, .. } => assert_eq!(table.to_string(), "target"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_statement("EXPLAIN SELECT 1").unwrap(),
            Statement::Explain(_)
        ));
    }

    #[test]
    fn case_and_cast() {
        let q = query(
            "SELECT CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END, \
             CASE a WHEN 1 THEN 'one' END, CAST(a AS double) FROM t",
        );
        let items = &q.terms[0].items;
        assert!(matches!(
            &items[0],
            SelectItem::Expr {
                expr: AstExpr::Case { operand: None, .. },
                ..
            }
        ));
        assert!(matches!(
            &items[1],
            SelectItem::Expr {
                expr: AstExpr::Case {
                    operand: Some(_),
                    ..
                },
                ..
            }
        ));
        assert!(matches!(
            &items[2],
            SelectItem::Expr {
                expr: AstExpr::Cast { .. },
                ..
            }
        ));
    }

    #[test]
    fn date_literals() {
        let q = query("SELECT * FROM t WHERE d >= DATE '1995-01-01'");
        let s = format!("{:?}", q.terms[0].where_);
        assert!(s.contains("Date("));
        assert!(parse_statement("SELECT DATE 'nope'").is_err());
    }

    #[test]
    fn implicit_cross_join_with_comma() {
        let q = query("SELECT * FROM a, b WHERE a.x = b.y");
        assert!(matches!(
            q.terms[0].from.as_ref().unwrap(),
            TableRef::Join {
                kind: JoinKind::Cross,
                ..
            }
        ));
    }

    #[test]
    fn error_messages_carry_positions() {
        let err = parse_statement("SELECT FROM t").unwrap_err();
        assert!(err.message.contains("line 1:8"), "{}", err.message);
        assert!(parse_statement("SELECT a FROM").is_err());
        assert!(parse_statement("SELECT a FROM t WHERE").is_err());
        assert!(parse_statement("SELECT a FROM t extra garbage here").is_err());
    }

    #[test]
    fn catalog_qualified_table() {
        let q = query("SELECT * FROM hive.orders");
        match q.terms[0].from.as_ref().unwrap() {
            TableRef::Table { name, .. } => assert_eq!(name.to_string(), "hive.orders"),
            other => panic!("{other:?}"),
        }
    }
}
