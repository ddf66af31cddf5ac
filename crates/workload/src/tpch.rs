//! A TPC-H-style data generator.
//!
//! Generates the eight TPC-H tables at a configurable scale factor with
//! realistic distributions (low-cardinality flag columns, skewed keys,
//! date ranges) so that the engine's compressed-block and statistics paths
//! see representative data. Output is columnar [`Page`]s; loaders exist
//! for every built-in connector.

use presto_common::time::days_from_civil;
use presto_common::{DataType, Schema, Value};
use presto_page::Page;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic TPC-H-style generator.
pub struct TpchGenerator {
    /// Scale factor: 1.0 ≈ 6M lineitems. Benchmarks use 0.001–0.1.
    pub scale: f64,
    seed: u64,
}

const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const SHIP_INSTRUCT: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];
const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const NATIONS: [&str; 25] = [
    "ALGERIA",
    "ARGENTINA",
    "BRAZIL",
    "CANADA",
    "EGYPT",
    "ETHIOPIA",
    "FRANCE",
    "GERMANY",
    "INDIA",
    "INDONESIA",
    "IRAN",
    "IRAQ",
    "JAPAN",
    "JORDAN",
    "KENYA",
    "MOROCCO",
    "MOZAMBIQUE",
    "PERU",
    "CHINA",
    "ROMANIA",
    "SAUDI ARABIA",
    "VIETNAM",
    "RUSSIA",
    "UNITED KINGDOM",
    "UNITED STATES",
];
const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const PART_TYPES: [&str; 6] = [
    "ECONOMY ANODIZED STEEL",
    "STANDARD POLISHED BRASS",
    "SMALL PLATED COPPER",
    "MEDIUM BURNISHED TIN",
    "PROMO BRUSHED NICKEL",
    "LARGE BURNISHED COPPER",
];

impl TpchGenerator {
    pub fn new(scale: f64) -> TpchGenerator {
        TpchGenerator {
            scale,
            seed: 7_2019,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> TpchGenerator {
        self.seed = seed;
        self
    }

    pub fn customer_count(&self) -> usize {
        ((150_000.0 * self.scale) as usize).max(10)
    }

    pub fn orders_count(&self) -> usize {
        self.customer_count() * 10
    }

    pub fn part_count(&self) -> usize {
        ((200_000.0 * self.scale) as usize).max(10)
    }

    pub fn supplier_count(&self) -> usize {
        ((10_000.0 * self.scale) as usize).max(5)
    }

    /// ~4 lineitems per order.
    pub fn lineitem_count(&self) -> usize {
        self.orders_count() * 4
    }

    pub fn region_schema(&self) -> Schema {
        Schema::of(&[("regionkey", DataType::Bigint), ("name", DataType::Varchar)])
    }

    pub fn nation_schema(&self) -> Schema {
        Schema::of(&[
            ("nationkey", DataType::Bigint),
            ("name", DataType::Varchar),
            ("regionkey", DataType::Bigint),
        ])
    }

    pub fn customer_schema(&self) -> Schema {
        Schema::of(&[
            ("custkey", DataType::Bigint),
            ("name", DataType::Varchar),
            ("nationkey", DataType::Bigint),
            ("acctbal", DataType::Double),
            ("mktsegment", DataType::Varchar),
        ])
    }

    pub fn orders_schema(&self) -> Schema {
        Schema::of(&[
            ("orderkey", DataType::Bigint),
            ("custkey", DataType::Bigint),
            ("orderstatus", DataType::Varchar),
            ("totalprice", DataType::Double),
            ("orderdate", DataType::Date),
            ("orderpriority", DataType::Varchar),
        ])
    }

    pub fn lineitem_schema(&self) -> Schema {
        Schema::of(&[
            ("orderkey", DataType::Bigint),
            ("partkey", DataType::Bigint),
            ("suppkey", DataType::Bigint),
            ("linenumber", DataType::Bigint),
            ("quantity", DataType::Double),
            ("extendedprice", DataType::Double),
            ("discount", DataType::Double),
            ("tax", DataType::Double),
            ("returnflag", DataType::Varchar),
            ("linestatus", DataType::Varchar),
            ("shipdate", DataType::Date),
            ("shipinstruct", DataType::Varchar),
            ("shipmode", DataType::Varchar),
        ])
    }

    pub fn part_schema(&self) -> Schema {
        Schema::of(&[
            ("partkey", DataType::Bigint),
            ("name", DataType::Varchar),
            ("brand", DataType::Varchar),
            ("type", DataType::Varchar),
            ("size", DataType::Bigint),
            ("retailprice", DataType::Double),
        ])
    }

    pub fn supplier_schema(&self) -> Schema {
        Schema::of(&[
            ("suppkey", DataType::Bigint),
            ("name", DataType::Varchar),
            ("nationkey", DataType::Bigint),
            ("acctbal", DataType::Double),
        ])
    }

    pub fn partsupp_schema(&self) -> Schema {
        Schema::of(&[
            ("partkey", DataType::Bigint),
            ("suppkey", DataType::Bigint),
            ("availqty", DataType::Bigint),
            ("supplycost", DataType::Double),
        ])
    }

    fn rng(&self, table: &str) -> StdRng {
        let mut seed = self.seed;
        for b in table.bytes() {
            seed = seed.wrapping_mul(31).wrapping_add(b as u64);
        }
        StdRng::seed_from_u64(seed)
    }

    fn pages(schema: &Schema, rows: Vec<Vec<Value>>) -> Vec<Page> {
        rows.chunks(8192)
            .map(|chunk| Page::from_rows(schema, chunk))
            .collect()
    }

    pub fn region(&self) -> Vec<Page> {
        let rows = REGIONS
            .iter()
            .enumerate()
            .map(|(i, name)| vec![Value::Bigint(i as i64), Value::varchar(*name)])
            .collect();
        Self::pages(&self.region_schema(), rows)
    }

    pub fn nation(&self) -> Vec<Page> {
        let rows = NATIONS
            .iter()
            .enumerate()
            .map(|(i, name)| {
                vec![
                    Value::Bigint(i as i64),
                    Value::varchar(*name),
                    Value::Bigint((i % REGIONS.len()) as i64),
                ]
            })
            .collect();
        Self::pages(&self.nation_schema(), rows)
    }

    pub fn customer(&self) -> Vec<Page> {
        let mut rng = self.rng("customer");
        let rows = (0..self.customer_count())
            .map(|i| {
                vec![
                    Value::Bigint(i as i64),
                    Value::varchar(format!("Customer#{i:09}")),
                    Value::Bigint(rng.gen_range(0..NATIONS.len() as i64)),
                    Value::Double((rng.gen_range(-99_999..999_999) as f64) / 100.0),
                    Value::varchar(SEGMENTS[rng.gen_range(0..SEGMENTS.len())]),
                ]
            })
            .collect();
        Self::pages(&self.customer_schema(), rows)
    }

    pub fn orders(&self) -> Vec<Page> {
        let mut rng = self.rng("orders");
        let customers = self.customer_count() as i64;
        let start = days_from_civil(1992, 1, 1);
        let end = days_from_civil(1998, 8, 2);
        let rows = (0..self.orders_count())
            .map(|i| {
                let status = match rng.gen_range(0..100) {
                    0..=48 => "F",
                    49..=73 => "O",
                    _ => "P",
                };
                vec![
                    Value::Bigint(i as i64),
                    Value::Bigint(rng.gen_range(0..customers)),
                    Value::varchar(status),
                    Value::Double((rng.gen_range(10_000..50_000_000) as f64) / 100.0),
                    Value::Date(rng.gen_range(start..end)),
                    Value::varchar(PRIORITIES[rng.gen_range(0..PRIORITIES.len())]),
                ]
            })
            .collect();
        Self::pages(&self.orders_schema(), rows)
    }

    pub fn lineitem(&self) -> Vec<Page> {
        let mut rng = self.rng("lineitem");
        let orders = self.orders_count() as i64;
        let parts = self.part_count() as i64;
        let suppliers = self.supplier_count() as i64;
        let start = days_from_civil(1992, 1, 1);
        let end = days_from_civil(1998, 12, 1);
        let rows = (0..self.lineitem_count())
            .map(|i| {
                let qty = rng.gen_range(1..51) as f64;
                let price = (rng.gen_range(90_000..10_500_000) as f64) / 100.0;
                let (flag, status) = if rng.gen_bool(0.5) {
                    (if rng.gen_bool(0.5) { "R" } else { "A" }, "F")
                } else {
                    ("N", "O")
                };
                vec![
                    Value::Bigint((i as i64 / 4) % orders),
                    Value::Bigint(rng.gen_range(0..parts)),
                    Value::Bigint(rng.gen_range(0..suppliers)),
                    Value::Bigint((i % 4) as i64 + 1),
                    Value::Double(qty),
                    Value::Double(price),
                    Value::Double(rng.gen_range(0..11) as f64 / 100.0),
                    Value::Double(rng.gen_range(0..9) as f64 / 100.0),
                    Value::varchar(flag),
                    Value::varchar(status),
                    Value::Date(rng.gen_range(start..end)),
                    Value::varchar(SHIP_INSTRUCT[rng.gen_range(0..SHIP_INSTRUCT.len())]),
                    Value::varchar(SHIP_MODES[rng.gen_range(0..SHIP_MODES.len())]),
                ]
            })
            .collect();
        Self::pages(&self.lineitem_schema(), rows)
    }

    pub fn part(&self) -> Vec<Page> {
        let mut rng = self.rng("part");
        let rows = (0..self.part_count())
            .map(|i| {
                vec![
                    Value::Bigint(i as i64),
                    Value::varchar(format!("part {i}")),
                    Value::varchar(format!(
                        "Brand#{}{}",
                        rng.gen_range(1..6),
                        rng.gen_range(1..6)
                    )),
                    Value::varchar(PART_TYPES[rng.gen_range(0..PART_TYPES.len())]),
                    Value::Bigint(rng.gen_range(1..51)),
                    Value::Double((rng.gen_range(90_000..200_000) as f64) / 100.0),
                ]
            })
            .collect();
        Self::pages(&self.part_schema(), rows)
    }

    pub fn supplier(&self) -> Vec<Page> {
        let mut rng = self.rng("supplier");
        let rows = (0..self.supplier_count())
            .map(|i| {
                vec![
                    Value::Bigint(i as i64),
                    Value::varchar(format!("Supplier#{i:09}")),
                    Value::Bigint(rng.gen_range(0..NATIONS.len() as i64)),
                    Value::Double((rng.gen_range(-99_999..999_999) as f64) / 100.0),
                ]
            })
            .collect();
        Self::pages(&self.supplier_schema(), rows)
    }

    pub fn partsupp(&self) -> Vec<Page> {
        let mut rng = self.rng("partsupp");
        let suppliers = self.supplier_count() as i64;
        let rows = (0..self.part_count() * 4)
            .map(|i| {
                vec![
                    Value::Bigint((i / 4) as i64),
                    Value::Bigint(rng.gen_range(0..suppliers)),
                    Value::Bigint(rng.gen_range(1..10_000)),
                    Value::Double((rng.gen_range(100..100_000) as f64) / 100.0),
                ]
            })
            .collect();
        Self::pages(&self.partsupp_schema(), rows)
    }

    /// All tables as `(name, schema, pages)`.
    pub fn all_tables(&self) -> Vec<(&'static str, Schema, Vec<Page>)> {
        vec![
            ("region", self.region_schema(), self.region()),
            ("nation", self.nation_schema(), self.nation()),
            ("customer", self.customer_schema(), self.customer()),
            ("orders", self.orders_schema(), self.orders()),
            ("lineitem", self.lineitem_schema(), self.lineitem()),
            ("part", self.part_schema(), self.part()),
            ("supplier", self.supplier_schema(), self.supplier()),
            ("partsupp", self.partsupp_schema(), self.partsupp()),
        ]
    }

    /// Load everything into a memory connector (and analyze for the CBO).
    pub fn load_memory(&self, connector: &presto_connectors::MemoryConnector) {
        for (name, schema, pages) in self.all_tables() {
            connector.load_table(name, schema, pages);
            connector.analyze(name).expect("analyze");
        }
    }

    /// Load everything into a Hive connector.
    pub fn load_hive(
        &self,
        connector: &presto_connectors::HiveConnector,
    ) -> presto_common::Result<()> {
        for (name, schema, pages) in self.all_tables() {
            connector.load_table(name, schema, &pages)?;
        }
        Ok(())
    }

    /// Load everything into a Raptor connector, bucketing the two largest
    /// tables on their join key for co-located joins.
    pub fn load_raptor(
        &self,
        connector: &presto_connectors::RaptorConnector,
        buckets: usize,
    ) -> presto_common::Result<()> {
        for (name, schema, pages) in self.all_tables() {
            match name {
                "orders" | "lineitem" => {
                    // Both bucketed on orderkey (channel 0).
                    connector.create_bucketed_table(name, &schema, vec![0], buckets)?;
                }
                _ => connector.create_table(name, &schema)?,
            }
            connector.load_table(name, &pages)?;
        }
        Ok(())
    }
}

use presto_connector::ConnectorMetadata as _;

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = TpchGenerator::new(0.001).orders();
        let b = TpchGenerator::new(0.001).orders();
        let schema = TpchGenerator::new(0.001).orders_schema();
        assert_eq!(a[0].to_rows(&schema), b[0].to_rows(&schema));
    }

    #[test]
    fn row_counts_scale() {
        let g = TpchGenerator::new(0.001);
        assert_eq!(g.customer_count(), 150);
        assert_eq!(g.orders_count(), 1500);
        assert_eq!(g.lineitem_count(), 6000);
    }

    #[test]
    fn lineitem_columns_have_expected_domains() {
        let g = TpchGenerator::new(0.001);
        let pages = g.lineitem();
        let schema = g.lineitem_schema();
        let flag_idx = schema.index_of("returnflag").unwrap();
        let disc_idx = schema.index_of("discount").unwrap();
        for page in &pages {
            for i in 0..page.row_count() {
                let flag = page.block(flag_idx).str_at(i);
                assert!(["R", "A", "N"].contains(&flag));
                let d = page.block(disc_idx).f64_at(i);
                assert!((0.0..=0.10).contains(&d));
            }
        }
    }

    #[test]
    fn loads_into_memory_with_stats() {
        let mem = presto_connectors::MemoryConnector::new();
        TpchGenerator::new(0.001).load_memory(&mem);
        assert_eq!(mem.list_tables().len(), 8);
        let stats = mem.table_statistics("orders");
        assert_eq!(stats.row_count.value(), Some(1500.0));
    }
}
