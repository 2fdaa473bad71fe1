package sql

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/agg"
)

// goldenStatements records how the parser before the shared query-language
// parser read every SQL statement in the repository (tests, examples,
// README, the benchmark's serve mix, fuzz seeds); "error" marks a
// rejection. Two rows changed on purpose, marked: a HAVING column or an
// ORDER BY key that names no result column is now a parse error.
var goldenStatements = []struct{ in, want string }{
	{"EXPLAIN ANALYZE SELECT Region, count(*) AS n FROM sales GROUP BY Region", "EXPLAIN ANALYZE select [Region n] from sales agg[count(*) AS n] group [Region]"},
	{"EXPLAIN ANALYZE SELECT Region, count(*) AS n, sum(Sales) AS total FROM sales GROUP BY Region", "EXPLAIN ANALYZE select [Region n total] from sales agg[count(*) AS n] agg[sum(F.Sales) AS total] group [Region]"},
	{"EXPLAIN ANALYZE SELECT SourceAS, count(*) AS n FROM flow GROUP BY SourceAS", "EXPLAIN ANALYZE select [SourceAS n] from flow agg[count(*) AS n] group [SourceAS]"},
	{"EXPLAIN SELECT Region, count(*) AS n FROM sales CUBE BY Region", "EXPLAIN select [Region n] from sales agg[count(*) AS n] cube [Region]"},
	{"EXPLAIN SELECT Region, count(*) AS n FROM sales GROUP BY Region", "EXPLAIN select [Region n] from sales agg[count(*) AS n] group [Region]"},
	{"SELECT 'oops", "error"},
	{"SELECT CustGroup, count(*) AS n, max(Quantity) AS top FROM tpcr WHERE Discount > 0.02 GROUP BY CustGroup HAVING n > 100 ORDER BY n DESC, CustGroup LIMIT 20", "select [CustGroup n top] from tpcr agg[count(*) AS n] agg[max(F.Quantity) AS top] where[F.Discount > 0.02] group [CustGroup] having[n > 100] order[n desc=true] order[CustGroup desc=false] limit 20"},
	{"SELECT CustName, count(*) AS lines FROM tpcr\n\t\t\t WHERE CustName LIKE 'Customer#00000001%' GROUP BY CustName", "select [CustName lines] from tpcr agg[count(*) AS lines] where[F.CustName LIKE 'Customer#00000001%'] group [CustName]"},
	{"SELECT CustName, count(*) AS lines FROM tpcr GROUP BY CustName ORDER BY lines DESC LIMIT 5", "select [CustName lines] from tpcr agg[count(*) AS lines] group [CustName] order[lines desc=true] limit 5"},
	{"SELECT CustName, count(*) AS lines, avg(Quantity) AS aq", "error"},
	{"SELECT CustName, count(*) AS n, avg(Quantity) AS avg_qty FROM tpcr GROUP BY CustName", "select [CustName n avg_qty] from tpcr agg[count(*) AS n] agg[avg(F.Quantity) AS avg_qty] group [CustName]"},
	{"SELECT DestAS, avg(NumBytes) AS avgb FROM flow GROUP BY DestAS", "select [DestAS avgb] from flow agg[avg(F.NumBytes) AS avgb] group [DestAS]"},
	{"SELECT DestAS, count(*) AS cnt FROM flow WHERE NumBytes >= 100 GROUP BY DestAS", "select [DestAS cnt] from flow agg[count(*) AS cnt] where[F.NumBytes >= 100] group [DestAS]"},
	{"SELECT FROM nope", "error"},
	{"SELECT FROM t GROUP BY a", "error"},
	{"SELECT MktSegment, count(*) AS lines, avg(ExtendedPrice) AS avg_price\n\t\t\t FROM tpcr WHERE Discount > 0.05\n\t\t\t GROUP BY MktSegment HAVING lines > 1000", "select [MktSegment lines avg_price] from tpcr agg[count(*) AS lines] agg[avg(F.ExtendedPrice) AS avg_price] where[F.Discount > 0.05] group [MktSegment] having[lines > 1000]"},
	{"SELECT MktSegment, count(*) AS lines, avg(ExtendedPrice) AS avg_price FROM tpcr WHERE Discount > 0.05 GROUP BY MktSegment HAVING avg_price > 30000", "select [MktSegment lines avg_price] from tpcr agg[count(*) AS lines] agg[avg(F.ExtendedPrice) AS avg_price] where[F.Discount > 0.05] group [MktSegment] having[avg_price > 30000]"},
	{"SELECT Region, Product FROM sales GROUP BY Region, Product", "select [Region Product] from sales group [Region Product]"},
	{"SELECT Region, Product, avg(Sales) AS mean FROM sales CUBE BY Region, Product", "select [Region Product mean] from sales agg[avg(F.Sales) AS mean] cube [Region Product]"},
	{"SELECT Region, Product, sum(Sales) AS total FROM sales GROUP BY Region, Product ORDER BY total DESC, Region LIMIT 2", "select [Region Product total] from sales agg[sum(F.Sales) AS total] group [Region Product] order[total desc=true] order[Region desc=false] limit 2"},
	{"SELECT Region, Product, sum(Sales) AS total FROM sales ROLLUP BY Region, Product", "select [Region Product total] from sales agg[sum(F.Sales) AS total] rollup [Region Product]"},
	{"SELECT Region, Product, sum(Sales) FROM sales CUBE BY Region, Product", "select [Region Product sum_sales] from sales agg[sum(F.Sales) AS sum_sales] cube [Region Product]"},
	{"SELECT Region, count(*) AS n FROM sales GROUP BY Region HAVING bogus > 1", "error"}, // parent: accepted, failed at execution
	{"SELECT Region, count(*) AS n FROM sales GROUP BY Region HAVING n > 10", "select [Region n] from sales agg[count(*) AS n] group [Region] having[n > 10]"},
	{"SELECT Region, count(*) AS n FROM sales GROUP BY Region LIMIT 0", "error"},
	{"SELECT Region, count(*) AS n FROM sales GROUP BY Region LIMIT x", "error"},
	{"SELECT Region, count(*) AS n FROM sales GROUP BY Region ORDER BY", "error"},
	{"SELECT Region, count(*) AS n FROM sales GROUP BY Region ORDER BY n ASC, Region DESC", "select [Region n] from sales agg[count(*) AS n] group [Region] order[n desc=false] order[Region desc=true]"},
	{"SELECT Region, count(*) AS n FROM sales GROUP BY Region ORDER BY n sideways", "error"},
	{"SELECT Region, count(*) AS n FROM sales GROUP BY Region ORDER BY nope", "error"}, // parent: accepted, failed at execution
	{"SELECT Region, count(*) AS n FROM sales WHERE Product = 'pen' GROUP BY Region HAVING n >= 2", "select [Region n] from sales agg[count(*) AS n] where[F.Product = 'pen'] group [Region] having[n >= 2]"},
	{"SELECT Region, count(*) AS n, sum(Sales) AS total FROM sales GROUP BY Region", "select [Region n total] from sales agg[count(*) AS n] agg[sum(F.Sales) AS total] group [Region]"},
	{"SELECT Region, count(*) FROM nosuch GROUP BY Region", "select [Region count] from nosuch agg[count(*) AS count] group [Region]"},
	{"SELECT Region, count(*) FROM sales GROUP BY Region", "select [Region count] from sales agg[count(*) AS count] group [Region]"},
	{"SELECT Region, count(*) FROM sales WHERE Product = 'group by having from' GROUP BY Region", "select [Region count] from sales agg[count(*) AS count] where[F.Product = 'group by having from'] group [Region]"},
	{"SELECT Region, count(*), avg(Sales) FROM sales GROUP BY Region", "select [Region count avg_sales] from sales agg[count(*) AS count] agg[avg(F.Sales) AS avg_sales] group [Region]"},
	{"SELECT Region, sum(Nope) FROM sales GROUP BY Region", "select [Region sum_nope] from sales agg[sum(F.Nope) AS sum_nope] group [Region]"},
	{"SELECT Region, sum(Sales * (1 - Discount)) AS revenue\n\t\tFROM sales WHERE Sales BETWEEN 1 AND 100 GROUP BY Region HAVING revenue >= 50", "select [Region revenue] from sales agg[sum(F.Sales * (1 - F.Discount)) AS revenue] where[F.Sales BETWEEN 1 AND 100] group [Region] having[revenue >= 50]"},
	{"SELECT Region, sum(Sales) AS total\n\t\tFROM sales WHERE Product = 'pen' AND Sales > 3 GROUP BY Region", "select [Region total] from sales agg[sum(F.Sales) AS total] where[F.Product = 'pen' AND F.Sales > 3] group [Region]"},
	{"SELECT Region, sum(Sales) AS total FROM sales GROUP BY Region HAVING total > 20", "select [Region total] from sales agg[sum(F.Sales) AS total] group [Region] having[total > 20]"},
	{"SELECT Region, sum(Sales) AS total FROM sales WHERE Product = 'pen' CUBE BY Region", "select [Region total] from sales agg[sum(F.Sales) AS total] where[F.Product = 'pen'] cube [Region]"},
	{"SELECT Region, sum(Sales), sum(Sales) FROM sales GROUP BY Region", "select [Region sum_sales sum_sales_2] from sales agg[sum(F.Sales) AS sum_sales] agg[sum(F.Sales) AS sum_sales_2] group [Region]"},
	{"SELECT RegionKey,\n\t\t\t        count(*) AS lines,\n\t\t\t        sum(CASE WHEN ReturnFlag = 'R' THEN 1 ELSE 0 END) AS returns\n\t\t\t FROM tpcr GROUP BY RegionKey", "select [RegionKey lines returns] from tpcr agg[count(*) AS lines] agg[sum(CASE WHEN F.ReturnFlag = 'R' THEN 1 ELSE 0 END) AS returns] group [RegionKey]"},
	{"SELECT RegionKey,\n\t        count(*) AS lines,\n\t        sum(CASE WHEN ReturnFlag = 'R' THEN 1 ELSE 0 END) AS returns\n\t FROM tpcr GROUP BY RegionKey", "select [RegionKey lines returns] from tpcr agg[count(*) AS lines] agg[sum(CASE WHEN F.ReturnFlag = 'R' THEN 1 ELSE 0 END) AS returns] group [RegionKey]"},
	{"SELECT RegionKey, MktSegment, count(*) AS n, sum(Quantity) AS qty, max(ExtendedPrice) AS top FROM tpcr CUBE BY RegionKey, MktSegment", "select [RegionKey MktSegment n qty top] from tpcr agg[count(*) AS n] agg[sum(F.Quantity) AS qty] agg[max(F.ExtendedPrice) AS top] cube [RegionKey MktSegment]"},
	{"SELECT RegionKey, MktSegment, sum(Quantity) AS qty\n\t\t\t FROM tpcr WHERE RegionKey < 2 ROLLUP BY RegionKey, MktSegment", "select [RegionKey MktSegment qty] from tpcr agg[sum(F.Quantity) AS qty] where[F.RegionKey < 2] rollup [RegionKey MktSegment]"},
	{"SELECT RegionKey, MktSegment, sum(Quantity) AS qty FROM tpcr WHERE RegionKey < 2 ROLLUP BY RegionKey, MktSegment", "select [RegionKey MktSegment qty] from tpcr agg[sum(F.Quantity) AS qty] where[F.RegionKey < 2] rollup [RegionKey MktSegment]"},
	{"SELECT RegionKey, count(*) AS n, sum(Quantity) AS qty FROM tpcr GROUP BY RegionKey", "select [RegionKey n qty] from tpcr agg[count(*) AS n] agg[sum(F.Quantity) AS qty] group [RegionKey]"},
	{"SELECT RegionKey, sum(Quantity) AS qty, sum(ExtendedPrice * (1 - Discount)) AS revenue FROM tpcr GROUP BY RegionKey", "select [RegionKey qty revenue] from tpcr agg[sum(F.Quantity) AS qty] agg[sum(F.ExtendedPrice * (1 - F.Discount)) AS revenue] group [RegionKey]"},
	{"SELECT SourceAS, DestAS, count(*) AS cnt, sum(NumBytes) AS bytes FROM flow GROUP BY SourceAS, DestAS", "select [SourceAS DestAS cnt bytes] from flow agg[count(*) AS cnt] agg[sum(F.NumBytes) AS bytes] group [SourceAS DestAS]"},
	{"SELECT SourceAS, DestAS, count(*) AS n FROM flow CUBE BY SourceAS, DestAS", "select [SourceAS DestAS n] from flow agg[count(*) AS n] cube [SourceAS DestAS]"},
	{"SELECT SourceAS, DestAS, sum(NumBytes) AS bytes FROM flow CUBE BY SourceAS, DestAS", "select [SourceAS DestAS bytes] from flow agg[sum(F.NumBytes) AS bytes] cube [SourceAS DestAS]"},
	{"SELECT SourceAS, count(*) AS cnt FROM flow GROUP BY SourceAS HAVING cnt > 1", "select [SourceAS cnt] from flow agg[count(*) AS cnt] group [SourceAS] having[cnt > 1]"},
	{"SELECT SourceAS, count(*) AS n FROM flow GROUP BY SourceAS", "select [SourceAS n] from flow agg[count(*) AS n] group [SourceAS]"},
	{"SELECT SourceAS, sum(NumBytes) AS b FROM flow GROUP BY SourceAS", "select [SourceAS b] from flow agg[sum(F.NumBytes) AS b] group [SourceAS]"},
	{"SELECT SourceAS, sum(NumBytes) AS bytes FROM flow GROUP BY SourceAS", "select [SourceAS bytes] from flow agg[sum(F.NumBytes) AS bytes] group [SourceAS]"},
	{"SELECT SourceAS, sum(NumBytes) AS bytes FROM flow GROUP BY SourceAS ORDER BY bytes DESC", "select [SourceAS bytes] from flow agg[sum(F.NumBytes) AS bytes] group [SourceAS] order[bytes desc=true]"},
	{"SELECT a FROM GROUP BY a", "error"},
	{"SELECT a FROM t", "error"},
	{"SELECT a FROM t GROUP BY", "error"},
	{"SELECT a FROM t GROUP BY a HAVING ((", "error"},
	{"SELECT a FROM t GROUP BY a b", "error"},
	{"SELECT a FROM t GROUP BY a extra", "error"},
	{"SELECT a FROM t GROUP a", "error"},
	{"SELECT a FROM t WHERE (( GROUP BY a", "error"},
	{"SELECT a, b, avg(v) FROM t CUBE BY a, b", "select [a b avg_v] from t agg[avg(F.v) AS avg_v] cube [a b]"},
	{"SELECT a, count(*) AS a2, count(*) AS a2 FROM t GROUP BY a", "error"},
	{"SELECT a, count(*) FROM t GROUP BY a HAVING count > 0", "select [a count] from t agg[count(*) AS count] group [a] having[count > 0]"},
	{"SELECT a, count(*) FROM t GROUP BY a;", "select [a count] from t agg[count(*) AS count] group [a]"},
	{"SELECT a, frob(x) FROM t GROUP BY a", "error"},
	{"SELECT a, max(v) FROM t ROLLUP BY a;", "select [a max_v] from t agg[max(F.v) AS max_v] rollup [a]"},
	{"SELECT a, sum(x * (1 - y)) AS r FROM t WHERE x BETWEEN 1 AND 9 GROUP BY a HAVING r > 5", "select [a r] from t agg[sum(F.x * (1 - F.y)) AS r] where[F.x BETWEEN 1 AND 9] group [a] having[r > 5]"},
	{"SELECT b FROM t GROUP BY a", "error"},
	{"SELECT count(*) AS n FROM tpcr CUBE BY OrderKey, LineNumber, CustKey, CustName, CustGroup, ", "error"},
	{"SELECT count(*) AS n FROM tpcr CUBE BY OrderKey, LineNumber, CustKey, CustName, CustGroup, NationKey, RegionKey, MktSegment, PartKey, SuppKey, Quantity, ShipDate, OrderDate", "select [n] from tpcr agg[count(*) AS n] cube [OrderKey LineNumber CustKey CustName CustGroup NationKey RegionKey MktSegment PartKey SuppKey Quantity ShipDate OrderDate]"},
	{"SELECT max(Sales) AS hi, Region FROM sales GROUP BY Region", "select [hi Region] from sales agg[max(F.Sales) AS hi] group [Region]"},
	{"SELECT oops FROM sales GROUP BY Region", "error"},
	{"SELECT\xea", "error"},
	{"select Region, Count(*) from sales where Sales > 1 group by Region having count > 0", "select [Region count] from sales agg[count(*) AS count] where[F.Sales > 1] group [Region] having[count > 0]"},
	{"select a from t where s = 'group by' group by a", "select [a] from t where[F.s = 'group by'] group [a]"},
}

// goldenSpecs records how the parser before the shared query-language
// parser read every aggregate spec literal in the repository.
var goldenSpecs = []struct{ in, want string }{
	{"AVG(NumBytes) as avg_nb", "avg(NumBytes) AS avg_nb"},
	{"approx_count_distinct(x) AS h", "countd(x) AS h"},
	{"avg(-CASE WHEN F.Flag THEN F.Q ELSE F.P END * 2) AS an", "avg(-CASE WHEN F.Flag THEN F.Q ELSE F.P END * 2) AS an"},
	{"avg(CASE WHEN F.Flag THEN F.P WHEN F.Q < 0 THEN F.Q END) AS a_mix", "avg(CASE WHEN F.Flag THEN F.P WHEN F.Q < 0 THEN F.Q END) AS a_mix"},
	{"avg(F.Discount) AS avg2", "avg(F.Discount) AS avg2"},
	{"avg(F.ExtendedPrice) AS avg2", "avg(F.ExtendedPrice) AS avg2"},
	{"avg(F.ExtendedPrice) AS avg3", "avg(F.ExtendedPrice) AS avg3"},
	{"avg(F.ExtendedPrice) AS avg_price", "avg(F.ExtendedPrice) AS avg_price"},
	{"avg(F.M) AS a", "avg(F.M) AS a"},
	{"avg(F.M) AS a1", "avg(F.M) AS a1"},
	{"avg(F.NumBytes) AS a", "avg(F.NumBytes) AS a"},
	{"avg(F.NumBytes) AS avg1", "avg(F.NumBytes) AS avg1"},
	{"avg(F.NumBytes) AS avg_nb", "avg(F.NumBytes) AS avg_nb"},
	{"avg(F.NumBytes) AS mean", "avg(F.NumBytes) AS mean"},
	{"avg(F.P) AS ap", "avg(F.P) AS ap"},
	{"avg(F.Q % 7) AS aq", "avg(F.Q % 7) AS aq"},
	{"avg(F.Q) AS gq", "avg(F.Q) AS gq"},
	{"avg(F.Quantity) AS aq", "avg(F.Quantity) AS aq"},
	{"avg(F.Quantity) AS avg1", "avg(F.Quantity) AS avg1"},
	{"avg(F.Quantity) AS avg_qty", "avg(F.Quantity) AS avg_qty"},
	{"avg(F.Sales) AS mean", "avg(F.Sales) AS mean"},
	{"avg(F.v) AS a", "avg(F.v) AS a"},
	{"avg(F.x / 2) AS a", "avg(F.x / 2) AS a"},
	{"avg(NumBytes) AS avg_nb", "avg(NumBytes) AS avg_nb"},
	{"avg(x) AS a", "avg(x) AS a"},
	{"avg(x) AS a1", "avg(x) AS a1"},
	{"cnt(*) -> cnt1", "count(*) AS cnt1"},
	{"count(*) AS SourceAS", "count(*) AS SourceAS"},
	{"count(*) AS above", "count(*) AS above"},
	{"count(*) AS alerts", "count(*) AS alerts"},
	{"count(*) AS at_max", "count(*) AS at_max"},
	{"count(*) AS big", "count(*) AS big"},
	{"count(*) AS big_lines", "count(*) AS big_lines"},
	{"count(*) AS c", "count(*) AS c"},
	{"count(*) AS c1", "count(*) AS c1"},
	{"count(*) AS c2", "count(*) AS c2"},
	{"count(*) AS ch", "count(*) AS ch"},
	{"count(*) AS cn", "count(*) AS cn"},
	{"count(*) AS cnt", "count(*) AS cnt"},
	{"count(*) AS cnt1", "count(*) AS cnt1"},
	{"count(*) AS cnt2", "count(*) AS cnt2"},
	{"count(*) AS cnt3", "count(*) AS cnt3"},
	{"count(*) AS d", "count(*) AS d"},
	{"count(*) AS flows", "count(*) AS flows"},
	{"count(*) AS lines", "count(*) AS lines"},
	{"count(*) AS n", "count(*) AS n"},
	{"count(*) AS n1", "count(*) AS n1"},
	{"count(*) AS n2", "count(*) AS n2"},
	{"count(*) AS n3", "count(*) AS n3"},
	{"count(*) AS n_big", "count(*) AS n_big"},
	{"count(*) AS nc", "count(*) AS nc"},
	{"count(*) AS orders", "count(*) AS orders"},
	{"count(*) AS total", "count(*) AS total"},
	{"count(*) AS web", "count(*) AS web"},
	{"count(F.DestAS) AS n_dest", "count(F.DestAS) AS n_dest"},
	{"count(F.Flag) AS kf", "count(F.Flag) AS kf"},
	{"count(F.P) AS cp", "count(F.P) AS cp"},
	{"count(F.v) AS n", "count(F.v) AS n"},
	{"count(coalesce(F.P, F.Q)) AS cc", "count(coalesce(F.P, F.Q)) AS cc"},
	{"count(x) AS c", "count(x) AS c"},
	{"count(x) AS nx", "count(x) AS nx"},
	{"countd(F.DestAS) AS approx_big", "countd(F.DestAS) AS approx_big"},
	{"countd(F.DestAS) AS dests", "countd(F.DestAS) AS dests"},
	{"countd(F.M) AS dm", "countd(F.M) AS dm"},
	{"countd(F.NumBytes) AS approx_sizes", "countd(F.NumBytes) AS approx_sizes"},
	{"countd(F.Sales) AS u", "countd(F.Sales) AS u"},
	{"countd(F.v) AS d", "countd(F.v) AS d"},
	{"countd(ip) AS uniq", "countd(ip) AS uniq"},
	{"countd(x) AS c", "countd(x) AS c"},
	{"countd(x) AS cd", "countd(x) AS cd"},
	{"countd(x) AS d", "countd(x) AS d"},
	{"countdx(F.DestAS) AS dests", "countdx(F.DestAS) AS dests"},
	{"countdx(F.NumBytes) AS sizes_big", "countdx(F.NumBytes) AS sizes_big"},
	{"countdx(F.v) AS dx", "countdx(F.v) AS dx"},
	{"countdx(x) AS dx", "countdx(x) AS dx"},
	{"countdx(x) AS u", "countdx(x) AS u"},
	{"exact_count_distinct(x) AS d", "countdx(x) AS d"},
	{"exact_count_distinct(x) AS u", "countdx(x) AS u"},
	{"frob(x) AS f", "error"},
	{"max(CASE WHEN F.P > 50 THEN F.G WHEN F.P > 0 THEN 'low' END) AS g_case", "max(CASE WHEN F.P > 50 THEN F.G WHEN F.P > 0 THEN 'low' END) AS g_case"},
	{"max(F.Discount) AS hi4", "max(F.Discount) AS hi4"},
	{"max(F.G) AS mg", "max(F.G) AS mg"},
	{"max(F.G) AS ng", "max(F.G) AS ng"},
	{"max(F.M) AS hi2", "max(F.M) AS hi2"},
	{"max(F.NumBytes) AS hi", "max(F.NumBytes) AS hi"},
	{"max(F.NumBytes) AS hi_big", "max(F.NumBytes) AS hi_big"},
	{"max(F.NumBytes) AS max_nb", "max(F.NumBytes) AS max_nb"},
	{"max(F.Sales) AS hi", "max(F.Sales) AS hi"},
	{"max(F.Sales) AS mx", "max(F.Sales) AS mx"},
	{"max(F.Severity) AS worst", "max(F.Severity) AS worst"},
	{"max(F.v) AS hi", "max(F.v) AS hi"},
	{"max(abs(F.NumBytes - 200)) AS spread", "max(abs(F.NumBytes - 200)) AS spread"},
	{"max(greatest(F.P, F.Q)) AS mg2", "max(greatest(F.P, F.Q)) AS mg2"},
	{"max(x) AS hi", "max(x) AS hi"},
	{"max(x) AS m", "max(x) AS m"},
	{"max(x) AS mx", "max(x) AS mx"},
	{"min(CASE WHEN F.Q THEN F.Q ELSE F.P END) AS m_mix", "min(CASE WHEN F.Q THEN F.Q ELSE F.P END) AS m_mix"},
	{"min(F.M) AS lo", "min(F.M) AS lo"},
	{"min(F.NumBytes) AS lo", "min(F.NumBytes) AS lo"},
	{"min(F.NumBytes) AS min_nb", "min(F.NumBytes) AS min_nb"},
	{"min(F.P) AS gp", "min(F.P) AS gp"},
	{"min(F.P) AS mp", "min(F.P) AS mp"},
	{"min(F.Sales) AS lo", "min(F.Sales) AS lo"},
	{"min(F.ShipDate) AS lo4", "min(F.ShipDate) AS lo4"},
	{"min(F.v) AS lo", "min(F.v) AS lo"},
	{"min(least(F.Q, F.P, 10)) AS ml", "min(least(F.Q, F.P, 10)) AS ml"},
	{"min(x + 1) AS m", "min(x + 1) AS m"},
	{"min(x) AS lo", "min(x) AS lo"},
	{"min(x) AS m", "min(x) AS m"},
	{"min(x) AS mn", "min(x) AS mn"},
	{"nope(*) AS c", "error"},
	{"stddev(F.NumBytes) AS dev", "stddev(F.NumBytes) AS dev"},
	{"stddev(v) AS sd", "stddev(v) AS sd"},
	{"stddev(x) AS s", "stddev(x) AS s"},
	{"stddev(x) AS sd", "stddev(x) AS sd"},
	{"sum() AS s", "error"},
	{"sum(*) AS s", "error"},
	{"sum(1 +) AS s", "error"},
	{"sum(B.SourceAS) AS s", "sum(B.SourceAS) AS s"},
	{"sum(CASE WHEN F.DestAS != 10 THEN F.NumBytes ELSE 0 END) AS other", "sum(CASE WHEN F.DestAS != 10 THEN F.NumBytes ELSE 0 END) AS other"},
	{"sum(CASE WHEN F.DestAS = 10 THEN F.NumBytes ELSE 0 END) AS to10", "sum(CASE WHEN F.DestAS = 10 THEN F.NumBytes ELSE 0 END) AS to10"},
	{"sum(CASE WHEN F.Discount > 0.05 THEN F.Quantity ELSE 0 END) AS q_disc", "sum(CASE WHEN F.Discount > 0.05 THEN F.Quantity ELSE 0 END) AS q_disc"},
	{"sum(CASE WHEN F.Q > %d THEN abs(F.G) ELSE F.Q END) AS s", "error"},
	{"sum(CASE WHEN F.Q > 0 THEN 1 ELSE 0 END) AS n_pos", "sum(CASE WHEN F.Q > 0 THEN 1 ELSE 0 END) AS n_pos"},
	{"sum(CASE WHEN F.Q > 0 THEN F.Q ELSE 0 END) AS pos", "sum(CASE WHEN F.Q > 0 THEN F.Q ELSE 0 END) AS pos"},
	{"sum(CASE WHEN F.Q > 0 THEN F.Q ELSE F.P END) AS s_mix", "sum(CASE WHEN F.Q > 0 THEN F.Q ELSE F.P END) AS s_mix"},
	{"sum(CASE WHEN F.Q > 400 THEN abs(F.G) ELSE F.Q END) AS lazy1", "sum(CASE WHEN F.Q > 400 THEN abs(F.G) ELSE F.Q END) AS lazy1"},
	{"sum(F.CustName) AS bad", "sum(F.CustName) AS bad"},
	{"sum(F.ExtendedPrice) AS revenue", "sum(F.ExtendedPrice) AS revenue"},
	{"sum(F.M) AS s", "sum(F.M) AS s"},
	{"sum(F.NumBytes) AS asBytes", "sum(F.NumBytes) AS asBytes"},
	{"sum(F.NumBytes) AS hourBytes", "sum(F.NumBytes) AS hourBytes"},
	{"sum(F.NumBytes) AS sum1", "sum(F.NumBytes) AS sum1"},
	{"sum(F.NumBytes) AS total", "sum(F.NumBytes) AS total"},
	{"sum(F.P / 3) AS sp", "sum(F.P / 3) AS sp"},
	{"sum(F.P) AS kp", "sum(F.P) AS kp"},
	{"sum(F.P) AS np", "sum(F.P) AS np"},
	{"sum(F.Q) AS s", "sum(F.Q) AS s"},
	{"sum(F.Q) AS sq", "sum(F.Q) AS sq"},
	{"sum(F.Quantity) AS qty", "sum(F.Quantity) AS qty"},
	{"sum(F.Quantity) AS qty4", "sum(F.Quantity) AS qty4"},
	{"sum(F.Sales) AS total", "sum(F.Sales) AS total"},
	{"sum(F.v) AS s", "sum(F.v) AS s"},
	{"sum(F.x) AS s", "sum(F.x) AS s"},
	{"sum(Sales) AS total", "sum(Sales) AS total"},
	{"sum(abs(F.Q)) AS sa", "sum(abs(F.Q)) AS sa"},
	{"sum(coalesce(F.Q, F.P, 0)) AS sc", "sum(coalesce(F.Q, F.P, 0)) AS sc"},
	{"sum(greatest(CASE WHEN F.Q > 100 THEN F.Q ELSE 0 END, abs(F.P))) AS sg", "sum(greatest(CASE WHEN F.Q > 100 THEN F.Q ELSE 0 END, abs(F.P))) AS sg"},
	{"sum(x * (1 - y)) AS revenue", "sum(x * (1 - y)) AS revenue"},
	{"sum(x) AS s", "sum(x) AS s"},
	{"var(F.M) AS v", "var(F.M) AS v"},
	{"var(F.NumBytes) AS spread", "var(F.NumBytes) AS spread"},
	{"var(F.NumBytes) AS var_nb", "var(F.NumBytes) AS var_nb"},
	{"var(F.Sales) AS v", "var(F.Sales) AS v"},
	{"var(F.v) AS v", "var(F.v) AS v"},
	{"var(x) AS v", "var(x) AS v"},
	{"\xa7 AS 0", "error"},
}

func TestGoldenStatements(t *testing.T) {
	for _, g := range goldenStatements {
		got := "error"
		if st, err := Parse(g.in); err == nil {
			got = render(st)
		}
		if got != g.want {
			t.Errorf("Parse(%q):\n got %s\nwant %s", g.in, got, g.want)
		}
	}
}

func TestGoldenSpecs(t *testing.T) {
	for _, g := range goldenSpecs {
		got := "error"
		if s, err := agg.ParseSpec(g.in); err == nil {
			got = s.String()
		}
		if got != g.want {
			t.Errorf("ParseSpec(%q) = %s, want %s", g.in, got, g.want)
		}
	}
}

// render writes out every field of a statement.
func render(st *Statement) string {
	var b strings.Builder
	if st.Explain {
		b.WriteString("EXPLAIN ")
	}
	if st.Analyze {
		b.WriteString("ANALYZE ")
	}
	fmt.Fprintf(&b, "select %v from %s", st.SelectCols, st.Detail)
	for _, a := range st.Aggs {
		fmt.Fprintf(&b, " agg[%s]", a)
	}
	if st.Where != nil {
		fmt.Fprintf(&b, " where[%s]", st.Where)
	}
	switch {
	case st.Cube:
		b.WriteString(" cube")
	case st.Rollup:
		b.WriteString(" rollup")
	default:
		b.WriteString(" group")
	}
	fmt.Fprintf(&b, " %v", st.GroupCols)
	if st.Having != nil {
		fmt.Fprintf(&b, " having[%s]", st.Having)
	}
	for _, o := range st.OrderBy {
		fmt.Fprintf(&b, " order[%s desc=%t]", o.Col, o.Desc)
	}
	if st.Limit > 0 {
		fmt.Fprintf(&b, " limit %d", st.Limit)
	}
	return b.String()
}
