package repro.exec

import repro.{Oracle, SparkSpec}
import repro.bench.Scripts
import repro.bench.Scripts.ScriptBench
import repro.cmds.Kernels
import repro.core.{Frontend, Transform}
import repro.core.Transform.PashConfig

/** DuckDB result-equality checks: SQL-expressible pipelines are executed
  * on the PaSh-parallelized Spark path and cross-checked against an
  * independent SQL engine over the same synthetic inputs — catching a
  * wrong transformation *and* a wrong kernel at once (not just
  * "parallel == sequential" which a doubly-wrong kernel could fake).
  */
class OracleSpec extends SparkSpec {
  import spark.implicits._

  private def freshStore(b: ScriptBench, scale: Int = 2): Store = {
    val s = new Store(spark.sparkContext); b.setup(s, scale); s
  }

  /** stdout of the script parallelized at `width`, on Spark. */
  private def pashOut(b: ScriptBench, width: Int = 4, scale: Int = 2): Vector[String] = {
    val regions = Frontend.compile(b.script).regions
    new SparkExec(spark, freshStore(b, scale))
      .runProgram(regions.map(Transform.parallelize(_, PashConfig(width)))).stdout
  }

  private def linesDf(s: Store, name: String) = s.fetch(name).toDF("line")

  test("oracle: wf (word frequencies) matches SQL group-by") {
    val b = Scripts.wf
    val store = freshStore(b)
    val out = pashOut(b)
    val df = out.map(Kernels.parseUniqC).map { case (c, w) => (c, w) }
      .toDF("cnt", "word")
    Oracle.assertEquivalent(df,
      """SELECT count(*) AS cnt, w AS word
         FROM (SELECT unnest(string_split_regex(lower(line), '[^a-z]+')) AS w
               FROM lines)
         WHERE w <> '' GROUP BY w""",
      "lines" -> linesDf(store, "in.txt"))
  }

  test("oracle: sort pipeline emits exactly the lowercased multiset") {
    val b = Scripts.sortOne
    val store = freshStore(b)
    val df = pashOut(b).toDF("line")
    Oracle.assertEquivalent(df,
      "SELECT lower(line) AS line FROM lines",
      "lines" -> linesDf(store, "in.txt"))
  }

  test("oracle: grep -c equals SQL count of matching lines") {
    val b = Scripts.unix50(13) // cut -f2 | grep -c a
    val store = freshStore(b)
    val df = pashOut(b).map(_.toLong).toDF("cnt")
    Oracle.assertEquivalent(df,
      """SELECT count(*) AS cnt FROM (
           SELECT string_split(line, ' ')[2] AS f FROM lines
         ) WHERE f LIKE '%a%'""",
      "lines" -> linesDf(store, "unix50.txt"))
  }

  test("oracle: wc -l equals SQL row count") {
    val store = freshStore(Scripts.unix50(0))
    val out = pashOut(ScriptBench("wcl", "cat unix50.txt | wc -l", "",
      Map.empty, Map.empty, Scripts.unix50(0).setup))
    val df = out.map(_.toLong).toDF("cnt")
    Oracle.assertEquivalent(df, "SELECT count(*) AS cnt FROM lines",
      "lines" -> linesDf(store, "unix50.txt"))
  }

  test("oracle: set-difference (comm -23) equals SQL anti-join") {
    val b = Scripts.setDifference
    val store = freshStore(b)
    val df = pashOut(b).toDF("line")
    Oracle.assertEquivalent(df,
      """SELECT lower(line) AS line FROM a
         WHERE lower(line) NOT IN (SELECT lower(line) FROM b)""",
      "a" -> linesDf(store, "a.txt"), "b" -> linesDf(store, "b.txt"))
  }

  test("oracle: spell (comm -13 against dictionary) equals SQL anti-join") {
    val b = Scripts.spell
    val store = freshStore(b)
    val df = pashOut(b).toDF("word")
    Oracle.assertEquivalent(df,
      """SELECT DISTINCT w AS word
         FROM (SELECT unnest(string_split_regex(lower(line), '[^a-z]+')) AS w
               FROM lines)
         WHERE w <> '' AND w NOT IN (SELECT word FROM dict)""",
      "lines" -> linesDf(store, "in.txt"),
      "dict"  -> store.fetch("dict.txt").toDF("word"))
  }

  test("oracle: uniq -c totals are conserved (sum of counts = word count)") {
    val b = Scripts.wf
    val store = freshStore(b)
    val total = pashOut(b).map(l => Kernels.parseUniqC(l)._1).sum
    val df = Seq(total).toDF("total")
    Oracle.assertEquivalent(df,
      """SELECT count(*) AS total
         FROM (SELECT unnest(string_split_regex(lower(line), '[^a-z]+')) AS w
               FROM lines)
         WHERE w <> ''""",
      "lines" -> linesDf(store, "in.txt"))
  }

  test("oracle: bio adapter trimming matches SQL string surgery") {
    val b = Scripts.bio
    val store = freshStore(b)
    // compare the trim stage alone (deterministic SQL equivalent)
    val regions = Frontend.compile("cat reads.fastq | trim-adapter").regions
    val out = new SparkExec(spark, freshStore(b, 2))
      .runProgram(regions.map(Transform.parallelize(_, PashConfig(4)))).stdout
    Oracle.assertEquivalent(out.toDF("line"),
      """SELECT CASE WHEN position('AGATCGGAAGAGC' IN line) > 0
                     THEN substr(line, 1, position('AGATCGGAAGAGC' IN line) - 1)
                     ELSE line END AS line
         FROM reads""",
      "reads" -> linesDf(store, "reads.fastq"))
  }
}
