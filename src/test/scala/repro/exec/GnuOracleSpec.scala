package repro.exec

import repro.SparkSpec
import repro.bench.Scripts
import repro.bench.Scripts.ScriptBench
import repro.cmds.Kernels
import repro.core.{Frontend, Transform}
import repro.core.Transform.PashConfig
import repro.exec.GnuOracle.{Match, Mismatch, Skipped, Verdict}

/** The paper's claim checked against the real shell: GNU `sh` of each
  * evaluation script equals RefExec of its sequential graph, byte for byte
  * and in order, on the scale-2 inputs. A second table checks width-4
  * SparkExec output against `sh`, where `sh` runs the same pipeline with
  * GNU stand-ins for commands that exist only as our kernels. Unlike the
  * laws and the equivalence suites, this catches a kernel and its
  * aggregator that are wrong in the same way.
  */
class GnuOracleSpec extends SparkSpec {

  private def store(setup: (Store, Int) => Unit): Store = {
    val s = new Store(spark.sparkContext); setup(s, 2); s
  }

  private def sequential(script: String, s: Store): RefExec.Out =
    RefExec.runProgram(Frontend.compile(script).regions, s)

  private def width4(script: String, s: Store): RefExec.Out =
    new SparkExec(spark, s).runProgram(
      Frontend.compile(script).regions.map(Transform.parallelize(_, PashConfig(4))))

  private def assertMatch(v: Verdict): Unit = v match {
    case Match        => ()
    case Mismatch(d)  => fail(d)
    case Skipped(why) => fail(s"skipped: $why")
  }

  test("sh, sort, tr and grep are installed") {
    val missing = List("sh", "sort", "tr", "grep").filterNot(GnuOracle.available)
    assert(missing.isEmpty, s"the GNU oracle needs ${missing.mkString(", ")}")
  }

  Scripts.all.foreach { b =>
    test(s"sh == RefExec: ${b.name}") {
      val s = store(b.setup)
      GnuOracle.check(b.script, s, sequential(b.script, s)) match {
        case Skipped(why) => info(s"skipped: $why")
        case v            => assertMatch(v)
      }
    }
  }

  // GNU sort -u drops lines whose keys tie and keeps the first in input order
  List(
    "cat in.txt | sort -nu"    -> Vector("1 b", "1 a", "2 c"),
    "cat in.txt | sort -u -k2" -> Vector("x 1", "y 1"),
  ).foreach { case (script, in) =>
    test(s"sh == RefExec: $script") {
      val s = new Store(spark.sparkContext).addLines("in.txt", in)
      assertMatch(GnuOracle.check(script, s, sequential(script, s)))
    }
  }

  /** (name, our script, the `sh` script, set-up). `col` and `trim-adapter`
    * exist only as our kernels; `sh` runs the filter each implements. */
  private val width4Rows: List[(String, String, String, (Store, Int) => Unit)] = {
    import Scripts._
    def same(b: ScriptBench) = (b.name, b.script, b.script, b.setup)
    List(same(wf), same(sortOne), same(unix50(13)), same(setDifference),
      ("wc -l", "cat unix50.txt | wc -l", "cat unix50.txt | wc -l", unix50(0).setup),
      ("spell", spell.script,
        spell.script.replace("| col |", """| tr -d '\000-\010\013-\037' |"""), spell.setup),
      ("bio trim-adapter", "cat reads.fastq | trim-adapter",
        "cat reads.fastq | sed 's/AGATCGGAAGAGC.*//'", bio.setup))
  }

  width4Rows.foreach { case (name, ours, sh, setup) =>
    test(s"sh == SparkExec at width 4 == RefExec: $name") {
      val s   = store(setup)
      val par = width4(ours, s)
      assert(par == sequential(ours, s))
      assertMatch(GnuOracle.check(sh, s, par))
    }
  }

  test("sh's word count == the sum of wf's uniq -c counts at width 4") {
    val s     = store(Scripts.wf.setup)
    val total = width4(Scripts.wf.script, s).stdout.map(Kernels.parseUniqC(_)._1).sum
    assertMatch(GnuOracle.check("""cat in.txt | tr -cs A-Za-z "\n" | tr A-Z a-z | wc -l""",
      s, RefExec.Out(Vector(total.toString), Map.empty)))
  }
}
