package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.cmds.Kernels
import repro.cmds.Kernels.Ctx
import repro.core.AnnotationLib

/** Warm throughput of the stateless kernels that the evaluation scripts
  * run, one JVM, no Spark: each kernel is built and run over the whole
  * input as one Spark task builds and runs it over a partition, 5 times to
  * warm up and then 15 times, and the best time gives the MB/s (input
  * bytes, newlines counted). A cold single replay, as `perfbench` traces
  * it, moves by up to 3× between runs of one commit; the best of many
  * warm calls does not.
  *
  * Run with `sbt "bench/testOnly repro.bench.KernelThroughputBench"`.
  */
class KernelThroughputBench extends AnyFunSuite {

  private val Lines  = 50000
  private val WarmUp = 5
  private val Calls  = 15

  /** Prose lines (`unix50.txt`) and one word per line (after `tr -cs`). */
  private val text  = (0L until Lines).map(SynthText.textLine(13)).toVector
  private val words = (0L until Lines).map(i => SynthText.word(13, i).toLowerCase).toVector

  private val kernels: List[(String, Vector[String])] = List(
    "cat"                   -> text,
    "tr A-Z a-z"            -> text,
    "tr -s ' '"             -> text,
    "tr -cs A-Za-z '\\n'"   -> text,
    "grep the"              -> text,
    "grep -v que"           -> text,
    "grep -i the"           -> text,
    "grep -x the"           -> words,
    "grep -vx the"          -> words,
    "grep -E (th|t|h)+e"    -> text,
    "cut -d ' ' -f 3"       -> text,
    "cut -c 1-10"           -> text,
    "sed s/the/THE/"        -> text)

  /** `cmd` split into words, single quotes removed. */
  private def argv(cmd: String): List[String] =
    """'[^']*'|\S+""".r.findAllIn(cmd).map(_.stripPrefix("'").stripSuffix("'")).toList

  test("stateless kernel throughput (MB/s, best of 15 warm calls)") {
    val ctx  = Ctx(Nil, _ => Vector.empty)
    val rows = kernels.map { case (cmd, in) =>
      val w     = argv(cmd)
      val mk    = Kernels.stateless(AnnotationLib.resolve(w.head, w.tail)).get
      val bytes = in.iterator.map(_.length + 1L).sum
      var out   = 0L
      def call(): Long = {
        val t0 = System.nanoTime()
        val f  = mk(ctx)
        var n  = 0L
        in.foreach(l => n += f(l).size)
        out = n
        System.nanoTime() - t0
      }
      (1 to WarmUp).foreach(_ => call())
      val best = (1 to Calls).map(_ => call()).min
      (cmd, bytes, out, bytes / 1e6 / (best / 1e9))
    }
    println(f"${"kernel"}%-24s ${"in MB"}%7s ${"lines out"}%9s ${"MB/s"}%8s")
    rows.foreach { case (cmd, bytes, out, mbs) =>
      println(f"$cmd%-24s ${bytes / 1e6}%7.2f $out%9d $mbs%8.1f")
    }
    assert(rows.forall(_._4 > 0))
  }
}
