package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.cmds.Kernels
import repro.cmds.Kernels.Ctx
import repro.core.AnnotationLib
import repro.exec.Store

/** Warm throughput of the stateless kernels that the evaluation scripts
  * run, and of `sort` and `sort -u`, one JVM, no Spark: each kernel is
  * built and run over the whole input as one Spark task builds and runs
  * it over a partition, 5 times to warm up and then 15 times, and the best
  * time gives the MB/s (input bytes, newlines counted). `Store.fetch` of
  * the same input, generated afresh on each call, is timed the same way.
  * A cold single replay, as
  * `perfbench` traces it, moves by up to 3× between runs of one commit;
  * the best of many warm calls does not.
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

  /** The word stream `tr -cs A-Za-z '\n'` makes of the prose: few distinct
    * lines, each repeated many times. */
  private val wordStream = {
    val tr = Kernels.stateless(AnnotationLib.resolve("tr", List("-cs", "A-Za-z", "\\n"))).get(Ctx(Nil, _ => Vector.empty))
    text.flatMap(tr(_))
  }

  /** Whole-stream sorts, on the word stream and on prose lines that are
    * all distinct. */
  private val sorts: List[(String, String, Vector[String])] = List(
    ("sort (words)", "sort", wordStream),
    ("sort -u (words)", "sort -u", wordStream),
    ("sort (prose)", "sort", text),
    ("sort -u (prose)", "sort -u", text))

  /** `cmd` split into words, single quotes removed. */
  private def argv(cmd: String): List[String] =
    """'[^']*'|\S+""".r.findAllIn(cmd).map(_.stripPrefix("'").stripSuffix("'")).toList

  /** Best time of `Calls` calls of `run` after `WarmUp` untimed ones, in
    * ns, and the lines the last call returned. */
  private def best(run: () => Long): (Long, Long) = {
    var out = 0L
    def call(): Long = {
      val t0 = System.nanoTime()
      out = run()
      System.nanoTime() - t0
    }
    (1 to WarmUp).foreach(_ => call())
    ((1 to Calls).map(_ => call()).min, out)
  }

  test("stateless kernel, sort and Store.fetch throughput (MB/s, best of 15 warm calls)") {
    val ctx  = Ctx(Nil, _ => Vector.empty)
    val rows = kernels.map { case (cmd, in) =>
      val w  = argv(cmd)
      val mk = Kernels.stateless(AnnotationLib.resolve(w.head, w.tail)).get
      val (ns, out) = best { () =>
        val f = mk(ctx)
        var n = 0L
        in.foreach(l => n += f(l).size)
        n
      }
      (cmd, in.iterator.map(_.length + 1L).sum, out, ns)
    }
    val sortRows = sorts.map { case (name, cmd, in) =>
      val w = argv(cmd)
      val f = Kernels.whole(AnnotationLib.resolve(w.head, w.tail))
      val (ns, out) = best(() => f(ctx)(List(in)).size.toLong)
      (name, in.iterator.map(_.length + 1L).sum, out, ns)
    }
    // the read every input goes through: 50k prose lines generated afresh
    val store = new Store(null).add("unix50.txt", Lines.toLong, SynthText.textLine(13))
    val (ns, out) = best(() => store.fetch("unix50.txt").size.toLong)
    val all = rows ++ sortRows :+ (("Store.fetch unix50.txt", text.iterator.map(_.length + 1L).sum, out, ns))
    println(f"${"kernel"}%-24s ${"in MB"}%7s ${"lines out"}%9s ${"MB/s"}%8s")
    all.foreach { case (cmd, bytes, out, ns) =>
      println(f"$cmd%-24s ${bytes / 1e6}%7.2f $out%9d ${bytes / 1e6 / (ns / 1e9)}%8.1f")
    }
    assert(all.forall(_._4 > 0) && out == Lines)
  }
}
