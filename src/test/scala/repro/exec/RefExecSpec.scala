package repro.exec

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.Scripts
import repro.bench.Scripts.ScriptBench
import repro.core.{Frontend, Transform}
import repro.core.Transform.{EagerBlocking, EagerOff, EagerOn, PashConfig}

/** Sequential-vs-parallel equivalence on the reference interpreter: for
  * every evaluation script and several widths/configs, the transformed DFG
  * must produce byte-identical output (§6 "results identical to
  * sequential"). This isolates the *transformation*'s correctness from
  * Spark specifics (covered in SparkExecSpec).
  */
class RefExecSpec extends AnyFunSuite {

  private def outOf(b: ScriptBench, cfg: Option[PashConfig], scale: Int): RefExec.Out = {
    val store = new Store(null)
    b.setup(store, scale)
    val regions = Frontend.compile(b.script).regions
    val gs = cfg match {
      case Some(c) => regions.map(Transform.parallelize(_, c))
      case None    => regions
    }
    RefExec.runProgram(gs, store)
  }

  private def checkEquivalence(b: ScriptBench, widths: List[Int], scale: Int = 2): Unit = {
    val seq = outOf(b, None, scale)
    assert(seq.stdout.nonEmpty || seq.files.nonEmpty, s"${b.name}: produced nothing")
    widths.foreach { w =>
      val par = outOf(b, Some(PashConfig(w)), scale)
      assert(par.stdout == seq.stdout, s"${b.name} width=$w stdout differs")
      assert(par.files == seq.files, s"${b.name} width=$w file sinks differ")
    }
  }

  // ---- §6.1 one-liners, several widths (incl. non-dividing widths)
  Scripts.oneLiners.foreach { b =>
    test(s"one-liner ${b.name}: parallel == sequential for widths 2,3,5,8") {
      checkEquivalence(b, List(2, 3, 5, 8))
    }
  }

  // ---- §6.2 Unix50
  Scripts.unix50.foreach { b =>
    test(s"${b.name}: parallel == sequential at width 4") {
      checkEquivalence(b, List(4))
    }
  }

  // ---- §6.3–6.5 use cases
  test("noaa: parallel == sequential for widths 2,4") {
    checkEquivalence(Scripts.noaa, List(2, 4), scale = 8)
  }
  test("wikipedia: parallel == sequential for widths 2,4") {
    checkEquivalence(Scripts.wikipedia, List(2, 4), scale = 6)
  }
  test("bio: parallel == sequential for widths 2,4") {
    checkEquivalence(Scripts.bio, List(2, 4))
  }

  // ---- runtime-lattice configurations never change results
  test("lattice configs (no-split / blocking / no-eager) preserve results") {
    val b   = Scripts.wf
    val seq = outOf(b, None, 2)
    for {
      split <- List(true, false)
      eager <- List(EagerOn, EagerBlocking, EagerOff)
    } {
      val par = outOf(b, Some(PashConfig(4, split, eager)), 2)
      assert(par.stdout == seq.stdout, s"split=$split eager=$eager differs")
    }
  }

  // ---- degenerate widths
  test("width larger than the input line count still works") {
    val b   = Scripts.sortOne
    val store = new Store(null)
    b.setup(store, 1)
    // tiny file: 3 lines, width 8
    store.addLines("in.txt", Vector("b x", "a y", "c z"))
    val seq = RefExec.runProgram(Frontend.compile(b.script).regions, store)
    val par = RefExec.runProgram(
      Frontend.compile(b.script).regions.map(Transform.parallelize(_, PashConfig(8))), store)
    assert(par.stdout == seq.stdout)
  }

  test("empty input produces empty output under any width") {
    val store = new Store(null)
    store.addLines("in.txt", Vector.empty)
    val regions = Frontend.compile("cat in.txt | tr A-Z a-z | sort | uniq -c").regions
    val seq = RefExec.runProgram(regions, store)
    val par = RefExec.runProgram(regions.map(Transform.parallelize(_, PashConfig(4))), store)
    assert(seq.stdout.isEmpty && par.stdout.isEmpty)
  }

  test("xargs wc over a file list: parallel == sequential at width 4") {
    // without `-n 1` one batch prints one `total` line; replicas would
    // print one each, so only `xargs -n 1 wc` may be replicated
    val store = new Store(null)
    val files = Vector.tabulate(8)(i => s"f$i.txt")
    files.zipWithIndex.foreach { case (f, i) => store.addLines(f, Vector.fill(i + 1)("x")) }
    store.addLines("list.txt", files)
    List("cat list.txt | xargs wc -l", "cat list.txt | xargs -n 1 wc -l").foreach { src =>
      val regions = Frontend.compile(src).regions
      val seq = RefExec.runProgram(regions, store)
      val par = RefExec.runProgram(regions.map(Transform.parallelize(_, PashConfig(4))), store)
      assert(par.stdout == seq.stdout, src)
    }
    val seq = RefExec.runProgram(Frontend.compile("cat list.txt | xargs wc -l").regions, store)
    assert(seq.stdout.count(_.endsWith(" total")) == 1 && seq.stdout.last == "36 total")
  }

  // ---- the incorrect naive transformation measurably breaks (P) scripts
  test("naive chunk-and-concat breaks wf but PaSh does not (§6.5)") {
    val b     = Scripts.wf
    val store = new Store(null); b.setup(store, 2)
    val regions = Frontend.compile(b.script).regions
    val seq   = RefExec.runProgram(regions, store)
    val naive = RefExec.runProgram(
      regions.map(Transform.naiveParallel(_, PashConfig(4))), store)
    assert(naive.stdout != seq.stdout, "naive parallelization should corrupt wf")
    val differing = naive.stdout.zipAll(seq.stdout, "∅", "∅").count { case (a, b) => a != b }
    assert(differing > 0)
  }

  test("naive transformation is harmless for stateless-only scripts") {
    val b     = Scripts.nfaRegex
    val store = new Store(null); b.setup(store, 2)
    val regions = Frontend.compile(b.script).regions
    val seq   = RefExec.runProgram(regions, store)
    val naive = RefExec.runProgram(
      regions.map(Transform.naiveParallel(_, PashConfig(4))), store)
    assert(naive.stdout == seq.stdout)
  }
}
