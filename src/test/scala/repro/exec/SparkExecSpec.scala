package repro.exec

import scala.jdk.CollectionConverters._

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

import repro.SparkSpec
import repro.bench.{Scripts, SynthText}
import repro.bench.Scripts.ScriptBench
import repro.core.{Frontend, Transform}
import repro.core.Dfg._
import repro.core.Transform.PashConfig

/** Spark executor correctness: for every evaluation script,
  *
  *   SparkExec(parallelized, width) == SparkExec(original) == RefExec(original)
  *
  * i.e. the distributed execution of the transformed DFG reproduces the
  * golden sequential semantics byte-for-byte, including stream order.
  */
class SparkExecSpec extends SparkSpec {

  private def freshStore(b: ScriptBench, scale: Int): Store = {
    val s = new Store(spark.sparkContext); b.setup(s, scale); s
  }

  /** `body`'s result and the description of every Spark job it submitted,
    * in submission order, as a listener sees them. */
  private def withJobs[A](body: => A): (A, List[String]) = {
    val sc   = spark.sparkContext
    val seen = new java.util.concurrent.ConcurrentLinkedQueue[String]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        seen.add(Option(e.properties).flatMap(p => Option(p.getProperty("spark.job.description")))
          .getOrElse(""))
    }
    ListenerBusDrain(sc)
    sc.addSparkListener(listener)
    try { val a = body; ListenerBusDrain(sc); (a, seen.asScala.toList) }
    finally sc.removeSparkListener(listener)
  }

  /** Node ids named by a job description `DFG nodes 3,5,8`. */
  private def nodeIds(description: String): Set[Int] = {
    assert(description.startsWith("DFG nodes "), s"job description '$description'")
    description.stripPrefix("DFG nodes ").split(",").filter(_.nonEmpty).map(_.toInt).toSet
  }

  /** `setup` overrides the script's own input registration (tiny inputs). */
  private def check(b: ScriptBench, widths: List[Int], scale: Int = 2,
                    setup: Option[Store => Unit] = None): Unit = {
    def store() = setup.fold(freshStore(b, scale)) { f =>
      val s = new Store(spark.sparkContext); f(s); s
    }
    val regions = Frontend.compile(b.script).regions
    val golden  = RefExec.runProgram(regions, store())
    // a sequential region is one task chain: ONE job
    val seqStore = store()
    val seqExec  = new SparkExec(spark, seqStore)
    val sparkSeq = RefExec.runRegions(regions, seqStore) { g =>
      val (out, jobs) = withJobs(seqExec.run(g))
      assert(jobs.size == 1, s"${b.name}: a sequential region ran ${jobs.size} jobs")
      out
    }
    assert(sparkSeq.stdout == golden.stdout, s"${b.name}: spark sequential stdout differs")
    assert(sparkSeq.files == golden.files, s"${b.name}: spark sequential sinks differ")
    widths.foreach { w =>
      val sparkPar = new SparkExec(spark, store())
        .runProgram(regions.map(Transform.parallelize(_, PashConfig(w))))
      assert(sparkPar.stdout == golden.stdout, s"${b.name} width=$w: stdout differs")
      assert(sparkPar.files == golden.files, s"${b.name} width=$w: sinks differ")
    }
  }

  // §6.1 one-liners on Spark, sequential + widths {2, 4}
  Scripts.oneLiners.foreach { b =>
    test(s"spark ${b.name}: parallel == sequential == reference") {
      check(b, List(2, 4))
    }
  }

  // a representative Unix50 slice on Spark (full set runs on RefExec)
  List(0, 4, 6, 9, 14, 18, 24, 26, 30).foreach { i =>
    val b = Scripts.unix50(i)
    test(s"spark ${b.name}: parallel == sequential == reference") {
      check(b, List(3))
    }
  }

  test("spark noaa: parallel == sequential == reference") {
    check(Scripts.noaa, List(2, 4), scale = 8)
  }
  test("spark wikipedia: parallel == sequential == reference") {
    check(Scripts.wikipedia, List(2, 4), scale = 6)
  }
  test("spark bio: parallel == sequential == reference") {
    check(Scripts.bio, List(2, 4))
  }

  // (P) after (P): a split re-chunks each merged stream by line slices
  List(Scripts.sortSort, Scripts.wf, Scripts.topN, Scripts.unix50(19)).foreach { b =>
    test(s"spark ${b.name} (P after P): parallel == sequential == reference at widths 3, 7") {
      check(b, List(3, 7))
    }
  }
  test("spark sort-sort with fewer lines than the width (empty split slices)") {
    check(Scripts.sortSort, List(7),
      setup = Some(_.add("in.txt", 3, SynthText.textLine(21))))
  }
  test("spark top-n on an empty input") {
    check(Scripts.topN, List(3, 7), setup = Some(_.add("in.txt", 0, SynthText.textLine(13))))
  }

  // a `sort -m` tree that feeds a split is cut by key range: runs of equal
  // lines longer than a range, fewer distinct lines than ranges, key ties
  // under -u, and a uniq whose parts cannot be kept (`cut` makes lines equal)
  private def lines(name: String, script: String, in: Vector[String]): (ScriptBench, Store => Unit) =
    (ScriptBench(name, script, "", Map.empty, setup = (_, _) => ()), _.addLines("in.txt", in))

  private val wfShape = "cat in.txt | sort | uniq -c | sort -rn"
  List(
    lines("one line over n/W times", wfShape,
      Vector.tabulate(50)(i => if (i % 5 == 0) s"k$i" else "m")),
    lines("every line equal", wfShape, Vector.fill(30)("same")),
    lines("every line equal, sort -u", "cat in.txt | sort -u | sort -r", Vector.fill(30)("same")),
    lines("W over the distinct lines", wfShape, Vector.tabulate(20)(i => if (i % 2 == 0) "b" else "a")),
    lines("sort -nu over key-equal lines", "cat in.txt | sort -nu | sort -r",
      Vector.tabulate(60)(i => s"${i % 13} line$i")),
    lines("cut after the cut, uniq -c output", "cat in.txt | sort | cut -c 1 | uniq -c",
      Vector.tabulate(60)(i => s"${('a' + i % 3).toChar}$i")),
    lines("cut after the cut, uniq -c split", "cat in.txt | sort | cut -c 1 | uniq -c | sort -rn",
      Vector.tabulate(60)(i => s"${('a' + i % 3).toChar}$i")),
  ).foreach { case (b, setup) =>
    test(s"spark key-range cut, ${b.name}: parallel == sequential == reference at widths 3, 7") {
      check(b, List(3, 7), setup = Some(setup))
    }
  }

  // sort-sort's first job caches the leaves of its first aggregate tree
  test("a region that fails mid-job leaves no cached RDDs behind") {
    val s = new Store(spark.sparkContext)
    s.add("in.txt", 100, i => if (i == 99) sys.error("unreadable line") else s"line-$i")
    val regions = Frontend.compile(Scripts.sortSort.script).regions
      .map(Transform.parallelize(_, PashConfig(4)))
    intercept[Exception](new SparkExec(spark, s).runProgram(regions))
    assert(spark.sparkContext.getPersistentRDDs.isEmpty)
  }

  test("width 4 jobs: one per sort -m cut or merged tree, one to collect") {
    List("sort" -> 1, "sort-sort" -> 2, "wf" -> 2, "top-n" -> 3, "spell" -> 2,
         "unix50-20" -> 2, "nfa-regex" -> 1, "unix50-01" -> 1).foreach { case (name, n) =>
      val b = Scripts.all.find(_.name == name).get
      val regions = Frontend.compile(b.script).regions.map(Transform.parallelize(_, PashConfig(4)))
      val (_, jobs) = withJobs(new SparkExec(spark, freshStore(b, 2)).runProgram(regions))
      assert(jobs.size == n, s"$name: ${jobs.size} jobs")
    }
  }

  test("every job is described by the DFG nodes it computes, each node by one job") {
    val b = Scripts.wf
    val List(g) = Frontend.compile(b.script).regions.map(Transform.parallelize(_, PashConfig(4)))
    val (_, jobs) = withJobs(new SparkExec(spark, freshStore(b, 2)).run(g))
    val named = jobs.map(nodeIds)
    assert(named.forall(_.nonEmpty))
    assert(named.flatten.size == named.flatten.toSet.size, s"a node named by two jobs: $jobs")
    assert(named.flatten.toSet.subsetOf(g.nodes.keySet))
    val replicas = g.nodes.values.collect { case DNode(id, _: MapOp | _: SplitOp, _, _) => id }
    assert(replicas.toSet.subsetOf(named.flatten.toSet), s"unattributed nodes: $jobs")
  }

  test("split of a multi-partition stream: one block, then contiguous slices") {
    val s = new Store(spark.sparkContext)
    s.add("f", 10, i => s"line-$i")
    val gb   = new Builder
    val read = Vector(gb.freshEdge(Some(SrcFilePart("f", 0, 2))), gb.freshEdge(Some(SrcFilePart("f", 1, 2))))
    val cat  = gb.freshEdge()
    gb.addNode(CatOp, read, Vector(cat))
    val parts = Vector.fill(3)(gb.freshEdge())
    gb.addNode(SplitOp(3), Vector(cat), parts)
    parts.zipWithIndex.foreach { case (e, i) => gb.setSink(e, s"part-$i") }
    val g = gb.result()
    val (out, jobs) = withJobs(new SparkExec(spark, s).run(g))
    val lines = (0 until 10).map(i => s"line-$i").toVector
    assert(out.files == Map("part-0" -> lines.slice(0, 3), "part-1" -> lines.slice(3, 6),
                            "part-2" -> lines.slice(6, 10)))
    assert(out == RefExec.run(g, s))
    assert(jobs.size == 2, "one job caches the two chunks, one collects the slices")
  }

  test("spark naive chunk-and-concat corrupts wf (§6.5 GNU-parallel misuse)") {
    val b = Scripts.wf
    val regions = Frontend.compile(b.script).regions
    val golden = RefExec.runProgram(regions, freshStore(b, 2))
    val naive  = new SparkExec(spark, freshStore(b, 2))
      .runProgram(regions.map(Transform.naiveParallel(_, PashConfig(4))))
    assert(naive.stdout != golden.stdout)
    val diff = naive.stdout.zipAll(golden.stdout, "∅", "∅").count { case (a, c) => a != c }
    assert(diff.toDouble / golden.stdout.size.max(1) > 0.5,
      s"expected large corruption, got $diff/${golden.stdout.size}")
  }

  test("an opaque node compiles and stays sequential, and neither executor runs it") {
    // `$y` is unset: `sh` runs `wc -l` and `uniq -c`, which the node no longer holds
    List("cat a.txt | wc -l $y" -> "wc -l", "cat a.txt | uniq -c $y" -> "uniq -c").foreach {
      case (src, words) =>
        val store = new Store(spark.sparkContext).addLines("a.txt", Vector("a", "a"))
        val seq   = Frontend.compile(src).regions
        val par   = seq.map(Transform.parallelize(_, PashConfig(4)))
        assert(par.head.nodes.values.count {
          case DNode(_, CmdOp(r), _, _) => r.opaque
          case _                        => false
        } == 1, src)
        List[() => RefExec.Out](() => RefExec.runProgram(seq, store),
                                () => new SparkExec(spark, store).runProgram(seq),
                                () => new SparkExec(spark, store).runProgram(par)).foreach { run =>
          val e = intercept[IllegalArgumentException](run())
          assert(e.getMessage.contains(s"($words) is opaque"), e.getMessage)
        }
    }
  }

  test("chunked file reads preserve order (rddPart concatenation)") {
    val s = new Store(spark.sparkContext)
    s.add("f", 1000, i => s"line-$i")
    val whole = s.rdd("f").collect().toVector
    val parts = (0 until 7).flatMap(i => s.rddPart("f", i, 7).collect()).toVector
    assert(parts == whole)
    var generated = 0
    s.add("g", 1000, { i => generated += 1; s"line-$i" })
    val chunks = (0 until 7).flatMap(i => s.fetchPart("g", i, 7)).toVector
    assert(generated == 1000, "fetchPart must generate only its own lines")
    assert(chunks == s.fetch("g") && chunks == whole)
  }
}
