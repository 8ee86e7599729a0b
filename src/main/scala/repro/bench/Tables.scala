package repro.bench

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.core.Transform._
import repro.exec.{RefExec, SparkExec, Store}
import repro.sim.{PipeSim, SimBuild}
import repro.sim.SimBuild.Workload

/** Generators for every table of the paper's evaluation (S6).
  *
  * Each `tableN` function returns printable text plus the raw numbers, so
  * the bench suites can both display the table (captured into
  * EXPERIMENTS.md) and assert the paper's qualitative claims.
  */
object Tables {

  def fmt(headers: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = headers +: rows
    val widths = headers.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) =
      r.zipWithIndex.map { case (c, i) => c.padTo(widths(i), ' ') }.mkString("  ")
    (line(headers) +: line(headers.map("-" * _.length)) +: rows.map(line))
      .mkString("\n")
  }

  // ------------------------------------------------------------- Table 1

  /** Tab. 1: parallelizability study of GNU Coreutils and POSIX. */
  def table1(): String = {
    val s = AnnotationLib.study
    val paper = Map[PClass, (String, String)](
      PClass.Stateless     -> (("22 (21.1%)", "28 (18%)")),
      PClass.Pure          -> (("8 (7.6%)", "9 (5%)")),
      PClass.NonParallel   -> (("13 (12.4%)", "13 (8.3%)")),
      PClass.SideEffectful -> (("57 (58.8%)", "105 (67.8%)")),
    )
    val nC = AnnotationLib.coreutils.size
    val nP = AnnotationLib.posix.size
    val rows = PClass.all.map { c =>
      val (cu, px) = s(c)
      Seq(c.toString, c.symbol,
          f"$cu (${100.0 * cu / nC}%.1f%%)", f"$px (${100.0 * px / nP}%.1f%%)",
          paper(c)._1, paper(c)._2)
    }
    "Table 1 - Parallelizability classes (ours vs paper)\n" +
      fmt(Seq("Class", "Key", "Coreutils", "POSIX",
              "paper:Coreutils", "paper:POSIX"), rows)
  }

  // ------------------------------------------------------------- Table 2

  final case class Tab2Row(name: String, structure: String,
                           nodes16: Int, nodes64: Int,
                           compile16ms: Double, compile64ms: Double)

  /** Structure summary (class histogram) of a script's sequential DFG. */
  def structureOf(script: String): String = {
    val counts = Frontend.compile(script).regions
      .flatMap(_.nodes.values)
      .collect { case Dfg.DNode(_, Dfg.CmdOp(r), _, _) => r.cls }
      .groupBy(identity).map { case (c, l) => c.symbol -> l.size }
    List("S", "P", "N", "E").flatMap(k => counts.get(k).map(v => s"${v}x($k)"))
      .mkString(", ")
  }

  /** Tab. 2: one-liner summary - structure, #nodes and compile time at
    * widths 16 and 64 (paper's columns; seq. times live in table61). */
  def table2(): (String, List[Tab2Row]) = {
    val paperNodes = Map( // #Nodes(16,64) and compile times from Tab. 2
      "nfa-regex" -> "(49, 193)", "sort" -> "(77, 317)", "top-n" -> "(96, 384)",
      "wf" -> "(96, 384)", "spell" -> "(193, 769)",
      "shortest-scripts" -> "(142, 574)", "difference" -> "(125, 509)",
      "set-difference" -> "(185, 761)", "bi-grams" -> "(155, 635)",
      "sort-sort" -> "(154, 634)")
    // the paper's compile time includes emitting the parallel script
    def compiled(b: Scripts.ScriptBench, w: Int): (Int, Double) = {
      val t0 = System.nanoTime()
      val r  = Compiler.pash(b.script, PashConfig(w))
      r.script
      (r.stats.nodes, (System.nanoTime() - t0) / 1e6)
    }
    val rows = Scripts.oneLiners.map { b =>
      val (nodes16, ms16) = compiled(b, 16)
      val (nodes64, ms64) = compiled(b, 64)
      Tab2Row(b.name, structureOf(b.script), nodes16, nodes64, ms16, ms64)
    }
    val text = "Table 2 - One-liner summary (widths 16, 64)\n" + fmt(
      Seq("Script", "Structure", "Input", "#Nodes(16,64)", "paper#Nodes",
          "Compile(16,64)"),
      rows.zip(Scripts.oneLiners).map { case (r, b) =>
        Seq(r.name, r.structure, b.inputDesc,
            s"(${r.nodes16}, ${r.nodes64})",
            paperNodes.getOrElse(r.name, "-"),
            f"(${r.compile16ms}%.1f ms, ${r.compile64ms}%.1f ms)")
      })
    (text, rows)
  }

  // ------------------------------------- S6.1 speedups (sim, Fig. 10 data)

  val LatticeConfigs: List[(String, Int => PashConfig)] = List(
    "PaSh"          -> (w => PashConfig(w, split = true,  eager = EagerOn)),
    "PaSh w/o split"-> (w => PashConfig(w, split = false, eager = EagerOn)),
    "Blocking Eager"-> (w => PashConfig(w, split = false, eager = EagerBlocking)),
    "No Eager"      -> (w => PashConfig(w, split = false, eager = EagerOff)),
  )

  /** The paper's width sweep, and the width of its single-width results. */
  private val Widths = List(2, 4, 8, 16, 32, 64)
  private val Width  = 16

  /** Simulated speedups for the one-liners across widths and runtime
    * configurations (the data behind Fig. 10 and S6.1's averages). */
  def table61(): (String, Map[(String, String, Int), Double]) = {
    val results = collection.mutable.Map.empty[(String, String, Int), Double]
    val rows = for {
      b <- Scripts.oneLiners
      w0 = b.workload()
      seq = SimBuild.simulateScript(b.script, PashConfig(1), w0)
      (cname, cfg) <- LatticeConfigs
    } yield {
      val cells = Widths.map { w =>
        val t = SimBuild.simulateScript(b.script, cfg(w), w0)
        val s = seq / t
        results((b.name, cname, w)) = s
        f"$s%6.2f"
      }
      Seq(b.name, cname, f"${seq}%8.1f") ++ cells
    }
    val text = "S6.1 - Simulated speedups over sequential (per width)\n" + fmt(
      Seq("Script", "Config", "seq(s)") ++ Widths.map(w => s"w=$w"), rows)

    val avgs = LatticeConfigs.map { case (cname, _) =>
      Seq(cname) ++ Widths.map { w =>
        val xs = Scripts.oneLiners.map(b => results((b.name, cname, w)))
        f"${xs.sum / xs.size}%6.2f"
      }
    }
    val avgText = "\nS6.1 - Average speedup per width " +
      "(paper PaSh: 1.97 3.5 5.78 8.83 10.96 13.47; " +
      "paper No-Eager: 1.63 2.54 3.86 5.93 7.46 9.35)\n" +
      fmt(Seq("Config") ++ Widths.map(w => s"w=$w"), avgs)
    (text + avgText, results.toMap)
  }

  // ------------------------------ S6.1 real Spark wall-clock (subset)

  /** Measured Spark wall-clock speedups at container scale: sequential is
    * the untransformed DFG (single-partition task chains), parallel is the
    * PaSh-transformed DFG at width w. */
  def sparkSpeedups(spark: SparkSession, benches: List[Scripts.ScriptBench],
                    widths: List[Int], scale: Int)
      : (String, Map[(String, Int), Double]) = {
    val results = collection.mutable.Map.empty[(String, Int), Double]
    val rows = benches.map { b =>
      val regions = Frontend.compile(b.script).regions
      def time(cfgW: Option[Int]): Double = {
        val store = new Store(spark.sparkContext); b.setup(store, scale)
        val gs = cfgW match {
          case Some(w) => regions.map(Transform.parallelize(_, PashConfig(w)))
          case None    => regions
        }
        val t0 = System.nanoTime()
        new SparkExec(spark, store).runProgram(gs)
        (System.nanoTime() - t0) / 1e9
      }
      time(Some(2)) // warm-up (JIT, codegen)
      def best(cfgW: Option[Int]): Double = math.min(time(cfgW), time(cfgW))
      val seq = best(None)
      val cells = widths.map { w =>
        val t = best(Some(w))
        val s = seq / t
        results((b.name, w)) = s
        f"$s%5.2f"
      }
      Seq(b.name, f"$seq%7.2f s") ++ cells
    }
    val text = s"S6.1 - Real Spark wall-clock speedups (scale=$scale, " +
      s"${Runtime.getRuntime.availableProcessors} cores)\n" + fmt(
      Seq("Script", "seq") ++ widths.map(w => s"w=$w"), rows)
    (text, results.toMap)
  }

  // ------------------------------------------------------------- Unix50

  def unix50Table(): (String, List[(String, Double)]) = {
    val speedups = Scripts.unix50.map { b =>
      val w0  = b.workload()
      val seq = SimBuild.simulateScript(b.script, PashConfig(1), w0)
      val par = SimBuild.simulateScript(b.script, PashConfig(Width), w0)
      (b.name, seq / par, seq)
    }
    val sorted = speedups.sortBy(-_._2)
    val avg  = speedups.map(_._2).sum / speedups.size
    val wavg = speedups.map(s => s._2 * s._3).sum / speedups.map(_._3).sum
    val text = s"S6.2 - Unix50 simulated speedups (width=$Width, 10GB), " +
      "descending (Fig. 11 data)\n" + fmt(
      Seq("Pipeline", "Speedup", "Seq(s)"),
      sorted.map { case (n, s, t) => Seq(n, f"$s%6.2f", f"$t%8.1f") }) +
      f"\nAverage: $avg%.2f (paper: 6.02), weighted: $wavg%.2f (paper: 5.75)"
    (text, speedups.map(s => (s._1, s._2)))
  }

  // --------------------------------------------------------------- NOAA

  /** S6.3: total/preprocess/compute speedups for the Fig. 2 script. */
  def noaaTable(): (String, (Double, Double, Double)) = {
    val b  = Scripts.noaa
    val w0 = b.workload()
    def sp(script: String, wl: Workload): (Double, Double) = {
      val seq = SimBuild.simulateScript(script, PashConfig(1), wl)
      val par = SimBuild.simulateScript(script, PashConfig(Width), wl)
      (seq, seq / par)
    }
    val (seqT, total) = sp(b.script, w0)
    // preprocessing = download + extract (everything up to gunzip)
    val pre =
      s"""base=${Scripts.noaaBase}
for y in {2015..2019}; do
  curl $$base/$$y | grep gz | tr -s " " | cut -d " " -f 9 | sed "s;^;$$base/$$y/;" | xargs -n 1 curl -s | gunzip > year$$y.dat
done"""
    val (preSeq, preS) = sp(pre, w0)
    // compute = max-temperature over already-downloaded data
    val comp =
      """cat year.dat | cut -c 89-92 | grep -iv 999 | sort -rn | head -n 1 | sed "s/^/max: /""""
    val compWl = Workload(
      fileMB = Map("year.dat" -> 16.4 * 1024).withDefaultValue(0.05),
      overrides = Map("grep" -> PipeSim.Cost(120.0, sel = 0.9)))
    val (compSeq, compS) = sp(comp, compWl)
    val text = s"S6.3 - NOAA weather analysis (width=$Width)\n" + fmt(
      Seq("Phase", "seq(s)", "speedup", "paper"),
      Seq(
        Seq("total",      f"$seqT%8.1f", f"$total%5.2f", "2.52 (44m2s seq)"),
        Seq("preprocess", f"$preSeq%8.1f", f"$preS%5.2f", "2.04 (33m58s seq, 75%)"),
        Seq("compute",    f"$compSeq%8.1f", f"$compS%5.2f", "12.31 (10m4s seq)"),
      ))
    (text, (total, preS, compS))
  }

  // ---------------------------------------------------------- Wikipedia

  def wikipediaTable(): (String, Double) = {
    val b  = Scripts.wikipedia
    val w0 = b.workload()
    val seq = SimBuild.simulateScript(b.script, PashConfig(1), w0)
    val par = SimBuild.simulateScript(b.script, PashConfig(Width), w0)
    val s = seq / par
    val text = s"S6.4 - Wikipedia indexing (width=$Width)\n" + fmt(
      Seq("Metric", "ours", "paper"),
      Seq(Seq("seq time", f"$seq%8.1f s", "191 min (1.3GB, 1% of Wikipedia)"),
          Seq("speedup",  f"$s%5.2f", "12.7")))
    (text, s)
  }

  // --------------------------------------------------- S6.5 micro-benches

  /** PaSh-parallelized sort (sim) vs `sort --parallel` (Amdahl model with
    * a sequential input scan + final merge, consistent with the paper's
    * observation that sort's own scaling is inherently limited). */
  def microSort(): (String, Map[Int, (Double, Double, Double)]) = {
    val b  = Scripts.sortOne
    val w0 = b.workload()
    val seq = SimBuild.simulateScript(b.script, PashConfig(1), w0)
    // sort --parallel=k: the paper runs it at 2x PaSh's width; parallel
    // fraction p of the in-memory sort work scales, input scan + merge do
    // not (Amdahl) - calibrated so its curve flattens like the paper's
    val p = 0.8
    def sortParallel(k: Int): Double = {
      val scan  = 10240.0 / 230.0            // sequential read+parse
      val sortW = 10240.0 / 35.0 - scan      // parallelizable fraction base
      scan + sortW * ((1 - p) + p / k)
    }
    val results = Widths.map { w =>
      val sp  = seq / SimBuild.simulateScript(b.script, PashConfig(w), w0)
      val spNe = seq / SimBuild.simulateScript(
        b.script, PashConfig(w, eager = EagerOff), w0)
      val sg  = seq / sortParallel(2 * w)
      w -> ((sp, spNe, sg))
    }.toMap
    val text = "S6.5 - PaSh sort (S_p) vs sort --parallel (S_g at 2xwidth)\n" + fmt(
      Seq("width", "S_p (PaSh)", "S_p no-eager", "S_g (--parallel)"),
      Widths.map { w =>
        val (a, b2, c) = results(w)
        Seq(w.toString, f"$a%6.2f", f"$b2%6.2f", f"$c%6.2f")
      }) + "\npaper: S_p-no-eager ~ S_g; S_p with eager ~ 2x S_g at high width"
    (text, results)
  }

  /** GNU-parallel comparison on the bio script: PaSh vs parallelizing only
    * the bottleneck stage vs naive (incorrect) chunking. The incorrectness
    * percentage is *measured* on Spark by `microGnuParallelDiff`. */
  def microGnuParallel(): (String, (Double, Double)) = {
    val b  = Scripts.bio
    val w0 = b.workload()
    val seq = SimBuild.simulateScript(b.script, PashConfig(1), w0)
    val pash = SimBuild.simulateScript(b.script, PashConfig(Width), w0)
    // bottleneck-only: the user parallelizes cutadapt (trim-adapter) alone;
    // the rest of the pipeline stays sequential - analytic from the sim's
    // own cost model: trim dominates at 25 MB/s over 4 GB
    val trimSeq   = 4.0 * 1024 / 25.0
    val bottleneck = seq - trimSeq + trimSeq / Width
    val text = s"S6.5 - GNU parallel comparison (bio script, width=$Width)\n" + fmt(
      Seq("Variant", "time(s)", "speedup", "paper"),
      Seq(
        Seq("sequential",       f"$seq%8.1f", "1.00", "554.8s"),
        Seq("PaSh",             f"$pash%8.1f", f"${seq / pash}%5.2f", "128.5s (4.3x), correct"),
        Seq("parallel on bottleneck", f"$bottleneck%8.1f",
            f"${seq / bottleneck}%5.2f", "304.4s (1.8x), correct"),
        Seq("naive parallel everywhere", "-", "~3.2x (paper)",
            "incorrect: 92% of output differs"),
      ))
    (text, (seq / pash, seq / bottleneck))
  }

  /** Measured output-corruption fraction of naive chunk-and-concat
    * parallelization (GNU-parallel misuse) on the bio script (4 thousand
    * input lines), on Spark. */
  def microGnuParallelDiff(spark: SparkSession): (String, Double) = {
    val b = Scripts.bio
    val regions = Frontend.compile(b.script).regions
    def store() = { val s = new Store(spark.sparkContext); b.setup(s, 4); s }
    val good = RefExec.runProgram(regions, store())
    val bad  = new SparkExec(spark, store())
      .runProgram(regions.map(Transform.naiveParallel(_, PashConfig(Width))))
    val n = math.max(good.stdout.size, bad.stdout.size)
    val differing = good.stdout.zipAll(bad.stdout, "∅", "∅")
      .count { case (a, c) => a != c }
    val frac = if (n == 0) 0.0 else differing.toDouble / n
    (f"naive-parallel output difference vs sequential: ${100 * frac}%.0f%% " +
     "of lines (paper: 92%%)", frac)
  }
}
