package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.file.{Path, Paths}

import scala.jdk.CollectionConverters._
import scala.util.{Failure, Success, Try}

import repro.bench.Scripts
import repro.core.{Compiler, Frontend}
import repro.core.Transform.PashConfig
import repro.exec.{RefExec, Store}

/** The benchmark's entry point: one workload, one seed, one JVM.
  *
  * {{{
  * perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *                --work <dir> --results <dir> [--control naive]
  *                [--git-sha <sha>] [--host <name>]
  * }}}
  *
  * With `--trace 0` it measures the end-to-end metrics; with `--trace 1`
  * it records spans around each call into a layer and reports the
  * per-layer metrics. Every output is checked against `RefExec` on the
  * sequential DFG and against GNU `sh`. A summary goes to standard
  * output, whose last line is the JSON result; the full record (host,
  * samples, oracle lists) goes to a file under `--results`.
  * `--control naive` compiles the parallel side with the incorrect
  * `Compiler.naive`: the output check must then fail.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean,
                        work: Path, results: Path, naive: Boolean, gitSha: String, host: String)

  /** Set-ups per untraced run; `setup_s` is their median. */
  val SetupReps = 3
  /** Script compiles that warm up the compiler before it is timed. */
  val WarmCompiles = 3000
  /** Input scale (thousands of lines) of the corpus-wide output check. */
  val CheckScale = 2

  def main(argv: Array[String]): Unit = {
    val a     = parseArgs(argv)
    val wl    = Workloads.byName(a.workload)
    val rep   = new Report(a)
    val bench = new SparkBench(wl, a.seed, a.work, a.naive)
    rep.host("width", Json.num(Workloads.Cores))
    rep.host("spark_master", Json.str(s"local[${Workloads.Cores}]"))
    if (a.trace) traced(wl, a, rep, bench) else untraced(wl, a, rep, bench)
    rep.phase("gnu_oracle")(gnuOracle(wl, a, rep, bench))
    bench.stop()
    rep.finish()
    System.exit(0) // Spark leaves non-daemon threads behind
  }

  private def parseArgs(argv: Array[String]): Args = {
    val m = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val control = m.getOrElse("control", "pash")
    require(control == "pash" || control == "naive", s"--control must be pash or naive, got $control")
    Args(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1",
         Paths.get(need("work")), Paths.get(need("results")), control == "naive",
         m.getOrElse("git-sha", "unknown"), m.getOrElse("host", "unknown"))
  }

  // ------------------------------------------------------------- helpers

  def now(): Long = System.nanoTime()
  def secsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9
  def median(xs: Seq[Double]): Double = Stats.quantile(xs, 0.5)

  /** Process start on the `System.nanoTime` clock. */
  private def processStart(): Long = {
    val ageMs = System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime
    System.nanoTime() - ageMs * 1000000L
  }

  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)

  /** Collect garbage, then start a new peak-heap window. */
  private def resetPeakHeap(): Unit = { System.gc(); heapPools.foreach(_.resetPeakUsage()) }
  private def peakHeapMb(): Double = heapPools.map(_.getPeakUsage.getUsed).sum / 1e6

  /** Run `body` at least `min` times, and again while one more run, as
    * long as the last one, would end before `deadline` (nanoTime). */
  def repeatWithin[A](deadline: Long, min: Int)(body: => A): Vector[A] = {
    val out  = Vector.newBuilder[A]
    var n    = 0
    var last = 0L
    while (n < min || System.nanoTime() + last <= deadline) {
      val t0 = System.nanoTime()
      out += body
      last = System.nanoTime() - t0
      n += 1
    }
    out.result()
  }

  /** A pass's time as the sum over scripts of each script's median run
    * time across `passes`: one slow run of one script moves it less than
    * it moves the median of the pass totals. */
  private def passTime(passes: Seq[SparkBench#Pass]): Double =
    passes.flatMap(_.runs).groupBy(_.script).values.map(rs => median(rs.map(_.seconds))).sum

  private def pair(bench: SparkBench): Vector[SparkBench#Pass] =
    Vector(bench.pass(parallel = false), bench.pass(parallel = true))

  private def seqGraphs(b: Scripts.ScriptBench) = Frontend.compile(b.script).regions

  // ------------------------------------------------------------ untraced

  private def untraced(wl: Workload, a: Args, rep: Report, bench: SparkBench): Unit = {
    val sim = rep.phase("sim")(CoreSim.simPass(wl.scripts))
    rep.e2e("sim_speedup_w16", Seq(CoreSim.speedup(sim.model, wl.scripts, 16)))
    rep.e2e("sim_speedup_w64", Seq(CoreSim.speedup(sim.model, wl.scripts, 64)))
    sim.model.foreach(_ => rep.ok())
    sim.failures.foreach(f => rep.fail(s"simulator: $f"))

    rep.e2e("setup_s", rep.phase("setup")((0 until SetupReps).map { k =>
      if (k > 0) bench.stop()
      val t0 = now()
      bench.setUp()
      secsSince(t0)
    }))
    rep.phase("warm_pair")(pair(bench)) // full-size and untimed: the JIT is still warming up

    resetPeakHeap()
    val t0 = now()
    rep.info("setup_total_s", (t0 - processStart()) / 1e9, "s")
    val passes = rep.phase("timed")(repeatWithin(t0 + a.seconds * 1000000000L, 1)(pair(bench)).flatten)
    rep.e2e("peak_heap_mb", Seq(peakHeapMb()))

    val (par, seq) = passes.partition(_.parallel)
    rep.e2e("seq_s", seq.map(_.seconds), Some(passTime(seq)))
    rep.e2e("par_s", par.map(_.seconds), Some(passTime(par)))
    rep.info("spark.speedup_w4", passTime(seq) / passTime(par), "x")
    rep.scriptTimes = wl.scripts.map { b =>
      def med(ps: Seq[SparkBench#Pass]) = median(ps.flatMap(_.runs).filter(_.script == b.name).map(_.seconds))
      b.name -> (med(seq), med(par))
    }
    rep.phase("check")(checkPasses(rep, passes,
      bench.reference(new Trace(enabled = false), "refexec.seq", seqGraphs)))
  }

  // -------------------------------------------------------------- traced

  private def traced(wl: Workload, a: Args, rep: Report, bench: SparkBench): Unit = {
    bench.setUp()
    pair(bench)
    val trace = new Trace(enabled = true)
    // untraced and traced pass pairs alternate; the difference of their
    // medians is the cost of tracing
    val pairs = repeatWithin(now() + a.seconds * 500000000L, 1) {
      val u = pair(bench)
      trace.pass()
      (u, Vector(bench.tracedPass(parallel = false, trace), bench.tracedPass(parallel = true, trace)))
    }
    val n = pairs.size.toDouble
    checkPasses(rep, pairs.flatMap(p => p._1 ++ p._2),
                bench.reference(trace, "refexec.seq", seqGraphs))
    rep.layer("trace.overhead_s",
      median(pairs.map(_._2.map(_.seconds).sum)) - median(pairs.map(_._1.map(_.seconds).sum)))

    val s = bench.stats
    rep.layer("spark.jobs", s.jobs / n)
    rep.layer("spark.stages", s.stages / n)
    rep.layer("spark.tasks", s.tasks / n)
    rep.layer("spark.task_run_s", s.runMs / 1e3 / n)
    rep.layer("spark.task_cpu_s", s.cpuNs / 1e9 / n)
    rep.layer("spark.task_deser_s", s.deserMs / 1e3 / n)
    rep.layer("spark.sched_delay_s", s.schedMs / 1e3 / n)
    rep.layer("spark.idle_core_s", (Workloads.Cores * trace.seconds("spark.run") - s.runMs / 1e3) / n)
    rep.layer("spark.result_mb", s.resultBytes / 1e6 / n)
    rep.layer("spark.spill_mb", s.spillBytes / 1e6 / n)

    // The kernel replay covers the scripts of every workload, so that each
    // kernel the benchmark uses is measured in every traced run. Its stores
    // stay in this thread and count the lines they materialize.
    val replayed = Workloads.all.flatMap(_.spark)
    val replay   = new Replay(trace)
    def replayAll(parallel: Boolean): Inputs.ReadCounter = {
      val counter = new Inputs.ReadCounter
      trace.pass()
      replayed.foreach { case (b, lines) =>
        val store = new Store(null) // never handed to Spark
        Inputs.register(store, b, a.seed, scale = 1, lines = Some(lines), wrap = counter.wrap)
        val gs = if (parallel) bench.parallelize(b.script) else seqGraphs(b)
        Try(replay.runProgram(gs, store)).failed
          .foreach(e => rep.fail(s"${b.name}: replay failed: ${e.getMessage}"))
      }
      counter
    }
    replayAll(parallel = false)
    val parReads = replayAll(parallel = true)
    rep.kernels(replay)
    rep.layer("store.read_mb", parReads.bytes / 1e6)
    rep.layer("store.read_amplification",
      parReads.lines.toDouble / replayed.map { case (b, n) => n * Inputs.generated(b).size }.sum)
    rep.layer("store.sink_write_s", replay.sinkNanos / 1e9)
    rep.layer("store.sink_lines", replay.sinkLines.toDouble)

    bench.reference(trace, "refexec.par", b => bench.parallelize(b.script))
    rep.layer("refexec.seq_s", trace.seconds("refexec.seq"))
    rep.layer("refexec.par_s", trace.seconds("refexec.par"))

    coreLayer(wl, rep, trace)
    simLayer(wl, rep, trace)
    corpusCheck(a, rep)
    rep.selfTimes(trace)
    trace.write(a.results.resolve(rep.fileStem + "-spans.jsonl"))
  }

  /** Warm compile timing, then five traced compile passes. */
  private def coreLayer(wl: Workload, rep: Report, trace: Trace): Unit = {
    val perPass = wl.scripts.size * CoreSim.CompileWidths.size
    (1 to WarmCompiles / perPass).foreach(_ => CoreSim.compilePass(wl.scripts))
    rep.layer("core.compile_ms",
      median(repeatWithin(now() + 1000000000L, 5)(CoreSim.compilePass(wl.scripts))))
    val passes = Vector.fill(5) {
      val id = trace.pass()
      id -> CoreSim.tracedCompilePass(wl.scripts, trace)
    }
    val counts = passes.map(_._2)
    if (counts.distinct.size != 1) rep.fail("compiler: node counts differ between passes")
    def phaseUs(name: String): Vector[Double] = passes.map { case (id, _) =>
      trace.all.iterator.filter(s => s.pass == id && s.name == name).map(_.nanos).sum / 1e3
    }
    val parse = phaseUs("core.parse")
    rep.layer("core.parse_us", median(parse))
    rep.layer("core.frontend_us", median(phaseUs("core.frontend").zip(parse).map { case (f, p) => f - p }))
    rep.layer("core.transform_us", median(phaseUs("core.transform")))
    rep.layer("core.emit_us", median(phaseUs("core.emit")))
    rep.layer("core.stats_us", median(phaseUs("core.stats")))
    val c = counts.head
    rep.layer("core.dfg_nodes_w16", c(16).nodes)
    rep.layer("core.dfg_nodes_w64", c(64).nodes)
    rep.layer("core.agg_nodes_w64", c(64).agg)
    rep.layer("core.relay_nodes_w64", c(64).relay)
    rep.layer("core.split_nodes_w64", c(64).split)
    rep.layer("core.script_bytes_w64", c(64).scriptBytes.toDouble)
  }

  /** An untimed warm-up pass, a timed simulator pass, then a traced one. */
  private def simLayer(wl: Workload, rep: Report, trace: Trace): Unit = {
    CoreSim.simPass(wl.scripts)
    rep.layer("sim.sim_s", CoreSim.simPass(wl.scripts).seconds)
    val id  = trace.pass()
    val sim = CoreSim.tracedSimPass(wl.scripts, trace)
    (1 to sim.failures).foreach(_ => rep.fail("simulator: deadlock"))
    def secs(name: String) =
      trace.all.iterator.filter(s => s.pass == id && s.name == name).map(_.nanos).sum / 1e9
    rep.layer("sim.build_ms", secs("sim.build") * 1e3)
    rep.layer("sim.run_s", secs("sim.run"))
    rep.layer("sim.procs", sim.procs.toDouble)
    rep.layer("sim.chans", sim.chans.toDouble)
    CoreSim.Widths.foreach(w => rep.layer(s"sim.model_s_w$w", sim.modelAt(w)))
    // recorded for the determinism check; untraced runs report them as
    // end-to-end metrics
    rep.info("sim_speedup_w16", CoreSim.speedup(sim.model, wl.scripts, 16), "x")
    rep.info("sim_speedup_w64", CoreSim.speedup(sim.model, wl.scripts, 64), "x")
  }

  // --------------------------------------------------------- correctness

  /** Compare every timed script run with `RefExec`'s sequential output. */
  private def checkPasses(rep: Report, passes: Seq[SparkBench#Pass],
                          reference: Map[String, Try[RefExec.Out]]): Unit = {
    val ref = reference.map { case (k, v) => k -> v.map(Outputs.digest) }
    passes.foreach { p =>
      val side = if (p.parallel) "par" else "seq"
      p.runs.foreach { r =>
        val script = r.script
        (r.outcome, ref(script)) match {
          case (Right(d), Success(r)) if d == r => rep.ok()
          case (Right(_), Success(_)) => rep.fail(s"$script $side: output differs from RefExec")
          case (Left(e), _)           => rep.fail(s"$script $side: $e")
          case (_, Failure(e))        => rep.fail(s"$script: RefExec failed: ${e.getMessage}")
        }
      }
    }
    rep.sequentialOutputs = reference.collect { case (k, Success(o)) => k -> o }
  }

  /** `RefExec(parallel w) == RefExec(sequential)` for every script of the
    * corpus at widths 16 and 64, on small seeded inputs. */
  private def corpusCheck(a: Args, rep: Report): Unit =
    Scripts.all.foreach { b =>
      val store = new Store(null) // RefExec never touches Spark
      Inputs.register(store, b, a.seed, CheckScale, lines = None)
      Try(RefExec.runProgram(seqGraphs(b), store)) match {
        case Failure(e) =>
          rep.fail(s"corpus ${b.name}: RefExec sequential failed: ${e.getMessage}")
        case Success(seq) =>
          val want = Outputs.digest(seq)
          CoreSim.CompileWidths.foreach { w =>
            val cfg = PashConfig(w)
            Try {
              val c = if (a.naive) Compiler.naive(b.script, cfg) else Compiler.pash(b.script, cfg)
              Outputs.digest(RefExec.runProgram(c.parallel, store))
            } match {
              case Success(`want`) => rep.ok()
              case Success(_)      => rep.fail(s"corpus ${b.name} w=$w: output differs from sequential")
              case Failure(e)      => rep.fail(s"corpus ${b.name} w=$w: ${e.getMessage}")
            }
          }
      }
    }

  private def gnuOracle(wl: Workload, a: Args, rep: Report, bench: SparkBench): Unit =
    wl.scripts.foreach { b =>
      val dir = a.work.resolve("sh").resolve(b.name)
      rep.inputFiles ++= GnuOracle.writeInputs(b, bench.store(b.name), dir)
        .map { case (f, s) => s"${b.name}:$f" -> s }
      rep.oracle(b.name, rep.sequentialOutputs.get(b.name) match {
        case Some(seq) => GnuOracle.check(b, seq, dir)
        case None      => GnuOracle.Mismatch("no sequential output to compare")
      })
    }
}

/** Quantiles as Python's `statistics.quantiles(xs, n=4)` gives them
  * (exclusive method), and the median. */
object Stats {
  def quantile(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted.toVector
    require(s.nonEmpty, "no samples")
    if (s.size == 1) s.head
    else if (p == 0.5) {
      val m = s.size / 2
      if (s.size % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
    } else {
      val h = (s.size + 1) * p
      val j = math.min(math.max(h.toInt, 1), s.size - 1)
      s(j - 1) + (h - j) * (s(j) - s(j - 1))
    }
  }
}
