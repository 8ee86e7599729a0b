package perfbench

import scala.util.{Failure, Success, Try}

import repro.bench.Scripts.ScriptBench
import repro.core.Transform.PashConfig
import repro.core.{Backend, Compiler, Frontend, Parser, Transform}
import repro.sim.{PipeSim, SimBuild}

/** The compiler (`core`) and simulator (`sim`) passes over a workload's
  * scripts. */
object CoreSim {
  val CompileWidths = List(16, 64)
  val Widths        = List(1, 16, 64)

  /** One `Compiler.pash` pass over `set` at widths 16 and 64; milliseconds. */
  def compilePass(set: List[ScriptBench]): Double = {
    val t0 = System.nanoTime()
    for (b <- set; w <- CompileWidths) Compiler.pash(b.script, PashConfig(w))
    (System.nanoTime() - t0) / 1e6
  }

  /** One simulator pass: `SimBuild.simulateScript` over `set` at widths 1,
    * 16 and 64, taking `seconds`. `model` holds each run's modelled
    * seconds; a run that throws (a deadlock does) is listed in `failures`. */
  final case class SimPass(seconds: Double, model: Map[(String, Int), Double],
                           failures: List[String])

  def simPass(set: List[ScriptBench]): SimPass = {
    val model    = Map.newBuilder[(String, Int), Double]
    val failures = List.newBuilder[String]
    val t0 = System.nanoTime()
    for (w <- Widths; b <- set)
      Try(SimBuild.simulateScript(b.script, PashConfig(w), b.workload())) match {
        case Success(t) => model += (b.name, w) -> t
        case Failure(e) => failures += s"${b.name} w=$w: ${e.getMessage}"
      }
    SimPass((System.nanoTime() - t0) / 1e9, model.result(), failures.result())
  }

  /** Geometric mean over `set` of modelled width-1 time / width-`w` time. */
  def speedup(model: Map[(String, Int), Double], set: List[ScriptBench], w: Int): Double = {
    val rs = set.flatMap(b => for (s <- model.get((b.name, 1)); p <- model.get((b.name, w)))
                              yield s / p)
    if (rs.isEmpty) 0.0 else math.exp(rs.map(math.log).sum / rs.size)
  }

  // ------------------------------------------------------------ traced

  /** Exact sizes of the compiler's output at one width, summed over a set. */
  final case class Counts(nodes: Int, agg: Int, relay: Int, split: Int, scriptBytes: Long)

  /** A compile pass with each phase of `Compiler.pash` run and timed on its
    * own (`Parser.parse` is timed apart, then again inside
    * `Frontend.compile`, whose self time is its span minus the parse span).
    * Returns the counts per width. */
  def tracedCompilePass(set: List[ScriptBench], trace: Trace): Map[Int, Counts] =
    CompileWidths.map { w =>
      val cfg = PashConfig(w)
      val cs = set.map { b =>
        trace.span("core.parse")(Parser.parse(b.script))
        val compiled = trace.span("core.frontend")(Frontend.compile(b.script))
        val par      = trace.span("core.transform")(compiled.regions.map(Transform.parallelize(_, cfg)))
        val script   = trace.span("core.emit")(par.map(Backend.emit(_).script).mkString("\n"))
        val stats    = trace.span("core.stats")(Backend.stats(par))
        def kind(k: String) = stats.byKind.getOrElse(k, 0)
        Counts(stats.nodes, kind("agg"), kind("eager") + kind("blocking") + kind("relay"),
               kind("split"), script.length.toLong)
      }
      w -> cs.foldLeft(Counts(0, 0, 0, 0, 0L)) { (a, c) =>
        Counts(a.nodes + c.nodes, a.agg + c.agg, a.relay + c.relay, a.split + c.split,
               a.scriptBytes + c.scriptBytes)
      }
    }.toMap

  /** Totals of a traced simulator pass. */
  final case class SimTotals(procs: Long, chans: Long, model: Map[(String, Int), Double],
                             failures: Int) {
    def modelAt(w: Int): Double = model.collect { case ((_, `w`), t) => t }.sum
  }

  /** `simulateScript` unrolled so that `SimBuild.build` and `PipeSim.run`
    * each get a span: regions run in sequence, the script's modelled time
    * is the sum over its regions. */
  def tracedSimPass(set: List[ScriptBench], trace: Trace): SimTotals = {
    var procs, chans = 0L
    var failures     = 0
    val model = collection.mutable.Map.empty[(String, Int), Double].withDefaultValue(0.0)
    for (w <- Widths; b <- set) {
      val wl  = b.workload()
      val res = trace.span("core.pash")(Compiler.pash(b.script, PashConfig(w)))
      res.parallel.foreach { g =>
        val (ps, cs) = trace.span("sim.build")(SimBuild.build(g, wl))
        procs += ps.size; chans += cs.size
        val r = trace.span("sim.run")(
          PipeSim.run(ps, cs, wl.cores, wl.netMBs, volumeHintMB = wl.volumeHintMB))
        if (r.deadlocked) failures += 1 else model((b.name, w)) += r.timeSec
      }
    }
    SimTotals(procs, chans, model.toMap, failures)
  }
}
