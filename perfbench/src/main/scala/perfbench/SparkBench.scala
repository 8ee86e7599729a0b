package perfbench

import java.nio.file.Path

import scala.util.{Failure, Success, Try}

import org.apache.spark.PerfbenchBus
import org.apache.spark.sql.SparkSession

import repro.bench.Scripts.ScriptBench
import repro.core.Dfg.Graph
import repro.core.Transform.PashConfig
import repro.core.{Backend, Compiler, Frontend, Parser, Transform}
import repro.exec.{RefExec, SparkExec, Store}

/** A `*-spark` workload on one local SparkSession.
  *
  * A sequential pass compiles every script with `Frontend.compile` and runs
  * the untransformed DFG with `SparkExec.runProgram`; a parallel pass
  * compiles with `Compiler.pash` at width [[Workloads.Cores]] (or, for the
  * negative control, `Compiler.naive`) and runs the result the same way.
  * A pass's time is the sum of its scripts' compile-and-run times; each
  * script's output is kept as a digest for the check against `RefExec`.
  */
final class SparkBench(wl: Workload, seed: Long, work: Path, naive: Boolean) {

  /** Outcome of one script in one pass: its output digest, or the error. */
  type Outcome = Either[String, String]

  /** One script's run within a pass: its compile-and-run time and outcome. */
  final case class Run(script: String, seconds: Double, outcome: Outcome)

  final case class Pass(parallel: Boolean, runs: List[Run]) {
    def seconds: Double = runs.map(_.seconds).sum
  }

  private var session: SparkSession = _
  private var stores: Map[String, Store] = Map.empty

  val stats = new SparkStats

  private def startSession(): Unit = {
    session = SparkSession.builder()
      .master(s"local[${Workloads.Cores}]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", work.resolve("spark-warehouse").toString)
      // the serializer the repository's own sessions use (SparkSpec, jobs)
      .config("spark.serializer", "org.apache.spark.serializer.KryoSerializer")
      .getOrCreate()
    session.sparkContext.setLogLevel("ERROR")
    session.sparkContext.addSparkListener(stats)
  }

  /** Fresh stores, one per script, with the same seeded inputs; text
    * inputs are `lines(n)` lines long. */
  private def freshStores(lines: Long => Long = identity): Map[String, Store] =
    wl.spark.map { case (b, n) =>
      val store = new Store(session.sparkContext)
      Inputs.register(store, b, seed, scale = 1, lines = Some(lines(n)))
      b.name -> store
    }.toMap

  /** Set-up: start the session, register the inputs, and warm up with one
    * sequential and one parallel pass over inputs a tenth the size. */
  def setUp(): Unit = {
    startSession()
    val small = freshStores(n => math.max(1000L, n / 10))
    pass(parallel = false, small); pass(parallel = true, small)
    stores = freshStores()
  }

  def stop(): Unit = if (session != null) {
    session.stop()
    SparkSession.clearActiveSession(); SparkSession.clearDefaultSession()
    session = null
  }

  def parallelize(script: String): List[Graph] = {
    val cfg = PashConfig(Workloads.Cores)
    (if (naive) Compiler.naive(script, cfg) else Compiler.pash(script, cfg)).parallel
  }

  /** One untraced pass over the workload's scripts. */
  def pass(parallel: Boolean, in: Map[String, Store] = stores): Pass = {
    System.gc() // start every pass from the same heap state
    Pass(parallel, wl.scripts.map { b =>
      val t0 = System.nanoTime()
      val out = Try {
        val gs = if (parallel) parallelize(b.script) else Frontend.compile(b.script).regions
        new SparkExec(session, in(b.name)).runProgram(gs)
      }
      Run(b.name, (System.nanoTime() - t0) / 1e9, outcome(out))
    })
  }

  private def outcome(t: Try[RefExec.Out]): Outcome = t match {
    case Success(o) => Right(Outputs.digest(o))
    case Failure(e) => Left(s"${e.getClass.getSimpleName}: ${e.getMessage}")
  }

  /** A traced pass: the compile phases, every region's `SparkExec.run` and
    * every sink's `Store.addLines` get their own span, as `runProgram`
    * would call them; Spark's listener totals are collected meanwhile. */
  def tracedPass(parallel: Boolean, trace: Trace): Pass = {
    val sc = session.sparkContext
    System.gc()
    PerfbenchBus.drain(sc); stats.on = true
    val runs = wl.scripts.map { b =>
      val store = stores(b.name)
      val t0 = System.nanoTime()
      val out = Try {
        val gs =
          if (!parallel) trace.span("core.frontend")(Frontend.compile(b.script).regions)
          else {
            trace.span("core.parse")(Parser.parse(b.script))
            val cfg = PashConfig(Workloads.Cores)
            val seqGs = trace.span("core.frontend")(Frontend.compile(b.script).regions)
            val parGs = trace.span("core.transform")(seqGs.map(g =>
              if (naive) Transform.naiveParallel(g, cfg) else Transform.parallelize(g, cfg)))
            trace.span("core.emit")(parGs.map(Backend.emit(_).script).mkString("\n"))
            trace.span("core.stats")(Backend.stats(parGs))
            parGs
          }
        val exec   = new SparkExec(session, store)
        val stdout = Vector.newBuilder[String]
        val files  = collection.mutable.Map.empty[String, Vector[String]]
        gs.foreach { g =>
          val o = trace.span("spark.run")(exec.run(g))
          stdout ++= o.stdout
          o.files.foreach { case (f, v) =>
            files(f) = v
            trace.span("store.addLines")(store.addLines(f, v))
          }
        }
        RefExec.Out(stdout.result(), files.toMap)
      }
      Run(b.name, (System.nanoTime() - t0) / 1e9, outcome(out))
    }
    PerfbenchBus.drain(sc); stats.on = false
    Pass(parallel, runs)
  }

  /** Output of every script's `graphs` under `RefExec.runProgram`, on
    * fresh stores with the same inputs, each run in a `span`. */
  def reference(trace: Trace, span: String, graphs: ScriptBench => List[Graph])
      : Map[String, Try[RefExec.Out]] = {
    val fresh = freshStores()
    wl.scripts.map { b =>
      b.name -> Try(trace.span(span)(RefExec.runProgram(graphs(b), fresh(b.name))))
    }.toMap
  }

  def store(script: String): Store = stores(script)
}
