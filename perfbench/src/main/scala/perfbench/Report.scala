package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Files

import scala.collection.mutable

/** Collects one run's metrics, correctness tallies and host record, and
  * writes them out: a readable summary and the JSON result line on
  * standard output, the full record in the results directory. */
final class Report(a: Main.Args) {

  /** End-to-end metrics, as listed in BENCHMARK.json. */
  val EndToEnd: List[(String, String)] = List(
    "seq_s" -> "s", "par_s" -> "s", "sim_speedup_w16" -> "x", "sim_speedup_w64" -> "x",
    "setup_s" -> "s", "peak_heap_mb" -> "MB")

  /** Kernels with per-kernel metrics in the traced run. */
  val Kernels: List[String] = List("tr", "grep", "cut", "wc", "sort", "sort_rn", "uniq_c",
    "comm", "paste", "diff", "agg_sort_m", "agg_uniq_c")

  /** Layers with a self-time metric in the traced run. */
  val Layers: List[String] = List("core", "kernels", "store", "spark", "refexec", "sim")

  /** Per-layer metrics, as listed in BENCHMARK.json. A workload that leaves
    * a layer idle reports 0 for it. */
  val PerLayer: List[(String, String)] =
    List("core.compile_ms" -> "ms", "core.parse_us" -> "us", "core.frontend_us" -> "us", "core.transform_us" -> "us",
         "core.emit_us" -> "us", "core.stats_us" -> "us",
         "core.dfg_nodes_w16" -> "count", "core.dfg_nodes_w64" -> "count",
         "core.agg_nodes_w64" -> "count", "core.relay_nodes_w64" -> "count",
         "core.split_nodes_w64" -> "count", "core.script_bytes_w64" -> "bytes") ++
    Kernels.flatMap(k => List(s"kernels.$k.mbs" -> "MB/s", s"kernels.$k.busy_s" -> "s")) ++
    List("store.read_mb" -> "MB", "store.read_amplification" -> "ratio",
         "store.sink_write_s" -> "s", "store.sink_lines" -> "count",
         "spark.jobs" -> "count", "spark.stages" -> "count", "spark.tasks" -> "count",
         "spark.task_run_s" -> "s", "spark.task_cpu_s" -> "s", "spark.task_deser_s" -> "s",
         "spark.sched_delay_s" -> "s", "spark.idle_core_s" -> "s",
         "spark.result_mb" -> "MB", "spark.spill_mb" -> "MB",
         "refexec.seq_s" -> "s", "refexec.par_s" -> "s",
         "sim.sim_s" -> "s", "sim.build_ms" -> "ms", "sim.run_s" -> "s", "sim.procs" -> "count",
         "sim.chans" -> "count", "sim.model_s_w1" -> "s", "sim.model_s_w16" -> "s",
         "sim.model_s_w64" -> "s", "trace.overhead_s" -> "s") ++
    Layers.map(l => s"layer.$l.self_s" -> "s")

  val fileStem: String =
    s"${a.workload}-seed${a.seed}-trace${if (a.trace) 1 else 0}${if (a.naive) "-naive" else ""}"

  private val samples  = mutable.LinkedHashMap.empty[String, Seq[Double]]
  private val values   = mutable.Map.empty[String, Double]
  private val layers   = mutable.Map.empty[String, Double]
  private val infos    = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val hostRec  = mutable.LinkedHashMap.empty[String, String]
  private val failures = mutable.ArrayBuffer.empty[String]
  private val verdicts = mutable.LinkedHashMap.empty[String, GnuOracle.Verdict]
  private var attempted = 0
  private val phases   = mutable.LinkedHashMap.empty[String, Double]

  /** Median sequential and parallel time of each script, in script order. */
  var scriptTimes: Seq[(String, (Double, Double))] = Nil
  /** Sequential outputs under RefExec, for the GNU oracle. */
  var sequentialOutputs: Map[String, repro.exec.RefExec.Out] = Map.empty
  /** Input files written for the GNU oracle, by `script:file`. */
  val inputFiles = mutable.Map.empty[String, GnuOracle.FileSize]

  /** An end-to-end metric: its samples and, unless given, their median. */
  def e2e(name: String, xs: Seq[Double], value: Option[Double] = None): Unit = {
    require(EndToEnd.exists(_._1 == name), s"$name is not an end-to-end metric")
    samples(name) = xs
    values(name) = value.getOrElse(Main.median(xs))
  }
  def layer(name: String, v: Double): Unit = {
    require(PerLayer.exists(_._1 == name), s"$name is not a per-layer metric")
    layers(name) = v
  }
  def info(name: String, v: Double, unit: String): Unit = infos(name) = (v, unit)
  def host(k: String, jsonValue: String): Unit = hostRec(k) = jsonValue
  /** Run `body` and record its wall-clock under `name` (where a run's time goes). */
  def phase[A](name: String)(body: => A): A = {
    val t0 = System.nanoTime()
    try body finally phases(name) = phases.getOrElse(name, 0.0) + (System.nanoTime() - t0) / 1e9
  }
  def ok(): Unit = attempted += 1
  def fail(why: String): Unit = { attempted += 1; failures += why }
  def oracle(script: String, v: GnuOracle.Verdict): Unit = verdicts(script) = v

  /** Records and bytes in and out, and busy time, of every replayed kernel. */
  private var kernelIo = Seq.empty[(String, String)]

  def kernels(r: Replay): Unit = {
    kernelIo = r.kernels.toSeq.sortBy(_._1).map { case (k, acc) =>
      k -> Json.obj(Seq("records_in" -> Json.num(acc.recIn.toDouble),
        "records_out" -> Json.num(acc.recOut.toDouble), "bytes_in" -> Json.num(acc.bytesIn.toDouble),
        "bytes_out" -> Json.num(acc.bytesOut.toDouble), "busy_s" -> Json.num(acc.busyNs / 1e9)))
    }
    kernelMetrics(r)
  }

  private def kernelMetrics(r: Replay): Unit = Kernels.foreach { k =>
    val acc = r.kernels.get(k)
    val busy = acc.map(_.busyNs / 1e9).getOrElse(0.0)
    layer(s"kernels.$k.busy_s", busy)
    layer(s"kernels.$k.mbs", acc.filter(_ => busy > 0).map(_.bytesIn / 1e6 / busy).getOrElse(0.0))
  }

  def selfTimes(t: Trace): Unit = {
    val self = t.selfSecondsByLayer
    Layers.foreach(l => layer(s"layer.$l.self_s", self.getOrElse(l, 0.0)))
  }

  private def fmt(x: Double): String = f"$x%.4f"

  def finish(): Unit = {
    val rt = Runtime.getRuntime
    val hostFields = Seq(
      "workload" -> Json.str(a.workload), "seed" -> Json.num(a.seed.toDouble),
      "seconds" -> Json.num(a.seconds), "trace" -> Json.bool(a.trace),
      "control" -> Json.str(if (a.naive) "naive" else "pash"),
      "host" -> Json.str(a.host), "nproc" -> Json.num(rt.availableProcessors),
      "heap_max_mb" -> Json.num(rt.maxMemory / 1e6),
      "jvm" -> Json.str(s"${sys.props("java.vm.name")} ${sys.props("java.version")}"),
      "jvm_args" -> Json.str(ManagementFactory.getRuntimeMXBean.getInputArguments.toString),
      "spark" -> Json.str(org.apache.spark.SPARK_VERSION),
      "scala" -> Json.str(scala.util.Properties.versionNumberString),
      "os" -> Json.str(s"${sys.props("os.name")} ${sys.props("os.version")} ${sys.props("os.arch")}"),
      "git_sha" -> Json.str(a.gitSha),
    ) ++ hostRec.toSeq ++ Seq(
      "input_files" -> Json.obj(inputFiles.toList.sortBy(_._1).map { case (f, s) =>
        f -> Json.obj(Seq("lines" -> Json.num(s.lines.toDouble), "bytes" -> Json.num(s.bytes.toDouble))) }))

    val failedFrac = if (attempted == 0) 0.0 else failures.size.toDouble / attempted
    val checked    = verdicts.values.count(!_.isInstanceOf[GnuOracle.Skipped])
    val mismatched = verdicts.collect { case (s, GnuOracle.Mismatch(d)) => s -> d }
    val skipped    = verdicts.collect { case (s, GnuOracle.Skipped(t)) => s -> t }
    info("failed_frac", failedFrac, "ratio")
    info("oracle_mismatch_frac", if (checked == 0) 0.0 else mismatched.size.toDouble / checked, "ratio")

    val metrics: List[(String, Double, String)] =
      if (a.trace) PerLayer.map { case (n, u) => (n, layers.getOrElse(n, 0.0), u) }
      else EndToEnd.map { case (n, u) =>
        (n, values.getOrElse(n, sys.error(s"metric $n was not measured")), u)
      }

    // summary
    println(s"perfbench workload=${a.workload} seed=${a.seed} seconds=${a.seconds} " +
      s"trace=${if (a.trace) 1 else 0} control=${if (a.naive) "naive" else "pash"}")
    println("host " + hostFields.filterNot(_._1 == "input_files")
      .map { case (k, v) => s"$k=$v" }.mkString(" "))
    inputFiles.toList.sortBy(_._1).foreach { case (f, s) =>
      println(f"input $f%-28s ${s.lines}%9d lines ${s.bytes / 1e6}%8.3f MB") }
    metrics.foreach { case (n, v, u) =>
      val spread = samples.get(n).filter(_.size > 1).map { xs =>
        s"  (median of ${xs.size}; q1 ${fmt(Stats.quantile(xs, 0.25))} q3 ${fmt(Stats.quantile(xs, 0.75))})"
      }.getOrElse(samples.get(n).map(_ => "  (1 sample)").getOrElse(""))
      println(f"$n%-28s ${fmt(v)}%14s $u$spread")
    }
    infos.foreach { case (n, (v, u)) => println(f"$n%-28s ${fmt(v)}%14s $u") }
    scriptTimes.foreach { case (n, (sq, pa)) =>
      println(f"script $n%-21s seq ${fmt(sq)} s  par ${fmt(pa)} s") }
    println("phases " + phases.map { case (k, v) => f"$k=$v%.1fs" }.mkString(" "))
    println(s"runs attempted=$attempted failed=${failures.size}")
    failures.take(20).foreach(f => println(s"  FAILED $f"))
    println(s"gnu sh oracle: checked=$checked mismatched=${mismatched.size} skipped=${skipped.size}")
    mismatched.foreach { case (s, d) => println(s"  MISMATCH $s: $d") }
    skipped.foreach { case (s, t) => println(s"  SKIPPED $s: '$t' is not installed") }

    val metricJson = (ms: Seq[(String, Double, String)]) => Json.obj(ms.map { case (n, v, u) =>
      n -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u))) })
    val record = Json.obj(Seq(
      "host" -> Json.obj(hostFields),
      "correct" -> Json.bool(failures.isEmpty),
      "attempted" -> Json.num(attempted), "failed" -> Json.num(failures.size),
      "failures" -> Json.arr(failures.toSeq.map(Json.str)),
      "metrics" -> metricJson(metrics ++ infos.toSeq.map { case (n, (v, u)) => (n, v, u) }),
      "scripts_s" -> Json.obj(scriptTimes.map { case (n, (sq, pa)) =>
        n -> Json.obj(Seq("seq" -> Json.num(sq), "par" -> Json.num(pa))) }),
      "kernel_io" -> Json.obj(kernelIo),
      "phases_s" -> Json.obj(phases.toSeq.map { case (k, v) => k -> Json.num(v) }),
      "samples" -> Json.obj(samples.toSeq.map { case (n, xs) => n -> Json.arr(xs.map(Json.num)) }),
      "gnu_oracle" -> Json.obj(Seq(
        "checked" -> Json.num(checked),
        "mismatched" -> Json.obj(mismatched.toSeq.map { case (s, d) => s -> Json.str(d) }),
        "skipped" -> Json.obj(skipped.toSeq.map { case (s, t) => s -> Json.str(s"missing tool: $t") }))),
    ))
    Files.write(a.results.resolve(fileStem + ".json"), (record + "\n").getBytes(UTF_8))

    println(Json.obj(Seq(
      "correct" -> Json.bool(failures.isEmpty),
      "attempted" -> Json.num(math.max(attempted, 1)),
      "failed" -> Json.num(failures.size),
      "metrics" -> metricJson(metrics))))
  }
}
