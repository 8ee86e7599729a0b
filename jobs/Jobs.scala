package jobs

import org.apache.spark.sql.SparkSession
import repro.bench.{Scripts, Tables}

/** Shared session builder for spark-submit entrypoints. */
object JobSession {
  def local(): SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("pash-repro")
      .config("spark.serializer", "org.apache.spark.serializer.KryoSerializer")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}

/** Tab. 1 — POSIX/GNU parallelizability study. */
object Table1 {
  def main(args: Array[String]): Unit = println(Tables.table1())
}

/** Tab. 2 — one-liner summary (node counts, compile times). */
object Table2 {
  def main(args: Array[String]): Unit = println(Tables.table2()._1)
}

/** §6.1 — simulated width sweep + runtime lattice, and (optionally, pass
  * `--spark`) real Spark wall-clock speedups. */
object OneLiners {
  def main(args: Array[String]): Unit = {
    println(Tables.table61()._1)
    if (args.contains("--spark")) {
      val spark = JobSession.local()
      val subset = List(Scripts.nfaRegex, Scripts.wf, Scripts.sortOne, Scripts.spell)
      println(Tables.sparkSpeedups(spark, subset, List(4, 16), scale = 400)._1)
      spark.stop()
    }
  }
}

/** §6.2 — Unix50 pipelines at width 16. */
object Unix50 {
  def main(args: Array[String]): Unit = println(Tables.unix50Table()._1)
}

/** §6.3 — NOAA weather analysis. */
object Noaa {
  def main(args: Array[String]): Unit = println(Tables.noaaTable()._1)
}

/** §6.4 — Wikipedia indexing. */
object Wikipedia {
  def main(args: Array[String]): Unit = println(Tables.wikipediaTable()._1)
}

/** §6.5 — micro-benchmarks (pass `--spark` for the measured corruption). */
object Micro {
  def main(args: Array[String]): Unit = {
    println(Tables.microSort()._1)
    println(Tables.microGnuParallel()._1)
    if (args.contains("--spark")) {
      val spark = JobSession.local()
      println(Tables.microGnuParallelDiff(spark)._1)
      spark.stop()
    }
  }
}
