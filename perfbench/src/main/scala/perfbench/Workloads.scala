package perfbench

import scala.util.hashing.MurmurHash3

import repro.bench.Scripts.ScriptBench
import repro.bench.{Scripts, SynthText}
import repro.core.Dfg.{SrcFile, SrcFilePart}
import repro.core.Frontend
import repro.exec.Store

/** One named workload: evaluation scripts run on Spark (`local[4]`, PaSh
  * width 4), each with the number of lines of every text input it reads.
  * Why each workload exists, and which layers it leaves idle, is in
  * `perfbench/README.md`. */
final case class Workload(name: String, spark: List[(ScriptBench, Long)]) {
  def scripts: List[ScriptBench] = spark.map(_._1)
}

object Workloads {
  /** Spark runs as local[Cores] and PaSh at width Cores. */
  val Cores = 4

  private def workload(name: String, scripts: (String, Long)*): Workload =
    Workload(name, scripts.toList.map { case (n, lines) =>
      (Scripts.all.find(_.name == n).getOrElse(sys.error(s"no script named $n")), lines)
    })

  val all: List[Workload] = List(
    // (S)-dominated pipelines: tr/grep/cut per chunk, almost no sort or merge.
    workload("stream-spark",
      "nfa-regex" -> 50000L, "unix50-01" -> 50000L, "unix50-10" -> 50000L,
      "unix50-12" -> 50000L, "unix50-13" -> 50000L, "unix50-15" -> 50000L),
    // Whole-stream sorts and the sort -m / uniq -c merges.
    workload("sort-agg-spark",
      "sort" -> 25000L, "sort-sort" -> 25000L, "wf" -> 25000L,
      "top-n" -> 25000L, "spell" -> 25000L, "unix50-20" -> 25000L),
    // Regions that write files which later regions read back.
    workload("multiregion-spark",
      "bi-grams" -> 5000L, "set-difference" -> 10000L, "difference" -> 10000L),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}

/** Input files of a script, generated from the benchmark's seed. */
object Inputs {

  /** Files the script reads that no region of it writes. */
  def of(b: ScriptBench): List[String] = {
    val regions = Frontend.compile(b.script).regions
    val written = regions.flatMap(_.outputs.flatMap(_.sink)).toSet
    regions.flatMap(_.inputs.flatMap(_.src)).map {
      case SrcFile(f)           => f
      case SrcFilePart(f, _, _) => f
    }.distinct.filterNot(written)
  }

  /** Seeded generator for the inputs that are free text or reads; other
    * inputs (dictionary, URL lists, NOAA listings) keep the content the
    * script's own set-up gives them. */
  private def generator(file: String, seed: Long): Option[Long => String] = file match {
    case "in.txt" | "a.txt" | "b.txt" | "unix50.txt" => Some(SynthText.textLine(seed))
    case "reads.fastq"                               => Some(SynthText.fastqLine(seed))
    case _                                           => None
  }

  /** The inputs of `b` that the benchmark generates from its seed. */
  def generated(b: ScriptBench): List[String] = of(b).filter(generator(_, 0L).isDefined)

  /** Register every input of `b` in `store`: the script's set-up at
    * `scale`, then each generated input again from `seed`, with `lines`
    * lines (default: as many as the set-up gave it) and its generator
    * passed through `wrap`. */
  def register(store: Store, b: ScriptBench, seed: Long, scale: Int, lines: Option[Long],
               wrap: (Long => String) => (Long => String) = identity): Unit = {
    b.setup(store, scale)
    of(b).foreach { f =>
      val fileSeed = SynthText.mix(seed, MurmurHash3.stringHash(s"${b.name}/$f").toLong)
      generator(f, fileSeed).foreach { gen =>
        store.add(f, lines.getOrElse(store.fetch(f).size.toLong), wrap(gen))
      }
    }
  }

  /** Wraps generators so that every line a store materializes is counted
    * (for stores read in this JVM's thread only: Spark tasks would count
    * into copies). */
  final class ReadCounter {
    var lines, bytes = 0L
    def wrap(gen: Long => String): Long => String = { i =>
      val s = gen(i); lines += 1; bytes += s.length + 1; s
    }
  }
}
