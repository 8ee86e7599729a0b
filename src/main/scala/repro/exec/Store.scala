package repro.exec

import org.apache.spark.{Partition, SparkContext, TaskContext}
import org.apache.spark.rdd.RDD

/** Synthetic file/URL store backing both executors.
  *
  * Every "file" is `(lineCount, pure line generator)` so that (i) the
  * reference interpreter, the Spark driver, and Spark executors all see the
  * same bytes without shipping data, and (ii) chunked parallel reads
  * (`SrcFilePart`) are just contiguous sub-ranges of the generator domain.
  *
  * URLs (the NOAA/Wikipedia scripts fetch over HTTP/FTP in the paper) are
  * names like any other: the store is the network substitute (DESIGN.md).
  */
object Store {
  /** Pure description of a synthetic file (top-level so that closures over
    * it never capture a Store instance — Spark ships these to executors). */
  final case class GenFile(n: Long, gen: Long => String) extends Serializable {
    /** Lines `[lo, hi)`, each generated as it is read: the one read loop
      * behind every fetch and every partition. Nothing is kept between
      * reads. */
    def lines(lo: Long, hi: Long): Iterator[String] = new Iterator[String] {
      private var i = lo
      override def knownSize: Int = (hi - i).toInt
      def hasNext: Boolean = i < hi
      def next(): String = { val l = gen(i); i += 1; l }
    }

    /** Every line, generated afresh. */
    def all: Vector[String] = lines(0L, n).toVector
  }

  /** Lines `[lo, hi)` of `f` as ONE partition. An RDD of its own, because
    * `sc.range(lo, hi).map(f.gen)` spent about 4 ms per read in Spark's
    * closure cleaner (4-core host). */
  private final class GenRDD(sc: SparkContext, f: GenFile, lo: Long, hi: Long)
      extends RDD[String](sc, Nil) {
    override protected def getPartitions: Array[Partition] = Array(OnlyPartition)
    override def compute(p: Partition, tc: TaskContext): Iterator[String] =
      f.lines(lo, hi)
  }

  /** The file `name`: the one added under it, else the first fallback's. */
  private def resolve(name: String, named: String => Option[GenFile],
                      fallbacks: List[String => Option[GenFile]]): GenFile =
    named(name).orElse(fallbacks.view.flatMap(_(name)).headOption).getOrElse(
      throw new IllegalArgumentException(s"store: no such file '$name'"))

  private case object OnlyPartition extends Partition {
    override def index: Int = 0
  }
}

final class Store(@transient private val sc: SparkContext) {
  import Store.{GenFile, GenRDD}

  /** Alias so call sites can write `store.GenFile(...)`. */
  val GenFile: Store.GenFile.type = Store.GenFile

  private val files = collection.mutable.Map.empty[String, GenFile]
  private var fallbacks: List[String => Option[GenFile]] = Nil

  def add(name: String, n: Long, gen: Long => String): this.type = {
    files(name) = GenFile(n, gen); this
  }

  def addLines(name: String, lines: Vector[String]): this.type =
    add(name, lines.size.toLong, i => lines(i.toInt))

  /** Pattern-based lazy files (e.g. every URL under a dataset prefix). */
  def addFallback(f: String => Option[GenFile]): this.type = {
    fallbacks = fallbacks :+ f; this
  }

  /** The names of the files added by name (not the fallbacks'). */
  def names: List[String] = files.keys.toList.sorted

  private def lookup(name: String): GenFile = Store.resolve(name, files.get, fallbacks)

  /** Driver-side materialization (small inputs, statics, oracle checks). */
  def fetch(name: String): Vector[String] = lookup(name).all

  /** Serializable fetch function for executor-side use (`xargs curl`): a
    * snapshot of every file, so only the kernels that read files get it. */
  def fetchFn: String => Vector[String] = {
    val snapshot = files.toMap
    val fb       = fallbacks
    (name: String) => Store.resolve(name, snapshot.get, fb).all
  }

  /** The file as an ordered single-partition RDD. */
  def rdd(name: String): RDD[String] = {
    val f = lookup(name)
    new GenRDD(sc, f, 0L, f.n)
  }

  /** Line range `[lo, hi)` of chunk `i` of `of`, shared by both chunked reads. */
  private def chunk(f: GenFile, i: Int, of: Int): (Long, Long) =
    (f.n * i / of, f.n * (i + 1) / of)

  /** Chunk `i` of `of` as a true single-partition RDD (parallel chunked
    * file read — boundaries match [[fetchPart]] exactly). */
  def rddPart(name: String, i: Int, of: Int): RDD[String] = {
    val f        = lookup(name)
    val (lo, hi) = chunk(f, i, of)
    new GenRDD(sc, f, lo, hi)
  }

  /** Contiguous line chunk for the reference executor; generates only its
    * own lines. */
  def fetchPart(name: String, i: Int, of: Int): Vector[String] = {
    val f        = lookup(name)
    val (lo, hi) = chunk(f, i, of)
    f.lines(lo, hi).toVector
  }
}
