package repro.exec

import scala.collection.immutable.ArraySeq

import org.apache.spark.TaskContext

import repro.cmds.Kernels
import repro.cmds.Kernels.Ctx
import repro.core.Annotations.Resolved

/** Every function `SparkExec` hands to Spark, as a named top-level class.
  *
  * Spark's closure cleaner re-parses the class file of each Scala lambda
  * passed to `map`, `mapPartitions` or `runJob` (about 0.5 ms per
  * `mapPartitions(lambda)` against under 0.1 ms with a named class, on a
  * 4-core host); it returns at once for a class that is not a lambda.
  * Kernels are built inside the task from their `Resolved` record, as some
  * hold state that does not serialize.
  */

/** A partition as ONE array (Spark's MemoryStore then caches one object
  * per partition instead of unrolling it line by line). */
private[exec] case object ToBlock extends (Iterator[String] => Iterator[Array[String]]) {
  def apply(it: Iterator[String]): Iterator[Array[String]] = Iterator.single(it.toArray)
}

/** Tag a block with the index of the stream it belongs to. */
private[exec] final case class Tag(stream: Int) extends (Array[String] => (Int, Array[String])) {
  def apply(b: Array[String]): (Int, Array[String]) = (stream, b)
}

/** Read tagged blocks in order, bucket them by stream, and run `f` once
  * over the `n` ordered streams. */
private[exec] final case class Gather(n: Int, f: List[Vector[String]] => Vector[String])
    extends (Iterator[(Int, Array[String])] => Iterator[String]) {
  def apply(it: Iterator[(Int, Array[String])]): Iterator[String] = {
    val buckets = Array.fill(n)(Vector.newBuilder[String])
    it.foreach { case (i, b) => buckets(i) ++= b }
    f(buckets.map(_.result()).toList).iterator
  }
}

/** Output `i` of a `w`-way split of a `sort -m` aggregate of `n` sorted
  * streams, from their tagged blocks in order: key range `i` of the
  * streams, cut at `splitters` and merged ([[Kernels.sortMRange]]). */
private[exec] final case class RangeMerge(n: Int, i: Int, splitters: Vector[String], r: Resolved)
    extends (Iterator[(Int, Array[String])] => Iterator[String]) {
  def apply(it: Iterator[(Int, Array[String])]): Iterator[String] = {
    val blocks = Array.fill(n)(List.empty[Array[String]])
    it.foreach { case (j, b) => blocks(j) = b :: blocks(j) }
    val streams = blocks.toList.map {
      case b :: Nil => ArraySeq.unsafeWrapArray(b)
      case bs       => ArraySeq.unsafeWrapArray(bs.reverse.toArray.flatten)
    }
    Kernels.sortMRange(r, streams, splitters, i).iterator
  }
}

/** Output `i` of a `w`-way split of a ONE-block stream: lines
  * `[n·i/w, n·(i+1)/w)` of its `n` lines, PaSh's line-counting split. */
private[exec] final case class Slice(i: Int, w: Int) extends (Iterator[Array[String]] => Iterator[String]) {
  def apply(it: Iterator[Array[String]]): Iterator[String] = {
    val b = it.next()
    val n = b.length.toLong
    Iterator.range((n * i / w).toInt, (n * (i + 1) / w).toInt).map(b(_))
  }
}

/** An (S) command's per-line kernel over one partition. */
private[exec] final case class PerLine(mk: Ctx => String => Seq[String], ctx: Ctx)
    extends (Iterator[String] => Iterator[String]) {
  def apply(it: Iterator[String]): Iterator[String] = {
    val f = mk(ctx)
    it.flatMap(f)
  }
}

/** `r`'s whole-stream kernel over ordered streams. */
private[exec] final case class WholeKernel(r: Resolved, ctx: Ctx)
    extends (List[Vector[String]] => Vector[String]) {
  def apply(ss: List[Vector[String]]): Vector[String] = Kernels.whole(r)(ctx)(ss)
}

/** The n-ary aggregator of key `key` over ordered partial outputs. */
private[exec] final case class AggKernel(key: String, r: Resolved)
    extends (List[Vector[String]] => Vector[String]) {
  def apply(ss: List[Vector[String]]): Vector[String] = Kernels.aggN(key, r, ss)
}

/** The one stream, unchanged. */
private[exec] case object OnlyStream extends (List[Vector[String]] => Vector[String]) {
  def apply(ss: List[Vector[String]]): Vector[String] = ss.head
}

/** A whole-stream kernel over one partition. */
private[exec] final case class Whole(f: List[Vector[String]] => Vector[String])
    extends (Iterator[String] => Iterator[String]) {
  def apply(it: Iterator[String]): Iterator[String] = f(List(it.toVector)).iterator
}

/** Job function: the lines in a partition's blocks (computing, and so
  * caching, them). */
private[exec] case object BlockLines extends ((TaskContext, Iterator[Array[String]]) => Long) {
  def apply(tc: TaskContext, it: Iterator[Array[String]]): Long = it.map(_.length.toLong).sum
}

/** Job function: `m` evenly spaced lines of each of a partition's blocks
  * (computing, and so caching, them); every line of a shorter block. */
private[exec] final case class Samples(m: Int) extends ((TaskContext, Iterator[Array[String]]) => Array[String]) {
  def apply(tc: TaskContext, it: Iterator[Array[String]]): Array[String] =
    it.flatMap { b =>
      if (b.length <= m) b.iterator
      else Iterator.tabulate(m)(t => b(((2L * t + 1) * b.length / (2 * m)).toInt))
    }.toArray
}

/** Job function: a partition's lines as one array, for the driver. */
private[exec] case object ToArray extends ((TaskContext, Iterator[String]) => Array[String]) {
  def apply(tc: TaskContext, it: Iterator[String]): Array[String] = it.toArray
}

/** The store reader of every node that is not `xargs` or `file`: those are
  * the only kernels that read store files inside a task. */
private[exec] case object NoFetch extends (String => Vector[String]) {
  def apply(name: String): Vector[String] =
    throw new UnsupportedOperationException(s"store read of '$name' outside xargs/file")
}
