package repro.exec

import scala.reflect.ClassTag

import org.apache.spark.TaskContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel

import repro.cmds.Kernels
import repro.cmds.Kernels.Ctx
import repro.core.Annotations.Resolved
import repro.core.Dfg._
import repro.core.PClass

/** Spark executor for PaSh DFGs (repro band: distributed_dataflow).
  *
  * Stream order is semantic in the shell, so edges are `RDD[String]` whose
  * (partitionIndex, withinPartitionOffset) order *is* the byte-stream
  * order — exactly the layer where Spark preserves order through narrow
  * transformations. Mapping:
  *
  *  - (S) command  → `mapPartitions` with the shared per-line kernel
  *    (parallel across however many chunk-partitions feed it);
  *  - `cat`        → `union` (partition concatenation, order-preserving);
  *  - (P)/(N) node → whole-stream kernel in ONE task over its inputs
  *    (Spark's analogue of PaSh's single aggregator process);
  *  - map replica  → whole-stream kernel over its chunk;
  *  - aggregate    → one n-ary merge over the leaves of the maximal
  *    same-key aggregate tree: in ONE task, or on the driver when the
  *    tree's root is a graph output. Two trees whose root feeds a `split`
  *    are never merged:
  *    - `sort -m` → a key-range exchange. The job that caches the sorted
  *      leaves samples each of them, and the driver picks `w - 1`
  *      splitters in the command's order. Split output i is ONE task that
  *      takes each leaf's lines in key range i (binary search) and merges
  *      them. Lines the order calls equal share a range, so `-u` stays
  *      exact.
  *    - `uniq [-c]` → kept parts, when leaf i is a replica that reads
  *      range i of such a cut through relays only: no line repeats across
  *      two ranges, so the merge would join nothing, and split output i is
  *      leaf i. Any other tree is merged;
  *  - `split`      → (of anything else) the input as ONE cached block; each
  *    output's task keeps its contiguous slice of it (faithful to PaSh's
  *    line-counting split, which also consumes its whole input before
  *    dispersing it);
  *  - relay        → identity (Spark tasks have no shell laziness; the
  *    eager/blocking distinction is studied on the discrete-event
  *    simulator instead — DESIGN.md).
  *
  * Jobs are few, because each one costs the driver milliseconds: a region
  * runs one job per aggregate tree that it cuts or merges in a task
  * (caching the tree's leaves, one task per chunk), plus one job that
  * collects its outputs. A merge, a range or a split runs inside the
  * tasks that read it. Every function handed to Spark is
  * a named class (`TaskFns.scala`), so Spark's closure cleaner skips it.
  *
  * The *sequential baseline* is the untransformed DFG: every node sees a
  * 1-partition stream, nothing is cached, and the whole region collapses
  * into a single-core task chain, like `sh` on one CPU: one job.
  */
final class SparkExec(spark: SparkSession, store: Store) {
  import SparkExec._

  private val sc = spark.sparkContext

  private val persisted = collection.mutable.ListBuffer.empty[RDD[_]]

  /** DFG node ids whose work an RDD's lineage runs, by RDD id, and the ids
    * an earlier job of the region already ran: together they name each job
    * (`setJobDescription`), so a listener can attribute it. */
  private val nodesOf = collection.mutable.Map.empty[Int, Set[Int]].withDefaultValue(Set.empty)
  private val done    = collection.mutable.Set.empty[Int]

  /** ONE Spark job over every partition of `rdd`, described by the nodes
    * whose work it runs for the first time: those of `streams`' lineage. */
  private def runJob[T, U: ClassTag](rdd: RDD[T], streams: Seq[RDD[_]],
                                     f: (TaskContext, Iterator[T]) => U): Array[U] = {
    val ids = streams.flatMap(s => nodesOf(s.id)).toSet -- done
    sc.setJobDescription(s"DFG nodes ${ids.toList.sorted.mkString(",")}")
    try sc.runJob(rdd, f, 0 until rdd.getNumPartitions)
    finally { sc.setJobDescription(null); done ++= ids }
  }

  /** Each partition of `s` as ONE array, cached if `cache`. */
  private def blocksOf(s: RDD[String], cache: Boolean): RDD[Array[String]] = {
    val b = s.mapPartitions(ToBlock, preservesPartitioning = true)
    nodesOf(b.id) = nodesOf(s.id)
    if (cache) persisted += b.persist(StorageLevel.MEMORY_AND_DISK)
    b
  }

  /** Run `f` in ONE task over the ordered `streams`. Multi-partition
    * streams (every stream if `cacheAll`) are cached and computed first in
    * ONE parallel job; the rest run inside the task's own chain. A lone
    * uncached stream already is one task's chain, so it needs no blocks. */
  private def inOneTask(streams: List[RDD[String]], cacheAll: Boolean)
                       (f: List[Vector[String]] => Vector[String]): RDD[String] = {
    if (!cacheAll && streams.size == 1 && streams.head.getNumPartitions == 1)
      return streams.head.mapPartitions(Whole(f))
    val blocks = streams.map(s => blocksOf(s, cacheAll || s.getNumPartitions > 1))
    val cached = blocks.filter(_.getStorageLevel != StorageLevel.NONE)
    if (cached.nonEmpty) runJob(sc.union(cached), cached, BlockLines)
    gathered(blocks).mapPartitions(Gather(streams.size, f))
  }

  /** The ordered streams' blocks as ONE partition, each tagged with the
    * index of its stream. */
  private def gathered(blocks: List[RDD[Array[String]]]): RDD[(Int, Array[String])] = {
    val tagged = blocks.zipWithIndex.map { case (b, i) => b.map(Tag(i)) }
    if (tagged.isEmpty) sc.parallelize(Seq.empty[(Int, Array[String])], 1)
    else sc.union(tagged).coalesce(1)
  }

  /** The key-range cut of a `sort -m` aggregate tree over `leaves` whose
    * root feeds a `w`-way split. ONE parallel job caches the sorted leaves
    * and returns [[SamplesPerWay]]`·w` evenly spaced lines of each; the
    * driver picks `w - 1` splitters from them in `r`'s order. */
  private def cut(leaves: List[RDD[String]], r: Resolved, w: Int): Cut = {
    val blocks  = leaves.map(blocksOf(_, cache = true))
    val samples = runJob(sc.union(blocks), blocks, Samples(SamplesPerWay * w))
    Cut(gathered(blocks), leaves.size, Kernels.sortSplitters(r, samples.flatten.toSeq, w), r)
  }

  /** Evaluate a region. Each graph output comes back as the ordered RDDs to
    * collect and the driver-side function that turns their lines into the
    * output: the concatenation, or the n-ary merge of an aggregate tree. */
  private def eval(g: Graph): List[(DEdge, Output)] = {
    lazy val fetch = store.fetchFn
    val values   = collection.mutable.Map.empty[Int, RDD[String]]
    val upstream = collection.mutable.Map.empty[Int, Set[Int]].withDefaultValue(Set.empty)
    val merged   = collection.mutable.Map.empty[Int, Output]

    def edgeIn(e: DEdge): RDD[String] = e.src match {
      case Some(SrcFile(f))           => store.rdd(f)
      case Some(SrcFilePart(f, i, o)) => store.rddPart(f, i, o)
      case None                       => values(e.id)
    }

    // Maximal same-key aggregate trees are evaluated at their root as ONE
    // n-ary merge (Kernels.aggN) over the tree's leaves; internal tree aggs
    // (and the relays wired between levels) are skipped.
    val aggTrees = g.aggTrees
    // `sort -m` trees cut by key range, and the parts of `uniq` trees that
    // read such a cut, each by the edge from its root to a split
    val cuts = collection.mutable.Map.empty[Int, Cut]
    val kept = collection.mutable.Map.empty[Int, Vector[RDD[String]]]

    /** Whether a `uniq [-c]` tree over `leafEdges`, whose root feeds a
      * `w`-way split, merges nothing: leaf i is a replica that reads range
      * i of a `w`-way cut, so no line repeats across two leaves. */
    def keepsParts(r: Resolved, leafEdges: Vector[Int], w: Int): Boolean =
      (r.flags -- Set("-c")).isEmpty && r.vals.isEmpty && leafEdges.size == w &&
        leafEdges.zipWithIndex.forall { case (e, i) =>
          g.edges(e).from.map(g.nodes).exists {
            case DNode(_, MapOp(_), Vector(in), _) =>
              val read = g.edges(g.throughRelays(in))
              read.from.map(g.nodes).exists {
                case DNode(_, SplitOp(`w`), Vector(cutIn), outs) => cuts.contains(cutIn) && outs(i) == read.id
                case _                                           => false
              }
            case _ => false
          }
        }

    g.topo.foreach { n =>
      val inEdges = n.ins.map(g.edges)
      // statics are small configuration inputs (dictionaries): driver-side
      val statics = inEdges.filter(_.static).map(e => e.src match {
        case Some(SrcFile(f))           => store.fetch(f)
        case Some(SrcFilePart(f, i, o)) => store.fetchPart(f, i, o)
        case None                       =>
          val v = values(e.id)
          runJob(v, List(v), ToArray).iterator.flatten.toVector
      }).toList
      val streams = inEdges.filterNot(_.static).map(edgeIn).toList
      // only kernels that read store files get them in a task
      val ctx = Ctx(statics, n.op match {
        case CmdOp(r) if Kernels.readsStore(r) => fetch
        case MapOp(r) if Kernels.readsStore(r) => fetch
        case _                                 => NoFetch
      })

      val outs: Vector[RDD[String]] = n.op match {
        case CmdOp(r) if r.cls == PClass.Stateless =>
          // parallel per-line kernel across all chunk partitions: every (S)
          // clause with an input stream has one (LawsSpec)
          Vector(streams.head.mapPartitions(PerLine(Kernels.stateless(r).get, ctx), preservesPartitioning = true))
        case CmdOp(r) => Vector(inOneTask(streams, cacheAll = false)(WholeKernel(r, ctx)))
        case MapOp(r) => Vector(inOneTask(streams, cacheAll = false)(WholeKernel(r, ctx)))
        case AggOp(key, r) =>
          aggTrees.get(n.id) match {
            case None => Vector(null) // folded into the tree root's n-ary merge
            case Some(leafEdges) =>
              val leaves = leafEdges.toList.map(e => edgeIn(g.edges(e)))
              val out    = n.outs.head
              g.edges(out).to.map(g.nodes(_).op) match {
                case None =>
                  // a graph output: the driver merges the leaves it collects
                  merged(out) = Output(leaves, AggKernel(key, r))
                  Vector(null)
                case Some(SplitOp(w)) if key == "sort-m" =>
                  // the split's output i merges key range i of the leaves
                  cuts(out) = cut(leaves, r, w)
                  Vector(null)
                case Some(SplitOp(w)) if (key == "uniq" || key == "uniq-c") && keepsParts(r, leafEdges, w) =>
                  // the split's output i is leaf i
                  kept(out) = leaves.toVector
                  Vector(null)
                case _ =>
                  // every map replica must be computed in the one parallel
                  // job: left to the merge task, they would run one by one
                  Vector(inOneTask(leaves, cacheAll = true)(AggKernel(key, r)))
              }
          }
        case SplitOp(w) =>
          val inEdge = n.ins.head
          cuts.get(inEdge) match {
            case Some(c) => Vector.tabulate(w)(i => c.blocks.mapPartitions(RangeMerge(c.streams, i, c.splitters, c.r)))
            case None => kept.getOrElse(inEdge, {
              // PaSh's split counts lines first. The input becomes ONE cached
              // block, computed by the first consumer task to reach it (Spark's
              // block lock makes the others wait); output i keeps its slice.
              val in = streams.head
              val one = if (in.getNumPartitions == 1) in else inOneTask(List(in), cacheAll = false)(OnlyStream)
              val block = blocksOf(one, cache = true)
              Vector.tabulate(w)(i => block.mapPartitions(Slice(i, w)))
            })
          }
        case CatOp =>
          Vector(streams match {
            case s :: Nil => s
            case many     => sc.union(many)
          })
        case RelayOp(_, _) => Vector(streams.head)
      }
      val up = inEdges.filterNot(_.static).flatMap(e => upstream(e.id)).toSet + n.id
      n.outs.zip(outs).foreach { case (e, v) =>
        values(e) = v
        upstream(e) = up
        if (v != null) nodesOf(v.id) = up
      }
    }

    g.outputs.map { e =>
      e -> merged.getOrElse(e.id, Output(values.get(e.id).toList, _.flatten.toVector))
    }
  }

  /** Run one region: ONE job collects the RDDs of every output (in
    * partition order), and the driver concatenates or merges them. */
  def run(g: Graph): RefExec.Out =
    try {
      RefExec.requireRunnable(g)
      val outs   = eval(g)
      val parts  = outs.flatMap(_._2.parts)
      val arrays = if (parts.isEmpty) Array.empty[Array[String]]
                   else runJob(sc.union(parts), parts, ToArray)
      var next = 0
      val lines = outs.map { case (e, o) =>
        e -> o.merge(o.parts.map { p =>
          val from = next
          next += p.getNumPartitions
          arrays.slice(from, next).iterator.flatten.toVector
        })
      }
      RefExec.Out(
        lines.collect { case (e, v) if e.sink.isEmpty => v }.flatten.toVector,
        lines.flatMap { case (e, v) => e.sink.map(_ -> v) }.toMap,
      )
    } finally releaseCaches()

  /** Run a program region-by-region; sinks feed later regions via store. */
  def runProgram(regions: List[Graph]): RefExec.Out =
    RefExec.runRegions(regions, store)(run)

  private def releaseCaches(): Unit = {
    persisted.foreach(_.unpersist(blocking = false))
    persisted.clear()
    nodesOf.clear()
    done.clear()
  }
}

object SparkExec {

  /** A graph output: the ordered RDDs whose lines the driver passes to
    * `merge`. */
  private final case class Output(parts: List[RDD[String]],
                                  merge: List[Vector[String]] => Vector[String])

  /** A `sort -m` tree cut by key: the cached, sorted `streams` leaves
    * gathered as ONE partition of tagged blocks, and the splitters of
    * their key ranges in `r`'s order. */
  private final case class Cut(blocks: RDD[(Int, Array[String])], streams: Int,
                               splitters: Vector[String], r: Resolved)

  /** Sample lines per leaf for each way of a cut. */
  private val SamplesPerWay = 8
}
