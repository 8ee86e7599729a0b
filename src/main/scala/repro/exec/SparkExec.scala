package repro.exec

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel

import repro.cmds.Kernels
import repro.cmds.Kernels.Ctx
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
  *  - aggregate    → one n-ary merge task over the leaves of the maximal
  *    same-key aggregate tree;
  *  - `split`      → one job caches the input and counts its lines, then
  *    each output reads only its contiguous slice of the cached blocks
  *    (faithful to PaSh's line-counting split, which also consumes its
  *    whole input before dispersing it);
  *  - relay        → identity (Spark tasks have no shell laziness; the
  *    eager/blocking distinction is studied on the discrete-event
  *    simulator instead — DESIGN.md).
  *
  * Stage boundaries cache each partition as ONE `Array[String]` block
  * (`MEMORY_AND_DISK`) and compute the cached streams in ONE parallel job,
  * so each chunk's upstream kernel chain runs as its own task. A gathering
  * task then reads the blocks in order, bucketed by stream index.
  *
  * The *sequential baseline* is the untransformed DFG: every node sees a
  * 1-partition stream, nothing is cached, and the whole region collapses
  * into a single-core task chain, like `sh` on one CPU.
  */
final class SparkExec(spark: SparkSession, store: Store) {

  private val sc = spark.sparkContext

  private val persisted = collection.mutable.ListBuffer.empty[RDD[_]]

  /** Each partition of `s` as ONE array, cached if `cache`: Spark's
    * MemoryStore then holds one object per partition instead of unrolling
    * line by line. */
  private def blocksOf(s: RDD[String], cache: Boolean): RDD[Array[String]] = {
    val b = s.mapPartitions(it => Iterator.single(it.toArray), preservesPartitioning = true)
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
      return streams.head.mapPartitions(it => f(List(it.toVector)).iterator)
    val blocks = streams.map(s => blocksOf(s, cacheAll || s.getNumPartitions > 1))
    val cached = blocks.filter(_.getStorageLevel != StorageLevel.NONE)
    if (cached.nonEmpty) sc.union(cached).count()
    val nStreams = streams.size
    val tagged = blocks.zipWithIndex.map { case (b, i) => b.map((i, _)) }
    val one = if (tagged.isEmpty) sc.parallelize(Seq.empty[(Int, Array[String])], 1)
              else sc.union(tagged).coalesce(1)
    one.mapPartitions { it =>
      val buckets = Array.fill(nStreams)(Vector.newBuilder[String])
      it.foreach { case (i, b) => buckets(i) ++= b }
      f(buckets.map(_.result()).toList).iterator
    }
  }

  /** Evaluate a region; returns stdout/file-sink RDDs (not yet collected). */
  def eval(g: Graph): (List[RDD[String]], Map[String, RDD[String]]) = {
    val fetch  = store.fetchFn
    val values = collection.mutable.Map.empty[Int, RDD[String]]

    def edgeIn(e: DEdge): RDD[String] = e.src match {
      case Some(SrcFile(f))           => store.rdd(f)
      case Some(SrcFilePart(f, i, o)) => store.rddPart(f, i, o)
      case None                       => values(e.id)
    }

    // Maximal same-key aggregate trees are evaluated at their root as ONE
    // n-ary merge task (Kernels.aggN) — the map replicas upstream become
    // one parallel stage and the whole merge is a single pass instead of a
    // cascade of pairwise merges. Internal tree aggs (and the relays wired
    // between levels) are skipped.
    val aggTrees = g.aggTrees

    g.topo.foreach { n =>
      val inEdges = n.ins.map(g.edges)
      // statics are small configuration inputs (dictionaries): driver-side
      val statics = inEdges.filter(_.static).map(e => e.src match {
        case Some(SrcFile(f))           => store.fetch(f)
        case Some(SrcFilePart(f, i, o)) => store.fetchPart(f, i, o)
        case None                       => values(e.id).collect().toVector
      }).toList
      val streams = inEdges.filterNot(_.static).map(edgeIn).toList
      val ctx     = Ctx(statics, fetch)

      val outs: Vector[RDD[String]] = n.op match {
        case CmdOp(r) if r.cls == PClass.Stateless =>
          // parallel per-line kernel across all chunk partitions
          val in = streams.head
          Kernels.stateless(r) match {
            case Some(mk) =>
              Vector(in.mapPartitions({ it =>
                val f = mk(ctx); it.flatMap(l => f(l))
              }, preservesPartitioning = true))
            case None =>
              // stateless law ⇒ whole-kernel per partition is equivalent
              Vector(in.mapPartitions({ it =>
                Kernels.whole(r)(ctx)(List(it.toVector)).iterator
              }, preservesPartitioning = true))
          }
        case CmdOp(r) => Vector(inOneTask(streams, cacheAll = false)(Kernels.whole(r)(ctx)(_)))
        case MapOp(r) => Vector(inOneTask(streams, cacheAll = false)(Kernels.whole(r)(ctx)(_)))
        case AggOp(key, r) =>
          aggTrees.get(n.id) match {
            case None => Vector(null) // folded into the tree root's n-ary merge
            case Some(leafEdges) =>
              // every map replica must be computed in the one parallel job:
              // left to the merge task, they would run one after another in it
              val leaves = leafEdges.toList.map(e => edgeIn(g.edges(e)))
              Vector(inOneTask(leaves, cacheAll = true)(Kernels.aggN(key, r, _)))
          }
        case SplitOp(w) =>
          // PaSh's split counts lines first: one job caches the input and
          // collects its block sizes; output i reads only lines [lo, hi)
          val in     = blocksOf(streams.head, cache = true)
          val starts = in.map(_.length.toLong).collect().scanLeft(0L)(_ + _)
          val n0     = starts.last
          Vector.tabulate(w) { i =>
            val lo = n0 * i / w
            val hi = n0 * (i + 1) / w
            in.mapPartitionsWithIndex({ (p, it) =>
              val b = it.next()
              Iterator.range((lo - starts(p)).max(0L).toInt,
                             (hi - starts(p)).min(b.length.toLong).toInt).map(b(_))
            }, preservesPartitioning = true)
          }
        case CatOp =>
          Vector(streams match {
            case s :: Nil => s
            case many     => sc.union(many)
          })
        case RelayOp(_, _) => Vector(streams.head)
      }
      n.outs.zip(outs).foreach { case (e, v) => values(e) = v }
    }

    val stdout = List.newBuilder[RDD[String]]
    val sinks  = Map.newBuilder[String, RDD[String]]
    g.outputs.foreach { e =>
      val v = values.getOrElse(e.id, sc.parallelize(Seq.empty[String], 1))
      e.sink match {
        case Some(f) => sinks += f -> v
        case None    => stdout += v
      }
    }
    (stdout.result(), sinks.result())
  }

  /** Run one region and collect results (order = partition order). */
  def run(g: Graph): RefExec.Out =
    try {
      val (stdouts, sinks) = eval(g)
      RefExec.Out(
        stdouts.flatMap(_.collect()).toVector,
        sinks.map { case (f, r) => f -> r.collect().toVector },
      )
    } finally releaseCaches()

  /** Run a program region-by-region; sinks feed later regions via store. */
  def runProgram(regions: List[Graph]): RefExec.Out =
    RefExec.runRegions(regions, store)(run)

  private def releaseCaches(): Unit = {
    persisted.foreach(_.unpersist(blocking = false))
    persisted.clear()
  }
}
