package perfbench

import repro.cmds.Kernels
import repro.cmds.Kernels.Ctx
import repro.core.Annotations.Resolved
import repro.core.Dfg._
import repro.exec.{RefExec, Store}

/** Traced replay of a DFG in the harness's own thread, for the per-kernel
  * metrics.
  *
  * It walks the graph in topological order as `RefExec.run` does and calls
  * the command kernels directly, so that every node's busy time, records
  * and bytes in and out are measured at the kernel boundary. Aggregate
  * trees are merged as `SparkExec` merges them: one `Kernels.aggN` call at
  * each tree root over the tree's leaves (it falls back to
  * `Kernels.aggPair` for aggregators with no n-ary form). Reads go through
  * `Store.fetch`/`fetchPart` inside `store.*` spans.
  */
final class Replay(trace: Trace) {

  final class Acc {
    var busyNs, recIn, recOut, bytesIn, bytesOut = 0L
  }

  /** Totals per kernel key (`sort`, `sort_rn`, `agg_sort_m`, ...). */
  val kernels = collection.mutable.Map.empty[String, Acc]
  /** Time in, and lines passed to, `Store.addLines` for region sinks. */
  var sinkNanos, sinkLines = 0L

  private def bytes(v: Vector[String]): Long = v.iterator.map(_.length + 1L).sum

  private def measured(key: String, ins: List[Vector[String]])(
      body: => Vector[String]): Vector[String] = {
    val t0  = System.nanoTime()
    val out = trace.span(s"kernels.$key")(body)
    val a   = kernels.getOrElseUpdate(key, new Acc)
    a.busyNs += System.nanoTime() - t0
    a.recIn += ins.map(_.size.toLong).sum
    a.bytesIn += ins.map(bytes).sum
    a.recOut += out.size
    a.bytesOut += bytes(out)
    out
  }

  private def keyOf(r: Resolved): String = r.name match {
    case "sort" if r.flags.contains("-n") => "sort_rn"
    case "uniq" if r.flags.contains("-c") => "uniq_c"
    case other                            => other
  }

  def run(g: Graph, store: Store): RefExec.Out = {
    val values = collection.mutable.Map.empty[Int, Vector[String]]

    def edgeIn(e: DEdge): Vector[String] = e.src match {
      case Some(SrcFile(f))           => trace.span("store.fetch")(store.fetch(f))
      case Some(SrcFilePart(f, i, o)) => trace.span("store.fetchPart")(store.fetchPart(f, i, o))
      case None                       => values(e.id)
    }

    def producer(e: Int): Option[DNode] = g.edges(e).from.map(g.nodes)
    // leaves of the maximal same-key aggregate tree rooted at an agg node
    def leaves(n: DNode, key: String): Vector[Int] =
      n.ins.filterNot(e => g.edges(e).static).flatMap { e0 =>
        def leaf(e: Int): Vector[Int] = producer(e) match {
          case Some(DNode(_, RelayOp(_, _), rins, _))                 => leaf(rins.head)
          case Some(p @ DNode(_, AggOp(k, _), _, _)) if k == key      => leaves(p, key)
          case _                                                     => Vector(e)
        }
        leaf(e0)
      }
    val innerAggs: Set[Int] = g.nodes.values.collect {
      case DNode(_, AggOp(key, _), ins, _) =>
        ins.flatMap { e0 =>
          def chase(e: Int): Option[Int] = producer(e) match {
            case Some(DNode(_, RelayOp(_, _), rins, _))              => chase(rins.head)
            case Some(DNode(pid, AggOp(k, _), _, _)) if k == key     => Some(pid)
            case _                                                  => None
          }
          chase(e0)
        }
    }.flatten.toSet

    g.topo.foreach { n =>
      val inEdges = n.ins.map(g.edges)
      val statics = inEdges.filter(_.static).map(edgeIn).toList
      val streams = inEdges.filterNot(_.static).map(edgeIn).toList
      val ctx     = Ctx(statics, store.fetch)
      val outs: Vector[Vector[String]] = n.op match {
        case CmdOp(r) => Vector(measured(keyOf(r), streams)(Kernels.whole(r)(ctx)(streams)))
        case MapOp(r) => Vector(measured(keyOf(r), streams)(Kernels.whole(r)(ctx)(streams)))
        case AggOp(_, _) if innerAggs.contains(n.id) => Vector(Vector.empty)
        case AggOp(key, r) =>
          val parts = leaves(n, key).toList.map(values)
          Vector(measured("agg_" + key.replace('-', '_'), parts)(Kernels.aggN(key, r, parts)))
        case SplitOp(w) =>
          val v = streams.head
          val len = v.size.toLong
          Vector.tabulate(w)(i => v.slice((len * i / w).toInt, (len * (i + 1) / w).toInt))
        case CatOp         => Vector(streams.foldLeft(Vector.empty[String])(_ ++ _))
        case RelayOp(_, _) => Vector(streams.head)
      }
      n.outs.zip(outs).foreach { case (e, v) => values(e) = v }
    }

    val stdout = Vector.newBuilder[String]
    val sinks  = Map.newBuilder[String, Vector[String]]
    g.outputs.foreach { e =>
      val v = values.getOrElse(e.id, Vector.empty)
      e.sink match {
        case Some(f) => sinks += f -> v
        case None    => stdout ++= v
      }
    }
    RefExec.Out(stdout.result(), sinks.result())
  }

  /** A program, region by region; file sinks become store entries that
    * later regions read, as in `RefExec.runProgram`. */
  def runProgram(regions: List[Graph], store: Store): RefExec.Out = {
    val stdout = Vector.newBuilder[String]
    val files  = collection.mutable.Map.empty[String, Vector[String]]
    regions.foreach { g =>
      val o = run(g, store)
      stdout ++= o.stdout
      o.files.foreach { case (f, v) =>
        files(f) = v
        val t0 = System.nanoTime()
        trace.span("store.addLines")(store.addLines(f, v))
        sinkNanos += System.nanoTime() - t0
        sinkLines += v.size
      }
    }
    RefExec.Out(stdout.result(), files.toMap)
  }
}
