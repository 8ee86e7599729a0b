package repro.exec

import repro.cmds.Kernels
import repro.cmds.Kernels.Ctx
import repro.core.Dfg._

/** Reference DFG interpreter over in-memory line vectors.
  *
  * This is the golden sequential semantics: single-threaded, ordered,
  * shared kernels with the Spark executor. Tests assert
  * `SparkExec(parallelized) == SparkExec(original) == RefExec(original)`.
  * It evaluates *any* DFG (including transformed ones), so it also serves
  * as a fast cross-check that the transformations preserve behaviour.
  */
object RefExec {

  /** Region/program result: stdout lines + named file sinks. */
  final case class Out(stdout: Vector[String], files: Map[String, Vector[String]])

  def run(g: Graph, store: Store): Out = {
    requireRunnable(g)
    val fetch: String => Vector[String] = store.fetch
    val values = collection.mutable.Map.empty[Int, Vector[String]]

    def edgeIn(e: DEdge): Vector[String] = e.src match {
      case Some(SrcFile(f))           => store.fetch(f)
      case Some(SrcFilePart(f, i, o)) => store.fetchPart(f, i, o)
      case None                       => values(e.id)
    }

    g.topo.foreach { n =>
      val inEdges  = n.ins.map(g.edges)
      val statics  = inEdges.filter(_.static).map(edgeIn).toList
      val streams  = inEdges.filterNot(_.static).map(edgeIn).toList
      val ctx      = Ctx(statics, fetch)
      val outs: Vector[Vector[String]] = n.op match {
        case CmdOp(r) => Vector(Kernels.whole(r)(ctx)(streams))
        case MapOp(r) => Vector(Kernels.whole(r)(ctx)(streams))
        case AggOp(key, r) => Vector(Kernels.aggN(key, r, streams))
        case SplitOp(w) =>
          val v = streams.head
          val len = v.size.toLong
          Vector.tabulate(w) { i =>
            v.slice((len * i / w).toInt, (len * (i + 1) / w).toInt)
          }
        case CatOp => Vector(streams.foldLeft(Vector.empty[String])(_ ++ _))
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
    Out(stdout.result(), sinks.result())
  }

  /** Raise on a region with an opaque node, naming it. Such a node lost the
    * words that did not expand and keeps none of its flags, so running
    * its command's kernel would run another program. Both executors call
    * this before running a region. */
  def requireRunnable(g: Graph): Unit =
    g.nodes.values.toList.sortBy(_.id).collectFirst {
      case DNode(id, CmdOp(r), _, _) if r.opaque => s"node $id (${(r.name :: r.args).mkString(" ")})"
    }.foreach { n =>
      throw new IllegalArgumentException(
        s"$n is opaque: a word did not expand or no record describes it, so it cannot run")
    }

  def runProgram(regions: List[Graph], store: Store): Out =
    runRegions(regions, store)(run(_, store))

  /** Run a multi-region program in order, each region with `run`; file
    * sinks become store entries visible to later regions (temp-file idioms
    * like bi-grams). Shared by both executors. */
  def runRegions(regions: List[Graph], store: Store)(run: Graph => Out): Out = {
    val stdout = Vector.newBuilder[String]
    val files  = collection.mutable.Map.empty[String, Vector[String]]
    regions.foreach { g =>
      val o = run(g)
      stdout ++= o.stdout
      o.files.foreach { case (f, v) => files(f) = v; store.addLines(f, v) }
    }
    Out(stdout.result(), files.toMap)
  }
}
