package repro.core

import Annotations.Resolved

/** PaSh's dataflow-graph model (§4.2).
  *
  * Nodes are commands, edges are streams. Unlike generic DFG models, a node
  * records the *order* in which it consumes its input edges (`ins` is an
  * ordered vector), which is what licenses the cat-commutation transform.
  * Static (configuration) inputs — e.g. the dictionary file of
  * `comm -13 dict -` — are flagged on the edge and replicated, not split,
  * under parallelization.
  */
object Dfg {

  /** Where a graph-input edge reads from. */
  sealed trait Src
  /** A named file (or URL — the synthetic store resolves both). */
  final case class SrcFile(name: String) extends Src
  /** Contiguous chunk `i` of `of` of a file — PaSh's parallel read of an
    * on-disk input (the degenerate split that needs no split process). */
  final case class SrcFilePart(name: String, i: Int, of: Int) extends Src

  /** Node operators. */
  sealed trait Op
  /** A command invocation (any class); also used for (S) replicas. */
  final case class CmdOp(r: Resolved) extends Op
  /** Map-phase replica of a parallelized (P) command (§4.3). */
  final case class MapOp(r: Resolved) extends Op
  /** Aggregate node merging two partial outputs of a (P) command (§5);
    * see [[Graph.aggTrees]] for how executors merge whole trees. */
  final case class AggOp(key: String, r: Resolved) extends Op
  /** Line-aware input splitter (§5 "Splitting Challenges"). */
  final case class SplitOp(ways: Int) extends Op
  /** Ordered concatenation (the `cat` of the formal model). */
  case object CatOp extends Op
  /** Relay: identity transformation; eager/blocking variants (§5, Fig. 8). */
  final case class RelayOp(eager: Boolean, blocking: Boolean) extends Op

  final case class DEdge(
      id: Int,
      from: Option[Int],        // producing node; None ⇒ graph input
      to: Option[Int],          // consuming node; None ⇒ graph output
      src: Option[Src] = None,  // for graph inputs
      sink: Option[String] = None, // named file for graph outputs
      static: Boolean = false,  // configuration input (read fully, replicated)
  )

  final case class DNode(id: Int, op: Op, ins: Vector[Int], outs: Vector[Int])

  /** Immutable graph; transformations use [[Builder]]. */
  final case class Graph(nodes: Map[Int, DNode], edges: Map[Int, DEdge]) {

    def inputs: List[DEdge]  = edges.values.filter(_.from.isEmpty).toList.sortBy(_.id)
    def outputs: List[DEdge] = edges.values.filter(_.to.isEmpty).toList.sortBy(_.id)

    /** Topological order over nodes (graph is a DAG by construction). */
    def topo: List[DNode] = {
      val indeg = collection.mutable.Map.empty[Int, Int].withDefaultValue(0)
      nodes.values.foreach { n =>
        indeg(n.id) += n.ins.map(edges).count(_.from.isDefined)
      }
      val queue = collection.mutable.Queue(
        nodes.values.filter(n => indeg(n.id) == 0).toSeq.sortBy(_.id): _*)
      val out   = List.newBuilder[DNode]
      var seen  = 0
      while (queue.nonEmpty) {
        val n = queue.dequeue()
        out += n; seen += 1
        n.outs.map(edges).foreach { e =>
          e.to.foreach { t =>
            indeg(t) -= 1
            if (indeg(t) == 0) queue.enqueue(nodes(t))
          }
        }
      }
      require(seen == nodes.size, s"cycle in DFG: visited $seen of ${nodes.size}")
      out.result()
    }

    /** The edge that `e` carries, looking back through relays. */
    def throughRelays(e: Int): Int = edges(e).from.map(nodes) match {
      case Some(DNode(_, RelayOp(_, _), ins, _)) => throughRelays(ins.head)
      case _                                     => e
    }

    /** Leaf edges, in stream order, of each maximal same-key aggregate
      * tree, keyed by the tree's root node. The transform builds binary
      * trees with relays between levels; an executor may merge a whole tree
      * in one n-ary aggregator call over these leaves. Relays are looked
      * through, and internal aggregate nodes are not keys. */
    def aggTrees: Map[Int, Vector[Int]] = {
      val inner = collection.mutable.Set.empty[Int]
      def leaves(e: Int, key: String): Vector[Int] = {
        val in = throughRelays(e)
        edges(in).from.map(nodes) match {
          case Some(DNode(id, AggOp(k, _), ins, _)) if k == key =>
            inner += id
            ins.flatMap(leaves(_, key))
          case _ => Vector(in)
        }
      }
      val trees = nodes.values.collect { case DNode(id, AggOp(key, _), ins, _) =>
        id -> ins.flatMap(leaves(_, key))
      }.toMap
      trees -- inner
    }

    /** Node counts by operator kind — Tab. 2's #Nodes column. */
    def nodeStats: Map[String, Int] =
      nodes.values.groupBy(n => n.op match {
        case _: CmdOp   => "cmd"
        case _: MapOp   => "map"
        case _: AggOp   => "agg"
        case _: SplitOp => "split"
        case CatOp      => "cat"
        case RelayOp(e, _) => if (e) "eager" else "blocking"
      }).map { case (k, v) => k -> v.size }
  }

  /** Mutable builder used by the frontend and the transformation pass. */
  final class Builder {
    private var nextNode = 0
    private var nextEdge = 0
    val nodes = collection.mutable.Map.empty[Int, DNode]
    val edges = collection.mutable.Map.empty[Int, DEdge]

    def freshEdge(src: Option[Src] = None, static: Boolean = false): Int = {
      val id = nextEdge; nextEdge += 1
      edges(id) = DEdge(id, None, None, src = src, static = static)
      id
    }

    def addNode(op: Op, ins: Vector[Int], outs: Vector[Int]): Int = {
      val id = nextNode; nextNode += 1
      nodes(id) = DNode(id, op, ins, outs)
      ins.foreach(e => edges(e) = edges(e).copy(to = Some(id)))
      outs.foreach(e => edges(e) = edges(e).copy(from = Some(id)))
      id
    }

    def removeNode(id: Int): DNode = {
      val n = nodes.remove(id).get
      // only detach endpoints that still point at this node — an edge may
      // have been rewired to a freshly inserted node (e.g. split) already
      n.ins.foreach(e => edges.get(e).foreach(d =>
        if (d.to.contains(id)) edges(e) = d.copy(to = None)))
      n.outs.foreach(e => edges.get(e).foreach(d =>
        if (d.from.contains(id)) edges(e) = d.copy(from = None)))
      n
    }

    def removeEdge(id: Int): Unit = edges.remove(id)

    /** The nodes that write `edge` and, recursively, what feeds them. */
    def upstream(edge: Int): List[DNode] =
      edges(edge).from.map(nodes).toList.flatMap(n => n :: n.ins.toList.flatMap(upstream))

    /** Remove `edge` and its [[upstream]] nodes and edges: in a pipeline
      * each of them feeds only the next. */
    def dropUpstream(edge: Int): Unit =
      edges.remove(edge).flatMap(_.from).flatMap(nodes.remove).foreach(_.ins.foreach(dropUpstream))

    def setSink(edge: Int, file: String): Unit =
      edges(edge) = edges(edge).copy(sink = Some(file))

    def result(): Graph = Graph(nodes.toMap, edges.toMap)

    def load(g: Graph): this.type = {
      nodes.clear(); edges.clear()
      nodes ++= g.nodes; edges ++= g.edges
      nextNode = if (g.nodes.isEmpty) 0 else g.nodes.keys.max + 1
      nextEdge = if (g.edges.isEmpty) 0 else g.edges.keys.max + 1
      this
    }
  }
}
