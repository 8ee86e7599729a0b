package repro.core

import Dfg._
import PClass._

/** Graph transformations (§4.3) + runtime-primitive insertion (§5).
  *
  * The parallelization transform commutes a `cat` of n streams with a
  * stateless node (the semigroup-homomorphism law), or replaces a
  * parallelizable-pure node with n map replicas feeding a binary tree of
  * aggregate nodes. Auxiliary transforms insert `cat`/`split`/relay nodes
  * to manufacture the shapes the main transform needs.
  *
  * Width bootstrapping: a graph-input *file* edge is splittable by chunked
  * reads (no split process needed) — this is why the `w/o split`
  * configuration still parallelizes the prefix of a pipeline, while
  * re-parallelizing after an aggregator (whose output has width 1) needs
  * `split` nodes (§6.1 "Sort-sort illustrates the full spectrum").
  */
object Transform {

  sealed trait EagerMode
  case object EagerOff      extends EagerMode
  case object EagerBlocking extends EagerMode
  case object EagerOn       extends EagerMode

  /** PaSh invocation options: `--width` plus the runtime-lattice knobs of
    * Fig. 9 (split on/off, eager off/blocking/on). */
  final case class PashConfig(
      width: Int,
      split: Boolean = true,
      eager: EagerMode = EagerOn,
  )

  /** Parallelize one region DFG. Semantics-preserving: (S) nodes replicate
    * per input chunk; (P) nodes become map replicas + aggregate tree; (N)
    * and (E) nodes are left sequential (cats upstream materialize). */
  def parallelize(g: Graph, cfg: PashConfig): Graph = walk(g, cfg, naive = false)

  /** Naive chunk-and-concat parallelization that (incorrectly) treats every
    * pure command as stateless — models careless `gnu parallel` use (§6.5).
    * Breaks semantics for (P)/(N) commands; used to *measure* the breakage. */
  def naiveParallel(g: Graph, cfg: PashConfig): Graph = walk(g, cfg, naive = true)

  private def walk(g: Graph, cfg: PashConfig, naive: Boolean): Graph = {
    if (cfg.width <= 1) return g
    val b = new Builder().load(g)

    // Walk original command nodes in topo order; replication introduces
    // new nodes that are themselves terminal (replicas never re-split).
    g.topo.foreach { n0 =>
      b.nodes.get(n0.id).foreach { n =>
        n.op match {
          case CmdOp(r) =>
            decide(r, naive).foreach { agg =>
              withBundle(b, n, cfg).foreach(replicate(b, n, r, agg, _, cfg))
            }
          case _ => () // runtime nodes
        }
      }
    }
    if (!naive) insertCatEagers(b, cfg)
    b.result()
  }

  /** How a command is parallelized: `None` leaves it sequential ((N), (E),
    * (P) without an aggregator); `Some(None)` replicates it and concatenates
    * the replicas; `Some(Some(key))` feeds map replicas into a `key`
    * aggregate tree. Naive replicates every non-(E) command as stateless. */
  private def decide(r: Annotations.Resolved, naive: Boolean): Option[Option[String]] =
    if (naive) Option.when(r.cls != SideEffectful)(None)
    else r.cls match {
      case Stateless               => Some(None)
      case Pure if r.agg.isDefined => Some(r.agg)
      case _                       => None
    }

  /** §5 "Overcoming Laziness": a surviving cat merge node reads its inputs
    * in order, so producers of inputs 2..n block on 64 KiB FIFOs and the
    * parallel branches serialize. PaSh inserts eager relays on exactly
    * those inputs (Fig. 8d); the first input streams directly. */
  private def insertCatEagers(b: Builder, cfg: PashConfig): Unit = {
    if (cfg.eager == EagerOff) return
    val cats = b.nodes.values.filter(n => n.op == CatOp && n.ins.size >= 2).toList
    cats.foreach { cat =>
      val newIns = cat.ins.zipWithIndex.map { case (e, i) =>
        if (i == 0) e else relay(b, e, cfg)
      }
      b.nodes(cat.id) = b.nodes(cat.id).copy(ins = newIns)
      newIns.foreach(e => b.edges(e) = b.edges(e).copy(to = Some(cat.id)))
    }
  }

  // ------------------------------------------------------------ internals

  /** Acquire the parallel input bundle for `n`'s single streaming input:
    * commute with an upstream cat, chunk a file source, or insert split. */
  private def withBundle(b: Builder, n: DNode, cfg: PashConfig): Option[Vector[Int]] = {
    val streaming = n.ins.filterNot(e => b.edges(e).static)
    if (streaming.size != 1) return None // multi-stream (comm/join general case)
    val e  = streaming.head
    val de = b.edges(e)

    de.from match {
      case Some(pid) if b.nodes.get(pid).exists(_.op == CatOp) =>
        val cat = b.nodes(pid)
        if (cat.ins.size < 2) None
        else {
          // commute: the cat's inputs become the bundle; cat + edge vanish
          b.removeNode(cat.id)
          b.removeEdge(e)
          Some(cat.ins)
        }
      case None =>
        de.src match {
          case Some(SrcFile(f)) if !de.static =>
            // chunked parallel read of an on-disk input
            b.removeEdge(e)
            Some(Vector.tabulate(cfg.width) { i =>
              b.freshEdge(Some(SrcFilePart(f, i, cfg.width)))
            })
          case _ => None
        }
      case Some(_) if cfg.split =>
        // t2: split + (commuted) cat; eager relays after all outputs but last
        val raw = Vector.fill(cfg.width)(b.freshEdge())
        b.addNode(SplitOp(cfg.width), Vector(e), raw)
        val bundle = raw.zipWithIndex.map { case (re, i) =>
          if (i < cfg.width - 1) relay(b, re, cfg) else re
        }
        Some(bundle)
      case Some(_) => None
    }
  }

  /** Insert a relay on edge `e` per the eager mode; returns the new edge. */
  private def relay(b: Builder, e: Int, cfg: PashConfig): Int = cfg.eager match {
    case EagerOff => e
    case mode =>
      val out = b.freshEdge()
      b.addNode(RelayOp(eager = mode == EagerOn, blocking = mode == EagerBlocking),
                Vector(e), Vector(out))
      out
  }

  /** Snapshot the static-input sources of `n`, then drop those edges.
    * (The streaming edge may already have been consumed by withBundle.) */
  private def takeStatics(b: Builder, n: DNode): Vector[Option[Src]] = {
    val statics = n.ins.filter(e => b.edges.get(e).exists(_.static))
    val srcs    = statics.map(e => b.edges(e).src)
    statics.foreach(b.removeEdge)
    srcs
  }

  /** Replace `n` with one replica per bundle edge: (S) replicas joined by
    * the commuted cat, or (P) map replicas feeding an `agg` tree. */
  private def replicate(b: Builder, n: DNode, r: Annotations.Resolved,
                        agg: Option[String], bundle: Vector[Int],
                        cfg: PashConfig): Unit = {
    val outEdge    = n.outs.head
    val staticSrcs = takeStatics(b, n)
    b.removeNode(n.id)
    val partials = bundle.map { be =>
      val o = b.freshEdge()
      val statics = staticSrcs.map(s => b.freshEdge(s, static = true))
      b.addNode(if (agg.isEmpty) CmdOp(r) else MapOp(r), statics :+ be, Vector(o))
      o
    }
    agg match {
      case None      => b.addNode(CatOp, partials, Vector(outEdge))
      case Some(key) => aggTree(b, r, key, partials, outEdge, cfg)
    }
  }

  private def aggTree(b: Builder, r: Annotations.Resolved, aggKey: String,
                      partials: Vector[Int], outEdge: Int, cfg: PashConfig): Unit = {
    // binary aggregation tree; an eager relay on the *second* input of
    // every agg node keeps the producer that would otherwise block on a
    // full FIFO running (§5; matches Tab. 2's node-count shape)
    def tree(es: Vector[Int]): Int = es match {
      case Vector(only) => only
      case _ =>
        val (l, rr) = es.splitAt((es.size + 1) / 2)
        val (a, c)  = (tree(l), tree(rr))
        val ce      = relay(b, c, cfg)
        val o       = b.freshEdge()
        b.addNode(AggOp(aggKey, r), Vector(a, ce), Vector(o))
        o
    }
    val root = tree(partials)
    // splice the tree root into the original output edge
    val rootEdge = b.edges(root)
    val producer = rootEdge.from.get
    val pn       = b.nodes(producer)
    b.removeEdge(root)
    b.nodes(producer) = pn.copy(outs = pn.outs.map(e => if (e == root) outEdge else e))
    b.edges(outEdge) = b.edges(outEdge).copy(from = Some(producer))
  }
}
