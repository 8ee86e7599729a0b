package repro.core

import Dfg._

/** Backend (§4.4): instantiate a (transformed) DFG back into POSIX shell
  * text — named pipes for edges, one background job per node, a `wait` on
  * the output producers, and the PIPE-signal cleanup routine for dangling
  * FIFOs and zombie producers (§5).
  *
  * The emitted script is a faithful rendering for inspection and tests;
  * *execution* in this reproduction goes through `repro.exec` (Spark) and
  * `repro.sim` (discrete-event) rather than an external `sh`.
  */
object Backend {

  final case class Emitted(script: String, fifos: Int, jobs: Int)

  def emit(g: Graph): Emitted = {
    val fifoName = collection.mutable.Map.empty[Int, String]
    var nFifo    = 0
    def nameOf(e: DEdge): String = e match {
      case DEdge(_, _, _, Some(SrcFile(f)), _, _)           => f
      case DEdge(_, _, _, Some(SrcFilePart(f, i, of)), _, _) => s"$f.part$i.$of"
      case DEdge(id, _, _, _, Some(sink), _)                 => sink
      case DEdge(id, _, _, _, _, _) =>
        fifoName.getOrElseUpdate(id, { nFifo += 1; s"t$nFifo" })
    }

    val sb = new StringBuilder
    val jobs = g.topo.map { n =>
      val ins  = n.ins.map(e => nameOf(g.edges(e)))
      val out  = n.outs.map(e => nameOf(g.edges(e)))
      // operand files now arrive via input edges — don't repeat them
      def renderCmd(r: repro.core.Annotations.Resolved): String = {
        val inNames = ins.toSet
        val args = r.args.filterNot(a =>
          inNames.contains(a) || inNames.exists(_.startsWith(a + ".part")))
        val src = if (ins.isEmpty) "" else s"cat ${ins.mkString(" ")} | "
        s"$src${(r.name :: args).mkString(" ")} > ${out.head}"
      }
      val line = n.op match {
        case CmdOp(r) => renderCmd(r)
        case MapOp(r) => renderCmd(r)
        case AggOp(key, r) =>
          s"pash-agg-$key ${r.args.mkString(" ")} ${ins.mkString(" ")} > ${out.head}"
        case SplitOp(_) =>
          s"cat ${ins.mkString(" ")} | pash-split ${out.mkString(" ")}"
        case CatOp =>
          s"cat ${ins.mkString(" ")} > ${out.head}"
        case RelayOp(eager, _) =>
          val prim = if (eager) "eager" else "blocking-eager"
          s"cat ${ins.mkString(" ")} | $prim > ${out.head}"
      }
      line + " &"
    }

    // prologue: fifos + abort trap; epilogue: targeted wait + PIPE cleanup
    if (nFifo > 0) {
      sb ++= s"mkfifo ${(1 to nFifo).map(i => s"t$i").mkString(" ")}\n"
      sb ++= "trap 'rm -f t*' EXIT\n"
    }
    jobs.foreach { j => sb ++= j; sb += '\n' }
    sb ++= "wait $! && pash-get-pids | xargs -n 1 kill -SIGPIPE 2>/dev/null\n"
    Emitted(sb.toString, nFifo, jobs.size)
  }

  /** Tab. 2 statistics for a transformed region set. */
  final case class Stats(nodes: Int, byKind: Map[String, Int]) {
    def show: String =
      s"$nodes nodes (${byKind.toList.sortBy(_._1).map { case (k, v) => s"$k=$v" }.mkString(", ")})"
  }

  def stats(gs: List[Graph]): Stats = {
    val kinds = gs.map(_.nodeStats).foldLeft(Map.empty[String, Int]) { (acc, m) =>
      m.foldLeft(acc) { case (a, (k, v)) => a.updated(k, a.getOrElse(k, 0) + v) }
    }
    Stats(gs.map(_.nodes.size).sum, kinds)
  }
}
