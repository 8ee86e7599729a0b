package repro.core

import Ast._
import Annotations.{FileOperands, Resolved, StreamSpec, opaque}
import Dfg._
import PClass.SideEffectful

/** Frontend (§4.1): identify dataflow regions in the shell AST and lift
  * each to a DFG.
  *
  * Region rules follow the paper: pipes (`|`) and parallel composition
  * (`&`) compose regions; `;`, `&&`, `||`, assignments and loop boundaries
  * are barriers. `for` loops are unrolled (iterations are sequential in
  * POSIX), with the loop variable bound in the static environment so words
  * like `"$base/$y"` expand during translation. A word whose expansion is
  * unknown makes its command the opaque (E) node — the region still builds
  * but the node is never parallelized. A first stage that reads the
  * script's own stdin is rejected: a region has no edge for it. So are
  * redirections the region cannot honour: `<` after a pipe, `>` before
  * one, a target that does not expand, and two of a kind on one stage,
  * and file operands that the command's record says GNU does not read as
  * the region would (`tac a b`, `wc -l a`). A stage after a pipe that
  * reads no stdin (`cat a | grep -e x b`) drops the stages before it, whose
  * output `sh` sends to a pipe nobody reads; it raises if one of them is
  * opaque or (E), since `sh` still runs it (`cat a | tee c | grep -e x b`).
  */
object Frontend {

  /** A compiled program: dataflow regions in execution order. */
  final case class Compiled(regions: List[Graph])

  def compile(src: String): Compiled = {
    val env     = collection.mutable.Map.empty[String, String]
    val regions = List.newBuilder[Graph]

    def walk(node: Node): Unit = node match {
      case Noop             => ()
      case Semi(l, r)       => walk(l); walk(r)
      case And(l, r)        => walk(l); walk(r) // barrier; both sides compile
      case Or(l, r)         => walk(l); walk(r)
      case Subshell(b)      => walk(b)
      case Amp(l, r)        => walk(l); walk(r) // task-parallel; order-safe
      case Assign(n, v)     =>
        env(n) = v.expand(env.toMap).getOrElse(
          throw new IllegalArgumentException(s"dynamic assignment to $n"))
      case For(v, items, body) =>
        items.foreach { it =>
          val value = it.expand(env.toMap).getOrElse(
            throw new IllegalArgumentException(s"dynamic loop item for $v"))
          env(v) = value
          walk(body)
        }
        env.remove(v)
      case p: Pipe          => regions += pipeToDfg(p.stages, env.toMap)
      case c: Cmd           => regions += pipeToDfg(List(c), env.toMap)
    }

    walk(Parser.parse(src))
    Compiled(regions.result())
  }

  /** Resolve one command stage against the annotation library. Unknown
    * expansions give the opaque (E) node (conservative default, §4.1). */
  def resolveStage(c: Cmd, env: Map[String, String]): Resolved = {
    val nameE = c.name.expand(env)
    val argsE = c.args.map(_.expand(env))
    if (nameE.isEmpty || argsE.exists(_.isEmpty))
      opaque(nameE.getOrElse("<dynamic>"), argsE.flatten)
    else AnnotationLib.resolve(nameE.get, argsE.map(_.get))
  }

  /** Build the DFG for one pipeline (auxiliary transform t1 applied: a
    * command whose record concatenates several streaming file inputs reads
    * them via a cat). */
  def pipeToDfg(stages: List[Node], env: Map[String, String]): Graph = {
    val b = new Builder
    var prevOut: Option[Int] = None // stdout edge of the previous stage

    stages.zipWithIndex.foreach {
      case (c: Cmd, i) =>
        val redirIn  = redirTarget(c, env) { case RedirIn(t) => t }
        val redirOut = redirTarget(c, env) { case RedirOut(t) => t }
        val r = redirIn.fold(resolveStage(c, env))(_ => AnnotationLib.readingFile(resolveStage(c, env)))
        if (redirIn.isDefined && i > 0)
          throw new IllegalArgumentException(
            s"${r.name}: `<` on a stage after a pipe replaces the pipe's input")
        if (redirOut.isDefined && i < stages.size - 1)
          throw new IllegalArgumentException(
            s"${r.name}: `>` on a stage before a pipe leaves the next stage no input")

        // Static (configuration) inputs: replicated under parallelization.
        val staticEdges = r.inputs.collect {
          case StreamSpec.File(f, true) => b.freshEdge(Some(SrcFile(f)), static = true)
        }

        // Streaming inputs, in consumption order.
        val streamSpecs = r.inputs.filter {
          case StreamSpec.File(_, true) => false
          case _                        => true
        }
        val streamEdges: Vector[Int] = streamSpecs.flatMap {
          case StreamSpec.Std =>
            prevOut match {
              case Some(e) => List(e)
              case None    =>
                redirIn match {
                  case Some(f) => List(b.freshEdge(Some(SrcFile(f))))
                  case None    => throw new IllegalArgumentException(
                    s"${r.name}: the first stage reads the script's stdin, which a region cannot read")
                }
            }
          case StreamSpec.File(f, _) => List(b.freshEdge(Some(SrcFile(f))))
        }.toVector

        // t1: the record says how several streaming inputs are read
        val files = streamSpecs.count(_ != StreamSpec.Std)
        val streaming: Vector[Int] = r.files match {
          case FileOperands.Concat if streamEdges.size > 1 =>
            val out = b.freshEdge()
            b.addNode(CatOp, streamEdges, Vector(out))
            Vector(out)
          case FileOperands.AtMostOne if files > 1 => throw new IllegalArgumentException(
            s"${r.name}: $files file operands, which GNU does not read as one input stream")
          case FileOperands.StdinOnly if files > 0 => throw new IllegalArgumentException(
            s"${r.name}: a file operand, which GNU names in its output or changes in place")
          case _ => streamEdges
        }

        // a stage that reads no stdin leaves the pipe unread: under sh the
        // stages before it write to nowhere, so they leave the graph, unless
        // one may act beyond its stdout (`tee f`, a command without a record)
        if (!r.inputs.contains(StreamSpec.Std)) prevOut.foreach { e =>
          b.upstream(e).collectFirst {
            case DNode(_, CmdOp(u), _, _) if u.cls == SideEffectful => u // opaque ones too
          }.foreach { u =>
            throw new IllegalArgumentException(
              s"${(u.name :: u.args).mkString(" ")}: writes to a pipe ${r.name} never reads, and " +
              "a stage that may act beyond its stdout cannot leave the region")
          }
          b.dropUpstream(e)
        }

        val outEdge = b.freshEdge()
        redirOut.foreach(f => b.setSink(outEdge, f))
        b.addNode(CmdOp(r), staticEdges.toVector ++ streaming, Vector(outEdge))
        prevOut = Some(outEdge)

      case (other, _) =>
        throw new IllegalArgumentException(s"unsupported pipeline stage: $other")
    }
    b.result()
  }

  /** The expanded target of a stage's one redirection of a kind. A target
    * that does not expand, or a second redirection of the kind, raises:
    * the region could neither read nor write the file `sh` would. */
  private def redirTarget(c: Cmd, env: Map[String, String])(
      kind: PartialFunction[Redir, Word]): Option[String] =
    c.redirs.collect(kind) match {
      case Nil      => None
      case w :: Nil => Some(w.expand(env).getOrElse(
        throw new IllegalArgumentException(s"redirection to a dynamic target: $w")))
      case ws       => throw new IllegalArgumentException(s"several redirections: $ws")
    }
}
