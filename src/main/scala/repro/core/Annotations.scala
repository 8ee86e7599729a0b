package repro.core

/** PaSh's lightweight annotation language (§3.2).
  *
  * An [[Annotation]] describes one command: a list of [[Clause]]s, each
  * guarded by a predicate over the command's flags (concern C3), assigning a
  * parallelizability class (C1) and the ordered inputs (C2); output is
  * stdout. The first matching clause wins; anything no record describes is
  * the [[opaque]] (E) node.
  */
object Annotations {

  // ------------------------------------------------------------ predicates

  /** Predicate over the invocation's flag set — the paper's 6-operator
    * language: flag presence, ∧, ∨, ¬, ⊤, and a regex over raw args. */
  sealed trait Pred {
    def eval(flags: Set[String], args: List[String]): Boolean = this match {
      case Flag(f)       => flags.contains(f)
      case AndP(a, b)    => a.eval(flags, args) && b.eval(flags, args)
      case OrP(a, b)     => a.eval(flags, args) || b.eval(flags, args)
      case NotP(a)       => !a.eval(flags, args)
      case Always        => true
      case ArgMatch(re)  => args.exists(_.matches(re))
    }
    def &&(other: Pred): Pred = AndP(this, other)
    def ||(other: Pred): Pred = OrP(this, other)
    def unary_! : Pred        = NotP(this)
  }
  final case class Flag(f: String)      extends Pred
  final case class AndP(a: Pred, b: Pred) extends Pred
  final case class OrP(a: Pred, b: Pred)  extends Pred
  final case class NotP(a: Pred)        extends Pred
  case object Always                    extends Pred
  final case class ArgMatch(re: String) extends Pred

  // -------------------------------------------------------------- io specs

  /** Symbolic reference to a stream position, resolved against operands. */
  sealed trait IoRef
  case object StdinRef                extends IoRef
  /** i-th operand (non-flag argument), 0-based. */
  final case class OperandRef(i: Int) extends IoRef
  /** Operand files from index `i` on (earlier operands are arguments, e.g.
    * grep's pattern or sed's script); stdin if none — `OperandsFrom(0)` is
    * the UNIX filter convention. */
  final case class OperandsFrom(i: Int) extends IoRef

  /** An input slot: `static` inputs are configuration read in full before
    * the streaming input (e.g. `comm -13 dict -`'s first file). */
  final case class In(ref: IoRef, static: Boolean = false)

  /** How a command reads its streaming file operands, as GNU does. */
  sealed trait FileOperands
  object FileOperands {
    /** As one concatenated stream: the filter convention, where the
      * frontend's t1 inserts a `cat` (`cat`, `sort`, `cut`, `sed`, …). */
    case object Concat extends FileOperands
    /** As separate ordered inputs (`comm`, `join`, `paste`, `diff`). */
    case object Separate extends FileOperands
    /** At most one: GNU prints per-file output for more (`grep`'s name
      * prefixes, `head`'s headers, `tac` file by file), and `uniq`'s
      * second operand is its output file. */
    case object AtMostOne extends FileOperands
    /** None: GNU names a file operand in its output (`wc`, `sha1sum`),
      * or acts on it in place (`gunzip`). */
    case object StdinOnly extends FileOperands
  }

  // --------------------------------------------------------------- clauses

  /** One clause of an annotation record. `agg` names the aggregator used to
    * merge partial outputs when `cls == Pure` (None ⇒ not parallelizable in
    * practice even though pure). */
  final case class Clause(
      pred: Pred,
      cls: PClass,
      inputs: List[In],
      agg: Option[String] = None,
  )

  /** Full annotation record for one command. */
  final case class Annotation(
      name: String,
      clauses: List[Clause],
      /** Flags that consume the following argument (e.g. `-n 5`). */
      valueFlags: Set[String] = Set.empty,
      /** `stdin-hyphen`: operand `-` denotes stdin. */
      stdinHyphen: Boolean = false,
      /** `short-combined`: `-13` means `-1 -3`. */
      shortCombined: Boolean = false,
      /** Higher-order commands (xargs): class comes from the invoked cmd. */
      higherOrder: Boolean = false,
      files: FileOperands = FileOperands.Concat,
  ) {

    /** Split raw args into (flag set, flag → its values in order, operands). */
    def splitArgs(args: List[String]): (Set[String], Map[String, List[String]], List[String]) = {
      val flags    = Set.newBuilder[String]
      val vals     = List.newBuilder[(String, String)]
      val operands = List.newBuilder[String]
      var rest = args
      while (rest.nonEmpty) {
        val a = rest.head
        rest = rest.tail
        if (a == "-" && stdinHyphen) operands += a
        else if (a.startsWith("--")) {
          val f = a.takeWhile(_ != '=')
          flags += f
          if (a.contains('=')) vals += f -> a.dropWhile(_ != '=').drop(1)
        } else if (a.startsWith("-") && a.length > 1) {
          if (valueFlags.contains(a.take(2))) {
            val f = a.take(2)
            flags += f
            // value either glued (-n1) or separate (-n 1)
            if (a.length > 2) vals += f -> a.drop(2)
            else if (rest.nonEmpty) { vals += f -> rest.head; rest = rest.tail }
          } else if (shortCombined) {
            a.drop(1).foreach(c => flags += s"-$c")
          } else flags += a
        } else operands += a
      }
      (flags.result(), vals.result().groupMap(_._1)(_._2), operands.result())
    }

    /** Resolve the matching clause for an invocation; [[opaque]] if none
      * matches. */
    def resolve(args: List[String]): Resolved = {
      val (flags, vals, operands) = splitArgs(args)
      def stream(f: String, static: Boolean): StreamSpec =
        if (f == "-" && stdinHyphen) StreamSpec.Std else StreamSpec.File(f, static)
      def refToStreams(in: In): List[StreamSpec] = in.ref match {
        case StdinRef      => List(StreamSpec.Std)
        case OperandRef(i) =>
          List(operands.lift(i).fold[StreamSpec](StreamSpec.Std)(stream(_, in.static)))
        case OperandsFrom(i) =>
          val files = operands.drop(i)
          if (files.isEmpty) List(StreamSpec.Std) else files.map(stream(_, in.static))
      }
      clauses.find(_.pred.eval(flags, args)) match {
        case Some(c) =>
          Resolved(name, args, c.cls, c.inputs.flatMap(refToStreams), c.agg, flags,
                   operands, vals, files)
        case None => opaque(name, args)
      }
    }
  }

  /** The one node for an invocation no record describes: side-effectful,
    * reading stdin, never parallelized (§4.1's conservative default). It
    * keeps no flags, so no kernel can run it. */
  def opaque(name: String, args: List[String]): Resolved =
    Resolved(name, args, PClass.SideEffectful, List(StreamSpec.Std), None, Set.empty, Nil,
             opaque = true)

  /** Concrete stream endpoint after resolving operand references. */
  sealed trait StreamSpec
  object StreamSpec {
    /** stdin — wired to the previous pipeline stage. */
    case object Std extends StreamSpec
    final case class File(path: String, static: Boolean) extends StreamSpec
  }

  /** The resolved view of one command invocation: everything later phases
    * know about it. `vals` holds every value of each value flag, in order
    * (`grep -e a -e b`); `flagVals` the last one, as GNU reads a repeated
    * `head -n`. `inner` is a higher-order command's invoked command.
    * `stdinFile` says stdin is a regular file (`cmd < f`), not a pipe. */
  final case class Resolved(
      name: String,
      args: List[String],
      cls: PClass,
      inputs: List[StreamSpec],
      agg: Option[String],
      flags: Set[String],
      operands: List[String],
      vals: Map[String, List[String]] = Map.empty,
      files: FileOperands = FileOperands.Concat,
      inner: Option[Resolved] = None,
      opaque: Boolean = false,
      stdinFile: Boolean = false,
  ) {
    def flagVals: Map[String, String] = vals.map { case (f, vs) => f -> vs.last }
  }
}
