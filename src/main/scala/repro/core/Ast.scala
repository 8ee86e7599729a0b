package repro.core

/** Shell AST for the POSIX subset PaSh operates on (§2, §4.1).
  *
  * Words are kept partially unevaluated: variable references are expanded
  * by the frontend against a static environment when possible; a word whose
  * expansion is unknown makes the enclosing command non-parallelizable
  * (PaSh's conservative default, §4.1 "Translation Pass").
  */
object Ast {

  /** One token of a command line, possibly containing `$var` references. */
  sealed trait Word {
    /** Expand against `env`; None if any referenced variable is unknown. */
    def expand(env: Map[String, String]): Option[String] = this match {
      case Lit(s)      => Some(s)
      case VarRef(n)   => env.get(n)
      case Concat(ps)  =>
        val es = ps.map(_.expand(env))
        if (es.forall(_.isDefined)) Some(es.flatten.mkString) else None
    }
  }
  final case class Lit(s: String)             extends Word
  final case class VarRef(name: String)       extends Word
  final case class Concat(parts: List[Word])  extends Word

  /** Redirections: `cmd < in`, `cmd > out`. */
  sealed trait Redir { def target: Word }
  final case class RedirIn(target: Word)  extends Redir
  final case class RedirOut(target: Word) extends Redir

  sealed trait Node

  /** Simple command: name, argument words, redirections. */
  final case class Cmd(name: Word, args: List[Word], redirs: List[Redir] = Nil)
      extends Node

  /** `a | b | c` — the unit of task parallelism and our dataflow regions. */
  final case class Pipe(stages: List[Node]) extends Node

  /** `a & b` (parallel composition; both run concurrently). */
  final case class Amp(left: Node, right: Node) extends Node

  /** `a ; b` — a barrier: b starts after a completes. */
  final case class Semi(left: Node, right: Node) extends Node

  /** `a && b` / `a || b` — barriers with conditional continuation. */
  final case class And(left: Node, right: Node) extends Node
  final case class Or(left: Node, right: Node)  extends Node

  /** `x=v` assignment — a barrier that extends the static environment. */
  final case class Assign(name: String, value: Word) extends Node

  /** `for v in w1 w2 ...; do body; done` — iterations are barriers between
    * each other (POSIX semantics), but each body is its own region. */
  final case class For(varName: String, items: List[Word], body: Node) extends Node

  /** `( a )` subshell grouping. */
  final case class Subshell(body: Node) extends Node

  /** Empty program / no-op. */
  case object Noop extends Node
}
