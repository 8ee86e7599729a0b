package repro.cmds

import java.util.regex.{Matcher, Pattern}
import repro.core.Annotations.Resolved

/** `grep`'s line predicate, chosen once per kernel instance from the
  * pattern and the flags alone:
  *  - a pattern that matches only its own text runs `indexOf` (`==` under
  *    `-x`); under `-i`, only when it has no ASCII letter;
  *  - a pattern in [[LineDfa]]'s subset runs on a lazy DFA;
  *  - anything else runs on `java.util.regex`, one `Matcher` reused
  *    through `reset`;
  *  - several patterns (`-e a -e b`) each run their own, and a line
  *    matches if any of them does.
  * The DFA and the `Matcher` are mutable: build a predicate in the task
  * that uses it, and never share it between threads.
  */
sealed abstract class GrepMatch(invert: Boolean) extends Serializable {
  /** Whether `grep` prints `line`. */
  final def matches(line: String): Boolean = test(line) != invert
  /** The pattern alone, before `-v`. */
  private[cmds] def test(line: String): Boolean
  /** `literal`, `dfa` or `regex`; `any(…)` of those for several patterns. */
  def path: String
}

object GrepMatch {

  /** The flags the `grep` kernels implement; `-c` is the counting kernel's. */
  val Flags: Set[String] = Set("-E", "-e", "-i", "-v", "-x", "-c")

  /** The predicate of a resolved `grep`; IllegalArgumentException for a
    * flag outside `implemented`. */
  def apply(r: Resolved, implemented: Set[String] = Flags): GrepMatch = {
    val unknown = r.flags -- implemented
    if (unknown.nonEmpty)
      throw new IllegalArgumentException(s"grep: unsupported flags ${unknown.toList.sorted.mkString(" ")}")
    val patterns = r.vals.getOrElse("-e", r.operands.take(1))
    def one(p: String, invert: Boolean) =
      apply(p, ere = r.flags("-E"), icase = r.flags("-i"), exact = r.flags("-x"), invert = invert)
    patterns match {
      case Nil      => throw new IllegalArgumentException("grep: no pattern")
      case p :: Nil => one(p, r.flags("-v"))
      case ps       => new AnyOf(ps.map(one(_, invert = false)), r.flags("-v"))
    }
  }

  def apply(pattern: String, ere: Boolean, icase: Boolean, exact: Boolean,
            invert: Boolean): GrepMatch = {
    val parsed = LineDfa.parse(pattern, ere)
    parsed.literal.filter(l => !icase || !l.exists(LineDfa.isAsciiLetter)) match {
      case Some(l) => new Literal(l, exact, invert)
      case None =>
        val regex = new Regex(Pattern.compile(parsed.java, if (icase) Pattern.CASE_INSENSITIVE else 0),
                              exact, invert)
        parsed.tree match {
          case Some(t) if pattern.length <= LineDfa.MaxPatternLength =>
            new Dfa(LineDfa(t, fold = icase, exact = exact, bol = parsed.bol, eol = parsed.eol), regex, invert)
          case _ => regex
        }
    }
  }

  final class Literal(text: String, exact: Boolean, invert: Boolean) extends GrepMatch(invert) {
    private[cmds] def test(line: String): Boolean =
      if (exact) line == text else line.indexOf(text) >= 0
    def path = "literal"
  }

  /** Runs `dfa`, and `regex` for a line the DFA cannot decide and for every
    * line once the DFA is full. */
  final class Dfa(dfa: LineDfa, regex: Regex, invert: Boolean) extends GrepMatch(invert) {
    private[cmds] def test(line: String): Boolean = {
      val r = if (dfa.full) -1 else dfa.run(line)
      if (r >= 0) r == 1 else regex.test(line)
    }
    def path = "dfa"
  }

  final class AnyOf(parts: List[GrepMatch], invert: Boolean) extends GrepMatch(invert) {
    private[cmds] def test(line: String): Boolean = parts.exists(_.test(line))
    def path = parts.map(_.path).mkString("any(", ",", ")")
  }

  final class Regex(pattern: Pattern, exact: Boolean, invert: Boolean) extends GrepMatch(invert) {
    @transient private var m: Matcher = _
    private[cmds] def test(line: String): Boolean = {
      if (m == null) m = pattern.matcher(line) else m.reset(line)
      if (exact) m.matches() else m.find()
    }
    def path = "regex"
  }
}
