package repro.cmds

import scala.collection.mutable.ArrayBuffer
import scala.util.control.ControlThrowable

/** One front end for GNU `grep`'s patterns, and the lazy DFA that runs the
  * subset it can.
  *
  * [[LineDfa.parse]] reads a POSIX BRE (plain `grep`) or ERE (`grep -E`)
  * once and yields it in two forms: a syntax tree, when the pattern is in
  * the DFA's subset (literals, `.`, bracket expressions with ranges and
  * `^` negation, groups, `|`, `*`, `+`, `?`, and `^`/`$` at the pattern's
  * ends), and `java.util.regex` text with the same meaning for every
  * pattern. Both forms follow `java.util.regex` without flags where POSIX
  * leaves room: `.` and `$` treat `\r`, `\u0085`, U+2028 and U+2029
  * as line terminators, and `-i` folds ASCII letters only. Stacked
  * quantifiers collapse to the one they mean (`a+*` is `a*`, as in GNU).
  *
  * A [[LineDfa]] is Thompson's construction (CACM 1968): the tree becomes
  * an NFA, and DFA states (sets of NFA nodes) are built on first use, each
  * with a 128-entry transition array for ASCII; a non-ASCII char is
  * stepped without caching. Its cache is mutable: build one per task and
  * never share it between threads.
  */
object LineDfa {

  /** Cap on the DFA states one automaton builds; past it, [[LineDfa.run]]
    * answers -1 and the caller falls back to `java.util.regex`. */
  val MaxStates = 1000

  // ====================================================== syntax tree

  sealed trait Re
  case object Empty extends Re
  final case class Lit(c: Char) extends Re
  case object Dot extends Re
  /** A bracket expression: sorted, merged ranges `lo(k)..hi(k)` packed as
    * `ranges(2k), ranges(2k+1)`. */
  final case class Bracket(ranges: Vector[Char], negated: Boolean) extends Re
  final case class Cat(rs: List[Re]) extends Re
  final case class Alt(rs: List[Re]) extends Re
  final case class Star(r: Re) extends Re
  final case class Plus(r: Re) extends Re
  final case class Opt(r: Re) extends Re

  /** A parsed pattern: its tree and end anchors when it is in the DFA's
    * subset, and its `java.util.regex` text. */
  final case class Parsed(tree: Option[Re], bol: Boolean, eol: Boolean, java: String) {

    /** The pattern's text when it matches only itself: no anchor, no
      * operator, no class. */
    def literal: Option[String] =
      if (bol || eol) None
      else tree.flatMap {
        case Empty    => Some("")
        case Lit(c)   => Some(c.toString)
        case Cat(rs)  => if (rs.forall(_.isInstanceOf[Lit])) Some(rs.collect { case Lit(c) => c }.mkString) else None
        case _        => None
      }
  }

  // =========================================================== tokens

  private sealed trait Tok
  private final case class TLit(c: Char) extends Tok
  private case object TDot extends Tok
  private final case class TSet(b: Bracket, java: String) extends Tok
  /** `( ) | * + ? ^ $` where they are operators. */
  private final case class TOp(c: Char) extends Tok
  /** Outside the DFA's subset: a back-reference, an interval, a GNU escape
    * or a `[:class:]` bracket, as `java.util.regex` text. */
  private final case class TRaw(java: String) extends Tok

  private val posixClasses = Map("alpha" -> "Alpha", "digit" -> "Digit", "alnum" -> "Alnum",
    "upper" -> "Upper", "lower" -> "Lower", "space" -> "Space", "blank" -> "Blank",
    "punct" -> "Punct", "print" -> "Print", "graph" -> "Graph", "cntrl" -> "Cntrl",
    "xdigit" -> "XDigit")

  private[cmds] def isAsciiLetter(c: Char): Boolean = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

  /** `c` as `java.util.regex` text, in or out of a class: ASCII letters as
    * they are, other ASCII as `\x{..}`, the rest as they are (so a
    * surrogate pair stays one code point). */
  private def quote(c: Char): String =
    if (isAsciiLetter(c) || c >= 128) c.toString else f"\\x{${c.toInt}%x}"

  private def bad(msg: String) = new IllegalArgumentException(s"grep: $msg")

  /** Tokens of `p`, read as an ERE or a BRE. In a BRE, `+ ? | ( ) { }` are
    * literal and `\+ \? \| \( \) \{ \}` are GNU's operators; `*` is
    * literal where it has nothing to repeat, `^` is an anchor only where
    * an expression starts and `$` only where one ends. In an ERE a
    * quantifier with nothing to repeat is dropped, and `)` with no open
    * group and a `{` that opens no interval are literal, as in GNU. */
  private def lex(p: String, ere: Boolean): Vector[Tok] = {
    val out   = ArrayBuffer.empty[Tok]
    var depth = 0
    var i     = 0
    def afterOpen = out.isEmpty || out.last == TOp('(') || out.last == TOp('|')
    def nothingToRepeat = afterOpen || out.last == TOp('^')
    def breEnd(j: Int) = j == p.length || p.startsWith("\\)", j) || p.startsWith("\\|", j)
    def quant(q: Char): Unit = out.lastOption match {
      case Some(TOp(q0)) if "*+?".indexOf(q0) >= 0 =>
        // (x{a,b}){c,d} is x{ac,bd}: only `?` on `?` keeps the bound 1
        out(out.length - 1) = TOp(if (q0 == '+' && q == '+') '+' else if (q0 == '?' && q == '?') '?' else '*')
      case _ if nothingToRepeat => if (!ere) out += TLit(q)
      case _                    => out += TOp(q)
    }
    def open(): Unit = { depth += 1; out += TOp('(') }
    def close(): Unit =
      if (depth > 0) { depth -= 1; out += TOp(')') }
      else if (ere) out += TLit(')')
      else throw bad("Unmatched ) or \\)")
    /** `{m}`, `{m,}`, `{,n}` or `{m,n}` from `j` (past the `{`), closed by
      * `close`; the index past it and the Java text, or `None`. */
    def interval(j: Int, close: String): Option[(Int, String)] = {
      var k = j
      while (k < p.length && p.charAt(k).isDigit) k += 1
      val m = p.substring(j, k)
      val (n, comma) =
        if (k < p.length && p.charAt(k) == ',') {
          val s = k + 1; k = s
          while (k < p.length && p.charAt(k).isDigit) k += 1
          (p.substring(s, k), true)
        } else ("", false)
      if (!p.startsWith(close, k) || (m.isEmpty && n.isEmpty)) None
      else {
        if (m.nonEmpty && n.nonEmpty && n.toInt < m.toInt) throw bad("Invalid content of \\{\\}")
        val java = if (comma) s"{${if (m.isEmpty) "0" else m},$n}" else s"{$m}"
        Some((k + close.length, java))
      }
    }
    def repeat(j: Int, close: String): Unit = interval(j, close) match {
      case Some((next, java)) =>
        if (!nothingToRepeat) out += TRaw(java) else if (!ere) throw bad("Invalid preceding regular expression")
        i = next
      case None =>
        if (ere) { out += TLit('{'); i = j } else throw bad("Unmatched \\{")
    }
    while (i < p.length) {
      val c = p.charAt(i)
      if (c == '\\') {
        if (i + 1 >= p.length) throw bad("Trailing backslash")
        val e = p.charAt(i + 1)
        i += 2
        e match {
          case '(' if !ere              => open()
          case ')' if !ere              => close()
          case '|' if !ere              => out += TOp('|')
          case '+' | '?' if !ere        => quant(e)
          case '{' if !ere              => repeat(i, "\\}")
          case d if d >= '1' && d <= '9' => out += TRaw(s"\\$d")
          case 'w' | 'W' | 's' | 'S' | 'b' | 'B' => out += TRaw(s"\\$e")
          case '<'                      => out += TRaw("\\b(?=\\w)")
          case '>'                      => out += TRaw("\\b(?<=\\w)")
          case _                        => out += TLit(e) // `\.`, `\*`, ... and GNU's stray `\`
        }
      } else {
        i += 1
        c match {
          case '['                    => i = bracket(p, i, out)
          case '.'                    => out += TDot
          case '*'                    => quant('*')
          case '+' | '?' if ere       => quant(c)
          case '{' if ere             => repeat(i, "}")
          case '(' if ere             => open()
          case ')' if ere             => close()
          case '|' if ere             => out += TOp('|')
          case '^' if ere || afterOpen => out += TOp('^')
          case '$' if ere || breEnd(i) => out += TOp('$')
          case _                      => out += TLit(c)
        }
      }
    }
    if (depth > 0) throw bad("Unmatched ( or \\(")
    out.toVector
  }

  /** A bracket expression whose `[` ends before `from`; appends its token
    * and returns the index past its `]`. A leading `]` is literal, and a
    * backslash is literal inside. */
  private def bracket(p: String, from: Int, out: ArrayBuffer[Tok]): Int = {
    var j       = from
    val negated = j < p.length && p.charAt(j) == '^'
    if (negated) j += 1
    val ranges  = ArrayBuffer.empty[(Char, Char)]
    val classes = ArrayBuffer.empty[String]
    var first   = true
    while (j < p.length && (first || p.charAt(j) != ']')) {
      first = false
      if (p.charAt(j) == '[' && j + 1 < p.length && ":=.".indexOf(p.charAt(j + 1)) >= 0) {
        val kind = p.charAt(j + 1)
        val end  = p.indexOf(s"$kind]", j + 2)
        if (end < 0) throw bad("Unmatched [")
        val name = p.substring(j + 2, end)
        if (kind == ':') classes += posixClasses.getOrElse(name, throw bad(s"invalid character class $name"))
        else if (name.length == 1) ranges += ((name.charAt(0), name.charAt(0)))
        else throw bad(s"invalid collating element $name")
        j = end + 2
      } else {
        val lo = p.charAt(j)
        if (j + 2 < p.length && p.charAt(j + 1) == '-' && p.charAt(j + 2) != ']') {
          val hi = p.charAt(j + 2)
          if (hi < lo) throw bad("Invalid range end")
          ranges += ((lo, hi)); j += 3
        } else { ranges += ((lo, lo)); j += 1 }
      }
    }
    if (j >= p.length) throw bad("Unmatched [")
    val java = ranges.map { case (lo, hi) => if (lo == hi) quote(lo) else s"${quote(lo)}-${quote(hi)}" }
      .mkString(if (negated) "[^" else "[", "", classes.map(n => s"\\p{$n}").mkString + "]")
    out += (if (classes.nonEmpty) TRaw(java) else TSet(Bracket(merge(ranges.toSeq), negated), java))
    j + 1
  }

  private def merge(rs: Seq[(Char, Char)]): Vector[Char] =
    rs.sortBy(_._1).foldLeft(List.empty[(Char, Char)]) {
      case ((lo0, hi0) :: done, (lo, hi)) if lo <= hi0 + 1 => (lo0, hi0 max hi) :: done
      case (done, r) => r :: done
    }.reverse.flatMap { case (lo, hi) => List(lo, hi) }.toVector

  private def javaText(t: Tok): String = t match {
    case TLit(c)      => quote(c)
    case TDot         => "."
    case TSet(_, j)   => j
    case TOp(c)       => c.toString
    case TRaw(j)      => j
  }

  // =========================================================== parser

  private object NotInSubset extends ControlThrowable

  /** `alt := cat ('|' cat)*`, `cat := rep*`, `rep := atom quantifier?`,
    * `atom := literal | '.' | bracket | '(' alt ')'`; anything else
    * (a [[TRaw]], an anchor inside) throws [[NotInSubset]]. */
  private final class TreeParser(ts: Vector[Tok]) {
    private var i = 0
    def all(): Re = { val r = alt(); if (i != ts.length) throw NotInSubset; r }
    private def alt(): Re = {
      val alts = ArrayBuffer(cat())
      while (i < ts.length && ts(i) == TOp('|')) { i += 1; alts += cat() }
      if (alts.length == 1) alts.head else Alt(alts.toList)
    }
    private def cat(): Re = {
      val items = ArrayBuffer.empty[Re]
      while (i < ts.length && ts(i) != TOp('|') && ts(i) != TOp(')')) rep() match {
        case Cat(rs) => items ++= rs
        case Empty   => ()
        case r       => items += r
      }
      if (items.isEmpty) Empty else if (items.length == 1) items.head else Cat(items.toList)
    }
    private def rep(): Re = {
      val a = atom()
      if (i < ts.length) ts(i) match {
        case TOp('*') => i += 1; Star(a)
        case TOp('+') => i += 1; Plus(a)
        case TOp('?') => i += 1; Opt(a)
        case _        => a
      } else a
    }
    private def atom(): Re = {
      val t = ts(i)
      i += 1
      t match {
        case TLit(c)    => Lit(c)
        case TDot       => Dot
        case TSet(b, _) => b
        case TOp('(')   =>
          val r = alt()
          if (i >= ts.length || ts(i) != TOp(')')) throw NotInSubset
          i += 1; r
        case _          => throw NotInSubset
      }
    }
  }

  /** Read `p` as an ERE (`ere`) or a BRE. Throws IllegalArgumentException
    * where GNU `grep` reports a syntax error. */
  def parse(p: String, ere: Boolean): Parsed = {
    val toks = lex(p, ere)
    val bol  = toks.headOption.contains(TOp('^'))
    val body = toks.drop(if (bol) 1 else 0)
    val eol  = body.lastOption.contains(TOp('$'))
    val core = if (eol) body.dropRight(1) else body
    // `^a|b` anchors only `a`: end anchors apply to the whole pattern only without a top-level `|`
    val topAlt = core.scanLeft(0) {
      case (d, TOp('(')) => d + 1
      case (d, TOp(')')) => d - 1
      case (d, _)        => d
    }.zip(core).exists { case (d, t) => d == 0 && t == TOp('|') }
    val tree =
      if ((bol || eol) && topAlt) None
      else try Some(new TreeParser(core).all()) catch { case NotInSubset => None }
    Parsed(tree, bol, eol, toks.map(javaText).mkString)
  }

  // ====================================================== char sets

  /** Membership in sorted, merged ranges (see [[Bracket]]), complemented
    * when `negated`; under `fold` an ASCII letter is in the set when either
    * of its cases is, before complementing (`java.util.regex`'s
    * `CASE_INSENSITIVE`). */
  final class CharSet(ranges: Array[Char], negated: Boolean, fold: Boolean) extends Serializable {
    private def inRanges(c: Char): Boolean = {
      var k = 0
      while (k < ranges.length) {
        if (c < ranges(k)) return false
        if (c <= ranges(k + 1)) return true
        k += 2
      }
      false
    }
    def contains(c: Char): Boolean =
      (inRanges(c) || (fold && isAsciiLetter(c) && inRanges((c ^ 0x20).toChar))) != negated
  }

  /** `.` of `java.util.regex`: anything but a line terminator. */
  private val dotRanges = Array('\n', '\n', '\r', '\r', '\u0085', '\u0085', '\u2028', '\u2029')

  /** Whether `java.util.regex`'s `$` (no flags) holds at `i`: at the end,
    * or before a final line terminator (`\r\n` counting as one). */
  private def dollarAt(l: String, i: Int): Boolean = {
    val n = l.length
    if (i == n) true
    else if (i == n - 2) l.charAt(i) == '\r' && l.charAt(i + 1) == '\n'
    else if (i == n - 1) l.charAt(i) match {
      case '\n'                                    => i == 0 || l.charAt(i - 1) != '\r'
      case '\r' | '\u0085' | '\u2028' | '\u2029' => true
      case _                                       => false
    }
    else false
  }

  /** Longest pattern given a [[LineDfa]]: each of its NFA nodes must fit in
    * one `char` of a state's key. */
  val MaxPatternLength = 16384

  /** The automaton for a tree: under `exact` (`grep -x`) the whole line
    * must match; otherwise a match must start at 0 under `bol` and end
    * where `$` holds under `eol`. */
  def apply(re: Re, fold: Boolean, exact: Boolean, bol: Boolean, eol: Boolean): LineDfa =
    new LineDfa(re, fold, anchored = exact || bol, exact = exact, eol = eol && !exact)
}

/** A lazy DFA over one line; see the companion. Not thread-safe. */
final class LineDfa private (re: LineDfa.Re, fold: Boolean, anchored: Boolean,
                             exact: Boolean, eol: Boolean) extends Serializable {
  import LineDfa._

  // ---------------------------------------------------- Thompson NFA
  // A node is a char node (`sets(n) != null`, one edge `out1(n)`), an
  // epsilon split (edges `out1(n)` and `out2(n)`), or the match node.

  private val nodeSets = ArrayBuffer.empty[CharSet]
  private val nodeOut1 = ArrayBuffer.empty[Int]
  private val nodeOut2 = ArrayBuffer.empty[Int]
  private def node(set: CharSet, o1: Int, o2: Int): Int = {
    nodeSets += set; nodeOut1 += o1; nodeOut2 += o2
    nodeSets.length - 1
  }
  private val matchNode = node(null, -1, -1)

  /** Entry node of `r` followed by `next`. */
  private def build(r: Re, next: Int): Int = r match {
    case Empty          => next
    case Lit(c)         => node(new CharSet(Array(c, c), false, fold), next, -1)
    case Dot            => node(new CharSet(dotRanges, true, false), next, -1)
    case Bracket(rs, n) => node(new CharSet(rs.toArray, n, fold), next, -1)
    case Cat(rs)        => rs.foldRight(next)(build)
    case Alt(rs)        => rs.map(build(_, next)).reduceRight(node(null, _, _))
    case Opt(x)         => node(null, build(x, next), next)
    case Star(x)        => val s = node(null, -1, next); nodeOut1(s) = build(x, s); s
    case Plus(x)        => val s = node(null, -1, next); val b = build(x, s); nodeOut1(s) = b; b
  }
  private val startNode = build(re, matchNode)

  private val sets = nodeSets.toArray
  private val out1 = nodeOut1.toArray
  private val out2 = nodeOut2.toArray

  // ---------------------------------------------------- lazy subsets

  private val mark  = new Array[Int](sets.length) // == gen: already in the set being built
  private var gen   = 0
  private val stack = new Array[Int](2 * sets.length + 1) // a split pushes two
  private val acc   = new Array[Int](sets.length)
  private var accN  = 0

  /** Adds the epsilon closure of `n` (its char and match nodes) to `acc`. */
  private def close(n0: Int): Unit = {
    var sp = 0
    stack(sp) = n0; sp += 1
    while (sp > 0) {
      sp -= 1
      val n = stack(sp)
      if (n >= 0 && mark(n) != gen) {
        mark(n) = gen
        if (n == matchNode || sets(n) != null) { acc(accN) = n; accN += 1 }
        else { stack(sp) = out2(n); sp += 1; stack(sp) = out1(n); sp += 1 }
      }
    }
  }

  private val states   = ArrayBuffer.empty[Array[Int]] // NFA node sets, sorted
  private val index    = new java.util.HashMap[String, Integer]
  private var accepts  = new Array[Boolean](16)
  private var trans    = Array.fill(16 * 128)(-1)
  private var isFull   = false

  /** Whether the automaton reached [[LineDfa.MaxStates]]. */
  def full: Boolean = isFull

  /** The state for the nodes in `acc`, made if new; -1 past the cap. */
  private def intern(): Int = {
    val set = java.util.Arrays.copyOf(acc, accN)
    java.util.Arrays.sort(set)
    val key = new String(set.map(_.toChar))
    val known = index.get(key)
    if (known != null) known
    else if (states.length >= MaxStates) { isFull = true; -1 }
    else {
      val s = states.length
      states += set
      index.put(key, s)
      if (s >= accepts.length) {
        accepts = java.util.Arrays.copyOf(accepts, accepts.length * 2)
        val t = Array.fill(trans.length * 2)(-1)
        System.arraycopy(trans, 0, t, 0, trans.length)
        trans = t
      }
      accepts(s) = set.contains(matchNode)
      s
    }
  }

  private def startSet(): Unit = { gen += 1; accN = 0; close(startNode) }
  startSet()
  private val start = intern()
  private val startNodes = states(start)
  gen += 1; accN = 0
  /** The empty set: no match can follow (reached only when anchored). */
  private val dead = if (anchored) intern() else -2
  /** Whether the first accepting state decides the line; if so, a table
    * entry that leads to an accepting state is [[Accept]], and one that
    * leads to `dead` is [[Dead]], so the loop tests one value per char. */
  private val firstMatch = !exact && !eol
  private final val Accept = -2
  private final val Dead   = -3

  /** The state after `s` reads `c`; unanchored, the start closure is
    * added back at every step. -1 past the cap. */
  private def step(s: Int, c: Char): Int = {
    gen += 1; accN = 0
    val from = states(s)
    var k = 0
    while (k < from.length) {
      val n = from(k)
      if (n != matchNode && sets(n).contains(c)) close(out1(n))
      k += 1
    }
    if (!anchored) { k = 0; while (k < startNodes.length) { close(startNodes(k)); k += 1 } }
    val t = intern()
    if (t >= 0 && c < 128)
      trans(s * 128 + c) = if (!firstMatch) t else if (accepts(t)) Accept else if (t == dead) Dead else t
    t
  }

  /** The state after `s` reads `c`: the table's, or [[step]]'s; -1 for
    * a surrogate or past the cap. */
  private def next(s: Int, c: Char): Int =
    if (c < 128) { val t = trans(s * 128 + c); if (t >= 0) t else step(s, c) }
    else if (Character.isSurrogate(c)) -1
    else step(s, c)

  /** 1 if the line matches, 0 if not, -1 if this automaton cannot tell
    * (it reached the cap, or the line holds a surrogate, which
    * `java.util.regex` reads as part of one code point). */
  def run(line: String): Int = {
    val n = line.length
    var s = start
    var i = 0
    if (exact || eol) { // the match must end at the end, or where `$` holds
      while (true) {
        if (accepts(s) && (if (exact) i == n else i >= n - 2 && dollarAt(line, i))) return 1
        if (i == n || s == dead) return 0
        s = next(s, line.charAt(i))
        if (s < 0) return -1
        i += 1
      }
      0
    } else { // any match will do: the first accepting state
      if (accepts(s)) return 1
      while (i < n) {
        val c = line.charAt(i)
        var t = if (c < 128) trans(s * 128 + c) else -1
        if (t < 0) {
          if (t == Accept) return 1
          if (t == Dead) return 0
          t = next(s, c)
          if (t < 0) return -1
          if (accepts(t)) return 1
          if (t == dead) return 0
        }
        s = t
        i += 1
      }
      0
    }
  }
}
