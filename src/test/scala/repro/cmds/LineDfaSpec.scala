package repro.cmds

import java.util.regex.Pattern
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.bench.Scripts
import repro.core.Dfg.CmdOp
import repro.core.Frontend

/** `grep`'s matcher choice and the lazy DFA against `java.util.regex`:
  * on every pattern in the DFA's subset the two agree line for line, and
  * every `grep` of the evaluation scripts runs without `java.util.regex`. */
class LineDfaSpec extends AnyFunSuite {
  import LineDfaSpec._

  private def grep(p: String, ere: Boolean = true, icase: Boolean = false,
                   exact: Boolean = false, invert: Boolean = false): GrepMatch =
    GrepMatch(p, ere, icase, exact, invert)

  test("the matcher is chosen from the pattern and flags") {
    assert(grep("the").path == "literal")
    assert(grep("a+b", ere = false).path == "literal") // a BRE `+` is literal
    assert(grep("999", icase = true).path == "literal")
    assert(grep("the", icase = true).path == "dfa")
    assert(grep("(th|t|h)+e").path == "dfa")
    assert(grep("^a.c$").path == "dfa")
    assert(grep("^a|b").path == "regex") // `^` anchors only one alternative
    assert(grep("(a)\\1").path == "regex")
    assert(grep("a{2}").path == "regex")
    assert(grep("[[:alpha:]]").path == "regex")
  }

  test("every grep of the evaluation scripts runs on the literal or DFA path") {
    val greps = for {
      b       <- Scripts.all
      g       <- Frontend.compile(b.script).regions
      CmdOp(r) <- g.nodes.values.map(_.op) if r.name == "grep"
    } yield (b.name, r)
    assert(greps.size >= 15, greps)
    greps.foreach { case (name, r) =>
      val path = GrepMatch(r).path
      assert(path == "literal" || path == "dfa", s"$name: ${r.args.mkString(" ")} runs on $path")
    }
  }

  test("stacked quantifiers mean what GNU makes of them") {
    val in = List("", "a", "aa", "b")
    def keeps(p: String) = in.filter(grep(p, exact = true).matches)
    assert(keeps("a+*") == List("", "a", "aa"))
    assert(keeps("a??") == List("", "a"))
    assert(keeps("a++") == List("a", "aa"))
    assert(keeps("a*?") == List("", "a", "aa"))
  }

  test("$ holds where java.util.regex's does; surrogates and the state cap fall back") {
    val m = grep("b$")
    assert(List("ab", "ab\n", "ab\r\n", "ab\r", "a\nb").forall(m.matches))
    assert(!List("ab\n\n", "abc", "ab\n\r").exists(m.matches))
    val astral = "x😀y"
    assert(grep("x.y").matches(astral) == Pattern.compile("x.y").matcher(astral).find())
    assert(grep("x[^a]y").matches(astral))
    // (a|b)*a(a|b)^k needs 2^(k+1) states: k = 12 passes the cap
    val blowup = "(a|b)*a" + "(a|b)" * 12
    val lines  = (0 until 300).map(i => Integer.toBinaryString(i * 7919 + 4096).map(c => if (c == '1') 'a' else 'b'))
    val dfa    = grep(blowup)
    val ref    = Pattern.compile(blowup)
    assert(dfa.path == "dfa")
    assert(lines.forall(l => dfa.matches(l) == ref.matcher(l).find()))
    val raw = LineDfa(LineDfa.parse(blowup, ere = true).tree.get,
                      fold = false, exact = false, bol = false, eol = false)
    assert(lines.map(raw.run).contains(-1) && raw.full)
  }

  private val params = Test.Parameters.default
    .withInitialSeed(Seed(19680601L)).withMinSuccessfulTests(800).withWorkers(1)

  test("property: the DFA and the BRE front end equal java.util.regex") {
    var onDfa   = 0
    var decided = 0
    var gaveUp  = 0
    val res = Test.check(params, Prop.forAll(genPattern, genMode, genLines) {
      case ((ere, bre), (icase, exact, invert), lines) =>
        val flags = if (icase) Pattern.CASE_INSENSITIVE else 0
        val ref   = Pattern.compile(ere, flags)
        val viaE  = grep(ere, icase = icase, exact = exact, invert = invert)
        val viaB  = grep(bre, ere = false, icase = icase, exact = exact, invert = invert)
        // the java.util.regex text each front end falls back to
        val javaE = Pattern.compile(LineDfa.parse(ere, ere = true).java, flags)
        val javaB = Pattern.compile(LineDfa.parse(bre, ere = false).java, flags)
        if (viaE.path == "dfa") onDfa += 1
        lines.forall { l =>
          (javaMatch(ref, l, exact), javaMatch(javaE, l, exact), javaMatch(javaB, l, exact)) match {
            case (Some(want), Some(e), Some(b)) =>
              decided += 1
              e == want && b == want &&
              viaE.matches(l) == (want != invert) && viaB.matches(l) == (want != invert)
            case _ => gaveUp += 1; true
          }
        } :| s"ERE $ere, BRE $bre, -i $icase -x $exact -v $invert"
    })
    assert(res.passed, res.status.toString)
    assert(onDfa > res.succeeded / 2, s"only $onDfa of ${res.succeeded} patterns ran on the DFA")
    assert(gaveUp * 50 < decided, s"java.util.regex gave up on $gaveUp lines, decided $decided")
  }
}

object LineDfaSpec {

  /** One piece of a pattern, written as an ERE and as the same BRE. */
  private final case class Piece(ere: String, bre: String) {
    def +(o: Piece) = Piece(ere + o.ere, bre + o.bre)
  }

  private val genLit: Gen[Piece] = Gen.oneOf(
    List("a", "b", "t", "h", "T", "e", "0", "5", " ", ":", "-", "é", "中").map(c => Piece(c, c)) ++
    List(Piece("\\.", "\\."), Piece("\\*", "\\*"), Piece("\\(", "("), Piece("\\+", "+"),
         Piece("\\|", "|"), Piece("\\?", "?"), Piece("\\{", "{")))

  /** Bracket items that mean the same to POSIX and `java.util.regex`. */
  private val genBracket: Gen[Piece] = for {
    neg   <- Gen.oneOf("", "^")
    items <- Gen.choose(1, 3).flatMap(Gen.listOfN(_, Gen.oneOf("a-c", "x", "A-Z", "0-9", "é-ü", " ", ".", "*", "h")))
  } yield { val b = items.mkString(s"[$neg", "", "]"); Piece(b, b) }

  private val genAtom: Gen[Piece] =
    Gen.frequency(6 -> genLit, 2 -> Gen.const(Piece(".", ".")), 2 -> genBracket)

  private val genQuant: Gen[Piece] =
    Gen.frequency(4 -> Piece("", ""), 1 -> Piece("*", "*"), 1 -> Piece("+", "\\+"), 1 -> Piece("?", "\\?"))

  private def genAlt(depth: Int): Gen[Piece] = {
    val piece = for {
      a <- if (depth == 0) genAtom
           else Gen.frequency(4 -> genAtom, 1 -> genAlt(depth - 1).map(g => Piece(s"(${g.ere})", s"\\(${g.bre}\\)")))
      q <- genQuant
    } yield a + q
    val cat = Gen.choose(1, 4).flatMap(Gen.listOfN(_, piece)).map(_.reduce(_ + _))
    Gen.frequency(3 -> cat, 1 -> Gen.choose(2, 3).flatMap(Gen.listOfN(_, cat))
      .map(cs => Piece(cs.map(_.ere).mkString("|"), cs.map(_.bre).mkString("\\|"))))
  }

  /** (ERE, BRE) forms of one pattern, with `^`/`$` at its ends at times. */
  val genPattern: Gen[(String, String)] = for {
    body <- genAlt(2)
    bol  <- Gen.frequency(5 -> "", 1 -> "^")
    eol  <- Gen.frequency(5 -> "", 1 -> "$")
  } yield (bol + body.ere + eol, bol + body.bre + eol)

  /** (-i, -x, -v) */
  val genMode: Gen[(Boolean, Boolean, Boolean)] =
    Gen.zip(Gen.prob(0.25), Gen.prob(0.3), Gen.prob(0.2))

  private val chars = "abtheTH05 :-.*(+|?{é中\n\r"

  /** Up to 24 chars: longer lines let more nested quantifiers outrun
    * [[javaMatch]]'s budget. */
  val genLine: Gen[String] = Gen.oneOf(
    Gen.choose(0, 24).flatMap(Gen.listOfN(_, Gen.oneOf(chars.toVector))).map(_.mkString),
    Gen.zip(Gen.oneOf(chars.toVector), Gen.choose(0, 24)).map { case (c, n) => c.toString * n },
    Gen.oneOf("", "the", "theth", "hte", "a(b", "T+H"))

  val genLines: Gen[List[String]] = Gen.choose(1, 20).flatMap(Gen.listOfN(_, genLine))

  private object GaveUp extends RuntimeException(null, null, false, false)

  /** A line that `java.util.regex` may read `budget` chars of. */
  private final class Budgeted(l: String, private var budget: Int) extends CharSequence {
    def charAt(i: Int): Char = { budget -= 1; if (budget < 0) throw GaveUp; l.charAt(i) }
    def length: Int = l.length
    def subSequence(from: Int, to: Int): CharSequence = l.subSequence(from, to)
    override def toString: String = l
  }

  /** `find()`, or `matches()` under `exact`; `None` once the matcher has
    * read 200k chars: some nested quantifiers make `java.util.regex`
    * backtrack exponentially in the line's length. */
  def javaMatch(p: Pattern, l: String, exact: Boolean): Option[Boolean] =
    try {
      val m = p.matcher(new Budgeted(l, 200000))
      Some(if (exact) m.matches() else m.find())
    } catch { case GaveUp => None }
}
