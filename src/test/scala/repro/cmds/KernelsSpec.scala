package repro.cmds

import java.util.regex.Pattern
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.bench.{Scripts, SynthText}
import repro.core.{AnnotationLib, Frontend, PClass}
import repro.core.Annotations.Resolved
import repro.core.Dfg.CmdOp
import repro.cmds.Kernels.Ctx

/** Unit semantics of every command kernel (hand-computed expectations),
  * and properties that the table-driven and decorate-once kernels equal
  * the straightforward regex/`Set`/comparator definitions in [[KernelsRef]]. */
class KernelsSpec extends AnyFunSuite {

  private val ctx = Ctx(Nil, _ => Vector.empty)

  private def run(name: String, args: List[String], in: Vector[String],
                  statics: List[Vector[String]] = Nil,
                  fetch: String => Vector[String] = _ => Vector.empty): Vector[String] = {
    val r = AnnotationLib.resolve(name, args)
    Kernels.whole(r)(Ctx(statics, fetch))(List(in))
  }

  // ------------------------------------------------------------------ tr

  test("tr range translation") {
    assert(run("tr", List("A-Z", "a-z"), Vector("HeLLo", "X")) == Vector("hello", "x"))
  }
  test("tr -s squeezes repeats of the set") {
    assert(run("tr", List("-s", " "), Vector("a   b  c")) == Vector("a b c"))
  }
  test("tr -d deletes set members") {
    assert(run("tr", List("-d", "aeiou"), Vector("education")) == Vector("dctn"))
  }
  test("tr -cs complement-translate splits words onto lines") {
    assert(run("tr", List("-cs", "A-Za-z", "\\n"), Vector("foo, bar!! baz")) ==
      Vector("foo", "bar", "baz"))
  }
  test("tr set expansion handles multiple ranges") {
    assert(Kernels.expandSet("a-cx0-2") == "abcx012")
  }

  // ---------------------------------------------------------------- grep

  test("grep keeps matching lines") {
    assert(run("grep", List("gz"), Vector("a.gz", "b.txt", "c.gz.d")) ==
      Vector("a.gz", "c.gz.d"))
  }
  test("grep -v inverts") {
    assert(run("grep", List("-v", "x"), Vector("ax", "b")) == Vector("b"))
  }
  test("grep -i ignores case") {
    assert(run("grep", List("-i", "foo"), Vector("FOO", "bar")) == Vector("FOO"))
  }
  test("grep -iv combined") {
    assert(run("grep", List("-iv", "999"), Vector("0999", "123")) == Vector("123"))
  }
  test("grep -x exact line match") {
    assert(run("grep", List("-x", "the"), Vector("the", "then")) == Vector("the"))
  }
  test("grep -c counts matches") {
    assert(run("grep", List("-c", "a"), Vector("ab", "b", "za")) == Vector("2"))
  }
  test("grep -E regex alternation") {
    assert(run("grep", List("-E", "(th|t|h)+e"), Vector("the end", "zzz")) ==
      Vector("the end"))
  }
  test("grep without -E reads a BRE: + ? | ( ) { } are literal") {
    // expected outputs are `LC_ALL=C grep`'s
    val in = Vector("aab", "a+b", "xy", "x(y)", "ab", "a|b", "a{2}", "aa")
    assert(run("grep", List("a+b"), in) == Vector("a+b"))
    assert(run("grep", List("x(y)"), in) == Vector("x(y)"))
    assert(run("grep", List("a|b"), in) == Vector("a|b"))
    assert(run("grep", List("a{2}"), in) == Vector("a{2}"))
    assert(run("grep", List("-E", "a+b"), in) == Vector("aab", "ab"))
    assert(run("grep", List("-E", "x(y)"), in) == Vector("xy"))
    assert(run("grep", List("-E", "a|b"), in) == in.filter(l => l.contains('a') || l.contains('b')))
  }
  test("grep BRE: GNU's \\( \\) \\| \\+ \\? \\{ \\} are operators") {
    val in = Vector("aab", "a+b", "xy", "x(y)", "b", "ab", "aa")
    assert(run("grep", List("a\\+b"), in) == Vector("aab", "ab"))
    assert(run("grep", List("x\\(y\\)"), in) == Vector("xy"))
    assert(run("grep", List("-x", "a\\|b"), in) == Vector("b"))
    assert(run("grep", List("-x", "a\\{2\\}"), in) == Vector("aa"))
    assert(run("grep", List("-x", "\\(a\\)\\1"), in) == Vector("aa")) // back-reference: java.util.regex
  }
  test("grep BRE: * with nothing to repeat, ^ and $ inside are literal") {
    val in = Vector("*a", "a", "a^b", "a$b", "ab")
    assert(run("grep", List("*a"), in) == Vector("*a"))
    assert(run("grep", List("a^b"), in) == Vector("a^b"))
    assert(run("grep", List("a$b"), in) == Vector("a$b"))
    assert(run("grep", List("^a$"), in) == Vector("a"))
    assert(run("grep", List("-E", "a$|^\\*"), in) == Vector("*a", "a"))
  }
  test("grep brackets: leading ], ranges, negation, -i folding") {
    val in = Vector("]", "a", "B", "-", "z9")
    assert(run("grep", List("[]a]"), in) == Vector("]", "a"))
    assert(run("grep", List("-x", "[^]a]"), in) == Vector("B", "-"))
    assert(run("grep", List("-i", "[a-b]"), in) == Vector("a", "B"))
    assert(run("grep", List("-ix", "[^a]"), in) == Vector("]", "B", "-"))
    assert(run("grep", List("[[:digit:]]"), in) == Vector("z9"))
  }
  test("grep rejects flags it does not implement") {
    intercept[IllegalArgumentException](run("grep", List("-w", "a"), Vector("a")))
  }

  // ----------------------------------------------------------------- cut

  test("cut -c character range") {
    assert(run("cut", List("-c", "89-92"),
      Vector("x" * 88 + " 123trail")) == Vector(" 123"))
  }
  test("cut -c open range") {
    assert(run("cut", List("-c", "3-"), Vector("abcdef")) == Vector("cdef"))
  }
  test("cut -d -f field selection") {
    assert(run("cut", List("-d", " ", "-f", "9"),
      Vector("a b c d e f g h iii j")) == Vector("iii"))
  }
  test("cut -d: -f1 glued") {
    assert(run("cut", List("-d:", "-f1"), Vector("name: rest")) == Vector("name"))
  }
  test("cut lines without delimiter pass through") {
    assert(run("cut", List("-d", ":", "-f", "2"), Vector("nodelim")) == Vector("nodelim"))
  }
  test("cut field list with commas") {
    assert(run("cut", List("-d", ",", "-f", "1,3"), Vector("a,b,c,d")) == Vector("a,c"))
  }

  // ----------------------------------------------------------------- sed

  test("sed substitution first occurrence") {
    assert(run("sed", List("s/a/X/"), Vector("banana")) == Vector("bXnana"))
  }
  test("sed global substitution") {
    assert(run("sed", List("s/a/X/g"), Vector("banana")) == Vector("bXnXnX"))
  }
  test("sed anchors and alternate delimiter") {
    assert(run("sed", List("s;^;pre/;"), Vector("x")) == Vector("pre/x"))
  }
  test("sed & references the whole match") {
    assert(run("sed", List("s/an/[&]/"), Vector("banana")) == Vector("b[an]ana"))
  }
  test("sed -n Np prints only line N") {
    assert(run("sed", List("-n", "2p"), Vector("a", "b", "c")) == Vector("b"))
  }

  // ---------------------------------------------------------------- sort

  test("sort lexicographic") {
    assert(run("sort", Nil, Vector("b", "a", "c")) == Vector("a", "b", "c"))
  }
  test("sort -n numeric") {
    assert(run("sort", List("-n"), Vector("10", "9", "  2")) == Vector("  2", "9", "10"))
  }
  test("sort -rn reverse numeric") {
    assert(run("sort", List("-rn"), Vector("1", "100", "42")) == Vector("100", "42", "1"))
  }
  test("sort -u dedups") {
    assert(run("sort", List("-u"), Vector("b", "a", "b")) == Vector("a", "b"))
    // under -n or -k, lines whose keys tie are equal: the first in input order stays (GNU)
    assert(run("sort", List("-nu"), Vector("1 b", "1 a", "2 c")) == Vector("1 b", "2 c"))
    assert(run("sort", List("-u", "-k2"), Vector("x 1", "y 1")) == Vector("x 1"))
    assert(run("sort", List("-nu"), Vector("-0", "0")) == Vector("-0"))
  }
  test("sort -k 2 sorts on the second field") {
    assert(run("sort", List("-k", "2"), Vector("x b", "y a")) == Vector("y a", "x b"))
  }
  test("sort -n ties fall back to whole line") {
    assert(run("sort", List("-n"), Vector("7 b", "7 a")) == Vector("7 a", "7 b"))
    assert(run("sort", List("-n"), Vector("-0", " 0")) == Vector(" 0", "-0")) // -0 == 0
  }

  // --------------------------------------------------------- uniq and wc

  test("uniq collapses adjacent duplicates only") {
    assert(run("uniq", Nil, Vector("a", "a", "b", "a")) == Vector("a", "b", "a"))
  }
  test("uniq -c counts") {
    assert(run("uniq", List("-c"), Vector("a", "a", "b")) ==
      Vector("      2 a", "      1 b"))
  }
  test("wc -l counts lines") {
    assert(run("wc", List("-l"), Vector("a", "b", "c")) == Vector("3"))
  }
  test("wc -lw counts lines and words") {
    assert(run("wc", List("-lw"), Vector("a b", "c")) == Vector("      2       3"))
  }
  test("wc default prints l w c") {
    assert(run("wc", Nil, Vector("ab cd")) == Vector("      1       2       6"))
  }

  // ------------------------------------------------- head/tail/tac/nl/cat

  test("head -n") {
    assert(run("head", List("-n", "2"), Vector("a", "b", "c")) == Vector("a", "b"))
  }
  test("head default is 10") {
    assert(run("head", Nil, (1 to 20).map(_.toString).toVector).size == 10)
  }
  test("tail -n") {
    assert(run("tail", List("-n", "2"), Vector("a", "b", "c")) == Vector("b", "c"))
  }
  test("tail -n +2 drops the first line") {
    assert(run("tail", List("-n", "+2"), Vector("a", "b", "c")) == Vector("b", "c"))
  }
  test("tac reverses") {
    assert(run("tac", Nil, Vector("a", "b")) == Vector("b", "a"))
  }
  test("nl numbers lines") {
    assert(run("nl", Nil, Vector("x")) == Vector("     1\tx"))
  }
  test("cat -n numbers lines") {
    assert(run("cat", List("-n"), Vector("x", "y")) ==
      Vector("     1\tx", "     2\ty"))
  }

  // ---------------------------------------------------------------- comm

  test("comm -13: lines unique to the second input") {
    val r = AnnotationLib.resolve("comm", List("-13", "dict", "-"))
    val out = Kernels.whole(r)(Ctx(List(Vector("apple", "pear")), _ => Vector.empty))(
      List(Vector("apple", "zebra")))
    assert(out == Vector("zebra"))
  }
  test("comm full merge with tabs") {
    val r = AnnotationLib.resolve("comm", List("a", "b"))
    val out = Kernels.whole(r)(Ctx(Nil, _ => Vector.empty))(
      List(Vector("a", "b"), Vector("b", "c")))
    assert(out == Vector("a", "\t\tb", "\tc"))
  }

  // ----------------------------------------------------- awk/join/paste

  test("awk print field") {
    assert(run("awk", List("{print $2}"), Vector("a b c")) == Vector("b"))
  }
  test("awk print two fields") {
    assert(run("awk", List("{print $2, $1}"), Vector("a b")) == Vector("b a"))
  }
  test("awk sum") {
    assert(run("awk", List("{s+=$1} END {print s}"), Vector("1", "2", "4")) ==
      Vector("7"))
  }
  test("awk -F custom separator") {
    assert(run("awk", List("-F", ",", "{print $2}"), Vector("a,b,c")) == Vector("b"))
  }
  test("join on first field") {
    val r = AnnotationLib.resolve("join", List("a", "b"))
    val out = Kernels.whole(r)(ctx)(List(Vector("k1 x", "k2 y"), Vector("k2 z")))
    assert(out == Vector("k2 y z"))
  }
  test("paste zips with tab") {
    val r = AnnotationLib.resolve("paste", List("a", "b"))
    val out = Kernels.whole(r)(ctx)(List(Vector("1", "2"), Vector("x", "y")))
    assert(out == Vector("1\tx", "2\ty"))
  }

  // ------------------------------------------------------ xargs and misc

  test("xargs -n 1 curl fetches per line") {
    val fetch = (u: String) => Vector(s"<$u>")
    assert(run("xargs", List("-n", "1", "curl", "-s"), Vector("u1", "u2"),
      fetch = fetch) == Vector("<u1>", "<u2>"))
  }
  test("xargs -n 1 wc -l counts per file") {
    val fetch = (f: String) => Vector.fill(if (f == "a") 3 else 5)("l")
    assert(run("xargs", List("-n", "1", "wc", "-l"), Vector("a", "b"),
      fetch = fetch) == Vector("3 a", "5 b"))
  }
  test("xargs grep keeps the inner grep's flags") {
    val fetch = (f: String) => Vector(s"x in $f", s"y in $f")
    assert(run("xargs", List("-n", "1", "grep", "-v", "x"), Vector("a", "b"), fetch = fetch) ==
      Vector("y in a", "y in b"))
    assert(run("xargs", List("-n", "1", "grep", "-E", "-x", "(x|z) in a"), Vector("a", "b"),
      fetch = fetch) == Vector("x in a"))
    // two files in one batch: GNU prefixes each line with its file
    assert(run("xargs", List("grep", "-i", "Y"), Vector("a", "b"), fetch = fetch) ==
      Vector("a:y in a", "b:y in b"))
    intercept[IllegalArgumentException](
      run("xargs", List("-n", "1", "grep", "-c", "x"), Vector("a"), fetch = fetch))
  }
  test("xargs file reports script type") {
    val fetch = (f: String) => if (f == "s.sh") Vector("#!/bin/sh", "x")
                               else Vector("data")
    assert(run("xargs", List("file"), Vector("s.sh", "d.txt"), fetch = fetch) ==
      Vector("s.sh: POSIX shell script, ASCII text executable",
             "d.txt: ASCII text"))
  }
  test("gunzip strips the synthetic member marker") {
    assert(run("gunzip", Nil, Vector("GZ:payload")) == Vector("payload"))
  }
  test("rev reverses characters") {
    assert(run("rev", Nil, Vector("abc")) == Vector("cba"))
  }
  test("fold wraps long lines") {
    assert(run("fold", List("-w", "2"), Vector("abcde")) == Vector("ab", "cd", "e"))
  }
  test("sha1sum is deterministic, one line") {
    val a = run("sha1sum", Nil, Vector("x", "y"))
    val b = run("sha1sum", Nil, Vector("x", "y"))
    assert(a == b && a.size == 1 && a.head.endsWith("  -"))
  }
  test("diff of equal inputs is empty") {
    val r = AnnotationLib.resolve("diff", List("a", "b"))
    assert(Kernels.whole(r)(ctx)(List(Vector("x"), Vector("x"))).isEmpty)
  }
  test("diff marks sides") {
    // expected outputs are GNU diff's on the same two files
    val r = AnnotationLib.resolve("diff", List("a", "b"))
    def diff(a: String*)(b: String*) = Kernels.whole(r)(ctx)(List(a.toVector, b.toVector))
    assert(diff("x", "q")("x", "z") == Vector("2c2", "< q", "---", "> z"))
    assert(diff("a", "b")("a", "x", "y", "b") == Vector("1a2,3", "> x", "> y"))
    assert(diff("a", "b", "c", "d")("a", "d") == Vector("2,3d1", "< b", "< c"))
  }
  test("html-to-text strips tags") {
    assert(run("html-to-text", Nil,
      Vector("<p>hello <b>world</b></p>", "<script>x</script>")) == Vector("hello world"))
  }
  test("url-extract pulls hrefs") {
    assert(run("url-extract", Nil,
      Vector("""<a href="http://x">a</a> <a href="http://y">b</a>""")) ==
      Vector("http://x", "http://y"))
  }
  test("word-stem strips suffixes") {
    assert(run("word-stem", Nil, Vector("Running", "boxes", "cat")) ==
      Vector("runn", "box", "cat"))
  }
  test("trim-adapter cuts at the adapter motif") {
    assert(run("trim-adapter", Nil, Vector("ACGTAGATCGGAAGAGCTTT")) == Vector("ACGT"))
  }

  // ------------------------------------------------------- serialization

  test("built kernels of every evaluation script survive Java serialization") {
    val ctx     = Ctx(List(Vector("a", "the")), KernelsSpec.fetch)
    val records = (for {
      b        <- Scripts.all
      g        <- Frontend.compile(b.script).regions
      CmdOp(r) <- g.nodes.values.map(_.op)
    } yield r).distinct
    val sample = (0L until 40L).map(SynthText.textLine(7)).toVector
    def out[A](f: => A) = scala.util.Try(f).toEither.left.map(_.getClass)
    records.foreach { r =>
      val whole  = Kernels.whole(r)(ctx)
      val whole2 = KernelsSpec.roundTrip(whole)
      List(List(sample), List(sample, sample.reverse)).foreach { in =>
        assert(out(whole2(in)) == out(whole(in)), r.args)
      }
      // executors build a per-line kernel for (S) nodes only
      Kernels.stateless(r).filter(_ => r.cls == PClass.Stateless).map(_(ctx)).foreach { f =>
        val f2 = KernelsSpec.roundTrip(f)
        assert(sample.map(l => out(f2(l))) == sample.map(l => out(f(l))), r.args)
      }
    }
    assert(records.size > 60)
  }

  // ------------------------------------------------------------ misc fns

  test("numPrefix parses leading numbers") {
    assert(Kernels.numPrefix("  42 rest") == 42.0)
    assert(Kernels.numPrefix("-3.5x") == -3.5)
    assert(Kernels.numPrefix("abc") == 0.0)
  }
  test("parseUniqC round-trips the format") {
    assert(Kernels.parseUniqC("      7 the line") == ((7L, "the line")))
  }
  test("parseRanges handles all forms") {
    assert(Kernels.parseRanges("1,3-5,-2,7-") ==
      List((1, 1), (3, 5), (1, 2), (7, Int.MaxValue)))
  }

  // ------------------------------------------- reference equivalence

  import KernelsSpec._

  private val params = Test.Parameters.default
    .withInitialSeed(Seed(20211026L)).withMinSuccessfulTests(400).withWorkers(1)

  private def check(p: Prop): Unit = {
    val res = Test.check(params, p)
    assert(res.passed, res.status.toString)
  }

  private def whole(r: Resolved, in: Vector[String]) = Kernels.whole(r)(ctx)(List(in))

  test("property: numPrefix equals the regex definition") {
    check(Prop.forAll(genLine)(l =>
      java.lang.Double.compare(Kernels.numPrefix(l), KernelsRef.numPrefix(l)) == 0))
  }
  test("property: field splits equal split(\\s+) and split(Pattern.quote)") {
    check(Prop.forAll(genLine, Gen.oneOf(':', ',', ' ', '\t', 'é')) { (l, c) =>
      Kernels.blankFields(l).toList == l.trim.split("\\s+").toList &&
      Kernels.splitOn(l, c).toList == l.split(Pattern.quote(c.toString), -1).toList
    })
  }
  test("property: tr tables equal the Set[Char] definition") {
    check(Prop.forAll(genTrArgs, genLines) { (args, in) =>
      val r = AnnotationLib.resolve("tr", args)
      whole(r, in) == in.flatMap(KernelsRef.trLine(r))
    })
  }
  test("property: cut field scan equals split(Pattern.quote)") {
    check(Prop.forAll(genCutArgs, genLines) { (args, in) =>
      val r = AnnotationLib.resolve("cut", args)
      whole(r, in) == in.flatMap(KernelsRef.cutLine(r))
    })
  }
  test("property: wc -w and grep -c count like split and filter") {
    check(Prop.forAll(genLines, Gen.oneOf(KernelsRef.gnuGrep.keys.toSeq)) { (in, pat) =>
      whole(AnnotationLib.resolve("wc", List("-w")), in) ==
        Vector(in.map(KernelsRef.wordCount).sum.toString) &&
      whole(AnnotationLib.resolve("grep", List("-c", pat)), in) ==
        Vector(in.count(KernelsRef.gnuGrep(pat)).toString)
    })
  }
  test("property: uniq -c and its aggregator equal the %7d %s definition") {
    val r = AnnotationLib.resolve("uniq", List("-c"))
    check(Prop.forAll(genRuns, genCuts) { (in, cuts) =>
      val out   = whole(r, in)
      val parts = cutInto(in, cuts).map(whole(r, _))
      out == KernelsRef.uniqC(in) &&
      out.forall(l => Kernels.parseUniqC(l) == KernelsRef.parseUniqC(l)) &&
      Kernels.aggN("uniq-c", r, parts) == KernelsRef.aggUniqC(parts)
    })
  }
  test("property: sort and sort -m equal today's comparator and Timsort merge") {
    check(Prop.forAll(genSortArgs, genRuns, genCuts) { (args, in, cuts) =>
      val r     = AnnotationLib.resolve("sort", args)
      val parts = cutInto(in, cuts).map(whole(r, _))
      whole(r, in) == KernelsRef.sort(r)(in) &&
      Kernels.aggN("sort-m", r, parts) == KernelsRef.sort(r)(parts.flatten.toVector)
    })
  }
  test("property: the plain sort of a few distinct lines, run by run, equals today's comparator") {
    check(Prop.forAll(Gen.someOf("-r", "-u"), genRepeats, genCuts) { (flags, in, cuts) =>
      val r     = AnnotationLib.resolve("sort", flags.toList)
      val parts = cutInto(in, cuts).map(whole(r, _))
      whole(r, in) == KernelsRef.sort(r)(in) &&
      Kernels.aggN("sort-m", r, parts) == KernelsRef.sort(r)(parts.flatten.toVector)
    })
  }
  test("sort falls back to every line when the lines its sample skips are distinct") {
    // the sample reads every fourth line, all `a`; the other lines are distinct
    val in = Vector.tabulate(4096)(i => if (i % 4 == 0) "a" else s"l$i")
    List(Nil, List("-u"), List("-r")).foreach { flags =>
      val r = AnnotationLib.resolve("sort", flags)
      assert(whole(r, in) == KernelsRef.sort(r)(in), flags)
    }
  }
}

object KernelsSpec {

  /** A serializable store: every file is a two-line shell script. */
  val fetch: String => Vector[String] = f => Vector("#!/bin/sh", s"echo $f")

  def roundTrip[A](a: A): A = {
    val bytes = new java.io.ByteArrayOutputStream
    val out   = new java.io.ObjectOutputStream(bytes)
    out.writeObject(a); out.close()
    new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
      .readObject().asInstanceOf[A]
  }

  /** Lines built from tokens that stress each kernel's edge cases: blanks,
    * tabs, control characters, signs, `.5`, a lone `-`, empty lines,
    * 16+-digit numbers and non-ASCII letters and digits. */
  private val tokens = Vector("", " ", "  ", "\t", "\u0001", "\u000b", "\f", "\r",
    "\u001f", "\n", "-", "+", ".", ".5", "-.5", "5.", "-0", "0", "007", "12", "-3.25",
    "1e3", "12345678901234567", "99999999999999999.5", "abc", "Zeta", "a", "b", ":",
    ",", "é", "中", "\u0663", "ß")

  val genLine: Gen[String] = Gen.oneOf(
    Gen.choose(0, 6).flatMap(Gen.listOfN(_, Gen.oneOf(tokens))).map(_.mkString),
    Gen.choose(0, 12).flatMap(Gen.listOfN(_, Gen.oneOf(tokens.flatten))).map(_.mkString))

  val genLines: Gen[Vector[String]] =
    Gen.choose(0, 30).flatMap(Gen.listOfN(_, genLine)).map(_.toVector)

  /** Lines in runs of 1–3 equal lines, for `uniq -c` and `sort -u`. */
  val genRuns: Gen[Vector[String]] =
    Gen.choose(0, 20).flatMap(Gen.listOfN(_, Gen.zip(genLine, Gen.choose(1, 3))))
      .map(_.toVector.flatMap { case (l, n) => Vector.fill(n)(l) })

  /** Up to 1,200 lines drawn from 1–5 lines: far fewer distinct lines than
    * a quarter of them, past the plain sort's sample of 1,024 at times. */
  val genRepeats: Gen[Vector[String]] = for {
    pool <- Gen.choose(1, 5).flatMap(Gen.listOfN(_, genLine))
    n    <- Gen.choose(0, 1200)
    ls   <- Gen.listOfN(n, Gen.oneOf(pool))
  } yield ls.toVector

  val genCuts: Gen[List[Int]] = Gen.choose(0, 4).flatMap(Gen.listOfN(_, Gen.choose(0, 60)))

  def cutInto(v: Vector[String], cuts: List[Int]): List[Vector[String]] = {
    val bounds = 0 :: cuts.map(_ min v.size).sorted ::: List(v.size)
    bounds.zip(bounds.tail).map { case (a, b) => v.slice(a, b) }
  }

  private val genFlags: Gen[List[String]] =
    Gen.someOf("c", "s", "d").map(fs => if (fs.isEmpty) Nil else List(fs.mkString("-", "", "")))

  private val genSet: Gen[String] =
    Gen.choose(1, 3).flatMap(Gen.listOfN(_, Gen.oneOf("a-z", "A-Z", "0-9", " ", "\\n",
      "\\t", ":", "é", "x", "-", ".", "\u0001"))).map(_.mkString).map(s =>
      if (s.startsWith("-")) "x" + s else s)

  val genTrArgs: Gen[List[String]] = for {
    flags <- genFlags
    set1  <- genSet
    set2  <- Gen.option(genSet)
  } yield flags ++ (set1 :: set2.toList)

  private val genRanges: Gen[String] = Gen.choose(1, 3).flatMap(Gen.listOfN(_,
    Gen.oneOf(
      Gen.choose(1, 6).map(_.toString),
      Gen.zip(Gen.choose(1, 6), Gen.choose(1, 6)).map { case (a, b) => s"$a-$b" },
      Gen.choose(1, 6).map(b => s"-$b"),
      Gen.choose(1, 6).map(a => s"$a-")))).map(_.mkString(","))

  val genCutArgs: Gen[List[String]] = Gen.oneOf(
    genRanges.map(rs => List("-c", rs)),
    for {
      d  <- Gen.oneOf(":", ",", " ", "\t", "é", ".")
      rs <- genRanges
      s  <- Gen.oneOf(List("-s"), Nil)
    } yield s ++ List("-d", d, "-f", rs))

  val genSortArgs: Gen[List[String]] = for {
    flags <- Gen.someOf("-n", "-r", "-u")
    key   <- Gen.option(Gen.oneOf(
               Gen.choose(1, 3).map(_.toString),
               Gen.zip(Gen.choose(1, 3), Gen.choose(1, 4)).map { case (a, b) => s"$a,$b" }))
    sep   <- Gen.option(Gen.oneOf(":", ",", " ", "\t"))
  } yield flags.toList ++ key.toList.flatMap(k => List("-k", k)) ++
          sep.toList.flatMap(t => List("-t", t))
}

/** Kernel definitions as they stood before the table-driven rewrite: one
  * regex, `Set` or comparator call per line or per comparison. */
object KernelsRef {

  def numPrefix(s: String): Double = {
    val m = Pattern.compile("^\\s*(-?[0-9]+(\\.[0-9]*)?)").matcher(s)
    if (m.find()) m.group(1).toDouble else 0.0
  }

  def trLine(r: Resolved): String => Seq[String] = {
    val comp    = r.flags.contains("-c")
    val squeeze = r.flags.contains("-s")
    val delete  = r.flags.contains("-d")
    val set1    = Kernels.expandSet(r.operands.headOption.getOrElse(""))
    val set2    = r.operands.lift(1).map(Kernels.expandSet).getOrElse("")
    val in1     = set1.toSet
    line => {
      val sb = new StringBuilder
      var last: Int = -1
      line.foreach { ch =>
        val member = in1.contains(ch) ^ comp
        if (delete) {
          if (!member) sb += ch
        } else if (set2.nonEmpty && member) {
          val mapped =
            if (comp) set2.last
            else set2.charAt(math.min(set1.indexOf(ch), set2.length - 1))
          if (!(squeeze && last == mapped.toInt)) sb += mapped
          last = mapped.toInt
        } else if (squeeze && set2.isEmpty && member) {
          if (last != ch.toInt) sb += ch
          last = ch.toInt
        } else { sb += ch; last = -1 }
      }
      val out = sb.toString
      if (out.contains('\n')) out.split("\n", -1).toSeq.filter(_.nonEmpty)
      else Seq(out)
    }
  }

  def cutLine(r: Resolved): String => Seq[String] =
    if (r.flagVals.contains("-c")) {
      val ranges = Kernels.parseRanges(r.flagVals("-c"))
      line => Seq(ranges.map { case (a, b) =>
        val from = math.min(a - 1, line.length)
        val to   = math.min(b, line.length)
        if (from < to) line.substring(from, to) else ""
      }.mkString)
    } else {
      val delim  = r.flagVals.getOrElse("-d", "\t").headOption.getOrElse('\t')
      val ranges = Kernels.parseRanges(r.flagVals.getOrElse("-f", "1"))
      val onlyDelimited = r.flags.contains("-s")
      line =>
        if (!line.contains(delim)) { if (onlyDelimited) Seq.empty else Seq(line) }
        else {
          val fields = line.split(Pattern.quote(delim.toString), -1)
          val keep = fields.zipWithIndex.collect {
            case (f, i) if ranges.exists { case (a, b) => i + 1 >= a && i + 1 <= b } => f
          }
          Seq(keep.mkString(delim.toString))
        }
    }

  /** GNU `wc -w` in the C locale: the blank-separated pieces that hold a
    * printable ASCII char. */
  def wordCount(l: String): Long =
    l.split("[ \t\n\u000b\f\r]+").count(_.exists(c => c > ' ' && c < '\u007f')).toLong

  /** What `LC_ALL=C grep PATTERN` (a BRE) keeps, written out by hand: `?`
    * and `|` are literal, `\\s` is `[[:space:]]`, `$` ends the line. On
    * [[KernelsSpec.genLine]]'s lines (whose only line terminators are `\\n`
    * and `\\r`, themselves spaces) `$` agrees with `java.util.regex`'s. */
  val gnuGrep: Map[String, String => Boolean] = Map(
    "a"        -> (_.contains('a')),
    "^-?[0-9]" -> (l => l.startsWith("-?") && l.length > 2 && l.charAt(2) >= '0' && l.charAt(2) <= '9'),
    "\\s$"     -> (l => l.nonEmpty && " \t\n\u000b\f\r".indexOf(l.last) >= 0),
    "é|中"     -> (_.contains("é|中")))

  def uniqC(v: Vector[String]): Vector[String] = {
    val out = Vector.newBuilder[String]
    var cur: Option[String] = None
    var n = 0
    def flush(): Unit = cur.foreach(l => out += "%7d %s".format(n, l))
    v.foreach { l =>
      if (cur.contains(l)) n += 1
      else { flush(); cur = Some(l); n = 1 }
    }
    flush()
    out.result()
  }

  def parseUniqC(line: String): (Long, String) = {
    val t = line.dropWhile(_ == ' ')
    val n = t.takeWhile(_.isDigit)
    (n.toLong, t.drop(n.length + 1))
  }

  def aggUniqC(parts: List[Vector[String]]): Vector[String] = {
    val out = Vector.newBuilder[String]
    var prev: Option[(Long, String)] = None
    parts.foreach(_.foreach { line =>
      val (c, l) = parseUniqC(line)
      prev match {
        case Some((cp, lp)) if lp == l => prev = Some((cp + c, l))
        case Some((cp, lp)) => out += "%7d %s".format(cp, lp); prev = Some((c, l))
        case None => prev = Some((c, l))
      }
    })
    prev.foreach { case (c, l) => out += "%7d %s".format(c, l) }
    out.result()
  }

  /** `v.sorted` (stable) under the per-comparison comparator, then the `-u`
    * fold, which keeps the first of each equal run; on concatenated sorted
    * parts this is also the Timsort `sort -m`. */
  def sort(r: Resolved): Vector[String] => Vector[String] = {
    val numeric = r.flags.contains("-n")
    val sep     = r.flagVals.get("-t").flatMap(_.headOption)
    val keySpec = r.flagVals.get("-k").map { spec =>
      spec.split(',') match {
        case Array(a)    => (a.takeWhile(_.isDigit).toInt, Int.MaxValue)
        case Array(a, b) => (a.takeWhile(_.isDigit).toInt, b.takeWhile(_.isDigit).toInt)
        case _           => (1, Int.MaxValue)
      }
    }
    def fields(line: String): Array[String] = sep match {
      case Some(c) => line.split(Pattern.quote(c.toString), -1)
      case None    => line.trim.split("\\s+")
    }
    def keyOf(line: String): String = keySpec match {
      case None => line
      case Some((a, b)) =>
        val fs = fields(line)
        fs.slice(a - 1, if (b == Int.MaxValue) fs.length else b).mkString(" ")
    }
    // GNU: `-u` with `-n` or `-k` drops the whole-line last resort; -0 == 0
    val keyOnly = r.flags.contains("-u") && (numeric || keySpec.isDefined)
    val base: Ordering[String] = (x: String, y: String) => {
      val (kx, ky) = (keyOf(x), keyOf(y))
      val primary =
        if (numeric) { val (a, b) = (numPrefix(kx), numPrefix(ky)); if (a < b) -1 else if (a > b) 1 else 0 }
        else kx.compareTo(ky)
      if (primary != 0 || keyOnly) primary else x.compareTo(y)
    }
    val ord = if (r.flags.contains("-r")) base.reverse else base
    v => {
      val sorted = v.sorted(ord)
      if (!r.flags.contains("-u")) sorted
      else sorted.foldLeft(Vector.empty[String]) { (acc, l) =>
        if (acc.nonEmpty && ord.compare(acc.last, l) == 0) acc else acc :+ l
      }
    }
  }
}
