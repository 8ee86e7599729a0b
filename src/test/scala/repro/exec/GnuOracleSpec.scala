package repro.exec

import scala.util.{Failure, Success, Try}

import repro.SparkSpec
import repro.bench.Scripts
import repro.bench.Scripts.ScriptBench
import repro.cmds.Kernels
import repro.core.{AnnotationLib, Frontend, Transform}
import repro.core.Transform.PashConfig
import repro.exec.GnuOracle.{Match, Mismatch, Skipped, Verdict}

/** The paper's claim checked against the real shell: GNU `sh` of each
  * evaluation script equals RefExec of its sequential graph, byte for byte
  * and in order, on the scale-2 inputs. A second table checks width-4
  * SparkExec output against `sh`, where `sh` runs the same pipeline with
  * GNU stand-ins for commands that exist only as our kernels. Unlike the
  * laws and the equivalence suites, this catches a kernel and its
  * aggregator that are wrong in the same way.
  */
class GnuOracleSpec extends SparkSpec {

  private def store(setup: (Store, Int) => Unit): Store = {
    val s = new Store(spark.sparkContext); setup(s, 2); s
  }

  private def sequential(script: String, s: Store): RefExec.Out =
    RefExec.runProgram(Frontend.compile(script).regions, s)

  private def width4(script: String, s: Store): RefExec.Out =
    new SparkExec(spark, s).runProgram(
      Frontend.compile(script).regions.map(Transform.parallelize(_, PashConfig(4))))

  private def assertMatch(v: Verdict): Unit = v match {
    case Match        => ()
    case Mismatch(d)  => fail(d)
    case Skipped(why) => fail(s"skipped: $why")
  }

  test("sh, sort, tr and grep are installed") {
    val missing = List("sh", "sort", "tr", "grep").filterNot(GnuOracle.available)
    assert(missing.isEmpty, s"the GNU oracle needs ${missing.mkString(", ")}")
  }

  Scripts.all.foreach { b =>
    test(s"sh == RefExec: ${b.name}") {
      val s = store(b.setup)
      GnuOracle.check(b.script, s, sequential(b.script, s)) match {
        case Skipped(why) => info(s"skipped: $why")
        case v            => assertMatch(v)
      }
    }
  }

  // GNU sort -u drops lines whose keys tie and keeps the first in input order
  List(
    "cat in.txt | sort -nu"    -> Vector("1 b", "1 a", "2 c"),
    "cat in.txt | sort -u -k2" -> Vector("x 1", "y 1"),
  ).foreach { case (script, in) =>
    test(s"sh == RefExec: $script") {
      val s = new Store(spark.sparkContext).addLines("in.txt", in)
      assertMatch(GnuOracle.check(script, s, sequential(script, s)))
    }
  }

  // without -E a pattern is a BRE: GNU prints only the lines that hold `a+b`, `x(y)`, `a|b`
  List(
    "grep 'a+b'"    -> Vector("a+b"),
    "grep 'x(y)'"   -> Vector("x(y)"),
    "grep 'a|b'"    -> Vector("a|b"),
    "grep -E 'a+b'" -> Vector("aab", "ab"),
    "grep -E 'x(y)'" -> Vector("xy"),
    "grep -E 'a|b'" -> Vector("aab", "a+b", "ab", "a|b", "b"),
  ).foreach { case (grep, kept) =>
    test(s"sh == RefExec: $grep") {
      val script = s"cat in.txt | $grep"
      val s      = new Store(spark.sparkContext)
        .addLines("in.txt", Vector("aab", "a+b", "xy", "x(y)", "ab", "a|b", "b", "c"))
      val ours   = sequential(script, s)
      assert(ours.stdout == kept)
      assertMatch(GnuOracle.check(script, s, ours))
    }
  }

  /** (name, our script, the `sh` script, set-up). `col` and `trim-adapter`
    * exist only as our kernels; `sh` runs the filter each implements. */
  private val width4Rows: List[(String, String, String, (Store, Int) => Unit)] = {
    import Scripts._
    def same(b: ScriptBench) = (b.name, b.script, b.script, b.setup)
    List(same(wf), same(sortOne), same(unix50(13)), same(setDifference),
      ("wc -l", "cat unix50.txt | wc -l", "cat unix50.txt | wc -l", unix50(0).setup),
      ("spell", spell.script,
        spell.script.replace("| col |", """| tr -d '\000-\010\013-\037' |"""), spell.setup),
      ("bio trim-adapter", "cat reads.fastq | trim-adapter",
        "cat reads.fastq | sed 's/AGATCGGAAGAGC.*//'", bio.setup))
  }

  width4Rows.foreach { case (name, ours, sh, setup) =>
    test(s"sh == SparkExec at width 4 == RefExec: $name") {
      val s   = store(setup)
      val par = width4(ours, s)
      assert(par == sequential(ours, s))
      assertMatch(GnuOracle.check(sh, s, par))
    }
  }

  // ---- file operands: how each record reads `a.txt b.txt`, against GNU

  /** Two small files, and a list of files that differ in size, so GNU
    * `wc` pads its counts of a batch. */
  private def files: Store = new Store(spark.sparkContext)
    .addLines("a.txt", Vector("a b", "b")).addLines("b.txt", Vector("c"))
    .addLines("list.txt", Vector("f1", "f2", "f3"))
    .addLines("f1", Vector("xy", "z")).addLines("f2", Vector("y"))
    .addLines("f3", Vector.tabulate(12)(i => s"line $i z"))

  /** Each record's fixed invocation, before its operands `a.txt b.txt`; by
    * default the bare name. `zcat -f` passes text through, as ours does. */
  private val invocation = Map(
    "awk" -> "awk '{print $1}'", "cut" -> "cut -c 1", "fold" -> "fold -w 1", "grep" -> "grep b",
    "head" -> "head -n 1", "iconv" -> "iconv -f utf-8 -t ascii", "sed" -> "sed s/b/x/",
    "seq" -> "seq 2", "tail" -> "tail -n 1", "tr" -> "tr a-z A-Z", "xargs" -> "xargs cat",
    "zcat" -> "zcat -f")

  AnnotationLib.records.keys.toList.sorted.foreach { name =>
    val script = s"${invocation.getOrElse(name, name)} a.txt b.txt"
    test(s"two file operands, sh == RefExec or rejected: $script") {
      Try(Frontend.compile(script)) match {
        case Failure(e: IllegalArgumentException) => info(s"rejected: ${e.getMessage}")
        case Failure(e)                           => throw e
        case Success(c) if c.regions.forall(_.inputs.forall(_.src.isEmpty)) =>
          info("its operands are not files")
        case Success(_) if !GnuOracle.available(name) => info(s"$name is not installed")
        case Success(c) =>
          val s = files
          Try(RefExec.runProgram(c.regions, s)) match {
            case Failure(e: IllegalArgumentException) if e.getMessage.startsWith("no kernel") =>
              info(e.getMessage)
            case Failure(e)    => throw e
            case Success(ours) =>
              GnuOracle.check(script, s, ours) match {
                case Skipped(why) => info(s"skipped: $why")
                case v            => assertMatch(v)
              }
          }
      }
    }
  }

  // several files concatenate, or stay separate inputs, as the record says;
  // xargs runs the inner commands its kernel implements
  List("cat a.txt b.txt | sort", "sort a.txt b.txt", "paste a.txt b.txt", "diff a.txt b.txt",
       "comm a.txt b.txt", "cat list.txt | xargs wc -l", "cat list.txt | xargs -n 1 wc -l",
       "cat list.txt | xargs -n 2 wc -l", "cat list.txt | xargs cat",
       "cat list.txt | xargs -n 1 grep -e x -e y").foreach { script =>
    test(s"sh == SparkExec at width 4 == RefExec: $script") {
      val s   = files
      val par = width4(script, s)
      assert(par == sequential(script, s))
      assertMatch(GnuOracle.check(script, s, par))
    }
  }

  test("xargs rejects options and inner flags it does not implement") {
    List("cat list.txt | xargs -L 1 wc -l", "cat list.txt | xargs --max-args=1 wc -l",
         "cat list.txt | xargs -P 2 cat")
      .foreach(src => intercept[IllegalArgumentException](Frontend.compile(src)))
    // GNU numbers the lines of the batch; `wc` alone prints three counts
    List("cat list.txt | xargs cat -n", "cat list.txt | xargs -n 1 wc",
         "cat list.txt | xargs -n 1 wc -lw", "cat list.txt | xargs cat f1").foreach { src =>
      intercept[IllegalArgumentException](sequential(src, files))
    }
  }

  // ---- repeated grep patterns; sed reads a BRE, or an ERE under -E, and
  // its replacement's escapes as GNU does; the digests are GNU's

  List(
    ("grep -e a -e b", Vector("a", "b", "c"), Vector("a", "b")),
    ("grep -v -e a -e b", Vector("a", "b", "c"), Vector("c")),
    ("sed s/a+/X/", Vector("aa+"), Vector("aX")),
    ("sed 's/a|b/X/'", Vector("a|b"), Vector("X")),
    ("sed -E 's/a+/X/'", Vector("aa+"), Vector("X+")),
    ("sed 's/a\\+/X/'", Vector("aa+"), Vector("X+")),
    ("sed 's/\\(a\\)b/\\1X/'", Vector("ab"), Vector("aX")),
    ("sed 's/a/\\&/'", Vector("ab"), Vector("&b")),
    ("sed 's/a/\\\\/'", Vector("ab"), Vector("\\b")),
    ("sed 's/a/[&]$1/g'", Vector("aba"), Vector("[a]$1b[a]$1")),
    ("sed 's/a/\\n/'", Vector("ab", "cad", "x"), Vector("", "b", "c", "d", "x")),
    ("sed 's/ /\\t/g'", Vector("a b c", "d"), Vector("a\tb\tc", "d")),
    ("md5sum", Vector("ab", "\u00e9"), Vector("6d3fc03b5dbdbf8a15a9fbb9e0dbf7f5  -")),
    ("sha1sum", Vector("ab", "\u00e9"), Vector("7f5b7a5a8836958600dc011a90f0187a28912ec6  -")),
    ("sha256sum", Vector("ab", "\u00e9"),
      Vector("a4b52f0c1720793b8615dcce3814c011db7360ae912ee1333752aee61c60fafb  -")),
    ("cksum", Vector("ab", "\u00e9"), Vector("1317028025 6")),
  ).foreach { case (cmd, in, out) =>
    test(s"sh == RefExec: $cmd") {
      val script = s"cat in.txt | $cmd"
      val s      = new Store(spark.sparkContext).addLines("in.txt", in)
      val ours   = sequential(script, s)
      assert(ours.stdout == out)
      assertMatch(GnuOracle.check(script, s, ours))
    }
  }

  // ---- wc prints what GNU prints, for a pipe and for a file read with `<`

  /** Non-ASCII text: 2- to 4-byte UTF-8, a control char, an empty line. */
  private def utf8: Store = new Store(spark.sparkContext).addLines("in.txt",
    Vector("a b", "\u00e9 \u00fc x", "", "\u65e5 text", "\ud834\udd1e z", "c\u0001d \u0001"))

  List(
    "cat in.txt | wc"     -> "      6       6      35",
    "cat in.txt | wc -lw" -> "      6       6",
    "cat in.txt | wc -c"  -> "35",
    "wc < in.txt"         -> " 6  6 35",
    "wc -lw < in.txt"     -> " 6  6",
    "wc -w < in.txt"      -> "6",
  ).foreach { case (script, out) =>
    test(s"sh == SparkExec at width 4 == RefExec: $script on UTF-8") {
      val s   = utf8
      val par = width4(script, s)
      assert(par == sequential(script, s) && par.stdout == Vector(out))
      assertMatch(GnuOracle.check(script, s, par))
    }
  }

  // `cat other.txt` writes to a pipe grep never reads: -e makes in.txt a file
  test("sh == RefExec: grep -e PAT FILE reads FILE, not the pipe") {
    val script = "cat other.txt | grep -e a in.txt"
    val s      = new Store(spark.sparkContext)
      .addLines("other.txt", Vector("apple", "zzz")).addLines("in.txt", Vector("a1", "b2", "a3"))
    val ours   = sequential(script, s)
    assert(ours.stdout == Vector("a1", "a3"))
    assertMatch(GnuOracle.check(script, s, ours))
  }

  test("sh's word count == the sum of wf's uniq -c counts at width 4") {
    val s     = store(Scripts.wf.setup)
    val total = width4(Scripts.wf.script, s).stdout.map(Kernels.parseUniqC(_)._1).sum
    assertMatch(GnuOracle.check("""cat in.txt | tr -cs A-Za-z "\n" | tr A-Z a-z | wc -l""",
      s, RefExec.Out(Vector(total.toString), Map.empty)))
  }
}
