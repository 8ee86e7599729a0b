package repro.core

import org.scalatest.funsuite.AnyFunSuite
import Annotations._
import PClass._

class AnnotationSpec extends AnyFunSuite {

  private def cls(name: String, args: String*): PClass =
    AnnotationLib.resolve(name, args.toList).cls

  // ---- class dispatch per flags (concern C3)

  test("cat is stateless")               { assert(cls("cat") == Stateless) }
  test("cat -n becomes pure")            { assert(cls("cat", "-n") == Pure) }
  test("tr is stateless")                { assert(cls("tr", "A-Z", "a-z") == Stateless) }
  test("tr -cs stays stateless")         { assert(cls("tr", "-cs", "A-Za-z", "\n") == Stateless) }
  test("grep is stateless")              { assert(cls("grep", "foo") == Stateless) }
  test("grep -c is pure with sum agg") {
    val r = AnnotationLib.resolve("grep", List("-c", "foo"))
    assert(r.cls == Pure && r.agg.contains("sum"))
  }
  test("grep -iv parses combined flags") {
    val r = AnnotationLib.resolve("grep", List("-iv", "999"))
    assert(r.flags == Set("-i", "-v") && r.cls == Stateless)
  }
  test("sort is pure with sort-m agg") {
    val r = AnnotationLib.resolve("sort", List("-rn"))
    assert(r.cls == Pure && r.agg.contains("sort-m") && r.flags == Set("-r", "-n"))
  }
  test("sort -m is already an aggregator (no further agg)") {
    val r = AnnotationLib.resolve("sort", List("-mrn"))
    assert(r.cls == Pure && r.agg.isEmpty)
  }
  test("uniq / uniq -c aggregators") {
    assert(AnnotationLib.resolve("uniq", Nil).agg.contains("uniq"))
    assert(AnnotationLib.resolve("uniq", List("-c")).agg.contains("uniq-c"))
  }
  test("wc is pure with wc agg")         {
    val r = AnnotationLib.resolve("wc", List("-lw"))
    assert(r.cls == Pure && r.agg.contains("wc") && r.flags == Set("-l", "-w"))
  }
  test("head keeps its count value") {
    val r = AnnotationLib.resolve("head", List("-n", "15"))
    assert(r.cls == Pure && r.flagVals.get("-n").contains("15"))
  }
  test("head glued count (-n15)") {
    assert(AnnotationLib.resolve("head", List("-n15")).flagVals.get("-n").contains("15"))
  }
  test("tail -n +2 is pure without aggregator (prefix drop)") {
    val r = AnnotationLib.resolve("tail", List("-n", "+2", "f"))
    assert(r.cls == Pure && r.agg.isEmpty)
  }
  test("tail -n 5 has the tail aggregator") {
    assert(AnnotationLib.resolve("tail", List("-n", "5")).agg.contains("tail"))
  }
  test("sha1sum is non-parallelizable")  { assert(cls("sha1sum") == NonParallel) }
  test("awk is non-parallelizable")      { assert(cls("awk", "{print $1}") == NonParallel) }
  test("sed substitution is stateless")  { assert(cls("sed", "s/a/b/") == Stateless) }
  test("sed -n is non-parallelizable")   { assert(cls("sed", "-n", "2p") == NonParallel) }
  test("unknown command defaults to side-effectful") {
    assert(cls("frobnicate") == SideEffectful)
  }
  test("date (study list) is side-effectful") { assert(cls("date") == SideEffectful) }
  test("a command without a record is the opaque (E) node, whatever its study class") {
    // base64/printf/strings/dd are (S) in the Tab. 1 study, but no record
    // or kernel describes them
    List("base64" -> List("-d"), "printf" -> List("%s\\n", "x"),
         "strings" -> List("f"), "dd" -> List("if=f")).foreach {
      case (name, args) =>
        assert(AnnotationLib.resolve(name, args) == Annotations.opaque(name, args))
    }
    val r = Annotations.opaque("base64", List("f"))
    assert(r.cls == SideEffectful && r.inputs == List(StreamSpec.Std) && r.agg.isEmpty && r.opaque)
    assert(!AnnotationLib.resolve("wc", List("-l")).opaque)
  }
  test("basename and dirname take names, not input files") {
    assert(AnnotationLib.resolve("basename", List("x")).inputs.isEmpty)
    assert(AnnotationLib.resolve("dirname", List("a/b")).inputs.isEmpty)
  }

  // ---- comm: the paper's worked example (Fig. 4)

  test("comm -13 is stateless with static first input") {
    val r = AnnotationLib.resolve("comm", List("-13", "dict.txt", "-"))
    assert(r.cls == Stateless)
    assert(r.inputs == List(StreamSpec.File("dict.txt", true), StreamSpec.Std))
  }
  test("comm -23 is stateless with static second input") {
    val r = AnnotationLib.resolve("comm", List("-23", "a.txt", "b.txt"))
    assert(r.cls == Stateless)
    assert(r.inputs == List(StreamSpec.File("b.txt", true), StreamSpec.File("a.txt", false)))
  }
  test("bare comm is pure with two streaming inputs") {
    val r = AnnotationLib.resolve("comm", List("a", "b"))
    assert(r.cls == Pure && r.inputs.size == 2 && r.agg.isEmpty)
  }
  test("comm stdin-hyphen resolves - to stdin") {
    val r = AnnotationLib.resolve("comm", List("-13", "d", "-"))
    assert(r.inputs.contains(StreamSpec.Std))
  }

  // ---- higher-order xargs (§3.2)

  test("xargs of a stateless command is stateless") {
    assert(cls("xargs", "-n", "1", "wc", "-l") == Stateless)
    assert(cls("xargs", "-n", "1", "grep", "x") == Stateless)
    assert(cls("xargs", "-n", "1", "file") == Stateless)
  }
  test("xargs of a batch-sensitive stateless command needs -n 1") {
    // GNU grep prefixes file names once a batch holds two files; GNU file
    // pads names to the batch's longest
    assert(cls("xargs", "grep", "x") == SideEffectful)
    assert(cls("xargs", "file") == SideEffectful)
    assert(cls("xargs", "-n", "2", "grep", "x") == SideEffectful)
    assert(cls("xargs", "cat") == Stateless)  // contents concatenate
    assert(cls("xargs", "cat", "-n") == SideEffectful) // numbering spans the batch
    assert(cls("xargs", "wget", "-q") == Stateless)
  }
  test("xargs curl is stateless (read-only fetch)") {
    assert(cls("xargs", "-n", "1", "curl", "-s") == Stateless)
  }
  test("xargs of a side-effectful command stays side-effectful") {
    assert(cls("xargs", "rm") == SideEffectful)
  }
  test("bare xargs is side-effectful") { assert(cls("xargs") == SideEffectful) }
  test("xargs of a pure command is (S) only when each item is its own batch") {
    // `wc` prints one `total` line per batch: batching changes the output
    assert(cls("xargs", "wc", "-l") == SideEffectful)
    assert(cls("xargs", "-n", "2", "wc", "-l") == SideEffectful)
    assert(cls("xargs", "-n1", "wc", "-l") == Stateless)
    assert(cls("xargs", "sort") == SideEffectful)
    assert(cls("xargs", "-n", "1", "sha1sum") == Stateless)
    assert(cls("xargs", "curl", "-s") == Stateless) // fetches concatenate
  }
  test("xargs reads its items from stdin; its inner command is a resolved record") {
    val r = AnnotationLib.resolve("xargs", List("-n", "1", "wc", "-l"))
    assert(r.inputs == List(StreamSpec.Std) && r.operands.isEmpty)
    assert(r.inner.contains(AnnotationLib.resolve("wc", List("-l"))))
    assert(r.args == List("-n", "1", "wc", "-l")) // every word, for the backend
  }
  test("xargs reads -n from its own words only") {
    val r = AnnotationLib.resolve("xargs", List("head", "-n", "1"))
    assert(r.flagVals.isEmpty && r.cls == SideEffectful)
    assert(r.inner.exists(_.flagVals == Map("-n" -> "1")))
    assert(AnnotationLib.resolve("xargs", List("-n1", "head", "-n", "2")).flagVals ==
      Map("-n" -> "1"))
  }
  test("xargs rejects every option but -n N") {
    List(List("-L", "1"), List("--max-args=1"), List("-I", "{}"), List("-P", "4"),
         List("-n", "0"), List("-n", "x")).foreach { own =>
      intercept[IllegalArgumentException](AnnotationLib.resolve("xargs", own ++ List("wc", "-l")))
    }
  }

  // ---- predicate language

  test("predicate operators evaluate") {
    val p = (Flag("-a") && !Flag("-b")) || ArgMatch("^x.*")
    assert(p.eval(Set("-a"), Nil))
    assert(!p.eval(Set("-a", "-b"), Nil))
    assert(p.eval(Set("-b"), List("xyz")))
  }

  test("value flags: separate and glued forms") {
    val a = AnnotationLib.records("cut")
    val (f1, v1, o1) = a.splitArgs(List("-d", ":", "-f", "1"))
    assert(f1 == Set("-d", "-f") && v1 == Map("-d" -> List(":"), "-f" -> List("1")) && o1.isEmpty)
    val (_, v2, _) = a.splitArgs(List("-d:", "-f1"))
    assert(v2 == Map("-d" -> List(":"), "-f" -> List("1")))
  }

  test("a repeated value flag keeps every value; flagVals reads the last") {
    val g = AnnotationLib.resolve("grep", List("-e", "a", "-e", "b"))
    assert(g.vals == Map("-e" -> List("a", "b")) && g.flagVals == Map("-e" -> "b"))
    assert(AnnotationLib.resolve("head", List("-n", "1", "-n", "2")).flagVals == Map("-n" -> "2"))
  }

  test("long flags with = are captured") {
    val a = AnnotationLib.records("sort")
    val (f, v, _) = a.splitArgs(List("--parallel=8"))
    assert(f.contains("--parallel") && v.get("--parallel").contains(List("8")))
  }

  // ---- the Tab. 1 study

  test("Tab. 1: coreutils counts match the paper (22/8/13/57)") {
    val s = AnnotationLib.study
    assert(s(Stateless)._1 == 22)
    assert(s(Pure)._1 == 8)
    assert(s(NonParallel)._1 == 13)
    assert(s(SideEffectful)._1 == 57)
  }
  test("Tab. 1: POSIX counts match the paper (28/9/13/105)") {
    val s = AnnotationLib.study
    assert(s(Stateless)._2 == 28)
    assert(s(Pure)._2 == 9)
    assert(s(NonParallel)._2 == 13)
    assert(s(SideEffectful)._2 == 105)
  }
  test("study lists have no duplicates") {
    assert(AnnotationLib.coreutils.map(_._1).distinct.size == AnnotationLib.coreutils.size)
    assert(AnnotationLib.posix.map(_._1).distinct.size == AnnotationLib.posix.size)
  }
  test("annotation library covers 47+ commands") {
    assert(AnnotationLib.records.size >= 47)
  }
}
