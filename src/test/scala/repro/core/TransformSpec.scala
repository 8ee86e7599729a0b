package repro.core

import org.scalatest.funsuite.AnyFunSuite
import Dfg._
import Transform._

class TransformSpec extends AnyFunSuite {

  private def regions(src: String) = Frontend.compile(src).regions

  private def par(src: String, w: Int, split: Boolean = true,
                  eager: EagerMode = EagerOn): Graph =
    Transform.parallelize(regions(src).head, PashConfig(w, split, eager))

  private def count(g: Graph, kind: String): Int = g.nodeStats.getOrElse(kind, 0)

  test("width 1 is identity") {
    val g = regions("cat f | tr A-Z a-z").head
    assert(Transform.parallelize(g, PashConfig(1)) eq g)
  }

  test("stateless pipeline replicates each command w times") {
    val g = par("cat f | tr A-Z a-z | grep x", 4)
    // cat, tr, grep → 4 replicas each; + final commuted cat
    assert(count(g, "cmd") == 12)
    assert(count(g, "cat") == 1)
    assert(count(g, "map") == 0)
  }

  test("file inputs are chunk-read without split processes") {
    val g = par("cat f | tr A-Z a-z", 8)
    assert(count(g, "split") == 0)
    val parts = g.inputs.flatMap(_.src).collect { case SrcFilePart(f, i, o) => (f, i, o) }
    assert(parts.size == 8 && parts.forall(_._3 == 8))
  }

  test("pure command becomes maps + binary aggregation tree") {
    val g = par("cat f | sort", 8)
    assert(count(g, "cmd") == 8)    // cat replicas (S)
    assert(count(g, "map") == 8)    // sort map phase
    assert(count(g, "agg") == 7)    // 8-leaf binary tree
  }

  test("paper's sort example at width 16 (Tab. 2 node shape)") {
    // Tab. 2 "sort" row: replicas of tr and sort, 15 aggregators, eagers
    val g = par("cat in | tr A-Z a-z | sort", 16)
    assert(count(g, "cmd") == 32)   // 16 cat replicas + 16 tr replicas
    assert(count(g, "map") == 16)   // sort map phase
    assert(count(g, "agg") == 15)   // 16-leaf binary merge tree
    assert(count(g, "eager") == 15) // one per aggregation node
  }

  test("aggregator tree output feeds the downstream node") {
    val g = par("cat f | sort | grep x", 4)
    // grep after the agg tree: its stream has width 1 again ⇒ needs split
    assert(count(g, "split") == 1)
  }

  test("no split configuration leaves post-aggregator stages sequential") {
    val g = par("cat f | sort | sort -r", 4, split = false)
    assert(count(g, "split") == 0)
    // second sort not replicated: only 4 maps from the first sort
    assert(count(g, "map") == 4)
  }

  test("split configuration re-parallelizes the second sort (sort-sort)") {
    val g = par("cat f | sort | sort -r", 4, split = true)
    assert(count(g, "split") == 1)
    assert(count(g, "map") == 8)
    assert(count(g, "agg") == 6)
  }

  test("split inserts eager relays on all outputs but the last") {
    val g = par("cat f | sort | sort -r", 4, split = true, eager = EagerOn)
    // eager: 3 (split) + 3 (first agg tree) + 3 (second agg tree)
    assert(count(g, "eager") == 9)
  }

  test("eager off inserts no relays") {
    val g = par("cat f | sort | sort -r", 4, split = true, eager = EagerOff)
    assert(count(g, "eager") == 0 && count(g, "blocking") == 0)
  }

  test("blocking eager mode inserts blocking relays") {
    val g = par("cat f | sort", 4, eager = EagerBlocking)
    assert(count(g, "blocking") == 3 && count(g, "eager") == 0)
  }

  test("non-parallelizable commands are left sequential") {
    val g = par("cat f | sha1sum", 4)
    // cat replicates (file chunks), sha1sum stays single
    assert(count(g, "cmd") == 5)
    assert(count(g, "map") == 0)
  }

  test("awk blocks parallelization of itself but not downstream sort") {
    val g = par("cat f | awk '{print $1}' | sort", 4)
    assert(count(g, "split") == 1) // split re-parallelizes after awk
    assert(count(g, "map") == 4)
  }

  test("side-effectful (unknown) command is never parallelized") {
    val g = par("cat f | frobnicate", 4)
    val frob = g.nodes.values.collect {
      case DNode(_, CmdOp(r), _, _) if r.name == "frobnicate" => r
    }
    assert(frob.size == 1)
  }

  test("an unrecorded command (base64) is never replicated") {
    // (S) in the Tab. 1 study lists, but only a record licenses a transform
    List("base64", "printf %s", "strings", "dd").foreach { cmd =>
      val g = par(s"cat in.txt | $cmd", 4)
      val nodes = g.nodes.values.collect {
        case DNode(_, CmdOp(r), _, _) if r.name == cmd.takeWhile(_ != ' ') => r.cls
      }
      assert(nodes.toList == List(PClass.SideEffectful), cmd)
      assert(count(g, "cmd") == 5, cmd) // 4 cat replicas + the command
    }
  }

  test("a first stage that reads the script's stdin is rejected") {
    List("grep foo | wc -l", "wc -l", "cat $undefined | wc -l", "base64 in.txt | wc -l")
      .foreach(src => intercept[IllegalArgumentException](regions(src)))
    // a `<` redirect gives the first stage an input edge; a source needs none
    assert(regions("grep foo < in.txt | wc -l").head.inputs.flatMap(_.src) ==
      List(SrcFile("in.txt")))
    assert(regions("echo hi | wc -l").head.inputs.isEmpty)
  }

  test("file operands follow the record: concatenated, separate, at most one, or none") {
    def cats(src: String) = count(regions(src).head, "cat")
    assert(cats("sort a.txt b.txt") == 1 && cats("cut -c 1 a.txt b.txt") == 1)
    List("paste a.txt b.txt", "diff a.txt b.txt", "comm a.txt b.txt", "tac a.txt",
         "grep 1 a.txt", "head -n 1 a.txt").foreach { src =>
      val g = regions(src).head
      assert(cats(src) == 0 && g.inputs.size == src.count(_ == '.'), src)
    }
    // GNU prints per-file output (headers, prefixes, a total), names the
    // file, writes uniq's output to b.txt, or decompresses in place
    List("tac a.txt b.txt", "sha1sum a.txt b.txt", "wc -l a.txt b.txt", "grep 1 a.txt b.txt",
         "head -n 1 a.txt b.txt", "uniq a.txt b.txt", "wc -l a.txt", "md5sum a.txt",
         "gunzip a.gz").foreach { src =>
      val e = intercept[IllegalArgumentException](regions(src))
      assert(e.getMessage.startsWith(src.takeWhile(_ != ' ') + ":"), src)
    }
  }

  test("redirections a region cannot honour are rejected") {
    List("cat a | grep x < b",            // sh makes grep read b, not the pipe
         "cat a | wc -l > $undefined",    // the sink would silently be stdout
         "cat a < $undefined",
         "cat a > out.txt | wc -l",       // sh leaves wc an empty input
         "cat a | sort > x.txt > y.txt",
         "grep x < a < b | wc -l").foreach { src =>
      intercept[IllegalArgumentException](regions(src))
    }
    assert(regions("grep x < a | sort > out.txt").head.outputs.flatMap(_.sink) ==
      List("out.txt"))
    repro.bench.Scripts.all.foreach(b => assert(regions(b.script).nonEmpty, b.name))
  }

  test("a stage that reads no stdin drops the stages before it, unless one may act beyond its stdout") {
    val g = regions("cat a.txt | tr a b | grep -e x b.txt").head
    assert(g.nodes.size == 1 && g.inputs.flatMap(_.src) == List(SrcFile("b.txt")))
    // sh still runs them: tee writes c.txt, and $y may be any program
    List("cat a.txt | tee c.txt | grep -e x b.txt" -> "tee c.txt:",
         "cat a.txt | $y | grep -e x b.txt"        -> "<dynamic>:").foreach { case (src, who) =>
      val e = intercept[IllegalArgumentException](regions(src))
      assert(e.getMessage.startsWith(who), src)
    }
  }

  test("wc reading a file with `<` stays sequential; from a pipe it is aggregated") {
    assert(count(par("wc < in.txt", 4), "agg") == 0 && count(par("cat in.txt | wc", 4), "agg") > 0)
  }

  test("static inputs are replicated to every replica (comm -13)") {
    val g = par("cat f | sort -u | comm -13 dict.txt -", 4)
    val statics = g.edges.values.filter(_.static)
    assert(statics.size == 4)
    assert(statics.forall(_.src.contains(SrcFile("dict.txt"))))
  }

  test("transformed graphs remain DAGs with consistent endpoints") {
    repro.bench.Scripts.oneLiners.foreach { b =>
      Frontend.compile(b.script).regions.foreach { r =>
        val g = Transform.parallelize(r, PashConfig(5))
        g.topo // throws on cycles
        g.nodes.values.foreach { n =>
          n.ins.foreach(e => assert(g.edges(e).to.contains(n.id)))
          n.outs.foreach(e => assert(g.edges(e).from.contains(n.id)))
        }
        // outputs preserved: same sinks as the sequential graph
        assert(g.outputs.flatMap(_.sink) == r.outputs.flatMap(_.sink))
      }
    }
  }

  test("Tab. 2 #Nodes(16,64) of the ten one-liners") {
    val expected = Map(
      "nfa-regex" -> (64, 256), "sort" -> (78, 318), "top-n" -> (280, 1144),
      "wf" -> (218, 890), "spell" -> (158, 638), "shortest-scripts" -> (205, 829),
      "difference" -> (219, 891), "set-difference" -> (188, 764),
      "bi-grams" -> (190, 766), "sort-sort" -> (140, 572))
    val got = repro.bench.Scripts.oneLiners.map { b =>
      def nodes(w: Int) = Compiler.pash(b.script, PashConfig(w)).stats.nodes
      b.name -> (nodes(16), nodes(64))
    }.toMap
    assert(got == expected)
  }

  test("naive transformation also replicates pure commands") {
    val g = Transform.naiveParallel(regions("cat f | sort").head, PashConfig(4))
    assert(count(g, "agg") == 0)        // no aggregators: plain concat
    assert(count(g, "cmd") == 8)        // 4 cat + 4 sort replicas
  }

  test("compile times are milliseconds (Tab. 2 shape)") {
    val r = Compiler.pash("cat f | tr A-Z a-z | sort", PashConfig(64))
    assert(r.compileMillis < 5000.0)
    assert(r.stats.nodes > 64)
  }

  test("backend emits fifos, background jobs, wait and cleanup") {
    val res = Compiler.pash("cat f | tr A-Z a-z | sort", PashConfig(2))
    assert(res.script.contains("mkfifo"))
    assert(res.script.contains(" &"))
    assert(res.script.contains("wait"))
    assert(res.script.contains("kill -SIGPIPE"))
    assert(res.script.contains("sort"))
  }

  test("frontend splits regions at barriers") {
    val c = Frontend.compile("cat a | wc -l\ncat b | wc -l")
    assert(c.regions.size == 2)
  }

  test("frontend unrolls for loops with bound variables") {
    val c = Frontend.compile("for y in {2001..2003}; do cat f$y | wc -l; done")
    assert(c.regions.size == 3)
    val files = c.regions.flatMap(_.inputs.flatMap(_.src)).collect {
      case SrcFile(f) => f
    }
    assert(files == List("f2001", "f2002", "f2003"))
  }

  test("frontend resolves assignments statically") {
    val c = Frontend.compile("x=hello\ncat $x.txt | wc -l")
    val files = c.regions.head.inputs.flatMap(_.src).collect { case SrcFile(f) => f }
    assert(files == List("hello.txt"))
  }

  test("NOAA script compiles into 5 parallel-friendly regions") {
    val c = Frontend.compile(repro.bench.Scripts.noaa.script)
    assert(c.regions.size == 5)
    c.regions.foreach { g =>
      val cmds = g.nodes.values.collect { case DNode(_, CmdOp(r), _, _) => r.name }
      assert(cmds.toList.contains("curl"))
    }
  }
}
