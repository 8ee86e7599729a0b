package repro.cmds

import org.scalatest.funsuite.AnyFunSuite
import repro.core.AnnotationLib
import repro.core.Annotations.Resolved
import repro.cmds.Kernels.Ctx
import repro.bench.SynthText

/** The paper's two algebraic laws (§4.3), checked per command over random
  * line streams:
  *
  *  - stateless:  f(x ++ y) == f(x) ++ f(y)          (semigroup homomorphism)
  *  - pure:       agg(m(x), m(y)) == f(x ++ y)       (map/aggregate pair)
  *
  * The pure law is also checked n-ary, as executors merge a whole aggregate
  * tree in one `Kernels.aggN` call: aggN(m(x1), ..., m(xk)) == f(x1 ++ ... ++ xk).
  *
  * These are exactly the side conditions that make the parallelization
  * transform behaviour-preserving, so every annotated command must pass.
  * (Deterministic seeded property driver — scalatest+scalacheck bridge is
  * not in the offline cache.)
  */
class LawsSpec extends AnyFunSuite {

  private val ctx = Ctx(Nil, _ => Vector.empty)

  private val vocab = Vector("the", "Fox", "jumps", "42", "a-b", "x,y",
                             "999", "GZ:zip", "  pad", "word", "", "AGATCGGAAGAGCx",
                             "<a href=\"u\">")

  private def randLine(seed: Long, i: Long): String = {
    val n = (SynthText.mix(seed, i) & 7).toInt
    (0 until n).map(k => vocab((SynthText.mix(seed, i * 16 + k) % vocab.size).toInt.abs))
      .mkString(" ")
  }

  private def randStream(seed: Long): Vector[String] = {
    val n = (SynthText.mix(seed, 0) & 31).toInt
    Vector.tabulate(n)(i => randLine(seed, i + 1))
  }

  /** 60 random (x, y) stream pairs, including empty/one-sided cases. */
  private def forAllPairs(f: (Vector[String], Vector[String]) => Unit): Unit = {
    f(Vector.empty, Vector.empty)
    f(Vector.empty, Vector("x"))
    f(Vector("x"), Vector.empty)
    (1 to 60).foreach { s =>
      f(randStream(s * 2L), randStream(s * 2L + 1))
    }
  }

  /** 60 random streams (sorted if `sorted`), each cut into 1–5 ordered
    * parts at random points (equal cut points give empty parts), plus
    * fixed lists of empty parts. */
  private def forAllPartLists(sorted: Boolean)(f: List[Vector[String]] => Unit): Unit = {
    f(List(Vector.empty))
    f(List(Vector.empty, Vector("x"), Vector.empty))
    (1 to 60).foreach { seed =>
      val s0 = randStream(seed * 7L)
      val s  = if (sorted) s0.sorted else s0
      val k  = 1 + (SynthText.mix(seed, -1) % 5).toInt.abs
      val cuts = List.tabulate(k - 1)(i =>
        (SynthText.mix(seed, -2 - i) % (s.size + 1)).toInt.abs).sorted
      val bounds = 0 :: cuts ::: List(s.size)
      f(bounds.zip(bounds.tail).map { case (a, b) => s.slice(a, b) })
    }
  }

  /** The n-ary aggregator on two parts, as RefExec runs a binary agg node. */
  private def agg2(key: String, r: Resolved)(x: Vector[String], y: Vector[String]) =
    Kernels.aggN(key, r, List(x, y))

  /** (command, clause index) of every record clause a stateless law covers. */
  private val statelessChecked = collection.mutable.Set.empty[(String, Int)]

  /** Resolve `name args` and note which clause of its record a law covers. */
  private def covered(name: String, args: List[String]): Resolved = {
    val a = AnnotationLib.records(name)
    statelessChecked += name -> a.clauses.indexWhere(_.pred.eval(a.splitArgs(args)._1, args))
    AnnotationLib.resolve(name, args)
  }

  private def statelessLaw(r: Resolved, c: Ctx): Unit = {
    assert(r.cls == repro.core.PClass.Stateless, s"${r.name} must be (S)")
    val f = Kernels.whole(r)(c)
    forAllPairs { (x, y) =>
      assert(f(List(x ++ y)) == f(List(x)) ++ f(List(y)))
    }
  }

  private def checkStateless(name: String, args: List[String]): Unit = {
    val r = covered(name, args)
    test(s"stateless law: $name ${args.mkString(" ")}")(statelessLaw(r, ctx))
  }

  private def checkPure(name: String, args: List[String]): Unit =
    test(s"map/aggregate law: $name ${args.mkString(" ")}") {
      val r = AnnotationLib.resolve(name, args)
      assert(r.cls == repro.core.PClass.Pure && r.agg.isDefined, s"$name must be (P)+agg")
      val f = Kernels.whole(r)(ctx)
      forAllPairs { (x, y) =>
        assert(agg2(r.agg.get, r)(f(List(x)), f(List(y))) == f(List(x ++ y)))
      }
    }

  /** Aggregator keys with an n-ary law below. */
  private val nAryChecked = collection.mutable.Set.empty[String]

  private def checkNAry(name: String, args: List[String], sorted: Boolean = false): Unit = {
    val r = AnnotationLib.resolve(name, args)
    r.agg.foreach(nAryChecked += _)
    test(s"n-ary aggregate law: $name ${args.mkString(" ")}") {
      assert(r.cls == repro.core.PClass.Pure && r.agg.isDefined, s"$name must be (P)+agg")
      val f = Kernels.whole(r)(ctx)
      forAllPartLists(sorted) { parts =>
        val whole = f(List(parts.flatten.toVector))
        assert(Kernels.aggN(r.agg.get, r, parts.map(p => f(List(p)))) == whole)
      }
    }
  }

  // ---- stateless commands (f(x·y) = f(x)·f(y))
  checkStateless("cat", Nil)
  checkStateless("tr", List("A-Z", "a-z"))
  checkStateless("tr", List("-d", "aeiou"))
  checkStateless("tr", List("-cs", "A-Za-z", "\\n"))
  checkStateless("grep", List("the"))
  checkStateless("grep", List("-v", "42"))
  checkStateless("grep", List("-iv", "999"))
  checkStateless("grep", List("-x", "the"))
  checkStateless("grep", List("-e", "the", "-e", "42"))
  checkStateless("cut", List("-d", " ", "-f", "2"))
  checkStateless("cut", List("-c", "1-5"))
  checkStateless("sed", List("s/the/THE/"))
  checkStateless("sed", List("s/a/b/g"))
  checkStateless("sed", List("s/ /\\n/g"))
  checkStateless("rev", Nil)
  checkStateless("fold", List("-w", "3"))
  checkStateless("gunzip", Nil)
  checkStateless("word-stem", Nil)
  checkStateless("html-to-text", Nil)
  checkStateless("trim-adapter", Nil)
  checkStateless("quality-filter", Nil)
  checkStateless("expand", Nil)
  checkStateless("col", Nil)
  checkStateless("iconv", List("-f", "utf-8", "-t", "ascii"))
  checkStateless("unexpand", Nil)
  checkStateless("zcat", Nil)
  checkStateless("url-extract", Nil)
  checkStateless("file", Nil)

  private val dictCtx = Ctx(List(Vector("42", "the", "word")), _ => Vector.empty)

  locally {
    val r = covered("comm", List("-13", "dict", "-"))
    test("stateless law: comm -13 with static dictionary")(statelessLaw(r, dictCtx))
  }
  locally {
    val r = covered("comm", List("-23", "-", "dict"))
    test("stateless law: comm -23 with static dictionary")(statelessLaw(r, dictCtx))
  }

  test("every (S) record clause with a streaming input has a stateless law") {
    val missing = for {
      a      <- AnnotationLib.records.values.toList
      (c, i) <- a.clauses.zipWithIndex
      if c.cls == repro.core.PClass.Stateless && c.inputs.exists(!_.static)
      if !statelessChecked((a.name, i))
    } yield s"${a.name} clause $i"
    assert(missing.isEmpty)
  }

  // ---- parallelizable pure commands (agg ∘ map = f)
  checkPure("sort", Nil)
  checkPure("sort", List("-n"))
  checkPure("sort", List("-rn"))
  checkPure("sort", List("-u"))
  checkPure("sort", List("-k", "2"))
  checkPure("sort", List("-rn", "-k", "2"))
  checkPure("wc", List("-l"))
  checkPure("wc", List("-lw"))
  checkPure("wc", Nil)
  checkPure("head", List("-n", "5"))
  checkPure("head", List("-n", "1"))
  checkPure("tail", List("-n", "5"))
  checkPure("tac", Nil)
  checkPure("grep", List("-c", "the"))

  // uniq's law holds on sorted inputs (its pipeline position): split x·y
  test("map/aggregate law: uniq (sorted streams, all split points)") {
    val r   = AnnotationLib.resolve("uniq", Nil)
    val f   = Kernels.whole(r)(ctx)
    val agg = agg2("uniq", r) _
    (1 to 25).foreach { seed =>
      val s = randStream(seed.toLong).sorted
      (0 to s.size).foreach { cut =>
        val (x, y) = s.splitAt(cut)
        assert(agg(f(List(x)), f(List(y))) == f(List(s)))
      }
    }
  }

  test("map/aggregate law: uniq -c (sorted streams, all split points)") {
    val r   = AnnotationLib.resolve("uniq", List("-c"))
    val f   = Kernels.whole(r)(ctx)
    val agg = agg2("uniq-c", r) _
    (1 to 25).foreach { seed =>
      val s = randStream(seed.toLong).sorted
      (0 to s.size).foreach { cut =>
        val (x, y) = s.splitAt(cut)
        assert(agg(f(List(x)), f(List(y))) == f(List(s)))
      }
    }
  }

  test("aggregators are associative (sort-m over three chunks)") {
    val r   = AnnotationLib.resolve("sort", List("-n"))
    val f   = Kernels.whole(r)(ctx)
    val agg = agg2("sort-m", r) _
    (1 to 30).foreach { s =>
      val (x, y, z) = (randStream(s * 3L), randStream(s * 3L + 1), randStream(s * 3L + 2))
      val l  = agg(agg(f(List(x)), f(List(y))), f(List(z)))
      val rr = agg(f(List(x)), agg(f(List(y)), f(List(z))))
      assert(l == rr && l == f(List(x ++ y ++ z)))
    }
  }

  // ---- n-ary aggregation: one aggN call over 1–5 parts
  checkNAry("sort", Nil)
  checkNAry("sort", List("-n"))
  checkNAry("sort", List("-rn"))
  checkNAry("sort", List("-u"))
  checkNAry("sort", List("-rn", "-k", "2"))
  checkNAry("uniq", Nil, sorted = true)
  checkNAry("uniq", List("-c"), sorted = true)
  checkNAry("wc", List("-l"))
  checkNAry("wc", Nil)
  checkNAry("head", List("-n", "5"))
  checkNAry("tail", List("-n", "5"))
  checkNAry("tac", Nil)
  checkNAry("grep", List("-c", "the"))

  // ---- the laws of the key-range cut (SparkExec's sorted exchange)

  /** Up to 6 random lines, some in the stream and some not. */
  private def candidates(seed: Long): Vector[String] =
    Vector.tabulate((SynthText.mix(seed, -7) & 7).toInt.min(6))(i => randLine(seed * 31 + 5, i))

  List(Nil, List("-r"), List("-n"), List("-rn"), List("-u"), List("-nu"),
       List("-t", " ", "-k", "2")).foreach { args =>
    test(s"key-range law: the sort-m ranges of any splitters concatenate to aggN: sort ${args.mkString(" ")}") {
      val r = AnnotationLib.resolve("sort", args)
      val f = Kernels.whole(r)(ctx)
      var seed = 0L
      forAllPartLists(sorted = false) { ps =>
        seed += 1
        val parts  = ps.map(p => f(List(p)))
        val merged = Kernels.aggN("sort-m", r, parts)
        def ranges(splitters: Vector[String]) =
          (0 to splitters.size).flatMap(i => Kernels.sortMRange(r, parts, splitters, i)).toVector
        // splitters in the command's own order, repeats included
        val random = f(List(candidates(seed) ++ candidates(seed + 1000)))
        assert(ranges(random) == merged, s"splitters $random")
        // splitters picked from samples, as the executor picks them
        val w = 1 + (SynthText.mix(seed, -9) % 6).toInt.abs
        val picked = Kernels.sortSplitters(r, parts.flatten ++ candidates(seed), w)
        assert(picked.size == (if (parts.flatten.isEmpty && candidates(seed).isEmpty) 0 else w - 1))
        assert(ranges(picked) == merged, s"splitters $picked")
      }
      // no samples give no splitters: range 0 is everything
      assert(Kernels.sortSplitters(r, Nil, 4).isEmpty)
      val parts = List(f(List(randStream(3))), f(List(randStream(4))))
      assert(Kernels.sortMRange(r, parts, Vector.empty, 0) == Kernels.aggN("sort-m", r, parts))
      assert(Kernels.sortMRange(r, parts, Vector.empty, 1).isEmpty)
    }
  }

  List("uniq" -> Nil, "uniq-c" -> List("-c")).foreach { case (key, args) =>
    test(s"kept-parts law: aggN($key) of parts cut between runs is their concatenation") {
      val r = AnnotationLib.resolve("uniq", args)
      val f = Kernels.whole(r)(ctx)
      (1 to 60).foreach { seed =>
        val s = randStream(seed * 11L).sorted
        // every point where a run of equal lines ends, chosen at random
        val ends  = (0 to s.size).filter(i => i == 0 || i == s.size || s(i - 1) != s(i))
        val k     = (SynthText.mix(seed, -3) % 5).toInt.abs
        val cuts  = List.tabulate(k)(i => ends((SynthText.mix(seed, -4 - i) % ends.size).toInt.abs)).sorted
        val bound = 0 :: cuts ::: List(s.size)
        val parts = bound.zip(bound.tail).map { case (a, b) => f(List(s.slice(a, b))) }
        assert(Kernels.aggN(key, r, parts) == parts.flatten)
        assert(parts.flatten == f(List(s)))
      }
    }
  }

  test("every aggregator in the annotation library has an n-ary law and is accepted by aggN") {
    val named = for {
      a   <- AnnotationLib.records.values.toList
      c   <- a.clauses
      key <- c.agg
    } yield (a.name, key)
    assert(named.map(_._2).toSet == nAryChecked.toSet)
    named.foreach { case (name, key) =>
      val r = AnnotationLib.resolve(name, Nil)
      assert(Kernels.aggN(key, r, List(Vector("1"), Vector("2"))).nonEmpty, key)
    }
    val r = AnnotationLib.resolve("sort", Nil)
    intercept[IllegalArgumentException](Kernels.aggN("no-such-agg", r, List(Vector("1"))))
    intercept[IllegalArgumentException](
      Kernels.aggN("tail", AnnotationLib.resolve("tail", List("-n", "+2")), Nil))
  }
}
