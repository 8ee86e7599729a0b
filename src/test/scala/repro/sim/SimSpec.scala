package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.{Scripts, Tables}
import repro.core.Transform._
import repro.sim.PipeSim._
import repro.sim.SimBuild.Workload

/** Simulator behaviour: the §5 pathologies and the qualitative speedup
  * shapes of §6 (the quantitative tables live in bench/). */
class SimSpec extends AnyFunSuite {

  // --------------------------------------------------- §5 dangling FIFOs

  /** The paper's deadlock snippet: two producers into fifos, `cat f1 f2`
    * merging them, `head -n 1` exiting early. fifo2 never gets a reader. */
  private def danglingFifoNetwork(): (Vector[Proc], Vector[Chan]) = {
    val chans = Vector.tabulate(4)(i => Chan(i, FifoCapMB)) // f1, f2, cat→head, head→sink
    val procs = Vector(
      Proc(0, "cat-in1", Vector.empty, Vector(0), Cost(700.0, sel = 100.0)),
      Proc(1, "cat-in2", Vector.empty, Vector(1), Cost(700.0, sel = 100.0)),
      Proc(2, "cat-merge", Vector(0, 1), Vector(2), Cost(800.0)),
      Proc(3, "head", Vector(2), Vector(3), Cost(800.0, headLimitMB = 0.001)),
      Proc(4, "sink", Vector(3), Vector.empty, Cost(2000.0, sel = 0.0, usesCpu = false)),
    )
    (procs, chans)
  }

  test("dangling FIFO deadlocks without PIPE cleanup (§5)") {
    val (p, c) = danglingFifoNetwork()
    val r = PipeSim.run(p, c, cores = 16, pipeCleanup = false)
    assert(r.deadlocked)
  }

  test("PaSh's wait + SIGPIPE cleanup resolves the deadlock (§5)") {
    val (p, c) = danglingFifoNetwork()
    val r = PipeSim.run(p, c, cores = 16, pipeCleanup = true)
    assert(!r.deadlocked)
    assert(r.timeSec < 100.0)
  }

  test("head early exit kills upstream quickly (does not drain 100MB)") {
    val (p, c) = danglingFifoNetwork()
    val r = PipeSim.run(p, c, cores = 16, pipeCleanup = true)
    // producers were cut short well before their 200MB combined output
    assert(r.producedMB.values.sum < 150.0)
  }

  // ------------------------------------------------ exact simulated time

  /** `simulateScript` seconds under the four lattice configs, in
    * `Tables.LatticeConfigs` order. A refactor of the simulator or the
    * compiler must leave every one of them bit-identical. */
  private val pinnedSeconds: Map[(String, Int), List[Double]] = Map(
    ("nfa-regex", 1)  -> List(341.337600000154, 341.337600000154, 341.337600000154, 341.337600000154),
    ("nfa-regex", 16) -> List(21.811199999999687, 21.811199999999687, 21.849599999999683, 336.9856000001448),
    ("nfa-regex", 64) -> List(16.128000000000313, 16.128000000000313, 16.128000000000313, 543.5392000004406),
    ("wf", 1)         -> List(447.4879999999649, 447.4879999999649, 447.4879999999649, 447.4879999999649),
    ("wf", 16)        -> List(67.32800000000005, 173.05599999999512, 173.1839999999951, 173.05599999999512),
    ("wf", 64)        -> List(59.904000000000046, 172.92799999999514, 172.54399999999518, 314.1119999999796),
    ("sort-sort", 1)  -> List(602.367999999988, 602.367999999988, 602.367999999988, 602.367999999988),
    ("sort-sort", 16) -> List(116.22400000000009, 327.9359999999781, 328.0639999999781, 327.9359999999781),
    ("sort-sort", 64) -> List(70.14400000000005, 323.71199999997856, 323.1999999999786, 602.8799999999882),
  )

  test("simulated seconds are pinned exactly (nfa-regex, wf, sort-sort × lattice)") {
    val benches = List(Scripts.nfaRegex, Scripts.wf, Scripts.sortSort)
    for (b <- benches; w <- List(1, 16, 64)) {
      val got = Tables.LatticeConfigs.map { case (_, cfg) =>
        SimBuild.simulateScript(b.script, cfg(w), b.workload())
      }
      assert(got == pinnedSeconds((b.name, w)), s"${b.name} at width $w")
    }
  }

  // -------------------------------------------- §6.1 qualitative shapes

  private def speedup(b: Scripts.ScriptBench, cfg: PashConfig): Double =
    SimBuild.speedup(b.script, cfg, b.workload())

  test("stateless-only script scales near-linearly (nfa-regex)") {
    val s8 = speedup(Scripts.nfaRegex, PashConfig(8))
    assert(s8 > 5.0, s"got $s8")
    val s16 = speedup(Scripts.nfaRegex, PashConfig(16))
    assert(s16 > s8)
  }

  test("sort-centred script is capped well below linear (§6.5 observation)") {
    val s16 = speedup(Scripts.sortOne, PashConfig(16))
    assert(s16 > 1.5 && s16 < 14.0, s"got $s16")
  }

  test("eager beats no-eager where ordered merges dominate (nfa-regex, Fig. 8)") {
    // CPU-heavy (S) branches feeding an ordered cat: without eager relays
    // the 64 KiB FIFOs serialize branches 2..w behind branch 1
    val withEager = speedup(Scripts.nfaRegex, PashConfig(8, split = true, eager = EagerOn))
    val noEager   = speedup(Scripts.nfaRegex, PashConfig(8, split = true, eager = EagerOff))
    assert(withEager > noEager * 1.2, s"eager=$withEager noEager=$noEager")
  }

  test("eager within noise of no-eager when blocking commands buffer (wf)") {
    // wf's uniq/sort stages absorb their inputs anyway, so the eager win
    // is small here — but eager must never cost much
    val withEager = speedup(Scripts.wf, PashConfig(8, split = true, eager = EagerOn))
    val noEager   = speedup(Scripts.wf, PashConfig(8, split = true, eager = EagerOff))
    assert(withEager >= noEager * 0.75, s"eager=$withEager noEager=$noEager")
  }

  test("split enables the second sort of sort-sort (§6.1 discussion)") {
    val full    = speedup(Scripts.sortSort, PashConfig(8, split = true))
    val noSplit = speedup(Scripts.sortSort, PashConfig(8, split = false))
    assert(full > noSplit, s"full=$full noSplit=$noSplit")
  }

  test("speedup grows with width for the wf script") {
    val s = List(2, 4, 8, 16).map(w => speedup(Scripts.wf, PashConfig(w)))
    assert(s.zip(s.tail).forall { case (a, b) => b >= a * 0.9 }, s"not increasing: $s")
    assert(s.last > 2.0)
  }

  test("no simulated script deadlocks at width 4 (all one-liners)") {
    Scripts.oneLiners.foreach { b =>
      val t = SimBuild.simulateScript(b.script, PashConfig(4), b.workload())
      assert(t > 0.0 && t.isFinite, s"${b.name}: $t")
    }
  }

  test("parallel is never slower than 0.8× sequential (conservativeness)") {
    Scripts.oneLiners.foreach { b =>
      val s = speedup(b, PashConfig(16))
      assert(s > 0.8, s"${b.name}: $s")
    }
  }

  test("NOAA preprocessing is network-bound: modest total speedup") {
    val s = speedup(Scripts.noaa, PashConfig(16))
    assert(s > 1.2 && s < 8.0, s"got $s")
  }

  test("network link is shared: parallel curls do not scale the download") {
    val w  = Scripts.noaa.workload()
    val t1 = SimBuild.simulateScript(Scripts.noaa.script, PashConfig(1), w)
    val t16 = SimBuild.simulateScript(Scripts.noaa.script, PashConfig(16), w)
    // total download is ~82GB at ~125MB/s shared ⇒ both runs ≥ ~650s
    assert(t1 > 600 && t16 > 600, s"t1=$t1 t16=$t16")
  }
}
