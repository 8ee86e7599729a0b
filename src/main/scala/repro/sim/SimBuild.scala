package repro.sim

import repro.core.Annotations.Resolved
import repro.core.Dfg._
import repro.core.{Compiler, Transform}
import PipeSim._

/** Lower a (possibly transformed) DFG into a [[PipeSim]] process network,
  * with per-command throughput/selectivity from [[CostModel]].
  */
object SimBuild {

  /** Workload description: synthetic file sizes and per-command cost
    * overrides for this script (e.g. the expensive backtracking regex of
    * nfa-regex), on the paper's 64-core machine with a shared 1 Gbps NIC. */
  final case class Workload(
      fileMB: String => Double,
      overrides: Map[String, Cost] = Map.empty,
      /** Expected data volume per region when bytes enter via command
        * amplification (downloads) rather than source files (step sizing). */
      volumeHintMB: Double = 0.0,
  ) {
    val cores  = 64
    val netMBs = 125.0
  }

  private val DiskMBs = 700.0

  /** URLs are read over the shared NIC, every other file from disk. */
  private def netFile(name: String): Boolean =
    name.startsWith("http") || name.startsWith("ftp")

  def build(g: Graph, w: Workload): (Vector[Proc], Vector[Chan]) = {
    // channel per DFG edge (dense renumbering)
    val edgeIds = g.edges.keys.toVector.sorted
    val chanOf  = edgeIds.zipWithIndex.toMap
    val chans   = edgeIds.map(e => Chan(chanOf(e), FifoCapMB))

    val procs = collection.mutable.ArrayBuffer.empty[Proc]
    def addProc(label: String, ins: Vector[Int], outs: Vector[Int], cost: Cost): Unit =
      procs += Proc(procs.size, label, ins, outs, cost)

    // sources for graph-input edges
    g.edges.values.toList.sortBy(_.id).foreach { e =>
      e.src.foreach { s =>
        val (name, mb) = s match {
          case SrcFile(f)           => (f, w.fileMB(f))
          case SrcFilePart(f, i, o) => (s"$f[$i/$o]", w.fileMB(f) / o)
        }
        val net = netFile(name.takeWhile(_ != '['))
        addProc(s"read:$name", Vector.empty, Vector(chanOf(e.id)),
          Cost(rateMBs = if (net) w.netMBs else DiskMBs, sel = mb,
               usesCpu = false, usesNet = net))
      }
    }

    g.topo.foreach { n =>
      val ins  = n.ins.map(e => chanOf(e))
      val outs = n.outs.map(e => chanOf(e))
      n.op match {
        case CmdOp(r)  => addProc(r.name, ins, outs, CostModel.cmd(r, w.overrides))
        case MapOp(r)  => addProc(s"map:${r.name}", ins, outs, CostModel.cmd(r, w.overrides))
        case AggOp(k, _) => addProc(s"agg:$k", ins, outs, CostModel.agg(k))
        case SplitOp(_) =>
          addProc("split", ins, outs,
            Cost(600.0, sel = 1.0, kind = Blocking, emitMBs = 600.0))
        // plumbing (cat/relay) is memory-bound copying: it does not take a
        // core away from the commands doing real work
        case CatOp     => addProc("cat", ins, outs, Cost(800.0, usesCpu = false))
        case RelayOp(true, _) =>
          addProc("eager", ins, outs, Cost(800.0, kind = EagerRelay, usesCpu = false))
        case RelayOp(false, _) =>
          addProc("blocking-eager", ins, outs,
            Cost(700.0, kind = Blocking, emitMBs = 700.0, usesCpu = false))
      }
    }

    // sink per graph output (consumes eagerly; negligible CPU)
    g.outputs.foreach { e =>
      addProc(s"sink:${e.sink.getOrElse("stdout")}", Vector(chanOf(e.id)),
              Vector.empty, Cost(2000.0, sel = 0.0, usesCpu = false))
    }

    (procs.toVector, chans)
  }

  /** Simulate a whole script at a PaSh configuration; regions run in
    * sequence (barriers), total = sum of region times. */
  def simulateScript(src: String, cfg: Transform.PashConfig, w: Workload): Double = {
    val res = Compiler.pash(src, cfg)
    res.parallel.map { g =>
      val (procs, chans) = build(g, w)
      val r = PipeSim.run(procs, chans, w.cores, w.netMBs,
                          volumeHintMB = w.volumeHintMB)
      require(!r.deadlocked, "simulated script deadlocked")
      r.timeSec
    }.sum
  }

  /** Speedup of a configuration over the sequential (width=1) execution. */
  def speedup(src: String, cfg: Transform.PashConfig, w: Workload): Double = {
    val seq = simulateScript(src, Transform.PashConfig(1), w)
    val par = simulateScript(src, cfg, w)
    seq / par
  }
}

/** Per-command throughput (MB/s at one core) and selectivity (output bytes
  * per input byte). Values are calibrated to a few real measurements and
  * to the paper's qualitative observations (sort's limited scalability,
  * html-to-text dominating §6.4, cutadapt dominating §6.5); the reproduced
  * claims are curve *shapes*, not absolute seconds (DESIGN.md).
  */
object CostModel {
  import PipeSim._

  private val defaults: Map[String, Cost] = Map(
    "cat"        -> Cost(800.0),
    "tr"         -> Cost(150.0, sel = 1.0),
    "grep"       -> Cost(120.0, sel = 0.35),
    "cut"        -> Cost(200.0, sel = 0.10),
    "sed"        -> Cost(120.0, sel = 1.05),
    "rev"        -> Cost(250.0),
    "col"        -> Cost(300.0),
    "iconv"      -> Cost(300.0),
    "fold"       -> Cost(250.0),
    "expand"     -> Cost(300.0),
    "unexpand"   -> Cost(300.0),
    "gunzip"     -> Cost(250.0, sel = 3.0),
    "zcat"       -> Cost(250.0, sel = 3.0),
    "sort"       -> Cost(35.0, sel = 1.0, kind = Blocking, emitMBs = 600.0),
    "uniq"       -> Cost(250.0, sel = 0.5),
    "wc"         -> Cost(400.0, sel = 1e-6, kind = Blocking, emitMBs = 100.0),
    "head"       -> Cost(800.0, sel = 1.0, headLimitMB = 0.01),
    "tail"       -> Cost(400.0, sel = 1.0, kind = Blocking, emitMBs = 800.0),
    "tac"        -> Cost(300.0, sel = 1.0, kind = Blocking, emitMBs = 500.0),
    "nl"         -> Cost(300.0, sel = 1.1),
    "comm"       -> Cost(150.0, sel = 0.5),
    "join"       -> Cost(150.0, sel = 0.8),
    "paste"      -> Cost(250.0, sel = 1.0),
    "diff"       -> Cost(60.0, sel = 0.3, kind = Blocking, emitMBs = 400.0),
    "awk"        -> Cost(100.0, sel = 0.6),
    "sha1sum"    -> Cost(350.0, sel = 1e-6, kind = Blocking, emitMBs = 100.0),
    "md5sum"     -> Cost(350.0, sel = 1e-6, kind = Blocking, emitMBs = 100.0),
    "xargs"      -> Cost(50.0, sel = 1.0),
    "curl"       -> Cost(125.0, sel = 1.0, usesNet = true),
    "wget"       -> Cost(125.0, sel = 1.0, usesNet = true),
    "echo"       -> Cost(500.0, sel = 1.0),
    "seq"        -> Cost(500.0, sel = 1.0),
    "url-extract"  -> Cost(80.0, sel = 0.05),
    "html-to-text" -> Cost(15.0, sel = 0.4),
    "word-stem"    -> Cost(100.0, sel = 0.9),
    "trim-adapter" -> Cost(25.0, sel = 0.8),
    "quality-filter" -> Cost(150.0, sel = 0.9),
  )

  def cmd(r: Resolved, overrides: Map[String, Cost]): Cost =
    overrides.getOrElse(r.name,
      defaults.getOrElse(r.name, Cost(100.0, sel = 1.0)))

  def agg(key: String): Cost = key match {
    case "sort-m" => Cost(250.0, sel = 1.0, interleaved = true)
    case "uniq" | "uniq-c" => Cost(400.0, sel = 1.0)
    case "wc" | "sum" => Cost(500.0, sel = 1.0)
    case "head" => Cost(800.0, sel = 1.0, headLimitMB = 0.01)
    case "tail" => Cost(500.0, sel = 1.0, kind = Blocking, emitMBs = 800.0)
    case "tac"  => Cost(500.0, sel = 1.0)
    case _      => Cost(400.0, sel = 1.0)
  }
}
