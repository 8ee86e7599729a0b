package repro.sim

/** Fluid (time-stepped) simulator of a UNIX process pipeline.
  *
  * Models exactly the §5 runtime phenomena that a Spark cluster cannot
  * exhibit: bounded FIFOs (64 KiB) with *ordered* multi-input reads (the
  * shell's `cat t1 t2` laziness pathology, Fig. 8a), eager relays
  * (unbounded buffer, concurrent producer/consumer, Fig. 8d), blocking
  * relays (file + wait, Fig. 8c), finite CPU cores with fair sharing, a
  * shared network link, PIPE-signal semantics for early-exiting consumers
  * (`head`), and the dangling-FIFO deadlock (§5) when cleanup is off.
  *
  * Data is fluid (MB). Each time step gives every process a byte budget
  * (rate × dt × resource share) and then runs *drain sweeps* so that a
  * fast chain can move its full budget through many 64 KiB pipes within
  * one step — the pipe bounds buffering, not steady-state throughput.
  * Command throughputs come from [[CostModel]]; reproduced claims are
  * curve *shapes* (speedups, crossovers, lattice ordering), not seconds.
  */
object PipeSim {

  /** Behavioural kind of a simulated process. */
  sealed trait Kind
  /** Per-byte streaming transformer (S commands, cat, aggregator merges). */
  case object Streaming extends Kind
  /** Absorbs all input, then emits (sort, tac, split, blocking relay). */
  case object Blocking extends Kind
  /** Eager relay: consumes input regardless of output space (∞ buffer). */
  case object EagerRelay extends Kind

  final case class Cost(
      rateMBs: Double,          // consume rate at 1 core
      sel: Double = 1.0,        // output bytes per input byte; for a
                                // source (no inputs): total MB it produces
      kind: Kind = Streaming,
      emitMBs: Double = 800.0,  // emit rate for Blocking kind
      usesCpu: Boolean = true,
      usesNet: Boolean = false, // rate additionally capped by shared NIC
      interleaved: Boolean = false, // reads inputs interleaved (sort -m)
      headLimitMB: Double = Double.PositiveInfinity, // stop after producing
  )

  final case class Proc(
      id: Int,
      label: String,
      ins: Vector[Int],   // channel ids, consumed in order unless interleaved
      outs: Vector[Int],  // for multi-output blocking (split): emitted in
                          // order, an equal share each
      cost: Cost,
  )

  final case class Chan(id: Int, capMB: Double)

  val FifoCapMB = 0.0625 // 64 KiB

  final case class Result(
      timeSec: Double,
      deadlocked: Boolean,
      producedMB: Map[Int, Double],
  )

  /** Step limit of [[run]]: a network still running after it is reported
    * as deadlocked. */
  val MaxSteps = 400000

  /** Simulate to completion (or deadlock). `volumeHintMB` augments step
    * sizing for workloads whose bytes enter via amplification (a tiny URL
    * list expanding to GBs of downloads) rather than via source files. */
  def run(procs: Vector[Proc], chans: Vector[Chan], cores: Int,
          netMBs: Double = 125.0, pipeCleanup: Boolean = true,
          volumeHintMB: Double = 0.0): Result = {

    val nP       = procs.size
    val buf      = Array.fill(chans.size)(0.0)
    val wClosed  = Array.fill(chans.size)(false)
    val everRead = Array.fill(chans.size)(false)
    val rDone    = Array.fill(chans.size)(false)

    val done     = Array.fill(nP)(false)
    val curIn    = Array.fill(nP)(0)
    val internal = Array.fill(nP)(0.0)
    val emitted  = Array.fill(nP)(0.0)
    val produced = Array.fill(nP)(0.0)
    val emitCur  = Array.fill(nP)(0)
    val absorbed = Array.fill(nP)(0.0)
    val budget   = Array.fill(nP)(0.0)

    def inputEof(c: Int): Boolean = wClosed(c) && buf(c) <= 1e-12
    def allInputsEof(p: Proc): Boolean = p.ins.forall(inputEof)
    def isSource(p: Proc): Boolean = p.ins.isEmpty
    def emitting(p: Proc): Boolean =
      p.cost.kind == Blocking && (isSource(p) || allInputsEof(p))
    def totalOut(p: Proc): Double =
      if (isSource(p)) p.cost.sel else absorbed(p.id) * p.cost.sel

    def procClosed(p: Proc): Unit = {
      done(p.id) = true
      p.outs.foreach(c => wClosed(c) = true)
      p.ins.foreach(c => rDone(c) = true)
    }

    /** Input bytes `p` can read now: ordered reads first skip the inputs
      * at EOF; a source's input is what it has left to produce. */
    def avail(p: Proc): Double = {
      val id = p.id
      if (!p.cost.interleaved) {
        while (curIn(id) < p.ins.size && inputEof(p.ins(curIn(id))))
          curIn(id) += 1
      }
      if (isSource(p)) p.cost.sel - produced(id)
      else if (p.cost.interleaved) p.ins.map(buf).sum
      else if (curIn(id) >= p.ins.size) 0.0
      else buf(p.ins(curIn(id)))
    }

    /** The output a blocking emitter is writing; a split moves to the next
      * output once it has emitted the current one's share. */
    def emitChan(p: Proc): Int = p.outs(math.min(emitCur(p.id), p.outs.size - 1))
    def shareEnd(p: Proc): Double =
      Vector.fill(emitCur(p.id) + 1)(1.0 / p.outs.size).sum * totalOut(p)

    // step sizing: aim for a few thousand steps at the workload's scale
    val srcMB = math.max(volumeHintMB,
      procs.filter(isSource).map(_.cost.sel).sum).max(1.0)
    val dt    = math.max(1e-4, srcMB / 20.0 / 4000.0)
    // effective channel capacity: with ~40 useful sweeps/step a chain can
    // sustain ≈ 40×cap/dt; scale the cap so fast chains (≤1 GB/s) are not
    // sweep-throttled at large dt, while staying far below chunk sizes so
    // the 64 KiB blocking/laziness semantics is qualitatively intact.
    val effCapFloor = 1080.0 * dt / 40.0
    def cap(c: Int): Double = {
      val c0 = chans(c).capMB
      if (c0.isInfinity) c0 else math.max(c0, effCapFloor)
    }

    /** An eager relay passes as much of its buffer as its output FIFO takes. */
    def flush(p: Proc): Unit = if (p.outs.nonEmpty) {
      val id = p.id
      val oc = p.outs.head
      val f = math.max(0.0, math.min(internal(id), cap(oc) - buf(oc)))
      buf(oc) += f; internal(id) -= f; produced(id) += f
    }

    var t = 0.0
    var step = 0
    var stalled = 0

    def result(deadlocked: Boolean): Result =
      Result(t, deadlocked, producedMB = procs.map(p => p.id -> produced(p.id)).toMap)

    while (step < MaxSteps && !procs.forall(p => done(p.id))) {
      step += 1

      // ---- kill producers whose opened output lost its reader (PIPE)
      procs.foreach { p =>
        if (!done(p.id) && p.outs.exists(c => rDone(c) && everRead(c))) procClosed(p)
      }

      // ---- per-step resource shares and budgets; only processes that can
      // actually move bytes this step occupy a core — a process blocked on
      // an empty FIFO (the shell's laziness) sits idle, like a real `sh`
      def mayProgress(p: Proc): Boolean = {
        val id = p.id
        val av = avail(p)
        p.cost.kind match {
          case Blocking if emitting(p) => emitted(id) < totalOut(p) - 1e-9
          case EagerRelay              => av > 1e-12 || internal(id) > 1e-9
          case _                       => av > 1e-12
        }
      }
      var cpuDemand = 0
      var netDemand = 0
      procs.foreach { p =>
        if (!done(p.id) && mayProgress(p)) {
          if (p.cost.usesCpu) cpuDemand += 1
          if (p.cost.usesNet) netDemand += 1
        }
      }
      val cpuShare   = if (cpuDemand <= cores) 1.0 else cores.toDouble / cpuDemand
      val netRateCap = if (netDemand == 0) Double.PositiveInfinity
                       else netMBs / netDemand
      procs.foreach { p =>
        val c = p.cost
        var scale = 1.0
        if (c.usesCpu) scale = math.min(scale, cpuShare)
        if (c.usesNet) scale = math.min(scale, math.min(1.0, netRateCap / c.rateMBs))
        val rate = if (emitting(p)) c.emitMBs else c.rateMBs
        budget(p.id) = rate * scale * dt
      }

      // ---- drain sweeps: move fluid until budgets/buffers are exhausted
      var stepMoved = 0.0
      var sweep = 0
      var sweepMoved = 1.0
      while (sweep < 48 && sweepMoved > 1e-9) {
        sweep += 1
        sweepMoved = 0.0

        procs.foreach { p =>
          val id = p.id
          if (!done(id) && budget(id) > 1e-12) {
            val c = p.cost
            val av = avail(p) // read below only by non-sources
            val isEmit = emitting(p)
            val outSpace: Double = c.kind match {
              case EagerRelay            => Double.PositiveInfinity
              case Blocking if !isEmit   => Double.PositiveInfinity
              case _ =>
                if (p.outs.isEmpty) Double.PositiveInfinity
                else {
                  val oc = if (c.kind == Blocking) emitChan(p) else p.outs.head
                  math.max(0.0, cap(oc) - buf(oc))
                }
            }

            var mv: Double = c.kind match {
              case Blocking if isEmit =>
                // multi-output (split): emit stops at the chunk boundary so
                // each output channel gets exactly its share, in order
                val untilBoundary =
                  if (p.outs.size > 1) shareEnd(p) - emitted(id)
                  else Double.PositiveInfinity
                math.min(math.min(totalOut(p) - emitted(id), untilBoundary), outSpace)
              case Blocking   => av
              case EagerRelay => math.max(av, internal(id))
              case Streaming if isSource(p) =>
                // a source emits 1:1 from its remaining total (sel = MB)
                math.min(c.sel - produced(id), outSpace)
              case Streaming  =>
                math.min(av,
                  if (c.sel <= 1e-12) Double.PositiveInfinity else outSpace / c.sel)
            }
            // throughput binds on the larger of input/output volume, so an
            // amplifying command (xargs curl, gunzip) pays for its output
            val costFactor =
              if (c.kind == Streaming && !isSource(p)) math.max(1.0, c.sel) else 1.0
            mv = math.min(mv, budget(id) / costFactor)
            if (mv > 1e-12) {
              // consume
              if (!isSource(p) && !(c.kind == Blocking && isEmit)) {
                if (c.interleaved) {
                  val tot = p.ins.map(buf).sum
                  p.ins.foreach { ci =>
                    val take = if (tot <= 1e-12) 0.0 else mv * buf(ci) / tot
                    val tk = math.min(take, buf(ci))
                    buf(ci) -= tk; if (tk > 0) everRead(ci) = true
                  }
                } else if (curIn(id) < p.ins.size) {
                  val ci = p.ins(curIn(id))
                  val take = math.min(mv, buf(ci))
                  buf(ci) -= take; if (take > 0) everRead(ci) = true
                  mv = take
                } else mv = 0.0
                absorbed(id) += mv
              }
              // produce
              c.kind match {
                case Blocking if isEmit =>
                  if (p.outs.nonEmpty) buf(emitChan(p)) += mv
                  emitted(id) += mv; produced(id) += mv
                  if (p.outs.size > 1 && emitted(id) >= shareEnd(p) - 1e-9 &&
                      emitCur(id) < p.outs.size - 1) {
                    wClosed(p.outs(emitCur(id))) = true
                    emitCur(id) += 1
                  }
                case Blocking => internal(id) += mv // absorbing
                case EagerRelay =>
                  internal(id) += mv
                  flush(p)
                case Streaming =>
                  // a source's "consumption" is virtual: it produces mv*sel
                  // for non-sources, or mv directly for sources
                  val outB = if (isSource(p)) mv else mv * c.sel
                  if (p.outs.nonEmpty) buf(p.outs.head) += outB
                  produced(id) += outB
              }
              budget(id) = math.max(0.0, budget(id) - mv * costFactor)
              stepMoved += mv; sweepMoved += mv
              if (produced(id) >= c.headLimitMB) procClosed(p)
            }
          }
        }

        // ---- EOF / completion transitions (inside the sweep loop so EOF
        //      propagates through short chains within one step)
        procs.foreach { p =>
          val id = p.id
          if (!done(id)) {
            val c = p.cost
            val srcDone = isSource(p) && c.kind == Streaming &&
              produced(id) >= c.sel - 1e-9
            val eofIn = p.ins.nonEmpty && allInputsEof(p)
            c.kind match {
              case Streaming if srcDone || eofIn => procClosed(p)
              case EagerRelay if eofIn =>
                flush(p)
                if (internal(id) <= 1e-9) procClosed(p)
              case Blocking =>
                val tot = totalOut(p)
                val absorbFinished = isSource(p) || eofIn
                if (absorbFinished && emitted(id) >= tot - 1e-9) procClosed(p)
              case _ => ()
            }
          }
        }
      }

      // ---- stall handling: finished, cleanup-kill, or deadlock
      if (stepMoved <= 1e-12) stalled += 1 else stalled = 0
      if (stalled > 3 && !procs.forall(p => done(p.id))) {
        if (pipeCleanup && procs.exists(p => done(p.id))) {
          procs.foreach(p => if (!done(p.id)) procClosed(p))
        } else return result(deadlocked = true)
      }
      t += dt
    }

    result(deadlocked = !procs.forall(p => done(p.id)))
  }
}
