package repro.core

import Dfg.Graph
import Transform.PashConfig

/** End-to-end PaSh compiler: parse → dataflow regions → parallelization
  * transforms → emitted parallel script + statistics (§2.3, Fig. 1).
  */
object Compiler {

  final case class CompileResult(
      sequential: List[Graph],
      parallel: List[Graph],
      script: String,
      stats: Backend.Stats,
      compileMillis: Double,
  )

  /** Compile `src` at the given width/config. */
  def pash(src: String, cfg: PashConfig): CompileResult =
    compile(src, cfg, Transform.parallelize)

  /** The incorrect chunk-and-concat variant (§6.5 GNU-parallel misuse). */
  def naive(src: String, cfg: PashConfig): CompileResult =
    compile(src, cfg, Transform.naiveParallel)

  private def compile(src: String, cfg: PashConfig,
                      transform: (Graph, PashConfig) => Graph): CompileResult = {
    val t0       = System.nanoTime()
    val compiled = Frontend.compile(src)
    val par      = compiled.regions.map(transform(_, cfg))
    val script   = par.map(Backend.emit(_).script).mkString("\n")
    val stats    = Backend.stats(par)
    val ms       = (System.nanoTime() - t0) / 1e6
    CompileResult(compiled.regions, par, script, stats, ms)
  }
}
