package repro.core

import Dfg.Graph
import Transform.PashConfig

/** End-to-end PaSh compiler: parse → dataflow regions → parallelization
  * transforms → emitted parallel script + statistics (§2.3, Fig. 1); the
  * last two on demand.
  */
object Compiler {

  /** A compiled program. The emitted script and the Tab. 2 statistics are
    * built on first read: most callers run `parallel` and read neither, so
    * `compileMillis` times parsing and the transforms only. */
  final case class CompileResult(
      sequential: List[Graph],
      parallel: List[Graph],
      compileMillis: Double,
  ) {
    lazy val script: String       = parallel.map(Backend.emit(_).script).mkString("\n")
    lazy val stats: Backend.Stats = Backend.stats(parallel)
  }

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
    val ms       = (System.nanoTime() - t0) / 1e6
    CompileResult(compiled.regions, par, ms)
  }
}
