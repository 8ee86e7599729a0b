package repro.exec

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import java.util.Comparator
import java.util.concurrent.TimeUnit

import scala.jdk.CollectionConverters._

import repro.core.Dfg.{CmdOp, SrcFile}
import repro.core.Frontend

/** Byte-exact oracle: a script under `sh -c` with the host's GNU tools and
  * `LC_ALL=C`, over the Store's copies of its input files written to a
  * fresh temporary directory. Its stdout and file sinks are compared, line
  * by line and in order, with an expected output (RefExec's or
  * SparkExec's); the directory is deleted afterwards.
  *
  * A script is skipped, never run, when it reads a URL (an input named
  * `scheme://…`, or a `curl`/`wget` stage, also under `xargs`), or when one
  * of its commands (an `xargs` inner command too) is not installed. Every
  * file the Store names is written, not only those the graph reads: `sh`
  * finds the files an `xargs` stage lists, and a graph that reads the
  * wrong file cannot match only because `sh` found no file either.
  */
object GnuOracle {

  sealed trait Verdict
  case object Match extends Verdict
  final case class Mismatch(detail: String) extends Verdict
  final case class Skipped(reason: String) extends Verdict

  private val TimeoutSec = 60L
  private val fetchers   = Set("curl", "wget")

  /** Whether `sh` finds `tool` on its PATH. */
  def available(tool: String): Boolean = {
    val p = new ProcessBuilder("sh", "-c", "command -v \"$1\" >/dev/null 2>&1", "sh", tool)
      .redirectErrorStream(true).start()
    p.waitFor(10, TimeUnit.SECONDS) && p.exitValue() == 0
  }

  /** Run `script` under `sh` over `store`'s copies of its inputs and compare
    * its stdout and the sinks named in `expected` with `expected`. */
  def check(script: String, store: Store, expected: RefExec.Out): Verdict = {
    val regions = Frontend.compile(script).regions
    val cmds    = regions.flatMap(_.nodes.values.map(_.op).collect { case CmdOp(r) => r })
    val tools   = cmds.flatMap(r => r.name :: r.inner.map(_.name).toList).distinct.sorted
    val written = regions.flatMap(_.outputs.flatMap(_.sink)).toSet
    val read    = regions.flatMap(_.inputs.flatMap(_.src)).collect { case SrcFile(f) => f }
    val inputs  = (read ++ store.names.filterNot(_.contains("://"))).distinct.filterNot(written)
    read.find(_.contains("://")).map(u => Skipped(s"reads the URL $u"))
      .orElse(tools.find(fetchers).map(t => Skipped(s"fetches URLs with $t")))
      .orElse(tools.find(!available(_)).map(t => Skipped(s"$t is not installed")))
      .getOrElse {
        val dir = Files.createTempDirectory("gnu-oracle")
        try {
          inputs.foreach(f => Files.write(dir.resolve(f), store.fetch(f).asJava, UTF_8))
          run(script, dir, expected)
        } finally {
          val paths = Files.walk(dir)
          try paths.sorted(Comparator.reverseOrder[Path]()).forEach(Files.delete(_))
          finally paths.close()
        }
      }
  }

  private def run(script: String, dir: Path, expected: RefExec.Out): Verdict = {
    val out = dir.resolve(".stdout")
    val pb = new ProcessBuilder("sh", "-c", script).directory(dir.toFile)
      .redirectOutput(out.toFile).redirectError(ProcessBuilder.Redirect.DISCARD)
    pb.environment().put("LC_ALL", "C")
    val p = pb.start()
    if (!p.waitFor(TimeoutSec, TimeUnit.SECONDS)) {
      p.destroyForcibly(); p.waitFor()
      Mismatch(s"sh timed out after $TimeoutSec s")
    } else {
      val diffs =
        (("stdout", out, expected.stdout) ::
          expected.files.toList.sortBy(_._1).map { case (f, v) => (f, dir.resolve(f), v) })
          .flatMap { case (what, file, ours) => differs(what, file, ours) }
      if (diffs.isEmpty) Match else Mismatch(diffs.mkString("; "))
    }
  }

  /** Where `file` differs from `ours` as newline-terminated lines; `None`
    * if it is equal. */
  private def differs(what: String, file: Path, ours: Vector[String]): Option[String] = {
    val bytes = if (Files.exists(file)) Files.readAllBytes(file) else Array.emptyByteArray
    val got   = new String(bytes, UTF_8).split("\n", -1).toVector
    val exp   = ours :+ "" // `ours` written as newline-terminated lines, split the same way
    val i     = got.indices.find(i => i >= exp.size || got(i) != exp(i)).getOrElse(got.size)
    if (got == exp) None
    else Some(s"$what differs at line ${i + 1} (sh: ${got.lift(i).getOrElse("<end>")}" +
      s" | ours: ${exp.lift(i).getOrElse("<end>")})")
  }
}
