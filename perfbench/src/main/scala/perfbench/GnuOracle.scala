package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import java.security.MessageDigest
import java.util.concurrent.TimeUnit

import scala.jdk.CollectionConverters._

import repro.bench.Scripts.ScriptBench
import repro.core.Dfg.CmdOp
import repro.core.Frontend
import repro.exec.{RefExec, Store}

/** Output fingerprints: a script's stdout followed by its file sinks in
  * name order, hashed so that every timed run can be checked afterwards
  * without keeping its output. */
object Outputs {
  def digest(o: RefExec.Out): String = {
    val md = MessageDigest.getInstance("SHA-256")
    def add(lines: Vector[String]): Unit = lines.foreach { l =>
      md.update(l.getBytes(UTF_8)); md.update('\n'.toByte)
    }
    add(o.stdout)
    o.files.toList.sortBy(_._1).foreach { case (f, v) =>
      md.update(s"\u0000$f\u0000".getBytes(UTF_8)); add(v)
    }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }
}

/** Second reference: the original script under `/bin/sh` with the host's
  * GNU tools, `LC_ALL=C`, over the same input files written to disk.
  * Its stdout and file sinks are compared line by line with the
  * sequential output. */
object GnuOracle {

  sealed trait Verdict
  case object Match extends Verdict
  final case class Mismatch(detail: String) extends Verdict
  final case class Skipped(missingTool: String) extends Verdict

  /** Lines and bytes of one input file, as written for `sh`. */
  final case class FileSize(lines: Long, bytes: Long)

  private val toolCache = collection.mutable.Map.empty[String, Boolean]

  private def available(tool: String): Boolean =
    toolCache.getOrElseUpdate(tool, {
      val p = new ProcessBuilder("sh", "-c", s"command -v '$tool' >/dev/null 2>&1")
        .redirectErrorStream(true).start()
      p.waitFor(10, TimeUnit.SECONDS) && p.exitValue() == 0
    })

  /** Write `b`'s inputs from `store` into `dir`; returns their sizes. */
  def writeInputs(b: ScriptBench, store: Store, dir: Path): Map[String, FileSize] = {
    Files.createDirectories(dir)
    Inputs.of(b).map { f =>
      val lines = store.fetch(f)
      val bytes = lines.iterator.map(_.getBytes(UTF_8).length + 1L).sum
      Files.write(dir.resolve(f), lines.asJava, UTF_8)
      f -> FileSize(lines.size.toLong, bytes)
    }.toMap
  }

  /** Run `b` under `sh` in `dir` (inputs already written) and compare with
    * the sequential output `seq`. */
  def check(b: ScriptBench, seq: RefExec.Out, dir: Path, timeoutSec: Long = 60): Verdict = {
    val tools = Frontend.compile(b.script).regions
      .flatMap(_.nodes.values.map(_.op).collect { case CmdOp(r) => r.name })
      .distinct.sorted
    tools.find(t => !available(t)) match {
      case Some(t) => Skipped(t)
      case None =>
        val out = dir.resolve(".stdout")
        val pb = new ProcessBuilder("sh", "-c", b.script).directory(dir.toFile)
          .redirectOutput(out.toFile).redirectError(ProcessBuilder.Redirect.DISCARD)
        pb.environment().put("LC_ALL", "C")
        val p = pb.start()
        if (!p.waitFor(timeoutSec, TimeUnit.SECONDS)) {
          p.destroyForcibly(); p.waitFor()
          Mismatch(s"sh timed out after $timeoutSec s")
        } else {
          def read(f: Path): Vector[String] =
            if (Files.exists(f)) Files.readAllLines(f, UTF_8).asScala.toVector
            else Vector.empty
          val diffs =
            (("stdout", read(out), seq.stdout) ::
              seq.files.toList.sortBy(_._1).map { case (f, v) => (f, read(dir.resolve(f)), v) })
              .collect { case (what, gnu, ours) if gnu != ours =>
                val i = gnu.indices.find(i => i >= ours.size || gnu(i) != ours(i))
                  .getOrElse(gnu.size)
                s"$what differs at line ${i + 1} (sh: ${gnu.lift(i).getOrElse("<end>")}" +
                  s" | ours: ${ours.lift(i).getOrElse("<end>")})"
              }
          if (diffs.isEmpty) Match else Mismatch(diffs.mkString("; "))
        }
    }
  }
}
