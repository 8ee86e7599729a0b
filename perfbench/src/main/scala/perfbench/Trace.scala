package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}

import scala.collection.mutable.ArrayBuffer

/** In-memory span recorder for the traced run.
  *
  * A span is opened by the harness around one call into a layer of the
  * program (`core.parse`, `kernels.sort`, `spark.run`, ...). The layer is
  * the name up to the first dot. Spans nest: the innermost open span is
  * the parent of a new one, and every span carries the pass it belongs
  * to. Nothing is written until [[write]] at the end of the run. With
  * `enabled = false` a span is just a call to its body.
  */
final class Trace(val enabled: Boolean) {
  import Trace.Span

  private val spans   = ArrayBuffer.empty[Span]
  private var open    = List.empty[Int]
  private var nextId  = 0
  private var curPass = 0

  /** Start a new pass; later spans carry its id. */
  def pass(): Int = { curPass += 1; curPass }

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id     = nextId
      val parent = open.headOption.getOrElse(-1)
      nextId += 1
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        open = open.tail
        spans += Span(id, name, parent, curPass, t0, t1)
      }
    }

  def all: Vector[Span] = spans.toVector

  /** Total duration of the spans called `name`, in seconds. */
  def seconds(name: String): Double =
    spans.iterator.filter(_.name == name).map(_.nanos).sum / 1e9

  /** Self time per layer, in seconds: each span's duration minus the part
    * of it that its child spans cover. */
  def selfSecondsByLayer: Map[String, Double] = {
    val childNanos = spans.groupMapReduce(_.parent)(_.nanos)(_ + _)
    spans.groupMapReduce(_.layer)(s => s.nanos - childNanos.getOrElse(s.id, 0L))(_ + _)
      .map { case (layer, ns) => layer -> ns / 1e9 }
  }

  /** One JSON object per span, times in nanoseconds from the first span. */
  def write(file: Path): Unit = {
    val t0 = if (spans.isEmpty) 0L else spans.iterator.map(_.start).min
    val lines = spans.sortBy(_.start).map { s =>
      Json.obj(Seq("id" -> Json.num(s.id), "name" -> Json.str(s.name),
        "parent" -> Json.num(s.parent), "pass" -> Json.num(s.pass),
        "start_ns" -> Json.num((s.start - t0).toDouble), "end_ns" -> Json.num((s.end - t0).toDouble)))
    }
    Files.write(file, lines.mkString("", "\n", "\n").getBytes(UTF_8))
  }
}

object Trace {
  final case class Span(id: Int, name: String, parent: Int, pass: Int,
                        start: Long, end: Long) {
    def nanos: Long    = end - start
    def layer: String  = name.takeWhile(_ != '.')
  }
}
