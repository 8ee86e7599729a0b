package perfbench

/** Minimal JSON rendering for the result line, the results file and the
  * span file (the harness depends on nothing beyond the program's jars). */
object Json {
  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case '\n' => sb ++= "\\n"
      case '\t' => sb ++= "\\t"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c    => sb += c
    }
    sb += '"'
    sb.toString
  }

  /** A number with all its digits; non-finite values have no JSON form. */
  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"not a finite number: $x")
    if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else x.toString
  }

  def bool(b: Boolean): String = b.toString

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  def arr(items: Seq[String]): String = items.mkString("[", ", ", "]")
}
